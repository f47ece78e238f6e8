"""The record base: fields are declared once, as annotations, and bound in that order."""

import inspect
from fractions import Fraction

import pytest

import tiltval.cli  # noqa: F401  (imports every module that defines a record)
from tiltval._record import Record
from tiltval.cli import RunConfig
from tiltval.reporting import CheckRecord, Report

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: (cls.__module__, cls.__qualname__))


def test_records_of_every_module_are_found():
    modules = {cls.__module__.rpartition(".")[2] for cls in RECORDS}
    assert modules == {"ansatz", "cli", "loglink", "pilot", "reporting", "theta", "tilt", "witt"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_init_parameters_are_the_slots_in_order(cls):
    if "__init__" in vars(cls):  # a validating record names the fields as its parameters
        assert list(inspect.signature(cls.__init__).parameters)[1:] == list(cls.__slots__)
    else:  # a carrier binds positional values through the generic constructor
        values = tuple(object() for _ in cls.__slots__)
        assert cls(*values)._values() == values


def test_no_record_writes_its_own_slots():
    for cls in RECORDS:
        assert cls.__slots__ == tuple(cls.__annotations__), cls.__qualname__
    with pytest.raises(TypeError, match="annotations"):

        class Slotted(Record):
            __slots__ = ("x",)
            x: int


def test_generic_constructor_binds_like_a_signature():
    record = CheckRecord("x.y", True, ())
    assert CheckRecord("x.y", passed=True, witness=()) == record
    assert CheckRecord(witness=(), check_id="x.y", passed=True) == record
    assert Report("bound", (), (), ()).wall_ms is None
    assert RunConfig(3, ell=7) == RunConfig().override(p=3, ell=7)
    assert RunConfig(3, ell=7).v_q == Fraction(1)
    with pytest.raises(TypeError, match="missing field 'witness'"):
        CheckRecord("x.y", True)
    with pytest.raises(TypeError, match="takes 3 field values"):
        CheckRecord("x.y", True, (), ())
    with pytest.raises(TypeError, match="unexpected keyword field 'extra'"):
        CheckRecord("x.y", True, (), extra=1)
    with pytest.raises(TypeError, match="multiple values for field 'passed'"):
        CheckRecord("x.y", True, (), passed=False)
    with pytest.raises(TypeError, match="unexpected keyword field 'elll'"):
        RunConfig().override(elll=7)


def test_assign_takes_exactly_one_value_per_slot():
    record = CheckRecord.__new__(CheckRecord)
    with pytest.raises(ValueError):
        record._assign("x.y", True)
    with pytest.raises(ValueError):
        record._assign("x.y", True, (), "extra")
    record._assign("x.y", True, ())
    assert record == CheckRecord("x.y", True, ())
