"""The record base: fields are declared once, as annotations, and bound in that order."""

import inspect
import random
from fractions import Fraction

import pytest

import tiltval.cli  # noqa: F401  (imports every module that defines a record)
from tiltval._record import Record
from tiltval.cli import RunConfig
from tiltval.errors import DomainError
from tiltval.loglink import PadicUnit
from tiltval.reporting import CheckRecord, Report
from tiltval.theta import CycloElt
from tiltval.tilt import TiltElement

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


def test_trusted_path_builds_the_validated_record():
    nums = ((1, 2), (12, 1))  # 2 t^(1/3) + t^4 on the frame 3^1
    validated, trusted = TiltElement(3, 1, nums), TiltElement._trusted(3, 1, nums)
    assert type(trusted) is TiltElement and trusted == validated and hash(trusted) == hash(validated)
    assert PadicUnit._trusted(5, 4, 6) == PadicUnit(5, 4, 6)
    assert CycloElt._trusted(5, (1, 0, 0, 0)) == CycloElt.one(5)
    for name in TiltElement.__slots__:
        with pytest.raises(AttributeError):
            setattr(trusted, name, getattr(validated, name))
        with pytest.raises(AttributeError):
            delattr(trusted, name)
    with pytest.raises(ValueError):
        TiltElement._trusted(3)  # one value per field, as _assign demands


def test_public_constructors_keep_every_check():
    with pytest.raises(DomainError):
        TiltElement(4, 0, ())  # composite characteristic
    with pytest.raises(DomainError):
        TiltElement(3, 0, ((2, 1), (1, 1)))  # unsorted
    with pytest.raises(DomainError):
        TiltElement(3, 0, ((1, 3),))  # coefficient not reduced to 1..2
    with pytest.raises(DomainError):
        TiltElement(3, 1, ((3, 1),))  # t on the frame 3^1: not minimal
    with pytest.raises(DomainError):
        PadicUnit(9, 4, 1)
    with pytest.raises(DomainError):
        PadicUnit.of(4, 3, 1)
    with pytest.raises(DomainError):
        PadicUnit.random(random.Random(1), 6, 3)
    for ell in (2, 9):
        with pytest.raises(DomainError):
            CycloElt(ell, (0,) * (ell - 1))
        with pytest.raises(DomainError):
            CycloElt.from_root_pows(ell, {1: 1})
