"""The record base: every constructor hands its fields to _assign in slot order."""

import inspect

import pytest

import tiltval.cli  # noqa: F401  (imports every module that defines a record)
from tiltval._record import Record
from tiltval.reporting import CheckRecord

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: (cls.__module__, cls.__qualname__))


def test_records_of_every_module_are_found():
    modules = {cls.__module__.rpartition(".")[2] for cls in RECORDS}
    assert modules == {"ansatz", "cli", "loglink", "pilot", "reporting", "theta", "tilt", "witt"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_init_parameters_are_the_slots_in_order(cls):
    assert list(inspect.signature(cls.__init__).parameters)[1:] == list(cls.__slots__)


def test_assign_takes_exactly_one_value_per_slot():
    record = CheckRecord.__new__(CheckRecord)
    with pytest.raises(ValueError):
        record._assign("x.y", True)
    with pytest.raises(ValueError):
        record._assign("x.y", True, (), "extra")
    record._assign("x.y", True, ())
    assert record == CheckRecord("x.y", True, ())
