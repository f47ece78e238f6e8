"""The record base: fields are declared once, as annotations, and bound in that order."""

import collections.abc
import importlib
import inspect
import pkgutil
import random
import sys
import types
import typing
from fractions import Fraction

import pytest

import tiltval
from tiltval import ansatz, loglink, pilot, reporting, theta, tilt, witt
from tiltval._record import Record
from tiltval.ansatz import AnsatzPoint, frobenius_orbit, is_member, make_ansatz, scale_invariance_check
from tiltval.ansatz import valuation_profile
from tiltval.cli import RunConfig
from tiltval.errors import DomainError
from tiltval.loglink import LogLinkChain, PadicUnit, chain_build, padic_log
from tiltval.pilot import PilotTuple, build_pilot, corollary_c_check, main_bound_check, size_estimate, sum_log_norms
from tiltval.pilot import theta_set_sample
from tiltval.reporting import CheckRecord, Report, render_report
from tiltval.theta import ThetaValue, theta_value
from tiltval.tilt import TiltElement, tilt_frobenius, tilt_mul, tilt_pow, tilt_rescale_t, tilt_val
from tiltval.witt import PrimitiveDeg1, RhoWeight, WittExpr, eta_val, gauss_log_norm, primitive_frobenius, teichmuller

for _module in pkgutil.iter_modules(tiltval.__path__):  # every module that defines a record, in any run order
    importlib.import_module(f"tiltval.{_module.name}")
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
    assert Report("bound", (), ()).wall_ms is None
    assert RunConfig(3, ell=7) == RunConfig(ell=7, p=3)
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
        RunConfig(elll=7)


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
    assert ThetaValue._trusted(2, 5, 1, Fraction(2, 5), 4) == ThetaValue(2, 5, 1, Fraction(2, 5), 4)
    checks = (CheckRecord("x.y", True, ()),)
    report = Report._trusted("bound", (), checks, None)  # the trusted path fills no default
    assert type(report) is Report and report == Report(suite="bound", config_echo=(), checks=checks)
    assert report.wall_ms is None and hash(report) == hash(Report("bound", (), checks))
    for values in (("bound", (), checks), ("bound", (), checks, None, 7)):
        with pytest.raises(ValueError, match="Report takes 4 field values"):
            Report._trusted(*values)
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
            ThetaValue(1, ell, -1, Fraction(1, 2 * ell), 2)
        with pytest.raises(DomainError):
            theta_value(1, ell)


def test_assign_refuses_the_first_field_that_differs_from_built():
    with pytest.raises(DomainError, match=r"^sign must be -1, got True$"):
        ThetaValue(1, 5, True, Fraction(1, 10), 2)
    for sign in (True, 1.0):  # each equals the sign 1 that j = 2 gives, so only its type refuses it
        with pytest.raises(DomainError, match=rf"^sign must be 1, got {sign}$"):
            ThetaValue(2, 5, sign, Fraction(2, 5), 4)
    # A value past the int digit limit of int-to-str conversion is named, not printed.
    limited = hasattr(sys, "get_int_max_str_digits")
    with pytest.raises(DomainError, match="^nums is not the value its builder makes$" if limited else "^nums must be"):
        TiltElement(2, 20_000, ((1, 1), (3 * 2**20_000, 3)))
    # The compare reaches every depth: a float entry or a True index is refused as the float sign 1.0 is above.
    for entries in (((0, 1.0), (1, 3.0)), ((0, Fraction(1)), (True, Fraction(3)))):
        with pytest.raises(DomainError, match=r"^entries must be \(\(0, Fraction\(1, 1\)\), \(1, "):
            LogLinkChain(3, Fraction(1), (0, 1), entries)


def _tuple_fields(cls):
    """The fields of a record class whose annotation, with aliases resolved, is a tuple[...]."""
    hints = typing.get_type_hints(cls)
    return [name for name in cls.__slots__ if typing.get_origin(hints[name]) is tuple]


def _point():
    return make_ansatz(TiltElement.monomial(2, Fraction(1, 4)), 5)


# Every validating record (one with its own __init__) that has a tuple field, with a valid sample.
# A list in such a field would make a "frozen value" whose hash() raises TypeError.
TUPLE_RECORDS = {
    TiltElement: lambda: TiltElement.monomial(3, Fraction(1, 3)),
    WittExpr: lambda: WittExpr(2, ((0, TiltElement.monomial(2, 1)), (2, TiltElement.monomial(2, 3)))),
    AnsatzPoint: _point,
    LogLinkChain: lambda: chain_build(3, Fraction(1, 3), (-1, 2)),
    PilotTuple: lambda: build_pilot(_point(), Fraction(1, 10)),
}


def test_every_validating_record_with_a_tuple_field_is_in_the_table():
    validating = {cls for cls in RECORDS if "__init__" in vars(cls) and _tuple_fields(cls)}
    assert validating == set(TUPLE_RECORDS), "add each validating record with a tuple field to TUPLE_RECORDS"


_TUPLE_CASES = [(cls, name) for cls in TUPLE_RECORDS for name in _tuple_fields(cls)]


@pytest.mark.parametrize("cls, name", _TUPLE_CASES, ids=[f"{cls.__name__}.{name}" for cls, name in _TUPLE_CASES])
def test_a_list_in_a_tuple_field_is_a_domain_error(cls, name):
    sample = TUPLE_RECORDS[cls]()
    values = dict(zip(cls.__slots__, sample._values()))
    assert cls(**values) == sample and hash(cls(**values)) == hash(sample)  # the sample itself is accepted
    values[name] = list(values[name])
    with pytest.raises(DomainError):
        cls(**values)


def _record_classes(hint):
    """The Record classes an annotation names: itself, a Union of them, or a tuple or Sequence of one; () if none."""
    if typing.get_origin(hint) in (tuple, collections.abc.Sequence):
        hint = typing.get_args(hint)[0]
    options = typing.get_args(hint) if typing.get_origin(hint) in (typing.Union, types.UnionType) else (hint,)
    return tuple(cls for cls in options if isinstance(cls, type) and issubclass(cls, Record))


def _record_fields(cls):
    """The fields of a record class annotated with a Record class or a tuple of one, with aliases resolved."""
    hints = typing.get_type_hints(cls)
    return [name for name in cls.__slots__ if _record_classes(hints[name])]


# Every validating record with a field that holds records, with a valid sample.  Such a field given None or a
# record of another class must be refused as bad input, not end in an AttributeError.
RECORD_FIELD_RECORDS = {
    PrimitiveDeg1: lambda: PrimitiveDeg1(TiltElement.monomial(2, Fraction(1, 4))),
    AnsatzPoint: _point,
    PilotTuple: lambda: build_pilot(_point(), Fraction(1, 10)),
}


def test_every_validating_record_with_a_record_field_is_in_the_table():
    validating = {cls for cls in RECORDS if "__init__" in vars(cls) and _record_fields(cls)}
    assert validating == set(RECORD_FIELD_RECORDS), "add each validating record with a record field to the table"


_RECORD_CASES = [(cls, name) for cls in RECORD_FIELD_RECORDS for name in _record_fields(cls)]


@pytest.mark.parametrize("cls, name", _RECORD_CASES, ids=[f"{cls.__name__}.{name}" for cls, name in _RECORD_CASES])
def test_a_wrong_record_in_a_record_field_is_a_domain_error(cls, name):
    sample = RECORD_FIELD_RECORDS[cls]()
    values = dict(zip(cls.__slots__, sample._values()))
    assert cls(**values) == sample  # the sample itself is accepted
    hint = typing.get_type_hints(cls)[name]
    # t^(1/4) over F_2 as a bare element and as generator data: one of them is of another class than the field's
    foreign = next(x for x in (TiltElement.monomial(2, Fraction(1, 4)), RECORD_FIELD_RECORDS[PrimitiveDeg1]())
                   if not isinstance(x, _record_classes(hint)))
    for wrong in (None, foreign if typing.get_origin(hint) is not tuple else (foreign,) * len(values[name])):
        with pytest.raises(DomainError):
            cls(**{**values, name: wrong})


# Every public function with a record parameter, with valid arguments.  Each record argument given None or a
# record of another class (inside the list for a sequence) must be refused as bad input, not end in an
# AttributeError; any other argument keeps its own rule.
RECORD_ARGUMENTS = {
    tilt_mul: lambda: (TiltElement.monomial(3, Fraction(1, 3)), TiltElement.monomial(3, 2, 2)),
    tilt_pow: lambda: (TiltElement.monomial(3, Fraction(1, 3)), 2),
    tilt_rescale_t: lambda: (TiltElement.monomial(3, Fraction(1, 3), 2), 2),
    tilt_val: lambda: (TiltElement.monomial(3, Fraction(1, 3)),),
    tilt_frobenius: lambda: (TiltElement.monomial(3, Fraction(1, 3)), -1),
    sum_log_norms: lambda: (build_pilot(_point(), Fraction(1, 10)), RhoWeight.of(Fraction(1, 2))),
    size_estimate: lambda: ([build_pilot(_point(), Fraction(1, 10))], RhoWeight.one()),
    build_pilot: lambda: (_point(), Fraction(1, 10)),
    theta_set_sample: lambda: ([_point()], Fraction(1, 10), 1),
    corollary_c_check: lambda: (main_bound_check(5, Fraction(1)), Fraction(1, 2)),
    teichmuller: lambda: (TiltElement.monomial(2, Fraction(1, 4)),),
    gauss_log_norm: lambda: (TUPLE_RECORDS[WittExpr](), RhoWeight.of(Fraction(1, 2))),
    eta_val: lambda: (RECORD_FIELD_RECORDS[PrimitiveDeg1](), TiltElement.monomial(2, 3)),
    primitive_frobenius: lambda: (RECORD_FIELD_RECORDS[PrimitiveDeg1](), 2),
    make_ansatz: lambda: (TiltElement.monomial(2, Fraction(1, 4)), 5),
    is_member: lambda: (list(_point().members),),
    frobenius_orbit: lambda: (_point(), (-1, 1)),
    valuation_profile: lambda: (_point(),),
    scale_invariance_check: lambda: (_point(), lambda x: x),
    padic_log: lambda: (PadicUnit(5, 4, 6),),
    render_report: lambda: (Report("bound", (), (CheckRecord("x.y", True, ()),)), "json"),
}


def _record_parameters(func):
    """Parameter index -> the Record classes its annotation names, for each parameter of func that names one."""
    hints = typing.get_type_hints(func)
    named = ((i, _record_classes(hints.get(name))) for i, name in enumerate(inspect.signature(func).parameters))
    return {i: classes for i, classes in named if classes}


def test_every_public_function_with_a_record_parameter_is_in_the_table():
    missing = [f"{module.__name__}.{name}" for module in (tilt, witt, pilot, ansatz, loglink, theta, reporting)
               for name in module.__all__ if inspect.isfunction(func := getattr(module, name))
               and _record_parameters(func) and func not in RECORD_ARGUMENTS]
    assert not missing, "add each public function with a record parameter to RECORD_ARGUMENTS"


@pytest.mark.parametrize("func", RECORD_ARGUMENTS, ids=lambda func: func.__name__)
def test_a_wrong_record_argument_is_a_domain_error(func):
    args = RECORD_ARGUMENTS[func]()
    func(*args)  # the valid arguments are accepted
    parameters = _record_parameters(func)
    assert parameters and max(parameters) < len(args), "a row gives every record argument"
    for i, classes in parameters.items():
        foreign = next(x for x in (TiltElement.monomial(2, 1), RhoWeight.one()) if type(x) not in classes)
        for wrong in (None, foreign):
            bad = [wrong] if isinstance(args[i], list) else wrong
            names = " or ".join(cls.__name__ for cls in classes)
            with pytest.raises(DomainError, match=f"must be of type {names}, got {type(wrong).__name__}$"):
                func(*args[:i], bad, *args[i + 1 :])


def _builders(cls):
    """The builders of a record class: each public classmethod of it, and each function in its module's __all__,
    annotated to return that class, that takes no argument of that class and makes its result through _trusted."""
    module = sys.modules[cls.__module__]
    candidates = [(name, getattr(cls, name)) for name, value in vars(cls).items()
                  if isinstance(value, classmethod) and not name.startswith("_")]
    candidates += [(name, getattr(module, name)) for name in module.__all__]
    candidates = [(name, func) for name, func in candidates if inspect.isfunction(func) or inspect.ismethod(func)]
    found = set()
    for name, func in candidates:
        hints = typing.get_type_hints(func)
        if hints.pop("return", None) is cls and cls not in hints.values() and "._trusted(" in inspect.getsource(func):
            found.add(name)
    return found


# Every validating record that has a builder, with the builder's name and a valid sample.  A builder's result
# skips the validator, so the validator must call the builder and compare, or the record's rule is written twice.
BUILDERS = {
    TiltElement: ("from_terms", TUPLE_RECORDS[TiltElement]),
    ThetaValue: ("theta_value", lambda: theta_value(2, 7)),
    AnsatzPoint: ("make_ansatz", _point),
    PilotTuple: ("build_pilot", TUPLE_RECORDS[PilotTuple]),
    LogLinkChain: ("chain_build", TUPLE_RECORDS[LogLinkChain]),
    PadicUnit: ("of", lambda: PadicUnit.of(5, 4, 631)),
}


def test_every_validating_record_with_a_builder_is_in_the_table():
    found = {(cls, name) for cls in RECORDS if "__init__" in vars(cls) for name in _builders(cls)}
    assert found == {(cls, row[0]) for cls, row in BUILDERS.items()}, "add each validating record's builder to BUILDERS"


class _BuilderCalled(Exception):
    pass


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_a_validating_constructor_calls_its_builder(monkeypatch, cls):
    name, sample = BUILDERS[cls]
    values = sample()._values()

    def builder(*args):
        raise _BuilderCalled(name)

    if name in vars(cls):
        monkeypatch.setattr(cls, name, classmethod(builder))
    else:
        monkeypatch.setattr(sys.modules[cls.__module__], name, builder)
    with pytest.raises(_BuilderCalled):
        cls(*values)


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_a_validating_constructor_hands_its_builders_record_to_assign(monkeypatch, cls):
    # Record._assign owns the compare: the constructor passes the record its builder returned, as built.
    name, sample = BUILDERS[cls]
    record = sample()
    module = sys.modules[cls.__module__]
    builder = getattr(cls, name) if name in vars(cls) else getattr(module, name)
    assign = Record._assign
    returned, handed = [], []

    def spy_builder(*args):
        returned.append(builder(*args))
        return returned[-1]

    def spy_assign(self, *values, **kwargs):
        if type(self) is cls:
            handed.append(kwargs.get("built"))
        return assign(self, *values, **kwargs)

    if name in vars(cls):
        monkeypatch.setattr(cls, name, classmethod(lambda _, *args: spy_builder(*args)))
    else:
        monkeypatch.setattr(module, name, spy_builder)
    monkeypatch.setattr(Record, "_assign", spy_assign)
    assert cls(*record._values()) == record
    assert len(returned) == len(handed) == 1 and handed[0] is returned[0]


class _Ratio(Fraction):
    """A Fraction subclass: equal to its Fraction, but of another type than the one a builder makes."""


def _twins(leaf):
    """Values equal to an int or Fraction leaf but of another type: a Fraction subclass, a Fraction for an int,
    True or False for 1 or 0, and a float where one equals the leaf."""
    if type(leaf) is Fraction:
        twins = [_Ratio(leaf)]
    elif type(leaf) is int:
        twins = [_Ratio(leaf), Fraction(leaf)] + ([bool(leaf)] if leaf in (0, 1) else [])
    else:
        return []
    return twins + ([float(leaf)] if float(leaf) == leaf else [])


def _leaf_swaps(value):
    """Copies of a nested tuple value, each with one leaf replaced by one of its twins."""
    if type(value) is not tuple:
        yield from _twins(value)
        return
    for i, item in enumerate(value):
        for swapped in _leaf_swaps(item):
            yield (*value[:i], swapped, *value[i + 1 :])


# The tuple fields of every record in BUILDERS whose leaves are numbers, not records.  TiltElement checks each
# numerator before it calls from_terms, and from_terms each coefficient, so those refusals name the leaf.
_LEAF_CASES = [(cls, name) for cls in BUILDERS for name in _tuple_fields(cls)
               if not _record_classes(typing.get_type_hints(cls)[name])]
_LEAF_REFUSALS = {(TiltElement, "nums"): "^(exponent numerator|coefficient) must be an integer, got "}


@pytest.mark.parametrize("cls, name", _LEAF_CASES, ids=[f"{cls.__name__}.{name}" for cls, name in _LEAF_CASES])
def test_an_equal_leaf_of_another_type_is_refused_at_any_depth(cls, name):
    # True == 1, 1.0 == 1 and a Fraction subclass equals its Fraction, so only the type of a leaf refuses it.
    values = dict(zip(cls.__slots__, BUILDERS[cls][1]()._values()))
    swaps = list(_leaf_swaps(values[name]))
    assert swaps, "the sample has no int or Fraction leaf in this field"
    for swapped in swaps:
        assert swapped == values[name]
        with pytest.raises(DomainError, match=_LEAF_REFUSALS.get((cls, name), f"^{name} must be ")):
            cls(**{**values, name: swapped})
