"""Square-power families: construction, membership, orbits, invariance."""

import random
from fractions import Fraction

import pytest
from conftest import assert_immutable_value, fresh_pow, random_monomial, replace_everywhere

from tiltval import tilt
from tiltval.ansatz import (
    AnsatzPoint,
    frobenius_orbit,
    is_member,
    make_ansatz,
    valuation_profile,
    scale_invariance_check,
)
from tiltval.errors import DomainError, VerificationError
from tiltval.tilt import TiltElement, _power_table, _powers, tilt_frobenius, tilt_mul, tilt_pow, tilt_rescale_t
from tiltval.witt import PrimitiveDeg1


def _t(p, exponent=1, coeff=1):
    return TiltElement.monomial(p, Fraction(exponent), coeff)


def test_make_frozen_families():
    point = make_ansatz(_t(2), 5)
    assert point.ell_star == 2
    assert tuple(m.a for m in point.members) == (_t(2), _t(2, 4))
    quarter = make_ansatz(_t(2, Fraction(1, 4)), 5)
    assert tuple(m.a for m in quarter.members) == (_t(2, Fraction(1, 4)), _t(2))
    assert tuple(m.a for m in make_ansatz(_t(2), 3).members) == (_t(2),)


def test_profile_frozen():
    assert valuation_profile(make_ansatz(_t(2), 5)) == (Fraction(1), Fraction(4))
    assert valuation_profile(make_ansatz(_t(2, Fraction(1, 4)), 5)) == (
        Fraction(1, 4),
        Fraction(1),
    )


def test_point_construction_reverifies_members():
    with pytest.raises(DomainError):
        AnsatzPoint(
            a=_t(2),
            ell=5,
            members=(PrimitiveDeg1(_t(2)), PrimitiveDeg1(_t(2, 3))),  # t^3 is not t^4
        )
    with pytest.raises(DomainError):
        AnsatzPoint(a=_t(2), ell=5, members=(PrimitiveDeg1(_t(2)),))  # too short


def test_make_validation():
    with pytest.raises(DomainError):
        make_ansatz(_t(2), 2)
    with pytest.raises(DomainError):
        make_ansatz(_t(2), 9)
    with pytest.raises(DomainError):
        make_ansatz(_t(2), 15)
    with pytest.raises(DomainError):
        make_ansatz(_t(5), 5)  # ell equals the characteristic
    with pytest.raises(DomainError):
        make_ansatz(_t(3), 3)  # the same at p = 3
    with pytest.raises(DomainError):
        make_ansatz(TiltElement.monomial(2, 0), 5)  # v(a) = 0
    with pytest.raises(DomainError):
        make_ansatz(TiltElement.from_terms(2, {}), 5)


_A = TiltElement.monomial(2, Fraction(1, 4))
_WRONG_TYPES = {  # each is bad input (DomainError), not an AttributeError
    "point_of_bare_elements": lambda: AnsatzPoint(_A, 5, (_A, _A)),
    "point_of_none": lambda: AnsatzPoint(None, 5, ()),
    "family_of_none": lambda: make_ansatz(None, 5),
    "family_of_generator_data": lambda: make_ansatz(PrimitiveDeg1(_A), 5),
    "member_bare_element": lambda: is_member((_A,)),
    "member_bare_tail": lambda: is_member((*make_ansatz(_A, 5).members, _A)),
    "family_of_an_int": lambda: is_member(5),
    "family_of_an_iterator": lambda: is_member(iter(make_ansatz(_A, 5).members)),
    "orbit_of_none": lambda: frobenius_orbit(None, (0, 0)),
    "orbit_of_a_member": lambda: frobenius_orbit(make_ansatz(_A, 5).members[0], (0, 0)),
    "profile_of_none": lambda: valuation_profile(None),
    "scale_invariance_of_none": lambda: scale_invariance_check(None, lambda x: x),
    "scale_invariance_to_none": lambda: scale_invariance_check(make_ansatz(_A, 5), lambda x: None),
}


@pytest.mark.parametrize("probe", _WRONG_TYPES.values(), ids=_WRONG_TYPES.keys())
def test_a_wrong_typed_point_or_member_is_a_domain_error(probe):
    with pytest.raises(DomainError):
        probe()


def _one_table_families():
    """(name, generator, ell) for multi-term generators whose families read packed, dict and spilled tables."""
    rng = random.Random(811)
    for ell in (5, 7, 11, 13):
        a = tilt_mul(random_monomial(rng, 3), TiltElement.from_terms(3, {0: 1, Fraction(1, 3): 2}))
        yield f"packed-p3-ell{ell}", a, ell
    yield "packed-p2", TiltElement.from_terms(2, {Fraction(1, 2): 1, 1: 1, Fraction(3, 2): 1}), 11
    yield "packed-p11", TiltElement.from_terms(11, {Fraction(1, 11): 3, Fraction(2, 11): 7}), 13
    yield "dict-p13", TiltElement.from_terms(13, {Fraction(1, 13): 1, 1: 5}), 7
    yield "dict-sparse", TiltElement.from_terms(2, {Fraction(1, 8): 1, Fraction(1, 4): 1, 12500: 1}), 11
    # 255 slots over F_2: a^(j^2) passes _ENTRY_MAX bytes from j = 17, so the top two, four and five
    # members spill at ell 37, 41 and 43.
    for ell in (37, 41, 43):
        yield f"spill-ell{ell}", TiltElement.from_terms(2, {Fraction(1, 2): 1, 1: 1, Fraction(255, 2): 1}), ell


def _table_kinds(monkeypatch):
    """The kinds of the tables built from here on: bytes for a packed table, dict for a dict one."""
    kinds, table = [], tilt._table

    def kind_table(p, digits, *more):
        kinds.append(type(digits[1]))
        return table(p, digits, *more)

    monkeypatch.setattr(tilt, "_table", kind_table)
    return kinds


def test_make_ansatz_forms_each_power_once(monkeypatch):
    tables, kinds = [], _table_kinds(monkeypatch)
    monkeypatch.setattr(tilt, "_powers", lambda nums, p: tables.append(nums) or _powers(nums, p))
    for name, a, ell in _one_table_families():
        ell_star = (ell - 1) // 2
        layout = tilt._packing(a.nums, a.p)
        assert (layout is not None) == name.startswith(("packed", "spill")), name
        if name.startswith("spill"):
            assert ell_star**2 > tilt._ENTRY_MAX // ((a.nums[-1][0] - a.nums[0][0]) // layout[1])
        # the per-member route is the oracle: one tilt_pow, and one fresh table, per member
        expected = tuple(PrimitiveDeg1(fresh_pow(a, j * j)) for j in range(1, ell_star + 1))
        _powers.cache_clear()  # the oracle and make_ansatz share no table
        tables.clear()
        kinds.clear()
        point = make_ansatz(a, ell)
        assert tables == [a.nums], name
        spilled = [dict] if name.startswith("spill") else []  # every spilled member reads one dict table
        assert kinds == ([dict] if layout is None else [bytes, *spilled]), name
        assert point.members == expected, name
        assert is_member(point.members), name  # the _power_check predicate agrees with the power table


def test_a_family_check_reads_one_table(monkeypatch):
    # The generator-family check: make_ansatz, the orbit over phi^-1..phi^1, then is_member on each orbit
    # point and on the family with a tampered tail.  phi^n(a) keeps a's numerators, so all of it reads the
    # one table make_ansatz built (with its one dict table for spilled members).
    kinds = _table_kinds(monkeypatch)
    for name, a, ell in _one_table_families():
        _powers.cache_clear()
        kinds.clear()
        point = make_ansatz(a, ell)
        orbit = frobenius_orbit(point, (-1, 1))
        tail = PrimitiveDeg1(tilt_mul(point.members[-1].a, TiltElement.monomial(a.p, 1)))
        assert [is_member(o.members) for o in orbit] == [True] * 3, name
        assert not is_member((*point.members[:-1], tail)), name
        expected = [dict] if name.startswith("dict") else [bytes, dict] if name.startswith("spill") else [bytes]
        assert kinds == expected, name


def test_is_member_frozen():
    point = make_ansatz(_t(2), 5)
    assert is_member(point.members)
    assert is_member([PrimitiveDeg1(_t(2))])  # singletons are always extendable
    assert not is_member([PrimitiveDeg1(_t(2)), PrimitiveDeg1(_t(2, 3))])
    assert not is_member([PrimitiveDeg1(_t(2)), PrimitiveDeg1(_t(3, 4))])  # mixed fields
    with pytest.raises(DomainError):
        is_member([])


def test_membership_rejects_perturbations():
    rng = random.Random(77)
    for _ in range(100):
        p, ell = rng.choice(((2, 5), (2, 7), (3, 5), (7, 11)))
        point = make_ansatz(random_monomial(rng, p), ell)
        members = list(point.members)
        j = rng.randrange(1, len(members))  # leave the candidate entry alone
        bump = Fraction(rng.randint(1, 5), p ** rng.randint(0, 2))
        e = members[j].a.terms[0][0]
        members[j] = PrimitiveDeg1(TiltElement.monomial(p, e + bump))
        assert not is_member(members)


def test_orbit_frozen():
    point = make_ansatz(_t(2), 5)
    orbit = frobenius_orbit(point, (-1, 1))
    assert [o.a for o in orbit] == [_t(2, Fraction(1, 2)), _t(2), _t(2, 2)]
    assert all(is_member(o.members) for o in orbit)
    with pytest.raises(DomainError):
        frobenius_orbit(point, (2, -2))


def test_orbit_profile_scaling():
    rng = random.Random(41)
    for _ in range(40):
        p, ell = rng.choice(((2, 5), (3, 7), (7, 5)))
        point = make_ansatz(random_monomial(rng, p), ell)
        profile = valuation_profile(point)
        for n, shifted in zip(range(-2, 3), frobenius_orbit(point, (-2, 2))):
            scale = Fraction(p) ** n
            assert valuation_profile(shifted) == tuple(e * scale for e in profile)


def test_multiterm_generator_families():
    a = TiltElement.from_terms(2, {1: 1, 2: 1})  # t + t^2
    point = make_ansatz(a, 7)
    assert is_member(point.members)
    assert valuation_profile(point) == (Fraction(1), Fraction(4), Fraction(9))
    orbit = frobenius_orbit(point, (0, 1))
    assert orbit[1].a == tilt_pow(a, 2)  # Frobenius is squaring over F_2


def _multiterm_generators(seed):
    """Seeded generators over F_2, F_3 and F_5 with 2-4 terms of positive exponent, each with an ell != p."""
    rng = random.Random(seed)
    for p, ell in ((2, 5), (2, 7), (3, 7), (3, 11), (5, 7), (5, 11)):
        for n_terms in (2, 3, 4):
            exponents = set()
            while len(exponents) < n_terms:
                exponents.add(Fraction(rng.randint(1, 2 * p), p ** rng.randint(0, 1)))
            yield TiltElement.from_terms(p, {e: rng.randint(1, p - 1) for e in exponents}), ell


def _orbit_by_constructor(point, window):
    """The orbit as the public constructor builds it: every member revalidated and re-powered."""
    return tuple(
        AnsatzPoint(
            a=tilt_frobenius(point.a, n),
            ell=point.ell,
            members=tuple(PrimitiveDeg1(tilt_frobenius(m.a, n)) for m in point.members),
        )
        for n in range(window[0], window[1] + 1)
    )


def test_orbit_matches_the_constructor_route_on_multiterm_generators():
    for a, ell in _multiterm_generators(6007):
        point = make_ansatz(a, ell)
        for window in ((-2, 2), (0, 0), (1, 3)):
            orbit = frobenius_orbit(point, window)
            expected = _orbit_by_constructor(point, window)
            assert orbit == expected, (a, ell, window)
            for got, want in zip(orbit, expected):
                assert got.a.terms == want.a.terms
                assert [m.a.terms for m in got.members] == [m.a.terms for m in want.members]
        assert frobenius_orbit(point, (0, 0)) == (point,)


@pytest.mark.parametrize(
    "target, fault",
    [
        ("tiltval.ansatz.primitive_frobenius", lambda w, n=1: PrimitiveDeg1(tilt_frobenius(w.a, n + 1))),
        ("tiltval.ansatz.tilt_frobenius", lambda x, n=1: tilt_frobenius(x, n + 1)),
        ("tiltval.ansatz.tilt_frobenius", lambda x, n=1: x),
    ],
    ids=["mistwisted-members", "mistwisted-generator", "frobenius-is-identity"],
)
def test_an_orbit_kernel_fault_is_a_verification_error(monkeypatch, target, fault):
    points = [make_ansatz(_t(2), 5), make_ansatz(_t(3, Fraction(2, 3), 2), 7)]
    points += [make_ansatz(a, ell) for a, ell in _multiterm_generators(6011)]
    monkeypatch.setattr(target, fault)
    for point in points:
        for window in ((-2, 2), (1, 3), (-1, -1)):
            with pytest.raises(VerificationError, match="left the ansatz"):
                frobenius_orbit(point, window)


def test_a_power_kernel_fault_is_a_verification_error(monkeypatch):
    # Membership computes its powers itself, so a power table returning a^(k+1) at every import site
    # builds a family that the orbit constructor refuses.
    replace_everywhere(monkeypatch, _power_table, lambda x: lambda k, power=_power_table(x): power(k + 1))
    for p in (2, 3):
        a = TiltElement.from_terms(p, {Fraction(1, p): 1, 1: 1})
        with pytest.raises(VerificationError, match="left the ansatz"):
            frobenius_orbit(make_ansatz(a, 7), (0, 0))


def test_scale_invariance():
    point = make_ansatz(_t(3, Fraction(1, 3), coeff=2), 5)
    assert scale_invariance_check(point, lambda x: tilt_rescale_t(x, 2))
    assert scale_invariance_check(point, lambda x: x)
    with pytest.raises(DomainError):
        # shifting the support is not a coefficient substitution
        scale_invariance_check(point, lambda x: tilt_mul(x, _t(3)))
    with pytest.raises(DomainError):
        # the same numerators on a frame one step coarser: every exponent times 3
        scale_invariance_check(point, lambda x: tilt_frobenius(x, 1))


def test_scale_invariance_flags_broken_tuples():
    # A substitution that maps through a non-power tuple must come back False;
    # simulate by swapping the generator during substitution.
    point = make_ansatz(_t(5), 7)

    def crooked(x):
        if x == point.members[1].a:  # replace a^4 with 2 a^4
            return TiltElement.monomial(5, 4, coeff=2)
        return x

    assert not scale_invariance_check(point, crooked)


def test_records_are_immutable_values():
    assert_immutable_value(lambda: make_ansatz(_t(3, Fraction(1, 3), 2), 7))
    point = make_ansatz(_t(2, Fraction(1, 4)), 5)
    assert AnsatzPoint(a=point.a, ell=5, members=point.members) == point
