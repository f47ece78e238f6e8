"""Square-power families: construction, membership, orbits, invariance."""

import random
from fractions import Fraction

import pytest
from conftest import assert_immutable_value, random_monomial

from tiltval.ansatz import (
    AnsatzPoint,
    HolomorphoidRecord,
    frobenius_orbit,
    is_member,
    make_ansatz,
    untilt_records,
    valuation_profile,
    scale_invariance_check,
)
from tiltval.errors import DomainError
from tiltval.tilt import TiltElement, tilt_mul, tilt_pow, tilt_rescale_t
from tiltval.witt import PrimitiveDeg1


def _t(p, exponent=1, coeff=1):
    return TiltElement.monomial(p, Fraction(exponent), coeff)


def test_make_frozen_families():
    point = make_ansatz(_t(2), 5)
    assert point.ell_star == 2
    assert tuple(m.a for m in point.members) == (_t(2), _t(2, 4))
    quarter = make_ansatz(_t(2, Fraction(1, 4)), 5)
    assert tuple(m.a for m in quarter.members) == (_t(2, Fraction(1, 4)), _t(2))
    assert len(make_ansatz(_t(2), 3).members) == 1


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
        make_ansatz(_t(2), 15)
    with pytest.raises(DomainError):
        make_ansatz(_t(5), 5)  # ell equals the characteristic
    with pytest.raises(DomainError):
        make_ansatz(TiltElement.one(2), 5)  # v(a) = 0
    with pytest.raises(DomainError):
        make_ansatz(TiltElement.zero(2), 5)


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


def test_scale_invariance():
    point = make_ansatz(_t(3, Fraction(1, 3), coeff=2), 5)
    assert scale_invariance_check(point, lambda x: tilt_rescale_t(x, 2))
    assert scale_invariance_check(point, lambda x: x)
    with pytest.raises(DomainError):
        # shifting the support is not a coefficient substitution
        scale_invariance_check(point, lambda x: tilt_mul(x, _t(3)))


def test_scale_invariance_flags_broken_tuples():
    # A substitution that maps through a non-power tuple must come back False;
    # simulate by swapping the generator during substitution.
    point = make_ansatz(_t(5), 7)

    def crooked(x):
        if x == point.members[1].a:  # replace a^4 with 2 a^4
            return TiltElement.monomial(5, 4, coeff=2)
        return x

    assert not scale_invariance_check(point, crooked)


def test_untilt_records():
    point = make_ansatz(_t(2, Fraction(1, 4)), 5)
    records = untilt_records(point, Fraction(3, 2), label="y")
    assert [r.label for r in records] == ["y.1", "y.2"]
    assert [r.tate_valuation for r in records] == [Fraction(3, 2), Fraction(6)]
    with pytest.raises(DomainError):
        untilt_records(point, Fraction(0), label="y")
    with pytest.raises(DomainError):
        HolomorphoidRecord(label="y", member_index=0, tate_valuation=Fraction(1))
    with pytest.raises(DomainError):
        HolomorphoidRecord(label="y", member_index=1, tate_valuation=Fraction(-1))


def test_records_are_immutable_values():
    assert_immutable_value(lambda: make_ansatz(_t(3, Fraction(1, 3), 2), 7))
    assert_immutable_value(lambda: HolomorphoidRecord("y.1", 1, Fraction(3, 2)))
    point = make_ansatz(_t(2, Fraction(1, 4)), 5)
    assert AnsatzPoint(a=point.a, ell=5, members=point.members) == point
