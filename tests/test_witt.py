"""Presentations, Gauss log-norms, and degree-one prime generators."""

import random
from fractions import Fraction

import pytest
from conftest import assert_immutable_value, random_element, random_monomial

from tiltval.ansatz import make_ansatz
from tiltval.errors import DomainError
from tiltval.tilt import TiltElement, tilt_frobenius, tilt_mul, tilt_val
from tiltval.witt import (
    PrimitiveDeg1,
    RhoWeight,
    WittExpr,
    eta_val,
    gauss_log_norm,
    primitive_frobenius,
    teichmuller,
)


def _t(p, exponent=1, coeff=1):
    return TiltElement.monomial(p, Fraction(exponent), coeff)


def test_teichmuller_shape():
    w = teichmuller(_t(2))
    assert w.terms == ((0, _t(2)),)
    assert teichmuller(TiltElement.from_terms(2, {})).is_zero


def test_gauss_log_norm_frozen():
    rho = RhoWeight.of(1)
    assert gauss_log_norm(teichmuller(_t(2)), rho) == 1
    two_slots = WittExpr(2, ((0, _t(2)), (1, _t(2, 2))))
    assert gauss_log_norm(two_slots, rho) == 1  # min(1, 2 + 1)
    slot_heavy = WittExpr(2, ((0, _t(2, 5)), (1, _t(2, Fraction(1, 2)))))
    assert gauss_log_norm(slot_heavy, rho) == Fraction(3, 2)  # the p-slot wins


def test_gauss_log_norm_weight_dependence():
    w = WittExpr(3, ((0, _t(3, 2)), (2, _t(3, Fraction(1, 3)))))
    assert gauss_log_norm(w, RhoWeight.of(Fraction(1, 2))) == Fraction(4, 3)
    assert gauss_log_norm(w, RhoWeight.of(3)) == 2
    assert gauss_log_norm(w, RhoWeight.one()) == Fraction(1, 3)  # weight 0 at the boundary


def test_empty_presentation_norm_sentinel():
    # The minimum over no slots is +infinity, and zero is integral: lambda >= 0.
    norm = gauss_log_norm(teichmuller(TiltElement.from_terms(5, {})), RhoWeight.of(1))
    assert norm is None


def test_rho_weight_validation():
    with pytest.raises(DomainError):
        RhoWeight.of(0)
    with pytest.raises(DomainError):
        RhoWeight.of(Fraction(-1, 2))
    with pytest.raises(DomainError):
        RhoWeight(Fraction(1), at_one=True)  # the boundary flag pins the weight to 0
    # The boundary flag is a bool: "yes" at weight 0 would be a boundary weight unequal to RhoWeight.one().
    for r, at_one in ((Fraction(0), "yes"), (Fraction(0), 1), (Fraction(1), 0)):
        with pytest.raises(DomainError, match="^at_one must be a bool"):
            RhoWeight(r, at_one)
    for inexact in (0.3, 0.5, "1/2"):  # RhoWeight.of(0.3) would weigh over 2^54
        with pytest.raises(DomainError, match="must be an int or a Fraction"):
            RhoWeight.of(inexact)


def test_rho_weight_refuses_bool():
    with pytest.raises(DomainError, match="must be an int or a Fraction"):
        RhoWeight.of(True)


def test_records_are_immutable_values():
    assert_immutable_value(lambda: RhoWeight.of(Fraction(1, 3)))
    assert_immutable_value(lambda: RhoWeight(r=Fraction(0), at_one=True))
    assert_immutable_value(lambda: WittExpr(2, ((0, _t(2)), (2, _t(2, 3)))))
    assert_immutable_value(lambda: PrimitiveDeg1(_t(3, Fraction(1, 3), 2)))
    assert RhoWeight(Fraction(2)) == RhoWeight(Fraction(2), False) == RhoWeight(r=Fraction(2), at_one=False)
    assert repr(RhoWeight.one()) == "RhoWeight(r=Fraction(0, 1), at_one=True)"


def test_witt_expr_validation():
    with pytest.raises(DomainError):
        WittExpr(2, ((0, TiltElement.from_terms(2, {})),))  # zero entry stored
    with pytest.raises(DomainError):
        WittExpr(2, ((-1, _t(2)),))
    with pytest.raises(DomainError):
        WittExpr(2, ((1, _t(2)), (0, _t(2))))  # unsorted slots
    for terms in ([(0, _t(2))], ([0, _t(2)],), ((0, _t(2), 1),)):  # a list would leave the presentation unhashable
        with pytest.raises(DomainError, match="terms must be a tuple"):
            WittExpr(2, terms)


def test_teichmuller_norm_multiplicative():
    rng = random.Random(5)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        x = random_monomial(rng, p)
        y = random_monomial(rng, p)
        rho = RhoWeight.of(Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        lx = gauss_log_norm(teichmuller(x), rho)
        ly = gauss_log_norm(teichmuller(y), rho)
        assert gauss_log_norm(teichmuller(tilt_mul(x, y)), rho) == lx + ly


def test_primitive_family_frozen():
    # the family ([a^(j^2)] - p)_j as make_ansatz builds it from PrimitiveDeg1
    fam = make_ansatz(_t(2), 5).members
    assert tuple(m.a for m in fam) == (_t(2), _t(2, 4))
    assert tuple(eta_val(fam[0], m.a) for m in fam) == (1, 4)  # v scales by j^2
    fam_q = make_ansatz(_t(2, Fraction(1, 4)), 5).members
    assert tuple(m.a for m in fam_q) == (_t(2, Fraction(1, 4)), _t(2))
    assert tuple(m.a for m in make_ansatz(_t(2), 3).members) == (_t(2),)


def test_primitive_validation():
    with pytest.raises(DomainError):
        PrimitiveDeg1(TiltElement.monomial(2, 0))  # v(a) = 0
    with pytest.raises(DomainError):
        PrimitiveDeg1(TiltElement.from_terms(2, {}))  # v(a) infinite
    with pytest.raises(DomainError):
        PrimitiveDeg1(TiltElement.from_terms(3, {0: 1, Fraction(1, 3): 1}))  # v(1 + t^(1/3)) = 0, on the frame 3^1


_WRONG_TYPES = {  # each is bad input (DomainError), not an AttributeError
    "generator_none": lambda: PrimitiveDeg1(None),
    "generator_fraction": lambda: PrimitiveDeg1(Fraction(1, 2)),
    "generator_data_twice": lambda: PrimitiveDeg1(PrimitiveDeg1(_t(2))),
    "eta_of_none": lambda: eta_val(None, _t(2)),
    "eta_of_a_bare_element": lambda: eta_val(_t(2), _t(2)),
    "eta_at_none": lambda: eta_val(PrimitiveDeg1(_t(2)), None),
}


@pytest.mark.parametrize("probe", _WRONG_TYPES.values(), ids=_WRONG_TYPES.keys())
def test_a_wrong_typed_generator_is_a_domain_error(probe):
    with pytest.raises(DomainError):
        probe()


def test_primitive_frobenius_twists_the_generator():
    prim = PrimitiveDeg1(_t(2))
    assert primitive_frobenius(prim, 1).a == _t(2, 2)
    assert primitive_frobenius(prim, -1).a == _t(2, Fraction(1, 2))
    rng = random.Random(3)
    for _ in range(50):
        p = rng.choice((2, 3))
        a = random_monomial(rng, p)
        n = rng.randint(-2, 3)
        assert primitive_frobenius(PrimitiveDeg1(a), n).a == tilt_frobenius(a, n)


def test_eta_val_frozen():
    assert eta_val(PrimitiveDeg1(_t(2)), _t(2)) == 1
    assert eta_val(PrimitiveDeg1(_t(2, Fraction(1, 4))), _t(2)) == 4
    assert eta_val(PrimitiveDeg1(_t(2)), TiltElement.from_terms(2, {})) is None


def test_eta_val_additive():
    rng = random.Random(29)
    for _ in range(200):
        p = rng.choice((2, 5))
        prim = PrimitiveDeg1(random_monomial(rng, p))
        x = random_monomial(rng, p)
        y = random_monomial(rng, p)
        assert eta_val(prim, tilt_mul(x, y)) == eta_val(prim, x) + eta_val(prim, y)


def test_eta_val_is_the_valuation_ratio_randomized():
    # Oracle: v(x) / v(a) as a quotient of two Fraction valuations, across frames and for zero.
    rng = random.Random(37)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        prim, x = PrimitiveDeg1(random_monomial(rng, p)), random_element(rng, p)
        expected = None if x.is_zero else tilt_val(x) / tilt_val(prim.a)
        assert eta_val(prim, x) == expected, (prim, x)


def test_eta_val_is_p_normalized():
    # The generator itself always reads 1: that is the v(p) = 1 gauge.
    rng = random.Random(31)
    for _ in range(50):
        a = random_monomial(rng, 3)
        assert eta_val(PrimitiveDeg1(a), a) == 1
