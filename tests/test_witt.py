"""Presentations, Gauss log-norms, and degree-one prime generators."""

import random
from fractions import Fraction

import pytest
from conftest import assert_immutable_value, random_element, random_monomial

from tiltval.errors import DomainError
from tiltval.tilt import TiltElement, tilt_frobenius, tilt_mul, tilt_val
from tiltval.witt import (
    PrimitiveDeg1,
    RhoWeight,
    WittExpr,
    eta_val,
    gauss_log_norm,
    primitive_frobenius,
    primitive_pow_family,
    teichmuller,
)


def _t(p, exponent=1, coeff=1):
    return TiltElement.monomial(p, Fraction(exponent), coeff)


def test_teichmuller_shape():
    w = teichmuller(_t(2))
    assert w.terms == ((0, _t(2)),)
    assert teichmuller(TiltElement.zero(2)).is_zero


def test_gauss_log_norm_frozen():
    rho = RhoWeight.of(1)
    assert gauss_log_norm(teichmuller(_t(2)), rho) == 1
    two_slots = WittExpr.from_terms(2, {0: _t(2), 1: _t(2, 2)})
    assert gauss_log_norm(two_slots, rho) == 1  # min(1, 2 + 1)
    slot_heavy = WittExpr.from_terms(2, {0: _t(2, 5), 1: _t(2, Fraction(1, 2))})
    assert gauss_log_norm(slot_heavy, rho) == Fraction(3, 2)  # the p-slot wins


def test_gauss_log_norm_weight_dependence():
    w = WittExpr.from_terms(3, {0: _t(3, 2), 2: _t(3, Fraction(1, 3))})
    assert gauss_log_norm(w, RhoWeight.of(Fraction(1, 2))) == Fraction(4, 3)
    assert gauss_log_norm(w, RhoWeight.of(3)) == 2
    assert gauss_log_norm(w, RhoWeight.one()) == Fraction(1, 3)  # weight 0 at the boundary


def test_empty_presentation_norm_sentinel():
    # The minimum over no slots is +infinity, and zero is integral: lambda >= 0.
    norm = gauss_log_norm(teichmuller(TiltElement.zero(5)), RhoWeight.of(1))
    assert norm is None


def test_rho_weight_validation():
    with pytest.raises(DomainError):
        RhoWeight.of(0)
    with pytest.raises(DomainError):
        RhoWeight.of(Fraction(-1, 2))
    with pytest.raises(DomainError):
        RhoWeight(Fraction(1), at_one=True)  # the boundary flag pins the weight to 0
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
        WittExpr(2, ((0, TiltElement.zero(2)),))  # zero entry stored
    with pytest.raises(DomainError):
        WittExpr(2, ((-1, _t(2)),))
    with pytest.raises(DomainError):
        WittExpr(2, ((1, _t(2)), (0, _t(2))))  # unsorted slots


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
    fam = primitive_pow_family(_t(2), 5)
    assert tuple(m.a for m in fam) == (_t(2), _t(2, 4))
    fam_q = primitive_pow_family(_t(2, Fraction(1, 4)), 5)
    assert tuple(m.a for m in fam_q) == (_t(2, Fraction(1, 4)), _t(2))
    assert tuple(m.a for m in primitive_pow_family(_t(2), 3)) == (_t(2),)


def test_primitive_validation():
    with pytest.raises(DomainError):
        PrimitiveDeg1(TiltElement.one(2))  # v(a) = 0
    with pytest.raises(DomainError):
        PrimitiveDeg1(TiltElement.zero(2))  # v(a) infinite
    with pytest.raises(DomainError):
        PrimitiveDeg1(TiltElement.from_terms(3, {0: 1, Fraction(1, 3): 1}))  # v(1 + t^(1/3)) = 0, on the frame 3^1
    with pytest.raises(DomainError):
        primitive_pow_family(_t(3), 3)  # ell equals the characteristic
    with pytest.raises(DomainError):
        primitive_pow_family(_t(2), 9)
    with pytest.raises(DomainError):
        primitive_pow_family(_t(2), 2)


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
    assert eta_val(PrimitiveDeg1(_t(2)), TiltElement.zero(2)) is None


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
