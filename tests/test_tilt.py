"""Valuation model: construction discipline, exact arithmetic, Frobenius."""

import random
from fractions import Fraction

import pytest
from conftest import assert_immutable_value, random_element, random_monomial

from tiltval.errors import ConfigError, DomainError
from tiltval.witt import WittExpr
from tiltval.tilt import (
    INF_VAL,
    TiltElement,
    TiltVal,
    is_prime,
    tilt_frobenius,
    tilt_mul,
    tilt_pow,
    tilt_rescale_t,
    tilt_val,
)


def test_monomial_valuation():
    assert tilt_val(TiltElement.monomial(2, Fraction(1, 4))) == Fraction(1, 4)
    assert tilt_val(TiltElement.one(3)) == 0
    assert tilt_val(TiltElement.monomial(5, 3, coeff=4)) == 3


def test_zero_has_infinite_valuation():
    v = tilt_val(TiltElement.zero(2))
    assert v is INF_VAL
    assert v.is_infinite
    with pytest.raises(DomainError):
        v.as_fraction()


def test_valuation_total_order():
    assert TiltVal(Fraction(1, 4)) < TiltVal(Fraction(1, 3))
    assert TiltVal(Fraction(2, 2)) == TiltVal(Fraction(1))
    assert INF_VAL > TiltVal(Fraction(10**9))
    assert INF_VAL == INF_VAL
    assert TiltVal(Fraction(1, 2)) < INF_VAL
    assert TiltVal(Fraction(1, 2)) < 1
    assert INF_VAL + Fraction(5) == INF_VAL
    assert TiltVal(Fraction(1, 3)) + TiltVal(Fraction(1, 6)) == Fraction(1, 2)
    assert INF_VAL * 7 == INF_VAL
    with pytest.raises(DomainError):
        TiltVal(Fraction(1)) * -2


def test_freshman_dream_square():
    one_plus_t = TiltElement.from_terms(2, {0: 1, 1: 1})
    squared = tilt_mul(one_plus_t, one_plus_t)
    assert squared == TiltElement.from_terms(2, {0: 1, 2: 1})


def test_frobenius_is_p_th_power():
    # In characteristic p the p-th power map is exactly the exponent scaling.
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(40):
            x = random_element(rng, p)
            assert tilt_frobenius(x, 1) == tilt_pow(x, p)


def test_frobenius_frozen_and_inverse():
    x = TiltElement.monomial(3, Fraction(5, 9))
    assert tilt_val(tilt_frobenius(x)) == Fraction(5, 3)
    assert tilt_frobenius(tilt_frobenius(x, 2), -2) == x
    assert tilt_frobenius(TiltElement.monomial(2, Fraction(1, 2))) == TiltElement.monomial(2, 1)


def test_frobenius_valuation_scaling():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice((2, 3, 7))
        x = random_monomial(rng, p)
        n = rng.randint(-3, 3)
        assert tilt_val(tilt_frobenius(x, n)) == tilt_val(x) * Fraction(p) ** n


def test_frobenius_matches_from_terms_route_randomized():
    # tilt_frobenius builds its terms directly; from_terms re-sorts and re-reduces them.
    rng = random.Random(5077)
    multi_term = 0
    for p in (2, 3, 5, 7):
        for _ in range(25):
            x = random_element(rng, p, max_terms=6)
            multi_term += len(x.terms) > 1
            for n in range(-3, 4):
                scale = Fraction(p) ** n
                expected = TiltElement.from_terms(p, {e * scale: c for e, c in x.terms})
                image = tilt_frobenius(x, n)
                assert image == expected and image.terms == expected.terms, (p, x, n)
    assert multi_term >= 50


def test_mul_valuation_additive():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        x = random_element(rng, p)
        y = random_element(rng, p)
        assert tilt_val(tilt_mul(x, y)) == tilt_val(x) + tilt_val(y)


def test_pow_matches_repeated_mul():
    rng = random.Random(40)
    for _ in range(30):
        p = rng.choice((2, 5))
        x = random_element(rng, p)
        acc = TiltElement.one(p)
        for k in range(6):
            assert tilt_pow(x, k) == acc
            acc = tilt_mul(acc, x)
    with pytest.raises(DomainError):
        tilt_pow(TiltElement.one(2), -1)


def _pow_by_squaring(x, k):
    """Reference k-th power by repeated squaring through tilt_mul."""
    result = TiltElement.one(x.p)
    base = x
    while k:
        if k & 1:
            result = tilt_mul(result, base)
        k >>= 1
        if k:
            base = tilt_mul(base, base)
    return result


def _element_with_terms(rng, p, n_terms):
    """Exactly n_terms nonzero terms, exponent denominators p^0..p^2.

    Numerators stay in 0..2: the squaring reference pays for every term
    of its intermediate powers, and at p = 7 a four-term element with
    wider exponents keeps it busy for seconds per exponent.
    """
    exponents = set()
    while len(exponents) < n_terms:
        exponents.add(Fraction(rng.randint(0, 2), p ** rng.randint(0, 2)))
    return TiltElement.from_terms(p, {e: rng.randint(1, p - 1) for e in exponents})


def test_pow_by_digits_matches_squaring():
    rng = random.Random(2303)
    for p in (2, 3, 5, 7):
        for n_terms in range(5):
            x = _element_with_terms(rng, p, n_terms)
            for k in (0, 1, p - 1, p, p + 1, p * p, rng.randint(0, p**3)):
                power = tilt_pow(x, k)
                assert power == _pow_by_squaring(x, k), (x, k)
                n = rng.randint(-2, 2)
                assert tilt_frobenius(power, n) == tilt_pow(tilt_frobenius(x, n), k)
                assert tilt_val(power) == (TiltVal(0) if k == 0 else tilt_val(x) * k)
    # One term c*t^e takes the shortcut c^k t^(ke); p - 1 is a coefficient other than 1 for p >= 3.
    for p in (2, 3, 5, 7):
        for coeff in sorted({1, p - 1}):
            x = TiltElement.monomial(p, Fraction(rng.randint(1, 5), p ** rng.randint(0, 2)), coeff)
            for k in (0, 1, p, p * p + 1):
                assert tilt_pow(x, k) == _pow_by_squaring(x, k), (x, k)


def test_bool_exponents_rejected():
    x = TiltElement.monomial(3, Fraction(1, 3))
    for flag in (True, False):
        with pytest.raises(DomainError):
            tilt_pow(x, flag)
        with pytest.raises(DomainError):
            tilt_frobenius(x, flag)


def test_rescale_t_frozen():
    # Over F_3: t -> 2t sends t^(1/3) to 2 t^(1/3), consistently with cubing.
    t = TiltElement.monomial(3, 1)
    cube_root = TiltElement.monomial(3, Fraction(1, 3))
    assert tilt_rescale_t(t, 2) == TiltElement.monomial(3, 1, coeff=2)
    assert tilt_pow(tilt_rescale_t(cube_root, 2), 3) == tilt_rescale_t(t, 2)
    assert tilt_rescale_t(t, 1) == t


def test_rescale_t_is_multiplicative_and_preserves_support():
    rng = random.Random(91)
    for p in (3, 5, 7):
        for _ in range(40):
            x = random_element(rng, p)
            y = random_element(rng, p)
            u = rng.randint(1, p - 1)
            assert tilt_rescale_t(tilt_mul(x, y), u) == tilt_mul(
                tilt_rescale_t(x, u), tilt_rescale_t(y, u)
            )
            assert tilt_rescale_t(x, u).support() == x.support()
    with pytest.raises(DomainError):
        tilt_rescale_t(TiltElement.one(5), 5)
    with pytest.raises(DomainError):
        tilt_rescale_t(TiltElement.one(5), 0)


def test_rescale_t_composes_through_unit_product():
    rng = random.Random(17)
    for _ in range(40):
        p = rng.choice((5, 7))
        x = random_element(rng, p)
        u, w = rng.randint(1, p - 1), rng.randint(1, p - 1)
        assert tilt_rescale_t(tilt_rescale_t(x, u), w) == tilt_rescale_t(x, (u * w) % p)


def test_construction_validation():
    with pytest.raises(DomainError):
        TiltElement.monomial(2, Fraction(1, 3))  # denominator is not a 2-power
    with pytest.raises(DomainError):
        TiltElement.monomial(3, Fraction(-1, 3))
    with pytest.raises(DomainError):
        TiltElement.monomial(4, 1)  # composite characteristic
    with pytest.raises(DomainError):
        TiltElement(2, ((Fraction(1), 0),))  # zero coefficient stored
    with pytest.raises(DomainError):
        TiltElement(3, ((Fraction(2), 1), (Fraction(1), 1)))  # unsorted
    with pytest.raises(DomainError):
        TiltElement(3, ((0.5, 1),))  # float exponent


def test_records_are_immutable_values():
    assert_immutable_value(lambda: TiltElement.from_terms(3, {Fraction(1, 3): 2, 4: 1}))
    assert_immutable_value(lambda: TiltElement.zero(2))
    assert_immutable_value(lambda: TiltVal(Fraction(1, 2)))
    assert_immutable_value(lambda: TiltVal(None))
    # Same field values, different classes: never equal.
    assert TiltElement(2, ()) != WittExpr(2, ())
    assert TiltElement(2, ()) != (2, ())
    assert repr(TiltElement.monomial(2, 1)) == "TiltElement(p=2, terms=((Fraction(1, 1), 1),))"
    # An int valuation is stored as a Fraction and still equals the int.
    assert type(TiltVal(3).value) is Fraction and TiltVal(3) == 3 and hash(TiltVal(3)) == hash(3)
    with pytest.raises(DomainError):
        TiltVal(0.5)


def test_from_terms_reduces_mod_p():
    assert TiltElement.from_terms(2, {1: 5}) == TiltElement.monomial(2, 1)
    assert TiltElement.from_terms(2, {1: 2}).is_zero
    assert TiltElement.from_terms(5, {Fraction(1, 5): 7}) == TiltElement.monomial(
        5, Fraction(1, 5), coeff=2
    )


def test_mixed_characteristic_rejected():
    with pytest.raises(ConfigError):
        tilt_mul(TiltElement.one(2), TiltElement.one(3))


def test_is_prime_small_table():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(-7)
    assert is_prime(97)
    assert not is_prime(91)  # 7 * 13
