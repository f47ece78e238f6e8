"""p-adic log, valuation chains, and the epsilon step count.

There are two log oracles here.  exp_mod below is an independent
implementation of the inverse map on the same subgroups, so
exp_mod(p, N, padic_log(u)) == u.value is a roundtrip through two
different series with separately justified cutoffs.  _log_by_fractions
is the plain log series summed as an exact Fraction with no argument
reduction, which padic_log must match class for class.
"""

import random
from fractions import Fraction
from itertools import chain

import pytest
from conftest import assert_immutable_value

from tiltval.errors import ConfigError, DomainError, PrecisionError, VerificationError
from tiltval.loglink import (
    LogLinkChain,
    PadicUnit,
    _floor_log,
    chain_build,
    kummer_shift,
    m_of_epsilon,
    padic_log,
)


def exp_mod(p: int, precision: int, y: int) -> int:
    """exp(y) mod p^precision for y in pZ (4Z when p = 2).

    Term k is y^k / k! with v_p at least k*v - (k - 1)/(p - 1), v = v_p(y)
    floor (2 for p = 2, else 1); that bound grows strictly, so truncation
    at the first k reaching the precision drops only multiples of p^N.
    """
    v = 2 if p == 2 else 1
    assert y % (4 if p == 2 else p) == 0
    total = Fraction(0)
    term_num = 1  # y^k
    factorial = 1
    k = 0
    while Fraction(k * v) - Fraction(k - 1, p - 1) < precision or k == 0:
        total += Fraction(term_num, factorial)
        k += 1
        term_num *= y
        factorial *= k
    assert total.denominator % p != 0
    modulus = p**precision
    return (total.numerator * pow(total.denominator, -1, modulus)) % modulus


def _log_by_fractions(u: PadicUnit) -> int:
    """log(u) mod p^N from the unreduced series summed as one exact Fraction.

    Term k has valuation at least k*v - floor(log_p k), v = 1 (2 for
    p = 2), which never decreases; the first k where it reaches N is the
    cutoff.  The Fraction's denominator stays prime to p, so one modular
    inversion reduces it.
    """
    p, precision, modulus = u.p, u.precision, u.modulus
    x = (u.value - 1) % modulus
    if x == 0:
        return 0
    v = 2 if p == 2 else 1
    cutoff = 1
    while cutoff * v - _floor_log(cutoff, p) < precision:
        cutoff += 1
    total = Fraction(0)
    x_pow = 1
    for k in range(1, cutoff):
        x_pow *= x
        term = Fraction(x_pow, k)
        total = total + term if k % 2 else total - term
    assert total.denominator % p != 0
    return (total.numerator * pow(total.denominator, -1, modulus)) % modulus


def test_unit_validation():
    with pytest.raises(DomainError):
        PadicUnit(5, 4, 7)  # not 1 mod 5
    with pytest.raises(DomainError):
        PadicUnit(2, 5, 3)  # 3 != 1 mod 4
    with pytest.raises(DomainError):
        PadicUnit(5, 4, 626)  # not reduced
    with pytest.raises(DomainError):
        PadicUnit(4, 3, 1)
    with pytest.raises(PrecisionError) as info:
        PadicUnit(3, 1, 1)
    assert info.value.required == 2
    with pytest.raises(PrecisionError) as info:
        PadicUnit(2, 2, 1)
    assert info.value.required == 3
    assert PadicUnit.of(5, 4, 631).value == 6
    with pytest.raises(PrecisionError):
        PadicUnit.of(5, 0, 1)


def test_log_frozen_and_exp_roundtrip():
    # log(6) = 6-1 - 25/2 + 125/3 - ... = 555 mod 625, worked by hand
    assert padic_log(PadicUnit(5, 4, 6)) == 555
    assert exp_mod(5, 4, 555) == 6


def _precision_floor(p: int) -> int:
    return 3 if p == 2 else 2


def test_log_matches_fraction_series_randomized():
    rng = random.Random(4111)
    for p in (2, 3, 5, 7, 11):
        for precision in chain(range(_precision_floor(p), 17), (24, 32, 48, 64, 96, 128)):
            edge = (1, 1 + p ** (precision - 1))
            units = [PadicUnit(p, precision, value) for value in edge]
            units += [PadicUnit.random(rng, p, precision) for _ in range(4)]
            for u in units:
                assert padic_log(u) == _log_by_fractions(u), (p, precision, u.value)


def test_log_matches_fraction_series_exhaustively():
    for p, top in ((2, 8), (3, 6), (5, 4)):
        step = 4 if p == 2 else p
        for precision in range(_precision_floor(p), top + 1):
            for value in range(1, p**precision, step):
                u = PadicUnit(p, precision, value)
                assert padic_log(u) == _log_by_fractions(u), (p, precision, value)


def test_random_unit_takes_one_draw_per_unit():
    # The loglink trials' units, and so the reports, depend on these draws.
    for p, precision in ((2, 9), (3, 6), (5, 4)):
        drawn, replay = random.Random(7), random.Random(7)
        step = 4 if p == 2 else p
        for _ in range(20):
            u = PadicUnit.random(drawn, p, precision)
            assert u.value == 1 + step * replay.randrange(p**precision // step)


def test_random_unit_checks_the_precision_floor_before_drawing():
    rng = random.Random(7)
    state = rng.getstate()
    for p, precision, required in ((2, 1, 3), (3, 0, 2)):
        with pytest.raises(PrecisionError) as info:
            PadicUnit.random(rng, p, precision)
        assert info.value.required == required
    assert rng.getstate() == state


def test_log_of_one_is_zero():
    assert padic_log(PadicUnit(5, 4, 1)) == 0
    assert padic_log(PadicUnit(2, 8, 1)) == 0
    assert padic_log(PadicUnit(3, 6, 1)) == 0


def test_log_lands_in_subgroup():
    rng = random.Random(23)
    for p, precision in ((2, 12), (3, 8), (5, 8)):
        for _ in range(30):
            u = PadicUnit.random(rng, p, precision)
            assert padic_log(u) % (4 if p == 2 else p) == 0


def test_exp_log_roundtrip_randomized():
    rng = random.Random(29)
    for p, precision in ((2, 12), (3, 8), (5, 8)):
        for _ in range(60):
            u = PadicUnit.random(rng, p, precision)
            assert exp_mod(p, precision, padic_log(u)) == u.value


def test_log_is_a_homomorphism():
    u = PadicUnit(5, 4, 6)
    assert padic_log(u.mul(u)) == (2 * 555) % 625  # 36 -> 485
    assert padic_log(u.mul(u)) == 485
    rng = random.Random(31)
    for p, precision in ((2, 10), (3, 7), (5, 6)):
        modulus = p**precision
        for _ in range(40):
            a = PadicUnit.random(rng, p, precision)
            b = PadicUnit.random(rng, p, precision)
            assert padic_log(a.mul(b)) == (padic_log(a) + padic_log(b)) % modulus


def test_log_power_law():
    u = PadicUnit(3, 5, 4)
    base = padic_log(u)
    for k in range(-3, 7):
        assert padic_log(u.pow(k)) == (k * base) % 3**5


def test_mixed_groups_rejected():
    with pytest.raises(ConfigError):
        PadicUnit(3, 5, 4).mul(PadicUnit(3, 4, 4))
    with pytest.raises(ConfigError):
        PadicUnit(3, 5, 4).mul(PadicUnit(5, 5, 6))


def test_records_are_immutable_values():
    assert_immutable_value(lambda: PadicUnit(3, 5, 4))
    assert_immutable_value(lambda: chain_build(2, Fraction(1, 4), (-2, 2)))
    assert PadicUnit(3, 5, 4) != PadicUnit(3, 4, 4)


def test_chain_frozen():
    chain = chain_build(2, Fraction(1, 4), (-2, 2))
    assert chain.entries == (
        (-2, Fraction(1, 16)),
        (-1, Fraction(1, 8)),
        (0, Fraction(1, 4)),
        (1, Fraction(1, 2)),
        (2, Fraction(1)),
    )
    assert chain.value_at(2) == 1
    assert chain.value_at(-2) == Fraction(1, 16)
    with pytest.raises(DomainError):
        chain.value_at(3)


def test_chain_validation():
    with pytest.raises(DomainError):
        chain_build(6, Fraction(1), (0, 2))
    with pytest.raises(DomainError):
        chain_build(2, Fraction(0), (0, 2))
    with pytest.raises(DomainError):
        chain_build(2, 0.25, (0, 2))
    with pytest.raises(DomainError):
        chain_build(2, Fraction(1), (2, 0))
    with pytest.raises(DomainError):
        chain_build(0, Fraction(1), (-1, 1))  # p is checked before any p^n is formed
    with pytest.raises(DomainError):
        chain_build(2, None, (0, 1))
    good = chain_build(3, Fraction(1, 3), (0, 2)).entries
    with pytest.raises(VerificationError):
        LogLinkChain(p=3, v0=Fraction(1, 3), window=(0, 2), entries=(good[0], (1, Fraction(2, 3)), good[2]))
    with pytest.raises(DomainError):
        LogLinkChain(p=3, v0=Fraction(1, 3), window=(0, 2), entries=good[:2])


def test_m_of_epsilon_frozen():
    assert m_of_epsilon(2, Fraction(1, 3)) == 2
    assert m_of_epsilon(5, Fraction(1, 5)) == 2  # strict: 1/5 is not below 1/5
    assert m_of_epsilon(3, Fraction(99, 100)) == 1
    assert m_of_epsilon(3, Fraction(1)) == 0
    assert m_of_epsilon(3, Fraction(3, 2)) == 0
    with pytest.raises(DomainError):
        m_of_epsilon(3, Fraction(0))
    with pytest.raises(DomainError):
        m_of_epsilon(3, Fraction(-1, 2))
    with pytest.raises(DomainError):
        m_of_epsilon(3, 0.5)
    with pytest.raises(DomainError):
        m_of_epsilon(9, Fraction(1, 2))


def test_m_of_epsilon_minimality():
    rng = random.Random(37)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        eps = Fraction(rng.randint(1, 400), rng.randint(401, 4000))
        m = m_of_epsilon(p, eps)
        assert Fraction(1, p**m) < eps
        if m > 0:
            assert Fraction(1, p ** (m - 1)) >= eps


def test_kummer_shift_telescopes():
    assert kummer_shift(0, 0) == 0
    assert kummer_shift(-2, 3) == 5
    rng = random.Random(41)
    for _ in range(100):
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        assert kummer_shift(a, b) + kummer_shift(b, c) == kummer_shift(a, c)
    with pytest.raises(DomainError):
        kummer_shift(0, 1.5)


def test_chain_and_shift_agree():
    chain = chain_build(5, Fraction(2, 7), (-3, 3))
    for n1 in range(-3, 4):
        for n2 in range(-3, 4):
            shift = kummer_shift(n1, n2)
            assert chain.value_at(n2) == chain.value_at(n1) * Fraction(5) ** shift
