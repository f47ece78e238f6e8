"""Valuation model: construction discipline, exact arithmetic, Frobenius."""

import ast
import copy
import pickle
import random
import sys
import threading
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import assert_immutable_value, fresh_pow, random_element, random_monomial

import tiltval
from tiltval import tilt
from tiltval.ansatz import frobenius_orbit, is_member, make_ansatz
from tiltval.errors import DomainError
from tiltval.loglink import LogLinkChain, PadicUnit, chain_build
from tiltval.pilot import PilotTuple, theta_set_sample
from tiltval.theta import ThetaValue, eval_theta_laurent, theta_terms
from tiltval.witt import PrimitiveDeg1, RhoWeight, WittExpr, eta_val, gauss_log_norm, teichmuller
from tiltval.tilt import (
    _convolve,
    _is_p_power,
    _packing,
    _power_check,
    _powers,
    _require_odd_prime,
    TiltElement,
    is_prime,
    tilt_frobenius,
    tilt_mul,
    tilt_pow,
    tilt_rescale_t,
    tilt_val,
)


def test_monomial_valuation():
    assert tilt_val(TiltElement.monomial(2, Fraction(1, 4))) == Fraction(1, 4)
    assert tilt_val(TiltElement.monomial(3, 0)) == 0
    assert tilt_val(TiltElement.monomial(5, 3, coeff=4)) == 3


def test_zero_has_infinite_valuation():
    assert tilt_val(TiltElement.from_terms(2, {})) is None


def test_valuations_stay_fractions():
    # Reports render Fraction(16) as "16/1" and the int 16 as "16", so no valuation may come back an int.
    rng = random.Random(5081)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        x = TiltElement.from_terms(p, {e: rng.randint(1, p - 1) for e in rng.sample(range(12), rng.randint(1, 3))})
        results = (
            x,
            tilt_mul(x, random_element(rng, p)),
            tilt_pow(x, rng.randint(0, p * p)),
            tilt_frobenius(x, rng.randint(-2, 2)),
            tilt_rescale_t(x, rng.randint(1, p - 1)),
        )
        for y in results:
            if not y.is_zero:
                assert type(tilt_val(y)) is Fraction, (x, y)
        prim = PrimitiveDeg1(random_monomial(rng, p))
        assert type(eta_val(prim, x)) is Fraction
        two_slots = WittExpr(p, ((0, x), (1, random_monomial(rng, p))))
        for rho in (RhoWeight.of(rng.randint(1, 3)), RhoWeight.one()):
            assert type(gauss_log_norm(teichmuller(x), rho)) is Fraction
            assert type(gauss_log_norm(two_slots, rho)) is Fraction
    zero = TiltElement.from_terms(3, {})
    assert eta_val(PrimitiveDeg1(TiltElement.monomial(3, 1)), zero) is None
    assert gauss_log_norm(teichmuller(zero), RhoWeight.of(1)) is None


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
                assert _revalidated(image) == image
    assert multi_term >= 50


def test_frobenius_and_one_term_pow_match_the_fraction_routes_randomized():
    # Oracles: the exponent routes these kernels used before scaling integers, e * p**n and e * k.
    rng = random.Random(7121)
    for p in (2, 3, 5, 7):
        for n_terms in range(1, 5):
            for _ in range(6):
                x = _element_up_to_cubes(rng, p, n_terms)
                for n in range(-4, 5):
                    scale = Fraction(p) ** n
                    image = tilt_frobenius(x, n)
                    assert image.terms == tuple((e * scale, c) for e, c in x.terms), (p, x, n)
                    assert _revalidated(image) == image
        for _ in range(20):
            x = random_monomial(rng, p)
            (e, c), = x.terms
            for k in (0, 1, p, rng.randint(2, 400)):
                power = tilt_pow(x, k)
                assert power.terms == ((e * k, pow(c, k, p)),), (p, x, k)
                assert _revalidated(power) == power


def _revalidated(x):
    """x rebuilt through the validating constructor, which also refuses a frame that is not minimal."""
    return TiltElement(x.p, x.s, x.nums)


def test_is_p_power_terminates_below_one():
    for p in (2, 3, 5):
        assert [n for n in range(-3, 2) if _is_p_power(n, p)] == [1]
        assert [n for n in range(1, 130) if _is_p_power(n, p)] == [p**k for k in range(8) if p**k < 130]


def test_mul_valuation_additive():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        x = random_element(rng, p)
        y = random_element(rng, p)
        product = tilt_mul(x, y)
        if x.is_zero or y.is_zero:
            assert tilt_val(product) is None
        else:
            assert tilt_val(product) == tilt_val(x) + tilt_val(y)


def test_pow_matches_repeated_mul():
    rng = random.Random(40)
    for _ in range(30):
        p = rng.choice((2, 5))
        x = random_element(rng, p)
        acc = TiltElement.monomial(p, 0)
        for k in range(6):
            assert tilt_pow(x, k) == acc
            acc = tilt_mul(acc, x)
    with pytest.raises(DomainError):
        tilt_pow(TiltElement.monomial(2, 0), -1)


def _pow_by_squaring(x, k):
    """Reference k-th power by repeated squaring through tilt_mul."""
    result = TiltElement.monomial(x.p, 0)
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
                if k == 0:
                    assert tilt_val(power) == 0
                elif x.is_zero:
                    assert tilt_val(power) is None
                else:
                    assert tilt_val(power) == tilt_val(x) * k
    # One term c*t^e takes the shortcut c^k t^(ke); p - 1 is a coefficient other than 1 for p >= 3.
    for p in (2, 3, 5, 7):
        for coeff in sorted({1, p - 1}):
            x = TiltElement.monomial(p, Fraction(rng.randint(1, 5), p ** rng.randint(0, 2)), coeff)
            for k in (0, 1, p, p * p + 1):
                assert tilt_pow(x, k) == _pow_by_squaring(x, k), (x, k)


def _convolve_fractions(a, b, p):
    acc = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            acc[ea + eb] = (acc.get(ea + eb, 0) + ca * cb) % p
    return {e: c for e, c in acc.items() if c}


def _mul_by_from_terms(x, y):
    """The product on Fraction exponents, built and validated through from_terms."""
    return TiltElement.from_terms(x.p, _convolve_fractions(dict(x.terms), dict(y.terms), x.p))


def _pow_by_from_terms(x, k):
    """The k-th power by base-p digits on Fraction exponents, built through from_terms."""
    p = x.p
    if len(x.terms) == 1:
        e, c = x.terms[0]
        return TiltElement.from_terms(p, {e * k: pow(c, k, p)})
    digits = []
    while k:
        k, d = divmod(k, p)
        digits.append(d)
    powers = [{Fraction(0): 1}]
    for _ in range(max(digits, default=0)):
        powers.append(_convolve_fractions(powers[-1], dict(x.terms), p))
    result = {Fraction(0): 1}
    scale = 1
    for d in digits:
        if d:
            result = _convolve_fractions(result, {e * scale: c for e, c in powers[d].items()}, p)
        scale *= p
    return TiltElement.from_terms(p, result)


def _element_up_to_cubes(rng, p, n_terms):
    """Exactly n_terms nonzero terms with exponent denominators p^0..p^3."""
    exponents = set()
    while len(exponents) < n_terms:
        exponents.add(Fraction(rng.randint(0, 3 * p), p ** rng.randint(0, 3)))
    return TiltElement.from_terms(p, {e: rng.randint(1, p - 1) for e in exponents})


def _assert_kernel_result(result, expected):
    # The kernel's frame is the validated route's, and the public constructor accepts it.
    assert result == expected and (result.s, result.nums) == (expected.s, expected.nums)
    assert _revalidated(result) == result


def test_kernels_match_the_from_terms_route_randomized():
    rng = random.Random(1109)
    for p in (2, 3, 5, 7):
        for n_terms in range(1, 6):
            for _ in range(3):
                x = _element_up_to_cubes(rng, p, n_terms)
                y = _element_up_to_cubes(rng, p, rng.randint(1, 5))
                _assert_kernel_result(tilt_mul(x, y), _mul_by_from_terms(x, y))
                zero = TiltElement.from_terms(p, {})
                _assert_kernel_result(tilt_mul(x, zero), zero)
                for k in (0, 1, p, rng.randint(2, 60)):
                    _assert_kernel_result(tilt_pow(x, k), _pow_by_from_terms(x, k))
                rescaled = tilt_rescale_t(x, rng.randint(1, p - 1))
                assert _revalidated(rescaled) == rescaled and rescaled.support() == x.support()
    _assert_kernel_result(tilt_pow(TiltElement.from_terms(3, {}), 0), TiltElement.monomial(3, 0))
    _assert_kernel_result(tilt_pow(TiltElement.from_terms(3, {}), 4), TiltElement.from_terms(3, {}))


def _near_misses(rng, power, den, p):
    """Elements y to hold against a power of a generator whose exponent denominator is den."""
    terms = dict(power.terms)
    yield power
    yield TiltElement.from_terms(p, {})
    yield tilt_mul(power, TiltElement.monomial(p, 1))
    yield TiltElement.from_terms(p, {**terms, Fraction(rng.randint(0, 50), den): 1})  # a term added or merged
    other = 3 if p == 2 else 2
    yield TiltElement.from_terms(other, {e: 1 for e in terms if e.denominator == 1})
    if not terms:
        return
    e = rng.choice(sorted(terms))
    rest = {f: c for f, c in terms.items() if f != e}
    yield TiltElement.from_terms(p, rest)  # a term dropped
    if p > 2:
        yield TiltElement.from_terms(p, {**rest, e: terms[e] % (p - 1) + 1})  # a coefficient changed
    for shift in (Fraction(1, den), Fraction(-1, den), Fraction(1, den * p)):  # the last one is finer than den
        if e + shift >= 0:
            yield TiltElement.from_terms(p, {**rest, e + shift: terms[e]})


def test_power_check_agrees_with_tilt_pow_randomized():
    rng = random.Random(1601)
    for p in (2, 3, 5, 7):
        for n_terms in range(1, 5):
            for _ in range(2):
                a = _element_with_terms(rng, p, n_terms)
                den = max(e.denominator for e, _ in a.terms)
                is_power = _power_check(a)  # one predicate, so its power table is reused across k and n
                for k in (0, 1, p - 1, p, 4, 9, p * p + 1, rng.randint(2, 400), 400):
                    power = tilt_pow(a, k)
                    assert is_power(power, k)
                    for y in (*_near_misses(rng, power, den, p), tilt_pow(a, k + 1)):
                        assert is_power(y, k) == (y == power), (a, k, y)
                    for n in range(-2, 3):
                        twisted = tilt_frobenius(power, n)
                        assert is_power(twisted, k, n), (a, k, n)
                        if k and a.terms[-1][0] > 0:  # Frobenius fixes only the constants
                            assert not is_power(tilt_frobenius(power, n + 1), k, n), (a, k, n)
                        if k > p * p + 1:  # near misses of the large powers cost seconds to build
                            continue
                        near = (*_near_misses(rng, twisted, den * p ** max(-n, 0), p), tilt_frobenius(power, n + 1))
                        for y in near:
                            assert is_power(y, k, n) == (y == twisted), (a, k, n, y)


def test_one_term_power_check_agrees_with_the_table_predicate_randomized():
    # A one-term generator's predicate builds no power dict; the dict-table predicate is its oracle.
    rng = random.Random(2707)
    negative_shifts = 0
    for p in (2, 3, 5, 7):
        for i in range(8):
            # every third generator has an integer exponent (s = 0), and some of those are constants
            a = random_monomial(rng, p) if i % 3 else TiltElement.monomial(p, rng.randint(0, 3), rng.randint(1, p - 1))
            is_power, by_table = _power_check(a), _dict_power_check(a)
            (e, c), = a.terms
            for k in (0, 1, p - 1, p, p + 1, rng.randint(2, 400)):
                power = tilt_pow(a, k)
                for n in range(-3, 4):
                    twisted = tilt_frobenius(power, n)
                    exponent = e * k * Fraction(p) ** n
                    candidates = [
                        *_near_misses(rng, twisted, p**twisted.s, p),
                        tilt_frobenius(power, n + 1),
                        tilt_frobenius(power, n - 1),
                        TiltElement.monomial(p, 0),
                        TiltElement.monomial(p, exponent, pow(c, k, p) % (p - 1) + 1),  # p > 2: another coefficient
                        TiltElement.monomial(p, exponent + Fraction(1, p ** (twisted.s + 1))),  # finer than phi^n(a^k)
                    ]
                    for y in candidates:
                        negative_shifts += a.s - n - y.s < 0
                        assert is_power(y, k, n) == by_table(y, k, n) == (y == twisted), (a, k, n, y)
    assert negative_shifts > 0


def _pow_scaled(base, k, p, powers):
    """The bottom-up oracle: base^k on integer exponents, low base-p digit first; powers[d] = base^d, grown here."""
    digits = []
    while k:
        k, d = divmod(k, p)
        digits.append(d)
    for _ in range(len(powers), max(digits, default=0) + 1):
        powers.append(_convolve(powers[-1], base, p))
    result, scale = {0: 1}, 1
    for d in digits:
        if d:
            result = _convolve(result, {e * scale: c for e, c in powers[d].items()}, p)
        scale *= p
    return result


def test_power_table_and_shared_predicate_match_the_bottom_up_oracle_in_any_order():
    rng = random.Random(2029)
    for p in (2, 3, 5, 7):
        for n_terms in range(1, 5):
            a = _element_with_terms(rng, p, n_terms)
            den, base = p**a.s, dict(a.nums)
            ks = [0, 1, p - 1, p, p + 1, p * p - 1, 400, *rng.sample(range(2, 400), 6)]
            digit_powers = [{0: 1}]
            oracle = {k: _pow_scaled(base, k, p, digit_powers) for k in ks}
            descending, ascending = sorted(ks, reverse=True), sorted(ks)
            for order in (descending, ascending, ascending + descending + ks):
                _powers.cache_clear()  # each order fills a table of its own
                power, is_power = _powers(a.nums, p), _power_check(a)
                for k in order:
                    expected = TiltElement.from_terms(p, {Fraction(e, den): c for e, c in oracle[k].items()})
                    assert power(k) == tuple(sorted(oracle[k].items())), (a, k)
                    assert fresh_pow(a, k) == expected, (a, k)
                    assert is_power(expected, k), (a, k)
                    assert not is_power(tilt_mul(expected, TiltElement.monomial(p, 1)), k), (a, k)


# The dict power table and its predicate that the byte-packed table replaced, kept as its oracle:
# a^k on a's integer frame as one numerator -> coefficient dict, top-down by
# a^k = phi(a^(k // p)) * a^(k mod p), each power built once per table.


def _dict_powers(base, p):
    if len(base) == 1:
        (e, c), = base.items()
        return lambda k: {e * k: pow(c, k, p)}
    digits, table = [{0: 1}, base], {}

    def power(k):
        if k < p:
            for _ in range(len(digits), k + 1):
                digits.append(_convolve(digits[-1], base, p))
            return digits[k]
        if k not in table:
            high, d = divmod(k, p)
            got = {e * p: c for e, c in power(high).items()}
            table[k] = _convolve(got, power(d), p) if d else got
        return table[k]

    return power


def _dict_power_check(a):
    """(y, k, n) -> y == phi^n(a^k): y's numerators times p^(s_a - n - s_y) against one dict table of a."""
    p, s, power = a.p, a.s, _dict_powers(dict(a.nums), a.p)

    def check(y, k, n=0):
        target = power(k)
        if y.p != p or len(y.nums) != len(target):
            return False
        shift = s - n - y.s
        q = p ** abs(shift)
        if shift >= 0:
            return {m * q: c for m, c in y.nums} == target
        return not any(m % q for m, _ in y.nums) and {m // q: c for m, c in y.nums} == target

    return check


DIFFERENTIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 257)


def _differential_generator(rng, p, n_terms):
    """n_terms terms c * t^(m / p^i), i in 0..2, over small numerators.

    From p = 11 the numerators are the n_terms least over one denominator: the dict oracle there
    multiplies out digit powers up to a^(p - 1), so each must stay a few thousand terms.
    """
    if p >= 11:
        den = p ** rng.randint(0, 2)
        return TiltElement.from_terms(p, {Fraction(m + 1, den): rng.randint(1, p - 1) for m in range(n_terms)})
    exponents = set()
    while len(exponents) < n_terms:
        exponents.add(Fraction(rng.randint(0, 3 * n_terms), p ** rng.randint(0, 2)))
    return TiltElement.from_terms(p, {e: rng.randint(1, p - 1) for e in exponents})


def _dense_generator(p, slots):
    """(p - 1) * (t^(1/p) + ... + t^(slots/p)): consecutive slots of the largest residue, so b * b sums the most."""
    return TiltElement.from_terms(p, {Fraction(m, p): p - 1 for m in range(1, slots + 1)})


# (p, slots, packed): the byte bound slots * (p - 1)^2 <= 255 at 256 for each p, one slot below, and at 255 for p = 2.
BOUND_CASES = ((5, 15, True), (5, 16, False), (3, 63, True), (3, 64, False), (2, 255, True), (2, 256, False))


def assert_powers_match_the_dict_oracle(primes=DIFFERENTIAL_PRIMES, seed=9011):
    """tilt_pow and the shared predicate against the dict oracle: seeded generators of 1-6 terms, the
    zero element, t^0 and the bound cases, at k in {0, 1, p - 1, p, p + 1, p^2 + 1, 400} (the bound
    cases up to p^2 + 1) and n in -3..3, with near misses.  Returns (packed, dict) table counts."""
    rng = random.Random(seed)
    generators = [(TiltElement.from_terms(p, {}), None) for p in primes]
    generators += [(TiltElement.monomial(p, 0), None) for p in primes]
    generators += [(_differential_generator(rng, p, n), None) for p in primes for n in range(1, 7)]
    generators += [(_dense_generator(p, slots), packed) for p, slots, packed in BOUND_CASES if p in primes]
    kinds = [0, 0]
    for a, packed in generators:
        p = a.p
        layout = _packing(a.nums, p)
        kinds[layout is None] += 1
        ks = (0, 1, p - 1, p, p + 1, p * p + 1) + ((400,) if packed is None else ())
        is_power, oracle_is_power, oracle = _power_check(a), _dict_power_check(a), _dict_powers(dict(a.nums), p)
        den = p ** a.s
        for k in ks:
            power, following = fresh_pow(a, k), fresh_pow(a, k + 1)
            expected = oracle(k)
            assert power == TiltElement.from_terms(p, {Fraction(e, den): c for e, c in expected.items()}), (a, k)
            assert _revalidated(power) == power
            for n in range(-3, 4):
                twisted = tilt_frobenius(power, n)
                near = [twisted, tilt_frobenius(power, n + 1), tilt_frobenius(following, n)]
                if len(power.nums) <= 300:  # near misses of the largest powers cost seconds to build
                    near += _near_misses(rng, twisted, p ** twisted.s, p)
                for y in near:
                    assert is_power(y, k, n) == oracle_is_power(y, k, n) == (y == twisted), (a, k, n, y)
        if packed is not None:
            assert (layout is not None) == packed, (p, len(a.nums))
    return kinds


def test_packed_power_table_matches_the_dict_oracle_randomized():
    packed, by_dict = assert_powers_match_the_dict_oracle()
    assert packed >= 15 and by_dict >= 30, (packed, by_dict)


def _sharing_sequence(rng):
    """Multi-term generators in the order that stresses one shared table: A, B, A again, A's numerators over
    another p, and phi^n(A) for n in -1..s_A + 1, which keeps A's numerators until the last n clears the frame."""
    t_half_plus_t = TiltElement.from_terms(2, {Fraction(1, 2): 1, 1: 1})
    yield t_half_plus_t
    yield TiltElement(3, 1, t_half_plus_t.nums)  # t^(1/3) + t^(2/3): the same nums over F_3
    for _ in range(8):
        p = rng.choice((2, 3, 5))
        a, b = (_differential_generator(rng, p, rng.randint(2, 4)) for _ in range(2))
        yield from (a, b, a)
        for q in (3, 5, 7):
            if q > p and (a.s == 0 or any(m % q for m, _ in a.nums)):  # coefficients below p stay reduced
                yield TiltElement(q, a.s, a.nums)
        assert tilt_frobenius(a, a.s + 1).nums != a.nums  # the last twist clears the frame
        yield from (tilt_frobenius(a, n) for n in range(-1, a.s + 2))


def test_the_shared_table_answers_as_a_fresh_one_randomized():
    # Each generator's predicate and tilt_pow go through the one cached table; a predicate made earlier is
    # asked again after later generators took the cache.  Every answer must be the fresh dict oracle's.
    rng = random.Random(4021)
    made = []
    for a in _sharing_sequence(rng):
        assert len(a.nums) > 1
        made.append((a, _power_check(a), _dict_power_check(a), _dict_powers(dict(a.nums), a.p)))
        for a, is_power, oracle_is_power, oracle in (made[-1], rng.choice(made)):
            p, den = a.p, a.p**a.s
            for k in (0, 1, 2, p, p + 1, rng.randint(2, 3 * p)):
                power = tilt_pow(a, k)
                assert power == TiltElement.from_terms(p, {Fraction(e, den): c for e, c in oracle(k).items()})
                for n in (-1, 0, 1):
                    twisted = tilt_frobenius(power, n)
                    for y in _near_misses(rng, twisted, p**twisted.s, p):
                        assert is_power(y, k, n) == oracle_is_power(y, k, n) == (y == twisted), (a, k, n, y)


def test_threads_sharing_tables_read_what_a_fresh_table_holds(monkeypatch):
    # Four threads meet at each generator and ask for its powers, each in its own order, through the cache;
    # a dict table's product yields to the other threads first, so their fills interleave.  A power stored
    # under the wrong exponent shows as a refusal.
    rng = random.Random(4051)
    generators = [_differential_generator(rng, p, rng.randint(2, 4)) for p in (5, 7, 11, 13, 17) for _ in range(4)]
    expected = {}
    for a in generators:
        oracle, den = _dict_powers(dict(a.nums), a.p), a.p**a.s
        for k in (*range(a.p), a.p + 1, 2 * a.p - 1):
            expected[a, k] = TiltElement.from_terms(a.p, {Fraction(e, den): c for e, c in oracle(k).items()})
    meet, refused, finished = threading.Barrier(4), [], []
    convolve = tilt._convolve
    monkeypatch.setattr(tilt, "_convolve", lambda x, y, p: time.sleep(0) or convolve(x, y, p))

    def ask(seed):
        order = random.Random(seed)
        for a in generators:
            ks = [k for b, k in expected if b is a]
            order.shuffle(ks)
            meet.wait(timeout=60)
            is_power = _power_check(a)
            refused.extend((a, k) for k in ks if not is_power(expected[a, k], k))
        finished.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(finished) == [0, 1, 2, 3] and not any(thread.is_alive() for thread in threads)
    assert not refused, refused[:3]


@pytest.mark.parametrize(
    "p, terms",
    [
        pytest.param(2, {Fraction(1, 8): 1, 10**6: 1}, id="two-terms-p2"),
        pytest.param(3, {Fraction(1, 27): 2, 10**6: 1}, id="two-terms-p3"),
        pytest.param(2, {Fraction(1, 8): 1, Fraction(1, 4): 1, 12500: 1}, id="sparse-three-terms"),
        pytest.param(257, {Fraction(1, 257): 256, Fraction(2, 257): 3, 1: 7}, id="p257"),
    ],
)
def test_the_table_choice_keeps_the_memory_of_a_family_bounded(p, terms):
    # Bytes for t^(1/8) + t^(1/4) + t^12500 would take 10^5 slots per power of a; it keeps the dict table.
    a = TiltElement.from_terms(p, terms)
    point = make_ansatz(a, 11)
    orbit = frobenius_orbit(point, (-1, 1))
    calls = {
        "tilt_pow": lambda: tilt_pow(a, 25),
        "make_ansatz": lambda: make_ansatz(a, 11),
        "frobenius_orbit": lambda: frobenius_orbit(point, (-1, 1)),
        "is_member": lambda: [is_member(o.members) for o in orbit] == [True] * 3,
    }
    for name, call in calls.items():
        _powers.cache_clear()  # each call builds its table inside the measured window
        tracemalloc.start()
        try:
            assert call(), name
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (name, peak)


@pytest.mark.parametrize(
    "p, terms",
    [
        pytest.param(2, {0: 1, 1: 1}, id="1+t"),
        pytest.param(2, {0: 1, Fraction(1, 2): 1, Fraction(3, 2): 1}, id="three-terms-p2"),
        pytest.param(5, {Fraction(1, 5): 2, Fraction(2, 5): 3, Fraction(3, 5): 4}, id="three-terms-p5"),
    ],
)
def test_a_power_past_the_packed_entry_bound_is_a_dict_entry_and_matches_the_oracle(monkeypatch, p, terms):
    a = TiltElement.from_terms(p, terms)
    builds, table = [], tilt._table
    monkeypatch.setattr(tilt, "_table", lambda *args: builds.append(args[1][1]) or table(*args))
    m0, g = _packing(a.nums, p)
    k_max = tilt._ENTRY_MAX // ((a.nums[-1][0] - m0) // g)  # the packed entry of a^k has k * span + 1 slots
    ks = (k_max - 1, k_max, k_max + 1)
    power, is_power, oracle = _powers(a.nums, p), _power_check(a), _dict_powers(dict(a.nums), p)
    builds_after = []
    for k in ks:
        assert power(k) == tuple(sorted(oracle(k).items())), k
        builds_after.append(len(builds))
    # one build for the packed table, then a second, the dict table, at the first spilled power
    assert builds_after == [1, 1, 2] and isinstance(builds[0], bytes) and isinstance(builds[1], dict), builds_after
    den = p**a.s
    for k in ks:
        expected = fresh_pow(a, k)
        assert expected == TiltElement.from_terms(p, {Fraction(e, den): c for e, c in oracle(k).items()}), k
        for n in (-1, 0, 1):
            twisted = tilt_frobenius(expected, n)
            for y in (twisted, tilt_frobenius(expected, n + 1), tilt_mul(twisted, TiltElement.monomial(p, 1))):
                assert is_power(y, k, n) == (y == twisted), (k, n)


def test_a_large_power_costs_what_its_result_holds():
    # (1 + t)^(2^20) = 1 + t^(2^20) over F_2: two terms, so no table of 2^20 slots.
    a = TiltElement.from_terms(2, {0: 1, 1: 1})
    tracemalloc.start()
    try:
        power = tilt_pow(a, 2**20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert power == TiltElement.from_terms(2, {0: 1, 2**20: 1})
    assert peak < 1 << 16, peak
    assert tilt_pow(a, 2**40) == tilt_frobenius(a, 40)


# The Fraction-term kernels that the integer frame replaced, kept as oracles.  They take and
# return sorted (Fraction exponent, coefficient) tuples, the ``terms`` view of an element.


def _old_scaled(terms, den):
    return {e.numerator * (den // e.denominator): c for e, c in terms}


def _old_from_scaled(scaled, den):
    return tuple([(Fraction(e, den), scaled[e]) for e in sorted(scaled)])


def _old_mul(p, x, y):
    den = max((e.denominator for e, _ in x + y), default=1)
    return _old_from_scaled(_convolve(_old_scaled(x, den), _old_scaled(y, den), p), den)


def _old_pow(p, x, k):
    if len(x) == 1:
        (e, c), = x
        return ((Fraction(e.numerator * k, e.denominator), pow(c, k, p)),)
    den = max((e.denominator for e, _ in x), default=1)
    return _old_from_scaled(_dict_powers(_old_scaled(x, den), p)(k), den)


def _old_frobenius(p, x, n):
    up, down = (p**n, 1) if n >= 0 else (1, p**-n)
    return tuple([(Fraction(e.numerator * up, e.denominator * down), c) for e, c in x])


def _old_power_check(p, a):
    """(y, k, n) -> y == phi^n(a^k) on terms tuples: y's exponents f go into a's frame as f * den / p^n."""
    den = max((e.denominator for e, _ in a), default=1)
    power = _dict_powers(_old_scaled(a, den), p)

    def check(y, k, n):
        up, down = (den, p**n) if n >= 0 else (den * p**-n, 1)
        target = power(k)
        if len(y) != len(target):
            return False
        for f, cy in y:
            g, fden = f.numerator * up, f.denominator * down
            if g % fden or target.get(g // fden) != cy:
                return False
        return True

    return check


def _framed_element(rng, p, n_terms):
    """n_terms terms with denominators p^0..p^3; one time in three every exponent is an integer multiple of p."""
    exponents, multiple = set(), rng.randrange(3) == 0
    while len(exponents) < n_terms:
        num = rng.randint(0, 4 * p)
        exponents.add(Fraction(num * p) if multiple else Fraction(num, p ** rng.randint(0, 3)))
    return TiltElement.from_terms(p, {e: rng.randint(1, p - 1) for e in exponents})


def _assert_canonical(x):
    # The validator refuses a frame that is not minimal, and from_terms finds the same frame.
    assert _revalidated(x) == x
    assert TiltElement.from_terms(x.p, dict(x.terms)) == x  # field equality: the same s and nums
    assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x) == x


def test_frame_kernels_match_the_fraction_term_oracles_randomized():
    rng = random.Random(2111)
    for p in (2, 3, 5, 7):
        results = []
        for n_terms in range(1, 5):
            for _ in range(3):
                x, y = _framed_element(rng, p, n_terms), _framed_element(rng, p, rng.randint(1, 4))
                product = tilt_mul(x, y)
                assert product.terms == _old_mul(p, x.terms, y.terms), (x, y)
                high = tilt_pow(x, p - 1)
                frobenius_as_product = tilt_mul(high, x)  # x^p = phi(x), on a frame one step coarser than x's
                assert frobenius_as_product.terms == _old_mul(p, high.terms, x.terms), (x, high)
                results += [product, frobenius_as_product]
                is_power, old_is_power = _power_check(x), _old_power_check(p, x.terms)
                for k in (0, 1, 2, p, p + 1, rng.randint(2, 3 * p)):
                    power = tilt_pow(x, k)
                    assert power.terms == _old_pow(p, x.terms, k), (x, k)
                    results.append(power)
                    for n in range(-3, 4):
                        image = tilt_frobenius(x, n)
                        assert image.terms == _old_frobenius(p, x.terms, n), (x, n)
                        twisted = tilt_frobenius(power, n)
                        results += [image, twisted]
                        for cand in (twisted, power, tilt_frobenius(power, n + 1), product, image, y):
                            assert is_power(cand, k, n) == old_is_power(cand.terms, k, n), (x, k, n, cand)
        for x in results:
            _assert_canonical(x)
        for x, y in zip(results, rng.sample(results, len(results))):
            assert (x == y) == (x.terms == y.terms), (x, y)
            if x == y:
                assert hash(x) == hash(y)


def test_frame_edges():
    # (t^(1/2) + 1)^2 = t + 1 over F_2: the product's frame shrinks from 2^1 to 2^0.
    root = TiltElement.from_terms(2, {Fraction(1, 2): 1, 0: 1})
    for square in (tilt_mul(root, root), tilt_pow(root, 2)):
        assert square == TiltElement.from_terms(2, {1: 1, 0: 1}) and square.s == 0
    for p in (2, 3, 5, 7):
        # phi^-1(t^p) = t and phi^-2(t^p + t^(p^3)) = t^(1/p) + t^p, from s = 0 with p-divisible numerators
        assert tilt_frobenius(TiltElement.monomial(p, p), -1) == TiltElement.monomial(p, 1)
        two = TiltElement.from_terms(p, {p: 1, p**3: 1})
        assert tilt_frobenius(two, -2) == TiltElement.from_terms(p, {Fraction(1, p): 1, p: 1})
        assert tilt_frobenius(TiltElement.monomial(p, 0), -3) == TiltElement.monomial(p, 0)
        # phi^n with n > s clears the frame; n <= s keeps the numerators, the same tuple
        x = TiltElement.from_terms(p, {Fraction(1, p**2): 1, Fraction(2): 1})
        assert tilt_frobenius(x, 3) == TiltElement.from_terms(p, {p: 1, 2 * p**3: 1}) and tilt_frobenius(x, 3).s == 0
        assert tilt_frobenius(x, 2).nums is x.nums and tilt_frobenius(x, -1).nums is x.nums
        # across frames: t^(1/p^2) * t^(p - 1/p^2) = t^p, whose frame is s = 0
        y = TiltElement.monomial(p, p - Fraction(1, p**2))
        assert tilt_mul(x, y) == TiltElement.from_terms(p, {p: 1, p + 2 - Fraction(1, p**2): 1})
        assert tilt_mul(TiltElement.monomial(p, Fraction(1, p**2)), y) == TiltElement.monomial(p, p)
        assert tilt_mul(TiltElement.monomial(p, Fraction(1, p**2)), y).s == 0
        assert tilt_pow(TiltElement.monomial(p, Fraction(1, p)), p**2) == TiltElement.monomial(p, p)


def _old_rescale_t(x, u):
    """t -> u*t by the residue of e = m / p^k mod p - 1, with p^k inverted mod p - 1."""
    p, m = x.p, x.p - 1
    terms = {}
    for e, c in x.terms:
        r = (e.numerator * pow(e.denominator, -1, m)) % m if m > 1 else 0
        terms[e] = c * pow(u, r, p) % p
    return TiltElement.from_terms(p, terms)


def test_rescale_t_matches_the_inverted_denominator_oracle():
    rng = random.Random(4409)
    for p in (2, 3, 5, 7, 11):
        for s in range(5):
            for _ in range(4):
                exponents = {Fraction(rng.randint(0, 4 * p**s), p**s) for _ in range(rng.randint(1, 4))}
                x = TiltElement.from_terms(p, {e: rng.randint(1, p - 1) for e in exponents})
                for u in range(1, p):
                    assert tilt_rescale_t(x, u) == _old_rescale_t(x, u), (x, u)


def test_frobenius_by_zero_is_the_element_itself_and_twists_invert():
    rng = random.Random(3307)
    for p in (2, 3, 5, 7):
        for _ in range(10):
            x = random_element(rng, p, max_terms=6)
            assert tilt_frobenius(x, 0) is x
            for n in range(-3, 4):
                assert tilt_frobenius(tilt_frobenius(x, n), -n) == x


def test_bool_exponents_rejected():
    x = TiltElement.monomial(3, Fraction(1, 3))
    for flag in (True, False):
        with pytest.raises(DomainError):
            tilt_pow(x, flag)
        with pytest.raises(DomainError):
            tilt_frobenius(x, flag)
        with pytest.raises(DomainError, match="frame scale"):
            TiltElement(3, flag, ((1, 1),))
        with pytest.raises(DomainError, match="numerator"):
            TiltElement(3, 0, ((flag, 1),))


def test_bool_coefficients_rejected():
    # bool is an int subclass, but True is no residue mod p: not as a stored coefficient, an input one, or a unit.
    for flag in (True, False):
        with pytest.raises(DomainError, match="coefficient"):
            TiltElement(3, 0, ((1, flag),))
        with pytest.raises(DomainError, match="coefficient"):
            TiltElement.from_terms(3, {1: flag})
        with pytest.raises(DomainError, match="coefficient"):
            TiltElement.monomial(3, 1, coeff=flag)
        for p in (2, 3):
            with pytest.raises(DomainError, match="substitution unit"):
                tilt_rescale_t(TiltElement.monomial(p, 1), flag)


def test_bool_exponents_rejected_by_from_terms():
    for flag in (True, False):
        with pytest.raises(DomainError, match="must be an int or a Fraction"):
            TiltElement.from_terms(3, {flag: 1})
        with pytest.raises(DomainError, match="must be an int or a Fraction"):
            TiltElement.monomial(2, flag)


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
        tilt_rescale_t(TiltElement.monomial(5, 0), 5)
    with pytest.raises(DomainError):
        tilt_rescale_t(TiltElement.monomial(5, 0), 0)


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
        TiltElement(2, 0, ((1, 0),))  # zero coefficient stored
    with pytest.raises(DomainError):
        TiltElement(3, 0, ((2, 1), (1, 1)))  # unsorted
    with pytest.raises(DomainError):
        TiltElement(3, 0, ((0.5, 1),))  # float exponent numerator
    with pytest.raises(DomainError, match="negative"):
        TiltElement(3, 1, ((-1, 1),))
    for scale in (-1, 0.5, Fraction(1)):
        with pytest.raises(DomainError, match="frame scale"):
            TiltElement(3, scale, ((1, 1),))
    for s, nums in ((1, ()), (1, ((0, 1),)), (2, ((3, 1), (6, 2)))):  # each fits on a smaller frame
        with pytest.raises(DomainError, match="not minimal"):
            TiltElement(3, s, nums)
    # Only ints and Fractions are exact: Fraction(0.1) would be 3602879701896397/2^55.
    for inexact in (0.1, 0.5, "1/2", Decimal("0.5")):
        for build in (
            lambda e: TiltElement.monomial(2, e),
            lambda e: TiltElement.from_terms(2, {e: 1}),
        ):
            with pytest.raises(DomainError, match="must be an int or a Fraction"):
                build(inexact)
    with pytest.raises(DomainError):
        TiltElement(3, 0, ((1, 4),))  # coefficient not reduced mod 3
    with pytest.raises(DomainError):
        TiltElement(3, 0, ((1, 1), (1, 2)))  # repeated exponent


def test_records_are_immutable_values():
    assert_immutable_value(lambda: TiltElement.from_terms(3, {Fraction(1, 3): 2, 4: 1}))
    assert_immutable_value(lambda: TiltElement.from_terms(2, {}))
    # Same field values, different classes: never equal.
    assert TiltElement(2, 0, ()) != WittExpr(2, ())
    assert TiltElement(2, 0, ()) != (2, 0, ())
    assert repr(TiltElement.monomial(2, 1)) == "TiltElement(p=2, s=0, nums=((1, 1),))"
    assert TiltElement.monomial(3, Fraction(4, 9)).terms == ((Fraction(4, 9), 1),)


def test_from_terms_checks_p_before_reducing_mod_p():
    for p in (0, 1, -3, 4, 3.0):
        with pytest.raises(DomainError, match="characteristic must be prime"):
            TiltElement.from_terms(p, {1: 1})
        with pytest.raises(DomainError, match="characteristic must be prime"):
            TiltElement.monomial(p, Fraction(1, 2))


def test_nums_must_be_a_tuple_of_pairs():
    for nums in ([(1, 1)], ([1, 1],), ((1, 1, 0),), ((1,),)):
        with pytest.raises(DomainError, match="tuple of"):
            TiltElement(3, 0, nums)
    x = TiltElement.from_terms(3, {Fraction(1, 3): 2, 4: 1})
    results = (x, tilt_mul(x, x), tilt_pow(x, 4), tilt_frobenius(x, 1), tilt_frobenius(x, -2))
    for y in results:
        assert type(y.nums) is tuple and all(type(term) is tuple for term in y.nums)
        assert hash(y) == hash(TiltElement(y.p, y.s, y.nums))
    assert len(set(results)) == len(results)


def test_from_terms_passes_the_validating_constructor_randomized():
    # from_terms builds its frame without the validator; the constructor re-checks every field of it.
    rng = random.Random(733)
    for p in (2, 3, 5, 7):
        for _ in range(60):
            terms = {Fraction(rng.randint(0, 60), p ** rng.randint(0, 3)): rng.randint(-2 * p, 2 * p) for _ in range(5)}
            x = TiltElement.from_terms(p, terms)
            assert TiltElement(p, x.s, x.nums) == x
            negative = {**terms, Fraction(-rng.randint(1, 9), p ** rng.randint(0, 2)): 1}
            with pytest.raises(DomainError, match="negative"):
                TiltElement.from_terms(p, negative)


def test_from_terms_reduces_mod_p():
    assert TiltElement.from_terms(2, {1: 5}) == TiltElement.monomial(2, 1)
    assert TiltElement.from_terms(2, {1: 2}).is_zero
    assert TiltElement.from_terms(5, {Fraction(1, 5): 7}) == TiltElement.monomial(
        5, Fraction(1, 5), coeff=2
    )


def test_mixed_characteristic_rejected():
    with pytest.raises(DomainError, match="^cannot combine elements over F_2 and F_3$"):
        tilt_mul(TiltElement.monomial(2, 0), TiltElement.monomial(3, 0))


def test_is_prime_small_table():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(-7)
    assert is_prime(97)
    assert not is_prime(91)  # 7 * 13


def test_only_an_int_is_prime():
    # 3.0 == 3 and True == 1, but a float or bool p would build float or bool arithmetic into exact models.
    for n in (3.0, 5.0, 2.0, True, False, Fraction(3), Decimal(5), "3"):
        assert not is_prime(n), n
    with pytest.raises(DomainError, match="characteristic must be prime"):
        TiltElement(3.0, 0, ((1, 1),))
    with pytest.raises(DomainError, match="p must be prime"):
        PadicUnit(3.0, 4, 4)
    with pytest.raises(DomainError, match="residue characteristic must be prime"):
        WittExpr(3.0, ())
    with pytest.raises(DomainError, match="ell must be an odd prime"):
        _require_odd_prime(5.0)


def _probe_point():
    return make_ansatz(TiltElement.monomial(2, Fraction(1, 4)), 5)


# Each probe once returned a value: a bool, or the float q_exponent, passed a check that tilt's rules did not make.
@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("truncation radius", lambda: theta_terms(True), id="theta_terms"),
        pytest.param("truncation radius", lambda: eval_theta_laurent(1, 1, 5, True), id="eval_theta_laurent"),
        pytest.param("depth", lambda: theta_set_sample([_probe_point()], Fraction(1, 10), True), id="theta_set_sample"),
        pytest.param("window", lambda: frobenius_orbit(_probe_point(), (True, True)), id="frobenius_orbit"),
        pytest.param("window", lambda: chain_build(3, Fraction(1), (False, True)), id="chain_build"),
        pytest.param("slot index", lambda: WittExpr(3, ((True, TiltElement.monomial(3, 1)),)), id="WittExpr"),
        pytest.param(
            "xi_val_K1",
            lambda: PilotTuple(_probe_point(), True, (Fraction(1, 4), Fraction(1))),
            id="PilotTuple",
        ),
        pytest.param("value", lambda: PadicUnit.of(3, 4, True), id="PadicUnit.of"),
        pytest.param("j", lambda: ThetaValue(True, 5, -1, Fraction(1, 10), 2), id="ThetaValue.j"),
        pytest.param("sign", lambda: ThetaValue(1, 5, True, Fraction(1, 10), 2), id="ThetaValue.sign"),
        pytest.param("q_exponent", lambda: ThetaValue(1, 5, -1, 0.1, 2), id="ThetaValue.q_exponent"),
        pytest.param(
            "zeta_exponent", lambda: ThetaValue(1, 5, -1, Fraction(1, 10), True), id="ThetaValue.zeta_exponent"
        ),
    ],
)
def test_a_bool_is_no_count_index_or_positive_rational(name, call):
    with pytest.raises(DomainError, match=f"^{name} must be"):
        call()



def _probe_chain():
    return chain_build(3, Fraction(1), (0, 2))


# Each probe once raised a bare TypeError or ValueError, or returned a value: value_at(True) read index 1.
@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("window", lambda: chain_build(3, Fraction(1), 5), id="chain_build-int"),
        pytest.param("window", lambda: chain_build(3, Fraction(1), (0, 1, 2)), id="chain_build-triple"),
        pytest.param("window", lambda: frobenius_orbit(_probe_point(), None), id="frobenius_orbit-none"),
        pytest.param("window", lambda: frobenius_orbit(_probe_point(), (0, 1, 2)), id="frobenius_orbit-triple"),
        pytest.param("window", lambda: frobenius_orbit(_probe_point(), (0,)), id="frobenius_orbit-single"),
        pytest.param(
            "window",
            lambda: LogLinkChain(p=3, v0=Fraction(1), window=[0, 2], entries=_probe_chain().entries),
            id="LogLinkChain-list",
        ),
        pytest.param("index", lambda: _probe_chain().value_at(True), id="value_at-bool"),
        pytest.param("index", lambda: _probe_chain().value_at(0.5), id="value_at-float"),
        pytest.param("index", lambda: _probe_chain().value_at(Fraction(1)), id="value_at-fraction"),
    ],
)
def test_a_malformed_window_or_chain_index_is_a_domain_error(name, call):
    with pytest.raises(DomainError, match=f"^{name} must be"):
        call()

# Where a module may still test isinstance against bool or int itself, and why.
_TYPE_TESTS_ALLOWED = {
    "reporting": "its writers render a bool leaf as true/false and an int by int.__repr__: output, not a parameter check",
}


def _isinstance_against_bool_or_int(tree):
    """(qualified scope, line) of each isinstance(x, T) call whose T names bool or int."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"
                and len(child.args) == 2
            ):
                kinds = child.args[1].elts if isinstance(child.args[1], ast.Tuple) else [child.args[1]]
                if any(isinstance(k, ast.Name) and k.id in ("bool", "int") for k in kinds):
                    found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_tilt_spells_out_the_integer_rule():
    # tilt._is_int (an int and not a bool) is the one integer rule; a copy elsewhere is how checks drifted.
    src = Path(tiltval.__file__).resolve().parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        module = path.stem
        if module == "tilt":
            continue
        for scope, line in _isinstance_against_bool_or_int(ast.parse(path.read_text(encoding="utf-8"))):
            qualified = f"{module}.{scope}" if scope else module
            if not any(qualified == allowed or qualified.startswith(allowed + ".") for allowed in _TYPE_TESTS_ALLOWED):
                offenders.append(f"{path.name}:{line} in {qualified}")
    assert not offenders, offenders
