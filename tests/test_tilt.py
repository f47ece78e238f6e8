"""Valuation model: construction discipline, exact arithmetic, Frobenius."""

import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from conftest import assert_immutable_value, random_element, random_monomial

from tiltval.errors import ConfigError, DomainError
from tiltval.witt import PrimitiveDeg1, RhoWeight, WittExpr, eta_val, gauss_log_norm, teichmuller
from tiltval.tilt import (
    _convolve,
    _is_p_power,
    _power_check,
    _powers,
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
    assert tilt_val(TiltElement.one(3)) == 0
    assert tilt_val(TiltElement.monomial(5, 3, coeff=4)) == 3


def test_zero_has_infinite_valuation():
    assert tilt_val(TiltElement.zero(2)) is None


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
        two_slots = WittExpr.from_terms(p, {0: x, 1: random_monomial(rng, p)})
        for rho in (RhoWeight.of(rng.randint(1, 3)), RhoWeight.one()):
            assert type(gauss_log_norm(teichmuller(x), rho)) is Fraction
            assert type(gauss_log_norm(two_slots, rho)) is Fraction
    zero = TiltElement.zero(3)
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
                _assert_kernel_result(tilt_mul(x, TiltElement.zero(p)), TiltElement.zero(p))
                for k in (0, 1, p, rng.randint(2, 60)):
                    _assert_kernel_result(tilt_pow(x, k), _pow_by_from_terms(x, k))
                rescaled = tilt_rescale_t(x, rng.randint(1, p - 1))
                assert _revalidated(rescaled) == rescaled and rescaled.support() == x.support()
    _assert_kernel_result(tilt_pow(TiltElement.zero(3), 0), TiltElement.one(3))
    _assert_kernel_result(tilt_pow(TiltElement.zero(3), 4), TiltElement.zero(3))


def _near_misses(rng, power, den, p):
    """Elements y to hold against a power of a generator whose exponent denominator is den."""
    terms = dict(power.terms)
    yield power
    yield TiltElement.zero(p)
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
                power, is_power = _powers(base, p), _power_check(a)
                for k in order:
                    expected = TiltElement.from_terms(p, {Fraction(e, den): c for e, c in oracle[k].items()})
                    assert power(k) == oracle[k], (a, k)
                    assert tilt_pow(a, k) == expected, (a, k)
                    assert is_power(expected, k), (a, k)
                    assert not is_power(tilt_mul(expected, TiltElement.monomial(p, 1)), k), (a, k)


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
    return _old_from_scaled(_powers(_old_scaled(x, den), p)(k), den)


def _old_frobenius(p, x, n):
    up, down = (p**n, 1) if n >= 0 else (1, p**-n)
    return tuple([(Fraction(e.numerator * up, e.denominator * down), c) for e, c in x])


def _old_power_check(p, a):
    """(y, k, n) -> y == phi^n(a^k) on terms tuples: y's exponents f go into a's frame as f * den / p^n."""
    den = max((e.denominator for e, _ in a), default=1)
    power = _powers(_old_scaled(a, den), p)

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
        assert tilt_frobenius(TiltElement.one(p), -3) == TiltElement.one(p)
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
    assert_immutable_value(lambda: TiltElement.zero(2))
    # Same field values, different classes: never equal.
    assert TiltElement(2, 0, ()) != WittExpr(2, ())
    assert TiltElement(2, 0, ()) != (2, 0, ())
    assert repr(TiltElement.monomial(2, 1)) == "TiltElement(p=2, s=0, nums=((1, 1),))"
    assert TiltElement.monomial(3, Fraction(4, 9)).terms == ((Fraction(4, 9), 1),)


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
