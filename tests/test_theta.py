"""Theta truncations: identity checks against independent polynomial routes."""

import math
import random
from fractions import Fraction

import pytest
from conftest import assert_immutable_value

from tiltval import theta
from tiltval.errors import DomainError
from tiltval.theta import (
    CycloElt,
    ThetaValue,
    _quasi_periodicity,
    _root_pows_vanish,
    check_inversion_antisymmetry,
    check_quasi_periodicity,
    check_shifts,
    check_theta_value_laurent,
    eval_theta_laurent,
    theta_terms,
    theta_value,
)


def _reduce_mod_cyclo(ell, coeffs):
    """Reduce a coefficient list of any length mod Phi_2ell, top degree first."""
    # Phi_2ell(x) = sum_{i<ell} (-1)^i x^i is monic of degree ell - 1, so
    # x^(ell-1) = sum_{i<ell-1} -(-1)^i x^i closes the reduction.
    deg = ell - 1
    for d in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[d]
        if c:
            coeffs[d] = 0
            for i in range(deg):
                coeffs[d - deg + i] -= c * (-1) ** i
    out = coeffs[:deg] + [0] * (deg - len(coeffs))
    return tuple(out[:deg])


# The ring Z[x]/(Phi_2ell(x)) as the oracle: an element is its tuple of ell - 1 coefficients in
# the basis 1, x, ..., x^(ell-2), reached only through the reduction cascade above.


def _from_root_pows(ell, pows):
    """sum c * x^e over pows = {e: c}, any integer e, through the reduction cascade; x^(2 ell) = 1."""
    coeffs = [0] * (2 * ell)
    for e, c in pows.items():
        coeffs[e % (2 * ell)] += c
    return _reduce_mod_cyclo(ell, coeffs)


def _ring_mul(ell, a, b):
    """The product of two elements: their convolution, reduced."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _reduce_mod_cyclo(ell, prod)


def _scaled(n, a):
    return tuple(n * x for x in a)


def _eval_by_ring_ops(j, k, ell, n_max):
    """The truncated evaluation as {s: coefficients}, one ring element per term summed in the ring."""
    acc = {}
    for n in range(-n_max, n_max + 1):
        s_exp = n * (n + 1) + j * (2 * n + 1)
        coeff = _from_root_pows(ell, {2 * k * (2 * n + 1): -1 if n % 2 else 1})
        acc[s_exp] = tuple(map(sum, zip(acc[s_exp], coeff))) if s_exp in acc else coeff
    return {s_exp: c for s_exp, c in acc.items() if any(c)}


def _eval_by_terms(j, k, ell, n_max):
    """The evaluation with every term's root power and sign worked out again for each j."""
    acc = {}
    for n in range(-n_max, n_max + 1):
        # zeta = x^2, so zeta^(k(2n+1)) is x^(2k(2n+1)); x^ell = -1 folds it below ell
        e = 2 * k * (2 * n + 1) % (2 * ell)
        c = -1 if n % 2 else 1
        if e >= ell:
            e, c = e - ell, -c
        coeff = acc.setdefault(n * (n + 1) + j * (2 * n + 1), {})
        c += coeff.pop(e, 0)
        if c:
            coeff[e] = c
    return {s_exp: acc[s_exp] for s_exp in sorted(acc) if acc[s_exp]}


def _in_order(value):
    """A nested evaluation as lists of items, so comparing two compares their key order too."""
    return [(s_exp, list(coeff.items())) for s_exp, coeff in value.items()]


def _coeff_table(n_max, signed=True):
    """u-exponent -> (sign, q-exponent), built without the library rows."""
    table = {}
    for n in range(-n_max, n_max + 1):
        sign = -1 if (signed and n % 2) else 1
        table[2 * n + 1] = (sign, n * (n + 1) // 2)
    return table


def test_terms_frozen_small_window():
    assert theta_terms(1) == (
        (-1, -1, 0, -1),
        (0, 1, 0, 1),
        (1, -1, 1, 3),
    )
    only = theta_terms(0)
    assert len(only) == 1 and only[0][1:] == (1, 0, 1)


def test_terms_count_and_window_access():
    series = theta_terms(6)
    assert len(series) == 13
    assert [row[0] for row in series] == list(range(-6, 7))  # index n at position n + 6
    assert series[0][3] == -11
    assert all(type(x) is int for row in series for x in row)  # a row of plain ints: no bool sign
    with pytest.raises(DomainError):
        theta_terms(-1)


def test_inversion_against_polynomial_substitution():
    # Independent route: substitute u -> 1/u into the coefficient table and
    # compare with the negated table on the shared support.
    for n_max in (1, 4, 9):
        table = _coeff_table(n_max)
        inverted = {-e: sq for e, sq in table.items()}
        shared = set(table) & set(inverted)
        assert len(shared) == 2 * n_max  # everything except the two edges
        for e in shared:
            sign, q = table[e]
            inv_sign, inv_q = inverted[e]
            assert (inv_sign, inv_q) == (-sign, q)
        assert set(table) - set(inverted) == {2 * n_max + 1}
        assert set(inverted) - set(table) == {-(2 * n_max + 1)}
        passed, pairs, cancel_at_one, mismatch = check_inversion_antisymmetry(n_max)
        assert passed and mismatch is None
        assert pairs == n_max
        assert len(theta_terms(n_max)) == 2 * pairs + 1  # the pairs and one boundary term fill the window
        assert cancel_at_one


def test_inversion_unsigned_control_fails():
    passed, _, cancel_at_one, mismatch = check_inversion_antisymmetry(12, signed=False)
    assert not passed
    assert not cancel_at_one
    assert "sign" in mismatch
    with pytest.raises(DomainError):
        check_inversion_antisymmetry(0)


def test_vanishing_at_one_on_the_window():
    # Summing signs per q-exponent leaves only the unpaired boundary index.
    for n_max in (3, 8):
        sums = {}
        for _, (sign, q) in _coeff_table(n_max).items():
            sums[q] = sums.get(q, 0) + sign
        surviving = {q for q, s in sums.items() if s}
        assert surviving == {n_max * (n_max + 1) // 2}


def test_quasi_periodicity_against_polynomial_substitution():
    n_max = 6
    for j in (1, 2, 3, -2):
        table = _coeff_table(n_max)
        # Left side: theta(q^(j/2) u), doubled q-exponents.
        lhs = {e: (sign, 2 * q + j * e) for e, (sign, q) in table.items()}
        # Right side: (-1)^j q^(-j^2/2) u^(-2j) theta(u).
        rhs = {
            e - 2 * j: ((-1) ** (j % 2) * sign, 2 * q - j * j)
            for e, (sign, q) in table.items()
        }
        # step-2 progressions shifted by 2j share 2 n_max + 1 - |j| keys,
        # a superset of the checker's symmetric window
        shared = set(lhs) & set(rhs)
        assert len(shared) == 2 * n_max + 1 - abs(j)
        for e in shared:
            assert lhs[e] == rhs[e]
        passed, overlap, checked, mismatch = check_quasi_periodicity(j, n_max)
        assert passed and mismatch is None
        assert checked == 2 * (n_max - abs(j)) + 1
        assert overlap == (-n_max + abs(j), n_max - abs(j))


def test_quasi_periodicity_frozen_window():
    passed, overlap, checked, _ = check_quasi_periodicity(1, 4)
    assert passed
    assert overlap == (-3, 3)
    assert checked == 7
    assert check_quasi_periodicity(1, 1) == (True, (0, 0), 1, None)
    assert check_quasi_periodicity(0, 5)[0]
    with pytest.raises(DomainError, match=r"^shift step must lie in -5\.\.5, got 6$"):
        check_quasi_periodicity(6, 5)


def test_quasi_periodicity_unsigned_control():
    # Without signs the exponent bookkeeping still matches for even j but the
    # (-1)^j factor breaks every odd shift.
    unsigned = theta_terms(8, signed=False)
    assert _quasi_periodicity(unsigned, 2)[0]
    passed, _, _, mismatch = _quasi_periodicity(unsigned, 1)
    assert not passed
    assert "sign" in mismatch or "(2q" in mismatch


def test_cyclotomic_ring_structure():
    ell = 5
    one = (1, 0, 0, 0)
    assert _from_root_pows(ell, {0: 1}) == _from_root_pows(ell, {2 * ell: 1}) == one
    assert _from_root_pows(ell, {ell: 1}) == _scaled(-1, one)
    # Phi_10 reduction: x^4 = x^3 - x^2 + x - 1.
    assert _from_root_pows(ell, {4: 1}) == (-1, 1, -1, 1)
    rng = random.Random(13)
    for _ in range(60):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        zeta_a, zeta_b = _from_root_pows(ell, {2 * a: 1}), _from_root_pows(ell, {2 * b: 1})
        assert _ring_mul(ell, zeta_a, zeta_b) == _from_root_pows(ell, {2 * (a + b): 1})
    # x^(2 ell) = 1 and x^ell = -1, as the zero test reads them.
    assert _root_pows_vanish(ell, {2 * ell: 1, 0: -1}) and _root_pows_vanish(ell, {ell: 1, 0: 1})
    assert not _root_pows_vanish(ell, {ell: 1, 0: -1})


def test_records_are_immutable_values():
    assert_immutable_value(lambda: theta_value(2, 7))


def test_eval_cancels_to_boundary_term_at_one():
    # At u = 1 (j = k = 0) every in-window pair cancels exactly; only the
    # unpaired boundary index n = N survives.
    for n_max in (2, 5):
        value = eval_theta_laurent(0, 0, 5, n_max)
        sign = 1 if n_max % 2 == 0 else -1
        assert value == {n_max * (n_max + 1): {0: sign}}


def test_eval_vanishing_at_power_points_matches_pair_bookkeeping():
    # At u = s^m the pairing n <-> -n-1-2m cancels inside the window; what is
    # left must be exactly the indexes whose partner fell outside.
    ell, n_max = 5, 8
    for m in (1, 2, ell):
        value = eval_theta_laurent(m, 0, ell, n_max)
        expected = {}
        for n in range(-n_max, n_max + 1):
            partner = -n - 1 - 2 * m
            if -n_max <= partner <= n_max:
                continue
            expected[n * (n + 1) + m * (2 * n + 1)] = {0: 1 if n % 2 == 0 else -1}
        assert value == expected
        assert list(value) == sorted(expected)
        assert len(value) == 2 * m + 1  # the indexes n = N-2m .. N survive


def test_eval_lowest_terms_frozen():
    ell = 5
    # zeta = x^2 and x^5 = -1: zeta^-1 = x^8 = -x^3 and zeta^-3 = x^4.
    base = eval_theta_laurent(0, 1, ell, 6)
    assert next(iter(base.items())) == (0, {2: 1, 3: 1})
    assert _from_root_pows(ell, base[0]) == _from_root_pows(ell, {2: 1, -2: -1})  # zeta - zeta^-1
    shifted = eval_theta_laurent(1, 1, ell, 6)
    assert next(iter(shifted.items())) == (-1, {3: 1, 4: 1})
    assert _from_root_pows(ell, shifted[-1]) == _from_root_pows(ell, {-2: -1, -6: 1})  # -zeta^-1 + zeta^-3


def test_theta_value_frozen():
    tv1 = theta_value(1, 5)
    assert (tv1.sign, tv1.q_exponent, tv1.zeta_exponent) == (-1, Fraction(1, 10), 2)
    assert tv1.inverse_zeta_exponent == 3
    tv2 = theta_value(2, 5)
    assert (tv2.sign, tv2.q_exponent, tv2.zeta_exponent) == (1, Fraction(2, 5), 4)


def test_theta_value_validation():
    with pytest.raises(DomainError):
        theta_value(0, 5)
    with pytest.raises(DomainError):
        theta_value(3, 5)  # past ell* = 2
    with pytest.raises(DomainError):
        theta_value(1, 9)
    with pytest.raises(DomainError):
        theta_value(1, 2)


def test_theta_value_equals_the_validating_constructor():
    # theta_value skips the record validator after checking ell and j itself; the public constructor still checks.
    for ell in (3, 5, 7, 11, 13, 59, 107):
        for j in range(1, (ell - 1) // 2 + 1):
            assert theta_value(j, ell) == ThetaValue(j, ell, (-1) ** (j % 2), Fraction(j * j, 2 * ell), (2 * j) % ell)
        for j in (0, -1, (ell - 1) // 2 + 1, ell):
            with pytest.raises(DomainError, match="j must lie in"):
                theta_value(j, ell)
    for ell in (2, 9, 15, 21, 1, 0, -7):
        with pytest.raises(DomainError, match="ell must be an odd prime"):
            theta_value(1, ell)
    for fields in ((9, -1, Fraction(1, 18), 2), (5, 0, Fraction(1, 10), 2), (5, -1, 0, 2), (5, -1, Fraction(1, 10), 5)):
        with pytest.raises(DomainError):
            ThetaValue(1, *fields)
    # j past ell* = 2, a sign of +-1 but not (-1)^j, a zeta exponent below ell but not 2j mod ell.
    for fields in ((3, 5, -1, Fraction(9, 10), 1), (1, 5, 1, Fraction(1, 10), 2), (2, 5, 1, Fraction(2, 5), 3)):
        with pytest.raises(DomainError):
            ThetaValue(*fields)


def test_theta_value_square_scaling():
    for ell in (5, 7, 11, 13):
        base = theta_value(1, ell).q_exponent
        assert base == Fraction(1, 2 * ell)
        for j in range(1, (ell - 1) // 2 + 1):
            tv = theta_value(j, ell)
            assert tv.q_exponent == j * j * base
            assert tv.zeta_exponent == (2 * j) % ell
            assert tv.sign == (-1) ** (j % 2)


def test_laurent_ratio_consistency():
    for ell in (5, 7):
        for j in range(1, (ell - 1) // 2 + 1):
            for k in (1, 2):
                passed, gap, expected_gap, coeff_ok = check_theta_value_laurent(j, k, ell, n_max=8)
                assert passed
                assert gap == expected_gap == -j * j
                assert coeff_ok


def test_laurent_ratio_guards():
    with pytest.raises(DomainError, match="^truncation radius must be at least 3, got 2$"):
        check_theta_value_laurent(2, 1, 5, n_max=2)  # lowest index -3 not in window
    with pytest.raises(DomainError):
        check_theta_value_laurent(1, 5, 5, n_max=6)  # k = 0 mod ell degenerates
    with pytest.raises(DomainError):
        eval_theta_laurent(0, 1, 9, 4)


@pytest.mark.parametrize("bad", [0.5, 1.0, 1.5, True, False, Fraction(1), "1", None], ids=repr)
def test_a_step_or_root_index_that_is_not_an_int_is_a_domain_error(bad):
    # A float j once gave half-integer s-exponents, and True passed as j = 1.
    calls = [
        lambda: eval_theta_laurent(bad, 1, 5, 2),
        lambda: eval_theta_laurent(1, bad, 5, 2),
        lambda: check_quasi_periodicity(bad, 4),
        lambda: check_theta_value_laurent(bad, 1, 5, 4),
        lambda: check_theta_value_laurent(1, bad, 5, 4),
        lambda: theta_value(bad, 5),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_root_power_shift_matches_ring_product_randomized():
    # The check shifts root powers where the ring route multiplies by zeta^m:
    # zeta^m * sum c x^e = sum c x^(e + 2m).  The oracle's reduced product is the ring route.
    rng = random.Random(7321)
    for _ in range(80):
        ell = rng.choice((3, 5, 7, 11, 13, 59, 211))
        j = rng.randint(1, (ell - 1) // 2)
        k = rng.randint(1, ell - 1) * rng.choice((1, -1)) + ell * rng.randint(-2, 2)
        n_max = rng.randint(j + 1, j + 1 + ell)
        tv = theta_value(j, ell)
        base = eval_theta_laurent(0, k, ell, n_max)
        base_coeff = base[min(base)]
        base_c = _from_root_pows(ell, base_coeff)
        m = k * tv.inverse_zeta_exponent
        by_shift = _from_root_pows(ell, {e + 2 * m: tv.sign * c for e, c in base_coeff.items()})
        by_product = _scaled(tv.sign, _ring_mul(ell, _from_root_pows(ell, {2 * m: 1}), base_c))
        case = (ell, j, k, n_max)
        assert by_shift == by_product, case
        for off in (1, rng.randint(2, ell - 1)):
            moved = _from_root_pows(ell, {e + 2 * (m + off): c for e, c in base_coeff.items()})
            assert moved == _ring_mul(ell, _from_root_pows(ell, {2 * (m + off): 1}), base_c), case
            assert moved != _scaled(tv.sign, by_product), case
        shifted = eval_theta_laurent(j, k, ell, n_max)
        lo_c = _from_root_pows(ell, shifted[min(shifted)])
        assert check_theta_value_laurent(j, k, ell, n_max)[3] == (lo_c == by_product), case


def test_root_pow_zero_test_matches_the_ring_oracle_randomized():
    # Phi_6 = 1 - x + x^2 is zero although no two of its root powers cancel outright.
    assert _root_pows_vanish(3, {0: 1, 1: -1, 2: 1})
    assert not _root_pows_vanish(3, {0: 1, 1: -1})
    rng = random.Random(9173)
    outcomes = []
    for _ in range(400):
        ell = rng.choice((3, 5, 7, 11, 13))
        pows = {}
        for _ in range(rng.randint(1, 4)):
            e = rng.randint(-3 * ell, 3 * ell)
            pows[e] = pows.get(e, 0) + rng.choice((-2, -1, 1, 2))
        kind = rng.randrange(3)
        if kind:  # a sum that is zero: each root power cancelled through x^ell = -1, then maybe c x^m Phi_2ell added
            for e, c in list(pows.items()):
                f = e + ell * rng.choice((-3, -1, 1, 3))
                pows[f] = pows.get(f, 0) + c
        if kind == 2:
            m, c = rng.randint(-2 * ell, 2 * ell), rng.choice((-1, 1))
            for i in range(ell):
                pows[m + i] = pows.get(m + i, 0) + c * (-1) ** i
        vanishes = _root_pows_vanish(ell, pows)
        assert vanishes == (not any(_from_root_pows(ell, pows))), (ell, pows)
        outcomes.append(vanishes)
    assert min(outcomes.count(True), outcomes.count(False)) >= 100


@pytest.mark.parametrize("ell", (5, 59, 211))
def test_suite_batches_match_the_per_step_checks(ell):
    # One row table, one root table and one base evaluation must give the same outcomes
    # as the public per-step checks, which rebuild each of them for every j.
    ell_star = (ell - 1) // 2
    for n_max in (ell_star, ell_star + 3):
        for k in (1, ell - 2):
            values, shifts, ratios = check_shifts(k, ell, n_max)
            assert values == tuple(theta_value(j, ell) for j in range(1, ell_star + 1))
            assert shifts == tuple(check_quasi_periodicity(j, n_max) for j in range(1, ell_star + 1))
            j_max = min(ell_star, n_max - 1)
            assert ratios == tuple(check_theta_value_laurent(j, k, ell, n_max) for j in range(1, j_max + 1))
    assert check_shifts(1, 3, 1) == ((theta_value(1, 3),), (check_quasi_periodicity(1, 1),), ())
    with pytest.raises(DomainError, match=f"^truncation radius must be at least {ell_star}, got {ell_star - 1}$"):
        check_shifts(1, ell, ell_star - 1)  # a shift j = ell* needs the window to reach it
    with pytest.raises(DomainError, match="^k must be nonzero mod ell"):
        check_shifts(ell, ell, ell_star + 1)
    with pytest.raises(DomainError, match="^ell must be an odd prime"):
        check_shifts(1, 3 * ell, ell_star + 1)


def test_eval_matches_ring_ops_randomized():
    rng = random.Random(4409)
    primes = [ell for ell in range(3, 114, 2) if all(ell % d for d in range(3, ell, 2))]
    assert primes[0] == 3 and primes[-1] == 113
    for ell in primes:
        ell_star = (ell - 1) // 2
        for _ in range(5):
            j = rng.randint(0, ell_star)
            k = rng.choice((0, ell, -ell, rng.randint(-3 * ell, 3 * ell)))
            n_max = rng.randint(0, 2 * ell)
            case = (j, k, ell, n_max)
            value = eval_theta_laurent(*case)
            assert list(value) == sorted(value), case
            for coeff in value.values():
                assert 1 <= len(coeff) <= 2 and all(c and 0 <= e < ell for e, c in coeff.items()), case
            as_ring = {s_exp: _from_root_pows(ell, coeff) for s_exp, coeff in value.items()}
            assert as_ring == _eval_by_ring_ops(*case), case


def test_cyclo_mul_matches_reduction_cascade_randomized():
    rng = random.Random(6151)
    for ell in (3, 5, 7, 11, 13, 31, 61):
        for _ in range(20):
            a = tuple(rng.randint(-50, 50) for _ in range(ell - 1))
            b = tuple(rng.choice((0, 0, rng.randint(-50, 50))) for _ in range(ell - 1))
            prod = [0] * (2 * ell - 3)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    prod[i + j] += x * y
            expected = _reduce_mod_cyclo(ell, list(prod))
            assert expected == _ring_mul(ell, b, a), (ell, a, b)
            assert (CycloElt(ell, a) * CycloElt(ell, b)).coeffs == expected, (ell, a, b)
            diff = dict(enumerate(prod))
            for i, c in enumerate(expected):
                diff[i] -= c
            assert _root_pows_vanish(ell, diff), (ell, a, b)
            assert _root_pows_vanish(ell, dict(enumerate(prod))) == (not any(expected)), (ell, a, b)


@pytest.mark.parametrize("ell", (3, 5, 7, 11, 59))
def test_eval_matches_the_per_term_loop(ell):
    # The root-power table is shared by every j; the evaluation must still be the per-term loop's, key order included.
    for n_max in (0, 1, 5, 29):
        for k in (0, 1, 2, ell - 1, ell + 1, -3):
            for j in range(n_max + 3):
                case = (j, k, ell, n_max)
                assert _in_order(eval_theta_laurent(*case)) == _in_order(_eval_by_terms(*case)), case


# The pointwise routes, kept as oracles for the suite's shortcut and for the routes it falls back to: each
# evaluation accumulated row by row and sorted, each quasi-periodicity term compared as two (2q, sign, u) tuples,
# and each special-value check evaluating both sides in full and reading their lowest exponents by min().


def _eval_accumulate_and_sort(j, k, ell, n_max):
    """The evaluation from whatever table theta._root_terms hands out: accumulate every row, then sort."""
    acc = {}
    for s_at_0, s_step, e, c in theta._root_terms(k, ell, n_max):
        coeff = acc.setdefault(s_at_0 + j * s_step, {})
        c += coeff.pop(e, 0)
        if c:
            coeff[e] = c
    return {s_exp: acc[s_exp] for s_exp in sorted(acc) if acc[s_exp]}


def _laurent_by_min(j, k, ell, n_max):
    tv = theta_value(j, ell)
    shifted, base = _eval_accumulate_and_sort(j, k, ell, n_max), _eval_accumulate_and_sort(0, k, ell, n_max)
    lo_s, base_s = min(shifted), min(base)
    shift = 2 * k * tv.inverse_zeta_exponent
    diff = dict(shifted[lo_s])
    for e, c in base[base_s].items():
        diff[e + shift] = diff.get(e + shift, 0) - tv.sign * c
    coeff_ok = _root_pows_vanish(ell, diff)
    return lo_s - base_s == -j * j and coeff_ok, lo_s - base_s, -j * j, coeff_ok


def _quasi_by_tuples(terms, j):
    """The shift identity at step j, |j| <= N, with both sides built as tuples for every term."""
    n_max = len(terms) // 2
    lo, hi = -n_max + abs(j), n_max - abs(j)
    mismatch, checked = None, 0
    for n in range(lo, hi + 1):
        _, sign_n, q_n, u_n = terms[n + n_max]
        _, sign_s, q_s, u_s = terms[n + j + n_max]
        lhs = (2 * q_n + j * u_n, sign_n, u_n)
        rhs = (2 * q_s - j * j, (-1) ** (j % 2) * sign_s, u_s - 2 * j)
        if lhs != rhs:
            mismatch = mismatch or f"n = {n}: left (2q, sign, u) = {lhs} right {rhs}"
        else:
            checked += 1
    return mismatch is None, (lo, hi), checked, mismatch


def _tampered(rows, rng, coeff_field):
    """rows with one fault: +-1 or +-2 on any field of a row, a zeroed coefficient, two rows swapped, or two rows
    swapped along with their partners at j = 0, indices i and 2N - 1 - i, so that two whole pairs trade places."""
    rows = [list(row) for row in rows]
    i, m = rng.randrange(len(rows)), rng.randrange(len(rows))
    kind = rng.randrange(4)
    if kind == 0:
        rows[i][rng.randrange(4)] += rng.choice((-2, -1, 1, 2))
    elif kind == 1:
        rows[i][coeff_field] = 0
    else:
        rows[i], rows[m] = rows[m], rows[i]
        top = len(rows) - 2
        if kind == 3 and top >= 0 and max(i, m) <= top:
            rows[top - i], rows[top - m] = rows[top - m], rows[top - i]
    return tuple(tuple(row) for row in rows)


def test_eval_and_special_values_match_the_replaced_routes_on_tampered_tables(monkeypatch):
    rng = random.Random(4931)
    real = theta._root_terms
    tampered, differs = 0, 0
    for ell in (3, 5, 7, 13):
        for n_max in (0, 1, 2, 3, 6, 9):
            for k in (0, ell, -rng.randint(1, 2 * ell), rng.randint(1, 3 * ell)):
                rows = real(k, ell, n_max)
                for table in (rows, *(_tampered(rows, rng, 3) for _ in range(6))):
                    monkeypatch.setattr(theta, "_root_terms", lambda *_: table)
                    for j in range(-n_max - 2, n_max + 3):
                        case = (j, k, ell, n_max, table)
                        value = eval_theta_laurent(j, k, ell, n_max)
                        assert _in_order(value) == _in_order(_eval_accumulate_and_sort(j, k, ell, n_max)), case
                        if table != rows:
                            tampered += 1
                            differs += value != _eval_by_terms(j, k, ell, n_max)
                        if 1 <= j <= (ell - 1) // 2 and n_max > j and k % ell:
                            by_min = _laurent_by_min(j, k, ell, n_max)
                            assert check_theta_value_laurent(j, k, ell, n_max) == by_min, case
    # Most faults moved the evaluation.
    assert tampered >= 1000 and differs >= tampered // 2, (tampered, differs)


def test_quasi_periodicity_matches_the_tuple_loop_on_tampered_tables():
    rng = random.Random(4933)
    outcomes = []
    for n_max in (0, 1, 2, 3, 6, 9):
        for signed in (True, False):
            rows = theta_terms(n_max, signed)
            for table in (rows, *(_tampered(rows, rng, 1) for _ in range(12))):
                for j in range(-n_max - 2, n_max + 3):
                    if n_max == 0 or abs(j) > n_max:
                        with pytest.raises(DomainError):
                            _quasi_periodicity(table, j)
                        continue
                    result = _quasi_periodicity(table, j)
                    assert result == _quasi_by_tuples(table, j), (j, table)
                    outcomes.append(result[0])
    assert min(outcomes.count(True), outcomes.count(False)) >= 100


def _odd_primes(limit):
    return [n for n in range(3, limit + 1, 2) if all(n % d for d in range(3, n, 2) if d * d <= n)]


def _spied_evaluations(monkeypatch):
    """The calls the suite makes to eval_theta_laurent, as their shift j."""
    calls, real = [], theta.eval_theta_laurent
    monkeypatch.setattr(theta, "eval_theta_laurent", lambda j, *rest: calls.append(j) or real(j, *rest))
    return calls


def test_the_shortcut_matches_the_pointwise_route_at_every_small_prime(monkeypatch):
    # The shortcut reads two vertex rows per special value and no row per shift; with the proof refused, the same
    # suite compares every term pair and evaluates every shift in full.  Both must give the same results.
    primes = _odd_primes(200)
    assert (primes[0], primes[-1], len(primes)) == (3, 199, 45)
    proved = theta._proved
    for ell in primes:
        ell_star = (ell - 1) // 2
        for n_max in sorted({ell_star, ell_star + 1, 2 * ell_star}):
            j_max = min(ell_star, n_max - 1)
            monkeypatch.setattr(theta, "_proved", proved)
            calls = _spied_evaluations(monkeypatch)
            fast = check_shifts(1, ell, n_max)
            assert calls == [0], (ell, n_max)  # one base evaluation, no shifted one
            monkeypatch.setattr(theta, "_proved", lambda *_: False)
            calls = _spied_evaluations(monkeypatch)
            assert check_shifts(1, ell, n_max) == fast, (ell, n_max)
            assert calls == list(range(j_max + 1)), (ell, n_max)
            if ell <= 31:  # the test's own routes, which cost ell* * N per suite
                assert fast[1] == tuple(_quasi_by_tuples(theta_terms(n_max), j) for j in range(1, ell_star + 1))
                assert fast[2] == tuple(_laurent_by_min(j, 1, ell, n_max) for j in range(1, j_max + 1))


def test_the_shortcut_matches_the_pointwise_routes_on_tampered_tables(monkeypatch):
    # A table with one fault fails the row compare, and the whole suite takes the pointwise route; a table left
    # whole (a swap of a row with itself) keeps the shortcut.  Either way the results are the oracles'.
    rng = random.Random(4937)
    real = theta._root_terms
    outcomes, shortcuts = [], 0
    for ell in (3, 5, 7, 13):
        ell_star = (ell - 1) // 2
        for n_max in (1, 2, 3, 6, 9):
            if n_max < ell_star:
                continue
            for k in (1, rng.randint(1, ell - 1) + ell * rng.randint(-2, 2)):
                terms, rows = theta_terms(n_max), real(k, ell, n_max)
                cases = [(terms, rows)]
                cases += [(_tampered(terms, rng, 1), rows) for _ in range(6)]
                cases += [(terms, _tampered(rows, rng, 3)) for _ in range(6)]
                for table, root in cases:
                    monkeypatch.setattr(theta, "theta_terms", lambda n, signed=True: table)
                    monkeypatch.setattr(theta, "_root_terms", lambda *_: root)
                    calls = _spied_evaluations(monkeypatch)
                    _, shifts, ratios = check_shifts(k, ell, n_max)
                    case = (k, ell, n_max, table, root)
                    assert shifts == tuple(_quasi_by_tuples(table, j) for j in range(1, ell_star + 1)), case
                    j_max = min(ell_star, n_max - 1)
                    assert ratios == tuple(_laurent_by_min(j, k, ell, n_max) for j in range(1, j_max + 1)), case
                    if j_max:  # the shortcut makes the base evaluation only
                        assert (len(calls) == 1) == ((table, root) == (terms, rows)), case
                        shortcuts += len(calls) == 1
                    outcomes += [result[0] for result in shifts + ratios]
    assert shortcuts >= 20 and min(outcomes.count(True), outcomes.count(False)) >= 100, shortcuts


def _poly_at(poly, point):
    return sum(c * math.prod(x**a for x, a in zip(point, e)) for e, c in poly.items())


def test_polynomial_arithmetic_matches_evaluation_randomized():
    # A nonzero polynomial of total degree d vanishes at a point drawn from S^2 with probability at most d / |S|
    # (Schwartz, Zippel), so a wrong product, sum or sign shows at a few seeded points.
    rng = random.Random(5527)
    for _ in range(200):
        f, g = ({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-5, 5) for _ in range(rng.randint(0, 4))}
                for _ in range(2))
        f, g = (theta._Poly({e: c for e, c in h.items() if c}) for h in (f, g))
        m = rng.randint(-3, 3)
        for point in ((rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(4)):
            assert _poly_at(f * g, point) == _poly_at(f, point) * _poly_at(g, point)
            assert _poly_at(f + g, point) == _poly_at(f, point) + _poly_at(g, point)
            assert _poly_at(f - g, point) == _poly_at(f, point) - _poly_at(g, point)
            assert _poly_at(m * f, point) == m * _poly_at(f, point)
        assert all((f * g).values()) and all((f + g).values()) and all((0 * f).values()) and not 0 * f
    one, n = theta._Poly({(0, 0): 1}), theta._Poly({(1, 0): 1})
    assert theta._horner((0, 1, 1), (n,), one) == [n * n + n]
    assert theta._horner((0, 1, 1), range(-2, 3)) == [2, 0, 0, 2, 6]


def test_the_identities_are_proved_by_expansion():
    formulas = (theta._Q2, theta._U, theta._PARITY, theta._shift_sides)
    assert theta._proved(*formulas)
    dropped = lambda q2_n, u_n, q2_s, u_s, j: ((q2_n + j * u_n, u_n), (q2_s, u_s - 2 * j))  # no -j^2
    wrong = [
        ((0, 1, 1), (-1, 2), (0, 1)),  # U(n) = 2n - 1
        ((0, -1, 1), (1, 2), (0, 1)),  # 2Q(n) = n^2 - n
        ((0, 1, 1), (1, 2), (0, 1, 1)),  # parity n^2 + n: even everywhere, but no sign flip per step
        ((0, 1, 1, 0), (1, 2), (0, 1)),  # not a quadratic as written
        ((0, -1, -1), (-1, -2), (0, 1)),  # the mirror image: every identity holds, but the vertex is a maximum
    ]
    for q2, u, parity in wrong:
        assert not theta._proved(q2, u, parity, theta._shift_sides), (q2, u, parity)
    assert not theta._proved(*formulas[:3], dropped)
    assert theta._proved((0, 1, 1), (1, 2), (1, 1), theta._shift_sides)  # signs (-1)^(n+1): the series negated
