"""Theta truncations: identity checks against independent polynomial routes."""

import random
from fractions import Fraction

import pytest
from conftest import assert_immutable_value

from tiltval.errors import DomainError, WindowError
from tiltval.theta import (
    CycloElt,
    ThetaTerm,
    check_inversion_antisymmetry,
    check_quasi_periodicity,
    check_quasi_periodicity_upto,
    check_theta_value_laurent,
    check_theta_value_laurent_upto,
    eval_theta_laurent,
    theta_terms,
    theta_value,
    zeta_ell_pow,
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


def _root_pow_by_reduction(ell, k):
    """x^k through the full reduction cascade of a length k + 1 list."""
    return CycloElt(ell, _reduce_mod_cyclo(ell, [0] * (k % (2 * ell)) + [1]))


def _eval_by_ring_ops(j, k, ell, n_max, signed=True):
    """The truncated evaluation as {s: CycloElt}, one ring element per term summed in the ring."""
    acc = {}
    for n in range(-n_max, n_max + 1):
        s_exp = n * (n + 1) + j * (2 * n + 1)
        coeff = _root_pow_by_reduction(ell, 2 * k * (2 * n + 1))
        if signed and n % 2:
            coeff = -coeff
        acc[s_exp] = acc[s_exp] + coeff if s_exp in acc else coeff
    return {s_exp: c for s_exp, c in acc.items() if not c.is_zero}


def _coeff_table(n_max, signed=True):
    """u-exponent -> (sign, q-exponent), built without the library descriptors."""
    table = {}
    for n in range(-n_max, n_max + 1):
        sign = -1 if (signed and n % 2) else 1
        table[2 * n + 1] = (sign, n * (n + 1) // 2)
    return table


def test_terms_frozen_small_window():
    series = theta_terms(1)
    assert [(t.n, t.sign, t.q_exp, t.u_exp) for t in series.terms] == [
        (-1, -1, 0, -1),
        (0, 1, 0, 1),
        (1, -1, 1, 3),
    ]
    only = theta_terms(0).terms
    assert len(only) == 1 and (only[0].sign, only[0].q_exp, only[0].u_exp) == (1, 0, 1)


def test_terms_count_and_window_access():
    series = theta_terms(6)
    assert len(series.terms) == 13
    assert series.term_at(-6).u_exp == -11
    with pytest.raises(WindowError):
        series.term_at(7)
    with pytest.raises(DomainError):
        theta_terms(-1)


def test_term_descriptor_validation():
    with pytest.raises(DomainError):
        ThetaTerm(n=1, sign=-1, q_exp=0, u_exp=3)  # q-exponent off by one
    with pytest.raises(DomainError):
        ThetaTerm(n=1, sign=-1, q_exp=1, u_exp=2)  # even u-exponent
    with pytest.raises(DomainError):
        ThetaTerm(n=1, sign=2, q_exp=1, u_exp=3)


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
        outcome = check_inversion_antisymmetry(n_max)
        assert outcome.passed
        assert outcome.pairs_matched == n_max
        assert outcome.boundary_terms == 1
        assert outcome.pairs_cancel_at_one


def test_inversion_unsigned_control_fails():
    outcome = check_inversion_antisymmetry(12, signed=False)
    assert not outcome.passed
    assert not outcome.pairs_cancel_at_one
    assert "sign" in outcome.first_mismatch
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
        outcome = check_quasi_periodicity(j, n_max)
        assert outcome.passed
        assert outcome.terms_checked == 2 * (n_max - abs(j)) + 1
        assert outcome.q_shift_doubled == -j * j


def test_quasi_periodicity_frozen_window():
    outcome = check_quasi_periodicity(1, 4)
    assert (outcome.overlap_lo, outcome.overlap_hi) == (-3, 3)
    assert outcome.terms_checked == 7
    assert check_quasi_periodicity(0, 5).passed
    with pytest.raises(WindowError):
        check_quasi_periodicity(6, 5)


def test_quasi_periodicity_unsigned_control():
    # Without signs the exponent bookkeeping still matches for even j but the
    # (-1)^j factor breaks every odd shift.
    assert check_quasi_periodicity(2, 8, signed=False).passed
    outcome = check_quasi_periodicity(1, 8, signed=False)
    assert not outcome.passed
    assert "sign" in outcome.first_mismatch or "(2q" in outcome.first_mismatch


def test_cyclotomic_ring_structure():
    ell = 5
    x = CycloElt.root_pow
    assert x(ell, 2 * ell) == CycloElt.one(ell)
    assert x(ell, ell) == -CycloElt.one(ell)
    # Phi_10 reduction: x^4 = x^3 - x^2 + x - 1.
    assert x(ell, 4).coeffs == (-1, 1, -1, 1)
    rng = random.Random(13)
    for _ in range(60):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        assert zeta_ell_pow(ell, a) * zeta_ell_pow(ell, b) == zeta_ell_pow(ell, a + b)
    assert zeta_ell_pow(ell, ell) == CycloElt.one(ell)
    with pytest.raises(DomainError):
        CycloElt(9, (0,) * 8)
    with pytest.raises(DomainError):
        CycloElt(5, (1, 0))


def test_records_are_immutable_values():
    ell = 7
    assert_immutable_value(lambda: zeta_ell_pow(ell, 3))
    assert_immutable_value(lambda: ThetaTerm(n=-2, sign=1, q_exp=1, u_exp=-3))
    assert_immutable_value(lambda: theta_terms(3))
    assert_immutable_value(lambda: check_inversion_antisymmetry(4))
    assert_immutable_value(lambda: check_quasi_periodicity(2, 4))
    assert_immutable_value(lambda: theta_value(2, ell))
    assert_immutable_value(lambda: check_theta_value_laurent(1, 1, ell, 4))
    assert ThetaTerm(0, 1, 0, 1) == theta_terms(0).terms[0]


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
    assert CycloElt.from_root_pows(ell, base[0]) == zeta_ell_pow(ell, 1) - zeta_ell_pow(ell, -1)
    shifted = eval_theta_laurent(1, 1, ell, 6)
    assert next(iter(shifted.items())) == (-1, {3: 1, 4: 1})
    expected = -zeta_ell_pow(ell, -1) + zeta_ell_pow(ell, -3)
    assert CycloElt.from_root_pows(ell, shifted[-1]) == expected


def test_theta_value_frozen():
    tv1 = theta_value(1, 5)
    assert (tv1.sign, tv1.q_exponent, tv1.zeta_exponent) == (-1, Fraction(1, 10), 2)
    assert (tv1.inverse_q_exponent, tv1.inverse_zeta_exponent) == (Fraction(-1, 10), 3)
    assert tv1.zeta_part() == -zeta_ell_pow(5, 2)
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
                outcome = check_theta_value_laurent(j, k, ell, n_max=8)
                assert outcome.passed
                assert outcome.s_exponent_gap == -j * j
                assert outcome.coeff_relation_holds


def test_laurent_ratio_guards():
    with pytest.raises(WindowError):
        check_theta_value_laurent(2, 1, 5, n_max=2)  # lowest index -3 not in window
    with pytest.raises(DomainError):
        check_theta_value_laurent(1, 5, 5, n_max=6)  # k = 0 mod ell degenerates
    with pytest.raises(DomainError):
        eval_theta_laurent(0, 1, 9, 4)


def test_root_power_shift_matches_ring_product_randomized():
    # The check shifts root powers where the ring route multiplies by zeta^m:
    # zeta^m * sum c x^e = sum c x^(e + 2m).  CycloElt.__mul__ is the oracle.
    rng = random.Random(7321)
    for _ in range(80):
        ell = rng.choice((3, 5, 7, 11, 13, 59, 211))
        j = rng.randint(1, (ell - 1) // 2)
        k = rng.randint(1, ell - 1) * rng.choice((1, -1)) + ell * rng.randint(-2, 2)
        n_max = rng.randint(j + 1, j + 1 + ell)
        tv = theta_value(j, ell)
        base = eval_theta_laurent(0, k, ell, n_max)
        base_coeff = base[min(base)]
        base_c = CycloElt.from_root_pows(ell, base_coeff)
        m = k * tv.inverse_zeta_exponent
        by_shift = CycloElt.from_root_pows(ell, {e + 2 * m: tv.sign * c for e, c in base_coeff.items()})
        by_product = tv.sign * (zeta_ell_pow(ell, m) * base_c)
        case = (ell, j, k, n_max)
        assert by_shift == by_product, case
        for off in (1, rng.randint(2, ell - 1)):
            moved = CycloElt.from_root_pows(ell, {e + 2 * (m + off): c for e, c in base_coeff.items()})
            assert moved == zeta_ell_pow(ell, m + off) * base_c, case
            assert moved != tv.sign * by_product, case
        shifted = eval_theta_laurent(j, k, ell, n_max)
        lo_c = CycloElt.from_root_pows(ell, shifted[min(shifted)])
        outcome = check_theta_value_laurent(j, k, ell, n_max)
        assert outcome.coeff_relation_holds == (lo_c == by_product), case


@pytest.mark.parametrize("ell", (5, 59, 211))
def test_suite_batches_match_the_per_step_checks(ell):
    # One descriptor table and one base evaluation must give the same records
    # as the public per-step checks, which rebuild both for every j.
    ell_star = (ell - 1) // 2
    for n_max in (ell_star, ell_star + 3):
        j_max = min(ell_star, n_max)
        per_step = tuple(check_quasi_periodicity(j, n_max) for j in range(1, j_max + 1))
        assert check_quasi_periodicity_upto(j_max, n_max) == per_step
        for k in (1, ell - 2):
            j_max = min(ell_star, n_max - 1)
            per_step = tuple(check_theta_value_laurent(j, k, ell, n_max) for j in range(1, j_max + 1))
            assert check_theta_value_laurent_upto(j_max, k, ell, n_max) == per_step
    assert check_quasi_periodicity_upto(0, 4) == ()
    assert check_theta_value_laurent_upto(0, 1, ell, 1) == ()
    with pytest.raises(WindowError):
        check_theta_value_laurent_upto(ell_star, 1, ell, ell_star)  # j = ell* needs n_max >= ell* + 1


def test_eval_matches_ring_ops_randomized():
    rng = random.Random(4409)
    primes = [ell for ell in range(3, 114, 2) if all(ell % d for d in range(3, ell, 2))]
    assert primes[0] == 3 and primes[-1] == 113
    for ell in primes:
        for k in range(-2 * ell, 2 * ell + 1):
            assert CycloElt.root_pow(ell, k) == _root_pow_by_reduction(ell, k), (ell, k)
        ell_star = (ell - 1) // 2
        for _ in range(5):
            j = rng.randint(0, ell_star)
            k = rng.choice((0, ell, -ell, rng.randint(-3 * ell, 3 * ell)))
            n_max = rng.randint(0, 2 * ell)
            signed = rng.random() < 0.5
            value = eval_theta_laurent(j, k, ell, n_max, signed)
            case = (j, k, ell, n_max, signed)
            assert list(value) == sorted(value), case
            for coeff in value.values():
                assert 1 <= len(coeff) <= 2 and all(c and 0 <= e < ell for e, c in coeff.items()), case
            as_ring = {s_exp: CycloElt.from_root_pows(ell, coeff) for s_exp, coeff in value.items()}
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
            expected = CycloElt(ell, _reduce_mod_cyclo(ell, prod))
            assert CycloElt(ell, a) * CycloElt(ell, b) == expected, (ell, a, b)
            assert CycloElt(ell, b) * CycloElt(ell, a) == expected, (ell, a, b)
