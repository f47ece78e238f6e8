"""Acceptance gate: one test per shipped guarantee, all exact.

Run with ``pytest -v tests/test_acceptance.py`` to get one visible
pass/fail line per criterion.  Every assertion here is an equality or
order comparison between Fractions and ints; there is no tolerance knob
anywhere, so a failure means the mathematics broke, not the rounding.
"""

import json
import random
from fractions import Fraction

from conftest import random_monomial

from tiltval.ansatz import frobenius_orbit, is_member, make_ansatz, valuation_profile
from tiltval.cli import main
from tiltval.loglink import PadicUnit, chain_build, m_of_epsilon, padic_log
from tiltval.pilot import (
    build_pilot,
    main_bound_check,
    size_estimate,
    sum_log_norms,
    theta_set_sample,
    threshold_ell,
    threshold_ell_by_root_analysis,
    threshold_ell_by_sweep,
)
from tiltval.theta import (
    check_inversion_antisymmetry,
    check_quasi_periodicity,
    check_theta_value_laurent,
    theta_value,
)
from tiltval.tilt import TiltElement, is_prime, tilt_mul, tilt_val
from tiltval.witt import RhoWeight, gauss_log_norm, teichmuller


def test_criterion_01_strict_bound_all_primes_5_to_97():
    primes = [ell for ell in range(5, 98) if is_prime(ell)]
    assert primes[0] == 5 and primes[-1] == 97 and len(primes) == 23
    for v_q in (Fraction(1), Fraction(3, 2), Fraction(7)):
        for ell in primes:
            report = main_bound_check(ell, v_q)
            assert report.passed and report.lhs_log < report.rhs_log, (ell, v_q)
            assert report.margin == report.rhs_log - report.lhs_log > 0
        boundary = main_bound_check(3, v_q)
        assert not boundary.passed
        assert boundary.lhs_log == boundary.rhs_log == v_q / 6
        assert boundary.margin == 0


def test_criterion_02_threshold_is_5_by_two_routes():
    assert threshold_ell_by_sweep() == 5
    assert threshold_ell_by_root_analysis() == 5
    assert threshold_ell() == 5


def test_criterion_03_theta_identities_exact_at_n12():
    inv = check_inversion_antisymmetry(12)
    assert inv.passed and inv.pairs_matched == 12 and inv.boundary_terms == 1
    control = check_inversion_antisymmetry(12, signed=False)
    assert not control.passed and control.first_mismatch is not None
    for j in range(-12, 13):
        qp = check_quasi_periodicity(j, 12)
        assert qp.passed, f"quasi-periodicity failed at j = {j}: {qp.first_mismatch}"
        assert qp.q_shift_doubled == -j * j
    for ell in (5, 7, 11):
        for j in range(1, (ell - 1) // 2 + 1):
            for k in (1, 2):
                lr = check_theta_value_laurent(j, k, ell, 12)
                assert lr.passed, (ell, j, k)
                assert lr.s_exponent_gap == lr.expected_gap == -j * j


def test_criterion_04_theta_value_exponent_scaling():
    for ell in (5, 7, 11, 13):
        base = theta_value(1, ell)
        assert base.q_exponent == Fraction(1, 2 * ell)
        for j in range(1, (ell - 1) // 2 + 1):
            tv = theta_value(j, ell)
            assert tv.q_exponent == j * j * base.q_exponent
            assert tv.sign == (-1) ** j


def test_criterion_05_valuation_profiles_square_and_frobenius_scale():
    rng = random.Random(101)
    built = 0
    while built < 200:
        p = rng.choice((2, 3, 7))
        ell = rng.choice((5, 7, 11))
        if ell == p:
            continue
        built += 1
        point = make_ansatz(random_monomial(rng, p), ell)
        profile = valuation_profile(point)
        e1 = profile[0]
        assert e1 == tilt_val(point.a).as_fraction()
        for j in range(1, point.ell_star + 1):
            assert profile[j - 1] == j * j * e1
        n = rng.choice((-2, -1, 1, 2, 3))
        shifted = frobenius_orbit(point, (n, n))[0]
        assert valuation_profile(shifted) == tuple(e * Fraction(p) ** n for e in profile)


def test_criterion_06_ansatz_orbits_stay_members_and_fakes_fail():
    rng = random.Random(103)
    generators = [
        make_ansatz(TiltElement.monomial(2, Fraction(1, 4)), 5),
        make_ansatz(TiltElement.monomial(3, Fraction(5, 9)), 7),
        make_ansatz(TiltElement.monomial(7, Fraction(2)), 11),
        make_ansatz(TiltElement.from_terms(3, {Fraction(1): 1, Fraction(2): 2}), 7),
    ]
    for point in generators:
        for orbit_point in frobenius_orbit(point, (-3, 3)):
            assert is_member(orbit_point.members)
    rejected = 0
    while rejected < 100:
        p = rng.choice((2, 3, 7))
        ell = rng.choice((5, 7, 11))
        if ell == p:
            continue
        point = make_ansatz(random_monomial(rng, p), ell)
        members = list(point.members)
        j = rng.randrange(1, len(members))
        exponent = members[j].a.support()[0]
        bump = Fraction(rng.randint(1, 5), p ** rng.randint(0, 2))
        members[j] = type(members[j])(TiltElement.monomial(p, exponent + bump))
        assert not is_member(tuple(members))
        rejected += 1


def test_criterion_07_gauss_norm_multiplicative_and_boundary_cap():
    rng = random.Random(107)
    for _ in range(500):
        p = rng.choice((2, 3, 5, 7))
        a = random_monomial(rng, p)
        b = random_monomial(rng, p)
        rho = RhoWeight.of(Fraction(rng.randint(1, 12), rng.randint(1, 12)))
        na = gauss_log_norm(teichmuller(a), rho)
        nb = gauss_log_norm(teichmuller(b), rho)
        assert gauss_log_norm(teichmuller(tilt_mul(a, b)), rho) == na + nb
        assert gauss_log_norm(teichmuller(a), RhoWeight.one()) == na  # slot-zero terms
    # additive form of the unit-ball cap: no sampled lift goes negative
    for p, ell, depth in ((2, 5, 3), (3, 7, 2), (2, 7, 2)):
        point = make_ansatz(TiltElement.monomial(p, Fraction(1)), ell)
        sample = theta_set_sample([point], Fraction(1, 2 * ell), depth)
        for pilot in sample.tuples:
            assert all(e >= 0 for e in pilot.lifts)
        assert size_estimate(sample, RhoWeight.one()) >= 0


def test_criterion_08_pilot_sum_closed_form():
    rng = random.Random(109)
    for ell in (3, 5, 7, 11, 13, 17, 19, 23):
        ls = (ell - 1) // 2
        point = make_ansatz(TiltElement.monomial(2, Fraction(1)), ell)
        for _ in range(40):
            e1 = Fraction(rng.randint(1, 99), rng.randint(1, 99))
            total = sum_log_norms(build_pilot(point, e1), RhoWeight.of(1))
            assert total == e1 * Fraction(ls * (ls + 1) * (2 * ls + 1), 6)


def test_criterion_09_loglink_chains_epsilon_and_log_rules():
    rng = random.Random(113)
    for p in (2, 3, 5, 7):
        v0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        chain = chain_build(p, v0, (-4, 4))  # width 9
        assert len(chain.entries) == 9
        for n in range(-4, 4):
            assert chain.value_at(n + 1) == p * chain.value_at(n)
    for _ in range(50):
        p = rng.choice((2, 3, 5, 7))
        eps = Fraction(rng.randint(1, 500), rng.randint(501, 5000))
        m = m_of_epsilon(p, eps)
        assert Fraction(1, p**m) < eps
        assert m == 0 or Fraction(1, p ** (m - 1)) >= eps
    for p, precision in ((3, 12), (5, 12), (2, 14)):
        modulus = p**precision
        for _ in range(500):
            u = PadicUnit.random(rng, p, precision)
            w = PadicUnit.random(rng, p, precision)
            log_u = padic_log(u)
            assert (padic_log(u.mul(w)) - log_u - padic_log(w)) % modulus == 0
            assert (padic_log(u.pow(p)) - p * log_u) % modulus == 0


def test_criterion_10_json_reports_are_byte_identical(tmp_path, capsys):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["all", "--format", "json", "--output", str(first)]) == 0
    assert main(["all", "--format", "json", "--output", str(second)]) == 0
    capsys.readouterr()
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    assert json.loads(blob)["overall"] == "pass"
