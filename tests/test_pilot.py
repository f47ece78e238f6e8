"""Pilot tuples, size functionals, and the strict inequality engine."""

import random
from fractions import Fraction

import pytest
from conftest import assert_immutable_value, random_monomial

from tiltval.ansatz import frobenius_orbit, make_ansatz
from tiltval.errors import DomainError, VerificationError
from tiltval.pilot import (
    PilotTuple,
    _lhs_termwise,
    ThetaSetSample,
    build_pilot,
    corollary_c_check,
    main_bound_check,
    main_bound_derivation,
    size_estimate,
    sum_log_norms,
    theta_set_sample,
    threshold_ell,
    threshold_ell_by_root_analysis,
    threshold_ell_by_sweep,
)
from tiltval.tilt import TiltElement, is_prime
from tiltval.witt import RhoWeight


def _point(p=2, exponent=Fraction(1, 4), ell=5):
    return make_ansatz(TiltElement.monomial(p, exponent), ell)


def test_build_pilot_frozen():
    pilot = build_pilot(_point(), Fraction(1, 10))
    assert pilot.lifts == (Fraction(1, 40), Fraction(1, 10))
    with pytest.raises(DomainError):
        build_pilot(_point(), Fraction(0))
    with pytest.raises(DomainError):
        build_pilot(_point(), Fraction(-1, 3))


def test_pilot_square_law_reverified():
    point = _point()
    with pytest.raises(DomainError):
        PilotTuple(ansatz=point, xi_val_K1=Fraction(1), lifts=(Fraction(1, 4), Fraction(1, 2)))


def test_sum_log_norms_frozen():
    rho = RhoWeight.of(1)
    assert sum_log_norms(build_pilot(_point(2, Fraction(1), 5), Fraction(1)), rho) == 5
    assert sum_log_norms(build_pilot(_point(2, Fraction(1), 7), Fraction(1, 9)), rho) == Fraction(14, 9)
    assert sum_log_norms(build_pilot(_point(2, Fraction(1), 3), Fraction(2, 7)), rho) == Fraction(2, 7)


def test_sum_log_norms_closed_form_randomized():
    rng = random.Random(19)
    rho = RhoWeight.of(1)
    for ell in (3, 5, 7, 11, 13, 17, 19, 23):
        ls = (ell - 1) // 2
        for _ in range(40):
            e1 = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            point = make_ansatz(TiltElement.monomial(2, Fraction(1)), ell)
            pilot = build_pilot(point, e1)  # v(a) = 1, so e_1 = xi
            expected = e1 * ls * (ls + 1) * (2 * ls + 1) / 6
            assert sum_log_norms(pilot, rho) == expected
            assert sum(j * j * e1 for j in range(1, ls + 1)) == expected


def test_sample_orbit_union_dedups():
    base = _point()
    shifted = make_ansatz(TiltElement.monomial(2, Fraction(1, 2)), 5)  # phi(base)
    sample = theta_set_sample([base, shifted], Fraction(1, 10), 1)
    # orbits {-1,0,1} around both generators overlap in two points
    assert len(sample.tuples) == 4
    solo = theta_set_sample([base], Fraction(1, 10), 0)
    assert len(solo.tuples) == 1
    again = theta_set_sample([base, shifted], Fraction(1, 10), 1)
    assert again.tuples == sample.tuples  # deterministic order


def test_sample_scaling_along_orbit():
    sample = theta_set_sample([_point()], Fraction(1, 10), 2)
    sums = [sum_log_norms(t, RhoWeight.of(1)) for t in sample.tuples]
    assert sums == sorted(sums)
    assert sums[0] * 16 == sums[-1]  # p^(2 depth) spread


def test_sample_checks_each_orbit_step(monkeypatch):
    def swapped(point, window):
        orbit = list(frobenius_orbit(point, window))
        orbit[0], orbit[1] = orbit[1], orbit[0]
        return tuple(orbit)

    monkeypatch.setattr("tiltval.pilot.frobenius_orbit", swapped)
    with pytest.raises(VerificationError):
        theta_set_sample([_point()], Fraction(1, 10), 1)


def test_sample_validation():
    with pytest.raises(DomainError):
        theta_set_sample([], Fraction(1), 1)
    with pytest.raises(DomainError):
        theta_set_sample([_point()], Fraction(1), -1)


def test_size_estimate_frozen():
    sample = theta_set_sample([_point()], Fraction(1, 10), 2)
    assert size_estimate(sample, RhoWeight.of(1)) == Fraction(1, 32)
    assert size_estimate(sample, RhoWeight.one()) == Fraction(1, 32)
    empty = ThetaSetSample(generators=(), frobenius_depth=0, tuples=())
    with pytest.raises(DomainError):
        size_estimate(empty, RhoWeight.of(1))


def test_main_bound_frozen_values():
    report = main_bound_check(5, Fraction(1))
    assert (report.lhs_log, report.rhs_log) == (Fraction(1, 8), Fraction(1, 5))
    assert report.margin == Fraction(3, 40)
    assert report.passed

    equality = main_bound_check(3, Fraction(1))
    assert equality.lhs_log == equality.rhs_log == Fraction(1, 6)
    assert equality.margin == 0
    assert not equality.passed

    assert main_bound_check(7, Fraction(1)).margin == Fraction(13, 126)


def test_main_bound_scales_linearly_in_v_q():
    for v_q in (Fraction(3, 2), Fraction(7)):
        report = main_bound_check(5, v_q)
        assert report.lhs_log == Fraction(1, 8) * v_q
        assert report.rhs_log == Fraction(1, 5) * v_q
        assert report.passed
        assert not main_bound_check(3, v_q).passed


def test_main_bound_validation():
    with pytest.raises(DomainError):
        main_bound_check(2, Fraction(1))
    with pytest.raises(DomainError):
        main_bound_check(15, Fraction(1))
    with pytest.raises(DomainError):
        main_bound_check(5, Fraction(0))
    with pytest.raises(DomainError):
        main_bound_check(5, 0.25)  # floats are not rationals here


def test_derivation_steps_all_check_out():
    for ell in (3, 5, 7, 11, 13, 31, 53):
        steps = main_bound_derivation(ell, Fraction(2, 3))
        by_label = {step.label: step for step in steps}
        for label in ("square_sum_closed_form", "lhs_closed_form", "rhs_ratio_form", "margin_factored"):
            assert by_label[label].ok, (ell, label)
        assert by_label["strict_inequality"].ok == (ell >= 5)


def _lhs_by_fractions(ell, v_q):
    ls = (ell - 1) // 2
    return sum((Fraction(j * j, ls * ls * 2 * ell) for j in range(1, ls + 1)), Fraction(0)) * v_q


def test_lhs_termwise_matches_fraction_sum():
    for ell in range(3, 201, 2):
        if not is_prime(ell):
            continue
        for v_q in (Fraction(1), Fraction(7, 3)):
            expected = _lhs_by_fractions(ell, v_q)
            assert _lhs_termwise(ell, v_q) == expected, ell
            steps = {step.label: step for step in main_bound_derivation(ell, v_q)}
            assert steps["lhs_termwise"].value == expected, ell
            assert main_bound_check(ell, v_q).lhs_log == expected, ell


def test_threshold_routes():
    assert threshold_ell_by_sweep() == 5
    assert threshold_ell_by_root_analysis() == 5
    assert threshold_ell() == 5
    assert threshold_ell(5) == 5
    with pytest.raises(VerificationError):
        threshold_ell(4)  # the limit reaches both routes
    with pytest.raises(VerificationError):
        threshold_ell_by_sweep(limit=4)  # only ell = 3 in range, which fails


def test_corollary_c_check():
    assert corollary_c_check(5, Fraction(1), Fraction(1, 2))
    assert not corollary_c_check(5, Fraction(1), Fraction(1))
    assert not corollary_c_check(5, Fraction(1), Fraction(2))
    with pytest.raises(DomainError):
        corollary_c_check(3, Fraction(1), Fraction(1, 2))  # bound not established
    with pytest.raises(DomainError):
        corollary_c_check(5, Fraction(1), Fraction(0))


def test_pilot_sums_track_random_generators():
    rng = random.Random(59)
    rho = RhoWeight.of(1)
    for _ in range(50):
        p, ell = rng.choice(((2, 5), (3, 5), (2, 7)))
        point = make_ansatz(random_monomial(rng, p), ell)
        xi = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        pilot = build_pilot(point, xi)
        assert pilot.lifts[0] > 0
        assert sum_log_norms(pilot, rho) == sum(pilot.lifts)


def test_records_are_immutable_values():
    point = _point()
    assert_immutable_value(lambda: build_pilot(point, Fraction(1, 5)))
    assert_immutable_value(lambda: theta_set_sample([point], Fraction(1, 5), 1))
    assert_immutable_value(lambda: main_bound_derivation(7, Fraction(2))[0])
    assert_immutable_value(lambda: main_bound_check(7, Fraction(2)))
