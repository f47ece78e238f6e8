"""Pilot tuples, size functionals, and the strict inequality engine."""

import inspect
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from conftest import assert_immutable_value, random_monomial

from tiltval import pilot
from tiltval.ansatz import frobenius_orbit, make_ansatz
from tiltval.errors import DomainError, VerificationError
from tiltval.pilot import (
    PilotTuple,
    _odd_primes_upto,
    _pilot_sort_key,
    build_pilot,
    corollary_c_check,
    main_bound_check,
    main_bound_sweep,
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


_WRONG_TYPES = {  # each is bad input (DomainError), not an AttributeError
    "pilot_of_none": lambda: PilotTuple(None, Fraction(1), (Fraction(1, 4), Fraction(1))),
    "pilot_of_a_generator": lambda: PilotTuple(_point().a, Fraction(1), (Fraction(1, 4), Fraction(1))),
    "build_of_none": lambda: build_pilot(None, Fraction(1)),
    "sample_of_none": lambda: theta_set_sample([None], Fraction(1), 0),
}


@pytest.mark.parametrize("probe", _WRONG_TYPES.values(), ids=_WRONG_TYPES.keys())
def test_a_wrong_typed_point_is_a_domain_error(probe):
    with pytest.raises(DomainError):
        probe()


def test_pilot_square_law_reverified():
    point = _point()  # v(a) = 1/4 at ell = 5: xi = 1 lifts to (1/4, 1)
    assert PilotTuple(ansatz=point, xi_val_K1=Fraction(1), lifts=(Fraction(1, 4), Fraction(1))) == build_pilot(
        point, Fraction(1)
    )
    with pytest.raises(DomainError):
        PilotTuple(ansatz=point, xi_val_K1=Fraction(1), lifts=(Fraction(1, 4), Fraction(1, 2)))
    with pytest.raises(DomainError, match=r"^lifts must be \(Fraction"):
        PilotTuple(ansatz=point, xi_val_K1=Fraction(1), lifts=(Fraction(1, 4), Fraction(5, 4)))
    for lifts in ((Fraction(0), Fraction(0)), (Fraction(-1, 4), Fraction(-1)), (Fraction(1, 4), Fraction(-1))):
        with pytest.raises(DomainError, match=r"^lifts must be \(Fraction"):
            PilotTuple(ansatz=point, xi_val_K1=Fraction(1), lifts=lifts)
    # On the square law, but not xi * v(a) * j^2: a lift must match its xi and its point, not only e_1.
    for xi, lifts in ((Fraction(1), (Fraction(7), Fraction(28))), (Fraction(2), (Fraction(1, 4), Fraction(1)))):
        with pytest.raises(DomainError, match=r"^lifts must be \(Fraction"):
            PilotTuple(ansatz=point, xi_val_K1=xi, lifts=lifts)
    # 0.25 == Fraction(1, 4), so a float lift is refused by its type; a list would leave the pilot unhashable.
    for lifts in ((Fraction(1, 4), 1.0), (Fraction(1, 4), -1.0), (0.25, Fraction(1)), [Fraction(1, 4), Fraction(1)]):
        with pytest.raises(DomainError, match=r"^lifts must be \(Fraction"):
            PilotTuple(ansatz=point, xi_val_K1=Fraction(1), lifts=lifts)


def test_sum_log_norms_catches_a_lift_off_by_one_over_its_denominator():
    rng = random.Random(3061)
    rho = RhoWeight.of(1)
    for _ in range(30):
        point = make_ansatz(random_monomial(rng, 3), rng.choice((5, 7, 11)))
        good = build_pilot(point, Fraction(rng.randint(1, 30), rng.randint(1, 30)))
        assert sum_log_norms(PilotTuple._trusted(*good._values()), rho) == sum(good.lifts, Fraction(0))
        k = rng.randrange(point.ell_star)
        shift = Fraction(rng.choice((-1, 1)), good.lifts[0].denominator)
        lifts = good.lifts[:k] + (good.lifts[k] + shift,) + good.lifts[k + 1 :]
        with pytest.raises(VerificationError, match="square-sum identity"):
            sum_log_norms(PilotTuple._trusted(point, good.xi_val_K1, lifts), rho)


def test_sample_checks_the_lift_scaling_of_each_orbit_step(monkeypatch):
    real = pilot.build_pilot
    calls = []

    def drifting(point, xi_val):
        # Doubles xi from the second orbit point on, so that step scales the lifts by 2p, not p.
        calls.append(point)
        return real(point, xi_val * (2 if len(calls) > 1 else 1))

    monkeypatch.setattr(pilot, "build_pilot", drifting)
    with pytest.raises(VerificationError, match="lifts at orbit point -1 are not 2 times those at -2"):
        theta_set_sample([_point()], Fraction(1, 10), 2)


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
    assert len(sample) == 4
    solo = theta_set_sample([base], Fraction(1, 10), 0)
    assert len(solo) == 1
    again = theta_set_sample([base, shifted], Fraction(1, 10), 1)
    assert again == sample  # deterministic order


def _sample_by_set(generators, xi_val, depth):
    """The set route: every orbit pilot into a set, then sorted."""
    seen = {build_pilot(o, xi_val) for g in generators for o in frobenius_orbit(g, (-depth, depth))}
    return tuple(sorted(seen, key=_pilot_sort_key))


def test_sample_dedup_matches_the_set_route():
    rng = random.Random(4421)
    for _ in range(25):
        p, ell = rng.choice(((2, 5), (3, 5), (2, 7), (5, 7)))
        generators = [make_ansatz(random_monomial(rng, p), ell) for _ in range(rng.randint(2, 4))]
        # phi-shifted copies overlap the orbits of the generators they twist; a repeat overlaps all of its own
        shifted = [frobenius_orbit(g, (n, n))[0] for g, n in zip(generators, (1, -1))]
        generators += [*shifted, generators[0]]
        xi, depth = Fraction(rng.randint(1, 9), rng.randint(1, 9)), rng.randint(0, 4)
        sample = theta_set_sample(generators, xi, depth)
        assert sample == _sample_by_set(generators, xi, depth)
        assert len(sample) <= (len(generators) - 1) * (2 * depth + 1) - 4 * depth
    # At p = 2 the orbit's exponents 2^n e hash alike with period 61 in n.
    point = _point()
    assert theta_set_sample([point], Fraction(1, 10), 70) == _sample_by_set([point], Fraction(1, 10), 70)


def test_sample_scaling_along_orbit():
    sample = theta_set_sample([_point()], Fraction(1, 10), 2)
    sums = [sum_log_norms(t, RhoWeight.of(1)) for t in sample]
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
    with pytest.raises(DomainError):
        size_estimate((), RhoWeight.of(1))


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
        report = main_bound_check(ell, Fraction(2, 3))
        by_label = {label: ok for label, _, ok in report.steps}
        for label in ("square_sum_closed_form", "lhs_closed_form", "rhs_ratio_form", "margin_factored"):
            assert by_label[label], (ell, label)
        assert report.passed == (ell >= 5)


def _lhs_by_fractions(ell, v_q):
    ls = (ell - 1) // 2
    return sum((Fraction(j * j, ls * ls * 2 * ell) for j in range(1, ls + 1)), Fraction(0)) * v_q


def test_lhs_termwise_matches_fraction_sum():
    for ell in range(3, 201, 2):
        if not is_prime(ell):
            continue
        for v_q in (Fraction(1), Fraction(7, 3)):
            expected = _lhs_by_fractions(ell, v_q)
            report = main_bound_check(ell, v_q)
            steps = {label: value for label, value, _ in report.steps}
            assert steps["lhs_termwise"] == expected, ell
            assert report.lhs_log == expected, ell


def _sweep_by_bound_checks(primes, v_q):
    """The per-ell main_bound_check loop: failures, primes checked, last margin."""
    reports = [main_bound_check(ell, v_q) for ell in primes]
    failures = tuple(report.ell for report in reports if not report.passed)
    return failures, len(reports), reports[-1].margin if reports else None


def test_bound_sweep_matches_the_per_prime_checks():
    rng = random.Random(6047)
    top = 3000
    limits = sorted({4, 5, 6, 7, top, *(rng.randrange(5, top + 1) for _ in range(10))})
    primes = [ell for ell in range(5, top + 1, 2) if is_prime(ell)]
    for v_q in (Fraction(1), Fraction(7, 3)):
        for limit in limits:
            failures, checked, last = main_bound_sweep(limit)
            margin = main_bound_check(last, v_q).margin if last is not None else None
            expected = _sweep_by_bound_checks([ell for ell in primes if ell <= limit], v_q)
            assert (failures, checked, margin) == expected, (limit, v_q)
    assert main_bound_sweep(4) == ((), 0, None)


def test_sieved_primes_match_trial_division_at_every_limit():
    # Every limit up to 2,000; past it, each limit within 2 of an odd square d^2, where isqrt(limit) steps
    # and d's marking starts; and the largest limit.
    near_squares = {d * d + step for d in range(1, 142, 2) for step in range(-2, 3)}
    limits = sorted({*range(-1, 2_001), *near_squares, 20_000})
    assert len(limits) == 2_248 and limits[-2] == 141 * 141 + 2
    odd_primes = [n for n in range(3, 20_001, 2) if is_prime(n)]
    for start in (3, 5, 7):
        primes = odd_primes[odd_primes.index(start) :]
        for limit in limits:
            assert list(_odd_primes_upto(limit, start)) == primes[: bisect_right(primes, limit)], (limit, start)


def test_bound_sweep_reports_a_failing_prime(monkeypatch):
    # A walk from 3 meets the equality prime, where the strict bound fails.
    monkeypatch.setattr(pilot, "_odd_primes_upto", lambda limit, start: _odd_primes_upto(limit))
    failures, checked, last = main_bound_sweep(100)
    assert (failures, checked, last) == ((3,), 24, 97)
    assert _sweep_by_bound_checks(list(_odd_primes_upto(100)), Fraction(7, 3))[:2] == (failures, checked)


def test_bound_sweep_catches_a_skipped_square():
    source = inspect.getsource(main_bound_sweep)
    faulty = source.replace("square_sum += j * j", "square_sum += j * j * (j != 10)")
    assert faulty != source
    namespace = dict(vars(pilot))
    exec(compile(faulty, pilot.__file__, "exec"), namespace)
    with pytest.raises(VerificationError, match="lhs routes disagree at ell = 23"):
        namespace["main_bound_sweep"](100)
    assert main_bound_sweep(100) == ((), 23, 97)


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
    report = main_bound_check(5, Fraction(1))
    assert corollary_c_check(report, Fraction(1, 2))
    assert not corollary_c_check(report, Fraction(1))
    assert not corollary_c_check(report, Fraction(2))
    with pytest.raises(DomainError):
        corollary_c_check(main_bound_check(3, Fraction(1)), Fraction(1, 2))  # bound not established
    with pytest.raises(DomainError):
        corollary_c_check(report, Fraction(0))


def test_corollary_c_check_refuses_the_equality_report():
    # At ell = 3 the two sides are equal, so the strict bound the corollary needs fails,
    # whatever v_q and whichever c is asked.
    for v_q in (Fraction(1), Fraction(7, 3)):
        report = main_bound_check(3, v_q)
        assert not report.passed and report.margin == 0
        for c in (Fraction(1, 2), Fraction(1), Fraction(2)):
            with pytest.raises(DomainError, match="bound not established at ell = 3"):
                corollary_c_check(report, c)


def test_pilot_sums_track_random_generators():
    rng = random.Random(59)
    rho = RhoWeight.of(1)
    for _ in range(50):
        p, ell = rng.choice(((2, 5), (3, 5), (2, 7)))
        point = make_ansatz(random_monomial(rng, p), ell)
        xi = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        pilot = build_pilot(point, xi)
        assert pilot.lifts[0] > 0
        # Oracles: e1 * j * j per lift, and the Fraction sum of the lifts.
        e1 = xi * point.a.terms[0][0]
        assert pilot.lifts == tuple(e1 * j * j for j in range(1, point.ell_star + 1))
        assert sum_log_norms(pilot, rho) == sum(pilot.lifts, Fraction(0))


def test_records_are_immutable_values():
    point = _point()
    assert_immutable_value(lambda: build_pilot(point, Fraction(1, 5)))
    assert_immutable_value(lambda: main_bound_check(7, Fraction(2)))
