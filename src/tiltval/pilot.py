"""Lifted tuples, their size functionals, and the strict inequality engine.

A pilot tuple lifts an ansatz point to characteristic zero bookkeeping:
the j-th member gets the additive log-norm e_j = xi * v(a) * j^2, where
xi is the positive valuation assigned to the first theta multiplier in
the reference gauge and v(a) converts to tilt units.  All sizes are sums
of the e_j; the supremum of norm products in multiplicative language is
the infimum of these sums here.

The inequality engine compares the two sides of the size bound in exact
rational arithmetic:

    lhs = (1/12) (1 + 1/ell*) v_q      (average of j^2/(ell*^2 2ell) terms)
    rhs = (1/4) (1 - 1/ell) v_q        (= ell*/(2 ell) v_q)

and passes only on strict inequality.  The margin factors as
(2 ell - 1)(ell - 3) v_q / (12 ell (ell - 1)), which is the second,
independent route to the threshold: the first odd prime past the root at
ell = 3.  Both routes must agree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import isqrt, lcm
from operator import itemgetter
from typing import Sequence

from ._record import Record
from .ansatz import AnsatzPoint, frobenius_orbit
from .errors import DomainError, VerificationError
from .tilt import _require_int, _require_odd_prime, _require_positive, _require_record, tilt_val
from .witt import RhoWeight

__all__ = [
    "BoundReport",
    "PilotTuple",
    "build_pilot",
    "corollary_c_check",
    "main_bound_check",
    "main_bound_sweep",
    "size_estimate",
    "sum_log_norms",
    "theta_set_sample",
    "threshold_ell",
    "threshold_ell_by_root_analysis",
    "threshold_ell_by_sweep",
]


class PilotTuple(Record):
    """An ansatz point with the log-norms of its lifted members.

    lifts[j-1] = e_j = xi_val_K1 * v(a) * j^2 > 0; the constructor calls
    ``build_pilot`` and refuses any other lifts.
    """

    ansatz: AnsatzPoint
    xi_val_K1: Fraction
    lifts: tuple[Fraction, ...]

    def __init__(self, ansatz: AnsatzPoint, xi_val_K1: Fraction, lifts: tuple[Fraction, ...]):
        self._assign(ansatz, xi_val_K1, lifts, built=build_pilot(ansatz, xi_val_K1))


def build_pilot(point: AnsatzPoint, xi_val: Fraction) -> PilotTuple:
    """Lift a point with reference multiplier valuation xi_val > 0: the one formula for the lifts
    e_j = xi_val * v(a) * j^2, j = 1 .. ell*, which ``PilotTuple`` compares against, all positive."""
    _require_record(point, AnsatzPoint, "the point")
    _require_positive(xi_val, "xi_val")
    e1 = xi_val * tilt_val(point.a)
    n1, d1 = e1.numerator, e1.denominator
    return PilotTuple._trusted(point, xi_val, tuple([Fraction(n1 * j * j, d1) for j in range(1, point.ell_star + 1)]))


def sum_log_norms(pilot: PilotTuple, rho: RhoWeight) -> Fraction:
    """Sum of the lifted log-norms, verified against the closed form.

    For Teichmuller-style lifts the rho weight does not move the sum (all
    entries sit in slot zero); the argument pins the gauge the caller is
    working in.  The direct sum, taken in integers over the lcm of the
    lift denominators, must equal e_1 * ell*(ell* + 1)(2 ell* + 1)/6
    exactly or something is broken.
    """
    _require_record(pilot, PilotTuple, "the pilot")
    _require_record(rho, RhoWeight, "the weight")  # slot-zero lifts are weight independent; see docstring
    lifts, ls = pilot.lifts, pilot.ansatz.ell_star
    den = lcm(*[e.denominator for e in lifts])
    direct = sum([e.numerator * (den // e.denominator) for e in lifts])
    closed, d6 = lifts[0].numerator * ls * (ls + 1) * (2 * ls + 1), 6 * lifts[0].denominator
    if direct * d6 != closed * den:
        raise VerificationError(f"square-sum identity violated: {Fraction(direct, den)} != {Fraction(closed, d6)}")
    return Fraction(direct, den)


def _pilot_sort_key(pilot: PilotTuple):
    return (
        pilot.ansatz.ell,
        pilot.lifts,
        pilot.xi_val_K1,
        pilot.ansatz.a.p,
        pilot.ansatz.a.terms,
    )


def theta_set_sample(
    generators: Sequence[AnsatzPoint], xi_val: Fraction, depth: int
) -> tuple[PilotTuple, ...]:
    """Sample the theta set: all pilots over phi^n(generators), |n| <= depth.

    Returns the pilots deduplicated and in a deterministic order.  Each
    orbit step is checked for its lifts: those at n + 1 are p times those
    at n.  The Frobenius step is ``frobenius_orbit``'s, which checked each
    generator against phi^n(a); it is not re-derived here.
    """
    if not generators:
        raise DomainError("at least one generator point is required")
    _require_int(depth, "depth", 0)
    pilots: list[PilotTuple] = []
    for point in generators:
        prev = None
        for n, orbit_point in enumerate(frobenius_orbit(point, (-depth, depth)), start=-depth):
            pilot = build_pilot(orbit_point, xi_val)
            if prev is not None:
                p = orbit_point.a.p
                if len(pilot.lifts) != len(prev.lifts) or any(
                    e.numerator * f.denominator != p * f.numerator * e.denominator
                    for e, f in zip(pilot.lifts, prev.lifts)
                ):
                    raise VerificationError(f"lifts at orbit point {n} are not {p} times those at {n - 1}")
            pilots.append(pilot)
            prev = pilot
    # Equal keys mean equal pilots. A set would chain on hash collisions: hash(2**61 * e) == hash(e).
    keyed = sorted([(_pilot_sort_key(t), t) for t in pilots], key=itemgetter(0))
    return tuple(t for i, (key, t) in enumerate(keyed) if not i or key != keyed[i - 1][0])


def size_estimate(sample: Sequence[PilotTuple], rho: RhoWeight) -> Fraction:
    """Infimum of the summed log-norms over the sample.

    This is the log of the supremum of norm products.  Every lift is
    positive, which ``PilotTuple`` enforces, so the infimum is positive at
    every weight, the boundary norm (rho flag at 1) included.
    """
    if not sample:
        raise DomainError("cannot size an empty sample")
    return min(sum_log_norms(pilot, rho) for pilot in sample)


class BoundReport(Record):
    """The bound at (ell, v_q), with each derivation step as (label, value, ok)."""

    ell: int
    v_q: Fraction
    lhs_log: Fraction
    rhs_log: Fraction
    margin: Fraction
    passed: bool
    steps: tuple[tuple[str, Fraction, bool], ...]


def main_bound_check(ell: int, v_q: Fraction) -> BoundReport:
    """Strict comparison of the two sides of the size bound at (ell, v_q).

    One pass sums j^2 over j = 1..ell*; the lhs is taken termwise from
    that sum, as the terms j^2/(ell*^2 2ell) v_q share one denominator, and
    in closed form; the rhs in product and in ratio form; the margin
    directly and in factored form.  Identity steps carry their comparison,
    so a disagreeing route reads ok = False; quantity steps ok = True.
    """
    _require_odd_prime(ell)
    _require_positive(v_q, "v_q")
    ls = (ell - 1) // 2
    square_sum = sum(j * j for j in range(1, ls + 1))
    square_closed = ls * (ls + 1) * (2 * ls + 1) // 6
    lhs_sum = Fraction(square_sum, ls * ls * 2 * ell) * v_q
    lhs = Fraction(1, 12) * (1 + Fraction(1, ls)) * v_q
    rhs = Fraction(1, 4) * (1 - Fraction(1, ell)) * v_q
    rhs_ratio = Fraction(ls, 2 * ell) * v_q
    margin = rhs - lhs
    factored = Fraction((2 * ell - 1) * (ell - 3), 12 * ell * (ell - 1)) * v_q
    steps = (
        ("square_sum_closed_form", Fraction(square_closed), square_sum == square_closed),
        ("lhs_termwise", lhs_sum, True),
        ("lhs_closed_form", lhs, lhs == lhs_sum),
        ("rhs_product_form", rhs, True),
        ("rhs_ratio_form", rhs_ratio, rhs_ratio == rhs),
        ("margin", margin, True),
        ("margin_factored", factored, factored == margin),
    )
    return BoundReport(ell, v_q, lhs, rhs, margin, lhs < rhs, steps)


def main_bound_sweep(limit: int) -> tuple[tuple[int, ...], int, int | None]:
    """The bound at every odd prime 5 <= ell <= limit, walked once in order.

    Returns the failing primes, how many primes were checked and the last
    one (None for none).  Per ell, in exact integers, a running sum of j^2
    (the termwise lhs) must give 6 sum j^2 = ell ls (ls + 1) with
    ls = (ell - 1)/2, or VerificationError is raised.  The rhs needs no
    second route: (ell - 1)/(4 ell) is ls/(2 ell) since 2 ls = ell - 1 for
    odd ell.  The strict bound lhs < rhs is (ls + 1) 2 ell < 12 ls^2.
    """
    # Every side carries the factor v_q > 0, which cancels from each
    # comparison, so the sweep needs no v_q.
    failures = []
    checked, last = 0, None
    square_sum, summed_to = 0, 0
    for ell in _odd_primes_upto(limit, 5):
        ls = (ell - 1) // 2
        for j in range(summed_to + 1, ls + 1):
            square_sum += j * j
        summed_to = ls
        if 6 * square_sum != ell * ls * (ls + 1):
            raise VerificationError(f"lhs routes disagree at ell = {ell}: 6 * {square_sum} != {ell * ls * (ls + 1)}")
        if not (ls + 1) * 2 * ell < 12 * ls * ls:
            failures.append(ell)
        checked, last = checked + 1, ell
    return tuple(failures), checked, last


def _odd_primes_upto(limit: int, start: int = 3):
    """The primes start <= n <= limit in order, for an odd start >= 3, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    for d in range(3, isqrt(max(limit, 0)) + 1, 2):
        if sieve[d]:
            sieve[d * d :: 2 * d] = bytes(len(range(d * d, limit + 1, 2 * d)))
    return compress(range(start, limit + 1, 2), sieve[start::2])


def threshold_ell_by_sweep(limit: int = 97) -> int:
    """Least odd prime whose bound check passes, by direct sweep.

    The pass/fail outcome is independent of v_q > 0 (both sides scale
    linearly), so the sweep runs at v_q = 1.
    """
    for ell in _odd_primes_upto(limit):
        if main_bound_check(ell, Fraction(1)).passed:
            return ell
    raise VerificationError(f"no odd prime up to {limit} passes the bound")


def threshold_ell_by_root_analysis(limit: int = 97) -> int:
    """Least odd prime past the margin's roots, from the factored form.

    The margin numerator is (2 ell - 1)(ell - 3) up to positive factors,
    with roots at 1/2 and 3, so this scans the factored sign only.
    """
    for ell in _odd_primes_upto(limit):
        if (2 * ell - 1) * (ell - 3) > 0:
            return ell
    raise VerificationError(f"no odd prime up to {limit} clears the factored margin")


def threshold_ell(limit: int = 97) -> int:
    """The threshold prime up to ``limit``, cross-checked between the two routes."""
    by_sweep = threshold_ell_by_sweep(limit)
    by_roots = threshold_ell_by_root_analysis(limit)
    if by_sweep != by_roots:
        raise VerificationError(f"threshold routes disagree: sweep {by_sweep}, roots {by_roots}")
    return by_sweep


def corollary_c_check(report: BoundReport, c: Fraction) -> bool:
    """Whether a claimed size exponent c forces a contradiction.

    Only meaningful once the strict bound holds, as ``report`` says;
    asking below the threshold raises, it does not guess.  Past that, any
    c < 1 contradicts the trivial unit-ball cap, and c >= 1 does not.
    """
    _require_record(report, BoundReport, "the report")
    _require_positive(c, "c")
    if not report.passed:
        raise DomainError(f"bound not established at ell = {report.ell}; the corollary needs it")
    return c < 1
