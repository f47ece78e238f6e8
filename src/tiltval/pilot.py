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
from typing import Sequence

from ._record import Record
from .ansatz import AnsatzPoint, frobenius_orbit
from .errors import DomainError, VerificationError
from .tilt import _require_odd_prime, is_prime, tilt_frobenius, tilt_val
from .witt import RhoWeight

__all__ = [
    "BoundReport",
    "DerivationStep",
    "PilotTuple",
    "ThetaSetSample",
    "build_pilot",
    "corollary_c_check",
    "main_bound_check",
    "main_bound_derivation",
    "size_estimate",
    "sum_log_norms",
    "theta_set_sample",
    "threshold_ell",
    "threshold_ell_by_root_analysis",
    "threshold_ell_by_sweep",
]


class PilotTuple(Record):
    """An ansatz point with the log-norms of its lifted members.

    lifts[j-1] = e_j = xi_val_K1 * v(a) * j^2 > 0; the quadratic law is
    re-verified on construction.
    """

    ansatz: AnsatzPoint
    xi_val_K1: Fraction
    lifts: tuple[Fraction, ...]

    def __init__(self, ansatz: AnsatzPoint, xi_val_K1: Fraction, lifts: tuple[Fraction, ...]):
        if xi_val_K1 <= 0:
            raise DomainError("the reference multiplier valuation must be positive")
        if len(lifts) != ansatz.ell_star:
            raise DomainError("one lift per family member")
        e1 = lifts[0]
        for j, e in enumerate(lifts, start=1):
            if e <= 0:
                raise DomainError(f"lift {j} must be positive, got {e}")
            if e != e1 * j * j:
                raise DomainError(f"lift {j} breaks the square law e_j = j^2 e_1")
        self._assign(ansatz, xi_val_K1, lifts)


def build_pilot(point: AnsatzPoint, xi_val: Fraction) -> PilotTuple:
    """Lift a point with reference multiplier valuation xi_val > 0."""
    if not isinstance(xi_val, Fraction) or xi_val <= 0:
        raise DomainError(f"xi_val must be a positive Fraction, got {xi_val!r}")
    v_a = tilt_val(point.a).as_fraction()
    e1 = xi_val * v_a
    lifts = tuple(e1 * j * j for j in range(1, point.ell_star + 1))
    return PilotTuple(ansatz=point, xi_val_K1=xi_val, lifts=lifts)


def sum_log_norms(pilot: PilotTuple, rho: RhoWeight) -> Fraction:
    """Sum of the lifted log-norms, verified against the closed form.

    For Teichmuller-style lifts the rho weight does not move the sum (all
    entries sit in slot zero); the argument pins the gauge the caller is
    working in.  The direct sum must equal
    e_1 * ell*(ell* + 1)(2 ell* + 1)/6 exactly or something is broken.
    """
    del rho  # slot-zero lifts are weight independent; see docstring
    direct = sum(pilot.lifts, Fraction(0))
    ls = pilot.ansatz.ell_star
    closed = pilot.lifts[0] * Fraction(ls * (ls + 1) * (2 * ls + 1), 6)
    if direct != closed:
        raise VerificationError(f"square-sum identity violated: {direct} != {closed}")
    return direct


class ThetaSetSample(Record):
    """A deduplicated, deterministically ordered set of pilot tuples.

    Closed under Frobenius to the stated depth by construction.  The
    factory checks each orbit step by step before handing the sample
    out: the point at n + 1 has generator phi(a_n), and its lifts are p
    times the lifts at n.
    """

    generators: tuple[AnsatzPoint, ...]
    frobenius_depth: int
    tuples: tuple[PilotTuple, ...]


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
) -> ThetaSetSample:
    """Sample the theta set: all pilots over phi^n(generators), |n| <= depth."""
    if not generators:
        raise DomainError("at least one generator point is required")
    if not isinstance(depth, int) or depth < 0:
        raise DomainError(f"depth must be a nonnegative integer, got {depth!r}")
    seen: set[PilotTuple] = set()
    for point in generators:
        prev = None
        for n, orbit_point in enumerate(frobenius_orbit(point, (-depth, depth)), start=-depth):
            pilot = build_pilot(orbit_point, xi_val)
            if prev is not None:
                if orbit_point.a != tilt_frobenius(prev.ansatz.a, 1):
                    raise VerificationError(f"orbit point {n} is not phi of point {n - 1}")
                p = orbit_point.a.p
                if pilot.lifts != tuple(p * e for e in prev.lifts):
                    raise VerificationError(f"lifts at orbit point {n} are not {p} times those at {n - 1}")
            seen.add(pilot)
            prev = pilot
    ordered = tuple(sorted(seen, key=_pilot_sort_key))
    return ThetaSetSample(generators=tuple(generators), frobenius_depth=depth, tuples=ordered)


def size_estimate(sample: ThetaSetSample, rho: RhoWeight) -> Fraction:
    """Infimum of the summed log-norms over the sample.

    This is the log of the supremum of norm products.  At the boundary
    norm (rho flag at 1) every lift must be nonnegative, the additive
    form of the integral-elements cap; that is re-verified here.
    """
    if not sample.tuples:
        raise DomainError("cannot size an empty sample")
    sums = [sum_log_norms(pilot, rho) for pilot in sample.tuples]
    if rho.at_one:
        for pilot in sample.tuples:
            if any(e < 0 for e in pilot.lifts):
                raise VerificationError("boundary cap violated: negative lift in sample")
    return min(sums)


class DerivationStep(Record):
    """One labeled exact quantity in the bound derivation, with its own
    pass flag where the step asserts an identity."""

    label: str
    value: Fraction
    ok: bool


class BoundReport(Record):
    ell: int
    v_q: Fraction
    lhs_log: Fraction
    rhs_log: Fraction
    margin: Fraction
    passed: bool


def _lhs_termwise(ell: int, v_q: Fraction) -> Fraction:
    """The lhs as the sum of its terms j^2/(ell*^2 2ell) v_q, j = 1..ell*.

    The numerators share one denominator, so the integers j^2 are summed
    and divided once; no closed form is used.
    """
    ls = (ell - 1) // 2
    return Fraction(sum(j * j for j in range(1, ls + 1)), ls * ls * 2 * ell) * v_q


def _bound_routes(ell: int, v_q: Fraction) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Validate (ell, v_q) and return the lhs termwise and in closed form,
    then the rhs in product and in ratio form."""
    _require_odd_prime(ell)
    if not isinstance(v_q, Fraction) or v_q <= 0:
        raise DomainError(f"v_q must be a positive Fraction, got {v_q!r}")
    ls = (ell - 1) // 2
    return (
        _lhs_termwise(ell, v_q),
        Fraction(1, 12) * (1 + Fraction(1, ls)) * v_q,
        Fraction(1, 4) * (1 - Fraction(1, ell)) * v_q,
        Fraction(ls, 2 * ell) * v_q,
    )


def main_bound_derivation(ell: int, v_q: Fraction) -> tuple[DerivationStep, ...]:
    """Every intermediate identity of the size bound as a checkable step.

    The two sides are each computed twice, once termwise and once in
    closed form, and the margin is matched against its factored shape.
    Steps whose label ends in a quantity name carry ok = True by
    definition; identity steps carry the actual comparison.
    """
    lhs_sum, lhs_closed, rhs_product, rhs_ratio = _bound_routes(ell, v_q)
    ls = (ell - 1) // 2
    steps: list[DerivationStep] = []

    square_sum = sum(j * j for j in range(1, ls + 1))
    square_closed = ls * (ls + 1) * (2 * ls + 1) // 6
    steps.append(DerivationStep("square_sum_closed_form", Fraction(square_closed), square_sum == square_closed))

    steps.append(DerivationStep("lhs_termwise", lhs_sum, True))
    steps.append(DerivationStep("lhs_closed_form", lhs_closed, lhs_closed == lhs_sum))

    steps.append(DerivationStep("rhs_product_form", rhs_product, True))
    steps.append(DerivationStep("rhs_ratio_form", rhs_ratio, rhs_ratio == rhs_product))

    margin = rhs_product - lhs_closed
    factored = Fraction((2 * ell - 1) * (ell - 3), 12 * ell * (ell - 1)) * v_q
    steps.append(DerivationStep("margin", margin, True))
    steps.append(DerivationStep("margin_factored", factored, factored == margin))

    strict = lhs_closed < rhs_product
    steps.append(DerivationStep("strict_inequality", Fraction(1 if strict else 0), strict))
    return tuple(steps)


def main_bound_check(ell: int, v_q: Fraction) -> BoundReport:
    """Strict comparison of the two sides of the size bound at (ell, v_q)."""
    lhs_sum, lhs, rhs, rhs_ratio = _bound_routes(ell, v_q)
    if lhs != lhs_sum:
        raise VerificationError(f"lhs routes disagree at ell = {ell}: {lhs} != {lhs_sum}")
    if rhs != rhs_ratio:
        raise VerificationError(f"rhs routes disagree at ell = {ell}: {rhs} != {rhs_ratio}")
    return BoundReport(ell, v_q, lhs, rhs, rhs - lhs, lhs < rhs)


def _odd_primes_upto(limit: int):
    for n in range(3, limit + 1, 2):
        if is_prime(n):
            yield n


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


def corollary_c_check(ell: int, v_q: Fraction, c: Fraction) -> bool:
    """Whether a claimed size exponent c forces a contradiction.

    Only meaningful once the strict bound holds at (ell, v_q); asking
    below the threshold raises, it does not guess.  Past that, any
    c < 1 contradicts the trivial unit-ball cap, and c >= 1 does not.
    """
    if not isinstance(c, Fraction) or c <= 0:
        raise DomainError(f"c must be a positive Fraction, got {c!r}")
    report = main_bound_check(ell, v_q)
    if not report.passed:
        raise DomainError(f"bound not established at ell = {ell}; the corollary needs it")
    return c < 1
