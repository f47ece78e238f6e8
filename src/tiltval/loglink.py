"""Exact p-adic logarithms of principal units and valuation chains.

The logarithm is computed in integers, never in rationals.  For a
principal unit u (u = 1 mod p for odd p, u = 1 mod 4 for p = 2) at
precision N, the argument is reduced in two ways before the series runs.

First, for a depth m, the power y = u^(p^m) mod p^(N+m) satisfies
v(y - 1) = v(u - 1) + m, so y - 1 has valuation at least w = m + 1
(m + 2 for p = 2), and log(y) = p^m log(u) mod p^(N+m).  That bound is
checked by dividing y - 1 exactly by p^w, which leaves x.

Second, the digits of x are cleared in stages, each with a table as in
libm logarithms (Tang, ACM TOMS 16(4), 1990), level by level (Brent and
Zimmermann, Modern Computer Arithmetic, 4.4).  Stage i, at level L_i
(L_0 = w, y = 1 + p^(L_i) x), reads b_i digits d = x mod p^(b_i) and
multiplies y by g_i^(-d) = (1 - p^(L_i))^d = 1 - d p^(L_i) mod p^(2 L_i),
so for b_i <= L_i the product is 1 mod p^(L_i + b_i); past L_i the
square term would leave digits behind.  Its exact division by p^(L_i +
b_i) checks that bound and leaves the next x, so a stage reads only
digits whose clearing the stage before has checked.  The level doubles
while b_i = L_i.  log(y) = log(y') + sum_i d_i log(g_i), each d log(g_i)
read from the table.  A table has p^(b_i) <= 128 entries; for p > 128
the plan has no stage.

log(1 + p^s x') = sum_k (-1)^(k+1) (p^s x')^k / k, s the last level, is
the integer polynomial sum_k d_k x'^k with d_k = (-1)^(k+1) u_k^-1
p^(k*s - v_p(k)), k = p^(v_p(k)) u_k, evaluated mod p^(N+m) in one
Horner pass.  The k-th term has valuation at least k*s - floor(log_p k),
and that bound never decreases in k, so the cutoff is the first k where
it reaches N + m; every dropped term is divisible by p^(N+m).  Finally
the sum is divided exactly by p^m.  Each of these divisions is checked:
a remainder, or a y that collapses to 1 for u != 1, raises
VerificationError instead of returning a wrong class.

The class depends on neither m nor the stages, only the work does.  Once
per (p, N), the depth m <= isqrt(N) and the number of greedy stages that
take the fewest multiplications are chosen: the argument power, 2 per
stage for its multiply and division, and the Horner steps.  At N = 14
that is one table for p = 2, 3 and 13 <= p < 128, two for 5 <= p <= 11.

The result always lands in p Z/p^N (4 Z/2^N for p = 2); that subgroup
membership is re-checked on every call.  On these subgroups log turns
products into sums and p-th powers into multiplication by p, which is
the mechanism the valuation chains below quantify: one step of the
chain rescales v(p) by p, no step crosses between chain indices, and
catching up to a proximity epsilon takes m(epsilon) steps with
1/p^m < epsilon.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import accumulate, repeat
from math import gcd, isqrt, lcm
from operator import mul

from ._record import Record
from .errors import DomainError, VerificationError
from .tilt import _is_int, _require_int, _require_positive, _require_precision, _require_prime, _require_window
from .tilt import _unit_level

__all__ = [
    "LogLinkChain",
    "PadicUnit",
    "chain_build",
    "m_of_epsilon",
    "padic_log",
]


@cache
def _unit_group(p: int, precision: int) -> tuple[int, int, int]:
    """For a checked p and N: c = p^_unit_level(p), the draw bound p^N // c and the modulus p^N."""
    c, modulus = p ** _unit_level(p), p**precision
    return c, modulus // c, modulus


class PadicUnit(Record):
    """A principal unit of Z/p^N: value = 1 mod p (mod 4 when p = 2).

    ``precision`` is N.  The floor N >= 2 for odd p and N >= 3 for p = 2
    keeps log and its inverse honest at this precision; below that the
    congruence classes carry no information.
    """

    p: int
    precision: int
    value: int

    def __init__(self, p: int, precision: int, value: int):
        _require_prime(p)
        _require_precision(p, precision)
        if not _is_int(value) or not 0 <= value < p**precision:
            raise DomainError(f"value must be reduced mod {p}^{precision}")
        congruence = p ** _unit_level(p)
        if value % congruence != 1:
            raise DomainError(f"not a principal unit: {value} != 1 mod {congruence}")
        self._assign(p, precision, value)

    @classmethod
    def of(cls, p: int, precision: int, value: int) -> "PadicUnit":
        """Reduce an integer mod p^precision and wrap it."""
        _require_int(value, "value")
        return cls(p, precision, value % p**precision)

    @classmethod
    def random(cls, rng: random.Random, p: int, precision: int) -> "PadicUnit":
        """A uniformly drawn principal unit of Z/p^precision, one draw from rng, after p and N are checked."""
        _require_precision(p, precision)
        _require_prime(p)
        return _random_units(rng, p, precision, 1)[0]

    def _check_same(self, other: "PadicUnit") -> None:
        if self.p != other.p or self.precision != other.precision:
            raise DomainError(
                f"mixed unit groups: ({self.p}, {self.precision}) vs ({other.p}, {other.precision})"
            )

    # Principal units form a group: products and powers need no validator.
    def mul(self, other: "PadicUnit") -> "PadicUnit":
        self._check_same(other)
        p, precision = self.p, self.precision
        return PadicUnit._trusted(p, precision, self.value * other.value % _unit_group(p, precision)[2])

    def pow(self, k: int) -> "PadicUnit":
        """k-th power, any integer k; units are invertible mod p^N."""
        p, precision = self.p, self.precision
        return PadicUnit._trusted(p, precision, pow(self.value, k, _unit_group(p, precision)[2]))


def _random_units(rng: random.Random, p: int, precision: int, count: int) -> list[PadicUnit]:
    """count draws of PadicUnit.random for a checked p and precision, in draw order, with one group lookup.

    1 + c*r, c = p^_unit_level(p), is a unit as drawn.
    """
    c, bound, _ = _unit_group(p, precision)
    return [PadicUnit._trusted(p, precision, 1 + c * rng.randrange(bound)) for _ in range(count)]


def _floor_log(n: int, p: int) -> int:
    e, power = 0, p
    while power <= n:
        e, power = e + 1, power * p
    return e


# The largest digit table a plan may hold; p^b <= _TABLE_CAP.
_TABLE_CAP = 128


def _log_cutoff(p: int, reduced: int, level: int) -> int:
    """The first k with k*level - floor(log_p k) >= reduced: the series cutoff for v(x) >= level mod p^reduced."""
    cutoff = -(-reduced // level)  # no smaller k reaches the bound even before floor(log_p k) is taken off
    while cutoff * level - _floor_log(cutoff, p) < reduced:
        cutoff += 1
    return cutoff


def _log_plan(p: int, n_prec: int, m: int, digits: tuple[int, ...] = ()) -> tuple:
    """padic_log's (p, N) plan at depth m whose stage i reads digits[i] digits, b_i <= L_i < N + m.

    The tuple holds m, p^m, p^w, p^(N+m), the stages, p^_unit_level(p)
    and the last level's series coefficients from the top k down.  Stage
    i at level L_i holds p^(b_i), the entries g_i^(-d) = (1 - p^(L_i))^d
    mod p^(N+m) and d log(g_i) for d < p^(b_i), and p^(L_i + b_i).  Every
    level is a multiple rG of the grain G = gcd(w, b_0, ...), so one list
    t_j = D p^(jG) / j, D the lcm of 1 .. cutoff(G) - 1 without its
    p-part, gives every level's D p^(kL) / k = r t_(kr); the terms past
    its end are 0 mod p^(N+m).  One inverse of D makes them residues.
    """
    w, reduced = m + _unit_level(p), n_prec + m
    reduced_mod, grain = p**reduced, gcd(w, *digits)
    cutoff = _log_cutoff(p, reduced, grain)
    denominator = lcm(*range(1, cutoff)) // p ** _floor_log(cutoff - 1, p)
    inverse, step = pow(denominator, -1, reduced_mod), p**grain
    base = [power // j for j, power in zip(range(1, cutoff), accumulate(repeat(step), mul, initial=denominator * step))]
    stages, level = [], w
    for b in digits:
        table, factor = [1], 1 - p**level
        for _ in range(p**b - 1):  # a one-word factor: no table step is a full product
            table.append(table[-1] * factor % reduced_mod)
        r = level // grain
        log_g = r * sum(base[r - 1 :: r]) * inverse % reduced_mod
        stages.append((p**b, tuple(table), tuple(range(0, p**b * log_g, log_g)), p ** (level + b)))
        level += b
    r = level // grain
    coefficients = [(t if k % 2 else -t) * r * inverse % reduced_mod for k, t in enumerate(base[r - 1 :: r], 1)]
    while coefficients and not coefficients[-1]:
        coefficients.pop()  # a top d_k = 0 mod p^(N+m) leaves t = 0 through its Horner step
    return m, p**m, p**w, reduced_mod, tuple(stages), p ** _unit_level(p), tuple(coefficients[::-1])


@cache
def _log_series(p: int, n_prec: int) -> tuple:
    """padic_log's plan for (p, N): the depth m and stages needing the fewest multiplications.

    m runs over 0 .. isqrt(N).  At each depth the stages are greedy, each
    reading b_i = min(L_i, log_p _TABLE_CAP) digits, which for a given
    stage count reaches the highest level.  A plan costs bit_length(p^m)
    + popcount(p^m) - 2 for the argument power, 2 per stage for its table
    multiply and its division, and cutoff - 1 Horner steps.  Ties go to
    fewer stages, then the smaller m.  A depth takes no further stage once
    its cost before the cutoff already loses, and a cutoff is not walked
    where ceil((N + m) / L), its floor, already loses.  Only the cutoffs
    are compared, so the tables and the coefficients are built for the
    winner alone.
    """
    top, best = _floor_log(_TABLE_CAP, p), (2 * n_prec + 3,)  # no cutoff exceeds 2N
    for m in range(isqrt(n_prec) + 1):
        cost, level, digits, reduced = (p**m).bit_length() + (p**m).bit_count(), m + _unit_level(p), (), n_prec + m
        while cost < best[0]:  # the cutoff is at least 1; every cost leaves out the same constant -3
            if (cost - (-reduced // level), len(digits)) < best:  # ceil((N + m) / L) <= cutoff
                best = min(best, (cost + _log_cutoff(p, reduced, level), len(digits), m, digits))
            b = min(level, top)  # 0 above p = 128: the cost still climbs, and no such stage can win
            digits, level, cost = (*digits, b), level + b, cost + 2
    return _log_plan(p, n_prec, *best[2:])


def padic_log(u: PadicUnit) -> int:
    """log(u) mod p^precision as a reduced integer in p Z/p^N (4 Z/2^N).

    With the (p, N) plan's depth m, y = u^(p^m) mod p^(N+m) must satisfy
    y = 1 mod p^w.  Each stage reads the digits d = (y - 1) / p^L mod
    p^b at its level L, multiplies y by its table entry g^(-d) and adds
    its d log(g); the new y must satisfy y = 1 mod p^(L+b), the bound the
    next stage and the cutoff rest on.  One Horner pass t = (t + d_k) *
    x' mod p^(N+m) over the coefficients, x' = (y - 1) / p^L at the last
    level L, gives the rest of log(u^(p^m)) = p^m log(u), which is
    divided by p^m exactly.  A division that leaves a remainder raises
    VerificationError.
    """
    p, n_prec = u.p, u.precision
    if u.value == 1:
        return 0
    m, scale, step, reduced_mod, stages, subgroup, coefficients = _log_series(p, n_prec)
    y = pow(u.value, scale, reduced_mod)
    if y == 1:
        # v(u^(p^m) - 1) = v(u - 1) + m < N + m for u != 1.
        raise VerificationError(f"u^(p^{m}) collapsed to 1 mod {p}^{n_prec + m} for u != 1")
    x, rest = divmod(y - 1, step)
    if rest:
        raise VerificationError(f"u^(p^{m}) - 1 is not divisible by {step}: u is not a principal unit")
    total = 0
    for size, table, cleared, shift in stages:
        digits = x % size
        y, total = y * table[digits] % reduced_mod, total + cleared[digits]
        x, rest = divmod(y - 1, shift)
        if rest:
            raise VerificationError(f"y g^-{digits} - 1 is not divisible by {shift}: a wrong digit table")
    series = 0
    for coefficient in coefficients:
        series = (series + coefficient) * x % reduced_mod
    total = (total + series) % reduced_mod
    if total % scale:
        raise VerificationError(f"log(u^(p^{m})) is not divisible by p^{m}")
    result = total // scale
    if result % subgroup:
        raise VerificationError(f"log left the expected subgroup {subgroup}Z/{p}^{n_prec}")
    return result


class LogLinkChain(Record):
    """Valuations v_n = v0 * p^n of the same prime along a chain window.

    Moving one step toward smaller n divides the valuation by p: the
    chain records how the normalization of v(p) drifts, entry by entry,
    with no operation that would identify different indices.
    """

    p: int
    v0: Fraction
    window: tuple[int, int]
    entries: tuple[tuple[int, Fraction], ...]

    def __init__(self, p: int, v0: Fraction, window: tuple[int, int], entries: tuple[tuple[int, Fraction], ...]):
        _require_prime(p)
        _require_positive(v0, "v0")
        lo, hi = _require_window(window)
        expected_indexes = tuple(range(lo, hi + 1))
        if tuple(n for n, _ in entries) != expected_indexes:
            raise DomainError("entries must cover the window exactly once, in order")
        for n, value in entries:
            if value <= 0:
                raise DomainError(f"valuation at index {n} must be positive")
        for (_, prev), (_, cur) in zip(entries, entries[1:]):
            if cur != prev * p:
                raise VerificationError("adjacent chain entries must differ by a factor of p")
        self._assign(p, v0, window, entries)

    def value_at(self, n: int) -> Fraction:
        _require_int(n, "index")
        lo, hi = self.window
        if not lo <= n <= hi:
            raise DomainError(f"index {n} outside the chain window [{lo}, {hi}]")
        return self.entries[n - lo][1]


def chain_build(p: int, v0: Fraction, window: tuple[int, int]) -> LogLinkChain:
    """Build the chain v_n = v0 * p^n over an inclusive index window."""
    _require_prime(p)
    _require_positive(v0, "v0")
    lo, hi = _require_window(window)
    entries = tuple((n, v0 * Fraction(p) ** n) for n in range(lo, hi + 1))
    # p prime and v0 > 0: the entries cover the window, are positive and step by p, as the constructor checks.
    return LogLinkChain._trusted(p, v0, (lo, hi), entries)


def m_of_epsilon(p: int, eps: Fraction) -> int:
    """Least m >= 0 with 1/p^m strictly below eps, for eps < 1.

    A proximity demand of eps >= 1 is no demand at all and returns 0
    outright; eps <= 0 is meaningless.
    """
    _require_prime(p)
    _require_positive(eps, "eps")
    if eps >= 1:
        return 0
    m = 1
    while Fraction(1, p**m) >= eps:
        m += 1
    return m
