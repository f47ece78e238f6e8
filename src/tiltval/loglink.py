"""Exact p-adic logarithms of principal units and valuation chains.

The logarithm is computed in integers, never in rationals.  For a
principal unit u (u = 1 mod p for odd p, u = 1 mod 4 for p = 2) at
precision N, u - 1 has valuation at least w = 1 (2 for p = 2).  That
bound is checked by dividing u - 1 exactly by p^w, which leaves x.

The argument is then reduced one way: the digits of x are cleared in
stages, each with a table as in libm logarithms (Tang, ACM TOMS 16(4),
1990), level by level (Brent and Zimmermann, Modern Computer
Arithmetic, 4.4).  Stage i, at level L_i (L_0 = w, y = 1 + p^(L_i) x),
reads b_i digits d = x mod p^(b_i) and multiplies y by g_i^(-d) =
(1 - p^(L_i))^d = 1 - d p^(L_i) mod p^(2 L_i), so for b_i <= L_i the
product is 1 mod p^(L_i + b_i); past L_i the square term would leave
digits behind.  Its exact division by p^(L_i + b_i) checks that bound
and leaves the next x, so a stage reads only digits whose clearing the
stage before has checked.  The level doubles while b_i = L_i.  log(u) =
log(y') + sum_i d_i log(g_i), each d log(g_i) read from the table.  A
table has p^(b_i) <= 128 entries; for p > 128 the plan has no stage.

log(1 + p^s x') = sum_k (-1)^(k+1) (p^s x')^k / k, s the last level, is
the integer polynomial sum_k d_k x'^k with d_k = (-1)^(k+1) u_k^-1
p^(k*s - v_p(k)), k = p^(v_p(k)) u_k, evaluated mod p^N in one Horner
pass.  The k-th term has valuation at least k*s - floor(log_p k), and
that bound never decreases in k, so the cutoff is the first k where it
reaches N; every dropped term is divisible by p^N.  Each division is
checked: a remainder raises VerificationError instead of returning a
wrong class.

The class does not depend on the stages, only the work does.  Once per
(p, N), the number of greedy stages that takes the fewest
multiplications is chosen: 2 per stage for its multiply and division,
and the Horner steps.  At N = 14 that is one table for p = 2 and
13 <= p < 128, two for 3 <= p <= 11.

The one kernel, ``_logs``, logs a batch of residues and re-checks that
each lands in p Z/p^N (4 Z/2^N for p = 2).  On these subgroups log turns
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
from math import gcd, lcm
from operator import mul

from ._record import Record
from .errors import DomainError, VerificationError
from .tilt import _require_int, _require_positive, _require_precision, _require_prime, _require_record, _require_window
from .tilt import _shown, _unit_level

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
    """A principal unit of Z/p^N: value = 1 mod p (mod 4 when p = 2), reduced mod p^N.

    ``precision`` is N.  The floor N >= 2 for odd p and N >= 3 for p = 2
    keeps log and its inverse honest; below it the congruence classes
    carry no information.  The constructor refuses any value but ``of``'s.
    """

    p: int
    precision: int
    value: int

    def __init__(self, p: int, precision: int, value: int):
        self._assign(p, precision, value, built=PadicUnit.of(p, precision, value))

    @classmethod
    def of(cls, p: int, precision: int, value: int) -> "PadicUnit":
        """Wrap an integer that is 1 mod p (mod 4 for p = 2), reduced mod p^precision: the one unit rule."""
        _require_prime(p)
        _require_precision(p, precision)
        _require_int(value, "value")
        congruence, _, modulus = _unit_group(p, precision)
        if value % congruence != 1:
            raise DomainError(f"not a principal unit: {_shown(value, str)} != 1 mod {congruence}")
        return cls._trusted(p, precision, value % modulus)

    @classmethod
    def random(cls, rng: random.Random, p: int, precision: int) -> "PadicUnit":
        """A uniformly drawn principal unit of Z/p^precision, one draw from rng, after rng, p and N are checked."""
        _require_record(rng, random.Random, "rng")
        _require_precision(p, precision)
        _require_prime(p)
        return cls.of(p, precision, _unit_draws(rng, p, precision, 1)[0])

    # Principal units form a group: a product or a power checks its argument's type, not its value.
    def mul(self, other: "PadicUnit") -> "PadicUnit":
        _require_record(other, PadicUnit, "the other unit")
        p, precision = self.p, self.precision
        if p != other.p or precision != other.precision:
            raise DomainError(f"mixed unit groups: ({p}, {precision}) vs ({other.p}, {other.precision})")
        return PadicUnit._trusted(p, precision, self.value * other.value % _unit_group(p, precision)[2])

    def pow(self, k: int) -> "PadicUnit":
        """k-th power, any integer k; units are invertible mod p^N."""
        _require_int(k, "exponent")
        p, precision = self.p, self.precision
        return PadicUnit._trusted(p, precision, pow(self.value, k, _unit_group(p, precision)[2]))


def _unit_draws(rng: random.Random, p: int, precision: int, count: int) -> list[int]:
    """The values of count PadicUnit.random draws for a checked p and precision, in draw order.

    1 + c*r, c = p^_unit_level(p), is a reduced principal unit as drawn.
    """
    c, bound, _ = _unit_group(p, precision)
    return [1 + c * rng.randrange(bound) for _ in range(count)]


def _floor_log(n: int, p: int) -> int:
    e, power = 0, p
    while power <= n:
        e, power = e + 1, power * p
    return e


# The largest digit table a plan may hold; p^b <= _TABLE_CAP.
_TABLE_CAP = 128


def _log_cutoff(p: int, n_prec: int, level: int) -> int:
    """The first k with k*level - floor(log_p k) >= N: the series cutoff for v(x) >= level mod p^N."""
    cutoff = -(-n_prec // level)  # no smaller k reaches the bound even before floor(log_p k) is taken off
    while cutoff * level - _floor_log(cutoff, p) < n_prec:
        cutoff += 1
    return cutoff


def _log_plan(p: int, n_prec: int, digits: tuple[int, ...] = ()) -> tuple:
    """padic_log's (p, N) plan whose stage i reads digits[i] digits, b_i <= L_i < N.

    The tuple holds p^w, p^N, the stages and the last level's series
    coefficients from the top k down.  Stage i at level L_i holds
    p^(b_i), the entries g_i^(-d) = (1 - p^(L_i))^d mod p^N and
    d log(g_i) for d < p^(b_i), and p^(L_i + b_i).  Every level is a
    multiple rG of the grain G = gcd(w, b_0, ...), so one list t_j =
    D p^(jG) / j, D the lcm of 1 .. cutoff(G) - 1 without its p-part,
    gives every level's D p^(kL) / k = r t_(kr); the terms past its end
    are 0 mod p^N.  One inverse of D makes them residues.
    """
    w, modulus = _unit_level(p), p**n_prec
    grain = gcd(w, *digits)
    cutoff = _log_cutoff(p, n_prec, grain)
    denominator = lcm(*range(1, cutoff)) // p ** _floor_log(cutoff - 1, p)
    inverse, step = pow(denominator, -1, modulus), p**grain
    base = [power // j for j, power in zip(range(1, cutoff), accumulate(repeat(step), mul, initial=denominator * step))]
    stages, level = [], w
    for b in digits:
        table, factor = [1], 1 - p**level
        for _ in range(p**b - 1):  # a one-word factor: no table step is a full product
            table.append(table[-1] * factor % modulus)
        r = level // grain
        log_g = r * sum(base[r - 1 :: r]) * inverse % modulus
        stages.append((p**b, tuple(table), tuple(range(0, p**b * log_g, log_g)), p ** (level + b)))
        level += b
    r = level // grain
    coefficients = [(t if k % 2 else -t) * r * inverse % modulus for k, t in enumerate(base[r - 1 :: r], 1)]
    while coefficients and not coefficients[-1]:
        coefficients.pop()  # a top d_k = 0 mod p^N leaves t = 0 through its Horner step
    return p**w, modulus, tuple(stages), tuple(coefficients[::-1])


@cache
def _log_series(p: int, n_prec: int) -> tuple:
    """padic_log's plan for (p, N): the stages needing the fewest multiplications.

    The stages are greedy, each reading b_i = min(L_i, log_p _TABLE_CAP)
    digits, which for a given stage count reaches the highest level.  A
    plan costs 2 per stage for its table multiply and its division, and
    cutoff - 1 Horner steps.  Ties go to fewer stages.  No further stage
    is taken once the cost before the cutoff already loses, and a cutoff
    is not walked where ceil(N / L), its floor, already loses.  Only the
    cutoffs are compared, so the tables and the coefficients are built
    for the winner alone.
    """
    top, best = _floor_log(_TABLE_CAP, p), (2 * n_prec + 1,)  # no cutoff exceeds 2N
    cost, level, digits = 0, _unit_level(p), ()
    while cost < best[0]:  # the cutoff is at least 1; every cost leaves out the same constant -1
        if (cost - (-n_prec // level), len(digits)) < best:  # ceil(N / L) <= cutoff
            best = min(best, (cost + _log_cutoff(p, n_prec, level), len(digits), digits))
        b = min(level, top)  # 0 above p = 128: the cost still climbs, and no such stage can win
        digits, level, cost = (*digits, b), level + b, cost + 2
    return _log_plan(p, n_prec, best[2])


def _logs(p: int, n_prec: int, residues: list[int]) -> list[int]:
    """log(y) mod p^N in p Z/p^N (4 Z/2^N) for each reduced residue y = 1 mod p^w, by one read of the plan.

    Each stage reads the digits d = (y - 1) / p^L mod p^b at its level L, multiplies y by g^(-d) and adds
    d log(g); the new y must be 1 mod p^(L+b), which the next stage and the cutoff rest on.  One Horner pass
    t = (t + d_k) * x' mod p^N, x' = (y - 1) / p^L at the last level L, gives the rest of log(y).  A division
    that leaves a remainder, or a log outside the subgroup, raises VerificationError.
    """
    step, modulus, stages, coefficients = _log_series(p, n_prec)
    logs = []
    for y in residues:
        x, rest = divmod(y - 1, step)
        if rest:
            raise VerificationError(f"u - 1 is not divisible by {step}: u is not a principal unit")
        total = 0
        for size, table, cleared, shift in stages:
            digits = x % size
            y, total = y * table[digits] % modulus, total + cleared[digits]
            x, rest = divmod(y - 1, shift)
            if rest:
                raise VerificationError(f"y g^-{digits} - 1 is not divisible by {shift}: a wrong digit table")
        series = 0
        for coefficient in coefficients:
            series = (series + coefficient) * x % modulus
        result = (total + series) % modulus
        if result % step:
            raise VerificationError(f"log left the expected subgroup {step}Z/{p}^{n_prec}")
        logs.append(result)
    return logs


def padic_log(u: PadicUnit) -> int:
    """log(u) mod p^precision as a reduced integer in p Z/p^N (4 Z/2^N), through the kernel ``_logs``."""
    _require_record(u, PadicUnit, "the unit")
    return _logs(u.p, u.precision, [u.value])[0]


class LogLinkChain(Record):
    """Valuations v_n = v0 * p^n of the same prime along a chain window.

    Moving one step toward smaller n divides the valuation by p: the
    chain records how the normalization of v(p) drifts, entry by entry,
    with no operation that would identify different indices.  The
    constructor calls ``chain_build`` and refuses all entries but its.
    """

    p: int
    v0: Fraction
    window: tuple[int, int]
    entries: tuple[tuple[int, Fraction], ...]

    def __init__(self, p: int, v0: Fraction, window: tuple[int, int], entries: tuple[tuple[int, Fraction], ...]):
        self._assign(p, v0, window, entries, built=chain_build(p, v0, window))

    def value_at(self, n: int) -> Fraction:
        lo, hi = self.window
        _require_int(n, "index", lo, hi)
        return self.entries[n - lo][1]


def chain_build(p: int, v0: Fraction, window: tuple[int, int]) -> LogLinkChain:
    """Build the chain v_n = v0 * p^n over an inclusive index window: the one formula for the entries
    (n, v0 * p^n), which ``LogLinkChain`` compares against, positive for v0 > 0, each p times the last."""
    _require_prime(p)
    _require_positive(v0, "v0")
    lo, hi = _require_window(window)
    return LogLinkChain._trusted(p, v0, (lo, hi), tuple((n, v0 * Fraction(p) ** n) for n in range(lo, hi + 1)))


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
