"""Exact p-adic logarithms of principal units and valuation chains.

The logarithm is computed in integers, never in rationals.  For a
principal unit u (u = 1 mod p for odd p, u = 1 mod 4 for p = 2) at
precision N, the argument is reduced twice before the series runs.

First, for a depth m, the power y = u^(p^m) mod p^(N+m) satisfies
v(y - 1) = v(u - 1) + m, so y - 1 has valuation at least w = m + 1
(m + 2 for p = 2), and log(y) = p^m log(u) mod p^(N+m).  That bound is
checked by dividing y - 1 exactly by p^w, which leaves x.

Second, the next b base-p digits d = x mod p^b are cleared in one
multiply, as libm logarithms do with a table (Tang, ACM TOMS 16(4),
1990).  With g = 1 + p^w, g^d = 1 + d p^w mod p^(2w), so for b <= w the
table entry g^(-d) makes y' = y g^(-d) = 1 mod p^(w+b); past b = w the
square term of g^d would leave digits behind.  That bound is checked by
a second exact division, of y' - 1 by p^(w+b), which leaves x'.  Then
log(y) = log(y') + d log(g), with log(g) worked out once.  The table has
p^b entries, at most 128, so it builds in well under a millisecond; for
p > 128 that leaves b = 0 and the table (1,).

log(1 + p^s x') = sum_k (-1)^(k+1) (p^s x')^k / k, s = w + b, is the
integer polynomial sum_k d_k x'^k with d_k = (-1)^(k+1) u_k^-1
p^(k*s - v_p(k)), k = p^(v_p(k)) u_k, evaluated mod p^(N+m) in one
Horner pass.  The k-th term has valuation at least k*s - floor(log_p k),
and that bound never decreases in k, so the cutoff is the first k where
it reaches N + m; every dropped term is divisible by p^(N+m).  Finally
the sum is divided exactly by p^m.  Each of these divisions is checked:
a remainder, or a y that collapses to 1 for u != 1, raises
VerificationError instead of returning a wrong class.

The class depends on neither m nor b, only the work does.  Once per
(p, N), the pair with m in 0 .. isqrt(N), b <= w and p^b <= 128 that
takes the fewest multiplications is chosen: the argument power, 2 for
the table multiply and d log(g) when b > 0, and the Horner steps.  At
N = 14 that is m = 0 with b = 1 for 23 <= p < 128, and b = 0 above.

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
from math import isqrt

from ._record import Record
from .errors import ConfigError, DomainError, VerificationError
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
            raise ConfigError(
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


def _log_terms(p: int, reduced: int, level: int) -> list[int]:
    """d_k = (-1)^(k+1) p^(k*level) / k mod p^reduced for k = 1 .. cutoff - 1: log(1 + p^level x') = sum_k d_k x'^k."""
    reduced_mod = p**reduced
    terms = []
    for k in range(1, _log_cutoff(p, reduced, level)):
        unit, v = k, 0
        while unit % p == 0:
            unit, v = unit // p, v + 1
        term = pow(unit, -1, reduced_mod) * p ** (k * level - v)
        terms.append((term if k % 2 else -term) % reduced_mod)
    return terms


def _log_plan(p: int, n_prec: int, m: int, b: int = 0) -> tuple:
    """padic_log's (p, N) plan at depth m reading b digits, for b <= w.

    The tuple holds m, p^m, p^w, p^(N+m), p^b, the table g^(-d) mod
    p^(N+m) for d = 0 .. p^b - 1 (g = 1 + p^w), p^(w+b), log(g) mod
    p^(N+m), the subgroup constant p^_unit_level(p), and the series
    coefficients at level w + b from the top k down.  b = 0 is the
    Horner-only plan.  One set of level-w terms gives both log(g), their
    sum at x' = 1, and the level-(w + b) coefficients d_k p^(k*b).
    """
    w = m + _unit_level(p)
    reduced_mod, step, size = p ** (n_prec + m), p**w, p**b
    g_inverse = pow(1 + step, -1, reduced_mod)
    table = [1]
    for _ in range(size - 1):
        table.append(table[-1] * g_inverse % reduced_mod)
    terms = _log_terms(p, n_prec + m, w)
    coefficients = [term * size**k % reduced_mod for k, term in enumerate(terms, start=1)]
    while coefficients and not coefficients[-1]:
        coefficients.pop()  # a top d_k = 0 mod p^(N+m) leaves t = 0 through its Horner step
    log_g = sum(terms) % reduced_mod
    subgroup = p ** _unit_level(p)
    return m, p**m, step, reduced_mod, size, tuple(table), step * size, log_g, subgroup, tuple(coefficients[::-1])


@cache
def _log_series(p: int, n_prec: int) -> tuple:
    """padic_log's plan for (p, N): the depth m and digit count b needing the fewest multiplications.

    m runs over 0 .. isqrt(N) and b over 0 .. w with p^b <= _TABLE_CAP.
    A pair costs bit_length(p^m) + popcount(p^m) - 2 for the argument
    power, 2 when b > 0 for the table multiply and d log(g), and
    cutoff - 1 Horner steps.  Ties go to the smaller table, then the
    smaller m.  Only the cutoffs are compared, so the table and the
    coefficients are built for the winner alone.
    """
    candidates = []
    for m in range(isqrt(n_prec) + 1):
        power = (p**m).bit_length() + (p**m).bit_count()  # every cost leaves out the same constant -3
        w = m + _unit_level(p)
        for b in range(w + 1):
            if p**b > _TABLE_CAP:
                break
            cost = power + 2 * (b > 0) + _log_cutoff(p, n_prec + m, w + b)
            candidates.append((cost, p**b, m, b))
    *_, m, b = min(candidates)
    return _log_plan(p, n_prec, m, b)


def padic_log(u: PadicUnit) -> int:
    """log(u) mod p^precision as a reduced integer in p Z/p^N (4 Z/2^N).

    With the (p, N) plan's depth m and digit count b, y = u^(p^m) mod
    p^(N+m) must satisfy y = 1 mod p^w.  The digits d = (y - 1) / p^w mod
    p^b pick the table entry g^(-d), and y' = y g^(-d) must satisfy
    y' = 1 mod p^(w+b), the bound the cutoff rests on.  One Horner pass
    t = (t + d_k) * x' mod p^(N+m) over the coefficients, x' = (y' - 1) /
    p^(w+b), gives log(y'); adding d log(g) gives log(u^(p^m)) = p^m
    log(u), which is divided by p^m exactly.  A division that leaves a
    remainder raises VerificationError.
    """
    p, n_prec = u.p, u.precision
    if u.value == 1:
        return 0
    m, scale, step, reduced_mod, size, table, shift, log_g, subgroup, coefficients = _log_series(p, n_prec)
    y = pow(u.value, scale, reduced_mod)
    if y == 1:
        # v(u^(p^m) - 1) = v(u - 1) + m < N + m for u != 1.
        raise VerificationError(f"u^(p^{m}) collapsed to 1 mod {p}^{n_prec + m} for u != 1")
    x, rest = divmod(y - 1, step)
    if rest:
        raise VerificationError(f"u^(p^{m}) - 1 is not divisible by {step}: u is not a principal unit")
    digits = x % size
    x, rest = divmod(y * table[digits] % reduced_mod - 1, shift)
    if rest:
        raise VerificationError(f"u^(p^{m}) g^-{digits} - 1 is not divisible by {shift}: a wrong digit table")
    total = 0
    for coefficient in coefficients:
        total = (total + coefficient) * x % reduced_mod
    total = (total + digits * log_g) % reduced_mod
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
