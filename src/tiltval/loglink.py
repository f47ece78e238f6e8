"""Exact p-adic logarithms of principal units and valuation chains.

The logarithm is computed in integers, never in rationals.  For a
principal unit u (u = 1 mod p for odd p, u = 1 mod 4 for p = 2) at
precision N, first reduce the argument: with m = isqrt(N), the power y =
u^(p^m) mod p^(N+m) satisfies v(y - 1) = v(u - 1) + m, so x = y - 1 has
valuation at least w = m + 1 (m + 2 for p = 2), and log(y) = p^m log(u)
mod p^(N+m).  Then log(1 + x) = sum_k (-1)^(k+1) x^k / k is summed mod
p^(N+m).  The k-th term has valuation at least k*w - v_p(k) >= k*w -
floor(log_p k), and that bound never decreases in k, so the cutoff is
the first k where it reaches N + m; every dropped term is divisible by
p^(N+m).  Each x^k is kept mod p^(N+m+e), e the largest v_p(k) before
the cutoff, so that dividing it exactly by p^(v_p(k)) still leaves it
correct mod p^(N+m); what is left is multiplied by the inverse of k's
unit part.  Finally the sum is divided exactly by p^m and reduced mod
p^N.  Each of these divisions is checked: a remainder, or an x that
vanishes for u != 1, raises VerificationError instead of returning a
wrong class.

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
from math import isqrt

from ._record import Record
from .errors import ConfigError, DomainError, PrecisionError, VerificationError
from .tilt import _require_window, is_prime

__all__ = [
    "LogLinkChain",
    "PadicUnit",
    "chain_build",
    "kummer_shift",
    "m_of_epsilon",
    "padic_log",
]


def _require_precision(p: int, precision: int, name: str = "precision") -> None:
    floor = 3 if p == 2 else 2
    if precision < floor:
        raise PrecisionError(f"{name} {precision} is below the minimum {floor} for p = {p}", required=floor)


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
        if not is_prime(p):
            raise DomainError(f"p must be prime, got {p}")
        _require_precision(p, precision)
        if not isinstance(value, int) or not 0 <= value < p**precision:
            raise DomainError(f"value must be reduced mod {p}^{precision}")
        congruence = 4 if p == 2 else p
        if value % congruence != 1:
            raise DomainError(f"not a principal unit: {value} != 1 mod {congruence}")
        self._assign(p, precision, value)

    @classmethod
    def of(cls, p: int, precision: int, value: int) -> "PadicUnit":
        """Reduce an integer mod p^precision and wrap it."""
        return cls(p, precision, value % p**precision)

    @classmethod
    def random(cls, rng: random.Random, p: int, precision: int) -> "PadicUnit":
        """A uniformly drawn principal unit of Z/p^precision, one draw from rng."""
        _require_precision(p, precision)
        if p == 2:
            return cls.of(2, precision, 1 + 4 * rng.randrange(2 ** (precision - 2)))
        return cls.of(p, precision, 1 + p * rng.randrange(p ** (precision - 1)))

    @property
    def modulus(self) -> int:
        return self.p**self.precision

    def _check_same(self, other: "PadicUnit") -> None:
        if (self.p, self.precision) != (other.p, other.precision):
            raise ConfigError(
                f"mixed unit groups: ({self.p}, {self.precision}) vs ({other.p}, {other.precision})"
            )

    def mul(self, other: "PadicUnit") -> "PadicUnit":
        self._check_same(other)
        return PadicUnit(self.p, self.precision, (self.value * other.value) % self.modulus)

    def pow(self, k: int) -> "PadicUnit":
        """k-th power, any integer k; units are invertible mod p^N."""
        return PadicUnit(self.p, self.precision, pow(self.value, k, self.modulus))


def _floor_log(n: int, p: int) -> int:
    e = 0
    while p ** (e + 1) <= n:
        e += 1
    return e


def padic_log(u: PadicUnit) -> int:
    """log(u) mod p^precision as a reduced integer in p Z/p^N (4 Z/2^N).

    With m = isqrt(N), y = u^(p^m) mod p^(N+m) and x = y - 1, the
    integer series sum_k (-1)^(k+1) x^k / k mod p^(N+m) is
    log(y) = p^m log(u) mod p^(N+m); it is divided by p^m exactly and
    reduced mod p^N.  The cutoff is the first k with
    k*w - floor(log_p k) >= N + m, where w = m + 1 (m + 2 for p = 2)
    bounds v(x) from below.  Each x^k is kept mod p^(N+m+e), e the
    largest v_p(k) before the cutoff, divided exactly by p^(v_p(k)) and
    multiplied by the inverse of k's unit part.  A division that leaves
    a remainder raises VerificationError.
    """
    p, n_prec = u.p, u.precision
    if u.value == 1:
        return 0
    m = isqrt(n_prec)
    reduced = n_prec + m
    reduced_mod = p**reduced
    x = (pow(u.value, p**m, reduced_mod) - 1) % reduced_mod
    if x == 0:
        # v(u^(p^m) - 1) = v(u - 1) + m < N + m for u != 1.
        raise VerificationError(f"u^(p^{m}) collapsed to 1 mod {p}^{reduced} for u != 1")
    w = m + 2 if p == 2 else m + 1
    cutoff = 1
    while cutoff * w - _floor_log(cutoff, p) < reduced:
        cutoff += 1
    work_mod = p ** (reduced + _floor_log(cutoff - 1, p))
    total = 0
    x_pow = 1
    for k in range(1, cutoff):
        x_pow = x_pow * x % work_mod
        unit, shift = k, 1
        while unit % p == 0:
            unit //= p
            shift *= p
        term, rest = divmod(x_pow, shift)
        if rest:
            raise VerificationError(f"x^{k} is not divisible by {shift}")
        term = term * pow(unit, -1, reduced_mod)
        total = total + term if k % 2 else total - term
    total %= reduced_mod
    scale = p**m
    if total % scale:
        raise VerificationError(f"log(u^(p^{m})) is not divisible by p^{m}")
    result = total // scale % u.modulus
    subgroup = 4 if p == 2 else p
    if result % subgroup:
        raise VerificationError(f"log left the expected subgroup {subgroup}Z/{p}^{n_prec}")
    return result


def _require_chain_base(p: int, v0: Fraction) -> None:
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    if not isinstance(v0, Fraction) or v0 <= 0:
        raise DomainError(f"v0 must be a positive Fraction, got {v0!r}")


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
        _require_chain_base(p, v0)
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
        lo, hi = self.window
        if not lo <= n <= hi:
            raise DomainError(f"index {n} outside the chain window [{lo}, {hi}]")
        return self.entries[n - lo][1]


def chain_build(p: int, v0: Fraction, window: tuple[int, int]) -> LogLinkChain:
    """Build the chain v_n = v0 * p^n over an inclusive index window."""
    _require_chain_base(p, v0)
    lo, hi = _require_window(window)
    entries = tuple((n, v0 * Fraction(p) ** n) for n in range(lo, hi + 1))
    return LogLinkChain(p=p, v0=v0, window=(lo, hi), entries=entries)


def m_of_epsilon(p: int, eps: Fraction) -> int:
    """Least m >= 0 with 1/p^m strictly below eps, for eps < 1.

    A proximity demand of eps >= 1 is no demand at all and returns 0
    outright; eps <= 0 is meaningless.
    """
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    if not isinstance(eps, Fraction):
        raise DomainError(f"eps must be a Fraction, got {eps!r}")
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if eps >= 1:
        return 0
    m = 1
    while Fraction(1, p**m) >= eps:
        m += 1
    return m


def kummer_shift(n1: int, n2: int) -> int:
    """Index shift from chain position n1 to n2; shifts telescope."""
    if not (isinstance(n1, int) and isinstance(n2, int)):
        raise DomainError("chain positions are integers")
    return n2 - n1
