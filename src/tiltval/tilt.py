"""Finite-support model of a perfect valuation ring in characteristic p.

Elements are finite F_p-linear combinations of powers t^e where the
exponents e range over the nonnegative part of Z[1/p], that is,
rationals whose denominator is a power of p.  The Gauss valuation is
normalized by v(t) = 1.  Because F_p has no zero divisors, the lowest
terms of a product never cancel, so the valuation is exactly additive
under multiplication.  Frobenius raises coefficients to the p-th power
(the identity on F_p) and multiplies every exponent by p; the exponent
lattice is p-divisible, so Frobenius is invertible here.

Because Frobenius is the p-th power map, an integer power follows the
base-p digits of its exponent: with k = sum_i d_i p^i and every d_i < p,
x^k = prod_i phi^i(x^(d_i)).  :func:`tilt_pow` uses that identity, so
the only powers it multiplies out are x^d with d < p; the rest is
exponent scaling.

Valuations are returned as :class:`TiltVal`, a totally ordered wrapper
around Fraction with a single infinite value reserved for the valuation
of zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import isqrt
from typing import Mapping, Union

from ._record import Record
from .errors import ConfigError, DomainError, TiltvalError

__all__ = [
    "INF_VAL",
    "TiltElement",
    "TiltVal",
    "is_prime",
    "tilt_frobenius",
    "tilt_mul",
    "tilt_pow",
    "tilt_rescale_t",
    "tilt_val",
]


def is_prime(n: int) -> bool:
    """Trial-division primality test; exact for any int, meant for small ones."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    root = isqrt(n)
    while d <= root:
        if n % d == 0:
            return False
        d += 2
    return True


def _require_odd_prime(ell: int, error: type[TiltvalError] = DomainError) -> None:
    if not is_prime(ell) or ell == 2:
        raise error(f"ell must be an odd prime, got {ell}")


def _require_window(window: tuple[int, int]) -> tuple[int, int]:
    lo, hi = window
    if not (isinstance(lo, int) and isinstance(hi, int) and lo <= hi):
        raise DomainError(f"window must be an inclusive integer range, got {window!r}")
    return lo, hi


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


_RatLike = Union[Fraction, int]


@total_ordering
class TiltVal(Record):
    """A valuation value: an exact rational, or infinite for the zero element.

    ``value is None`` encodes +infinity.  Comparisons and addition accept
    plain ints and Fractions on either side, so ``tilt_val(x) == Fraction(1, 4)``
    reads naturally in callers.
    """

    value: Fraction | None

    def __init__(self, value: Fraction | int | None):
        if value is not None and not isinstance(value, Fraction):
            if not isinstance(value, int):
                raise DomainError(f"valuation must be a Fraction, int, or None, got {type(value).__name__}")
            value = Fraction(value)
        self._assign(value)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def as_fraction(self) -> Fraction:
        if self.value is None:
            raise DomainError("the zero element has no finite valuation")
        return self.value

    @staticmethod
    def _coerce(other: object) -> "TiltVal | None":
        if isinstance(other, TiltVal):
            return other
        if isinstance(other, (int, Fraction)):
            return TiltVal(Fraction(other))
        return None

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.value == o.value

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.value is None:
            return False
        if o.value is None:
            return True
        return self.value < o.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __add__(self, other: "TiltVal | _RatLike") -> "TiltVal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.value is None or o.value is None:
            return INF_VAL
        return TiltVal(self.value + o.value)

    __radd__ = __add__

    def __mul__(self, scalar: _RatLike) -> "TiltVal":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar <= 0:
            raise DomainError("valuations only scale by positive factors")
        if self.value is None:
            return INF_VAL
        return TiltVal(self.value * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return "TiltVal(+inf)" if self.value is None else f"TiltVal({self.value})"


INF_VAL = TiltVal(None)


class TiltElement(Record):
    """Finite F_p-combination of powers t^e with e in Z[1/p], e >= 0.

    ``terms`` holds (exponent, coefficient) pairs in strictly increasing
    exponent order with coefficients reduced to 1..p-1; the zero element
    is the empty tuple.  Construct through :meth:`from_terms`,
    :meth:`monomial`, :meth:`zero`, or :meth:`one` rather than passing a
    raw tuple; the validator runs either way.
    """

    p: int
    terms: tuple[tuple[Fraction, int], ...]

    def __init__(self, p: int, terms: tuple[tuple[Fraction, int], ...]):
        if not is_prime(p):
            raise DomainError(f"coefficient characteristic must be prime, got {p}")
        prev = None
        for exponent, coeff in terms:
            if not isinstance(exponent, Fraction):
                raise DomainError("exponents must be Fraction instances")
            if exponent < 0:
                raise DomainError(f"exponent {exponent} is negative")
            if not _is_p_power(exponent.denominator, p):
                raise DomainError(f"exponent denominator {exponent.denominator} is not a power of {p}")
            if not isinstance(coeff, int) or not 0 < coeff < p:
                raise DomainError(f"coefficient {coeff!r} is not reduced to 1..{p - 1}")
            if prev is not None and exponent <= prev:
                raise DomainError("terms must be strictly increasing in the exponent")
            prev = exponent
        self._assign(p, terms)

    @classmethod
    def from_terms(cls, p: int, terms: Mapping[_RatLike, int]) -> "TiltElement":
        """Build an element from an exponent -> coefficient mapping.

        Coefficients are reduced mod p and zero terms dropped, so any
        integer coefficients are accepted.
        """
        collected: dict[Fraction, int] = {}
        for exponent, coeff in terms.items():
            e = Fraction(exponent)
            collected[e] = (collected.get(e, 0) + coeff) % p
        reduced = tuple(sorted((e, c) for e, c in collected.items() if c))
        return cls(p, reduced)

    @classmethod
    def monomial(cls, p: int, exponent: _RatLike, coeff: int = 1) -> "TiltElement":
        return cls.from_terms(p, {Fraction(exponent): coeff})

    @classmethod
    def zero(cls, p: int) -> "TiltElement":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "TiltElement":
        return cls.monomial(p, 0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple[Fraction, ...]:
        """The exponents carrying a nonzero coefficient, in increasing order."""
        return tuple(e for e, _ in self.terms)


def tilt_val(x: TiltElement) -> TiltVal:
    """Gauss valuation with v(t) = 1; the zero element maps to +infinity."""
    if not x.terms:
        return INF_VAL
    return TiltVal(x.terms[0][0])


def _require_same_p(x: TiltElement, y: TiltElement) -> int:
    if x.p != y.p:
        raise ConfigError(f"cannot combine elements over F_{x.p} and F_{y.p}")
    return x.p


def _convolve(a: Mapping, b: Mapping, p: int) -> dict:
    """Product of two exponent -> coefficient maps, reduced mod p, zeros dropped.

    Exponents may be Fractions or plain ints, as long as both maps use
    the same scale.
    """
    acc: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            acc[e] = (acc.get(e, 0) + ca * cb) % p
    return {e: c for e, c in acc.items() if c}


def tilt_mul(x: TiltElement, y: TiltElement) -> TiltElement:
    """Exact product; valuations add because F_p is an integral domain."""
    p = _require_same_p(x, y)
    return TiltElement.from_terms(p, _convolve(dict(x.terms), dict(y.terms), p))


def tilt_pow(x: TiltElement, k: int) -> TiltElement:
    """k-th power for k >= 0 by the base-p digits of k; k = 0 is the empty product.

    Writes k = sum_i d_i p^i with 0 <= d_i < p and forms
    x^k = prod_i phi^i(x^(d_i)), where phi^i multiplies every exponent by
    p^i.  Each x^d is built once, by repeated products, for d up to the
    largest digit.  All of it runs on integer exponents over the largest
    exponent denominator of x, which is the lcm of them all because each
    is a power of p; the one element built at the end is fully validated.
    A single term c*t^e needs none of that: its k-th power is c^k t^(ke).
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise DomainError(f"exponent must be a nonnegative integer, got {k!r}")
    p = x.p
    if len(x.terms) == 1:
        e, c = x.terms[0]
        return TiltElement(p, ((e * k, pow(c, k, p)),))
    den = max((e.denominator for e, _ in x.terms), default=1)
    base = {e.numerator * (den // e.denominator): c for e, c in x.terms}
    digits = []
    while k:
        k, d = divmod(k, p)
        digits.append(d)
    powers = [{0: 1}]  # powers[d] = x^d
    for _ in range(max(digits, default=0)):
        powers.append(_convolve(powers[-1], base, p))
    result = {0: 1}
    scale = 1
    for d in digits:
        if d:
            result = _convolve(result, {e * scale: c for e, c in powers[d].items()}, p)
        scale *= p
    return TiltElement.from_terms(p, {Fraction(e, den): c for e, c in result.items()})


def tilt_frobenius(x: TiltElement, n: int = 1) -> TiltElement:
    """n-th Frobenius twist: every exponent is multiplied by p**n.

    Coefficients are fixed because c**p = c on F_p.  Negative n applies
    the inverse; exponent denominators stay p-powers either way.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"Frobenius power must be an integer, got {n!r}")
    scale = Fraction(x.p) ** n
    # scale > 0 keeps the exponent order, and the coefficients are already reduced
    return TiltElement(x.p, tuple((e * scale, c) for e, c in x.terms))


def tilt_rescale_t(x: TiltElement, u: int) -> TiltElement:
    """Ring substitution t -> u*t for a unit u of F_p.

    A fractional exponent e = m / p^k acts through its residue mod p - 1,
    where p is invertible, so u^e is well defined and the substitution is
    multiplicative.  Every exponent is preserved, hence so is every
    valuation.  Over F_2 the only unit is u = 1.
    """
    p = x.p
    if not isinstance(u, int) or not 0 < u < p:
        raise DomainError(f"substitution unit must be an integer in 1..{p - 1}, got {u!r}")
    m = p - 1
    new: dict[Fraction, int] = {}
    for e, c in x.terms:
        r = (e.numerator * pow(e.denominator, -1, m)) % m if m > 1 else 0
        new[e] = (c * pow(u, r, p)) % p
    return TiltElement.from_terms(p, new)
