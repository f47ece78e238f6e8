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
base-p digits of its exponent, top-down: x^k = phi(x^(k // p)) * x^(k mod p).
:func:`tilt_pow` uses that identity (``_powers``), so the only powers it
multiplies out are the digit powers x^d with d < p; each further digit
costs one exponent scaling and one product with a digit power.

The product kernels run on integer exponents over the largest exponent
denominator of their operands (the lcm of them all, each being a power
of p) and turn back into sorted Fractions once.  Kernel results are
valid by construction and skip the validator (``Record._trusted``).
The test "y == phi^n(a^k)" (:func:`_power_check`) builds no power as an
element: it compares y's exponents, mapped into a's frame, with integers
from one table of a's powers, remembered by that predicate only.

A valuation is a plain Fraction, and None stands for the +infinity of
the zero element.  Every stored exponent is a Fraction already: the
validator refuses anything else, and :meth:`TiltElement.from_terms`
converts ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable, Mapping, Union

from ._record import Record
from .errors import ConfigError, DomainError, TiltvalError

__all__ = [
    "TiltElement",
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


def _exact(x: object, what: str) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise DomainError(f"{what} must be an int or a Fraction, got {x!r}")
    return x if isinstance(x, Fraction) else Fraction(x)


def _is_p_power(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


_RatLike = Union[Fraction, int]


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
            if isinstance(coeff, bool) or not isinstance(coeff, int) or not 0 < coeff < p:
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
            e = _exact(exponent, "exponent")
            collected[e] = (collected.get(e, 0) + coeff) % p
        reduced = tuple(sorted((e, c) for e, c in collected.items() if c))
        return cls(p, reduced)

    @classmethod
    def monomial(cls, p: int, exponent: _RatLike, coeff: int = 1) -> "TiltElement":
        return cls.from_terms(p, {exponent: coeff})

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


def tilt_val(x: TiltElement) -> Fraction | None:
    """Gauss valuation with v(t) = 1; None for the zero element, whose valuation is +infinity."""
    return x.terms[0][0] if x.terms else None


def _require_same_p(x: TiltElement, y: TiltElement) -> int:
    if x.p != y.p:
        raise ConfigError(f"cannot combine elements over F_{x.p} and F_{y.p}")
    return x.p


def _scaled(x: TiltElement, den: int) -> dict[int, int]:
    """x's terms as {e * den: c}; den is a multiple of every exponent denominator."""
    return {e.numerator * (den // e.denominator): c for e, c in x.terms}


def _from_scaled(p: int, scaled: Mapping[int, int], den: int) -> TiltElement:
    """The element sum c * t^(e / den) over reduced, nonzero {e: c}, e >= 0, den a power of p."""
    return TiltElement._trusted(p, tuple([(Fraction(e, den), scaled[e]) for e in sorted(scaled)]))


def _convolve(a: Mapping[int, int], b: Mapping[int, int], p: int) -> dict[int, int]:
    """Product of two integer exponent -> coefficient maps on one scale, reduced mod p, zeros dropped."""
    acc: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            acc[e] = (acc.get(e, 0) + ca * cb) % p
    return {e: c for e, c in acc.items() if c}


def tilt_mul(x: TiltElement, y: TiltElement) -> TiltElement:
    """Exact product; valuations add because F_p is an integral domain."""
    p = _require_same_p(x, y)
    den = max((e.denominator for e, _ in x.terms + y.terms), default=1)
    return _from_scaled(p, _convolve(_scaled(x, den), _scaled(y, den), p), den)


def _powers(base: Mapping[int, int], p: int) -> Callable[[int], Mapping[int, int]]:
    """k -> base^k on integer exponents by a^k = phi(a^(k // p)) * a^(k mod p), keeping (and sharing) each one built."""
    digits: list[Mapping[int, int]] = [{0: 1}, base]
    table: dict[int, Mapping[int, int]] = {}

    def power(k: int) -> Mapping[int, int]:
        if k < p:
            for _ in range(len(digits), k + 1):
                digits.append(_convolve(digits[-1], base, p))
            return digits[k]
        got = table.get(k)
        if got is None:
            high, d = divmod(k, p)
            got = {e * p: c for e, c in power(high).items()}
            if d:
                got = _convolve(got, power(d), p)
            table[k] = got
        return got

    return power


def tilt_pow(x: TiltElement, k: int) -> TiltElement:
    """k-th power for k >= 0 by the base-p digits of k (see the module docstring); k = 0 is the empty product.

    A single term c*t^e needs no digits: its k-th power is c^k t^(ke).
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise DomainError(f"exponent must be a nonnegative integer, got {k!r}")
    p = x.p
    if len(x.terms) == 1:
        e, c = x.terms[0]
        return TiltElement._trusted(p, ((Fraction(e.numerator * k, e.denominator), pow(c, k, p)),))
    den = max((e.denominator for e, _ in x.terms), default=1)
    return _from_scaled(p, _powers(_scaled(x, den), p)(k), den)


def _power_check(a: TiltElement) -> Callable[..., bool]:
    """The predicate (y, k, n=0) -> y == tilt_frobenius(tilt_pow(a, k), n) for ints k >= 0 and n.

    No power is built as an element: y's exponents f go into a's frame as
    f * den / p^n and meet the integers of a^k from one ``_powers`` table.
    """
    p = a.p
    if len(a.terms) == 1:  # y must be one term c^k t^f with f == k*e*p^n, compared by cross-multiplying
        (e, c), = a.terms

        def check(y: TiltElement, k: int, n: int = 0) -> bool:
            if y.p != p or len(y.terms) != 1:
                return False
            f, cy = y.terms[0]
            up, down = (p**n, 1) if n >= 0 else (1, p**-n)
            return cy == pow(c, k, p) and f.numerator * e.denominator * down == e.numerator * k * f.denominator * up

        return check
    den = max((e.denominator for e, _ in a.terms), default=1)
    power = _powers(_scaled(a, den), p)

    def check(y: TiltElement, k: int, n: int = 0) -> bool:
        if y.p != p:
            return False
        up, down = (den, p**n) if n >= 0 else (den * p**-n, 1)
        target = power(k)
        if len(y.terms) != len(target):
            return False
        for f, cy in y.terms:  # distinct exponents map to distinct integers, so matching each term suffices
            g, fden = f.numerator * up, f.denominator * down
            if g % fden or target.get(g // fden) != cy:  # a remainder: no twisted power of a is this fine
                return False
        return True

    return check


def tilt_frobenius(x: TiltElement, n: int = 1) -> TiltElement:
    """n-th Frobenius twist: every exponent is multiplied by p**n.

    Coefficients are fixed because c**p = c on F_p.  Negative n applies
    the inverse; exponent denominators stay p-powers either way.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"Frobenius power must be an integer, got {n!r}")
    if n == 0:
        return x
    up, down = (x.p**n, 1) if n >= 0 else (1, x.p**-n)
    # p**n > 0 keeps the exponent order, and the coefficients are already reduced
    return TiltElement._trusted(x.p, tuple([(Fraction(e.numerator * up, e.denominator * down), c) for e, c in x.terms]))


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
    terms = []
    for e, c in x.terms:
        r = (e.numerator * pow(e.denominator, -1, m)) % m if m > 1 else 0
        # u is a unit of F_p, so the coefficient stays in 1..p-1; exponents are unchanged
        terms.append((e, c * pow(u, r, p) % p))
    return TiltElement._trusted(p, tuple(terms))
