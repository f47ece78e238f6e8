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

The product kernels run on integer exponents over the largest exponent
denominator of their operands (the lcm of them all, each being a power
of p) and turn back into sorted Fractions once.  Kernel results are
valid by construction and skip the validator (``Record._trusted``).
The test "y == a^k" (:func:`_power_check`) builds no power as an element:
it compares integers over a's exponent denominator and keeps a's digit
powers a^d, so a whole square-power family costs one table of them.

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


def _pow_scaled(base: Mapping[int, int], k: int, p: int, powers: list[dict[int, int]]) -> dict[int, int]:
    """base^k on integer exponents by the base-p digits of k; powers[d] = base^d, grown here as needed."""
    digits = []
    while k:
        k, d = divmod(k, p)
        digits.append(d)
    for _ in range(len(powers), max(digits, default=0) + 1):
        powers.append(_convolve(powers[-1], base, p))
    result, scale = {0: 1}, 1
    for d in digits:
        if d:
            result = _convolve(result, {e * scale: c for e, c in powers[d].items()}, p)
        scale *= p
    return result


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
    return _from_scaled(p, _pow_scaled(_scaled(x, den), k, p, [{0: 1}]), den)


def _power_check(a: TiltElement) -> Callable[[TiltElement, int], bool]:
    """The predicate (y, k) -> y == tilt_pow(a, k) for ints k >= 0, decided on integers without building a^k."""
    p = a.p
    if len(a.terms) == 1:  # y must be one term c^k t^f with f == k*e, compared by cross-multiplying
        (e, c), = a.terms

        def check(y: TiltElement, k: int) -> bool:
            if y.p != p or len(y.terms) != 1:
                return False
            f, cy = y.terms[0]
            return cy == pow(c, k, p) and f.numerator * e.denominator == e.numerator * k * f.denominator

        return check
    den = max((e.denominator for e, _ in a.terms), default=1)
    base, powers = _scaled(a, den), [{0: 1}]

    def check(y: TiltElement, k: int) -> bool:
        if y.p != p:
            return False
        scaled = {}
        for f, cy in y.terms:
            if den % f.denominator:  # no power of a has an exponent this fine
                return False
            scaled[f.numerator * (den // f.denominator)] = cy
        return scaled == _pow_scaled(base, k, p, powers)

    return check


def tilt_frobenius(x: TiltElement, n: int = 1) -> TiltElement:
    """n-th Frobenius twist: every exponent is multiplied by p**n.

    Coefficients are fixed because c**p = c on F_p.  Negative n applies
    the inverse; exponent denominators stay p-powers either way.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"Frobenius power must be an integer, got {n!r}")
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
