"""Finite-support model of a perfect valuation ring in characteristic p.

Elements are finite F_p-linear combinations of powers t^e where the
exponents e range over the nonnegative part of Z[1/p], that is,
rationals whose denominator is a power of p.  The Gauss valuation is
normalized by v(t) = 1.  Because F_p has no zero divisors, the lowest
terms of a product never cancel, so the valuation is exactly additive
under multiplication.  Frobenius raises coefficients to the p-th power
(the identity on F_p) and multiplies every exponent by p; the exponent
lattice is p-divisible, so Frobenius is invertible here.

An element is stored on one integer exponent frame: terms c * t^(m / p^s)
as (m, c) pairs over one scale s, the least that holds them, so equal
elements have equal fields.  phi^n only lowers s by n; it rewrites the
numerators when s would drop below 0, or to strip factors p when phi^-n
starts at s = 0.  An integer power follows the base-p digits of its
exponent, top-down: x^k = phi(x^(k // p)) * x^(k mod p) (``_powers``), so
the only powers multiplied out are the digit powers x^d with d < p.

The product kernels put both operands on the larger frame, multiply
integers and make the result's frame minimal once; their results skip
the validator (``Record._trusted``).  The test "y == phi^n(a^k)"
(:func:`_power_check`) builds no power as an element: it shifts y's
numerators into a's frame and compares them, as one dict, with an entry
of one table of a's powers, remembered by that predicate only.

A valuation is a plain Fraction, and None stands for the +infinity of
the zero element.  Fraction exponents are read from the ``terms`` view,
built on each access.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
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
_Nums = tuple[tuple[int, int], ...]


def _minimal(p: int, s: int, nums: list[tuple[int, int]] | _Nums) -> tuple[int, _Nums]:
    """(s, nums) for sorted, reduced, nonzero terms c * t^(m / p^s), moved to the minimal frame."""
    k = 0
    if s:
        g = gcd(*[m for m, _ in nums])
        while k < s and g % p == 0:  # g = 0 (no terms, or t^0 alone) strips the whole frame
            g //= p
            k += 1
    q = p**k
    return s - k, tuple([(m // q, c) for m, c in nums] if k else nums)


class TiltElement(Record):
    """Finite F_p-combination of powers t^e with e in Z[1/p], e >= 0.

    ``nums`` holds the terms c * t^(m / p^s) as (m, c) pairs, m strictly
    increasing and c reduced to 1..p-1, over the minimal scale s (s = 0 or
    some m prime to p); zero is the empty tuple.  ``terms`` gives them with
    Fraction exponents.  Build through :meth:`from_terms`, :meth:`monomial`,
    :meth:`zero` or :meth:`one`; the validator runs either way.
    """

    p: int
    s: int
    nums: _Nums

    def __init__(self, p: int, s: int, nums: _Nums):
        if not is_prime(p):
            raise DomainError(f"coefficient characteristic must be prime, got {p}")
        if isinstance(s, bool) or not isinstance(s, int) or s < 0:
            raise DomainError(f"frame scale must be a nonnegative integer, got {s!r}")
        prev = -1
        for m, coeff in nums:
            if isinstance(m, bool) or not isinstance(m, int) or m < 0:
                raise DomainError(f"exponent numerator {m!r} is not a nonnegative int")
            if isinstance(coeff, bool) or not isinstance(coeff, int) or not 0 < coeff < p:
                raise DomainError(f"coefficient {coeff!r} is not reduced to 1..{p - 1}")
            if m <= prev:
                raise DomainError("terms must be strictly increasing in the exponent")
            prev = m
        if s and not any(m % p for m, _ in nums):
            raise DomainError(f"frame {p}^{s} is not minimal: no numerator is prime to {p}")
        self._assign(p, s, nums)

    @classmethod
    def from_terms(cls, p: int, terms: Mapping[_RatLike, int]) -> "TiltElement":
        """Build an element from an exponent -> coefficient mapping.

        Coefficients are reduced mod p and zero terms dropped, so any
        integer coefficient is accepted, but not a bool: True is no residue.
        """
        collected: dict[Fraction, int] = {}
        for exponent, coeff in terms.items():
            e = _exact(exponent, "exponent")
            if isinstance(coeff, bool) or not isinstance(coeff, int):
                raise DomainError(f"coefficient {coeff!r} is not an integer")
            collected[e] = collected.get(e, 0) + coeff
        den = lcm(*[e.denominator for e in collected])
        s, rest = 0, den
        while p > 1 and rest % p == 0:
            rest, s = rest // p, s + 1
        if rest != 1:
            raise DomainError(f"exponent denominators (lcm {den}) are not powers of {p}")
        nums = sorted((e.numerator * (den // e.denominator), c % p) for e, c in collected.items() if c % p)
        return cls(p, *_minimal(p, s, nums))

    @classmethod
    def monomial(cls, p: int, exponent: _RatLike, coeff: int = 1) -> "TiltElement":
        return cls.from_terms(p, {exponent: coeff})

    @classmethod
    def zero(cls, p: int) -> "TiltElement":
        return cls(p, 0, ())

    @classmethod
    def one(cls, p: int) -> "TiltElement":
        return cls.monomial(p, 0)

    @property
    def terms(self) -> tuple[tuple[Fraction, int], ...]:
        """(exponent, coefficient) pairs with Fraction exponents m / p^s, in increasing order."""
        den = self.p**self.s
        return tuple([(Fraction(m, den), c) for m, c in self.nums])

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def support(self) -> tuple[Fraction, ...]:
        """The exponents carrying a nonzero coefficient, in increasing order."""
        return tuple(e for e, _ in self.terms)


def tilt_val(x: TiltElement) -> Fraction | None:
    """Gauss valuation with v(t) = 1; None for the zero element, whose valuation is +infinity."""
    return Fraction(x.nums[0][0], x.p**x.s) if x.nums else None


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
    p, s = x.p, max(x.s, y.s)
    if y.p != p:
        raise ConfigError(f"cannot combine elements over F_{p} and F_{y.p}")
    a, b = ({m * p ** (s - z.s): c for m, c in z.nums} for z in (x, y))
    return TiltElement._trusted(p, *_minimal(p, s, sorted(_convolve(a, b, p).items())))


def _powers(base: Mapping[int, int], p: int) -> Callable[[int], Mapping[int, int]]:
    """k -> base^k on integer exponents by a^k = phi(a^(k // p)) * a^(k mod p), keeping (and sharing) each one built.

    A single term c*t^e needs no digits: its k-th power is c^k t^(ke).
    """
    if len(base) == 1:
        (e, c), = base.items()
        return lambda k: {e * k: pow(c, k, p)}
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
    """k-th power for k >= 0 by the base-p digits of k (see the module docstring); k = 0 is the empty product."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise DomainError(f"exponent must be a nonnegative integer, got {k!r}")
    return TiltElement._trusted(x.p, *_minimal(x.p, x.s, sorted(_powers(dict(x.nums), x.p)(k).items())))


def _power_check(a: TiltElement) -> Callable[..., bool]:
    """The predicate (y, k, n=0) -> y == tilt_frobenius(tilt_pow(a, k), n) for ints k >= 0 and n.

    phi^n(a^k) has a^k's numerators over p^(s_a - n), so y's numerators times p^(s_a - n - s_y)
    must be those of a^k from one ``_powers`` table; no power is built as an element.
    """
    p, s, power = a.p, a.s, _powers(dict(a.nums), a.p)

    def check(y: TiltElement, k: int, n: int = 0) -> bool:
        target = power(k)
        if y.p != p or len(y.nums) != len(target):
            return False
        shift = s - n - y.s
        q = p ** abs(shift)
        if shift >= 0:
            return {m * q: c for m, c in y.nums} == target
        # a remainder: no twisted power of a is this fine
        return not any(m % q for m, _ in y.nums) and {m // q: c for m, c in y.nums} == target

    return check


def tilt_frobenius(x: TiltElement, n: int = 1) -> TiltElement:
    """n-th Frobenius twist: every exponent is multiplied by p**n.

    Coefficients are fixed because c**p = c on F_p; negative n applies the
    inverse.  The scale s drops by n over the same numerators, unless it
    would drop below 0 or phi^-n starts at s = 0.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"Frobenius power must be an integer, got {n!r}")
    if n == 0:
        return x
    p, s = x.p, x.s - n
    if s < 0:  # the frame clears: every numerator takes the factor p^(n - x.s)
        q = p**-s
        return TiltElement._trusted(p, 0, tuple([(m * q, c) for m, c in x.nums]))
    if n > 0 or x.s:  # a numerator prime to p is still there, so the frame stays minimal
        return TiltElement._trusted(p, s, x.nums)
    return TiltElement._trusted(p, *_minimal(p, s, x.nums))


def tilt_rescale_t(x: TiltElement, u: int) -> TiltElement:
    """Ring substitution t -> u*t for a unit u of F_p.

    u^e for e = m / p^s is u^(e mod p - 1), well defined as p is invertible
    mod p - 1, so the substitution is multiplicative; as p = 1 mod p - 1
    and u^(p - 1) = 1, it is u^m.  Exponents, hence valuations, are kept.
    Over F_2 the only unit is u = 1.
    """
    p = x.p
    if isinstance(u, bool) or not isinstance(u, int) or not 0 < u < p:
        raise DomainError(f"substitution unit must be an integer in 1..{p - 1}, got {u!r}")
    # u is a unit of F_p, so the coefficient stays in 1..p-1; exponents are unchanged
    return TiltElement._trusted(p, x.s, tuple([(m, c * pow(u, m, p) % p) for m, c in x.nums]))
