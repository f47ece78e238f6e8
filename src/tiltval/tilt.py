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
of one table of a's powers, remembered by that predicate only.  A one-term
a = c * t^(m / p^s), as every CLI witness is, needs neither table nor dict:
y's single (numerator, coefficient) pair, on the shifted frame, must be
(m * k, c^k mod p).

A valuation is a plain Fraction, and None stands for the +infinity of
the zero element.  Fraction exponents are read from the ``terms`` view,
built on each access.

The package's parameter checks live here too; other modules call them.
The integer rule is ``_is_int``, an int and not a bool.  ``is_prime``,
``_exact`` and the integer validators ``_require_int``, ``_require_count``,
``_require_prime``, ``_require_odd_prime``, ``_require_precision`` and
``_require_window`` apply it; ``_require_positive`` wants a positive Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Mapping, Union

from ._record import Record
from .errors import ConfigError, DomainError, PrecisionError, TiltvalError

__all__ = [
    "TiltElement",
    "is_prime",
    "tilt_frobenius",
    "tilt_mul",
    "tilt_pow",
    "tilt_rescale_t",
    "tilt_val",
]


def _is_int(x: object) -> bool:
    """The one integer rule: an int and not a bool, for True == 1 is no count, index or residue."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_prime(n: int) -> bool:
    """Trial-division primality test; exact for any int, meant for small ones.  No bool or non-int is prime."""
    if not _is_int(n) or n < 2:
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


def _require_prime(p: int, name: str = "p", error: type[TiltvalError] = DomainError) -> None:
    if not is_prime(p):
        raise error(f"{name} must be prime, got {p!r}")


def _require_odd_prime(ell: int, error: type[TiltvalError] = DomainError) -> None:
    if not is_prime(ell) or ell == 2:
        raise error(f"ell must be an odd prime, got {ell}")


def _unit_level(p: int) -> int:
    """v with principal units 1 + p^v Z_p: 2 at p = 2, else 1."""
    return 2 if p == 2 else 1


def _require_int(x: object, name: str) -> None:
    if not _is_int(x):
        raise DomainError(f"{name} must be an integer, got {x!r}")


def _require_count(x: object, name: str) -> None:
    if not _is_int(x) or x < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {x!r}")


def _require_positive(x: object, name: str) -> None:
    if not isinstance(x, Fraction) or x <= 0:
        raise DomainError(f"{name} must be a positive Fraction, got {x!r}")


def _require_precision(p: int, precision: int, name: str = "precision") -> None:
    _require_int(precision, name)
    floor = _unit_level(p) + 1
    if precision < floor:
        raise PrecisionError(f"{name} {precision} is below the minimum {floor} for p = {p}")


def _require_window(window: object) -> tuple[int, int]:
    """An inclusive index window: a tuple of two ints lo <= hi."""
    if not (isinstance(window, tuple) and len(window) == 2 and all(map(_is_int, window))) or window[0] > window[1]:
        raise DomainError(f"window must be an inclusive integer range, got {window!r}")
    return window


def _exact(x: object, what: str) -> Fraction:
    if not (_is_int(x) or isinstance(x, Fraction)):
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
    Fraction exponents.  Build through :meth:`from_terms` or :meth:`monomial`.
    The validating constructor also refuses a ``nums`` that is not a tuple
    of (m, c) tuples, so equal elements hash alike.
    """

    p: int
    s: int
    nums: _Nums

    def __init__(self, p: int, s: int, nums: _Nums):
        _require_prime(p, "coefficient characteristic")
        _require_count(s, "frame scale")
        if not isinstance(nums, tuple) or not all(isinstance(term, tuple) and len(term) == 2 for term in nums):
            raise DomainError(f"terms must be a tuple of (numerator, coefficient) tuples, got {nums!r}")
        prev = -1
        for m, coeff in nums:
            _require_count(m, "exponent numerator")
            if not _is_int(coeff) or not 0 < coeff < p:
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
        p is checked first, before any reduction mod p.  The frame built
        from checked inputs is sorted, reduced and minimal, all that the
        validator checks, so it is skipped (``_trusted``) and p is tested
        for primality once per element.
        """
        _require_prime(p, "coefficient characteristic")
        collected: dict[Fraction, int] = {}
        for exponent, coeff in terms.items():
            e = _exact(exponent, "exponent")
            if e < 0:
                raise DomainError(f"exponent {e} is negative")
            _require_int(coeff, "coefficient")
            collected[e] = collected.get(e, 0) + coeff
        den = lcm(*[e.denominator for e in collected])
        s, rest = 0, den
        while rest % p == 0:
            rest, s = rest // p, s + 1
        if rest != 1:
            raise DomainError(f"exponent denominators (lcm {den}) are not powers of {p}")
        nums = sorted((e.numerator * (den // e.denominator), c % p) for e, c in collected.items() if c % p)
        return cls._trusted(p, *_minimal(p, s, nums))

    @classmethod
    def monomial(cls, p: int, exponent: _RatLike, coeff: int = 1) -> "TiltElement":
        return cls.from_terms(p, {exponent: coeff})

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
    _require_count(k, "exponent")
    return TiltElement._trusted(x.p, *_minimal(x.p, x.s, sorted(_powers(dict(x.nums), x.p)(k).items())))


def _table_check(a: TiltElement) -> Callable[..., bool]:
    """``_power_check``'s predicate read off one ``_powers`` table of a, for a of any term count.

    phi^n(a^k) has a^k's numerators over p^(s_a - n), so y's numerators times p^(s_a - n - s_y)
    must be those of a^k; no power is built as an element.
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


def _power_check(a: TiltElement) -> Callable[..., bool]:
    """The predicate (y, k, n=0) -> y == tilt_frobenius(tilt_pow(a, k), n) for ints k >= 0 and n.

    A one-term a = c * t^(m / p^s_a) needs no table: y must be one term whose (numerator,
    coefficient), on the frame shifted by s_a - n - s_y, is (m * k, c^k mod p).  Any other a
    goes through ``_table_check``.
    """
    if len(a.nums) != 1:
        return _table_check(a)
    p, s = a.p, a.s
    (m, c), = a.nums

    def check(y: TiltElement, k: int, n: int = 0) -> bool:
        if y.p != p or len(y.nums) != 1:
            return False
        (my, cy), = y.nums
        shift = s - n - y.s  # below 0, y's numerator must be p^-shift times a^k's, or y is too fine
        return (my * p ** max(shift, 0), cy) == (m * k * p ** max(-shift, 0), pow(c, k, p))

    return check


def tilt_frobenius(x: TiltElement, n: int = 1) -> TiltElement:
    """n-th Frobenius twist: every exponent is multiplied by p**n.

    Coefficients are fixed because c**p = c on F_p; negative n applies the
    inverse.  The scale s drops by n over the same numerators, unless it
    would drop below 0 or phi^-n starts at s = 0.
    """
    _require_int(n, "Frobenius power")
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
    if not _is_int(u) or not 0 < u < p:
        raise DomainError(f"substitution unit must be an integer in 1..{p - 1}, got {u!r}")
    # u is a unit of F_p, so the coefficient stays in 1..p-1; exponents are unchanged
    return TiltElement._trusted(p, x.s, tuple([(m, c * pow(u, m, p) % p) for m, c in x.nums]))
