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
the only powers multiplied out are the digit powers x^d with d < p.  One
such table serves a whole square-power family (``_power_table``), whose
members share the digit powers and top-down prefixes, and its Frobenius
orbit: ``_powers`` caches its last table on (nums, p), and phi^n(a)
keeps a's numerators.

The product kernels put both operands on the larger frame, multiply
integers and make the result's frame minimal once; their results skip
the validator (``Record._trusted``).  A multi-term power table is
byte-packed where bytes hold it exactly (``_packing``; Kronecker
substitution): slot e of the entry for x^k holds the coefficient of
t^((k * m0 + g * e) / p^s), m0 being x's least numerator and g the gcd of
its gaps.  phi is one strided copy and a product one multiply of two
little-endian integers, reduced mod p by one bytes.translate.  Large p and
sparse x keep the dict table, and so does a power longer than
``_ENTRY_MAX`` bytes; ``tilt_mul`` keeps ``_convolve``.

The test "y == phi^n(a^k)" (:func:`_power_check`) builds no power as an
element: y's numerators, shifted into a's frame, are compared with a^k's
terms as ``_powers`` hands them out, decoded once from a's cached table.

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
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, lcm
from typing import Any, Callable, Mapping, Union

from ._record import Record
from .errors import DomainError

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


def _require_prime(p: int, name: str = "p") -> None:
    if not is_prime(p):
        raise DomainError(f"{name} must be prime, got {p!r}")


def _require_odd_prime(ell: int) -> None:
    if not is_prime(ell) or ell == 2:
        raise DomainError(f"ell must be an odd prime, got {ell}")


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
        raise DomainError(f"{name} {precision} is below the minimum {floor} for p = {p}")


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
        raise DomainError(f"cannot combine elements over F_{p} and F_{y.p}")
    a, b = ({m * p ** (s - z.s): c for m, c in z.nums} for z in (x, y))
    return TiltElement._trusted(p, *_minimal(p, s, sorted(_convolve(a, b, p).items())))


_SLOT_MAX = 255  # a packed slot holds any sum up to this; _packing admits no table where a sum could pass it
_ENTRY_MAX = 1 << 16  # the longest packed entry in bytes; a longer power of a packed table is a dict entry
_RESIDUES: dict[int, bytes] = {}  # p -> the 256-byte table v -> v mod p, one bytes.translate per product


def _packing(nums: _Nums, p: int) -> tuple[int, int] | None:
    """The byte layout (m0, g) of a's power table, or None where bytes cannot hold it exactly.

    a = t^(m0 / p^s) * b(t^(g / p^s)), m0 its least numerator and g the gcd of its gaps, so b has
    span + 1 slots.  A digit power b^d = b^(d-1) * b adds at most span + 1 products of two residues
    in one slot, each at most (p - 1)^2.  A table product phi(h) * b^d meets, in one slot, only the
    slots of b^d in one residue class mod p, since phi(h) sits on multiples of p: at most
    ceil((d * span + 1) / p) <= span of them for d < p.  So (span + 1) * (p - 1)^2 <= 255 keeps every
    slot sum in its byte.  That admits p <= 11; a single term, or a span that is too sparse
    (t^(1/8) + t^(1/4) + t^1000), keeps the dict table.
    """
    if len(nums) < 2:
        return None
    m0 = nums[0][0]
    g = gcd(*[m - m0 for m, _ in nums])
    if ((nums[-1][0] - m0) // g + 1) * (p - 1) ** 2 > _SLOT_MAX:
        return None
    if p not in _RESIDUES:
        _RESIDUES[p] = bytes([v % p for v in range(256)])
    return m0, g


def _table(
    p: int, table: dict, mul: Callable[[Any, Any], Any], spill: Callable[[], Callable[[int], Any]] | None = None
) -> Callable[[int], Any]:
    """k -> base^k by base^k = phi(base^(k // p)) * base^(k mod p), keeping (and sharing) each one built.

    table is {0: base^0, 1: base}, both packed entries or both dicts of numerators to coefficients; each
    power built, digit powers too, is stored under its exponent, so the entry for k is the same whatever
    asked first.  A packed table takes spill, which makes the dict table that builds every power longer
    than ``_ENTRY_MAX`` bytes; it is made once, at the first such power.
    """
    base = table[1]
    k_max = _ENTRY_MAX // (len(base) - 1) if spill else 0
    spilled = None

    def power(k: int) -> Any:
        nonlocal spilled
        got = table.get(k)
        if got is None:
            if k < p:  # a digit power: each missing one up to k is built from the one below it
                for d in range(2, k + 1):
                    got = table[d] = table.get(d) or mul(table[d - 1], base)
            elif spill and k > k_max:
                spilled = spilled or spill()
                got = spilled(k)
            else:
                high, d = divmod(k, p)
                h = power(high)
                if isinstance(h, dict):
                    got = {e * p: c for e, c in h.items()}
                else:
                    got = bytearray(p * (len(h) - 1) + 1)
                    got[::p] = h
                if d:
                    got = mul(got, power(d))
            table[k] = got
        return got

    return power


@lru_cache(maxsize=1)
def _powers(nums: _Nums, p: int) -> Callable[[int], _Nums]:
    """power: k -> a^k's terms, sorted (numerator, coefficient) pairs on a's frame, for the element with these terms.

    The only reader of the table's entries.  With a layout (m0, g) from ``_packing``, an entry of at most
    ``_ENTRY_MAX`` bytes is the byte string of the module docstring; any other entry is a dict of a^k's
    numerators to coefficients.  Every longer power is read from one dict table, built at the first of
    them, so each costs what its result holds.  A single term c * t^(m / p^s) needs no table: its k-th
    entry is the dict {m * k: c^k mod p}.  Each k asked is decoded once, and its terms are kept beside
    the table.  The last answer is cached on (nums, p), not s, so phi^n(a) reads a's table.  One table
    is live at a time, as large as the largest power asked of it; the next call on other terms releases it.
    """
    layout = _packing(nums, p)
    by_dict = lambda: _table(p, {0: {0: 1}, 1: dict(nums)}, lambda x, y: _convolve(x, y, p))
    if len(nums) == 1:
        (m, c), = nums
        entry = lambda k: {m * k: pow(c, k, p)}
    elif layout is None:
        entry = by_dict()
    else:
        m0, g = layout
        slots = bytearray((nums[-1][0] - m0) // g + 1)
        for m, c in nums:
            slots[(m - m0) // g] = c
        mod = _RESIDUES[p]
        entry = _table(p, {0: b"\x01", 1: bytes(slots)}, lambda x, y: (
            (int.from_bytes(x, "little") * int.from_bytes(y, "little")).to_bytes(len(x) + len(y) - 1, "little")
        ).translate(mod), by_dict)
    decoded: dict[int, _Nums] = {}

    def power(k: int) -> _Nums:
        terms = decoded.get(k)
        if terms is None:
            got = entry(k)
            if isinstance(got, dict):
                terms = tuple(sorted(got.items()))
            else:  # the numerators of the nonzero slots, with their coefficients
                base = k * m0
                terms = tuple(zip(compress(range(base, base + g * len(got), g), got), got.translate(None, b"\0")))
            decoded[k] = terms
        return terms

    return power


def _power_table(x: TiltElement) -> Callable[[int], TiltElement]:
    """k -> x^k for ints k >= 0, every power read from one ``_powers`` table of x, shared by all k."""
    p, s, power = x.p, x.s, _powers(x.nums, x.p)
    return lambda k: TiltElement._trusted(p, *_minimal(p, s, power(k)))


def tilt_pow(x: TiltElement, k: int) -> TiltElement:
    """k-th power for k >= 0 by the base-p digits of k (see the module docstring); k = 0 is the empty product."""
    _require_count(k, "exponent")
    return _power_table(x)(k)


def _power_check(a: TiltElement) -> Callable[..., bool]:
    """The predicate (y, k, n=0) -> y == tilt_frobenius(tilt_pow(a, k), n) for ints k >= 0 and n.

    phi^n(a^k) has a^k's numerators over p^(s_a - n), so y's numerators times p^(s_a - n - s_y)
    must be those of a^k; ``up`` and ``down`` keep both sides integers.  a^k's terms come from the
    ``_powers`` table of a's (nums, p), shared by every call and by every caller on a or phi^n(a)
    while the cache holds it.
    """
    p, s, power = a.p, a.s, _powers(a.nums, a.p)

    def check(y: TiltElement, k: int, n: int = 0) -> bool:
        terms, shift = power(k), s - n - y.s  # below 0, y's numerators must be p^-shift times a^k's
        if y.p != p or len(y.nums) != len(terms):
            return False
        if shift == 0:
            return y.nums == terms
        up, down = (p**shift, 1) if shift > 0 else (1, p**-shift)
        return [(m * up, c) for m, c in y.nums] == [(m * down, c) for m, c in terms]

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
