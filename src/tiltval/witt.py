"""Teichmuller-style expressions over the tilt model and their Gauss norms.

A :class:`WittExpr` stores a chosen presentation sum_i [x_i] * p^i with
each x_i in the tilt model.  No carry arithmetic is performed: two
presentations of the same underlying element are distinct values here,
and the norm attached to a presentation is an upper bound for the norm
of the element it denotes.  On a single Teichmuller term the bound is
the exact value, which is all the downstream size estimates use.

Norms are kept in additive (logarithmic) form.  For the weight r of
rho = |t|^r the log-norm of a presentation is

    lambda = min_i ( v(x_i) + i * r )

so lambda >= 0 says the presentation certifies membership in the ring of
integral elements for that rho.  The empty presentation denotes zero; its
minimum runs over no slots, so its log-norm is +infinity, returned as
None like the valuation of zero; zero is integral for every rho.  The
boundary norm at rho = 1 is the degenerate weight r = 0 and gets its own
flag rather than a zero weight smuggled through the same code path.
Degree-one generator data [a] - p lives here too; ``ansatz`` builds the
square-power families ([a^(j^2)] - p)_j from it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from ._record import Record
from .errors import DomainError
from .tilt import TiltElement, _exact, _require_count, _require_prime, tilt_frobenius, tilt_val
# No code here calls tilt_pow; perfbench/selftest.py checks that its tracer patches this name too.
from .tilt import tilt_pow  # noqa: F401

__all__ = [
    "PrimitiveDeg1",
    "RhoWeight",
    "WittExpr",
    "eta_val",
    "gauss_log_norm",
    "primitive_frobenius",
    "teichmuller",
]


class RhoWeight(Record):
    """Weight r selecting the Gauss norm with rho = |t|^r.

    Interior points of the relevant disk have r > 0; the boundary norm at
    rho = 1 is selected by ``at_one`` with the weight pinned to 0.
    """

    r: Fraction
    at_one: bool

    def __init__(self, r: Fraction, at_one: bool = False):
        if not isinstance(r, Fraction):
            raise DomainError("weight must be a Fraction")
        if at_one:
            if r != 0:
                raise DomainError("the boundary norm carries weight 0")
        elif r <= 0:
            raise DomainError(f"interior weight must be positive, got {r}")
        self._assign(r, at_one)

    @classmethod
    def of(cls, r: Union[Fraction, int]) -> "RhoWeight":
        return cls(_exact(r, "weight"))

    @classmethod
    def one(cls) -> "RhoWeight":
        return cls(Fraction(0), at_one=True)

    @property
    def weight(self) -> Fraction:
        return Fraction(0) if self.at_one else self.r


class WittExpr(Record):
    """A presentation sum_i [x_i] * p^i with nonzero tilt entries x_i."""

    p: int
    terms: tuple[tuple[int, TiltElement], ...]

    def __init__(self, p: int, terms: tuple[tuple[int, TiltElement], ...]):
        _require_prime(p, "residue characteristic")
        prev = None
        for slot, x in terms:
            _require_count(slot, "slot index")
            if prev is not None and slot <= prev:
                raise DomainError("slots must be strictly increasing")
            if not isinstance(x, TiltElement) or x.p != p:
                raise DomainError(f"slot {slot} entry is not a tilt element over F_{p}")
            if x.is_zero:
                raise DomainError(f"slot {slot} holds zero; drop empty slots instead")
            prev = slot
        self._assign(p, terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms


def teichmuller(x: TiltElement) -> WittExpr:
    """The single-slot presentation [x]; zero maps to the empty presentation."""
    if x.is_zero:
        return WittExpr(x.p, ())
    return WittExpr(x.p, ((0, x),))


def gauss_log_norm(w: WittExpr, rho: RhoWeight) -> Fraction | None:
    """Additive Gauss norm min_i (v(x_i) + i*r) of a presentation.

    Returns None, meaning +infinity, for the empty presentation: the
    minimum over no slots (norm 0 in multiplicative terms).  Exact on
    Teichmuller terms, an upper bound for the denoted element otherwise;
    see the module docstring.
    """
    if w.is_zero:
        return None
    wt = rho.weight
    return min(tilt_val(x) + slot * wt for slot, x in w.terms)


class PrimitiveDeg1(Record):
    """Generator data [a] - p of a degree-one prime, with 0 < v(a) < +inf.

    Only ``a`` is stored; the constructor enforces that a is a nonzero
    element of the open unit disk, which is exactly the condition for
    [a] - p to be primitive of degree one.
    """

    a: TiltElement

    def __init__(self, a: TiltElement):
        if a.is_zero or not a.nums[0][0]:  # v(a) is the lowest numerator over p^s
            raise DomainError("generator must satisfy 0 < v(a) < +inf")
        self._assign(a)


def primitive_frobenius(w: PrimitiveDeg1, n: int = 1) -> PrimitiveDeg1:
    """Frobenius on generator data: [a] - p maps to [a^(p^n)] - p."""
    # Frobenius scales the valuation by p^n > 0, so 0 < v < +inf still holds
    return PrimitiveDeg1._trusted(tilt_frobenius(w.a, n))


def eta_val(prim: PrimitiveDeg1, x: TiltElement) -> Fraction | None:
    """Valuation of the image of [x] in the untilt cut out by [a] - p.

    Normalized so that v(p) = 1 there; concretely v(x) / v(a).  The zero
    element maps to None, meaning +infinity.
    """
    if x.is_zero:
        return None
    a = prim.a  # (m_x / p^s_x) / (m_a / p^s_a), built as one Fraction
    return Fraction(x.nums[0][0] * a.p**a.s, a.nums[0][0] * x.p**x.s)
