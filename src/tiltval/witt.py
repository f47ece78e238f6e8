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
from .tilt import TiltElement, _exact, _require_bool, _require_int, _require_positive, _require_prime, _require_record
from .tilt import _frobenius, _shown, _val
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
    rho = 1 is selected by ``at_one``, a bool, with the weight pinned to 0.
    """

    r: Fraction
    at_one: bool

    def __init__(self, r: Fraction, at_one: bool = False):
        _require_bool(at_one, "at_one")  # 1 or "yes" would make a boundary weight unequal to RhoWeight.one()
        if not at_one:
            _require_positive(r, "interior weight")
        elif not (isinstance(r, Fraction) and r == 0):
            raise DomainError("the boundary norm carries weight Fraction(0)")
        self._assign(r, at_one)

    @classmethod
    def of(cls, r: Union[Fraction, int]) -> "RhoWeight":
        return cls(_exact(r, "weight"))

    @classmethod
    def one(cls) -> "RhoWeight":
        return cls(Fraction(0), at_one=True)


class WittExpr(Record):
    """A presentation sum_i [x_i] * p^i with nonzero tilt entries x_i, as a tuple of (i, x_i) tuples."""

    p: int
    terms: tuple[tuple[int, TiltElement], ...]

    def __init__(self, p: int, terms: tuple[tuple[int, TiltElement], ...]):
        _require_prime(p, "residue characteristic")
        if not isinstance(terms, tuple) or not all(isinstance(term, tuple) and len(term) == 2 for term in terms):
            raise DomainError(f"terms must be a tuple of (slot, entry) tuples, got {_shown(terms)}")  # or hash() fails
        prev = -1
        for slot, x in terms:
            _require_int(slot, "slot index", prev + 1)  # slots strictly increasing from 0
            if not isinstance(x, TiltElement) or x.p != p:
                raise DomainError(f"slot {_shown(slot, str)} entry is not a tilt element over F_{p}")
            if x.is_zero:
                raise DomainError(f"slot {_shown(slot, str)} holds zero; drop empty slots instead")
            prev = slot
        self._assign(p, terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms


def teichmuller(x: TiltElement) -> WittExpr:
    """The single-slot presentation [x]; zero maps to the empty presentation."""
    _require_record(x, TiltElement, "the element")
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
    _require_record(w, WittExpr, "the presentation")
    _require_record(rho, RhoWeight, "the weight")
    if w.is_zero:
        return None
    return min(_val(x) + slot * rho.r for slot, x in w.terms)


class PrimitiveDeg1(Record):
    """Generator data [a] - p of a degree-one prime, with 0 < v(a) < +inf.

    Only ``a`` is stored; the constructor refuses (DomainError) all but a
    nonzero TiltElement of the open unit disk, which is exactly the
    condition for [a] - p to be primitive of degree one.
    """

    a: TiltElement

    def __init__(self, a: TiltElement):
        if not isinstance(a, TiltElement) or a.is_zero or not a.nums[0][0]:  # v(a): the lowest numerator over p^s
            raise DomainError(f"generator must be a TiltElement with 0 < v(a) < +inf, got {_shown(a)}")
        self._assign(a)


def primitive_frobenius(w: PrimitiveDeg1, n: int = 1) -> PrimitiveDeg1:
    """Frobenius on generator data: [a] - p maps to [a^(p^n)] - p."""
    # Frobenius scales the valuation by p^n > 0, so 0 < v < +inf still holds
    return PrimitiveDeg1._trusted(_frobenius(w.a, n))


def eta_val(prim: PrimitiveDeg1, x: TiltElement) -> Fraction | None:
    """Valuation of the image of [x] in the untilt cut out by [a] - p.

    Normalized so that v(p) = 1 there; concretely v(x) / v(a).  The zero
    element maps to None, meaning +infinity; other types are a DomainError.
    """
    _require_record(prim, PrimitiveDeg1, "eta_val's generator data")
    _require_record(x, TiltElement, "eta_val's element")
    if x.is_zero:
        return None
    a = prim.a  # (m_x / p^s_x) / (m_a / p^s_a), built as one Fraction
    return Fraction(x.nums[0][0] * a.p**a.s, a.nums[0][0] * x.p**x.s)
