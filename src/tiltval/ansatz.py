"""Square-power families of degree-one primes and their invariants.

An ansatz point for an odd prime ell != p is the tuple

    ( [a^(j^2)] - p )  for j = 1 .. ell* = (ell - 1) / 2

attached to a generator a with 0 < v(a) < +inf.  Membership of a given
tuple is decidable exactly: the candidate generator is read off the
first entry and the remaining entries must equal its j^2-th powers on
the nose.  There is no root extraction anywhere, so no numerical
tolerance either.

Frobenius acts on a point member by member, and the images must again
be the square powers of the image generator; valuations scale by p^n,
while the shape of the valuation profile, the quadratic progression
j^2 * v(a), is preserved.  The profile is also invariant under every
exponent-preserving coefficient substitution, such as t -> u*t for a
unit u of F_p, and that invariance is checkable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from ._record import Record
from .errors import DomainError, VerificationError
from .tilt import TiltElement, _require_window, tilt_frobenius, tilt_pow, tilt_val
from .witt import PrimitiveDeg1, _require_family_ell, primitive_frobenius, primitive_pow_family

__all__ = [
    "AnsatzPoint",
    "HolomorphoidRecord",
    "frobenius_orbit",
    "is_member",
    "make_ansatz",
    "untilt_records",
    "valuation_profile",
    "scale_invariance_check",
]


class AnsatzPoint(Record):
    """A generator a together with its square-power family for ell.

    The constructor re-derives every member from ``a`` and refuses
    anything that is not exactly the j^2-th power, so an AnsatzPoint can
    be trusted wherever it came from.
    """

    a: TiltElement
    ell: int
    members: tuple[PrimitiveDeg1, ...]

    def __init__(self, a: TiltElement, ell: int, members: tuple[PrimitiveDeg1, ...]):
        _require_family_ell(ell, a.p)
        ell_star = (ell - 1) // 2
        if len(members) != ell_star:
            raise DomainError(f"expected {ell_star} members for ell = {ell}")
        for j, member in enumerate(members, start=1):
            if member.a != tilt_pow(a, j * j):
                raise DomainError(f"member {j} is not the {j * j}-th power of the generator")
        self._assign(a, ell, members)

    @property
    def ell_star(self) -> int:
        return (self.ell - 1) // 2


def make_ansatz(a: TiltElement, ell: int) -> AnsatzPoint:
    """Build the family ([a^(j^2)] - p)_j for j = 1 .. (ell - 1)/2."""
    return AnsatzPoint(a=a, ell=ell, members=primitive_pow_family(a, ell))


def is_member(members: Sequence[PrimitiveDeg1]) -> bool:
    """Decide whether a tuple is a square-power family, exactly.

    The only possible generator is the first entry's element, since the
    j = 1 member is a itself; every later entry is then compared against
    the forced power.  Entries over mismatched ground fields simply fail.
    """
    if not members:
        raise DomainError("membership needs at least one entry")
    candidate = members[0].a
    for j, member in enumerate(members, start=1):
        if member.a != tilt_pow(candidate, j * j):
            return False
    return True


def frobenius_orbit(point: AnsatzPoint, window: tuple[int, int]) -> tuple[AnsatzPoint, ...]:
    """The points over phi^n(a) for n in the inclusive window.

    Each point's members are the images phi^n([a^(j^2)] - p) of the
    given point's members; the constructor then checks them against
    (phi^n a)^(j^2), so every orbit point verifies that Frobenius
    commutes with the square powers.  A mismatch there is a kernel
    fault, not bad input, and raises VerificationError.
    """
    lo, hi = _require_window(window)
    orbit = []
    for n in range(lo, hi + 1):
        members = tuple(primitive_frobenius(m, n) for m in point.members)
        try:
            orbit.append(AnsatzPoint(a=tilt_frobenius(point.a, n), ell=point.ell, members=members))
        except DomainError as exc:
            raise VerificationError(f"Frobenius translate n = {n} left the ansatz: {exc}") from exc
    return tuple(orbit)


def valuation_profile(point: AnsatzPoint) -> tuple[Fraction, ...]:
    """The tuple (v(a^(j^2)))_j = (j^2 * v(a))_j in tilt units."""
    return tuple(tilt_val(m.a).as_fraction() for m in point.members)


def scale_invariance_check(
    point: AnsatzPoint, substitution: Callable[[TiltElement], TiltElement]
) -> bool:
    """Check that an exponent-preserving substitution fixes the invariants.

    The substitution must preserve the support of every element it is
    applied to (anything of the t -> u*t kind does); that is enforced,
    not assumed.  Returns True when the substituted tuple is still a
    member and its valuation profile is unchanged.
    """
    image = substitution(point.a)
    if image.support() != point.a.support():
        raise DomainError("substitution does not preserve the exponent support")
    new_members = []
    for member in point.members:
        sub = substitution(member.a)
        if sub.support() != member.a.support():
            raise DomainError("substitution does not preserve the exponent support")
        new_members.append(PrimitiveDeg1(sub))
    if not is_member(new_members):
        return False
    new_profile = tuple(tilt_val(m.a).as_fraction() for m in new_members)
    return new_profile == valuation_profile(point)


class HolomorphoidRecord(Record):
    """One untilt attached to a family member: a label, its Tate-style
    parameter valuation, and the member index it came from."""

    label: str
    member_index: int
    tate_valuation: Fraction

    def __init__(self, label: str, member_index: int, tate_valuation: Fraction):
        if member_index < 1:
            raise DomainError("member index counts from 1")
        if tate_valuation <= 0:
            raise DomainError("the Tate parameter valuation must be positive")
        self._assign(label, member_index, tate_valuation)


def untilt_records(point: AnsatzPoint, v_q: Fraction, label: str) -> tuple[HolomorphoidRecord, ...]:
    """Tag each member with an untilt record at parameter valuation v_q * j^2.

    Bookkeeping only: the j-th member's untilt sees the parameter with
    valuation scaled by the same square law as the generator.
    """
    if v_q <= 0:
        raise DomainError("v_q must be positive")
    return tuple(
        HolomorphoidRecord(
            label=f"{label}.{j}",
            member_index=j,
            tate_valuation=v_q * j * j,
        )
        for j in range(1, point.ell_star + 1)
    )
