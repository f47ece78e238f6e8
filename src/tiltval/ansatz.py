"""Square-power families of degree-one primes and their invariants.

An ansatz point for an odd prime ell != p is the tuple

    ( [a^(j^2)] - p )  for j = 1 .. ell* = (ell - 1) / 2

attached to a generator a with 0 < v(a) < +inf; ``make_ansatz`` checks
ell and forms every member a^(j^2) itself, from one table of a's powers.
Membership of a given tuple is decidable exactly: the candidate generator
is read off the first entry and the remaining entries must equal its
j^2-th powers on the nose, compared as integer numerators on a's exponent
frame (see ``tilt``), each power of a built once per generator.  No root
is taken, so no numerical tolerance either.

Frobenius acts on a point member by member, and the images must again
be the square powers of the image generator.  phi^n(a) is a's numerators
on a frame n steps coarser, so a whole orbit is checked against one table
of a's own powers, each a^(j^2) built once however many points it has.
Valuations scale by p^n, while the shape of the valuation profile, the
quadratic progression j^2 * v(a), is preserved.  The profile is also
invariant under every exponent-preserving coefficient substitution, such
as t -> u*t for a unit u of F_p, and that invariance is checkable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from ._record import Record
from .errors import DomainError, VerificationError
from .tilt import TiltElement, _power_check, _power_table, _require_odd_prime, _require_window, tilt_frobenius, tilt_val
from .tilt import tilt_pow  # noqa: F401  unused here; perfbench/selftest.py checks that its tracer patches it
from .witt import PrimitiveDeg1, primitive_frobenius

__all__ = [
    "AnsatzPoint",
    "frobenius_orbit",
    "is_member",
    "make_ansatz",
    "valuation_profile",
    "scale_invariance_check",
]


def _require_family_ell(ell: int, p: int) -> None:
    _require_odd_prime(ell)
    if ell == p:
        raise DomainError(f"ell must differ from the residue characteristic {p}")


class AnsatzPoint(Record):
    """A generator a together with its square-power family for ell.

    The constructor re-derives every member from ``a`` and refuses
    anything that is not exactly the j^2-th power, so an AnsatzPoint can
    be trusted wherever it came from.  The powers are compared on integer
    exponents, each power of a built once for all j (``_power_check``).
    """

    a: TiltElement
    ell: int
    members: tuple[PrimitiveDeg1, ...]

    def __init__(self, a: TiltElement, ell: int, members: tuple[PrimitiveDeg1, ...]):
        _require_family_ell(ell, a.p)
        ell_star = (ell - 1) // 2
        if len(members) != ell_star:
            raise DomainError(f"expected {ell_star} members for ell = {ell}")
        is_power = _power_check(a)
        for j, member in enumerate(members, start=1):
            if not is_power(member.a, j * j):
                raise DomainError(f"member {j} is not the {j * j}-th power of the generator")
        self._assign(a, ell, members)

    @property
    def ell_star(self) -> int:
        return (self.ell - 1) // 2


def make_ansatz(a: TiltElement, ell: int) -> AnsatzPoint:
    """Build the family ([a^(j^2)] - p)_j for j = 1 .. (ell - 1)/2, ell an odd prime other than p.

    Every member is formed as a^(j^2), so the constructor's power check holds, all from one table of a's powers."""
    _require_family_ell(ell, a.p)
    power = _power_table(a)
    members = tuple(PrimitiveDeg1(power(j * j)) for j in range(1, (ell - 1) // 2 + 1))
    return AnsatzPoint._trusted(a, ell, members)


def is_member(members: Sequence[PrimitiveDeg1]) -> bool:
    """Decide whether a tuple is a square-power family, exactly.

    The only possible generator is the first entry's element, since the
    j = 1 member is a itself; every later entry is then compared against
    the forced power on integer exponents, each power of the generator
    built once for the whole tuple.  Mismatched ground fields simply fail.
    """
    if not members:
        raise DomainError("membership needs at least one entry")
    is_power = _power_check(members[0].a)
    return all(is_power(member.a, j * j) for j, member in enumerate(members, start=1))


def frobenius_orbit(point: AnsatzPoint, window: tuple[int, int]) -> tuple[AnsatzPoint, ...]:
    """The points over phi^n(a) for n in the inclusive window.

    Each point's members are the images phi^n([a^(j^2)] - p) of the
    given point's members.  One predicate on a (``_power_check``) makes
    the ``AnsatzPoint`` constructor's comparisons for every n, each
    a^(j^2) built once for the whole orbit, so every orbit point verifies
    that Frobenius commutes with the square powers.  A mismatch there is
    a kernel fault, not bad input, and raises VerificationError.
    """
    lo, hi = _require_window(window)
    is_twisted_power = _power_check(point.a)
    orbit = []
    for n in range(lo, hi + 1):
        a = tilt_frobenius(point.a, n)
        members = tuple(primitive_frobenius(m, n) for m in point.members)
        # the generator must be phi^n(a), and member j must be phi^n(a^(j^2))
        for k, y in ((1, a), *((j * j, m.a) for j, m in enumerate(members, start=1))):
            if not is_twisted_power(y, k, n):
                raise VerificationError(f"Frobenius translate n = {n} left the ansatz: phi^{n}(a^{k}) mismatched")
        orbit.append(AnsatzPoint._trusted(a, point.ell, members))
    return tuple(orbit)


def valuation_profile(point: AnsatzPoint) -> tuple[Fraction, ...]:
    """The tuple (v(a^(j^2)))_j = (j^2 * v(a))_j in tilt units."""
    return tuple(tilt_val(m.a) for m in point.members)


def scale_invariance_check(
    point: AnsatzPoint, substitution: Callable[[TiltElement], TiltElement]
) -> bool:
    """Check that an exponent-preserving substitution fixes the invariants.

    The substitution must preserve the support of every element it is
    applied to (anything of the t -> u*t kind does); that is enforced,
    not assumed, and it leaves the valuation profile unchanged, since a
    valuation is the lowest exponent.  Returns True when the substituted
    tuple is still a member; the generator is the first member.
    """
    new_members = []
    for member in point.members:
        sub = substitution(member.a)
        if (sub.s, [m for m, _ in sub.nums]) != (member.a.s, [m for m, _ in member.a.nums]):  # the support, on frames
            raise DomainError("substitution does not preserve the exponent support")
        new_members.append(PrimitiveDeg1(sub))
    return is_member(new_members)
