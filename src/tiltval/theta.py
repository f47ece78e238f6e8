"""Truncated theta series, its two defining identities, and special values.

The series studied here is

    theta(u) = q^(-1/8) * sum_n (-1)^n q^(n(n+1)/2) u^(2n+1)

truncated to the symmetric window |n| <= N.  Each term is kept as a
descriptor (sign, q-exponent, u-exponent); the prefactor q^(-1/8) is
absorbed by the identity n(n+1)/2 = (1/2)(n + 1/2)^2 - 1/8, so stored
q-exponents stay integers.  The sign (-1)^n is forced: it is what makes
the substitution u -> 1/u negate the series term by term, and what makes
the shift u -> q^(j/2) u reproduce the series up to (-1)^j q^(-j^2/2)
u^(-2j).  The unsigned variant is kept available as a negative control
and fails the first identity.

Checks work on exact integer exponent arithmetic.  Where half-integer
q-shifts appear the comparison runs in doubled q-units, never through a
square root.

Special values live at u = q^(j/2) zeta^k for a primitive ell-th root of
unity zeta (ell an odd prime).  Numerics for those run in the cyclotomic
ring Z[x]/(Phi_2ell(x)), with zeta the class of x^2 and -1 the class of
x^ell, in a parameter s with s^2 = q^(1/ell); evaluation therefore uses
the base parameter q^(1/ell), in which the leading-exponent drop of
theta(q^(j/2) zeta^k) against theta(zeta^k) is exactly -j^2 for every j,
matching the symbolic q-exponent j^2/(2 ell) of :func:`theta_value`.
The evaluation keeps each s-coefficient as a sparse sum of root powers
x^e with 0 <= e < ell; at most two indices share an s-exponent, so no
coefficient needs the cyclotomic relation to be tested for zero.  Ring
elements are built only for the two lowest coefficients a check compares,
and the expected one comes from the base coefficient by a root-power
shift: zeta^m * sum c x^e is sum c x^(e + 2m), so no ring product is
taken.  A suite of checks over j = 1 .. j_max builds the descriptor table
once and evaluates the base series at zeta^k once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat

from ._record import Record
from .errors import DomainError, WindowError
from .tilt import _require_odd_prime

__all__ = [
    "CycloElt",
    "InversionCheck",
    "LaurentRatioCheck",
    "QuasiPeriodicityCheck",
    "ThetaSeriesTrunc",
    "ThetaTerm",
    "ThetaValue",
    "check_inversion_antisymmetry",
    "check_quasi_periodicity",
    "check_quasi_periodicity_upto",
    "check_theta_value_laurent",
    "check_theta_value_laurent_upto",
    "eval_theta_laurent",
    "theta_terms",
    "theta_value",
    "zeta_ell_pow",
]


def _add_root_pow(row: list[int], ell: int, e: int, c: int) -> None:
    """Add c * x^e to a length ell - 1 coefficient row, for 0 <= e < 2 ell.

    x^ell = -1 folds e into 0 .. ell - 1, and only e = ell - 1 leaves the
    basis: x^(ell-1) = -sum_{i<ell-1} (-1)^i x^i touches every entry.
    """
    if e >= ell:
        e -= ell
        c = -c
    if e < ell - 1:
        row[e] += c
    else:
        row[0::2] = [v - c for v in row[0::2]]
        row[1::2] = [v + c for v in row[1::2]]


class CycloElt(Record):
    """Element of Z[x]/(Phi_2ell(x)) in the basis 1, x, ..., x^(ell-2).

    x is a primitive 2ell-th root of unity, so x^ell = -1 and zeta = x^2
    generates the ell-th roots.  The basis representation is canonical,
    which makes equality and zero-testing exact.
    """

    ell: int
    coeffs: tuple[int, ...]

    def __init__(self, ell: int, coeffs: tuple[int, ...]):
        _require_odd_prime(ell)
        if len(coeffs) != ell - 1:
            raise DomainError(f"expected {ell - 1} coefficients, got {len(coeffs)}")
        if not all(map(isinstance, coeffs, repeat(int))):
            raise DomainError("coefficients must be integers")
        self._assign(ell, coeffs)

    @classmethod
    def zero(cls, ell: int) -> "CycloElt":
        return cls(ell, (0,) * (ell - 1))

    @classmethod
    def one(cls, ell: int) -> "CycloElt":
        return cls(ell, (1,) + (0,) * (ell - 2))

    @classmethod
    def from_root_pows(cls, ell: int, pows: dict[int, int]) -> "CycloElt":
        """The class of sum c * x^e over pows = {e: c}, any integer e."""
        row = [0] * (ell - 1)
        for e, c in pows.items():
            _add_root_pow(row, ell, e % (2 * ell), c)
        return cls(ell, tuple(row))

    @classmethod
    def root_pow(cls, ell: int, k: int) -> "CycloElt":
        """The class of x^k, any integer k (x has order 2ell)."""
        return cls.from_root_pows(ell, {k: 1})

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check_ring(self, other: "CycloElt") -> None:
        if self.ell != other.ell:
            raise DomainError(f"mixed cyclotomic rings: ell = {self.ell} vs {other.ell}")

    def __add__(self, other: "CycloElt") -> "CycloElt":
        self._check_ring(other)
        return CycloElt(self.ell, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloElt") -> "CycloElt":
        self._check_ring(other)
        return CycloElt(self.ell, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloElt":
        return CycloElt(self.ell, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycloElt | int") -> "CycloElt":
        if isinstance(other, int):
            return CycloElt(self.ell, tuple(a * other for a in self.coeffs))
        self._check_ring(other)
        prod = [0] * (2 * len(self.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        return CycloElt.from_root_pows(self.ell, dict(enumerate(prod)))

    __rmul__ = __mul__


def zeta_ell_pow(ell: int, k: int) -> CycloElt:
    """The class of zeta^k for the primitive ell-th root zeta = x^2."""
    return CycloElt.root_pow(ell, 2 * k)


class ThetaTerm(Record):
    """One series term: sign * q^(q_exp) * u^(u_exp) at index n."""

    n: int
    sign: int
    q_exp: int
    u_exp: int

    def __init__(self, n: int, sign: int, q_exp: int, u_exp: int):
        if sign not in (-1, 1):
            raise DomainError(f"sign must be +-1, got {sign}")
        if u_exp != 2 * n + 1:
            raise DomainError(f"u-exponent {u_exp} does not match index {n}")
        # n(n+1)/2 = ((2n+1)^2 - 1)/8: the absorbed q^(-1/8) prefactor in integer form
        if 8 * q_exp != u_exp * u_exp - 1:
            raise DomainError(f"q-exponent {q_exp} does not match index {n}")
        self._assign(n, sign, q_exp, u_exp)


class ThetaSeriesTrunc(Record):
    """The terms with |n| <= n_max, in increasing index order."""

    n_max: int
    signed: bool
    terms: tuple[ThetaTerm, ...]

    def term_at(self, n: int) -> ThetaTerm:
        if abs(n) > self.n_max:
            raise WindowError(f"index {n} outside the window |n| <= {self.n_max}")
        return self.terms[n + self.n_max]


def theta_terms(n_max: int, signed: bool = True) -> ThetaSeriesTrunc:
    """Descriptor table of the truncation; n_max = 0 gives the single term u."""
    if not isinstance(n_max, int) or n_max < 0:
        raise DomainError(f"truncation radius must be a nonnegative integer, got {n_max!r}")
    terms = []
    for n in range(-n_max, n_max + 1):
        sign = (-1) ** (n % 2) if signed else 1
        terms.append(ThetaTerm(n=n, sign=sign, q_exp=n * (n + 1) // 2, u_exp=2 * n + 1))
    return ThetaSeriesTrunc(n_max=n_max, signed=signed, terms=tuple(terms))


class InversionCheck(Record):
    """Outcome of the u -> 1/u antisymmetry check on a truncation window.

    The window [-N, N] splits into N pairs (n, -n-1) plus the single
    boundary index n = N whose partner -N-1 lies outside; the pairs are
    compared term against term and the boundary index against the formula
    its partner would satisfy.  ``pairs_cancel_at_one`` records whether
    each pair sums to zero at u = 1, which is the truncated form of
    theta(1) = 0.
    """

    passed: bool
    n_max: int
    signed: bool
    pairs_matched: int
    boundary_terms: int
    pairs_cancel_at_one: bool
    first_mismatch: str | None


def check_inversion_antisymmetry(n_max: int, signed: bool = True) -> InversionCheck:
    """Verify that substituting u -> 1/u negates the truncated series."""
    if n_max < 1:
        raise DomainError("the check needs at least one pair, so n_max >= 1")
    series = theta_terms(n_max, signed)
    mismatch: str | None = None
    pairs = 0
    cancel_at_one = True
    for n in range(0, n_max):
        tn = series.term_at(n)
        tm = series.term_at(-n - 1)
        if tm.u_exp != -tn.u_exp:
            mismatch = mismatch or f"pair ({n}, {-n - 1}): u-exponents {tm.u_exp} vs {-tn.u_exp}"
        elif tm.q_exp != tn.q_exp:
            mismatch = mismatch or f"pair ({n}, {-n - 1}): q-exponents {tm.q_exp} vs {tn.q_exp}"
        elif tm.sign != -tn.sign:
            mismatch = mismatch or f"pair ({n}, {-n - 1}): sign {tm.sign} is not {-tn.sign}"
        else:
            pairs += 1
        if tn.sign + tm.sign != 0:
            cancel_at_one = False
    # Boundary index n = N: its partner m = -N-1 left the window, so test the
    # formula that partner would have to satisfy instead of a stored term.
    tb = series.term_at(n_max)
    m = -n_max - 1
    partner_q = m * (m + 1) // 2
    partner_sign = (-1) ** (m % 2) if signed else 1
    if partner_q != tb.q_exp:
        mismatch = mismatch or f"boundary {n_max}: partner q-exponent {partner_q} vs {tb.q_exp}"
    if partner_sign != -tb.sign:
        mismatch = mismatch or f"boundary {n_max}: partner sign {partner_sign} is not {-tb.sign}"
    passed = mismatch is None and pairs == n_max and cancel_at_one
    return InversionCheck(
        passed=passed,
        n_max=n_max,
        signed=signed,
        pairs_matched=pairs,
        boundary_terms=1,
        pairs_cancel_at_one=cancel_at_one,
        first_mismatch=mismatch,
    )


class QuasiPeriodicityCheck(Record):
    """Outcome of the shift identity at step j on the symmetric overlap window.

    Compares theta(q^(j/2) u) against (-1)^j q^(-j^2/2) u^(-2j) theta(u)
    term by term for n in [-N + |j|, N - |j|], where the reindexed series
    is still inside the window.  All q-exponents are doubled so the
    half-integer shifts stay in integer arithmetic.
    """

    passed: bool
    j: int
    n_max: int
    signed: bool
    overlap_lo: int
    overlap_hi: int
    terms_checked: int
    q_shift_doubled: int
    first_mismatch: str | None


def _quasi_periodicity(series: ThetaSeriesTrunc, j: int) -> QuasiPeriodicityCheck:
    """The shift identity at step j on a prebuilt descriptor table."""
    n_max = series.n_max
    if n_max < 1:
        raise DomainError("the check needs a window, so n_max >= 1")
    if abs(j) > n_max:
        raise WindowError(f"shift step |{j}| exceeds the truncation radius {n_max}")
    lo, hi = -n_max + abs(j), n_max - abs(j)
    shift_sign = (-1) ** (j % 2)
    mismatch: str | None = None
    checked = 0
    for n in range(lo, hi + 1):
        tn = series.term_at(n)
        ts = series.term_at(n + j)
        # Left side, term n of theta(q^(j/2) u), in doubled q-units.
        lhs_q2 = 2 * tn.q_exp + j * tn.u_exp
        lhs_sign = tn.sign
        lhs_u = tn.u_exp
        # Right side, term n + j of theta(u) times (-1)^j q^(-j^2/2) u^(-2j).
        rhs_q2 = 2 * ts.q_exp - j * j
        rhs_sign = shift_sign * ts.sign
        rhs_u = ts.u_exp - 2 * j
        if (lhs_q2, lhs_sign, lhs_u) != (rhs_q2, rhs_sign, rhs_u):
            mismatch = mismatch or (
                f"n = {n}: left (2q, sign, u) = {(lhs_q2, lhs_sign, lhs_u)}"
                f" right {(rhs_q2, rhs_sign, rhs_u)}"
            )
        else:
            checked += 1
    return QuasiPeriodicityCheck(
        passed=mismatch is None,
        j=j,
        n_max=n_max,
        signed=series.signed,
        overlap_lo=lo,
        overlap_hi=hi,
        terms_checked=checked,
        q_shift_doubled=-j * j,
        first_mismatch=mismatch,
    )


def check_quasi_periodicity(j: int, n_max: int, signed: bool = True) -> QuasiPeriodicityCheck:
    """Verify the shift identity u -> q^(j/2) u at integer step j."""
    return _quasi_periodicity(theta_terms(n_max, signed), j)


def check_quasi_periodicity_upto(j_max: int, n_max: int) -> tuple[QuasiPeriodicityCheck, ...]:
    """The signed shift identity at every step j = 1 .. j_max, on one descriptor table."""
    series = theta_terms(n_max)
    return tuple(_quasi_periodicity(series, j) for j in range(1, j_max + 1))


class ThetaValue(Record):
    """Symbolic value (-1)^j q^(j^2 / 2ell) zeta^(2j) of the shifted ratio.

    This is the multiplier xi_j with theta(q^(j/2) zeta^k) = theta(zeta^k) / xi_j
    on the nose; the reciprocal orientation is exposed through the
    ``inverse_*`` properties.  Only 1 <= j <= (ell - 1) / 2 is meaningful.
    """

    j: int
    ell: int
    sign: int
    q_exponent: Fraction
    zeta_exponent: int

    def __init__(self, j: int, ell: int, sign: int, q_exponent: Fraction, zeta_exponent: int):
        _require_odd_prime(ell)
        if q_exponent <= 0:
            raise DomainError("the q-exponent of a special value is positive")
        if sign not in (-1, 1):
            raise DomainError(f"sign must be +-1, got {sign}")
        if not 0 <= zeta_exponent < ell:
            raise DomainError("zeta exponent must be reduced mod ell")
        self._assign(j, ell, sign, q_exponent, zeta_exponent)

    @property
    def inverse_q_exponent(self) -> Fraction:
        return -self.q_exponent

    @property
    def inverse_zeta_exponent(self) -> int:
        return (-self.zeta_exponent) % self.ell

    def zeta_part(self) -> CycloElt:
        """sign * zeta^(zeta_exponent) as a cyclotomic ring element."""
        return self.sign * zeta_ell_pow(self.ell, self.zeta_exponent)


def theta_value(j: int, ell: int) -> ThetaValue:
    """Special-value multiplier at the j-th shift for an odd prime ell."""
    _require_odd_prime(ell)
    ell_star = (ell - 1) // 2
    if not isinstance(j, int) or not 1 <= j <= ell_star:
        raise DomainError(f"j must lie in 1..{ell_star} for ell = {ell}, got {j!r}")
    return ThetaValue(
        j=j,
        ell=ell,
        sign=(-1) ** (j % 2),
        q_exponent=Fraction(j * j, 2 * ell),
        zeta_exponent=(2 * j) % ell,
    )


def eval_theta_laurent(j: int, k: int, ell: int, n_max: int, signed: bool = True) -> dict[int, dict[int, int]]:
    """Exact truncated evaluation at u = s^j zeta^k, as {s_exponent: {e: c}}.

    s is a formal square root of the base parameter q^(1/ell), so the
    term at index n contributes s^(n(n+1) + j(2n+1)) with coefficient
    (-1)^n zeta^(k(2n+1)).  Each coefficient is the sum of c * x^e over
    its map, 0 <= e < ell, holding only nonzero c; exponents with a zero
    coefficient are dropped and the rest come in increasing order.
    """
    _require_odd_prime(ell)
    if not isinstance(n_max, int) or n_max < 0:
        raise DomainError(f"truncation radius must be a nonnegative integer, got {n_max!r}")
    # s(n) = s(m) only for m = n or m = -n - 2j - 1, so a coefficient sums at
    # most two root powers x^e, e < ell.  Below degree ell the only relation
    # is Phi_2ell = sum_{i<ell} (-1)^i x^i, which has ell nonzero entries, so
    # a sum of fewer than ell root powers is zero exactly when its entries
    # cancel outright: dropping zero entries is the whole zero test.
    acc: dict[int, dict[int, int]] = {}
    for n in range(-n_max, n_max + 1):
        # zeta = x^2, so zeta^(k(2n+1)) is x^(2k(2n+1)); x^ell = -1 folds it below ell
        e = 2 * k * (2 * n + 1) % (2 * ell)
        c = -1 if signed and n % 2 else 1
        if e >= ell:
            e, c = e - ell, -c
        coeff = acc.setdefault(n * (n + 1) + j * (2 * n + 1), {})
        c += coeff.pop(e, 0)
        if c:
            coeff[e] = c
    return {s_exp: acc[s_exp] for s_exp in sorted(acc) if acc[s_exp]}


class LaurentRatioCheck(Record):
    """Consistency of :func:`theta_value` against truncated evaluation.

    The evaluation at u = s^j zeta^k must sit lower than the one at
    u = zeta^k by exactly j^2 s-steps, i.e. by q^(-j^2 / 2ell), and the
    two lowest coefficients must differ by sign * zeta^(-2jk), the
    reciprocal of the multiplier :func:`theta_value` states.
    """

    passed: bool
    j: int
    k: int
    ell: int
    n_max: int
    s_exponent_gap: int
    expected_gap: int
    coeff_relation_holds: bool


def _laurent_ratio(j: int, k: int, ell: int, n_max: int, base: dict[int, dict[int, int]]) -> LaurentRatioCheck:
    """The check at (j, k), given the base evaluation at u = zeta^k."""
    tv = theta_value(j, ell)  # validates j and ell
    if k % ell == 0:
        raise DomainError("k must be nonzero mod ell; at zeta^0 the evaluation degenerates")
    if n_max < j + 1:
        raise WindowError(f"need n_max >= {j + 1} so both lowest indices -j and -j-1 are in window")
    shifted = eval_theta_laurent(j, k, ell, n_max)
    lo_s, base_s = min(shifted), min(base)
    gap = lo_s - base_s
    # 2*ell times the symbolic q-exponent j^2/(2*ell) is the integer j^2.
    expected_gap = -(2 * ell * tv.q_exponent.numerator) // tv.q_exponent.denominator
    # zeta^m = x^(2m) shifts every root power of the base coefficient by 2m.
    shift = 2 * k * tv.inverse_zeta_exponent
    expected_coeff = CycloElt.from_root_pows(ell, {e + shift: tv.sign * c for e, c in base[base_s].items()})
    coeff_ok = (CycloElt.from_root_pows(ell, shifted[lo_s]) - expected_coeff).is_zero
    passed = gap == expected_gap and coeff_ok
    return LaurentRatioCheck(
        passed=passed,
        j=j,
        k=k,
        ell=ell,
        n_max=n_max,
        s_exponent_gap=gap,
        expected_gap=expected_gap,
        coeff_relation_holds=coeff_ok,
    )


def check_theta_value_laurent(j: int, k: int, ell: int, n_max: int) -> LaurentRatioCheck:
    """Compare the symbolic special value with exact series evaluation."""
    return _laurent_ratio(j, k, ell, n_max, eval_theta_laurent(0, k, ell, n_max))


def check_theta_value_laurent_upto(j_max: int, k: int, ell: int, n_max: int) -> tuple[LaurentRatioCheck, ...]:
    """The special-value check at every j = 1 .. j_max, against one base evaluation."""
    base = eval_theta_laurent(0, k, ell, n_max) if j_max > 0 else {}
    return tuple(_laurent_ratio(j, k, ell, n_max, base) for j in range(1, j_max + 1))
