"""Truncated theta series, its two defining identities, and special values.

The series studied here is

    theta(u) = q^(-1/8) * sum_n (-1)^n q^(n(n+1)/2) u^(2n+1)

truncated to the symmetric window |n| <= N.  Each term is kept as a
row (n, sign, q-exponent, u-exponent); the prefactor q^(-1/8) is
absorbed by the identity n(n+1)/2 = (1/2)(n + 1/2)^2 - 1/8, so stored
q-exponents stay integers.  The sign (-1)^n is forced: it is what makes
the substitution u -> 1/u negate the series term by term, and what makes
the shift u -> q^(j/2) u reproduce the series up to (-1)^j q^(-j^2/2)
u^(-2j).  The unsigned row table is kept available as a negative control
and fails the first identity.

Checks work on exact integer exponent arithmetic.  Where half-integer
q-shifts appear the comparison runs in doubled q-units, never through a
square root.

Special values live at u = q^(j/2) zeta^k for a primitive ell-th root of
unity zeta (ell an odd prime), written x^2 for a root x of Phi_2ell, so
-1 is x^ell.  Evaluation runs in a parameter s with s^2 = q^(1/ell), the
base parameter in which the leading-exponent drop of theta(q^(j/2) zeta^k)
against theta(zeta^k) is exactly -j^2 for every j, matching the symbolic
q-exponent j^2/(2 ell) of :func:`theta_value`.  Each s-coefficient is a
sparse map {e: c} for sum c x^e, 0 <= e < ell; at most two indices share
an s-exponent, so dropping zero entries is its whole zero test.  Each
term's root power and sign do not depend on j, so they come from one
cached table per (k, ell, N); every evaluation still sums all
2N + 1 terms.  A check moves the base's lowest coefficient by zeta^m,
which adds 2m to each root power, and subtracts it from the lowest
shifted one.  That difference of up to four root powers folds into one
row of ell - 1 integers in the canonical basis 1, x, ..., x^(ell-2), and
is zero exactly when the row is: at ell = 3 three root powers cancel
through Phi_6 with no two cancelling outright.  A suite of checks over
j = 1 .. j_max builds the row table once and evaluates the base series at
zeta^k once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from ._record import Record
from .errors import DomainError
from .tilt import _is_int, _require_count, _require_int, _require_odd_prime, _require_positive

__all__ = [
    "ThetaValue",
    "check_inversion_antisymmetry",
    "check_quasi_periodicity",
    "check_quasi_periodicity_upto",
    "check_theta_value_laurent",
    "check_theta_value_laurent_upto",
    "eval_theta_laurent",
    "theta_terms",
    "theta_value",
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


def _root_pows_vanish(ell: int, pows: dict[int, int]) -> bool:
    """Whether sum c * x^e over pows = {e: c}, any integer e, is zero in Z[x]/(Phi_2ell(x))."""
    row = [0] * (ell - 1)
    for e, c in pows.items():
        _add_root_pow(row, ell, e % (2 * ell), c)
    return not any(row)


class CycloElt(Record):
    """Element of Z[x]/(Phi_2ell(x)) in the basis 1, x, ..., x^(ell-2).

    No check multiplies ring elements; the product stays only as the
    function perfbench traces as ``theta.cyclo_mul``, until that metric
    names another one.
    """

    ell: int
    coeffs: tuple[int, ...]

    def __mul__(self, other: "CycloElt") -> "CycloElt":
        row = [0] * (self.ell - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                _add_root_pow(row, self.ell, i + j, a * b)
        return CycloElt(self.ell, tuple(row))


def theta_terms(n_max: int, signed: bool = True) -> tuple[tuple[int, int, int, int], ...]:
    """Rows (n, sign, q_exp, u_exp), index n at position n + n_max; n_max = 0 gives the single term u."""
    _require_count(n_max, "truncation radius")
    return tuple(
        (n, (-1) ** (n % 2) if signed else 1, n * (n + 1) // 2, 2 * n + 1) for n in range(-n_max, n_max + 1)
    )


def check_inversion_antisymmetry(n_max: int, signed: bool = True) -> tuple[bool, int, bool, str | None]:
    """Verify that substituting u -> 1/u negates the truncated series.

    Returns (passed, pairs matched, pairs cancel at one, first mismatch).
    The window [-N, N] splits into N pairs (n, -n-1) plus the single
    boundary index n = N whose partner -N-1 lies outside; the pairs are
    compared term against term and the boundary index against the formula
    its partner would satisfy.  Pairs cancel at one when each pair sums to
    zero at u = 1, which is the truncated form of theta(1) = 0.
    """
    if n_max < 1:
        raise DomainError("the check needs at least one pair, so n_max >= 1")
    terms = theta_terms(n_max, signed)
    mismatch: str | None = None
    pairs = 0
    cancel_at_one = True
    for n in range(0, n_max):
        _, sign_n, q_n, u_n = terms[n_max + n]
        _, sign_m, q_m, u_m = terms[n_max - n - 1]
        if u_m != -u_n:
            mismatch = mismatch or f"pair ({n}, {-n - 1}): u-exponents {u_m} vs {-u_n}"
        elif q_m != q_n:
            mismatch = mismatch or f"pair ({n}, {-n - 1}): q-exponents {q_m} vs {q_n}"
        elif sign_m != -sign_n:
            mismatch = mismatch or f"pair ({n}, {-n - 1}): sign {sign_m} is not {-sign_n}"
        else:
            pairs += 1
        if sign_n + sign_m != 0:
            cancel_at_one = False
    # Boundary index n = N: its partner m = -N-1 left the window, so test the
    # formula that partner would have to satisfy instead of a stored term.
    _, sign_b, q_b, _ = terms[2 * n_max]
    m = -n_max - 1
    partner_q = m * (m + 1) // 2
    partner_sign = (-1) ** (m % 2) if signed else 1
    if partner_q != q_b:
        mismatch = mismatch or f"boundary {n_max}: partner q-exponent {partner_q} vs {q_b}"
    if partner_sign != -sign_b:
        mismatch = mismatch or f"boundary {n_max}: partner sign {partner_sign} is not {-sign_b}"
    passed = mismatch is None and pairs == n_max and cancel_at_one
    return passed, pairs, cancel_at_one, mismatch


def _quasi_periodicity(
    terms: tuple[tuple[int, int, int, int], ...], j: int
) -> tuple[bool, tuple[int, int], int, str | None]:
    """The shift identity at step j on a prebuilt row table."""
    _require_int(j, "j")
    n_max = len(terms) // 2
    if n_max < 1:
        raise DomainError("the check needs a window, so n_max >= 1")
    if abs(j) > n_max:
        raise DomainError(f"shift step |{j}| exceeds the truncation radius {n_max}")
    lo, hi = -n_max + abs(j), n_max - abs(j)
    shift_sign = (-1) ** (j % 2)
    mismatch: str | None = None
    checked = 0
    # |j| <= n_max keeps every n and n + j, n in [lo, hi], inside the window.
    left = terms[lo + n_max : hi + n_max + 1]
    right = terms[lo + j + n_max : hi + j + n_max + 1]
    for n, (_, sign_n, q_n, u_n), (_, sign_s, q_s, u_s) in zip(range(lo, hi + 1), left, right):
        # Left side, term n of theta(q^(j/2) u), as (2q, sign, u): q in doubled units.
        lhs = (2 * q_n + j * u_n, sign_n, u_n)
        # Right side, term n + j of theta(u) times (-1)^j q^(-j^2/2) u^(-2j).
        rhs = (2 * q_s - j * j, shift_sign * sign_s, u_s - 2 * j)
        if lhs != rhs:
            mismatch = mismatch or f"n = {n}: left (2q, sign, u) = {lhs} right {rhs}"
        else:
            checked += 1
    return mismatch is None, (lo, hi), checked, mismatch


def check_quasi_periodicity(j: int, n_max: int) -> tuple[bool, tuple[int, int], int, str | None]:
    """Verify the shift identity u -> q^(j/2) u at integer step j.

    Returns (passed, (overlap lo, hi), terms checked, first mismatch).
    Compares theta(q^(j/2) u) against (-1)^j q^(-j^2/2) u^(-2j) theta(u)
    term by term for n in [-N + |j|, N - |j|], where the reindexed series
    is still inside the window.  All q-exponents are doubled so the
    half-integer shifts stay in integer arithmetic.
    """
    return _quasi_periodicity(theta_terms(n_max), j)


def check_quasi_periodicity_upto(j_max: int, n_max: int) -> tuple[tuple[bool, tuple[int, int], int, str | None], ...]:
    """The signed shift identity at every step j = 1 .. j_max, on one row table."""
    terms = theta_terms(n_max)
    return tuple(_quasi_periodicity(terms, j) for j in range(1, j_max + 1))


class ThetaValue(Record):
    """Symbolic value (-1)^j q^(j^2 / 2ell) zeta^(2j) of the shifted ratio.

    This is the multiplier xi_j with theta(q^(j/2) zeta^k) = theta(zeta^k) / xi_j
    on the nose; the reciprocal's zeta exponent is ``inverse_zeta_exponent``.
    Only 1 <= j <= (ell - 1) / 2 is meaningful.
    """

    j: int
    ell: int
    sign: int
    q_exponent: Fraction
    zeta_exponent: int

    def __init__(self, j: int, ell: int, sign: int, q_exponent: Fraction, zeta_exponent: int):
        _require_int(j, "j")
        _require_odd_prime(ell)
        _require_positive(q_exponent, "q_exponent")
        if not (_is_int(sign) and sign in (-1, 1)):
            raise DomainError(f"sign must be +-1, got {sign!r}")
        if not (_is_int(zeta_exponent) and 0 <= zeta_exponent < ell):
            raise DomainError(f"zeta_exponent must be an integer in 0..{ell - 1}, got {zeta_exponent!r}")
        self._assign(j, ell, sign, q_exponent, zeta_exponent)

    @property
    def inverse_zeta_exponent(self) -> int:
        return (-self.zeta_exponent) % self.ell


def theta_value(j: int, ell: int) -> ThetaValue:
    """Special-value multiplier at the j-th shift for an odd prime ell."""
    _require_odd_prime(ell)
    ell_star = (ell - 1) // 2
    if not _is_int(j) or not 1 <= j <= ell_star:
        raise DomainError(f"j must lie in 1..{ell_star} for ell = {ell}, got {j!r}")
    # ell and j are validated above; the sign, q-exponent > 0 and reduced zeta exponent hold by construction
    return ThetaValue._trusted(j, ell, (-1) ** (j % 2), Fraction(j * j, 2 * ell), (2 * j) % ell)


@cache
def _root_terms(k: int, ell: int, n_max: int) -> tuple[tuple[int, int, int, int], ...]:
    """(n(n+1), 2n+1, e, c) for n = -N .. N: at every shift j, term n is c * x^e times s^(n(n+1) + j(2n+1))."""
    terms = []
    for n in range(-n_max, n_max + 1):
        # zeta = x^2, so zeta^(k(2n+1)) is x^(2k(2n+1)); x^ell = -1 folds it below ell
        e = 2 * k * (2 * n + 1) % (2 * ell)
        c = -1 if n % 2 else 1
        if e >= ell:
            e, c = e - ell, -c
        terms.append((n * (n + 1), 2 * n + 1, e, c))
    return tuple(terms)


def eval_theta_laurent(j: int, k: int, ell: int, n_max: int) -> dict[int, dict[int, int]]:
    """Exact truncated evaluation at u = s^j zeta^k, as {s_exponent: {e: c}}.

    s is a formal square root of the base parameter q^(1/ell), so the
    term at index n contributes s^(n(n+1) + j(2n+1)) with coefficient
    (-1)^n zeta^(k(2n+1)).  Each coefficient is the sum of c * x^e over
    its map, 0 <= e < ell, holding only nonzero c; exponents with a zero
    coefficient are dropped and the rest come in increasing order.
    """
    _require_int(j, "j")
    _require_int(k, "k")
    _require_odd_prime(ell)
    _require_count(n_max, "truncation radius")
    # s(n) = s(m) only for m = n or m = -n - 2j - 1, so a coefficient sums at
    # most two root powers x^e, e < ell.  Below degree ell the only relation
    # is Phi_2ell = sum_{i<ell} (-1)^i x^i, which has ell nonzero entries, so
    # a sum of fewer than ell root powers is zero exactly when its entries
    # cancel outright: dropping zero entries is the whole zero test.
    acc: dict[int, dict[int, int]] = {}
    for s_at_0, s_step, e, c in _root_terms(k, ell, n_max):
        coeff = acc.setdefault(s_at_0 + j * s_step, {})
        c += coeff.pop(e, 0)
        if c:
            coeff[e] = c
    return {s_exp: acc[s_exp] for s_exp in sorted(acc) if acc[s_exp]}


def _laurent_ratio(
    j: int, k: int, ell: int, n_max: int, base: dict[int, dict[int, int]]
) -> tuple[bool, int, int, bool]:
    """The check at (j, k), given the base evaluation at u = zeta^k."""
    tv = theta_value(j, ell)  # validates j and ell
    if k % ell == 0:
        raise DomainError("k must be nonzero mod ell; at zeta^0 the evaluation degenerates")
    if n_max < j + 1:
        raise DomainError(f"need n_max >= {j + 1} so both lowest indices -j and -j-1 are in window")
    shifted = eval_theta_laurent(j, k, ell, n_max)
    lo_s, base_s = min(shifted), min(base)
    gap = lo_s - base_s
    # 2*ell times the symbolic q-exponent j^2/(2*ell) is the integer j^2.
    expected_gap = -(2 * ell * tv.q_exponent.numerator) // tv.q_exponent.denominator
    # zeta^m = x^(2m) shifts every root power of the base coefficient by 2m; one row holds the difference.
    shift = 2 * k * tv.inverse_zeta_exponent
    diff = dict(shifted[lo_s])
    for e, c in base[base_s].items():
        diff[e + shift] = diff.get(e + shift, 0) - tv.sign * c
    coeff_ok = _root_pows_vanish(ell, diff)
    return gap == expected_gap and coeff_ok, gap, expected_gap, coeff_ok


def check_theta_value_laurent(j: int, k: int, ell: int, n_max: int) -> tuple[bool, int, int, bool]:
    """Compare the symbolic special value with exact series evaluation.

    Returns (passed, s-exponent gap, expected gap, coefficient relation
    holds).  The evaluation at u = s^j zeta^k must sit lower than the one
    at u = zeta^k by exactly j^2 s-steps, i.e. by q^(-j^2 / 2ell), and the
    two lowest coefficients must differ by sign * zeta^(-2jk), the
    reciprocal of the multiplier :func:`theta_value` states.
    """
    return _laurent_ratio(j, k, ell, n_max, eval_theta_laurent(0, k, ell, n_max))


def check_theta_value_laurent_upto(
    j_max: int, k: int, ell: int, n_max: int
) -> tuple[tuple[bool, int, int, bool], ...]:
    """The special-value check at every j = 1 .. j_max, against one base evaluation."""
    base = eval_theta_laurent(0, k, ell, n_max) if j_max > 0 else {}
    return tuple(_laurent_ratio(j, k, ell, n_max, base) for j in range(1, j_max + 1))
