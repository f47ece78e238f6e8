"""Truncated theta series, its two defining identities, and special values.

The series studied here is

    theta(u) = q^(-1/8) * sum_n (-1)^n q^(n(n+1)/2) u^(2n+1)

truncated to the symmetric window |n| <= N.  Each term is kept as a
row (n, sign, q-exponent, u-exponent), each field from one formula.  The
prefactor q^(-1/8) is absorbed by n(n+1)/2 = (1/2)(n + 1/2)^2 - 1/8, so
stored q-exponents stay integers.  The sign (-1)^n is forced: it is what
makes u -> 1/u negate the series term by term, and u -> q^(j/2) u
reproduce it up to (-1)^j q^(-j^2/2) u^(-2j).  The unsigned row table is
kept as a negative control and fails the first identity.  Half-integer
q-shifts are compared in doubled q-units, never through a square root.

Special values live at u = q^(j/2) zeta^k for a primitive ell-th root of
unity zeta (ell an odd prime), written x^2 for a root x of Phi_2ell, so
-1 is x^ell.  Evaluation runs in a parameter s with s^2 = q^(1/ell), in
which the lowest exponent of theta(q^(j/2) zeta^k) sits exactly j^2
below that of theta(zeta^k), matching the symbolic q-exponent j^2/(2 ell)
of :func:`theta_value`.  Each s-coefficient is a sparse map {e: c} for
sum c x^e, 0 <= e < ell; indices n = -j + d and -j - 1 - d share the
s-exponent d(d+1) - j^2 and no other two do.  An evaluation accumulates
the rows of one cached table per (k, ell, N), then sorts.  A check
compares the lowest shifted coefficient with the base's times the
multiplier's root of unity: the difference, folded below x^ell, is zero
exactly when it is an integer multiple of Phi_2ell.

The suite's shift checks (:func:`check_shifts`) check the tables they
read, and each shift then costs O(1); 2Q and U are a row's doubled
q-exponent and its u-exponent.  Quasi-periodicity: step 1 runs term by
term on the shared row table.  Its sum over n .. n + j - 1 is step j (U
grows by 2j, 2Q by j U(n) + j^2, the sign flips j times), so when step 1
holds on its whole window, every j >= 2 holds on its own.  Special
values: if on the root table 2Q steps by U + 1, U steps by 2 from
U(-1) = -1, neighbouring root powers differ and no coefficient is zero,
then 2Q(n) + j U(n) steps by 2(n + j + 1), so at every j the rows
n = -j - 1 and -j are the unique lowest terms, and the check reads them.
A table that fails a check takes the pointwise route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from ._record import Record
from .errors import DomainError
from .tilt import _require_int, _require_odd_prime

__all__ = [
    "ThetaValue",
    "check_inversion_antisymmetry",
    "check_quasi_periodicity",
    "check_shifts",
    "check_theta_value_laurent",
    "eval_theta_laurent",
    "theta_terms",
    "theta_value",
]

def _root_pows_vanish(ell: int, pows: dict[int, int]) -> bool:
    """Whether sum c * x^e over pows = {e: c}, any integer e, is zero in Z[x]/(Phi_2ell(x)), in one step per pair.

    x^ell = -1 folds each power below ell, and x^ell + 1 = (x + 1) Phi_2ell, so a sum below degree ell is zero
    exactly when it is m Phi_2ell = m sum_{i<ell} (-1)^i x^i: each of the ell coefficients times (-1)^i is m."""
    folded: dict[int, int] = {}
    for e, c in pows.items():
        e %= 2 * ell
        if e >= ell:
            e, c = e - ell, -c
        folded[e] = folded.get(e, 0) + (-c if e % 2 else c)
    signed = set(folded.values())
    return signed <= {0} or (len(folded) == ell and len(signed) == 1)


class CycloElt(Record):
    """Element of Z[x]/(Phi_2ell(x)) in the basis 1, x, ..., x^(ell-2).

    No check multiplies ring elements; the product stays only as the
    function perfbench traces as ``theta.cyclo_mul``, until that metric
    names another one.
    """

    ell: int
    coeffs: tuple[int, ...]

    def __mul__(self, other: "CycloElt") -> "CycloElt":
        ell = self.ell
        row = [0] * ell  # x^0 .. x^(ell-1): x^ell = -1 folds each product power below ell
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                row[(i + j) % ell] += a * b if i + j < ell else -a * b
        top = row.pop()  # x^(ell-1) = -sum_{i<ell-1} (-1)^i x^i
        return CycloElt(ell, tuple(v + top if i % 2 else v - top for i, v in enumerate(row)))


def _theta_rows(ns, signed: bool = True) -> tuple[tuple[int, int, int, int], ...]:
    """The rows (n, sign, q_exp, u_exp) of theta_terms at each index n of ns: each field's one formula."""
    return tuple((n, -1 if signed and n % 2 else 1, n * (n + 1) // 2, 2 * n + 1) for n in ns)


def theta_terms(n_max: int, signed: bool = True) -> tuple[tuple[int, int, int, int], ...]:
    """Rows (n, sign, q_exp, u_exp), index n at position n + n_max; n_max = 0 gives the single term u."""
    _require_int(n_max, "truncation radius", 0)
    return _theta_rows(range(-n_max, n_max + 1), signed)


def check_inversion_antisymmetry(n_max: int, signed: bool = True) -> tuple[bool, int, bool, str | None]:
    """Verify that substituting u -> 1/u negates the truncated series.

    Returns (passed, pairs matched, pairs cancel at one, first mismatch).
    The window [-N, N] splits into N pairs (n, -n-1) plus the single
    boundary index n = N whose partner -N-1 lies outside; the pairs are
    compared term against term and the boundary index against the formula
    its partner would satisfy.  Pairs cancel at one when each pair sums to
    zero at u = 1, which is the truncated form of theta(1) = 0.
    """
    _require_int(n_max, "truncation radius", 1)
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
    _, partner_sign, partner_q, _ = _theta_rows((-n_max - 1,), signed)[0]
    if partner_q != q_b:
        mismatch = mismatch or f"boundary {n_max}: partner q-exponent {partner_q} vs {q_b}"
    if partner_sign != -sign_b:
        mismatch = mismatch or f"boundary {n_max}: partner sign {partner_sign} is not {-sign_b}"
    passed = mismatch is None and pairs == n_max and cancel_at_one
    return passed, pairs, cancel_at_one, mismatch


def _quasi_periodicity(
    terms: tuple[tuple[int, int, int, int], ...], j: int, stepwise: bool = False
) -> tuple[bool, tuple[int, int], int, str | None]:
    """The shift identity at step j on a prebuilt row table.  With stepwise, step 1 holds on the table's whole
    window, and its sum over n .. n + j - 1 is step j for j >= 1, so the result needs no compare."""
    n_max = len(terms) // 2
    _require_int(n_max, "truncation radius", 1)
    _require_int(j, "shift step", -n_max, n_max)
    lo, hi = -n_max + abs(j), n_max - abs(j)
    if stepwise:
        return True, (lo, hi), hi - lo + 1, None
    shift_sign = (-1) ** (j % 2)
    mismatch: str | None = None
    checked = 0
    # |j| <= n_max keeps every n and n + j, n in [lo, hi], inside the window.
    left = terms[lo + n_max : hi + n_max + 1]
    right = terms[lo + j + n_max : hi + j + n_max + 1]
    for n, (_, sign_n, q_n, u_n), (_, sign_s, q_s, u_s) in zip(range(lo, hi + 1), left, right):
        # Term n of theta(q^(j/2) u) against term n + j of theta(u) times (-1)^j q^(-j^2/2) u^(-2j),
        # each as (2q, sign, u): q in doubled units.  The tuples are built only for the first mismatch.
        if 2 * q_n + j * u_n == 2 * q_s - j * j and sign_n == shift_sign * sign_s and u_n == u_s - 2 * j:
            checked += 1
        elif mismatch is None:
            lhs, rhs = (2 * q_n + j * u_n, sign_n, u_n), (2 * q_s - j * j, shift_sign * sign_s, u_s - 2 * j)
            mismatch = f"n = {n}: left (2q, sign, u) = {lhs} right {rhs}"
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


class ThetaValue(Record):
    """Symbolic value (-1)^j q^(j^2 / 2ell) zeta^(2j) of the shifted ratio.

    This is the multiplier xi_j with theta(q^(j/2) zeta^k) = theta(zeta^k) / xi_j
    on the nose; the reciprocal's zeta exponent is ``inverse_zeta_exponent``.
    The constructor refuses all but :func:`theta_value`'s fields, so 1 <= j <= (ell - 1) / 2.
    """

    j: int
    ell: int
    sign: int
    q_exponent: Fraction
    zeta_exponent: int

    def __init__(self, j: int, ell: int, sign: int, q_exponent: Fraction, zeta_exponent: int):
        self._assign(j, ell, sign, q_exponent, zeta_exponent, built=theta_value(j, ell))

    @property
    def inverse_zeta_exponent(self) -> int:
        return (-self.zeta_exponent) % self.ell


def _multiplier(j: int, ell: int) -> tuple[int, Fraction, int]:
    """The fields (sign, q_exponent, zeta_exponent) of xi_j, for j and ell already checked: the one formula."""
    return (-1) ** (j % 2), Fraction(j * j, 2 * ell), (2 * j) % ell


def theta_value(j: int, ell: int) -> ThetaValue:
    """Special-value multiplier at the j-th shift for an odd prime ell."""
    _require_odd_prime(ell)
    _require_int(j, "j", 1, (ell - 1) // 2)
    return ThetaValue._trusted(j, ell, *_multiplier(j, ell))


def _root_rows(k: int, ell: int, n_max: int) -> tuple[tuple[int, int, int, int], ...]:
    """(2Q(n), U(n), e, c) for n = -N .. N: at every shift j, term n is c * x^e times s^(2Q(n) + j U(n))."""
    # zeta = x^2, so zeta^(k U(n)) is x^(2k U(n)); x^ell = -1 folds it below ell
    rows = ((2 * q, u, 2 * k * u % (2 * ell), c) for _, c, q, u in _theta_rows(range(-n_max, n_max + 1)))
    return tuple((q2, u, e - ell, -c) if e >= ell else (q2, u, e, c) for q2, u, e, c in rows)


_root_terms = cache(_root_rows)  # one table per (k, ell, N), shared by every evaluation


def _vertex_lowest(rows: tuple[tuple[int, int, int, int], ...], n_max: int) -> bool:
    """Whether at every shift j the rows n = -j - 1 and -j of a root table alone hold its evaluation's lowest term,
    as the module docstring argues; the two root powers differ and neither coefficient is zero, so both stay."""
    return rows[n_max - 1][1] == -1 and rows[-1][3] != 0 and all(
        q2_next == q2 + u + 1 and u_next == u + 2 and e_next != e and c
        for (q2, u, e, c), (q2_next, u_next, e_next, _) in zip(rows, rows[1:])
    )


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
    _require_int(n_max, "truncation radius", 0)
    acc: dict[int, dict[int, int]] = {}
    for s_at_0, s_step, e, c in _root_terms(k, ell, n_max):
        coeff = acc.setdefault(s_at_0 + j * s_step, {})
        c += coeff.pop(e, 0)
        if c:
            coeff[e] = c
    return {s_exp: acc[s_exp] for s_exp in sorted(acc) if acc[s_exp]}


def _laurent_ratio(
    tv: ThetaValue, k: int, n_max: int, base_s: int, base_lowest: dict[int, int], rows: tuple | None = None
) -> tuple[bool, int, int, bool]:
    """The check at (tv.j, k), given the lowest s-exponent and coefficient of the base evaluation at u = zeta^k.

    The shifted lowest term comes from a full evaluation or, given rows that pass ``_vertex_lowest``, from their
    vertex rows n = -j - 1 and -j alone."""
    j, ell = tv.j, tv.ell
    if k % ell == 0:
        raise DomainError("k must be nonzero mod ell; at zeta^0 the evaluation degenerates")
    _require_int(n_max, "truncation radius", j + 1)  # both lowest indices -j and -j-1 in the window
    if rows is None:
        lo_s, lowest = next(iter(eval_theta_laurent(j, k, ell, n_max).items()))  # exponents come in increasing order
    else:
        lowest = {}
        for s_at_0, s_step, e, c in rows[n_max - j - 1 : n_max - j + 1]:
            lo_s, lowest[e] = s_at_0 + j * s_step, lowest.get(e, 0) + c
    gap = lo_s - base_s
    # 2*ell times the symbolic q-exponent j^2/(2*ell) is the integer j^2.
    expected_gap = -(2 * ell * tv.q_exponent.numerator) // tv.q_exponent.denominator
    # zeta^m = x^(2m) shifts every root power of the base coefficient by 2m; the difference is folded once.
    shift = 2 * k * tv.inverse_zeta_exponent
    diff = dict(lowest)
    for e, c in base_lowest.items():
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
    base = next(iter(eval_theta_laurent(0, k, ell, n_max).items()))
    return _laurent_ratio(theta_value(j, ell), k, n_max, *base)


def check_shifts(k: int, ell: int, n_max: int) -> tuple[tuple[ThetaValue, ...], tuple[tuple, ...], tuple[tuple, ...]]:
    """The suite's checks at every shift, ell checked once: the multipliers xi_j for j = 1 .. ell*, the shift
    identity at each of those j as :func:`check_quasi_periodicity` gives it, and the special value at u =
    q^(j/2) zeta^k for j = 1 .. min(ell*, N - 1) as :func:`check_theta_value_laurent` gives it.  Step 1 runs term
    by term, and each later step costs O(1) when it holds; each special value reads two rows when the root table
    passes ``_vertex_lowest``.  Otherwise each takes the pointwise route."""
    base = next(iter(eval_theta_laurent(0, k, ell, n_max).items()))  # checks k, ell and N >= 0
    ell_star = (ell - 1) // 2
    _require_int(n_max, "truncation radius", ell_star)
    terms, rows = theta_terms(n_max), _root_terms(k, ell, n_max)
    values = tuple(ThetaValue._trusted(j, ell, *_multiplier(j, ell)) for j in range(1, ell_star + 1))
    step = _quasi_periodicity(terms, 1)
    shifts = (step, *(_quasi_periodicity(terms, j, step[0]) for j in range(2, ell_star + 1)))
    vertex = rows if _vertex_lowest(rows, n_max) else None
    # values[j - 1] is xi_j, and the special value needs j <= N - 1
    ratios = tuple(_laurent_ratio(tv, k, n_max, *base, vertex) for tv in values[: n_max - 1])
    return values, shifts, ratios
