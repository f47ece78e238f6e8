"""p-adic log, valuation chains, and the epsilon step count.

There are three log oracles here.  exp_mod below is an independent
implementation of the inverse map on the same subgroups, so
exp_mod(p, N, padic_log(u)) == u.value is a roundtrip through two
different series with separately justified cutoffs.  _log_by_fractions
is the plain log series summed as an exact Fraction with no argument
reduction, which padic_log must match class for class.  _log_per_call
is the integer series padic_log ran before its Horner plan: the argument
power u^(p^m) at a fixed depth m = isqrt(N), one power of x per term
divided exactly by p^(v_p(k)), and every (p, N) quantity worked out
afresh on each call.  At the suite's level, _trials_unit_by_unit is
cmd_loglink's log-rule trials as they ran before the batched kernel:
PadicUnit records, one padic_log call per log.
"""

import random
from fractions import Fraction
from itertools import chain, takewhile
from math import isqrt
from types import SimpleNamespace

import pytest
from conftest import CONFIGS, assert_immutable_value, run_cli, write_config

from tiltval import cli, loglink
from tiltval.errors import DomainError, VerificationError
from tiltval.loglink import (
    LogLinkChain,
    PadicUnit,
    _floor_log,
    _log_plan,
    _log_series,
    _logs,
    _require_prime,
    _unit_draws,
    chain_build,
    m_of_epsilon,
    padic_log,
)
from tiltval.tilt import _is_int, is_prime


def exp_mod(p: int, precision: int, y: int) -> int:
    """exp(y) mod p^precision for y in pZ (4Z when p = 2).

    Term k is y^k / k! with v_p at least k*v - (k - 1)/(p - 1), v = v_p(y)
    floor (2 for p = 2, else 1); that bound grows strictly, so truncation
    at the first k reaching the precision drops only multiples of p^N.
    """
    v = 2 if p == 2 else 1
    assert y % (4 if p == 2 else p) == 0
    total = Fraction(0)
    term_num = 1  # y^k
    factorial = 1
    k = 0
    while Fraction(k * v) - Fraction(k - 1, p - 1) < precision or k == 0:
        total += Fraction(term_num, factorial)
        k += 1
        term_num *= y
        factorial *= k
    assert total.denominator % p != 0
    modulus = p**precision
    return (total.numerator * pow(total.denominator, -1, modulus)) % modulus


def _log_by_fractions(u: PadicUnit) -> int:
    """log(u) mod p^N from the unreduced series summed as one exact Fraction.

    Term k has valuation at least k*v - floor(log_p k), v = 1 (2 for
    p = 2), which never decreases; the first k where it reaches N is the
    cutoff.  The Fraction's denominator stays prime to p, so one modular
    inversion reduces it.
    """
    p, precision, modulus = u.p, u.precision, u.p**u.precision
    x = (u.value - 1) % modulus
    if x == 0:
        return 0
    v = 2 if p == 2 else 1
    cutoff = 1
    while cutoff * v - _floor_log(cutoff, p) < precision:
        cutoff += 1
    total = Fraction(0)
    x_pow = 1
    for k in range(1, cutoff):
        x_pow *= x
        term = Fraction(x_pow, k)
        total = total + term if k % 2 else total - term
    assert total.denominator % p != 0
    return (total.numerator * pow(total.denominator, -1, modulus)) % modulus


def _log_per_call(u: PadicUnit) -> int:
    """The pre-Horner route, kept as an oracle: depth isqrt(N), per-term shifts and inverses, recomputed per call."""
    p, n_prec = u.p, u.precision
    if u.value == 1:
        return 0
    m = isqrt(n_prec)
    reduced = n_prec + m
    reduced_mod = p**reduced
    x = (pow(u.value, p**m, reduced_mod) - 1) % reduced_mod
    if x == 0:
        raise VerificationError(f"u^(p^{m}) collapsed to 1 mod {p}^{reduced} for u != 1")
    w = m + 2 if p == 2 else m + 1
    cutoff = 1
    while cutoff * w - _floor_log(cutoff, p) < reduced:
        cutoff += 1
    work_mod = p ** (reduced + _floor_log(cutoff - 1, p))
    total = 0
    x_pow = 1
    for k in range(1, cutoff):
        x_pow = x_pow * x % work_mod
        unit, shift = k, 1
        while unit % p == 0:
            unit //= p
            shift *= p
        term, rest = divmod(x_pow, shift)
        if rest:
            raise VerificationError(f"x^{k} is not divisible by {shift}")
        term = term * pow(unit, -1, reduced_mod)
        total = total + term if k % 2 else total - term
    total %= reduced_mod
    scale = p**m
    if total % scale:
        raise VerificationError(f"log(u^(p^{m})) is not divisible by p^{m}")
    result = total // scale % u.p**u.precision
    subgroup = 4 if p == 2 else p
    if result % subgroup:
        raise VerificationError(f"log left the expected subgroup {subgroup}Z/{p}^{n_prec}")
    return result


def test_unit_value_refuses_bool():
    # PadicUnit(3, 4, True) would pass the congruence check, since True % 3 == 1.
    for flag in (True, False):
        with pytest.raises(DomainError, match="value must be an integer"):
            PadicUnit(3, 4, flag)


def test_unit_builder_checks_the_group_before_it_computes_p_to_the_n():
    # None ** 5 and 2 ** None would end in a bare TypeError; a refusal is one DomainError line.
    for p, precision in ((None, 5), ("5", 5), (True, 5), (False, 5), (2, None)):
        with pytest.raises(DomainError, match=r"^(p must be prime|precision must be an integer), got [^\n]*$"):
            PadicUnit.of(p, precision, 1)


def _unit_oracle(p, precision, value) -> bool:
    """True when PadicUnit's own rules, as written out before it called PadicUnit.of, accept.

    The replaced route, kept as the oracle: a prime p, a precision at its floor, and an int value, not a bool,
    reduced mod p^N and 1 mod p (mod 4 for p = 2).
    """
    if not is_prime(p) or not _is_int(precision) or precision < _precision_floor(p):
        return False
    return _is_int(value) and 0 <= value < p**precision and value % (4 if p == 2 else p) == 1


def test_the_constructor_accepts_what_the_replaced_unit_rules_accept():
    rng = random.Random(5323)
    accepted = refused = 0
    for p in (2, 3, 5):
        step = 4 if p == 2 else p
        for precision in range(_precision_floor(p) - 1, 21):
            modulus = p**precision
            values = [True, False, -modulus, -1, 0, 1, modulus - 1, modulus, modulus + 1, 2 * modulus]
            values += [rng.randrange(-modulus, 2 * modulus) for _ in range(8)]
            values += [1 + step * rng.randrange(-modulus // step, 2 * modulus // step) for _ in range(8)]  # units
            for value in values:
                if _unit_oracle(p, precision, value):
                    accepted += 1
                    assert PadicUnit(p, precision, value) == PadicUnit.of(p, precision, value), (p, precision, value)
                    continue
                refused += 1
                with pytest.raises(DomainError):
                    PadicUnit(p, precision, value)
    assert accepted >= 150 and refused >= 500, (accepted, refused)


def test_unit_validation():
    with pytest.raises(DomainError):
        PadicUnit(5, 4, 7)  # not 1 mod 5
    with pytest.raises(DomainError):
        PadicUnit(2, 5, 3)  # 3 != 1 mod 4
    with pytest.raises(DomainError):
        PadicUnit(5, 4, 626)  # not reduced
    with pytest.raises(DomainError):
        PadicUnit(4, 3, 1)
    with pytest.raises(DomainError) as info:
        PadicUnit(3, 1, 1)
    assert "the minimum 2 for" in str(info.value)
    with pytest.raises(DomainError) as info:
        PadicUnit(2, 2, 1)
    assert "the minimum 3 for" in str(info.value)
    assert PadicUnit.of(5, 4, 631).value == 6
    with pytest.raises(DomainError):
        PadicUnit.of(5, 0, 1)


def test_log_frozen_and_exp_roundtrip():
    # log(6) = 6-1 - 25/2 + 125/3 - ... = 555 mod 625, worked by hand
    assert padic_log(PadicUnit(5, 4, 6)) == 555
    assert exp_mod(5, 4, 555) == 6


def _precision_floor(p: int) -> int:
    return 3 if p == 2 else 2


def test_log_matches_fraction_series_randomized():
    rng = random.Random(4111)
    for p in (2, 3, 5, 7, 11, 131):
        for precision in chain(range(_precision_floor(p), 17), (24, 32, 48, 64, 96, 128)):
            edge = (1, 1 + p ** (precision - 1))
            units = [PadicUnit(p, precision, value) for value in edge]
            units += [PadicUnit.random(rng, p, precision) for _ in range(4)]
            for u in units:
                assert padic_log(u) == _log_by_fractions(u), (p, precision, u.value)


def test_log_matches_fraction_series_exhaustively():
    for p, top in ((2, 8), (3, 6), (5, 4)):
        step = 4 if p == 2 else p
        for precision in range(_precision_floor(p), top + 1):
            for value in range(1, p**precision, step):
                u = PadicUnit(p, precision, value)
                assert padic_log(u) == _log_by_fractions(u), (p, precision, value)


def test_log_matches_the_per_call_series_randomized():
    rng = random.Random(6113)
    for p in (2, 3, 5, 7):
        floor = _precision_floor(p)
        precisions = sorted({floor, 300, *rng.sample(range(floor, 301), 12)})
        for precision in precisions:
            step = 4 if p == 2 else p
            edge = (1, 1 + p ** (precision - 1), (1 - step) % p**precision)
            units = [PadicUnit(p, precision, value) for value in edge]
            units += [PadicUnit.random(rng, p, precision) for _ in range(5)]
            for u in units:
                assert padic_log(u) == _log_per_call(u), (p, precision, u.value)


def _stage_tuples(p: int, precision: int):
    """Every stage tuple: b_i <= L_i < N and p^b_i <= 128, with L_0 = w and L_(i+1) = L_i + b_i.

    The empty tuple is the Horner-only plan.
    """
    top = _floor_log(128, p)

    def walk(level, digits):
        yield digits
        for b in range(1, min(level, top) + 1) if level < precision else ():
            yield from walk(level + b, (*digits, b))

    return walk(2 if p == 2 else 1, ())


def _drawn_stage_tuple(rng: random.Random, p: int, precision: int) -> tuple[int, ...]:
    """One stage tuple from rng: after each stage, one more with chance 4/5 while L_i < N."""
    level, digits, top = 2 if p == 2 else 1, (), _floor_log(128, p)
    while level < precision and top and rng.random() < 0.8:
        b = rng.randint(1, min(level, top))
        level, digits = level + b, (*digits, b)
    return digits


def _greedy_tuples(p: int, precision: int):
    """The stage tuples _log_series weighs: each stage reads min(L_i, log_p 128) digits."""
    level, digits, top = 2 if p == 2 else 1, (), _floor_log(128, p)
    while True:
        yield digits
        if level >= precision or not top:
            return
        digits, level = (*digits, min(level, top)), level + min(level, top)


def _plan_cost(p: int, precision: int, digits: tuple[int, ...]) -> int:
    """A plan's multiplications as _log_series counts them: 2 per stage and the Horner steps."""
    level = (2 if p == 2 else 1) + sum(digits)
    cutoff = -(-precision // level)  # no smaller k has k * level >= N
    while cutoff * level - _floor_log(cutoff, p) < precision:
        cutoff += 1
    return 2 * len(digits) + cutoff - 1


def _table_digits(p: int, size: int) -> int:
    b = 0
    while p**b < size:
        b += 1
    assert p**b == size
    return b


def _plan_shape(plan: tuple) -> tuple:
    """(the stage table sizes, the Horner steps) of a plan."""
    return [stage[0] for stage in plan[2]], len(plan[-1])


def test_every_reduction_depth_gives_the_same_class(monkeypatch):
    # Up to N = 8 every admissible stage tuple is tried, the greedy ones _log_series weighs and
    # every other.  Above that, the Horner-only route (the empty tuple, kept reachable as an
    # oracle), every one-stage tuple b <= min(w, log_p 128) and the greedy tuples of up to three
    # stages; then the chosen plan and 6 drawn tuples per (p, N).  _log_per_call, which reduces
    # by the argument power u^(p^m) at depth m = isqrt(N) instead, agrees on every unit.
    rng = random.Random(1709)
    for p in (2, 3, 5, 7, 53, 131):
        step = 4 if p == 2 else p
        for precision in sorted({_precision_floor(p), 6, 8, 14, 48, 80, 96, 128, 300}):
            edge = (1 + p ** (precision - 1), (1 - step) % p**precision)
            units = [PadicUnit(p, precision, value) for value in edge]
            units += [PadicUnit.random(rng, p, precision) for _ in range(2)]
            expected = [_log_by_fractions(u) for u in units]
            assert [_log_per_call(u) for u in units] == expected, (p, precision)
            chosen = _log_series(p, precision)
            plans = {tuple(_table_digits(p, stage[0]) for stage in chosen[2])}
            plans |= {(b,) for b in range(1, min(2 if p == 2 else 1, _floor_log(128, p)) + 1)}
            if precision <= 8:
                plans |= set(_stage_tuples(p, precision))
            else:
                plans |= {digits for digits in _greedy_tuples(p, precision) if len(digits) <= 3}
            plans |= {_drawn_stage_tuple(rng, p, precision) for _ in range(6)}
            for digits in sorted(plans):
                plan = _log_plan(p, precision, digits)
                monkeypatch.setattr("tiltval.loglink._log_series", lambda p, n, plan=plan: plan)
                assert [padic_log(u) for u in units] == expected, (p, precision, digits)
            monkeypatch.undo()


def test_the_plan_takes_the_cheapest_stage_count():
    # (table sizes, Horner steps) per (p, N): the 9 deep-precision cells, the 4 wide-ell cells, the
    # defaults and the F_3 config.
    chosen = {
        (2, 48): ([4, 16, 128], 3), (2, 88): ([4, 16, 128], 5), (2, 128): ([4, 16, 128, 128], 5),
        (3, 48): ([3, 9, 81], 6), (3, 72): ([3, 9, 81, 81], 6), (3, 96): ([3, 9, 81, 81], 7),
        (5, 48): ([5, 25, 125], 6), (5, 64): ([5, 25, 125, 125], 6), (5, 80): ([5, 25, 125, 125], 7),
        (23, 14): ([23], 6), (29, 14): ([29], 6), (41, 14): ([41], 6), (53, 14): ([53], 6),
        (2, 14): ([4], 3), (3, 14): ([3, 9], 3),
    }
    for (p, precision), shape in chosen.items():
        assert _plan_shape(_log_series(p, precision)) == shape, (p, precision)
    # Every plan is admissible, and no greedy plan, weighed without pruning, costs less or ties it
    # with fewer stages.
    for p in (2, 3, 5, 7, 53, 131):
        for precision in range(_precision_floor(p), 301):
            plan = _log_series(p, precision)
            digits = tuple(_table_digits(p, stage[0]) for stage in plan[2])
            level = 2 if p == 2 else 1
            for b, (size, table, cleared, shift) in zip(digits, plan[2]):
                assert 1 <= b <= level < precision and size <= 128, (p, precision)
                assert len(table) == len(cleared) == size and shift == p ** (level + b), (p, precision)
                level += b
            key = (_plan_cost(p, precision, digits), len(digits))
            assert key == min(  # a plan of k stages costs at least 2k
                (_plan_cost(p, precision, d), len(d))
                for d in takewhile(lambda d: 2 * len(d) <= key[0], _greedy_tuples(p, precision))
            ), (p, precision)


def test_no_plan_starts_with_a_zero_coefficient():
    # A leading d_k that is 0 mod p^N would only spend a Horner step on t = 0.
    for p in (2, 3, 5, 7, 53, 131):
        for precision in range(_precision_floor(p), 301):
            coefficients = _log_series(p, precision)[-1]
            assert coefficients and coefficients[0], (p, precision)


def test_a_non_principal_unit_fails_the_valuation_guard():
    # 2 = -1 mod 3, so u - 1 = 1 mod 3: x falls short of v(x) >= w.
    with pytest.raises(VerificationError, match="not a principal unit"):
        padic_log(PadicUnit._trusted(3, 10, 2))


@pytest.mark.parametrize("p", [2, 3])
def test_the_fraction_oracle_catches_a_plan_without_its_top_term(monkeypatch, p):
    # In the Horner-only plan (no stage), at the defaults' (2, 14) and the F_3 config's
    # (3, 14), this fault passes every check of `all`: the dropped term moves only the top
    # digit, and by an amount additive in u, so both log rules still hold.  With a digit
    # table x' is not additive in u and the log rules fail, but the oracle must catch it
    # in both plans.  A plan keeps no leading coefficient that is 0 mod p^N, so the top
    # one is nonzero and dropping it is a fault.
    rng = random.Random(14)
    units = [PadicUnit.random(rng, p, 14) for _ in range(20)]
    for plan in (_log_series(p, 14), _log_plan(p, 14)):
        *head, coefficients = plan
        top = next(i for i, c in enumerate(coefficients) if c)
        assert top == 0
        faulty = (*head, coefficients[:top] + coefficients[top + 1 :])
        monkeypatch.setattr("tiltval.loglink._log_series", lambda p, n, faulty=faulty: faulty)
        assert any(padic_log(u) != _log_by_fractions(u) for u in units)


def test_loglink_run_builds_one_series_plan():
    _log_series.cache_clear()
    report = cli.cmd_loglink(cli.RunConfig(p=7, ell=5, padic_precision=61).validate())
    assert all(check.passed for check in report.checks)
    info = _log_series.cache_info()
    # Each kernel call reads the plan once: the Kummer shift's three padic_log calls (n = 0, 1 and
    # the default depth 2), log(1), and the five trial batches (u, w, u w, v and v^p).
    assert (info.misses, info.hits) == (1, 8)


def test_loglink_run_checks_p_a_few_times(monkeypatch, capsys):
    # The config validator proved p prime, so the 300 trial residues are drawn without re-checking it.
    calls = []

    def counted(p):
        calls.append(p)
        return _require_prime(p)

    monkeypatch.setattr("tiltval.loglink._require_prime", counted)
    assert cli.main(["loglink"]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 7


def _trials_unit_by_unit(p: int, precision: int, seed: int):
    """cmd_loglink's log-rule trials as they ran before the batched kernel, kept as an oracle.

    Units come from PadicUnit.random, one at a time: 100 pairs, then 100 units for the power rule.
    Each log is one padic_log call on a record, of u.mul(w) and u.pow(p) too.  Returns the product
    and power failure counts and {value: log} of every unit logged.
    """
    rng, modulus, logged = random.Random(seed), p**precision, {}

    def log(u):
        logged[u.value] = padic_log(u)
        return logged[u.value]

    product_failures = power_failures = 0
    for _ in range(100):
        u, w = PadicUnit.random(rng, p, precision), PadicUnit.random(rng, p, precision)
        if log(u.mul(w)) != (log(u) + log(w)) % modulus:
            product_failures += 1
    for _ in range(100):
        u = PadicUnit.random(rng, p, precision)
        if log(u.pow(p)) != (p * log(u)) % modulus:
            power_failures += 1
    return product_failures, power_failures, logged


def _spy_logs(monkeypatch) -> list:
    """Wrap the current loglink._logs (a fault row's patch included): each call's (residues, logs) goes to the list."""
    calls, kernel = [], loglink._logs

    def spy(p, precision, residues):
        logs = kernel(p, precision, residues)
        calls.append((list(residues), logs))
        return logs

    monkeypatch.setattr(loglink, "_logs", spy)
    return calls


def _assert_suite_matches_unit_by_unit(monkeypatch, p, precision, seed):
    failures, power_failures, logged = _trials_unit_by_unit(p, precision, seed)
    calls = _spy_logs(monkeypatch)
    ell = 7 if p == 5 else 5
    report = cli.cmd_loglink(cli.RunConfig(p=p, ell=ell, padic_precision=precision, seed=seed).validate())
    witness = {check.check_id: dict(check.witness) for check in report.checks}
    assert witness["loglink.log_product_rule_trials"]["failures"] == str(failures), (p, precision, seed)
    assert witness["loglink.log_p_power_rule_trials"]["failures"] == str(power_failures), (p, precision, seed)
    batches = [(residues, logs) for residues, logs in calls if len(residues) == 100]
    assert len(batches) == 5, (p, precision, seed)
    assert {y: x for residues, logs in batches for y, x in zip(residues, logs)} == logged, (p, precision, seed)
    return logged


_TRIAL_GRID = [(p, precision) for p in (2, 3, 5, 29) for precision in (3, 14, 48, 128)]


@pytest.mark.parametrize("p, precision", _TRIAL_GRID, ids=[f"p{p}-N{n}" for p, n in _TRIAL_GRID])
def test_the_batched_trials_match_the_unit_by_unit_route(monkeypatch, p, precision):
    # The same draws, failure counts and logs, residue by residue, on seeds 0 to 3.
    for seed in range(4):
        with monkeypatch.context() as patch:
            _assert_suite_matches_unit_by_unit(patch, p, precision, seed)


def _log_fault_rows():
    """The rows of tests/test_faults.py that patch the log kernel or its plan and keep a written report."""
    from test_faults import BLIND, FAULTS

    names = ("log_times_p", "log_of_one_is_p", "log_u_minus_one", "neg_log", "three_log", "one_plus_p_log",
             "plan_linear_coefficient", "plan_log_g", "plan_log_g_last", "log_one_plus_p3", "log_one_plus_p_n_minus_2")
    rows = {row.name: row.patch for row in (*FAULTS, *BLIND) if row.name in names}
    assert sorted(rows) == sorted(names)
    return rows


_LOG_FAULTS = _log_fault_rows()


@pytest.mark.parametrize("name", _LOG_FAULTS)
def test_the_batched_trials_match_the_unit_by_unit_route_under_a_log_fault(monkeypatch, name):
    # Both routes log through the faulty kernel, so they must count the same failures from the same logs.
    # A plan row changes a stage, so it runs only where the plan has one.
    grid = [(p, precision) for p, precision in _TRIAL_GRID if _log_series(p, precision)[2] or "plan" not in name]
    _LOG_FAULTS[name](monkeypatch)
    runs = []
    for p, precision in grid:
        with monkeypatch.context() as patch:
            runs.append((p, precision, _assert_suite_matches_unit_by_unit(patch, p, precision, 0)))
    monkeypatch.undo()
    moved = [(p, precision) for p, precision, logged in runs if _logs(p, precision, list(logged)) != [*logged.values()]]
    assert moved, f"{name} moved no trial log: it no longer patches the kernel both routes run"


_RUN_CONFIGS = {"defaults": "{}", "wide": CONFIGS["wide"], "deep": '{"p": 2, "ell": 5, "padic_precision": 128}'}


@pytest.mark.parametrize("config", _RUN_CONFIGS)
def test_a_loglink_run_logs_504_residues_with_one_plan(monkeypatch, tmp_path, capsys, config):
    # 3 Kummer shifts, log(1) and 500 trial logs: 100 pairs u, w with their products and 100 units v
    # with their p-th powers.  The 300 drawn residues are those of 300 PadicUnit.random draws.
    calls = _spy_logs(monkeypatch)
    _log_series.cache_clear()
    path = write_config(tmp_path, "c.json", _RUN_CONFIGS[config])
    code, _, err = run_cli(capsys, "loglink", "--config", path)
    assert (code, err) == (0, "")
    assert sum(len(residues) for residues, _ in calls) == 504
    assert _log_series.cache_info().misses == 1
    cfg = cli.load_config(path)
    p, precision, modulus = cfg.p, cfg.padic_precision, cfg.p**cfg.padic_precision
    rng = random.Random(cfg.seed)
    draws = [PadicUnit.random(rng, p, precision).value for _ in range(300)]
    us, ws, vs = draws[:200:2], draws[1:200:2], draws[200:]
    expected = [us, ws, [u * w % modulus for u, w in zip(us, ws)], vs, [pow(v, p, modulus) for v in vs]]
    assert sorted(residues for residues, _ in calls if len(residues) == 100) == sorted(expected)


def test_random_unit_takes_one_draw_per_unit():
    # The loglink trials' units, and so the reports, depend on these draws.
    for p, precision in ((2, 9), (3, 6), (5, 4)):
        drawn, replay = random.Random(7), random.Random(7)
        step = 4 if p == 2 else p
        for _ in range(20):
            u = PadicUnit.random(drawn, p, precision)
            assert u.value == 1 + step * replay.randrange(p**precision // step)


def test_a_block_of_units_is_that_many_single_draws_randomized():
    # cmd_loglink draws its 300 trial residues in one call; each, and so every report, must stay as drawn one by one.
    rng = random.Random(2731)
    for p in (2, 3, 5, 7, 11):
        for precision in (_precision_floor(p), 5, 17, 64):
            seed = rng.randrange(2**32)
            block, single = random.Random(seed), random.Random(seed)
            for count in (0, 1, 2, rng.randint(3, 40), 200):
                values = _unit_draws(block, p, precision, count)
                assert values == [PadicUnit.random(single, p, precision).value for _ in range(count)]
                assert block.getstate() == single.getstate()


def test_random_unit_checks_the_precision_floor_before_drawing():
    rng = random.Random(7)
    state = rng.getstate()
    for p, precision, required in ((2, 1, 3), (3, 0, 2)):
        with pytest.raises(DomainError) as info:
            PadicUnit.random(rng, p, precision)
        assert f"the minimum {required} for" in str(info.value)
    assert rng.getstate() == state


_PRECISION_ENTRY_POINTS = {
    "constructor": lambda rng, precision: PadicUnit(3, precision, 4),
    "of": lambda rng, precision: PadicUnit.of(3, precision, 4),
    "random": lambda rng, precision: PadicUnit.random(rng, 3, precision),
    "run_config": lambda rng, precision: cli.RunConfig(p=3, padic_precision=precision).validate(),
}


@pytest.mark.parametrize("entry", _PRECISION_ENTRY_POINTS)
def test_precision_must_be_an_int(entry):
    # A float precision would make float values: PadicUnit(3, 14.0, 4) squared holds 16.0, which padic_log cannot use.
    rng = random.Random(7)
    state = rng.getstate()
    for precision in (14.0, 2.0, True, Fraction(14)):
        with pytest.raises(DomainError, match="precision must be an integer"):
            _PRECISION_ENTRY_POINTS[entry](rng, precision)
    assert rng.getstate() == state


def _random_by_of(rng, p, precision):
    """The earlier draw route: one randrange, then the validating PadicUnit.of."""
    if p == 2:
        return PadicUnit.of(2, precision, 1 + 4 * rng.randrange(2 ** (precision - 2)))
    return PadicUnit.of(p, precision, 1 + p * rng.randrange(p ** (precision - 1)))


def test_random_units_match_the_validated_route_randomized():
    for p in (2, 3, 5, 7, 11):
        for precision in (_precision_floor(p), 5, 17, 64):
            drawn, replay = random.Random(p * 1000 + precision), random.Random(p * 1000 + precision)
            for _ in range(25):
                u = PadicUnit.random(drawn, p, precision)
                assert u == _random_by_of(replay, p, precision)
                assert PadicUnit(u.p, u.precision, u.value) == u


def test_random_unit_checks_p_before_drawing():
    rng = random.Random(5)
    state = rng.getstate()
    for p in (1, 4, 9, 15):
        with pytest.raises(DomainError, match="p must be prime"):
            PadicUnit.random(rng, p, 4)
    assert rng.getstate() == state


def test_log_of_one_is_zero():
    assert padic_log(PadicUnit(5, 4, 1)) == 0
    assert padic_log(PadicUnit(2, 8, 1)) == 0
    assert padic_log(PadicUnit(3, 6, 1)) == 0


def test_log_lands_in_subgroup():
    rng = random.Random(23)
    for p, precision in ((2, 12), (3, 8), (5, 8)):
        for _ in range(30):
            u = PadicUnit.random(rng, p, precision)
            assert padic_log(u) % (4 if p == 2 else p) == 0


def test_exp_log_roundtrip_randomized():
    rng = random.Random(29)
    for p, precision in ((2, 12), (3, 8), (5, 8)):
        for _ in range(60):
            u = PadicUnit.random(rng, p, precision)
            assert exp_mod(p, precision, padic_log(u)) == u.value


def test_log_is_a_homomorphism():
    u = PadicUnit(5, 4, 6)
    assert padic_log(u.mul(u)) == (2 * 555) % 625  # 36 -> 485
    assert padic_log(u.mul(u)) == 485
    rng = random.Random(31)
    for p, precision in ((2, 10), (3, 7), (5, 6)):
        modulus = p**precision
        for _ in range(40):
            a = PadicUnit.random(rng, p, precision)
            b = PadicUnit.random(rng, p, precision)
            assert padic_log(a.mul(b)) == (padic_log(a) + padic_log(b)) % modulus


def test_log_is_a_homomorphism_at_random_precisions():
    # (p, N) drawn with p among the first 12 primes and 131 and N from the floor to 300, half the
    # draws below 40: whatever plan _log_series picks there, products go to sums and p-th powers to
    # p times the log, and below N = 40 every unit's log equals the fraction series'.
    rng = random.Random(4127)
    for _ in range(160):
        p = rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 131))
        precision = rng.randint(_precision_floor(p), rng.choice((40, 300)))
        modulus = p**precision
        for _ in range(3):
            u, w = PadicUnit.random(rng, p, precision), PadicUnit.random(rng, p, precision)
            log_u = padic_log(u)
            assert padic_log(u.mul(w)) == (log_u + padic_log(w)) % modulus, (p, precision, u.value, w.value)
            assert padic_log(u.pow(p)) == p * log_u % modulus, (p, precision, u.value)
            if precision <= 40:
                assert log_u == _log_by_fractions(u), (p, precision, u.value)


def test_log_power_law():
    u = PadicUnit(3, 5, 4)
    base = padic_log(u)
    for k in range(-3, 7):
        assert padic_log(u.pow(k)) == (k * base) % 3**5


def test_unit_products_and_powers_pass_the_public_constructor_randomized():
    rng = random.Random(4421)
    for p in (2, 3, 5, 7):
        for _ in range(20):
            precision = rng.randint(3, 20)
            a = PadicUnit.random(rng, p, precision)
            b = PadicUnit.random(rng, p, precision)
            results = [a.mul(b)] + [a.pow(k) for k in (rng.randint(-5, -1), 0, rng.randint(1, 60))]
            for r in results:
                assert PadicUnit(r.p, r.precision, r.value) == r
            assert results[0] == PadicUnit.of(p, precision, a.value * b.value)


def test_unit_products_and_powers_match_the_reducing_constructor_randomized():
    # mul and pow reduce by the memoised modulus of their group; PadicUnit.of reduces by p^N itself.
    rng = random.Random(2207)
    for p in (2, 3, 5, 29):
        for precision in (3, 14, 80):
            for _ in range(8):
                a = PadicUnit.random(rng, p, precision)
                b = PadicUnit.random(rng, p, precision)
                assert a.mul(b) == PadicUnit.of(p, precision, a.value * b.value)
                for k in (0, 1, p, -rng.randint(1, 2 * p)):
                    expected = a.value**k if k >= 0 else pow(a.value, k, p**precision)
                    assert a.pow(k) == PadicUnit.of(p, precision, expected), (p, precision, k)


def test_mixed_groups_rejected():
    with pytest.raises(DomainError, match=r"^mixed unit groups: \(3, 5\) vs \(3, 4\)$"):
        PadicUnit(3, 5, 4).mul(PadicUnit(3, 4, 4))
    with pytest.raises(DomainError, match=r"^mixed unit groups: \(3, 5\) vs \(5, 5\)$"):
        PadicUnit(3, 5, 4).mul(PadicUnit(5, 5, 6))


def _no_draw(bound):
    raise AssertionError("a refused rng was drawn from")


@pytest.mark.parametrize("call, refused", [
    (lambda u: u.mul(None), "the other unit must be of type PadicUnit, got NoneType"),
    (lambda u: u.pow(None), "exponent must be an integer, got None"),
    (lambda u: u.pow(1.5), "exponent must be an integer, got 1.5"),
    (lambda u: u.pow(True), "exponent must be an integer, got True"),
    (lambda u: padic_log(u.value), "the unit must be of type PadicUnit, got int"),
    (lambda u: PadicUnit.random(None, u.p, u.precision), "rng must be of type Random, got NoneType"),
    # An object that could draw is still refused, before it draws.
    (lambda u: PadicUnit.random(SimpleNamespace(randrange=_no_draw), u.p, u.precision),
     "rng must be of type Random, got SimpleNamespace"),
], ids=["mul_none", "pow_none", "pow_float", "pow_bool", "log_int", "random_none", "random_duck"])
def test_a_wrong_typed_unit_or_exponent_is_a_domain_error(call, refused):
    # padic_log of None or of another record is a row of RECORD_ARGUMENTS in test_record.py.
    with pytest.raises(DomainError, match=f"^{refused}$"):
        call(PadicUnit(5, 4, 6))


def test_records_are_immutable_values():
    assert_immutable_value(lambda: PadicUnit(3, 5, 4))
    assert_immutable_value(lambda: chain_build(2, Fraction(1, 4), (-2, 2)))
    assert PadicUnit(3, 5, 4) != PadicUnit(3, 4, 4)


def test_chain_frozen():
    chain = chain_build(2, Fraction(1, 4), (-2, 2))
    assert chain.entries == (
        (-2, Fraction(1, 16)),
        (-1, Fraction(1, 8)),
        (0, Fraction(1, 4)),
        (1, Fraction(1, 2)),
        (2, Fraction(1)),
    )
    assert chain.value_at(2) == 1
    assert chain.value_at(-2) == Fraction(1, 16)
    with pytest.raises(DomainError):
        chain.value_at(3)


def test_chain_validation():
    with pytest.raises(DomainError):
        chain_build(6, Fraction(1), (0, 2))
    with pytest.raises(DomainError):
        chain_build(2, Fraction(0), (0, 2))
    with pytest.raises(DomainError):
        chain_build(2, 0.25, (0, 2))
    with pytest.raises(DomainError):
        chain_build(2, Fraction(1), (2, 0))
    with pytest.raises(DomainError):
        chain_build(0, Fraction(1), (-1, 1))  # p is checked before any p^n is formed
    with pytest.raises(DomainError):
        chain_build(2, None, (0, 1))
    good = chain_build(3, Fraction(1, 3), (0, 2)).entries
    assert LogLinkChain(p=3, v0=Fraction(1, 3), window=(0, 2), entries=good) == chain_build(3, Fraction(1, 3), (0, 2))
    # A bad chain is bad input (exit 2), not two internal routes that disagree.
    bad = (
        (good[0], (1, Fraction(2, 3)), good[2]),  # off the ratio p
        good[:2],  # short of the window
        ((0, Fraction(5)), (1, Fraction(15)), (2, Fraction(45))),  # steps by p, but ignores v0
        tuple((n, -v) for n, v in good),  # steps by p, but falls
        list(good),  # a list would leave the chain unhashable
        tuple(list(entry) for entry in good),
    )
    for entries in bad:
        with pytest.raises(DomainError, match="entries must be"):
            LogLinkChain(p=3, v0=Fraction(1, 3), window=(0, 2), entries=entries)


def test_m_of_epsilon_frozen():
    assert m_of_epsilon(2, Fraction(1, 3)) == 2
    assert m_of_epsilon(5, Fraction(1, 5)) == 2  # strict: 1/5 is not below 1/5
    assert m_of_epsilon(3, Fraction(99, 100)) == 1
    assert m_of_epsilon(3, Fraction(1)) == 0
    assert m_of_epsilon(3, Fraction(3, 2)) == 0
    with pytest.raises(DomainError):
        m_of_epsilon(3, Fraction(0))
    with pytest.raises(DomainError):
        m_of_epsilon(3, Fraction(-1, 2))
    with pytest.raises(DomainError):
        m_of_epsilon(3, 0.5)
    with pytest.raises(DomainError):
        m_of_epsilon(9, Fraction(1, 2))


def test_m_of_epsilon_minimality():
    rng = random.Random(37)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        eps = Fraction(rng.randint(1, 400), rng.randint(401, 4000))
        m = m_of_epsilon(p, eps)
        assert Fraction(1, p**m) < eps
        if m > 0:
            assert Fraction(1, p ** (m - 1)) >= eps


def test_chain_and_shift_agree():
    chain = chain_build(5, Fraction(2, 7), (-3, 3))
    for n1 in range(-3, 4):
        for n2 in range(-3, 4):
            assert chain.value_at(n2) == chain.value_at(n1) * Fraction(5) ** (n2 - n1)
