"""Every reported check can fail: one table of faults run through the CLI, and a ratchet over the check ids.

A row patches the program, runs one command with --format json --output on each of its configs, and expects
either the exact set of failing ids in the written report (exit 1, nothing on stdout or stderr) or an abort:
exit 1, no report, and one `internal check failed: ` line matching the row's pattern.  The `BLIND` rows are
wrong programs that no check sees yet: each still exits 0 with every check passing.
"""

import json
import re
from fractions import Fraction
from functools import cache
from types import SimpleNamespace
from typing import Callable, NamedTuple

import pytest
from conftest import CONFIGS, replace_everywhere, run_cli, source_patch, write_config

from tiltval import loglink, pilot, theta
from tiltval.ansatz import valuation_profile
from tiltval.loglink import LogLinkChain, _log_series, _logs, chain_build, m_of_epsilon
from tiltval.pilot import _odd_primes_upto, main_bound_check, size_estimate, sum_log_norms, theta_set_sample
from tiltval.theta import ThetaValue, _multiplier, _root_terms, theta_terms
from tiltval.tilt import TiltElement, _power_table
from tiltval.witt import eta_val, primitive_frobenius

THREE = ("defaults", "wide", "f3")
DEFAULTS = ("defaults",)
# At N = 48 the defaults' log plan has three stages (tables of 4, 16 and 128 entries), and the F_3
# config's has two (3 and 9), so a fault can tell a first stage from a last; the defaults' and wide's
# plans have one.
_CONFIG_TEXTS = {**CONFIGS, "deep": '{"padic_precision": 48}'}


class Fault(NamedTuple):
    name: str
    command: str
    configs: tuple[str, ...]
    patch: Callable
    expect: object  # the failing ids on every config, a {config: ids} map, or the abort message as a regex
    witness: dict = {}  # {check id: {witness key: value}}, read on every config


def _set(target, value):
    """tiltval.<target> replaced by value."""
    return lambda monkeypatch: monkeypatch.setattr(f"tiltval.{target}", value)


_PLAN = "step reduced_mod stages coefficients".split()
_STAGE = "size table cleared shift".split()


def _plan(change):
    """The log kernel reading its (p, N) plan with the fields that change(p, plan) returns replaced."""

    def plan(p, precision):
        fields = dict(zip(_PLAN, _log_series(p, precision)))
        fields.update(change(p, SimpleNamespace(**fields)))
        return tuple(fields.values())

    return _set("loglink._log_series", plan)


def _stage(index, change):
    """The log kernel reading its plan with stage `index`'s fields that change(p, plan, stage) returns replaced."""

    def stages(p, f):
        fields = dict(zip(_STAGE, f.stages[index]))
        fields.update(change(p, f, SimpleNamespace(**fields)))
        return {"stages": tuple(tuple(fields.values()) if s is f.stages[index] else s for s in f.stages)}

    return _plan(stages)


def _log(fault):
    """The log kernel with each log x of a residue y replaced by fault(p, N, y, x): padic_log runs it too."""
    return _set("loglink._logs", lambda p, n, ys: [fault(p, n, y, x) for y, x in zip(ys, _logs(p, n, ys))])


def _log_scaled(c):
    """log times c, reduced: every log rule still holds, and only the first-order term can see it."""
    return _log(lambda p, n, y, x: c(p) * x % p**n)


def _table(row):
    """theta_terms with each row (n, sign, q, u) replaced by row(n, sign, q, u)."""
    return _set("theta.theta_terms", lambda n, signed=True: tuple(row(*r) for r in theta_terms(n, signed)))


def _theta_value(fields):
    """The multiplier xi_j's one formula, theta._multiplier, with its (sign, q_exponent, zeta_exponent) replaced by
    fields(j, ell, value), value the true xi_j.  Every value theta_value and the suite build is the faulty one.

    The constructor refuses every field but theta_value's own, so the faulty value is built through _trusted.
    """
    return _set("theta._multiplier", lambda j, ell: fields(j, ell, ThetaValue._trusted(j, ell, *_multiplier(j, ell))))


def _root_table(patch):
    """patch, then a root-table cache of its own over theta._root_rows, so that the table follows the patch and no
    other test reads a table built under it."""

    def both(monkeypatch):
        patch(monkeypatch)
        monkeypatch.setattr(theta, "_root_terms", cache(theta._root_rows))

    return both


def _last_root_row_lowered(monkeypatch):
    """The root table with its last row, n = N, at s-exponent -1 at j = 0: below the base's true lowest, 0."""
    def table(k, ell, n_max):
        rows = _root_terms(k, ell, n_max)
        return (*rows[:-1], (-1, *rows[-1][1:]))

    monkeypatch.setattr(theta, "_root_terms", table)


def _laurent(first, last):
    return {f"theta.value_laurent_ratio.j{j}" for j in range(first, last + 1)}


def _every_shift(*families):
    """Config -> every id of the given folded families: quasi-periodicity at j = 1 .. ell*, the special value at
    j = 1 .. min(ell*, N - 1)."""
    tops = {"theta.quasi_periodicity": (2, 29, 9), "theta.value_laurent_ratio": (2, 28, 9)}
    return {config: {f"{family}.j{j}" for family in families for j in range(1, tops[family][i] + 1)}
            for i, config in enumerate(THREE)}


_INVERSION = "theta.inversion_antisymmetry"
_TABLE_CHECKS = {_INVERSION, "theta.quasi_periodicity.j1", "theta.quasi_periodicity.j2"}
_BOUND_STEPS = (
    ("square_sum_closed_form", "(2 * ls + 1) // 6", "(2 * ls + 1) // 6 + 1"),
    ("margin_factored", "(2 * ell - 1) * (ell - 3)", "(2 * ell - 1) * (ell - 2)"),
    ("lhs_closed_form", "Fraction(square_sum, ls * ls * 2 * ell)", "Fraction(square_sum + 1, ls * ls * 2 * ell)"),
    ("rhs_ratio_form", "Fraction(ls, 2 * ell) * v_q", "Fraction(ls + 1, 2 * ell) * v_q"),
)
_LOG_AT_ONE = "loglink.log_at_one_is_zero"
_LOG_RULES = {"loglink.log_product_rule_trials", "loglink.log_p_power_rule_trials"}
_KUMMER_AND_RULES = {"loglink.kummer_shift_telescoping", *_LOG_RULES}
_ORBIT_LEFT = r"Frobenius translate n = -2 left the ansatz: .*"

FAULTS = [
    # Without (-1)^n the shift identity loses its (-1)^j factor at every odd step.
    Fault("table_unsigned", "verify-theta", DEFAULTS, _table(lambda n, s, q, u: (n, 1, q, u)),
          {_INVERSION, "theta.quasi_periodicity.j1"}),
    # A broken row table fails the identities it breaks in a written report, not as a usage error.
    Fault("table_q_plus_one", "verify-theta", DEFAULTS, _table(lambda n, s, q, u: (n, s, q + 1, u)), {_INVERSION}),
    Fault("table_q_n_n_minus_1", "verify-theta", DEFAULTS, _table(lambda n, s, q, u: (n, s, n * (n - 1) // 2, u)),
          _TABLE_CHECKS),
    Fault("table_u_2n_minus_1", "verify-theta", DEFAULTS, _table(lambda n, s, q, u: (n, s, q, 2 * n - 1)),
          _TABLE_CHECKS),
    Fault("table_sign_doubled", "verify-theta", DEFAULTS, _table(lambda n, s, q, u: (n, 2 * s, q, u)), {_INVERSION}),
    # The signed table handed out as the unsigned control: only an unmatched pair tells the two apart.
    Fault("table_ignores_signed", "all", THREE, _set("theta.theta_terms", lambda n, signed=True: theta_terms(n)),
          {"theta.unsigned_control_fails_antisymmetry"}),
    # Without (-1)^n the lowest coefficients no longer differ by the sign of xi_j.
    Fault("laurent_unsigned", "verify-theta", DEFAULTS, _root_table(source_patch(
        theta, "_root_rows", "_theta_rows(range(-n_max, n_max + 1))", "_theta_rows(range(-n_max, n_max + 1), False)"
    )), {"theta.value_laurent_ratio.j1"}),
    # The coefficient relation must take zeta^(-2jk) from the symbolic value.
    Fault("zeta_off_by_one", "verify-theta", DEFAULTS, _theta_value(
        lambda j, ell, v: (v.sign, v.q_exponent, (v.zeta_exponent + 1) % ell)
    ), _laurent(1, 2), {"theta.value_laurent_ratio.j1": {"coeff_relation_holds": "false"}}),
    # The suite's shortcut.  U(n) = 2n - 1 in the one formula: both tables follow it, so they pass the row compare,
    # but the proof refuses it, and on the pointwise route every term pair is 2j off in its doubled q-exponent,
    # each pair (n, -n - 1) is 4 off in its u-exponent, and every lowest term sits 2j too low.
    Fault("formula_u_2n_minus_1", "verify-theta", THREE, _root_table(_set("theta._U", (-1, 2))), {
        c: {_INVERSION, *ids} for c, ids in _every_shift("theta.quasi_periodicity", "theta.value_laurent_ratio").items()
    }),
    # The shift identity stated without its -j^2: the proof refuses the true formulas, and every term pair fails
    # the same statement on the pointwise route.
    Fault("shift_drops_j_squared", "verify-theta", THREE, source_patch(
        theta, "_shift_sides", "q2_s - j * j", "q2_s"
    ), _every_shift("theta.quasi_periodicity")),
    # A row compare that skips the last row passes a root table whose last row is wrong; the base evaluation still
    # reads that row, so every special value's gap is off by one.
    Fault("row_compare_skips_last", "verify-theta", THREE, lambda monkeypatch: (source_patch(
        theta, "check_shifts", "rows == _root_rows(k, ell, n_max)", "rows[:-1] == _root_rows(k, ell, n_max)[:-1]"
    )(monkeypatch), _last_root_row_lowered(monkeypatch)), _every_shift("theta.value_laurent_ratio")),
    # The vertex read one row up, n = -j and -j + 1: the two exponents differ, and the lowest moves up by 2.
    Fault("vertex_read_one_off", "verify-theta", THREE, source_patch(
        theta, "_laurent_ratio", "rows[n_max - j - 1 : n_max - j + 1]", "rows[n_max - j : n_max - j + 2]"
    ), _every_shift("theta.value_laurent_ratio")),
    # A q-exponent of j^3 / (2 ell) agrees with the true j^2 / (2 ell) only at j = 1.
    Fault("q_exponent_j_cubed", "all", THREE, _theta_value(
        lambda j, ell, v: (v.sign, Fraction(j**3, 2 * ell), v.zeta_exponent)
    ), {c: {"theta.value_q_exponent_scaling", *_laurent(2, top)} for c, top in zip(THREE, (2, 28, 9))}),
    *(Fault(f"bound_{step}", "bound", DEFAULTS, source_patch(pilot, "main_bound_check", old, new), {f"bound.{step}"})
      for step, old, new in _BOUND_STEPS),
    # The equality prime fails the strict bound with nothing patched.
    Fault("bound_at_ell3", "bound", ("ell3",), lambda monkeypatch: None, {"bound.strict_inequality"}),
    Fault("profile_doubled", "all", THREE, _set(
        "cli.valuation_profile", lambda point: tuple(2 * v for v in valuation_profile(point))
    ), {"ansatz.witness_profile_squares", "ansatz.witness_top_normalized"}),
    # An eta off by one breaks the j^2 factor of every untilt, and the untilt gauge with it.
    Fault("eta_plus_one", "ansatz", DEFAULTS, _set("cli.eta_val", lambda prim, x: eta_val(prim, x) + 1),
          {"ansatz.untilt_records", "ansatz.witness_untilt_gauge"}),
    # Equal sort keys merge every pilot into one, so the sample loses the orbit and its scaling.
    Fault("pilots_merged", "ansatz", DEFAULTS, _set("pilot._pilot_sort_key", lambda t: (t.ansatz.ell,)),
          {"ansatz.orbit_membership", "ansatz.orbit_profile_scaling"}),
    # Descending lifts keep every orbit point but list the orbit from n = depth down.
    Fault("pilots_descending", "ansatz", DEFAULTS, _set(
        "pilot._pilot_sort_key", lambda t: tuple(-e for e in t.lifts)
    ), {"ansatz.orbit_profile_scaling"}),
    # frobenius_orbit checks each step once, and refuses a generator twisted one step too far.
    Fault("frobenius_mistwisted", "ansatz", DEFAULTS, _set(
        "ansatz.primitive_frobenius", lambda w, n=1: primitive_frobenius(w, n + 1)
    ), _ORBIT_LEFT),
    # Membership computes its powers itself, so a power table (make_ansatz's, and tilt_pow's) returning
    # a^(k+1) at every import site builds a family that the orbit constructor refuses.
    Fault("tilt_pow_one_too_many", "ansatz", DEFAULTS, lambda monkeypatch: replace_everywhere(
        monkeypatch, _power_table, lambda x: lambda k, power=_power_table(x): power(k + 1)
    ), _ORBIT_LEFT),
    # build_pilot builds through _trusted, so a broken lift formula is no DomainError (exit 2, a config
    # fault): the orbit still scales by p, and sum_log_norms's closed form catches it.
    Fault("lift_formula", "ansatz", DEFAULTS, source_patch(
        pilot, "build_pilot", "Fraction(n1 * j * j, d1)", "Fraction(n1 * j * j + 1, d1)"
    ), r"square-sum identity violated: .*"),
    Fault("every_tuple_a_member", "all", THREE, _set("cli.is_member", lambda members: True),
          {"ansatz.tampered_tuple_rejected"}),
    # t -> u t scaling each coefficient by u instead of u^m; the only unit over F_2 is u = 1.
    Fault("rescale_by_u", "all", ("wide", "f3"), _set(
        "cli.tilt_rescale_t", lambda x, u: TiltElement._trusted(x.p, x.s, tuple((m, c * u % x.p) for m, c in x.nums))
    ), {"ansatz.scale_invariance"}),
    # The identity keeps every member a member, but t is not u*t; over F_2 the identity is the substitution.
    Fault("rescale_identity", "all", ("wide", "f3"), _set("cli.tilt_rescale_t", lambda x, u: x),
          {"ansatz.scale_invariance"}),
    Fault("size_estimate_max", "all", THREE, _set(
        "pilot.size_estimate", lambda sample, rho: max(sum_log_norms(t, rho) for t in sample)
    ), {"ansatz.sample_size_estimate"}),
    Fault("size_estimate_negative_at_one", "all", THREE, _set(
        "pilot.size_estimate", lambda sample, rho: Fraction(-1) if rho.at_one else size_estimate(sample, rho)
    ), {"ansatz.boundary_cap_nonnegative"}),
    # chain_build builds through _trusted, so a broken entry formula reaches the chain checks instead of
    # aborting the run.
    Fault("chain_base_p_plus_one", "loglink", DEFAULTS, source_patch(
        loglink, "chain_build", "v0 * Fraction(p) ** n", "v0 * Fraction(p + 1) ** n"
    ), {"loglink.chain_ratio_is_p"}),
    # Entries -v0 p^n still step by p, but they fall as n grows.
    Fault("chain_falling", "loglink", DEFAULTS, _set("loglink.chain_build", lambda p, v0, w: LogLinkChain._trusted(
        p, v0, w, tuple((n, -v0 * Fraction(p) ** n) for n in range(w[0], w[1] + 1))
    )), {"loglink.chain_strictly_increasing"}),
    Fault("m_of_epsilon_plus_one", "all", THREE, _set("loglink.m_of_epsilon", lambda p, e: m_of_epsilon(p, e) + 1),
          {"loglink.m_of_epsilon_grid"}),
    # Stopping at 1/p^m = eps keeps an m one too small where eps is a power of 1/p.  Wide's grid has none:
    # every eps there is above 1/29, so it is no config for this row.
    Fault("m_of_epsilon_stops_at_equality", "all", ("defaults", "f3"), source_patch(
        loglink, "m_of_epsilon", "Fraction(1, p**m) >= eps", "Fraction(1, p**m) > eps"
    ), {"loglink.m_of_epsilon_grid"}),
    # A log scaled by p still turns products into sums, but every valuation moves up by one.
    Fault("log_times_p", "loglink", DEFAULTS, _log(lambda p, n, y, x: x * p % p**n),
          {"loglink.kummer_shift_telescoping"}),
    Fault("log_of_one_is_p", "all", THREE, _log(lambda p, n, y, x: p if y == 1 else x),
          {"defaults": {_LOG_AT_ONE, "loglink.log_product_rule_trials"}, "wide": {_LOG_AT_ONE}, "f3": {_LOG_AT_ONE}}),
    # u - 1 lands in the right subgroup but turns no product into a sum.
    Fault("log_u_minus_one", "loglink", DEFAULTS, _log(lambda p, n, y, x: (y - 1) % p**n), _LOG_RULES),
    # c log passes both log rules and the Kummer valuations for every unit c, but log(1 + x) = x mod
    # p^(2 v(x)) holds for it only where c = 1 mod p^(v(x)) (p^(v(x) - 1) at p = 2); -1, 3 and 1 + p
    # each miss that at the Kummer shift's unit with v(x) = v + 1.
    *(Fault(name, "all", THREE, _log_scaled(c), {"loglink.kummer_shift_telescoping"}) for name, c in (
        ("neg_log", lambda p: -1), ("three_log", lambda p: 3), ("one_plus_p_log", lambda p: 1 + p),
    )),
    # The plan faults below move log(u) by a multiple of p^(L+1), L a stage's level.  The log rules
    # see every one of them; the Kummer shift's first-order check sees a move only where it lands
    # below 2 v(u - 1) (2 v(u - 1) - 1 at p = 2) for one of its units, which depends on the plan.
    # The linear coefficient moved by p^(L+1), L the last level: log(u) moves by p (y' - 1), y' the
    # last stage's product.
    Fault("plan_linear_coefficient", "all", (*THREE, "deep"), _plan(lambda p, f: {
        "coefficients": (*f.coefficients[:-1], (f.coefficients[-1] + p * f.stages[-1][3]) % f.reduced_mod)
    }), {"defaults": _KUMMER_AND_RULES, "wide": _KUMMER_AND_RULES, "f3": _KUMMER_AND_RULES, "deep": _LOG_RULES}),
    # log(g_i) moved by p^(L_i+1): log(u) moves by d p^(L_i+1), d the digits stage i clears.
    # plan_log_g moves the first stage's, plan_log_g_last the last stage's.
    *(Fault(name, "all", (*THREE, "deep"), _stage(index, lambda p, f, s: {
        "cleared": tuple(c + d * p * (s.shift // s.size) for d, c in enumerate(s.cleared))
    }), {"defaults": _KUMMER_AND_RULES, "wide": _LOG_RULES, "f3": f3, "deep": deep}) for name, index, f3, deep in (
        ("plan_log_g", 0, _LOG_RULES, _KUMMER_AND_RULES), ("plan_log_g_last", -1, _KUMMER_AND_RULES, _LOG_RULES),
    )),
    # A stage's last table power g^(-(p^b - 1)) read as g^(-(p^b - 2)): a unit whose digits pick it
    # leaves y g^(-d) != 1 mod p^(L+b), and the digit guard ends the run.  plan_table_power breaks the
    # first stage's table, plan_table_power_last the last stage's.
    *(Fault(name, "all", (*THREE, "deep"), _stage(index, lambda p, f, s: {"table": (*s.table[:-1], s.table[-2])}),
            r".* a wrong digit table") for name, index in (("plan_table_power", 0), ("plan_table_power_last", -1))),
    # A prime walk that lets ell = 3 through meets the equality prime, where the strict bound fails.
    Fault("sweep_walks_through_ell3", "sweep-ell", DEFAULTS, _set(
        "pilot._odd_primes_upto", lambda limit, start=3: _odd_primes_upto(limit)
    ), {"sweep.all_primes_from_5_pass"}, {"sweep.all_primes_from_5_pass": {"failures": "(3)", "primes_checked": "24"}}),
    # v_q doubled at ell = 3 only: lhs = rhs still holds, but at 2 v_q / 6.
    Fault("ell3_at_twice_v_q", "all", THREE, _set(
        "pilot.main_bound_check", lambda ell, v_q: main_bound_check(ell, 2 * v_q if ell == 3 else v_q)
    ), {"sweep.ell3_boundary_equality"}),
    Fault("threshold_by_sweep_7", "all", THREE, _set("pilot.threshold_ell_by_sweep", lambda limit: 7),
          {"sweep.threshold_by_sweep", "sweep.threshold_routes_agree"}),
    Fault("threshold_by_roots_7", "sweep-ell", DEFAULTS, _set("pilot.threshold_ell_by_root_analysis", lambda limit: 7),
          {"sweep.threshold_by_root_analysis", "sweep.threshold_routes_agree"},
          {"sweep.threshold_routes_agree": {"threshold": "5"}}),
]

# Reported ids that no fault can turn to FAIL, each with its reason.  The table may only shrink.
_LITERAL = "main_bound_check records this quantity step with a literal True"
_TAUTOLOGY = "corollary_c_check returns c < 1 once the bound holds, and the check compares that with c < 1"
CANNOT_FAIL = {
    "bound.lhs_termwise": _LITERAL,
    "bound.rhs_product_form": _LITERAL,
    "bound.margin": _LITERAL,
    "bound.corollary_c_1_2": _TAUTOLOGY,
    "bound.corollary_c_1_1": _TAUTOLOGY,
    "bound.corollary_c_2_1": _TAUTOLOGY,
}

# Wrong programs that the report cannot see: under `all`, each exits 0 with every check passing on its configs.
# The table may only shrink: a row leaves when a check FAILs it (its closing ROADMAP item) and moves to FAULTS, or
# by a written equivalence argument.  One such argument: the identity tilt_rescale_t on the defaults is no row,
# because at p = 2 the only unit is 1 and the identity is the substitution t -> 1 * t itself.


class Blind(NamedTuple):
    name: str
    configs: tuple[str, ...]
    patch: Callable
    closed_by: str  # the ROADMAP item whose check would FAIL it


BLIND = [
    # xi enters the pilots' lifts only, and no check compares the sample's size with the bound's lhs.
    Blind("xi_doubled", THREE, _set(
        "pilot.theta_set_sample", lambda points, xi, depth: theta_set_sample(points, 2 * xi, depth)
    ), "item 3"),
    Blind("bound_two_vq", THREE, _set(
        "pilot.main_bound_check", lambda ell, v_q: main_bound_check(ell, v_q if ell == 3 else 2 * v_q)
    ), "item 3 (or 6)"),
    # The chain checks read only ratios and order, and cmd_loglink passes v0 = 1 as a literal.
    Blind("chain_two_v0", THREE, _set("loglink.chain_build", lambda p, v0, w: chain_build(p, 2 * v0, w)), "none yet"),
    # The Kummer shift sees c = 1 + p^3 only at depth 5: F_3 FAILs loglink.kummer_shift_telescoping.
    Blind("log_one_plus_p3", ("defaults", "wide"), _log_scaled(lambda p: 1 + p**3), "item 5"),
    Blind("log_one_plus_p_n_minus_2", THREE, _log(lambda p, n, y, x: (1 + p ** (n - 2)) * x % p**n), "item 5"),
    # Every theta check evaluates at the root of unity zeta^1 only.
    Blind("theta_k_dropped", THREE, _set("theta._root_terms", lambda k, ell, n_max: _root_terms(1, ell, n_max)),
          "item 7"),
]


def _expected(fault, config):
    return fault.expect[config] if isinstance(fault.expect, dict) else fault.expect


def _checks(body):
    """Check id -> check, for a one-suite or an `all` report."""
    return {check["id"]: check for suite in body.get("suites", [body]) for check in suite["checks"]}


def _fold(check_id):
    return re.sub(r"\.j[0-9]+$", "", check_id)


def _drive(monkeypatch, tmp_path, capsys, patch, command, config):
    """Apply patch and run command on config, the report written to a file: (code, out, err, report path)."""
    patch(monkeypatch)
    report = tmp_path / "report.json"
    config_path = write_config(tmp_path, "c.json", _CONFIG_TEXTS[config])
    argv = (command, "--format", "json", "--config", config_path, "--output", str(report))
    return (*run_cli(capsys, *argv), report)


_CASES = [(fault, config) for fault in FAULTS for config in fault.configs]


@pytest.mark.parametrize("fault, config", _CASES, ids=[f"{fault.name}-{config}" for fault, config in _CASES])
def test_a_fault_fails_exactly_its_checks(monkeypatch, tmp_path, capsys, fault, config):
    code, out, err, report = _drive(monkeypatch, tmp_path, capsys, fault.patch, fault.command, config)
    expected = _expected(fault, config)
    if isinstance(expected, str):
        assert (code, out, report.exists()) == (1, "", False)
        assert re.fullmatch(f"internal check failed: {expected}\n", err), err
        return
    assert (code, out, err) == (1, "", "")
    checks = _checks(json.loads(report.read_text(encoding="utf-8")))
    assert {check_id for check_id, check in checks.items() if not check["passed"]} == expected
    for check_id, witness in fault.witness.items():
        assert {key: checks[check_id]["witness"][key] for key in witness} == witness


_BLIND_CASES = [(blind, config) for blind in BLIND for config in blind.configs]


@pytest.mark.parametrize("blind, config", _BLIND_CASES, ids=[f"{row.name}-{config}" for row, config in _BLIND_CASES])
def test_a_blind_mutant_still_passes_every_check(monkeypatch, tmp_path, capsys, blind, config):
    code, out, err, report = _drive(monkeypatch, tmp_path, capsys, blind.patch, "all", config)
    failing = []
    if report.exists():
        checks = _checks(json.loads(report.read_text(encoding="utf-8")))
        failing = sorted(check_id for check_id, check in checks.items() if not check["passed"])
    assert (code, failing) == (0, []), (
        f"{blind.name} on {config}: exit {code}, FAILs {failing}, {err!r}: now caught: move it to `FAULTS`"
    )
    assert (out, err) == ("", "")


def test_every_check_id_has_a_fault(tmp_path, capsys):
    reported = set()
    for config in THREE:
        config_path = write_config(tmp_path, "c.json", CONFIGS[config])
        code, out, _ = run_cli(capsys, "all", "--format", "json", "--config", config_path)
        assert code == 0
        reported |= {_fold(check_id) for check_id in _checks(json.loads(out))}
    expected = [_expected(fault, config) for fault, config in _CASES]
    faulted = {_fold(check_id) for ids in expected if not isinstance(ids, str) for check_id in ids}
    assert not faulted & set(CANNOT_FAIL), "a row FAILs these: drop them from CANNOT_FAIL"
    assert not reported - faulted - set(CANNOT_FAIL), "nothing FAILs these: add a fault row or a CANNOT_FAIL reason"
    assert not (faulted | set(CANNOT_FAIL)) - reported, "no longer reported: drop them"
