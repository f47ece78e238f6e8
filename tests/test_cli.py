"""Config parsing, exit codes, and report rendering through the real entry point."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import wraps
from pathlib import Path

import pytest
from conftest import assert_immutable_value

import tiltval
from tiltval import cli
from tiltval.ansatz import frobenius_orbit, make_ansatz
from tiltval.cli import RunConfig, cmd_all, load_config, main, parse_rational
from tiltval.errors import ConfigError, PrecisionError, VerificationError
from tiltval.reporting import CheckRecord, CombinedReport, Report, make_check
from tiltval.theta import ThetaValue, eval_theta_laurent, theta_terms, theta_value
from tiltval.tilt import TiltElement
from tiltval.witt import primitive_frobenius


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, payload: str):
    path = tmp_path / name
    path.write_text(payload, encoding="utf-8")
    return str(path)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("7") == 7
    assert parse_rational("-2/3") == Fraction(-2, 3)
    for bad in ("0.5", "1/0", "3/-4", "", "two", 0.5, None, Fraction(1, 2)):
        with pytest.raises(ConfigError):
            parse_rational(bad)


def test_load_config_defaults_and_overrides(tmp_path):
    assert load_config(None) == RunConfig()
    path = write_config(tmp_path, "c.json", '{"schema": 1, "p": 3, "ell": 7, "v_q": "3/2", "seed": 9}')
    cfg = load_config(path)
    assert (cfg.p, cfg.ell, cfg.v_q, cfg.seed) == (3, 7, Fraction(3, 2), 9)
    assert cfg.theta_truncation == 12  # untouched default


def test_run_config_is_an_immutable_value():
    assert_immutable_value(RunConfig)
    assert_immutable_value(lambda: RunConfig(p=3, ell=7, v_q=Fraction(3, 2), seed=9))
    assert RunConfig(3) == RunConfig(p=3) != RunConfig()
    assert RunConfig().override(seed=None, output_format=None) == RunConfig()
    changed = RunConfig(p=3, ell=7).override(seed=5, output_format="json")
    assert changed == RunConfig(p=3, ell=7, seed=5, output_format="json")
    with pytest.raises(TypeError):
        RunConfig().override(elll=7)


def test_config_echo_keeps_field_order():
    assert [name for name, _ in RunConfig().echo()] == [
        "p",
        "ell",
        "ell_sweep_max",
        "v_q",
        "theta_truncation",
        "frobenius_depth",
        "rho_weight",
        "padic_precision",
        "output_format",
        "seed",
    ]


def test_flags_override_the_config_file(tmp_path, capsys):
    path = write_config(tmp_path, "f.json", '{"p": 3, "ell": 7, "seed": 3, "output_format": "csv"}')
    code, out, _ = run_cli(capsys, "loglink", "--config", path, "--seed", "7", "--format", "json")
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["p"], config["ell"], config["seed"], config["output_format"]) == ("3", "7", "7", "json")
    code, out, _ = run_cli(capsys, "loglink", "--config", path)
    assert code == 0 and out.startswith("suite,check,passed,witness\n")


def test_report_records_are_immutable_values():
    assert_immutable_value(lambda: make_check("x.y", True, value=Fraction(1, 2)))
    run = cmd_all(RunConfig())  # wall times differ between runs, so both copies come from one
    bound = run.suites[1]
    assert_immutable_value(lambda: Report(bound.suite, bound.config_echo, bound.gauges, bound.checks, bound.wall_ms))
    assert_immutable_value(lambda: CombinedReport(run.suites, run.config_echo, run.gauges, wall_ms=run.wall_ms))
    assert Report("bound", (), (), ()) == Report("bound", (), (), (), wall_ms=None)
    assert CheckRecord("x.y", True, ()) != CheckRecord("x.y", False, ())


def test_cli_import_loads_no_dataclasses_or_inspect():
    # A fresh interpreter: pytest itself has already imported both here.  Only
    # the modules the import adds count; site set-up may load inspect itself.
    src = str(Path(tiltval.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = (
        "import sys; before = set(sys.modules); import tiltval.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "[]"


def test_load_config_rejections(tmp_path):
    cases = {
        "unknown.json": '{"elll": 7}',
        "float.json": '{"v_q": 0.5}',
        "constant.json": '{"v_q": NaN}',
        "bool.json": '{"p": true}',
        "schema.json": '{"schema": 2}',
        "schemabool.json": '{"schema": true}',
        "number.json": '{"v_q": 3}',
        "notobj.json": "[1, 2]",
        "syntax.json": "{",
        "badell.json": '{"ell": 9}',
        "ellisp.json": '{"p": 5, "ell": 5}',
        "format.json": '{"output_format": "xml"}',
        "fmtnum.json": '{"output_format": 3}',
        "zeroden.json": '{"v_q": "1/0"}',
    }
    for name, payload in cases.items():
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, name, payload))
    with pytest.raises(PrecisionError):
        load_config(write_config(tmp_path, "prec.json", '{"padic_precision": 2}'))


def test_bound_passes_by_default(capsys):
    code, out, _ = run_cli(capsys, "bound")
    assert code == 0
    assert "[PASS] bound.strict_inequality" in out
    assert "overall: PASS" in out
    assert re.fullmatch(r"wall: \d+ ms", out.splitlines()[-1])  # timing is text-only
    assert not any(line.startswith("-- ") for line in out.splitlines())  # a single suite has no suite headers


def test_bound_equality_prime_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, "e.json", '{"ell": 3}')
    code, out, _ = run_cli(capsys, "bound", "--config", path)
    assert code == 1
    assert "[FAIL] bound.strict_inequality" in out
    assert "margin=0/1" in out
    assert "overall: FAIL" in out


def test_usage_errors_exit_two(tmp_path, capsys):
    # truncation window too small to cover every shift
    path = write_config(tmp_path, "w.json", '{"ell": 7, "theta_truncation": 2}')
    code, _, err = run_cli(capsys, "verify-theta", "--config", path)
    assert code == 2 and "theta_truncation" in err
    # composite ell
    path = write_config(tmp_path, "c.json", '{"ell": 4}')
    code, _, err = run_cli(capsys, "bound", "--config", path)
    assert code == 2 and "odd prime" in err
    # witness exponent not representable over this residue field
    path = write_config(tmp_path, "p3.json", '{"p": 3}')
    code, _, err = run_cli(capsys, "ansatz", "--config", path)
    assert code == 2 and "power of p" in err
    # missing config file
    code, _, err = run_cli(capsys, "bound", "--config", str(tmp_path / "nope.json"))
    assert code == 2 and "error:" in err


def test_argparse_usage_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["bound", "--format", "yaml"])
    assert info.value.code == 2
    capsys.readouterr()


def test_help_lists_the_six_commands_in_table_order(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "{verify-theta,bound,ansatz,loglink,sweep-ell,all}" in capsys.readouterr().out


def test_commands_reach_each_suite_through_its_module_attribute(monkeypatch, capsys):
    # perfbench/tracer.py times a suite by replacing cli.cmd_<suite>.
    real = cli.cmd_bound
    calls = []

    def recording(cfg):
        calls.append(cfg.seed)
        return real(cfg)

    monkeypatch.setattr(cli, "cmd_bound", recording)
    code, out, _ = run_cli(capsys, "all", "--format", "json", "--seed", "3")
    assert code == 0 and calls == [3]
    assert [suite["suite"] for suite in json.loads(out)["suites"]] == [
        "verify-theta", "bound", "ansatz", "loglink", "sweep-ell"
    ]
    code, out, _ = run_cli(capsys, "bound", "--format", "json", "--seed", "4")
    assert code == 0 and calls == [3, 4] and json.loads(out)["suite"] == "bound"


def test_json_report_shape(capsys):
    def no_floats(text):
        raise AssertionError(f"float literal {text!r} in JSON output")

    code, out, _ = run_cli(capsys, "all", "--format", "json")
    assert code == 0
    body = json.loads(out, parse_float=no_floats)
    assert body["schema"] == 1
    assert body["suite"] == "all"
    assert body["overall"] == "pass"
    assert [s["suite"] for s in body["suites"]] == ["verify-theta", "bound", "ansatz", "loglink", "sweep-ell"]
    assert body["counts"]["total"] == sum(s["counts"]["total"] for s in body["suites"])
    assert body["counts"]["failed"] == 0
    assert body["config"]["v_q"] == "1/1"
    assert "wall" not in json.dumps(body)  # no timing in machine formats
    for suite in body["suites"]:
        for check in suite["checks"]:
            assert isinstance(check["passed"], bool)
            assert all(isinstance(v, str) for v in check["witness"].values())


def test_csv_report_rows(capsys):
    code, out, _ = run_cli(capsys, "bound", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite,check,passed,witness"
    assert len(lines) > 1
    assert all(line.startswith("bound,") for line in lines[1:])
    assert all(",true," in line for line in lines[1:])
    strict = next(line for line in lines[1:] if "strict_inequality" in line)
    assert "lhs_log=1/8" in strict and "rhs_log=1/5" in strict and "margin=3/40" in strict


def test_output_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "sweep-ell", "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""  # report went to the file
    code, out, _ = run_cli(capsys, "sweep-ell", "--format", "json")
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_json_runs_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "all", "--format", "json")
    _, second, _ = run_cli(capsys, "all", "--format", "json")
    assert first == second


def test_seed_flag_threads_through(capsys):
    code, out, _ = run_cli(capsys, "loglink", "--seed", "7", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body["config"]["seed"] == "7"
    code, out2, _ = run_cli(capsys, "loglink", "--seed", "7", "--format", "json")
    assert code == 0 and out == out2


def test_config_echo_renders_rationals():
    echo = dict(RunConfig().echo())
    assert echo["v_q"] == "1/1"
    assert echo["rho_weight"] == "1/1"
    assert echo["p"] == "2"


def test_every_text_line_is_gated(capsys):
    code, out, _ = run_cli(capsys, "all")
    assert code == 0
    lines = out.splitlines()
    check_lines = [line for line in lines if line.startswith("[")]
    assert len(check_lines) >= 40
    assert all(line.startswith("[PASS] ") for line in check_lines)
    assert any(line.startswith("overall: PASS (") for line in lines)
    # Each suite header carries that suite's time; together they fit inside the total.
    headers = [re.fullmatch(r"-- ([a-z-]+) -- wall: (\d+) ms", line) for line in lines if line.startswith("-- ")]
    assert [m.group(1) for m in headers] == ["verify-theta", "bound", "ansatz", "loglink", "sweep-ell"]
    total = re.fullmatch(r"wall: (\d+) ms", lines[-1])
    assert sum(int(m.group(2)) for m in headers) <= int(total.group(1))
    for fmt in ("json", "csv"):
        code, out, _ = run_cli(capsys, "all", "--format", fmt)
        assert code == 0 and "wall" not in out and " ms" not in out


def test_non_homomorphic_log_fails_the_log_rules(monkeypatch, capsys):
    # u - 1 lands in the right subgroup but turns no product into a sum.
    monkeypatch.setattr("tiltval.cli.padic_log", lambda u: (u.value - 1) % u.modulus)
    code, out, _ = run_cli(capsys, "loglink", "--format", "json")
    assert code == 1
    verdicts = {check["id"]: check["passed"] for check in json.loads(out)["checks"]}
    assert verdicts["loglink.log_at_one_is_zero"]
    assert not verdicts["loglink.log_product_rule_trials"]
    assert not verdicts["loglink.log_p_power_rule_trials"]


def test_unsigned_evaluation_fails_the_laurent_ratio(monkeypatch, capsys):
    # Without (-1)^n the lowest coefficients no longer differ by the sign of xi_j.
    monkeypatch.setattr(
        "tiltval.theta.eval_theta_laurent",
        lambda j, k, ell, n_max, signed=True: eval_theta_laurent(j, k, ell, n_max, signed=False),
    )
    code, out, _ = run_cli(capsys, "verify-theta", "--format", "json")
    assert code == 1
    verdicts = {check["id"]: check["passed"] for check in json.loads(out)["checks"]}
    assert not verdicts["theta.value_laurent_ratio.j1"]
    assert verdicts["theta.inversion_antisymmetry"]


def test_wrong_zeta_exponent_fails_the_laurent_ratio(monkeypatch, capsys):
    # The coefficient relation must take zeta^(-2jk) from the symbolic value.
    def off_by_one(j, ell):
        tv = theta_value(j, ell)
        return ThetaValue(tv.j, tv.ell, tv.sign, tv.q_exponent, (tv.zeta_exponent + 1) % ell)

    monkeypatch.setattr("tiltval.theta.theta_value", off_by_one)
    code, out, _ = run_cli(capsys, "verify-theta", "--format", "json")
    assert code == 1
    checks = {check["id"]: check for check in json.loads(out)["checks"]}
    assert not checks["theta.value_laurent_ratio.j1"]["passed"]
    assert checks["theta.value_laurent_ratio.j1"]["witness"]["coeff_relation_holds"] == "false"
    assert checks["theta.value_q_exponent_scaling"]["passed"]


def test_unsigned_theta_table_fails_quasi_periodicity(monkeypatch, capsys):
    # Without (-1)^n the shift identity loses its (-1)^j factor at every odd step.
    monkeypatch.setattr("tiltval.theta.theta_terms", lambda n_max, signed=True: theta_terms(n_max, signed=False))
    code, out, _ = run_cli(capsys, "verify-theta", "--format", "json")
    assert code == 1
    verdicts = {check["id"]: check["passed"] for check in json.loads(out)["checks"]}
    assert not verdicts["theta.quasi_periodicity.j1"]
    assert verdicts["theta.quasi_periodicity.j2"]


def _count_calls(monkeypatch, func):
    """Replace func under every name a tiltval module binds it to; return the list of calls."""
    calls = []

    @wraps(func)
    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "tiltval" or name.startswith("tiltval."):
            for key, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_suites_build_their_invariants_once(monkeypatch, tmp_path, capsys):
    tables = _count_calls(monkeypatch, theta_terms)
    evaluations = _count_calls(monkeypatch, eval_theta_laurent)
    orbits = _count_calls(monkeypatch, frobenius_orbit)
    config = write_config(tmp_path, "theta.json", '{"ell": 11, "theta_truncation": 8}')
    code, out, _ = run_cli(capsys, "verify-theta", "--format", "json", "--config", config)
    assert code == 0
    ids = [check["id"] for check in json.loads(out)["checks"]]
    laurent = [i for i in ids if i.startswith("theta.value_laurent_ratio.")]
    assert len(laurent) == 5 and sum(i.startswith("theta.quasi_periodicity.") for i in ids) == 5
    # Signed and unsigned inversion take one table each; every shift shares the third.
    assert len(tables) == 3
    # One evaluation per shift plus one base evaluation for every shift.
    assert len(evaluations) == len(laurent) + 1
    assert sum(call[0] == 0 for call in evaluations) == 1
    assert not orbits
    code, _, _ = run_cli(capsys, "ansatz")
    assert code == 0 and len(orbits) == 1


def test_mistwisted_frobenius_is_a_verification_failure(monkeypatch, capsys):
    monkeypatch.setattr("tiltval.ansatz.primitive_frobenius", lambda w, n=1: primitive_frobenius(w, n + 1))
    point = make_ansatz(TiltElement.monomial(2, 1), 5)
    with pytest.raises(VerificationError):
        frobenius_orbit(point, (-1, 1))
    code, out, err = run_cli(capsys, "ansatz")
    assert code == 1
    assert out == "" and "internal check failed" in err


def test_threshold_route_disagreement_is_a_failed_check(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("tiltval.cli.threshold_ell_by_root_analysis", lambda limit: 7)
    target = tmp_path / "sweep.json"
    code, out, _ = run_cli(capsys, "sweep-ell", "--format", "json", "--output", str(target))
    assert code == 1 and out == ""
    checks = {check["id"]: check for check in json.loads(target.read_text(encoding="utf-8"))["checks"]}
    assert checks["sweep.threshold_by_sweep"]["passed"]
    assert not checks["sweep.threshold_by_root_analysis"]["passed"]
    agree = checks["sweep.threshold_routes_agree"]
    assert not agree["passed"] and agree["witness"] == {"threshold": "5"}
