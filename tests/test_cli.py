"""Config parsing, exit codes, and report rendering through the real entry point."""

import inspect
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from functools import wraps

import pytest
from conftest import assert_immutable_value, env_with_src, random_monomial

from tiltval import cli, loglink, pilot
from tiltval.ansatz import frobenius_orbit, is_member, make_ansatz, valuation_profile
from tiltval.cli import RunConfig, cmd_all, load_config, main, parse_rational
from tiltval.errors import ConfigError, PrecisionError, VerificationError
from tiltval.loglink import LogLinkChain, _log_series, padic_log
from tiltval.pilot import _odd_primes_upto, main_bound_check
from tiltval.reporting import CheckRecord, CombinedReport, Report, make_check
from tiltval.theta import ThetaValue, eval_theta_laurent, theta_terms, theta_value
from tiltval.tilt import TiltElement, tilt_pow
from tiltval.witt import eta_val, primitive_frobenius


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
    # The last three once parsed: \d took other scripts' digits, and $ matched before a final newline.
    for bad in ("0.5", "1/0", "3/-4", "", "two", 0.5, None, Fraction(1, 2), "1/2\n", "\u0663", "\uff11/\uff12"):
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
    probe = (
        "import sys; before = set(sys.modules); import tiltval.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env_with_src(), capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "[]"


# reporting, ansatz and witt load at import: perfbench/tracer.py's install() lists the loaded modules
# before it imports each target's home, so a home it imports first would go untraced, and a deferred
# ansatz would keep a tilt_pow wrapper after uninstall().
_IMPORT_TIME_SUBMODULES = {"_record", "ansatz", "cli", "errors", "reporting", "tilt", "witt"}


@pytest.mark.parametrize(
    "argv, config, loaded",
    [
        (None, None, set()),
        (["all"], '{"ell": 4}', set()),
        (["verify-theta"], None, {"theta"}),
        (["bound"], None, {"pilot"}),
        (["sweep-ell"], None, {"pilot"}),
        (["loglink"], None, {"loglink"}),
        (["ansatz"], None, {"theta", "pilot"}),
        (["all"], None, {"theta", "pilot", "loglink"}),
    ],
    ids=["import", "refused", "verify-theta", "bound", "sweep-ell", "loglink", "ansatz", "all"],
)
def test_a_command_loads_only_the_suites_it_runs(tmp_path, argv, config, loaded):
    # A fresh interpreter per case: here pytest has already imported every module.
    if argv is not None:
        argv = [*argv, "--format", "json", "--output", str(tmp_path / "report.json")]
        if config is not None:
            argv += ["--config", write_config(tmp_path, "c.json", config)]
    probe = "\n".join(
        [
            "import json, sys",
            "from tiltval.cli import main",
            "argv = json.loads(sys.argv[1])",
            "if argv is not None:",
            "    main(argv)",
            "print(sorted(m for m in sys.modules if m == 'tiltval' or m.startswith('tiltval.')))",
        ]
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(argv)],
        env=env_with_src(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    expected = sorted({"tiltval", *(f"tiltval.{name}" for name in _IMPORT_TIME_SUBMODULES | loaded)})
    assert result.stdout.strip() == repr(expected), result.stderr


# The error line of each refused config, as every earlier release printed it.
_REFUSAL_LINES = {
    '{"p": 4}': "error: p must be prime, got 4",
    '{"p": 1}': "error: p must be prime, got 1",
    '{"p": true}': "error: p must be an integer, got True",
    '{"ell": 2}': "error: ell must be an odd prime, got 2",
    '{"ell": 9}': "error: ell must be an odd prime, got 9",
    '{"ell": 5, "p": 5}': "error: ell must differ from p",
    '{"padic_precision": 1}': "error: padic_precision 1 is below the minimum 3 for p = 2",
    '{"padic_precision": "14"}': "error: padic_precision must be an integer, got '14'",
    '{"frobenius_depth": -1}': "error: frobenius_depth must be nonnegative, got -1",
    '{"theta_truncation": 0}': "error: theta_truncation must be at least 1, got 0",
    '{"ell_sweep_max": 4}': "error: ell_sweep_max must be at least 5, got 4",
    '{"v_q": "0/1"}': "error: v_q must be positive, got 0",
    '{"rho_weight": "-1/2"}': "error: rho_weight must be positive, got -1/2",
    '{"v_q": "1/2\\n"}': "error: rationals must be \"num/den\" strings, got '1/2\\n'",
    '{"v_q": "\u0663"}': "error: rationals must be \"num/den\" strings, got '\u0663'",
    '{"v_q": "\uff11/\uff12"}': "error: rationals must be \"num/den\" strings, got '\uff11/\uff12'",
}


@pytest.mark.parametrize("payload", list(_REFUSAL_LINES))
def test_a_refused_config_keeps_its_error_line(tmp_path, capsys, payload):
    code, out, err = run_cli(capsys, "bound", "--config", write_config(tmp_path, "c.json", payload))
    assert (code, out, err) == (2, "", _REFUSAL_LINES[payload] + "\n")


def test_load_config_rejections(tmp_path, capsys):
    # Numbers past the interpreter's 4,300-digit int limit, bare and inside a rational.
    too_long = {"longint.json": '{"p": ' + "1" * 5000 + "}", "longrational.json": '{"v_q": "1/' + "1" * 5000 + '"}'}
    cases = {
        **too_long,
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
        "duplicate.json": '{"p": 2, "p": 3}',
        "nested.json": "[" * 100_000,
    }
    # Each number converts, but the report would hold one past the limit: the chain entry 29^3000, v_q / 6.
    too_large = {
        "deepchain.json": '{"p": 29, "frobenius_depth": 3000}',
        "longden.json": '{"v_q": "1/' + "9" * 4299 + '"}',
    }
    cases.update(too_large)
    for name, payload in cases.items():
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, name, payload))
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{")
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(str(latin))
    with pytest.raises(PrecisionError):
        load_config(write_config(tmp_path, "prec.json", '{"padic_precision": 2}'))
    target = tmp_path / "report.json"
    refusals = [(name, "all", "config number too long") for name in too_long]
    refusals += [("deepchain.json", "loglink", "render budget"), ("longden.json", "bound", "render budget")]
    for name, command, message in refusals:
        code, out, err = run_cli(capsys, command, "--config", str(tmp_path / name), "--output", str(target))
        assert (code, out) == (2, "") and err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not target.exists()


def test_configs_just_inside_the_render_budget_still_render(tmp_path, capsys):
    # bits(v_q) + frobenius_depth * bits(p) + 4 * bits(max(ell, ell_sweep_max)) + 16 may reach 14,000, not pass it.
    den = 2**13951 - 1  # the defaults add 2 * bits(2) + 4 * bits(97) + 16 = 48 and bits(1) = 1: exactly 14,000
    depth = 697  # bits(1000003) = 20, and 697 * 20 + 2 + 4 * bits(97) + 16 = 13,986
    wide = {"ell": 257, "v_q": f"1/{2**13943 - 1}"}  # ell* = 2^7; 1 + 13,943 + 2 * bits(2) + 4 * bits(257) + 16 = 14,000
    for command, inside, outside in (
        ("all", {"v_q": f"1/{den}"}, {"v_q": f"1/{2 * den + 1}"}),
        ("loglink", {"p": 1000003, "frobenius_depth": depth}, {"p": 1000003, "frobenius_depth": depth + 1}),
        ("ansatz", wide, {**wide, "ell_sweep_max": 512}),  # bits(512) = bits(257) + 1
    ):
        config = write_config(tmp_path, "inside.json", json.dumps(inside))
        code, out, err = run_cli(capsys, command, "--format", "json", "--config", config)
        assert (code, err) == (0, "")
        assert 4_150 < max(map(len, re.findall(r"[0-9]+", out))) <= 4_215  # 2^14,000 - 1 has 4,215 digits
        with pytest.raises(ConfigError, match="^render budget"):
            load_config(write_config(tmp_path, "outside.json", json.dumps(outside)))


# Each was once accepted: only load_config checked a field's type, so a RunConfig built in code skipped it.
@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("theta_truncation", True, "an integer"),
        ("frobenius_depth", True, "an integer"),
        ("seed", True, "an integer"),
        ("v_q", 0.5, "a Fraction"),
        ("rho_weight", True, "a Fraction"),
    ],
)
def test_validate_checks_each_fields_type(key, value, kind):
    with pytest.raises(ConfigError, match=f"^{key} must be {kind}, got {value!r}$"):
        RunConfig(**{key: value}).validate()


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
    # config bytes that are not UTF-8
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{")
    code, _, err = run_cli(capsys, "bound", "--config", str(latin))
    assert code == 2 and err.startswith("error: config is not UTF-8")


@pytest.mark.parametrize(
    "payload, message",
    [
        ('{"p": 3}', "power of p = 3"),  # verify-theta and bound run, then ansatz refuses
        ('{"ell": 7, "theta_truncation": 2}', "theta_truncation"),  # the first suite refuses
    ],
)
def test_a_refusal_partway_through_all_writes_nothing(tmp_path, capsys, payload, message):
    path = write_config(tmp_path, "r.json", payload)
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "all", "--format", "json", "--config", path, "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_a_float_in_a_report_is_refused_before_anything_is_written(monkeypatch, tmp_path, capsys, fmt):
    def with_float_margin(check_id, passed, **witness):
        check = make_check(check_id, passed, **witness)
        if check_id != "bound.strict_inequality":
            return check
        return CheckRecord(check.check_id, check.passed, (*check.witness, ("margin_float", 0.5)))

    monkeypatch.setattr(cli, "make_check", with_float_margin)
    target = tmp_path / f"report.{fmt}"
    for output in (("--output", str(target)), ()):
        code, out, err = run_cli(capsys, "bound", "--format", fmt, *output)
        assert (code, out) == (1, "")
        assert err == "internal check failed: float 0.5 reached the serializer\n"
    assert not target.exists()


def test_argparse_usage_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["bound", "--format", "yaml"])
    assert info.value.code == 2
    capsys.readouterr()


def test_repeated_main_calls_match_first_calls(tmp_path, capsys):
    # main builds its parser once per process; each call must still behave like the first.
    target = tmp_path / "report.csv"
    calls = (
        ["all", "--format", "json"],
        ["loglink", "--format", "csv"],
        ["bound", "--format", "yaml"],
        ["loglink", "--format", "csv", "--seed", "3", "--output", str(target)],
    )
    for argv in calls:
        first = subprocess.run(
            [sys.executable, "-m", "tiltval", *argv], env=env_with_src(), capture_output=True, timeout=60
        )
        written = target.read_bytes() if target.exists() else None
        target.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == first.returncode, argv
        assert captured.out.encode() == first.stdout and captured.err.encode() == first.stderr, argv
        assert (target.read_bytes() if target.exists() else None) == written, argv
    assert written  # the last call wrote its report to the file


def test_help_lists_the_six_commands_in_table_order(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "{verify-theta,bound,ansatz,loglink,sweep-ell,all}" in out
    rows = [line.split(None, 1) for line in out.splitlines()]
    for name, text in (*cli._SUITES.items(), ("all", "every suite in order")):
        assert [name, text] in rows  # each command's help line is on the page


def test_options_may_come_before_the_command(tmp_path, capsys):
    path = write_config(tmp_path, "s.json", '{"seed": 5}')
    after = run_cli(capsys, "loglink", "--format", "csv", "--config", path, "--seed", "3")
    before = run_cli(capsys, "--format", "csv", "--config", path, "--seed", "3", "loglink")
    between = run_cli(capsys, "--format", "csv", "loglink", "--config", path, "--seed", "3")
    assert after == before == between and after[0] == 0 and after[1].startswith("suite,check,passed,witness")
    for argv in (["loglink", "bound"], ["--seed", "3"], ["bogus"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tiltval [-h]") and "\ntiltval: error: " in err


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
    monkeypatch.setattr("tiltval.loglink.padic_log", lambda u: (u.value - 1) % u.p**u.precision)
    code, out, _ = run_cli(capsys, "loglink", "--format", "json")
    assert code == 1
    verdicts = {check["id"]: check["passed"] for check in json.loads(out)["checks"]}
    assert verdicts["loglink.log_at_one_is_zero"]
    assert not verdicts["loglink.log_product_rule_trials"]
    assert not verdicts["loglink.log_p_power_rule_trials"]


# The two plan faults below move log(u) one digit above the valuation v + n that the Kummer shift reads
# for u = (1 + p^v)^(p^n), so only the log rules can see them.  At the defaults' depth m = 0, a move by
# p^(w+m) itself would also fail loglink.kummer_shift_telescoping.


def _linear_coefficient_off(p, precision):
    """The (p, N) log plan with its linear coefficient moved by p^(w+b+m+1): log(u) moves by p (u^(p^m) g^(-d) - 1)."""
    m, scale, step, reduced_mod, size, table, shift, log_g, subgroup, coefficients = _log_series(p, precision)
    coefficients = coefficients[:-1] + ((coefficients[-1] + p * shift * scale) % reduced_mod,)
    return m, scale, step, reduced_mod, size, table, shift, log_g, subgroup, coefficients


def _log_g_off(p, precision):
    """The (p, N) log plan with log(g) moved by p^(w+m+1): log(u) moves by d p^(w+1), d the digits the table clears."""
    m, scale, step, reduced_mod, size, table, shift, log_g, subgroup, coefficients = _log_series(p, precision)
    log_g = (log_g + p * step * scale) % reduced_mod
    return m, scale, step, reduced_mod, size, table, shift, log_g, subgroup, coefficients


def _table_power_off(p, precision):
    """The (p, N) log plan with its last table power g^(-(p^b - 1)) replaced by g^(-(p^b - 2))."""
    m, scale, step, reduced_mod, size, table, shift, log_g, subgroup, coefficients = _log_series(p, precision)
    table = (*table[:-1], table[-2])
    return m, scale, step, reduced_mod, size, table, shift, log_g, subgroup, coefficients


_LOG_FAULT_CONFIGS = pytest.mark.parametrize(
    "config",
    [
        "{}",
        '{"p": 29, "ell": 59, "theta_truncation": 29}',
        '{"p": 3, "ell": 19, "frobenius_depth": 5, "v_q": "7/3", "rho_weight": "7/3"}',
    ],
    ids=["defaults", "wide", "f3"],
)


def _checks_failed_under(monkeypatch, tmp_path, capsys, config, plan):
    """The ids of the checks `all` fails on config with padic_log reading plan(p, N)."""
    monkeypatch.setattr("tiltval.loglink._log_series", plan)
    report = tmp_path / "all.json"
    code, out, _ = run_cli(
        capsys, "all", "--format", "json", "--config", write_config(tmp_path, "c.json", config), "--output", str(report)
    )
    assert code == 1 and out == ""
    suites = json.loads(report.read_text(encoding="utf-8"))["suites"]
    return {check["id"] for suite in suites for check in suite["checks"] if not check["passed"]}


@_LOG_FAULT_CONFIGS
def test_a_wrong_log_plan_fails_the_log_rules(monkeypatch, tmp_path, capsys, config):
    failed = _checks_failed_under(monkeypatch, tmp_path, capsys, config, _linear_coefficient_off)
    assert failed == {"loglink.log_product_rule_trials", "loglink.log_p_power_rule_trials"}


@_LOG_FAULT_CONFIGS
def test_a_wrong_log_g_fails_the_log_rules(monkeypatch, tmp_path, capsys, config):
    failed = _checks_failed_under(monkeypatch, tmp_path, capsys, config, _log_g_off)
    assert failed == {"loglink.log_product_rule_trials", "loglink.log_p_power_rule_trials"}


@_LOG_FAULT_CONFIGS
def test_a_wrong_table_power_ends_the_run_at_the_digit_guard(monkeypatch, tmp_path, capsys, config):
    # A unit whose digits pick the wrong power leaves y g^(-d) != 1 mod p^(w+b); no report is written.
    monkeypatch.setattr("tiltval.loglink._log_series", _table_power_off)
    report = tmp_path / "all.json"
    code, out, err = run_cli(
        capsys, "all", "--format", "json", "--config", write_config(tmp_path, "c.json", config), "--output", str(report)
    )
    assert code == 1 and out == "" and not report.exists()
    assert err.startswith("internal check failed: ") and "a wrong digit table" in err


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


# A broken row table must fail the identities it breaks in a written report, not end the run as a usage error.
_TABLE_FAULTS = {
    "q+1": (lambda n, sign, q, u: (n, sign, q + 1, u), {"theta.inversion_antisymmetry"}),
    "q=n(n-1)/2": (
        lambda n, sign, q, u: (n, sign, n * (n - 1) // 2, u),
        {"theta.inversion_antisymmetry", "theta.quasi_periodicity.j1", "theta.quasi_periodicity.j2"},
    ),
    "u=2n-1": (
        lambda n, sign, q, u: (n, sign, q, 2 * n - 1),
        {"theta.inversion_antisymmetry", "theta.quasi_periodicity.j1", "theta.quasi_periodicity.j2"},
    ),
    "sign*2": (lambda n, sign, q, u: (n, 2 * sign, q, u), {"theta.inversion_antisymmetry"}),
}


@pytest.mark.parametrize("fault", list(_TABLE_FAULTS))
def test_a_broken_theta_table_fails_its_checks(monkeypatch, capsys, fault):
    broken, failing = _TABLE_FAULTS[fault]
    monkeypatch.setattr(
        "tiltval.theta.theta_terms",
        lambda n_max, signed=True: tuple(broken(*row) for row in theta_terms(n_max, signed)),
    )
    code, out, _ = run_cli(capsys, "verify-theta", "--format", "json")
    assert code == 1
    assert {check["id"] for check in json.loads(out)["checks"] if not check["passed"]} == failing


def test_failing_theta_witnesses_keep_each_value_in_its_slot(monkeypatch, capsys):
    # A passing defaults report has n_max = pairs_matched = 12 and s_exponent_gap = expected_gap = -1,
    # so only failing runs tell swapped witness slots apart.
    def witnesses():
        code, out, _ = run_cli(capsys, "verify-theta", "--format", "json")
        assert code == 1
        return {check["id"]: list(check["witness"].items()) for check in json.loads(out)["checks"]}

    monkeypatch.setattr("tiltval.theta.theta_terms", lambda n_max, signed=True: theta_terms(n_max, signed=False))
    unsigned = witnesses()
    assert unsigned["theta.inversion_antisymmetry"] == [
        ("n_max", "12"),
        ("pairs_matched", "0"),
        ("boundary_terms", "1"),
        ("pairs_cancel_at_one", "false"),
    ]
    assert unsigned["theta.quasi_periodicity.j1"] == [
        ("overlap", "(-11, 11)"),
        ("terms_checked", "0"),
        ("q_shift_doubled", "-1"),
    ]
    monkeypatch.undo()

    def quadrupled(j, ell):
        tv = theta_value(j, ell)
        return ThetaValue(tv.j, tv.ell, tv.sign, 4 * tv.q_exponent, tv.zeta_exponent)

    monkeypatch.setattr("tiltval.theta.theta_value", quadrupled)
    assert witnesses()["theta.value_laurent_ratio.j1"] == [
        ("s_exponent_gap", "-1"),
        ("expected_gap", "-4"),
        ("coeff_relation_holds", "true"),
    ]


def test_sweep_witness_takes_the_last_primes_margin(tmp_path, capsys):
    config = write_config(tmp_path, "sweep.json", '{"ell_sweep_max": 100, "v_q": "7/3"}')
    code, out, _ = run_cli(capsys, "sweep-ell", "--format", "json", "--config", config)
    assert code == 0
    swept = {check["id"]: check for check in json.loads(out)["checks"]}["sweep.all_primes_from_5_pass"]
    margin = main_bound_check(97, Fraction(7, 3)).margin
    assert swept["witness"] == {
        "primes_checked": "23",
        "limit": "100",
        "failures": "()",
        "last_margin": f"{margin.numerator}/{margin.denominator}",
    }


def test_walk_through_ell3_fails_the_sweep(monkeypatch, capsys):
    # A prime walk that lets ell = 3 through meets the equality prime, where the strict bound fails.
    monkeypatch.setattr("tiltval.pilot._odd_primes_upto", lambda limit, start=3: _odd_primes_upto(limit))
    code, out, _ = run_cli(capsys, "sweep-ell", "--format", "json")
    assert code == 1
    checks = {check["id"]: check for check in json.loads(out)["checks"]}
    swept = checks.pop("sweep.all_primes_from_5_pass")
    assert not swept["passed"]
    assert swept["witness"]["failures"] == "(3)" and swept["witness"]["primes_checked"] == "24"
    assert all(check["passed"] for check in checks.values())


def _replace_everywhere(monkeypatch, func, replacement):
    """Replace func under every name a tiltval module binds it to."""
    for name, module in list(sys.modules.items()):
        if name == "tiltval" or name.startswith("tiltval."):
            for key, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, key, replacement)


def _count_calls(monkeypatch, func):
    """Replace func under every name a tiltval module binds it to; return the list of calls."""
    calls = []

    @wraps(func)
    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    _replace_everywhere(monkeypatch, func, counted)
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
    # The orbit is checked once, by its constructor; only the tampered tuple and the
    # substituted family go through is_member, at any depth.
    members = _count_calls(monkeypatch, is_member)
    code, _, _ = run_cli(capsys, "ansatz")
    assert code == 0 and len(orbits) == 1 and len(members) == 2
    deep = write_config(tmp_path, "deep.json", '{"frobenius_depth": 5}')
    code, _, _ = run_cli(capsys, "ansatz", "--config", deep)
    assert code == 0 and len(orbits) == 2 and len(members) == 4
    bounds = _count_calls(monkeypatch, main_bound_check)
    code, _, _ = run_cli(capsys, "bound")
    assert code == 0 and bounds == [(5, Fraction(1))]


def _patch_source(monkeypatch, module, name, original, mutated):
    """Replace module.name with a copy of its source in which original reads mutated."""
    source = inspect.getsource(getattr(module, name))
    faulty = source.replace(original, mutated)
    assert faulty != source
    namespace = dict(vars(module))
    exec(compile(faulty, module.__file__, "exec"), namespace)
    monkeypatch.setattr(module, name, namespace[name])


@pytest.mark.parametrize(
    "step, original, mutated",
    [
        ("square_sum_closed_form", "(2 * ls + 1) // 6", "(2 * ls + 1) // 6 + 1"),
        ("margin_factored", "(2 * ell - 1) * (ell - 3)", "(2 * ell - 1) * (ell - 2)"),
        ("lhs_closed_form", "Fraction(square_sum, ls * ls * 2 * ell)", "Fraction(square_sum + 1, ls * ls * 2 * ell)"),
        ("rhs_ratio_form", "Fraction(ls, 2 * ell) * v_q", "Fraction(ls + 1, 2 * ell) * v_q"),
    ],
    ids=["square_sum_closed_form", "margin_factored", "lhs_closed_form", "rhs_ratio_form"],
)
def test_a_broken_bound_identity_fails_its_step(monkeypatch, tmp_path, capsys, step, original, mutated):
    _patch_source(monkeypatch, pilot, "main_bound_check", original, mutated)
    target = tmp_path / "bound.json"
    code, out, _ = run_cli(capsys, "bound", "--format", "json", "--output", str(target))
    assert code == 1 and out == ""
    verdicts = {check["id"]: check["passed"] for check in json.loads(target.read_text(encoding="utf-8"))["checks"]}
    assert not verdicts.pop(f"bound.{step}")
    assert all(verdicts.values()) and "bound.strict_inequality" in verdicts


@pytest.mark.parametrize(
    "suite, target, fault, failed",
    [
        # Equal sort keys merge every pilot into one, so the sample loses the orbit and its scaling.
        (
            "ansatz",
            "tiltval.pilot._pilot_sort_key",
            lambda t: (t.ansatz.ell,),
            {"ansatz.orbit_membership", "ansatz.orbit_profile_scaling"},
        ),
        # Descending lifts keep every orbit point but list the orbit from n = depth down.
        (
            "ansatz",
            "tiltval.pilot._pilot_sort_key",
            lambda t: tuple(-e for e in t.lifts),
            {"ansatz.orbit_profile_scaling"},
        ),
        # A log scaled by p still turns products into sums, but every valuation moves up by one.
        (
            "loglink",
            "tiltval.loglink.padic_log",
            lambda u: padic_log(u) * u.p % u.p**u.precision,
            {"loglink.kummer_shift_telescoping"},
        ),
        # An eta off by one breaks the j^2 factor of every untilt, and the untilt gauge with it.
        (
            "ansatz",
            "tiltval.cli.eta_val",
            lambda prim, x: eta_val(prim, x) + 1,
            {"ansatz.untilt_records", "ansatz.witness_untilt_gauge"},
        ),
        # Entries -v0 p^n still step by p, but they fall as n grows.
        (
            "loglink",
            "tiltval.loglink.chain_build",
            lambda p, v0, window: LogLinkChain._trusted(
                p, v0, window, tuple((n, -v0 * Fraction(p) ** n) for n in range(window[0], window[1] + 1))
            ),
            {"loglink.chain_strictly_increasing"},
        ),
    ],
    ids=["orbit_membership", "orbit_profile_scaling", "kummer_shift", "untilt_records", "chain_increasing"],
)
def test_a_kernel_fault_fails_the_check_that_reads_it(monkeypatch, tmp_path, capsys, suite, target, fault, failed):
    monkeypatch.setattr(target, fault)
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, suite, "--format", "json", "--output", str(report))
    assert code == 1 and out == ""
    verdicts = {check["id"]: check["passed"] for check in json.loads(report.read_text(encoding="utf-8"))["checks"]}
    assert {check_id for check_id, passed in verdicts.items() if not passed} == failed


def test_a_wrong_lift_formula_fails_the_square_sum_not_the_config(monkeypatch, capsys):
    # build_pilot builds through _trusted, so a broken lift is no DomainError (exit 2, a config
    # fault): the orbit still scales by p, and sum_log_norms's closed form catches it.
    _patch_source(monkeypatch, pilot, "build_pilot", "Fraction(n1 * j * j, d1)", "Fraction(n1 * j * j + 1, d1)")
    code, out, err = run_cli(capsys, "ansatz")
    assert code == 1 and out == ""
    assert err.startswith("internal check failed: square-sum identity violated")


def test_a_wrong_chain_entry_fails_the_ratio_in_a_written_report(monkeypatch, tmp_path, capsys):
    # chain_build builds through _trusted, so its entries reach the chain checks instead of aborting the run.
    _patch_source(monkeypatch, loglink, "chain_build", "v0 * Fraction(p) ** n", "v0 * Fraction(p + 1) ** n")
    target = tmp_path / "loglink.json"
    code, out, _ = run_cli(capsys, "loglink", "--format", "json", "--output", str(target))
    assert code == 1 and out == ""
    verdicts = {check["id"]: check["passed"] for check in json.loads(target.read_text(encoding="utf-8"))["checks"]}
    assert [check_id for check_id, passed in verdicts.items() if not passed] == ["loglink.chain_ratio_is_p"]


def test_mistwisted_frobenius_is_a_verification_failure(monkeypatch, capsys):
    monkeypatch.setattr("tiltval.ansatz.primitive_frobenius", lambda w, n=1: primitive_frobenius(w, n + 1))
    point = make_ansatz(TiltElement.monomial(2, 1), 5)
    with pytest.raises(VerificationError):
        frobenius_orbit(point, (-1, 1))
    code, out, err = run_cli(capsys, "ansatz")
    assert code == 1
    assert out == "" and "internal check failed" in err


def test_a_wrong_power_kernel_is_caught_by_the_orbit_check(monkeypatch, capsys):
    # Membership computes its powers itself, so a tilt_pow returning a^(k+1) at every
    # import site builds a family that the orbit constructor refuses.
    _replace_everywhere(monkeypatch, tilt_pow, lambda x, k: tilt_pow(x, k + 1))
    for p in (2, 3):
        a = TiltElement.from_terms(p, {Fraction(1, p): 1, 1: 1})
        with pytest.raises(VerificationError, match="left the ansatz"):
            frobenius_orbit(make_ansatz(a, 7), (0, 0))
    code, out, err = run_cli(capsys, "ansatz", "--format", "json")
    assert code == 1 and out == ""
    assert err.startswith("internal check failed: Frobenius translate") and "left the ansatz" in err


def _profile_scales_by_fractions(point, orbit, depth):
    """The Fraction route the integer check replaced: orbit point n's profile against p^n times point's."""
    profile = valuation_profile(point)
    scales = (Fraction(point.a.p) ** n for n in range(-depth, depth + 1))
    return tuple(valuation_profile(o) for o in orbit) == tuple(tuple(e * s for e in profile) for s in scales)


def test_orbit_profile_scaling_matches_the_fraction_route_randomized():
    rng = random.Random(2719)
    cases = 0
    for p in (2, 3, 5):
        for depth in (0, 1, 3):
            for _ in range(4):
                ell = rng.choice((7, 11, 13))
                a, other = (random_monomial(rng, p, max_pow=3) for _ in range(2))
                point = make_ansatz(a, ell)
                orbit = frobenius_orbit(point, (-depth, depth))
                foreign = frobenius_orbit(make_ansatz(other, ell), (-depth, depth))
                shorter = make_ansatz(a, 3 if p == 5 else 5)  # fewer members than ell*
                i = rng.randrange(len(orbit))
                variants = [
                    orbit,
                    orbit[::-1],
                    orbit[:i] + orbit[i + 1 :],  # a point dropped
                    orbit[:i] + (foreign[i],) + orbit[i + 1 :],  # a point swapped for another generator's
                    orbit[:i] + (shorter,) + orbit[i + 1 :],
                    orbit + orbit[:1],
                ]
                if depth:
                    j = (i + 1) % len(orbit)  # two points exchanged
                    swapped = list(orbit)
                    swapped[i], swapped[j] = swapped[j], swapped[i]
                    variants.append(tuple(swapped))
                assert cli._orbit_profile_scales(point, orbit, depth)
                for variant in variants:
                    expected = _profile_scales_by_fractions(point, variant, depth)
                    assert cli._orbit_profile_scales(point, variant, depth) == expected, (point, depth, variant)
                    cases += not expected
    assert cases > 0


def test_threshold_route_disagreement_is_a_failed_check(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("tiltval.pilot.threshold_ell_by_root_analysis", lambda limit: 7)
    target = tmp_path / "sweep.json"
    code, out, _ = run_cli(capsys, "sweep-ell", "--format", "json", "--output", str(target))
    assert code == 1 and out == ""
    checks = {check["id"]: check for check in json.loads(target.read_text(encoding="utf-8"))["checks"]}
    assert checks["sweep.threshold_by_sweep"]["passed"]
    assert not checks["sweep.threshold_by_root_analysis"]["passed"]
    agree = checks["sweep.threshold_routes_agree"]
    assert not agree["passed"] and agree["witness"] == {"threshold": "5"}
