"""Config parsing, exit codes, and report rendering through the real entry point."""

import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from functools import wraps

import pytest
from conftest import (
    assert_immutable_value, env_with_src, random_monomial, replace_everywhere, run_cli, write_config
)

from tiltval import cli
from tiltval.ansatz import frobenius_orbit, is_member, make_ansatz, valuation_profile
from tiltval.cli import RunConfig, cmd_all, load_config, main, parse_rational
from tiltval.errors import DomainError
from tiltval.pilot import main_bound_check
from tiltval.reporting import CheckRecord, CombinedReport, Report, make_check
from tiltval.theta import ThetaValue, eval_theta_laurent, theta_terms, theta_value

def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("7") == 7
    assert parse_rational("-2/3") == Fraction(-2, 3)
    # The last three once parsed: \d took other scripts' digits, and $ matched before a final newline.
    for bad in ("0.5", "1/0", "3/-4", "", "two", 0.5, None, Fraction(1, 2), "1/2\n", "\u0663", "\uff11/\uff12"):
        with pytest.raises(DomainError):
            parse_rational(bad)


def test_load_config_defaults_and_overrides(tmp_path):
    assert load_config(None) == RunConfig() == load_config(None, seed=None, output_format=None)
    assert load_config(None, seed=5, output_format="json") == RunConfig(seed=5, output_format="json")
    path = write_config(tmp_path, "c.json", '{"schema": 1, "p": 3, "ell": 7, "v_q": "3/2", "seed": 9}')
    cfg = load_config(path)
    assert (cfg.p, cfg.ell, cfg.v_q, cfg.seed) == (3, 7, Fraction(3, 2), 9)
    assert cfg.theta_truncation == 12  # untouched default
    # A flag replaces the file's value; a None flag keeps it.
    flagged = RunConfig(3, 7, v_q=Fraction(3, 2), seed=4, output_format="csv")
    assert load_config(path, seed=4, output_format="csv") == flagged
    assert load_config(path, seed=None, output_format=None) == cfg
    # The flags pass through the one validation the file's values do.
    for flags in ({"seed": True}, {"output_format": "xml"}, {"seed": "4"}):
        for source in (None, path):
            with pytest.raises(DomainError):
                load_config(source, **flags)
    with pytest.raises(TypeError):
        load_config(path, elll=7)
    # The one validation reads the merged values: a file value that a flag replaces is never checked.
    bad_format = write_config(tmp_path, "x.json", '{"output_format": "xml"}')
    assert load_config(bad_format, output_format="json") == RunConfig(output_format="json")


def test_run_config_is_an_immutable_value():
    assert_immutable_value(RunConfig)
    assert_immutable_value(lambda: RunConfig(p=3, ell=7, v_q=Fraction(3, 2), seed=9))
    assert RunConfig(3) == RunConfig(p=3) != RunConfig()


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
        with pytest.raises(DomainError):
            load_config(write_config(tmp_path, name, payload))
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{")
    with pytest.raises(DomainError, match="UTF-8"):
        load_config(str(latin))
    with pytest.raises(DomainError, match="^padic_precision 2 is below the minimum 3 for p = 2$"):
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
        with pytest.raises(DomainError, match="^render budget"):
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
    with pytest.raises(DomainError, match=f"^{key} must be {kind}, got {value!r}$"):
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


# The two refusals a suite builder makes after the config loaded, each with the one line it prints.
_MID_RUN_REFUSALS = {
    '{"ell": 7, "theta_truncation": 2}': (
        "verify-theta",
        "error: theta_truncation 2 is smaller than ell* = 3; raise it to cover every shift",
    ),
    '{"p": 3}': (
        "ansatz",
        "error: the witness generator t^(1/4) needs ell* = 2 to be a power of p = 3; choose p and ell accordingly",
    ),
}


@pytest.mark.parametrize("payload", list(_MID_RUN_REFUSALS))
def test_a_mid_run_refusal_keeps_its_error_line(tmp_path, capsys, payload):
    command, line = _MID_RUN_REFUSALS[payload]
    code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, "r.json", payload))
    assert (code, out, err) == (2, "", line + "\n")


def test_usage_errors_exit_two(tmp_path, capsys):
    # composite ell
    path = write_config(tmp_path, "c.json", '{"ell": 4}')
    code, _, err = run_cli(capsys, "bound", "--config", path)
    assert code == 2 and "odd prime" in err
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


def _count_calls(monkeypatch, func):
    """Replace func under every name a tiltval module binds it to; return the list of calls."""
    calls = []

    @wraps(func)
    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    replace_everywhere(monkeypatch, func, counted)
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
