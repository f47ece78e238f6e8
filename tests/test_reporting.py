"""The json emitter against json.dumps, and the refusal of inexact leaves."""

import json
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from conftest import CONFIGS, write_config

from tiltval import cli
from tiltval.cli import load_config
from tiltval.errors import DomainError, VerificationError
from tiltval.reporting import GAUGE_NOTES, CheckRecord, CombinedReport, Report, format_exact, make_check, render_report


def _as_dict(report, include_config=True):
    """The report as the nested dict json.dumps used to serialize, key order included."""
    good, total = report.counts()
    body = {"schema": 1, "suite": "all" if isinstance(report, CombinedReport) else report.suite}
    if include_config:
        body["config"] = dict(report.config_echo)
        body["gauges"] = list(GAUGE_NOTES)
    if isinstance(report, CombinedReport):
        body["suites"] = [_as_dict(sub, include_config=False) for sub in report.suites]
    else:
        body["checks"] = [{"id": c.check_id, "passed": c.passed, "witness": dict(c.witness)} for c in report.checks]
    body["counts"] = {"total": total, "passed": good, "failed": total - good}
    body["overall"] = "pass" if report.passed else "fail"
    return body


def _by_dumps(report):
    return json.dumps(_as_dict(report), indent=2) + "\n"


@pytest.mark.parametrize("name", CONFIGS)
def test_every_suite_report_matches_json_dumps(tmp_path, name):
    cfg = load_config(write_config(tmp_path, "c.json", CONFIGS[name]))
    combined = cli.cmd_all(cfg)
    assert combined.passed == (name != "ell3")
    assert render_report(combined, "json") == _by_dumps(combined)
    for suite in cli._SUITES:
        report = cli._command(suite)(cfg)
        assert render_report(report, "json") == _by_dumps(report), suite


def _synthetic():
    hard = 'quote " backslash \\ newline \n tab \t le ≤ zeta ζ'
    checks = (
        make_check("synthetic.empty_witness", True),
        make_check("synthetic.failing", False, margin=-1, note=hard),
        CheckRecord("synthetic.int_witness", True, (("count", 7), ("flag", False), ("kéy \\ \"", "v"))),
    )
    return (
        Report("synthetic", (("p", "2"), ("text", hard)), checks),
        Report("no-checks", (("p", "2"),), ()),
        Report("bare", (), ()),
        Report("bare-check", (), (make_check("only.check", False),)),
    )


def test_synthetic_reports_match_json_dumps():
    reports = _synthetic()
    assert not reports[0].passed and reports[1].passed
    for report in reports:
        assert render_report(report, "json") == _by_dumps(report), report.suite
    for suites in (reports, reports[1:2], ()):
        combined = CombinedReport(suites, (("seed", "0"),))
        assert render_report(combined, "json") == _by_dumps(combined)
    empty = CombinedReport((), ())
    assert render_report(empty, "json") == _by_dumps(empty)
    assert '"checks": []' in render_report(reports[1], "json")
    assert '"config": {}' in render_report(reports[2], "json")


@pytest.mark.parametrize("passed", [True, False, 1, 0, "yes", "", (0,), None])
def test_make_check_builds_the_keyword_built_record(passed):
    # make_check fills the record positionally; the generic constructor binds the same fields by name.
    check = make_check("x.y", passed, margin=Fraction(1, 2), flag=True, pair=(1, Fraction(3)))
    witness = (("margin", "1/2"), ("flag", "true"), ("pair", "(1, 3/1)"))
    assert check == CheckRecord(check_id="x.y", passed=bool(passed), witness=witness)
    assert type(check.passed) is bool and hash(check) == hash(CheckRecord("x.y", bool(passed), witness))
    assert make_check("x.z", passed) == CheckRecord(check_id="x.z", passed=bool(passed), witness=())


def _format_fraction_first(value):
    """format_exact with Fraction tested second, as it was before the ABC check moved last: the oracle."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_format_fraction_first(v) for v in value) + ")"
    raise TypeError(f"no exact rendering for {type(value).__name__}")


class _Half(Fraction):
    pass


_EXACT = [
    (True, "true"), (False, "false"), (0, "0"), (-73, "-73"), (10**30, "1" + "0" * 30),
    ("", ""), ("1/2 (x)", "1/2 (x)"), (Fraction(-3, 4), "-3/4"), (Fraction(6, 2), "3/1"), (_Half(1, 2), "1/2"),
    ((), "()"), ([], "()"), ((1, Fraction(1, 2), True, "s"), "(1, 1/2, true, s)"),
    ((0, (Fraction(2), [False, ("a", -1)]), ()), "(0, (2/1, (false, (a, -1))), ())"),
]


@pytest.mark.parametrize("value, shown", _EXACT, ids=repr)
def test_format_exact_renders_every_exact_type_as_the_fraction_first_order_did(value, shown):
    assert format_exact(value) == shown == _format_fraction_first(value)


@pytest.mark.parametrize("value", [0.5, 1.0, Decimal("0.5"), Decimal(1), 1j, None, (1, 0.5), [Fraction(1), None]],
                         ids=repr)
def test_format_exact_refuses_an_inexact_value(value):
    name = next(type(v).__name__ for v in (value if isinstance(value, (tuple, list)) else (value,))
                if not isinstance(v, (int, Fraction)))
    with pytest.raises(TypeError, match=f"^no exact rendering for {name}$"):
        format_exact(value)


def _one_check(suite="bad", check_id="bad.check", witness=()):
    return Report(suite, (), (CheckRecord(check_id, True, witness),))


@pytest.mark.parametrize("output_format", ["xml", "", None])
def test_an_unknown_format_is_refused_as_bad_input(output_format):
    # A refused value exits 2; VerificationError (exit 1) is kept for a failed cross-check.
    with pytest.raises(DomainError, match=f"^unknown output format {re.escape(repr(output_format))}$"):
        render_report(_one_check(), output_format)


@pytest.mark.parametrize(
    "leaf, shown",
    [(0.5, "float 0.5"), (None, "NoneType None"), (b"x", "bytes b'x'"), (Fraction(1, 2), "Fraction")],
)
def test_a_leaf_that_is_not_exact_is_refused(leaf, shown):
    refused = f"^{shown}.* reached the serializer$"
    for report in (
        _one_check(witness=(("margin", leaf),)),
        _one_check(witness=((leaf, "1"),)),
        _one_check(check_id=leaf),
        _one_check(suite=leaf),
        CombinedReport((_one_check(witness=(("margin", leaf),)),), ()),
    ):
        for fmt in ("json", "csv", "text"):
            with pytest.raises(VerificationError, match=refused):
                render_report(report, fmt)
    for report in (Report("bad", (("p", leaf),), ()), Report("bad", ((leaf, "2"),), ())):  # csv has no config
        for fmt in ("json", "text"):
            with pytest.raises(VerificationError, match=refused):
                render_report(report, fmt)


def test_csv_takes_only_str_cells_where_json_takes_ints():
    counted = Report("ints", (), (CheckRecord("ints.count", True, (("count", 7),)),))
    assert '"count": 7' in render_report(counted, "json")
    for fmt in ("csv", "text"):
        with pytest.raises(VerificationError, match="^int 7 reached the serializer$"):
            render_report(counted, fmt)
