"""Deterministic report assembly and rendering.

Reports never contain floating-point values.  Every exact quantity is
rendered as a string up front: rationals as "num/den" (the denominator
is always written, so "1/1" rather than "1"), booleans as "true"/"false",
tuples in parentheses.  The machine formats (json, csv) are byte-stable
for a fixed configuration: key order is construction order, check order
is suite order, and wall-clock timing appears only in the text format.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Union

from ._record import Record
from .errors import VerificationError

__all__ = [
    "GAUGE_NOTES",
    "CheckRecord",
    "CombinedReport",
    "Report",
    "assert_no_floats",
    "format_exact",
    "make_check",
    "render_report",
]

GAUGE_NOTES = (
    "tilt units: valuations normalized so v(t) = 1",
    "p-normalized units: valuations divided by v_K(p) in the relevant untilt",
    "rho weights: rho = |t|^r with rational r > 0; the boundary norm rho = 1 is a separate flag",
)


def format_exact(value: object) -> str:
    """Render a value exactly; floats are a hard error, not a format."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(format_exact(v) for v in value) + ")"
    raise TypeError(f"no exact rendering for {type(value).__name__}")


def assert_no_floats(obj: object) -> None:
    """Walk a to-be-serialized tree and refuse any float anywhere."""
    if isinstance(obj, float):
        raise VerificationError(f"float {obj!r} reached the serializer")
    if isinstance(obj, dict):
        for key, value in obj.items():
            assert_no_floats(key)
            assert_no_floats(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            assert_no_floats(value)


class CheckRecord(Record):
    """One named pass/fail outcome with an exact witness."""

    check_id: str
    passed: bool
    witness: tuple[tuple[str, str], ...]


def make_check(check_id: str, passed: bool, **witness: object) -> CheckRecord:
    """Build a record, rendering every witness value exactly."""
    rendered = tuple((key, format_exact(value)) for key, value in witness.items())
    return CheckRecord(check_id=check_id, passed=bool(passed), witness=rendered)


class Report(Record):
    """A suite run: configuration echo, gauge notes, ordered checks."""

    suite: str
    config_echo: tuple[tuple[str, str], ...]
    gauges: tuple[str, ...]
    checks: tuple[CheckRecord, ...]
    wall_ms: int | None = None

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def counts(self) -> tuple[int, int]:
        good = sum(1 for check in self.checks if check.passed)
        return good, len(self.checks)

    def to_dict(self, include_config: bool = True) -> dict:
        body: dict = {"schema": 1, "suite": self.suite}
        if include_config:
            body["config"] = dict(self.config_echo)
            body["gauges"] = list(self.gauges)
        body["checks"] = [
            {"id": c.check_id, "passed": c.passed, "witness": dict(c.witness)}
            for c in self.checks
        ]
        good, total = self.counts()
        body["counts"] = {"total": total, "passed": good, "failed": total - good}
        body["overall"] = "pass" if self.passed else "fail"
        return body

    def check_rows(self) -> list[tuple[str, CheckRecord]]:
        return [(self.suite, check) for check in self.checks]


class CombinedReport(Record):
    """Several suites under one configuration, reported as one run."""

    suites: tuple[Report, ...]
    config_echo: tuple[tuple[str, str], ...]
    gauges: tuple[str, ...]
    wall_ms: int | None = None

    @property
    def passed(self) -> bool:
        return all(report.passed for report in self.suites)

    def counts(self) -> tuple[int, int]:
        good = sum(report.counts()[0] for report in self.suites)
        total = sum(report.counts()[1] for report in self.suites)
        return good, total

    def to_dict(self) -> dict:
        good, total = self.counts()
        return {
            "schema": 1,
            "suite": "all",
            "config": dict(self.config_echo),
            "gauges": list(self.gauges),
            "suites": [report.to_dict(include_config=False) for report in self.suites],
            "counts": {"total": total, "passed": good, "failed": total - good},
            "overall": "pass" if self.passed else "fail",
        }

    def check_rows(self) -> list[tuple[str, CheckRecord]]:
        rows: list[tuple[str, CheckRecord]] = []
        for report in self.suites:
            rows.extend(report.check_rows())
        return rows


AnyReport = Union[Report, CombinedReport]


def _render_json(report: AnyReport) -> str:
    body = report.to_dict()
    assert_no_floats(body)
    return json.dumps(body, indent=2, sort_keys=False) + "\n"


def _render_csv(report: AnyReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["suite", "check", "passed", "witness"])
    for suite, check in report.check_rows():
        witness = "; ".join(f"{key}={value}" for key, value in check.witness)
        writer.writerow([suite, check.check_id, "true" if check.passed else "false", witness])
    return out.getvalue()


def _render_text(report: AnyReport) -> str:
    combined = isinstance(report, CombinedReport)
    lines = [
        f"suite: {'all' if combined else report.suite}",
        "config: " + "  ".join(f"{k}={v}" for k, v in report.config_echo),
        *(f"gauge: {note}" for note in report.gauges),
    ]
    for sub in report.suites if combined else (report,):
        if combined:
            wall = "" if sub.wall_ms is None else f" wall: {sub.wall_ms} ms"
            lines.append(f"-- {sub.suite} --{wall}")
        for check in sub.checks:
            flag = "PASS" if check.passed else "FAIL"
            witness = "  ".join(f"{key}={value}" for key, value in check.witness)
            lines.append(f"[{flag}] {check.check_id}" + (f"  {witness}" if witness else ""))
    good, total = report.counts()
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'} ({good}/{total} checks)")
    if report.wall_ms is not None:
        lines.append(f"wall: {report.wall_ms} ms")
    return "\n".join(lines) + "\n"


def render_report(report: AnyReport, output_format: str) -> str:
    """Render to one of json, csv, text; json and csv are byte-stable."""
    if output_format == "json":
        return _render_json(report)
    if output_format == "csv":
        return _render_csv(report)
    if output_format == "text":
        return _render_text(report)
    raise VerificationError(f"unknown output format {output_format!r}")
