"""Deterministic report assembly and rendering.

Reports never contain floating-point values.  Every exact quantity is
rendered as a string up front: rationals as "num/den" (the denominator
is always written, so "1/1" rather than "1"), booleans as "true"/"false",
tuples in parentheses.  The machine formats (json, csv) are byte-stable
for a fixed configuration: key order is construction order, check order
is suite order, and wall-clock timing appears only in the text format.

json is written by this module's own emitter in one pass: two-space
indent, {} and [] when empty, strings escaped as ``json.dumps`` escapes
them (ASCII only), ints by ``int.__repr__``, bools as true/false.  Any
other json leaf, and any csv or text name, config value or witness that
is not a str, raises VerificationError, so a float reaches no format.
json and text print the constant ``GAUGE_NOTES`` after the config echo.
"""

from __future__ import annotations

import io
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Union

from ._record import Record
from .errors import DomainError, VerificationError
from .tilt import _shown

__all__ = [
    "GAUGE_NOTES",
    "CheckRecord",
    "CombinedReport",
    "Report",
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
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(format_exact(v) for v in value) + ")"
    if isinstance(value, Fraction):  # last: Fraction is an ABC, so a test of any other value runs ABCMeta's check
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"no exact rendering for {type(value).__name__}")


class CheckRecord(Record):
    """One named pass/fail outcome with an exact witness."""

    check_id: str
    passed: bool
    witness: tuple[tuple[str, str], ...]


def make_check(check_id: str, passed: bool, **witness: object) -> CheckRecord:
    """Build a record, rendering every witness value exactly.

    CheckRecord has no validator, so its owner builds it positionally, through ``_trusted``.
    """
    rendered = tuple([(key, format_exact(value)) for key, value in witness.items()])
    return CheckRecord._trusted(check_id, bool(passed), rendered)


class Report(Record):
    """A suite run: configuration echo and ordered checks."""

    suite: str
    config_echo: tuple[tuple[str, str], ...]
    checks: tuple[CheckRecord, ...]
    wall_ms: int | None = None

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def counts(self) -> tuple[int, int]:
        checks = self.checks
        good = sum(1 for check in checks if check.passed)
        return good, len(checks)


class CombinedReport(Record):
    """Several suites under one configuration, reported as one run."""

    suites: tuple[Report, ...]
    config_echo: tuple[tuple[str, str], ...]
    wall_ms: int | None = None

    @property
    def checks(self) -> tuple[CheckRecord, ...]:
        """Every suite's checks, in suite order."""
        return tuple([check for report in self.suites for check in report.checks])

    passed = Report.passed
    counts = Report.counts


AnyReport = Union[Report, CombinedReport]


def _text(value: object) -> str:
    if isinstance(value, str):
        return value
    raise VerificationError(f"{type(value).__name__} {value!r} reached the serializer")


def _leaf(value: object) -> str:
    """A json scalar: a bool, an int or a str; anything else is refused."""
    if isinstance(value, int):
        return ("true" if value else "false") if isinstance(value, bool) else int.__repr__(value)
    return _quote(_text(value))


def _block(items: list[str], pad: str, brackets: str = "{}") -> str:
    """Rendered items between brackets, one per line two spaces past pad; bare brackets for none."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def _pairs(pairs: tuple[tuple[str, str], ...], pad: str) -> str:
    return _block([f"{_quote(_text(key))}: {_leaf(value)}" for key, value in pairs], pad)


def _json(report: AnyReport, pad: str = "") -> str:
    """A report's json object with its braces at indent pad; only the top level, pad "", echoes the config."""
    inner = pad + "  "
    if isinstance(report, CombinedReport):
        name, key, items = "all", "suites", [_json(sub, inner + "  ") for sub in report.suites]
    else:
        name, key, items = report.suite, "checks", []
        for c in report.checks:
            witness = '"witness": ' + _pairs(c.witness, inner + "    ")
            items.append(_block([f'"id": {_leaf(c.check_id)}', f'"passed": {_leaf(c.passed)}', witness], inner + "  "))
    fields = ['"schema": 1', f'"suite": {_leaf(name)}']
    if not pad:
        gauges = _block([_quote(g) for g in GAUGE_NOTES], inner, "[]")
        fields += ['"config": ' + _pairs(report.config_echo, inner), '"gauges": ' + gauges]
    good, total = report.counts()
    counts = _block([f'"total": {total}', f'"passed": {good}', f'"failed": {total - good}'], inner)
    overall = '"pass"' if report.passed else '"fail"'
    fields += [f'"{key}": ' + _block(items, inner, "[]"), '"counts": ' + counts, '"overall": ' + overall]
    return _block(fields, pad)


def _render_csv(report: AnyReport) -> str:
    import csv  # here, so a json or text run never loads it

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["suite", "check", "passed", "witness"])
    for sub in report.suites if isinstance(report, CombinedReport) else (report,):
        suite = _text(sub.suite)
        for check in sub.checks:
            witness = "; ".join(f"{_text(key)}={_text(value)}" for key, value in check.witness)
            writer.writerow([suite, _text(check.check_id), "true" if check.passed else "false", witness])
    return out.getvalue()


def _render_text(report: AnyReport) -> str:
    combined = isinstance(report, CombinedReport)
    lines = [
        f"suite: {'all' if combined else _text(report.suite)}",
        "config: " + "  ".join(f"{_text(k)}={_text(v)}" for k, v in report.config_echo),
        *(f"gauge: {note}" for note in GAUGE_NOTES),
    ]
    for sub in report.suites if combined else (report,):
        if combined:
            wall = "" if sub.wall_ms is None else f" wall: {sub.wall_ms} ms"
            lines.append(f"-- {_text(sub.suite)} --{wall}")
        for check in sub.checks:
            flag = "PASS" if check.passed else "FAIL"
            witness = "  ".join(f"{_text(key)}={_text(value)}" for key, value in check.witness)
            lines.append(f"[{flag}] {_text(check.check_id)}" + (f"  {witness}" if witness else ""))
    good, total = report.counts()
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'} ({good}/{total} checks)")
    if report.wall_ms is not None:
        lines.append(f"wall: {report.wall_ms} ms")
    return "\n".join(lines) + "\n"


def render_report(report: AnyReport, output_format: str) -> str:
    """Render to one of json, csv, text; json and csv are byte-stable."""
    if output_format == "json":
        return _json(report) + "\n"
    if output_format == "csv":
        return _render_csv(report)
    if output_format == "text":
        return _render_text(report)
    raise DomainError(f"unknown output format {_shown(output_format)}")
