"""Per-verdict oracle: decides whether one verdict gave the known answer.

Each check returns ``None`` for a right verdict and a one-line reason for
a wrong one.  Report bytes are compared against the sha256 digests in
``expected.json``, recorded once with ``record_expected.py``; json and csv
reports are byte-stable for a fixed configuration, so any difference is
a wrong verdict.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os

from workloads import Verdict

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_digests() -> dict[str, str]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _failing_checks(report: bytes, fmt: str) -> tuple[str, ...]:
    text = report.decode("utf-8")
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        return tuple(r["check"] for r in rows if r["passed"] != "true")
    body = json.loads(text)
    suites = body["suites"] if "suites" in body else [body]
    return tuple(c["id"] for s in suites for c in s["checks"] if not c["passed"])


def check_cli(v: Verdict, exit_code: int, report: bytes, stderr: bytes = b"") -> str | None:
    """A tiltval command line: exit code, then report bytes or refusal message."""
    if exit_code != v.expect_exit:
        return f"exit {exit_code}, expected {v.expect_exit}"
    if v.expect_exit == 2:
        if report:
            return "a refused config wrote a report"
        if not stderr.startswith(b"error:"):
            return "a refused config gave no error message"
        return None
    if v.expect_digest is None:
        return f"no pinned digest for {v.digest_key}"
    if sha256(report) != v.expect_digest:
        return "report bytes differ from the pinned digest"
    try:
        failing = _failing_checks(report, v.fmt)
    except (ValueError, KeyError) as exc:
        return f"report does not parse: {exc}"
    if failing != v.expect_failing:
        return f"failing checks {failing}, expected {v.expect_failing}"
    return None


def check_family(v: Verdict, result: dict) -> str | None:
    """Every orbit point is a member, the tampered tuple is not, profiles scale."""
    if not result["members"] or not all(result["members"]):
        return f"orbit membership {result['members']}, expected all true"
    if result["tampered"]:
        return "tampered tuple was accepted"
    if result["profiles"] != v.expect_profiles:
        return "valuation profiles differ from j^2 * v(a) * p^n"
    return None
