"""Span tracer that wraps tiltval's public functions from outside the package.

A target names a function by its home module and attribute, for example
``("tilt", "tilt_mul")``, or a method as ``("theta", "CycloElt.__mul__")``.
Installing the tracer replaces the function in every ``tiltval`` module
namespace that holds it (``tiltval.tilt.tilt_pow`` and the copies that
``tiltval.ansatz``, ``tiltval.witt`` and ``tiltval.cli`` imported), and
``uninstall`` puts every original back.  A target that no longer exists
is listed in ``absent`` instead of raising, so a metric whose function a
later change removed reads as absent.

Spans are kept in memory in one flat integer array: span id, verdict
id, name, parent span, start, end, and the span's self time (its
duration minus the time covered by its direct children).  Per-verdict aggregates
are kept alongside so the per-layer metrics never need the raw spans.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from functools import wraps

PACKAGE = "tiltval"

# metric prefix -> (home module, attribute path)
TARGETS = {
    "cli.load_config": ("cli", "load_config"),
    "cli.suite.verify_theta": ("cli", "cmd_verify_theta"),
    "cli.suite.bound": ("cli", "cmd_bound"),
    "cli.suite.ansatz": ("cli", "cmd_ansatz"),
    "cli.suite.loglink": ("cli", "cmd_loglink"),
    "cli.suite.sweep_ell": ("cli", "cmd_sweep_ell"),
    "reporting.render": ("reporting", "render_report"),
    "theta.theta_terms": ("theta", "theta_terms"),
    "theta.eval_theta_laurent": ("theta", "eval_theta_laurent"),
    "theta.cyclo_mul": ("theta", "CycloElt.__mul__"),
    "tilt.tilt_mul": ("tilt", "tilt_mul"),
    "tilt.tilt_pow": ("tilt", "tilt_pow"),
    "tilt.is_prime": ("tilt", "is_prime"),
    "ansatz.make_ansatz": ("ansatz", "make_ansatz"),
    "ansatz.is_member": ("ansatz", "is_member"),
    "ansatz.frobenius_orbit": ("ansatz", "frobenius_orbit"),
    "pilot.main_bound_check": ("pilot", "main_bound_check"),
    "pilot.theta_set_sample": ("pilot", "theta_set_sample"),
    "loglink.padic_log": ("loglink", "padic_log"),
}

# Spans beyond this many are folded into the aggregates only; the count
# of folded spans is reported so a truncated trace file is never silent.
MAX_SPANS = 200_000


SPAN_FIELDS = ("span", "verdict", "name", "parent", "start_ns", "end_ns", "self_ns")
_SIZED = ("tilt.tilt_mul", "reporting.render")


def _result_size(name: str, result) -> int:
    """Size recorded for a span's result: terms of a product, bytes of a report."""
    if name == "tilt.tilt_mul":
        return len(result.terms)
    return len(result.encode("utf-8"))


class Tracer:
    """Records spans for the verdict set by :meth:`begin_verdict`."""

    def __init__(self) -> None:
        self.names = list(TARGETS)
        self._name_index = {name: i for i, name in enumerate(self.names)}
        # SPAN_FIELDS integers per kept span, flat, in the order of SPAN_FIELDS
        self.spans = array("q")
        self.folded = 0
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._depth = [0] * len(self.names)  # open spans per name, for inclusive time
        self._verdict = -1
        self._agg: list[list[int]] = []
        self._next_id = 0
        self.begin_verdict(-1)

    # -- verdict bookkeeping -------------------------------------------------

    def begin_verdict(self, verdict_id: int) -> None:
        self._verdict = verdict_id
        self._stack.clear()
        self._depth = [0] * len(self.names)
        # per name: [calls, inclusive ns, self ns, largest result size]
        self._agg = [[0, 0, 0, 0] for _ in self.names]

    def verdict_aggregates(self) -> dict[str, list[int]]:
        return dict(zip(self.names, self._agg))

    def span_rows(self) -> list[tuple]:
        """Kept spans as tuples in SPAN_FIELDS order, with the name spelled out."""
        width = len(SPAN_FIELDS)
        rows = []
        for i in range(0, len(self.spans), width):
            row = list(self.spans[i : i + width])
            row[2] = self.names[row[2]]
            rows.append(tuple(row))
        return rows

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every tiltval namespace that refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        self.absent = []
        for name, (module_name, attr_path) in TARGETS.items():
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = attr_path.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                # A method: patch the class attribute and any alias of it
                # in the class body (CycloElt.__rmul__ = __mul__).
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, original, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def _patch(self, owner: object, key: str, original: object, wrapper: object) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        """Put back every original that :meth:`install` replaced."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def _wrap(self, name: str, func):
        index = self._name_index[name]
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        sized = name in _SIZED

        @wraps(func)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            depth = self._depth
            depth[index] += 1
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                depth[index] -= 1
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                agg = self._agg[index]
                agg[0] += 1
                if not depth[index]:  # inclusive time counts the outermost call of a name only
                    agg[1] += duration
                agg[2] += duration - frame[1]
                if len(spans) < MAX_SPANS * len(SPAN_FIELDS):
                    spans.extend((span_id, self._verdict, index, parent, start, end, duration - frame[1]))
                else:
                    self.folded += 1
            if sized:
                agg[3] = max(agg[3], _result_size(name, result))
            return result

        return traced

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write the kept spans as gzipped tab-separated rows; returns the row count."""
        rows = self.span_rows()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("\t".join(SPAN_FIELDS) + "\n")
            for row in rows:
                out.write("\t".join(map(str, row)) + "\n")
        return len(rows)
