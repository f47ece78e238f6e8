"""Complexity ratchets: executed-line counts up a ladder of config rungs, which no machine's load can move.

A row of `LADDERS` runs one command at three or four rungs of a knob, each rung in a fresh interpreter,
and counts the "line" events that `sys.settrace` reports in code under src/tiltval.  The count at a rung is
the same on every run and every machine.  The log-log slope of the last step, log(count_top / count_prev)
/ log(knob_top / knob_prev), must stay at or below the row's bound, and the top rung's count at or below its
cap.  The table may only tighten: a change that loosens a row says so, with its reason, in CHANGES.md.
Line events do not see work done inside C (big-int products, slicing, `any`), so a ladder bounds the
interpreted steps only.
"""

import json
import math
import os
import subprocess
import sys
from typing import NamedTuple

import pytest
from conftest import env_with_src

# Counts the line events of tiltval's own frames during one in-process cli.main(argv); prints the exit code
# and the count.  The package is imported before the trace starts; a suite's lazy import of its module runs
# under the trace and counts.
_COUNT = r"""
import os, sys
from tiltval import cli

home = os.path.dirname(os.path.abspath(cli.__file__))
ours, count = {}, 0

def line(frame, event, arg):
    global count
    if event == "line":
        count += 1
    return line

def call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in ours:
        ours[name] = os.path.dirname(os.path.abspath(name)) == home
    return line if ours[name] else None

sys.settrace(call)
code = cli.main(sys.argv[1:])
sys.settrace(None)
print(code, count)
"""


class Ladder(NamedTuple):
    name: str
    command: str
    rungs: tuple[int, ...]  # the knob's values, increasing
    config: object  # knob value -> the config's JSON object
    max_last_slope: float
    max_top_count: int


LADDERS = [
    # verify-theta at N = ell*: one pass over each row table and O(1) per shift, so the count grows as ell.
    Ladder("verify-theta", "verify-theta", (23, 47, 97, 193),
           lambda ell: {"ell": ell, "theta_truncation": (ell - 1) // 2}, 1.15, 34_000),
    # loglink up its precision N: each log's series and digit stages grow far slower than N.
    Ladder("loglink", "loglink", (16, 32, 64, 128), lambda n: {"padic_precision": n}, 0.4, 26_000),
    # sweep-ell up its limit: one sieve and one running sum over the primes, so at most linear in the limit.
    Ladder("sweep-ell", "sweep-ell", (200, 400, 800, 1600), lambda limit: {"ell_sweep_max": limit}, 1.0, 6_100),
]


def _count(tmp_path, command, config):
    """The line events of one passing run of command on config, in a fresh interpreter."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = [command, "--config", str(path), "--format", "json", "--output", os.devnull]
    result = subprocess.run(
        [sys.executable, "-c", _COUNT, *argv], env=env_with_src(), capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    code, count = map(int, result.stdout.split())
    assert code == 0, (command, config)
    return count


@pytest.mark.parametrize("ladder", LADDERS, ids=lambda ladder: ladder.name)
def test_a_ladder_keeps_its_slope_and_its_top_count(tmp_path, ladder):
    counts = [_count(tmp_path, ladder.command, ladder.config(knob)) for knob in ladder.rungs]
    (k0, c0), (k1, c1) = zip(ladder.rungs[-2:], counts[-2:])
    slope = math.log(c1 / c0) / math.log(k1 / k0)
    assert slope <= ladder.max_last_slope, (counts, slope)
    assert counts[-1] <= ladder.max_top_count, counts
