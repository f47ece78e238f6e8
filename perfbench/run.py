"""tiltval verdict benchmark: time to a correct verdict, per workload.

Run from the root of a tiltval checkout:

    python3 perfbench/run.py --workload wide-ell --seed 1 --seconds 25 --trace 0

One client runs verdicts in a closed loop: the next verdict starts only
after the previous one has finished and been checked.  Verdicts run in
at most one child process at a time: a fresh ``python -m tiltval``
process per verdict for cold-mix, one long-lived worker that imports
``tiltval.cli`` once for the other workloads.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs each verdict of the first half of
the same plan twice, untraced and traced, checks that both give the same
report bytes, and reports the per-layer metrics.  The last line of
stdout is one JSON object; the raw rows and the trace go to
``perfbench/results/``.  Every time metric is scaled to the reference
speed of a calibration measured next to it (``calib.py``).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import calib
import oracle
import workloads
from tracer import SPAN_FIELDS, TARGETS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

VERDICT_TIMEOUT_S = 30.0  # a verdict that takes longer is killed and counted as failed
START_TIMEOUT_S = 60.0  # a worker that is not ready by then means a broken checkout
SETUP_SAMPLES = 11  # fresh interpreters timed to ready, per run
FLOOR_SAMPLES = 7  # import-only interpreters, each between two bare starts, per traced run
RUN_LIMIT_FACTOR = 2.0  # no new pass starts after this many times --seconds of verdict time

# Functions whose call count is a per-layer metric; every traced function also gets a _s metric.
LAYER_CALLS = (
    "cli.load_config", "theta.theta_terms", "theta.eval_theta_laurent", "theta.cyclo_mul",
    "tilt.tilt_mul", "tilt.tilt_pow", "tilt.is_prime", "ansatz.make_ansatz", "ansatz.is_member",
    "pilot.main_bound_check", "loglink.padic_log",
)


class BenchError(Exception):
    """The benchmark cannot run here (for example, no tiltval sources)."""


# -- child processes -------------------------------------------------------------


def _child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env


def _reap(proc: subprocess.Popen, timeout: float | None) -> tuple[bool, object]:
    """Wait for ``proc`` up to ``timeout`` s, killing it past that.

    Returns (timed out, resource usage of the child alone).
    """
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
    finally:
        os.close(pidfd)
    timed_out = not ready
    if timed_out:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return timed_out, usage


def run_process(argv: list[str], root: str, timeout: float,
                out_path: str | None = None, err_path: str | None = None) -> dict:
    """One child to completion: exit code (None on timeout), wall, CPU, peak RSS.

    Output goes to the given files, or is discarded.
    """
    with contextlib.ExitStack() as stack:
        out, err = (stack.enter_context(open(path, "wb")) if path else subprocess.DEVNULL
                    for path in (out_path, err_path))
        start = time.perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=root, env=_child_env(root))
        timed_out, usage = _reap(proc, timeout)
        wall = time.perf_counter_ns() - start
    return {
        "exit": None if timed_out else proc.returncode,
        "wall_s": wall / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kib": usage.ru_maxrss,
    }


class Floor:
    """Bare interpreter starts (``python -c pass``): the reference for process measurements.

    One start between two neighbouring process measurements is the
    first's reference after and the second's reference before.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.last: float | None = None

    def spawn(self) -> float:
        res = run_process([sys.executable, "-c", "pass"], self.root, START_TIMEOUT_S)
        if res["exit"] != 0:
            raise BenchError("python -c pass failed")
        self.last = res["wall_s"]
        return self.last

    def before(self) -> float:
        return self.spawn() if self.last is None else self.last


class Worker:
    """The long-lived verdict process (``worker.py serve``), one at a time."""

    def __init__(self, root: str, spans_path: str | None = None) -> None:
        argv = [sys.executable, WORKER, "serve"] + (["--spans", spans_path] if spans_path else [])
        start = time.perf_counter_ns()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=root, env=_child_env(root))
        self._buf = b""
        ready = self._read_line(START_TIMEOUT_S)
        self.setup_s = (time.perf_counter_ns() - start) / 1e9
        if ready is None or not ready.get("ready"):
            self.kill()
            raise BenchError("the verdict worker did not start; is src/tiltval importable?")
        self.rss_kib = 0

    def _read_line(self, timeout: float) -> dict | None:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def request(self, req: dict, timeout: float) -> dict | None:
        """Send one request; None when the worker timed out or died (it is then killed)."""
        try:
            self.proc.stdin.write((json.dumps(req) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.kill()
            return None
        reply = self._read_line(timeout)
        if reply is None:
            self.kill()
        return reply

    def close(self) -> dict:
        reply = self.request({"kind": "quit"}, 120.0)
        if reply is None:  # the worker died or hung; request() has killed it
            return {}
        self.proc.stdin.close()
        _, usage = _reap(self.proc, 30.0)
        self.proc.stdout.close()
        self.rss_kib = usage.ru_maxrss
        return reply

    def kill(self) -> None:
        if self.proc.returncode is None:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            _, usage = _reap(self.proc, 0)
            self.proc.stdout.close()
            self.rss_kib = usage.ru_maxrss


# -- one verdict -------------------------------------------------------------------


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


class Runner:
    """Runs verdicts for one workload and checks each against the oracle."""

    def __init__(self, root: str, tmp: str, spans_path: str | None = None) -> None:
        self.root = root
        self.tmp = tmp
        self.spans_path = spans_path
        self.worker: Worker | None = None
        self.floor = Floor(root)
        self.peak_rss_kib = 0
        self.child_spans: list[list] = []
        self.absent: set[str] = set()

    def _worker(self) -> Worker:
        if self.worker is None or self.worker.proc.returncode is not None:
            self._note_rss()
            self.worker = Worker(self.root, self.spans_path)
        return self.worker

    def _note_rss(self) -> None:
        if self.worker is not None:
            self.peak_rss_kib = max(self.peak_rss_kib, self.worker.rss_kib)

    def close(self) -> dict:
        reply = {}
        if self.worker is not None and self.worker.proc.returncode is None:
            reply = self.worker.close()
        self._note_rss()
        self.worker = None
        return reply

    def _config_path(self, vid: int, v: workloads.Verdict) -> str:
        path = os.path.join(self.tmp, f"config-{vid}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(v.config_text)
        return path

    def run(self, vid: int, v: workloads.Verdict, traced: bool) -> dict:
        """Run one verdict; the row carries timing, the report digest and any failure."""
        if v.kind == "process":
            return self._run_process(vid, v, traced)
        return self._run_in_worker(vid, v, traced)

    def _run_process(self, vid: int, v: workloads.Verdict, traced: bool) -> dict:
        config = self._config_path(vid, v)
        args = [v.cmd, "--config", config, "--format", v.fmt]
        out, err = os.path.join(self.tmp, "stdout"), os.path.join(self.tmp, "stderr")
        stats = os.path.join(self.tmp, "stats.json")
        if traced:
            argv = [sys.executable, WORKER, "cli", "--stats", stats, "--"] + args
        else:
            argv = [sys.executable, "-m", "tiltval"] + args
        before = self.floor.before()
        res = run_process(argv, self.root, VERDICT_TIMEOUT_S, out, err)
        floor_s = [before, self.floor.spawn()]
        if not traced:
            self.peak_rss_kib = max(self.peak_rss_kib, res["rss_kib"])
        report = _read(out)
        row = {"wall_s": res["wall_s"], "cpu_s": res["cpu_s"], "exit": res["exit"], "floor_s": floor_s,
               "digest": oracle.sha256(report)}
        if res["exit"] is None:
            row["failure"] = f"timed out after {VERDICT_TIMEOUT_S:g} s"
            return row
        row["failure"] = oracle.check_cli(v, res["exit"], report, _read(err))
        if traced:
            try:
                with open(stats, encoding="utf-8") as handle:
                    data = json.load(handle)
                os.unlink(stats)
            except (OSError, ValueError) as exc:
                row["failure"] = row["failure"] or f"traced child left no stats: {exc}"
                return row
            row["agg"] = data["agg"]
            self.absent.update(data["absent"])
            self.child_spans.extend([span[0], vid, *span[2:]] for span in data["spans"])
        return row

    def _run_in_worker(self, vid: int, v: workloads.Verdict, traced: bool) -> dict:
        worker = self._worker()
        if v.kind == "cli":
            out = os.path.join(self.tmp, f"report-{int(traced)}.out")
            if os.path.exists(out):
                os.unlink(out)
            argv = [v.cmd, "--config", self._config_path(vid, v), "--format", v.fmt, "--output", out]
            req = {"id": vid, "kind": "cli", "argv": argv, "trace": traced}
        else:
            req = {"id": vid, "kind": "family", "trace": traced, **v.family}
        reply = worker.request(req, VERDICT_TIMEOUT_S)
        if reply is None:
            return {"wall_s": VERDICT_TIMEOUT_S, "cpu_s": VERDICT_TIMEOUT_S, "exit": None,
                    "failure": f"timed out after {VERDICT_TIMEOUT_S:g} s"}
        row = {"wall_s": reply.get("wall_ns", 0) / 1e9, "cpu_s": reply.get("cpu_ns", 0) / 1e9,
               "exit": reply.get("exit"), "kernel_mean_s": reply.get("kernel_mean_s"),
               "kernel_runs": reply.get("kernel_runs")}
        if "error" in reply:
            row["failure"] = f"raised {reply['error']}"
            return row
        if traced:
            row["agg"] = reply["agg"]
            self.absent.update(reply.get("absent", ()))
        if v.kind == "cli":
            report = _read(out) if os.path.exists(out) else b""
            row["digest"] = oracle.sha256(report)
            row["failure"] = oracle.check_cli(v, reply["exit"], report)
        else:
            row["digest"] = oracle.sha256(json.dumps(reply["result"], sort_keys=True).encode())
            row["failure"] = oracle.check_family(v, reply["result"])
        return row


# -- statistics ----------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile at the highest rank with at least ten verdicts beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, n - 10)  # 1-based nearest rank
    return ordered[rank - 1], 100.0 * rank / n


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def scale(row: dict) -> float:
    """Calibration factor of a measurement; 1 for a verdict that timed out before it was calibrated."""
    if row.get("floor_s"):
        return calib.spawn_factor(*row["floor_s"])
    if row.get("kernel_mean_s"):
        return calib.kernel_factor(row["kernel_mean_s"])
    return 1.0


# -- metadata ------------------------------------------------------------------------


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest(root: str) -> str:
    digest = hashlib.sha256()
    base = os.path.join(root, "src", "tiltval")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0" + _read(os.path.join(base, name)))
    return digest.hexdigest()


def metadata(root: str, args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "interpreter": sys.executable,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
    }


# -- the run -------------------------------------------------------------------------


def check_checkout(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "tiltval", "cli.py")):
        raise BenchError(f"no tiltval sources under {os.path.join(root, 'src')}; run from a checkout root")


def passes_for(name: str, seconds: int) -> int:
    workload = workloads.WORKLOADS[name]
    passes = max(1, math.ceil(seconds / workload.nominal_pass_s))
    return -(-passes // workload.pass_multiple) * workload.pass_multiple


def import_samples(root: str, count: int) -> list[dict]:
    """``python -c 'import tiltval.cli'`` starts, each between two bare starts."""
    floor = Floor(root)
    samples = []
    for _ in range(count):
        before = floor.before()
        res = run_process([sys.executable, "-c", "import tiltval.cli"], root, START_TIMEOUT_S)
        if res["exit"] != 0:
            raise BenchError("python -c 'import tiltval.cli' failed")
        samples.append({"wall_s": res["wall_s"], "floor_s": [before, floor.spawn()]})
    return samples


def setup_samples(root: str, count: int) -> list[dict]:
    """Fresh interpreter to ready-for-first-verdict (tiltval.cli imported), timed.

    Each sample sits between two bare starts; the worker is closed before
    the second, so the two never overlap.
    """
    floor = Floor(root)
    samples = []
    for _ in range(count):
        before = floor.before()
        worker = Worker(root)
        worker.close()
        samples.append({"wall_s": worker.setup_s, "floor_s": [before, floor.spawn()]})
    return samples


def run_workload(root: str, name: str, seed: int, seconds: int, trace: bool, tamper=None) -> dict:
    """Run one workload; ``tamper`` may rewrite the plan's expected answers (negative control)."""
    check_checkout(root)
    results = os.path.join(HERE, "results")
    tmp = os.path.join(results, "tmp", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    digests = oracle.load_digests()
    passes = workloads.plan(name, seed, passes_for(name, seconds))
    if trace:
        passes = passes[: math.ceil(len(passes) / 2)]
    for v in (v for p in passes for v in p):
        if v.kind != "family" and v.expect_exit != 2:
            v.expect_digest = digests.get(v.digest_key)
    if tamper is not None:
        tamper(passes)

    setup = setup_samples(root, SETUP_SAMPLES)
    spans_path = os.path.join(results, f"{name}-seed{seed}.spans.tsv.gz") if trace else None
    runner = Runner(root, tmp, spans_path)
    rows: list[dict] = []
    busy = 0.0  # untraced verdict time so far, calibration excluded
    try:
        for pass_index, verdicts in enumerate(passes):
            if pass_index and busy > RUN_LIMIT_FACTOR * seconds:
                break
            for v in verdicts:
                vid = len(rows)
                row = {"vid": vid, "pass": pass_index, "kind": v.kind, "cmd": v.cmd, "fmt": v.fmt,
                       "config": v.config_text, **v.knobs, "expect_exit": v.expect_exit}
                untraced = runner.run(vid, v, traced=False)
                row.update(untraced)
                busy += untraced["wall_s"]
                if trace:
                    traced = runner.run(vid, v, traced=True)
                    row["traced_wall_s"] = traced["wall_s"]
                    row["traced_scale"] = scale(traced)
                    row["agg"] = traced.get("agg")
                    if traced.get("failure"):
                        row["failure"] = row.get("failure") or f"traced: {traced['failure']}"
                    elif traced.get("digest") != untraced.get("digest"):
                        row["failure"] = row.get("failure") or "traced report bytes differ from untraced"
                rows.append(row)
    finally:
        closing = runner.close()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use the parent
            os.rmdir(os.path.dirname(tmp))
    imports = None
    if trace:
        imports = import_samples(root, FLOOR_SAMPLES)
        if runner.child_spans:
            with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as out:
                out.write("\t".join(SPAN_FIELDS) + "\n")
                for span in runner.child_spans:
                    out.write("\t".join(str(x) for x in span) + "\n")
    return {"rows": rows, "setup": setup, "peak_rss_kib": runner.peak_rss_kib, "imports": imports,
            "absent": sorted(runner.absent | set(closing.get("absent", ()))),
            "folded": closing.get("folded", 0), "spans_path": spans_path}


def end_to_end(run: dict) -> tuple[dict, dict]:
    rows = run["rows"]
    walls = [r["wall_s"] * scale(r) for r in rows]
    tail_s, tail_pct = tail(walls)
    failed = sum(1 for r in rows if r.get("failure"))
    metrics = {
        "setup_s": (_median(s["wall_s"] * scale(s) for s in run["setup"]), "s"),
        "verdict_s": (_median(walls), "s"),
        "verdict_tail_s": (tail_s, "s"),
        "verdict_cpu_s": (_median(r["cpu_s"] * scale(r) for r in rows), "s"),
        "peak_rss_mib": (run["peak_rss_kib"] / 1024, "MiB"),
        "verdict_ok_ratio": (1 - failed / len(rows), "ratio"),
    }
    notes = {"verdicts": len(rows), "tail_percentile": round(tail_pct, 2), "failed": failed,
             "failed_ratio": failed / len(rows), "setup_samples": len(run["setup"]),
             "unscaled_setup_s": _median(s["wall_s"] for s in run["setup"]),
             "unscaled_verdict_s": _median(r["wall_s"] for r in rows),
             "median_scale": _median(scale(r) for r in rows)}
    return metrics, notes


def per_layer(run: dict) -> tuple[dict, dict]:
    rows = [r for r in run["rows"] if r.get("agg")]
    absent = set(run["absent"])

    def agg(name: str, column: int):
        return [r["agg"][name][column] for r in rows if name in r["agg"]]

    def agg_s(name: str):
        return [r["agg"][name][1] / 1e9 * r["traced_scale"] for r in rows if name in r["agg"]]

    imports = run["imports"]
    metrics = {
        # The bare start is the reference itself, so it is reported as measured.
        "interp.start_s": (_median(f for s in imports for f in s["floor_s"]), "s"),
        "cli.import_s": (_median(s["wall_s"] * scale(s) for s in imports) - calib.SPAWN_REFERENCE_S, "s"),
    }
    for name in TARGETS:
        if name not in absent:
            metrics[f"{name}_s"] = (_median(agg_s(name)), "s")
    for name in LAYER_CALLS:
        if name not in absent:
            metrics[f"{name}.calls"] = (_median(agg(name, 0)), "count")
    if "tilt.tilt_mul" not in absent:
        metrics["tilt.tilt_mul.peak_terms"] = (_median(agg("tilt.tilt_mul", 3)), "terms")
    if "reporting.render" not in absent:
        metrics["reporting.bytes"] = (_median(agg("reporting.render", 3)), "bytes")
    # Each verdict ran untraced and then traced back to back, so the raw ratio needs no scaling.
    ratio = _median(r["traced_wall_s"] / r["wall_s"] for r in rows if r["wall_s"])
    metrics["trace.overhead_ratio"] = (ratio - 1 if rows else 0.0, "ratio")
    notes = {"traced_verdicts": len(rows), "absent": sorted(absent), "folded_spans": run["folded"],
             "spans": run["spans_path"]}
    return metrics, notes


def write_rows(path: str, meta: dict, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write(json.dumps({"meta": meta}) + "\n")
        for row in rows:
            out.write(json.dumps(row, sort_keys=True) + "\n")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    root = os.getcwd()
    try:
        check_checkout(root)
        meta = metadata(root, args)
        run = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    meta["loadavg_end"] = os.getloadavg()
    metrics, notes = end_to_end(run)
    if args.trace:
        layer_metrics, layer_notes = per_layer(run)
        notes.update(layer_notes)
    rows_path = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl")
    write_rows(rows_path, meta, run["rows"])
    for row in run["rows"]:
        if row.get("failure"):
            print(f"wrong verdict {row['vid']} ({row['cmd']} {row['config']}): {row['failure']}")
    print("meta: " + json.dumps(meta))
    print("notes: " + json.dumps(notes))
    print(f"rows: {rows_path}")
    shown = layer_metrics if args.trace else metrics
    for key, (value, unit) in shown.items():
        print(f"  {key:36s} {value:.6g} {unit}")
    result = {
        "correct": notes["failed"] == 0,
        "attempted": notes["verdicts"],
        "failed": notes["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
