"""Child process that runs verdicts against tiltval's public entry points.

Two modes, both started with ``PYTHONPATH`` pointing at the checkout's
``src``:

``worker.py serve [--spans PATH]``
    Imports ``tiltval.cli``, prints one ``{"ready": true}`` line, then
    answers one JSON request per stdin line with one JSON reply per
    stdout line.  A request with ``"trace": true`` runs with the tracer
    installed and replies with that verdict's per-layer aggregates.  The
    ``quit`` request writes the kept spans to PATH and ends the process.

``worker.py cli --stats PATH -- ARGV...``
    One traced ``tiltval`` command line, as ``python -m tiltval ARGV``
    would run it: the report goes to stdout and the exit code is the
    command's.  Aggregates and spans go to PATH as JSON.

In ``serve`` mode each verdict runs between runs of the calibration
kernel (``calib.py``), in this process; an untraced verdict also runs it
from a sampling timer.  The kernel's mean time and run count go out with
the verdict's wall and CPU time, from which the sampler's own time is
taken out.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from fractions import Fraction

import calib
import tracer as tracing


def _run_cli(argv: list[str]) -> int:
    import tiltval.cli

    try:
        return tiltval.cli.main(argv)
    except SystemExit as exc:  # argparse refuses bad usage by exiting
        return exc.code if isinstance(exc.code, int) else 2


def _run_family(req: dict) -> dict:
    """Build the square-power family of a generator and check its orbit."""
    from tiltval import ansatz, tilt, witt

    p, ell = req["p"], req["ell"]
    a = tilt.TiltElement.from_terms(p, {Fraction(n, d): c for n, d, c in req["terms"]})
    point = ansatz.make_ansatz(a, ell)
    orbit = ansatz.frobenius_orbit(point, tuple(req["window"]))
    members = [ansatz.is_member(o.members) for o in orbit]
    last = point.members[-1]
    bad_tail = witt.PrimitiveDeg1(tilt.tilt_mul(last.a, tilt.TiltElement.monomial(p, 1)))
    tampered = ansatz.is_member((*point.members[:-1], bad_tail))
    profiles = [[str(v) for v in ansatz.valuation_profile(o)] for o in orbit]
    return {"members": members, "tampered": tampered, "profiles": profiles}


def _timed(tracer: tracing.Tracer | None, verdict_id: int, action,
           sampler: calib.Sampler | None = None) -> tuple[object, int, int, dict | None]:
    """Run ``action``; wall and CPU time exclude the sampler's own."""
    if tracer is not None:
        tracer.begin_verdict(verdict_id)
        tracer.install()
    try:
        cpu0 = time.process_time_ns()
        wall0 = time.perf_counter_ns()
        with sampler if sampler is not None else contextlib.nullcontext():
            value = action()
        wall = time.perf_counter_ns() - wall0
        cpu = time.process_time_ns() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if sampler is not None:
        wall -= sampler.spent_wall_ns
        cpu -= sampler.spent_cpu_ns
    agg = tracer.verdict_aggregates() if tracer is not None else None
    return value, wall, cpu, agg


def serve(spans_path: str | None) -> int:
    import tiltval.cli  # noqa: F401  (the import is the set-up being timed)

    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    sys.stdout = sys.stderr  # nothing but replies may reach the channel
    tracer = tracing.Tracer() if spans_path else None
    channel.write('{"ready": true}\n')
    channel.flush()
    calib.kernel()  # warm, so the first verdict's calibration is not a cold start
    for line in sys.stdin:
        req = json.loads(line)
        if req["kind"] == "quit":
            reply = {"quit": True}
            if tracer is not None:
                reply["spans"] = tracer.write_spans(spans_path)
                reply["folded"] = tracer.folded
                reply["absent"] = tracer.absent
            channel.write(json.dumps(reply) + "\n")
            channel.flush()
            return 0
        use = tracer if req.get("trace") else None
        reply = {"id": req["id"]}
        # Traced verdicts are not sampled, so that no kernel run lands inside a span.
        sampler = calib.Sampler() if use is None else None
        try:
            kernel_s = calib.endpoint()
            if req["kind"] == "cli":
                value, wall, cpu, agg = _timed(use, req["id"], lambda: _run_cli(req["argv"]), sampler)
                reply["exit"] = value
            else:
                value, wall, cpu, agg = _timed(use, req["id"], lambda: _run_family(req), sampler)
                reply["exit"] = 0
                reply["result"] = value
            kernel_s += calib.endpoint() + (sampler.samples if sampler is not None else [])
            reply.update(wall_ns=wall, cpu_ns=cpu, agg=agg,
                         kernel_mean_s=sum(kernel_s) / len(kernel_s), kernel_runs=len(kernel_s))
            if use is not None:
                reply["absent"] = use.absent
        except Exception as exc:  # a raising verdict is a wrong verdict, not a dead benchmark
            reply["error"] = f"{type(exc).__name__}: {exc}"
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
    return 0


def traced_cli(stats_path: str, argv: list[str]) -> int:
    import tiltval.cli  # noqa: F401

    tracer = tracing.Tracer()
    code, wall, cpu, agg = _timed(tracer, 0, lambda: _run_cli(argv))
    spans = tracer.span_rows()
    with open(stats_path, "w", encoding="utf-8") as out:
        json.dump({"agg": agg, "absent": tracer.absent, "folded": tracer.folded, "spans": spans}, out)
    return code


def main(argv: list[str]) -> int:
    if argv and argv[0] == "serve":
        spans = argv[argv.index("--spans") + 1] if "--spans" in argv else None
        return serve(spans)
    if argv and argv[0] == "cli" and "--" in argv:
        stats = argv[argv.index("--stats") + 1]
        return traced_cli(stats, argv[argv.index("--") + 1 :])
    print("usage: worker.py serve [--spans PATH] | worker.py cli --stats PATH -- ARGV...", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
