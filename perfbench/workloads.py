"""The four workloads: seeded, stratified verdict plans with known answers.

Every workload is a list of passes.  A pass visits each stratum of the
workload once, in a seeded order, and the seed also draws each verdict's
remaining knobs, so two seeds give different inputs with the same mix.
That keeps medians and tails comparable from seed to seed.  The number of
passes is fixed by ``--seconds`` and the workload's nominal pass time
below, so a run does a fixed amount of work whatever the speed of the
code under test.

A verdict's expected exit code follows from the mathematics: 0 for a
valid configuration with ell >= 5, 1 at ell = 3 (the strict bound meets
equality there), 2 for a configuration the validator must refuse.  The
expected report bytes are the digests in ``expected.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

# The tiltval config defaults, for the knob columns of the raw rows.
DEFAULT_KNOBS = {"p": 2, "ell": 5, "theta_truncation": 12, "padic_precision": 14, "ell_sweep_max": 97}


@dataclass
class Verdict:
    """One verdict to run and the answer it must give."""

    kind: str  # "process": python -m tiltval; "cli": cli.main in the worker; "family": library calls
    knobs: dict
    expect_exit: int
    cmd: str | None = None
    config_text: str | None = None
    fmt: str | None = None
    family: dict | None = None
    expect_failing: tuple[str, ...] = ()
    expect_profiles: list[list[str]] | None = None
    expect_digest: str | None = None

    @property
    def digest_key(self) -> str:
        return digest_key(self.cmd, self.config_text, self.fmt)


def digest_key(cmd: str | None, config_text: str | None, fmt: str | None) -> str:
    return f"{cmd}|{config_text}|{fmt}"


def _config_text(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True)


def _cli_knobs(cfg: dict) -> dict:
    knobs = {k: cfg.get(k, v) for k, v in DEFAULT_KNOBS.items()}
    knobs["terms"] = None
    return knobs


# -- cold-mix -----------------------------------------------------------------

COLD_PASSING = (
    ("all", {}),
    ("all", {"p": 3, "ell": 7}),
    ("all", {"p": 2, "ell": 17}),
    ("all", {"p": 5, "ell": 11}),
    ("verify-theta", {}),
    ("bound", {}),
    ("ansatz", {}),
    ("loglink", {}),
    ("sweep-ell", {}),
)
# ell = 3 sits exactly on the boundary of the strict bound: equality, not <.
COLD_BOUNDARY = (("all", {"ell": 3}),)
# Raw config texts the validator must refuse with exit 2.
COLD_REFUSED = (
    ("all", '{"ell": 4}'),
    ("all", '{"v_q": 0.5}'),
    ("all", '{"colour": 1}'),
    ("all", '{"ell": 11, "p": 3}'),  # ansatz needs (ell - 1)/2 to be a power of p
)
COLD_SEEDS = range(4)
COLD_FORMATS = ("json", "csv")


def _cold_pass(rng: random.Random) -> list[Verdict]:
    out = []
    for cmd, cfg in COLD_PASSING + COLD_BOUNDARY:
        full = {**cfg, "seed": rng.choice(COLD_SEEDS)}
        boundary = cfg.get("ell") == 3
        out.append(
            Verdict(
                kind="process",
                knobs=_cli_knobs(full),
                expect_exit=1 if boundary else 0,
                cmd=cmd,
                config_text=_config_text(full),
                fmt=rng.choice(COLD_FORMATS),
                expect_failing=("bound.strict_inequality",) if boundary else (),
            )
        )
    for cmd, text in COLD_REFUSED:
        out.append(
            Verdict(
                kind="process",
                knobs=_cli_knobs(json.loads(text, parse_float=lambda s: s)),
                expect_exit=2,
                cmd=cmd,
                config_text=text,
                fmt=rng.choice(COLD_FORMATS),
            )
        )
    rng.shuffle(out)
    return out


def _cold_catalog():
    for cmd, cfg in COLD_PASSING + COLD_BOUNDARY:
        for seed in COLD_SEEDS:
            for fmt in COLD_FORMATS:
                yield cmd, _config_text({**cfg, "seed": seed}), fmt


# -- wide-ell -----------------------------------------------------------------

# Sophie Germain primes p in 23..53, so ell = 2p + 1 is prime and
# ell* = p is a power of p: the only family where the ansatz suite runs at
# large ell.  Verdict cost roughly doubles from one stratum to the next, so
# the weights place the median (rank n/2) inside the p = 29 stratum and the
# tail (rank n - 10) inside p = 41 for a three-pass run, away from the gaps
# between strata where a rank statistic jumps.
WIDE_WEIGHTS = ((23, 4), (29, 3), (41, 4), (53, 1))
WIDE_SEEDS = range(4)


def _wide_cfg(p: int, seed: int) -> dict:
    return {"p": p, "ell": 2 * p + 1, "theta_truncation": p, "seed": seed}


def _cli_verdict(cfg: dict) -> Verdict:
    return Verdict(kind="cli", knobs=_cli_knobs(cfg), expect_exit=0, cmd="all",
                   config_text=_config_text(cfg), fmt="json")


def _wide_pass(rng: random.Random) -> list[Verdict]:
    out = [_cli_verdict(_wide_cfg(p, rng.choice(WIDE_SEEDS))) for p, w in WIDE_WEIGHTS for _ in range(w)]
    rng.shuffle(out)
    return out


def _wide_catalog():
    for p, _ in WIDE_WEIGHTS:
        for seed in WIDE_SEEDS:
            yield "all", _config_text(_wide_cfg(p, seed)), "json"


# -- deep-precision -------------------------------------------------------------

# The smallest valid ell for each p, crossed with a precision ladder of
# its own: nine cells, one verdict each per pass.  The ladders span
# 48..128 but top out lower for p = 3 and 5, where a verdict at
# precision 128 costs 1.2-2.5 s: six such verdicts took half of a run, so
# a run held only 27 verdicts and its median and tail moved with each
# one.  The sweep limits form a Latin square over consecutive passes
# (seeded offset), so every three passes give each cell each sweep limit
# once and the run's cost mix does not depend on the seed; a run does a
# whole number of squares.  The seed orders the verdicts and draws the
# config seed, which picks the randomized units of the log identities.
DEEP_LADDERS = (((2, 5), (48, 88, 128)), ((3, 7), (48, 72, 96)), ((5, 11), (48, 64, 80)))
DEEP_SWEEPS = (500, 1000, 1500)
DEEP_SEEDS = range(4)


def _deep_cfg(p: int, ell: int, precision: int, sweep: int, seed: int) -> dict:
    return {"p": p, "ell": ell, "padic_precision": precision, "ell_sweep_max": sweep, "seed": seed}


def _deep_cells() -> list[tuple[int, int, int]]:
    return [(p, ell, precision) for (p, ell), ladder in DEEP_LADDERS for precision in ladder]


def _deep_passes(rng: random.Random, passes: int) -> list[list[Verdict]]:
    cells = _deep_cells()
    offset = rng.randrange(len(DEEP_SWEEPS))
    out = []
    for k in range(passes):
        verdicts = [
            _cli_verdict(_deep_cfg(p, ell, precision, DEEP_SWEEPS[(c + k + offset) % len(DEEP_SWEEPS)],
                                   rng.choice(DEEP_SEEDS)))
            for c, (p, ell, precision) in enumerate(cells)
        ]
        rng.shuffle(verdicts)
        out.append(verdicts)
    return out


def _deep_catalog():
    for p, ell, precision in _deep_cells():
        for sweep in DEEP_SWEEPS:
            for seed in DEEP_SEEDS:
                yield "all", _config_text(_deep_cfg(p, ell, precision, sweep, seed)), "json"


# -- generator-family -----------------------------------------------------------

# (p, ell, exponent numerators k): a generator sum c_k * t^(k/p) whose
# coefficients c_k in 1..p-1 the seed draws.  The exponents are fixed per
# cell because the cost of a family depends mostly on them (it varies
# several-fold between exponent sets of one size) and only by about 10%
# on the coefficients, so the run's cost mix does not depend on the seed.
# The cells span p in {2, 3, 5}, 2-4 terms and ell in 11..23; sorted by
# cost, the middle cells (median) and the 7th-8th (tail) are close in cost.
FAMILY_CELLS = (
    (2, 23, (1, 2)),
    (2, 23, (1, 2, 5)),
    (3, 17, (1, 4)),
    (3, 11, (1, 3, 4)),
    (2, 23, (1, 3, 5, 8)),
    (3, 19, (1, 3)),
    (5, 11, (1, 2, 3, 4)),
    (5, 19, (1, 3)),
    (5, 13, (1, 2, 4)),
)
FAMILY_WINDOW = (-1, 1)


def _family_verdict(rng: random.Random, p: int, ell: int, numerators: tuple[int, ...]) -> Verdict:
    terms = [[k, p, rng.randrange(1, p)] for k in numerators]
    family = {"p": p, "ell": ell, "terms": terms, "window": list(FAMILY_WINDOW)}
    return Verdict(
        kind="family",
        knobs={"p": p, "ell": ell, "theta_truncation": None, "padic_precision": None,
               "ell_sweep_max": None, "terms": len(terms)},
        expect_exit=0,
        family=family,
        expect_profiles=expected_profiles(family),
    )


def expected_profiles(family: dict) -> list[list[str]]:
    """Profile of each orbit point: j^2 * v(a) * p^n for j = 1..ell*, n in the window."""
    p, ell = family["p"], family["ell"]
    v_a = min(Fraction(k, d) for k, d, _ in family["terms"])
    lo, hi = family["window"]
    return [
        [str(j * j * v_a * Fraction(p) ** n) for j in range(1, (ell - 1) // 2 + 1)]
        for n in range(lo, hi + 1)
    ]


def _family_pass(rng: random.Random) -> list[Verdict]:
    out = [_family_verdict(rng, *cell) for cell in FAMILY_CELLS]
    rng.shuffle(out)
    return out


# -- registry -------------------------------------------------------------------


def _independent(make_pass):
    """Passes drawn one after another from the same generator."""
    return lambda rng, passes: [make_pass(rng) for _ in range(passes)]


@dataclass(frozen=True)
class Workload:
    name: str
    make_passes: object  # (rng, pass count) -> list of passes
    nominal_pass_s: float  # one pass's verdict time on the code the benchmark was defined on (2 cores, Python 3.11)
    catalog: object = None  # every (cmd, config text, format) whose digest is pinned
    pass_multiple: int = 1  # a run's pass count is rounded up to a multiple of this


WORKLOADS = {
    "cold-mix": Workload("cold-mix", _independent(_cold_pass), 3.5, _cold_catalog),
    "wide-ell": Workload("wide-ell", _independent(_wide_pass), 7.3, _wide_catalog),
    "deep-precision": Workload("deep-precision", _deep_passes, 5.0, _deep_catalog, len(DEEP_SWEEPS)),
    "generator-family": Workload("generator-family", _independent(_family_pass), 3.6),
}


def plan(name: str, seed: int, passes: int) -> list[list[Verdict]]:
    """The seeded passes of a workload; the same seed gives the same verdicts."""
    return WORKLOADS[name].make_passes(random.Random(f"{name}:{seed}"), passes)
