"""Command-line front end: configured check suites with exact reports.

Commands: verify-theta, bound, ansatz, loglink, sweep-ell, all, named by
one positional argument; the options may come before or after it.
Configuration comes from an optional JSON file whose rationals are
"num/den" strings; numeric literals with a decimal point are rejected
outright, there is no tolerance knob anywhere.  Exit status: 0 when all
checks pass, 1 when a check fails or a cross-check raises VerificationError,
2 for a usage error or an input refused with DomainError (or an OSError).
``main(argv)``, the in-process entry, leaves the garbage collector alone;
``python -m tiltval`` and the ``tiltval`` command run ``__main__.run``,
which also freezes it just before the process exits.

Importing this module loads records, errors and tilt (which owns the
config validators), plus reporting, ansatz and witt, but not argparse:
``main`` reads an argv of the plain form itself, and only any other argv
(--help, a usage error) imports and builds the parser.  Those three load
here because perfbench/tracer.py's ``install()`` lists the loaded
tiltval modules before it imports each target's home module.  A home
that ``install()`` imports first is patched in no namespace: a deferred
reporting left ``render_report`` untraced.  A module that imports an
already wrapped name keeps the wrapper after ``uninstall()``: a deferred
ansatz kept a ``tilt_pow`` wrapper.  Each suite builder imports theta,
pilot or loglink in its own body, so a process without a bytecode cache
compiles only the suites its command runs, and a config refused at load
compiles none of them.  That import reads the home module's attribute on
every call, so a wrapper set on ``tiltval.<module>.<name>`` reaches the
builder.
"""

from __future__ import annotations

import json
import re
import sys
import time
from fractions import Fraction
from functools import wraps
from typing import Callable, Iterator

from ._record import Record
from .ansatz import AnsatzPoint, is_member, make_ansatz, valuation_profile, scale_invariance_check
from .errors import DomainError, VerificationError
from .reporting import (
    GAUGE_NOTES, AnyReport, CheckRecord, CombinedReport, Report, format_exact, make_check, render_report
)
from .tilt import TiltElement, _is_int, _is_p_power, _require_odd_prime, _require_precision, _require_prime, _unit_level
from .tilt import tilt_mul, tilt_pow, tilt_rescale_t
from .witt import PrimitiveDeg1, RhoWeight, eta_val

__all__ = ["RunConfig", "load_config", "main"]

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")  # ASCII digits over the whole string, no trailing newline
_FORMATS = ("json", "csv", "text")
_KIND_NAMES = {int: "an integer", Fraction: "a Fraction", str: "a string"}


class RunConfig(Record):
    """Validated run parameters; every field has a working default."""

    p: int = 2
    ell: int = 5
    ell_sweep_max: int = 97
    v_q: Fraction = Fraction(1)
    theta_truncation: int = 12
    frobenius_depth: int = 2
    rho_weight: Fraction = Fraction(1)
    padic_precision: int = 14
    output_format: str = "text"
    seed: int = 0

    def validate(self) -> "RunConfig":
        for key in self.__slots__:
            value, kind = getattr(self, key), type(self._defaults[key])  # int, Fraction or str
            if not (_is_int(value) if kind is int else isinstance(value, kind)):
                raise DomainError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
        _require_prime(self.p)
        _require_odd_prime(self.ell)
        if self.ell == self.p:
            raise DomainError("ell must differ from p")
        if self.ell_sweep_max < 5:
            raise DomainError(f"ell_sweep_max must be at least 5, got {self.ell_sweep_max}")
        if self.v_q <= 0:
            raise DomainError(f"v_q must be positive, got {self.v_q}")
        if self.rho_weight <= 0:
            raise DomainError(f"rho_weight must be positive, got {self.rho_weight}")
        if self.theta_truncation < 1:
            raise DomainError(f"theta_truncation must be at least 1, got {self.theta_truncation}")
        if self.frobenius_depth < 0:
            raise DomainError(f"frobenius_depth must be nonnegative, got {self.frobenius_depth}")
        _require_precision(self.p, self.padic_precision, "padic_precision")
        # No numerator or denominator a suite renders has more bits than this: 14,000 bits is at most 4,215 digits.
        bits = self.v_q.numerator.bit_length() + self.v_q.denominator.bit_length() + 16
        bits += self.frobenius_depth * self.p.bit_length() + 4 * max(self.ell, self.ell_sweep_max).bit_length()
        if bits > 14_000:
            raise DomainError(
                "render budget: bits(v_q) + frobenius_depth * bits(p) + 4 bits(max(ell, ell_sweep_max)) + 16 > 14000"
            )
        if self.output_format not in _FORMATS:
            raise DomainError(f"output_format must be one of {_FORMATS}, got {self.output_format!r}")
        return self

    def echo(self) -> tuple[tuple[str, str], ...]:
        return tuple((name, format_exact(getattr(self, name))) for name in self.__slots__)


def parse_rational(text: object) -> Fraction:
    """Parse "num/den" (or a bare integer string) into an exact Fraction."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise DomainError(f'rationals must be "num/den" strings, got {text!r}')
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise DomainError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:  # a numerator or denominator past the interpreter's int digit limit
        raise DomainError(f"config number too long: {exc}") from exc


def _reject_float(literal: str) -> None:
    raise DomainError(f'float literal {literal!r} is not allowed; use "num/den" strings')


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise DomainError(f"duplicate config key {key!r}")
        data[key] = value
    return data


def load_config(path: str | None, **flags: object) -> RunConfig:
    """Defaults overlaid with a JSON config file, then with the flags that are not None, strictly validated."""
    flags = {key: value for key, value in flags.items() if value is not None}
    if path is None:
        return RunConfig(**flags).validate()
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(
                handle, parse_float=_reject_float, parse_constant=_reject_float, object_pairs_hook=_unique_keys
            )
        except UnicodeDecodeError as exc:
            raise DomainError(f"config is not UTF-8: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses per nesting level
            raise DomainError(f"config is not valid JSON: {exc}") from exc
        except DomainError:  # a float literal or a duplicate key, refused by the hooks above
            raise
        except ValueError as exc:  # an int literal past the interpreter's int digit limit
            raise DomainError(f"config number too long: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError("config must be a JSON object")
    known = {"schema", *RunConfig.__slots__}
    unknown = sorted(set(data) - known)
    if unknown:
        raise DomainError(f"unknown config keys: {', '.join(unknown)}")
    if "schema" in data and (not _is_int(data["schema"]) or data["schema"] != 1):
        raise DomainError(f"unsupported config schema {data['schema']!r}")
    merged = {
        key: parse_rational(data[key]) if type(RunConfig._defaults[key]) is Fraction else data[key]
        for key in RunConfig.__slots__
        if key in data
    }
    return RunConfig(**{**merged, **flags}).validate()


# Suite name -> help text, in the order `all` runs them.  Each runs as the module attribute
# cmd_<name with "-" as "_">, looked up per call, so a wrapper set on that attribute sees every run.
_SUITES = {
    "verify-theta": "theta-series inversion, quasi-periodicity, special values",
    "bound": "the strict size inequality at the configured (ell, v_q)",
    "ansatz": "witness square-power family, orbits, membership, sizes",
    "loglink": "p-adic log rules, valuation chains, epsilon thresholds",
    "sweep-ell": "bound threshold over all odd primes up to the limit",
}
_COMMANDS = {**_SUITES, "all": "every suite in order"}
_OPTIONS = {"--config": "config", "--output": "output", "--format": "fmt", "--seed": "seed"}
_SEED_RE = re.compile(r"-?[0-9]+")  # --seed takes a config integer's syntax: ASCII digits after an optional minus


def _command(name: str) -> Callable[[RunConfig], AnyReport]:
    return globals()["cmd_" + name.replace("-", "_")]


def _wall_ms(started: float) -> int:
    return int((time.perf_counter() - started) * 1000)


def _suite(build: Callable[[RunConfig], Iterator[CheckRecord]]) -> Callable[[RunConfig], Report]:
    """Make a suite command from a builder that yields its checks: time the build, wrap them in a Report.

    An error raised inside the builder escapes before any Report is made, so no part of a suite is reported.
    """
    name = build.__name__.removeprefix("cmd_").replace("_", "-")

    @wraps(build)
    def run(cfg: RunConfig) -> Report:
        started = time.perf_counter()
        checks = tuple(build(cfg))
        return Report(suite=name, config_echo=cfg.echo(), gauges=GAUGE_NOTES, checks=checks, wall_ms=_wall_ms(started))

    return run


@_suite
def cmd_verify_theta(cfg: RunConfig) -> Iterator[CheckRecord]:
    """Inversion antisymmetry, quasi-periodicity, and special-value consistency."""
    from .theta import check_inversion_antisymmetry, check_quasi_periodicity_upto, check_theta_value_laurent_upto
    from .theta import theta_value

    n_max = cfg.theta_truncation
    ell_star = (cfg.ell - 1) // 2
    if n_max < ell_star:
        raise DomainError(
            f"theta_truncation {n_max} is smaller than ell* = {ell_star}; raise it to cover every shift"
        )
    passed, pairs, cancel_at_one, _ = check_inversion_antisymmetry(n_max)
    yield make_check(
        "theta.inversion_antisymmetry",
        passed,
        n_max=n_max,
        pairs_matched=pairs,
        boundary_terms=1,
        pairs_cancel_at_one=cancel_at_one,
    )
    passed, pairs, _, mismatch = check_inversion_antisymmetry(n_max, signed=False)
    yield make_check(
        "theta.unsigned_control_fails_antisymmetry",
        not passed and pairs < n_max,  # the boundary sign comes from a formula: only a pair tests the table
        n_max=n_max,
        first_mismatch=mismatch or "none",
    )
    shifts = check_quasi_periodicity_upto(ell_star, n_max)
    for j, (passed, overlap, checked, _) in enumerate(shifts, start=1):
        yield make_check(
            f"theta.quasi_periodicity.j{j}",
            passed,
            overlap=overlap,
            terms_checked=checked,
            q_shift_doubled=-j * j,
        )
    base = theta_value(1, cfg.ell)
    scaling_ok = True
    exponents = []
    for j in range(1, ell_star + 1):
        tv = theta_value(j, cfg.ell)
        exponents.append(tv.q_exponent)
        if tv.q_exponent != j * j * base.q_exponent:
            scaling_ok = False
    yield make_check(
        "theta.value_q_exponent_scaling",
        scaling_ok,
        ell=cfg.ell,
        q_exponents=tuple(exponents),
    )
    ratios = check_theta_value_laurent_upto(min(ell_star, n_max - 1), 1, cfg.ell, n_max)
    for j, (passed, gap, expected_gap, coeff_ok) in enumerate(ratios, start=1):
        yield make_check(
            f"theta.value_laurent_ratio.j{j}",
            passed,
            s_exponent_gap=gap,
            expected_gap=expected_gap,
            coeff_relation_holds=coeff_ok,
        )


@_suite
def cmd_bound(cfg: RunConfig) -> Iterator[CheckRecord]:
    """The strict size inequality at (ell, v_q), every identity step shown."""
    from .pilot import corollary_c_check, main_bound_check

    report = main_bound_check(cfg.ell, cfg.v_q)
    for label, value, ok in report.steps:
        yield make_check(f"bound.{label}", ok, value=value)
    if report.margin > 0:
        comparison = "lhs < rhs (strict)"
    elif report.margin == 0:
        comparison = "lhs == rhs (equality)"
    else:
        comparison = "lhs > rhs"
    yield make_check(
        "bound.strict_inequality",
        report.passed,
        lhs_log=report.lhs_log,
        rhs_log=report.rhs_log,
        margin=report.margin,
        comparison=comparison,
    )
    if report.passed:
        for c in (Fraction(1, 2), Fraction(1), Fraction(2)):
            contradiction = corollary_c_check(report, c)
            yield make_check(
                f"bound.corollary_c_{c.numerator}_{c.denominator}",
                contradiction == (c < 1),
                c=c,
                contradiction=contradiction,
            )


def _orbit_profile_scales(point: AnsatzPoint, orbit: tuple[AnsatzPoint, ...], depth: int) -> bool:
    """Whether orbit[i] has point's valuation profile times p^n, n = i - depth, for n = -depth .. depth.

    Member j has v = m_j / p^(s_j) (its lowest numerator over its frame), so v' = p^n * v reads
    m' * p^(s_j + max(0, -n)) == m_j * p^(s' + max(0, n)) in integers.
    """
    if len(orbit) != 2 * depth + 1:
        return False
    p = point.a.p
    base = [(m.a.nums[0][0], m.a.s) for m in point.members]
    for n, other in enumerate(orbit, start=-depth):
        if len(other.members) != len(base):
            return False
        up, down = max(0, n), max(0, -n)
        for (m, s), member in zip(base, other.members):
            if member.a.nums[0][0] * p ** (s + down) != m * p ** (member.a.s + up):
                return False
    return True


@_suite
def cmd_ansatz(cfg: RunConfig) -> Iterator[CheckRecord]:
    """The witness square-power family: profiles, orbits, membership, sizes."""
    from .pilot import size_estimate, sum_log_norms, theta_set_sample
    from .theta import theta_value

    ell_star = (cfg.ell - 1) // 2
    if not _is_p_power(ell_star, cfg.p):
        raise DomainError(
            f"the witness generator t^(1/{ell_star * ell_star}) needs ell* = {ell_star} to be a"
            f" power of p = {cfg.p}; choose p and ell accordingly"
        )
    point = make_ansatz(TiltElement.monomial(cfg.p, Fraction(1, ell_star * ell_star)), cfg.ell)
    profile = valuation_profile(point)
    expected_profile = tuple(Fraction(j * j, ell_star * ell_star) for j in range(1, ell_star + 1))
    yield make_check(
        "ansatz.witness_profile_squares",
        profile == expected_profile,
        profile=profile,
    )
    yield make_check("ansatz.witness_top_normalized", profile[-1] == 1, top=profile[-1])
    t_mon = TiltElement.monomial(cfg.p, 1)
    t_unit_val = eta_val(point.members[0], t_mon)
    yield make_check(
        "ansatz.witness_untilt_gauge",
        t_unit_val == ell_star * ell_star,
        v_of_t_p_normalized=t_unit_val,
    )
    depth = cfg.frobenius_depth
    xi_val = theta_value(1, cfg.ell).q_exponent * cfg.v_q
    sample = theta_set_sample([point], xi_val, depth)
    # One generator: the lifts scale by p^n, so the sample's sort order is the orbit's n order.
    # frobenius_orbit built every point through the AnsatzPoint check against (phi^n a)^(j^2);
    # what is left to check is that the sample kept each of them, and that each kept point's
    # valuations are p^n times the witness's, compared as integer numerators on member frames.
    orbit = tuple(t.ansatz for t in sample)
    yield make_check("ansatz.orbit_membership", len(orbit) == 2 * depth + 1, orbit_size=len(orbit))
    yield make_check("ansatz.orbit_profile_scaling", _orbit_profile_scales(point, orbit, depth), depth=depth)
    bad_tail = PrimitiveDeg1(tilt_mul(tilt_pow(point.a, (ell_star + 1) ** 2), t_mon))
    tampered = (*point.members, bad_tail)
    yield make_check(
        "ansatz.tampered_tuple_rejected",
        not is_member(tampered),
        tampered_length=len(tampered),
    )
    unit = cfg.p - 1 if cfg.p > 2 else 1
    yield make_check(  # t -> u*t must move t itself, or the identity would pass
        "ansatz.scale_invariance",
        scale_invariance_check(point, lambda x: tilt_rescale_t(x, unit))
        and tilt_rescale_t(t_mon, unit).terms == ((1, unit),),
        substitution_unit=unit,
    )
    # The untilt of member j sees the parameter at v_q times v(a^(j^2)) / v(a) = j^2.
    untilts = tuple(cfg.v_q * eta_val(point.members[0], m.a) for m in point.members)
    yield make_check(
        "ansatz.untilt_records",
        untilts == tuple(cfg.v_q * j * j for j in range(1, ell_star + 1)),
        records=tuple(f"untilt.{j}:{v.numerator}/{v.denominator}" for j, v in enumerate(untilts, start=1)),
    )
    rho = RhoWeight.of(cfg.rho_weight)
    sums = tuple(sum_log_norms(pilot, rho) for pilot in sample)
    estimate = size_estimate(sample, rho)
    yield make_check(
        "ansatz.sample_size_estimate",
        estimate == min(sums) and estimate > 0,
        sample_size=len(sample),
        log_size=estimate,
    )
    boundary = size_estimate(sample, RhoWeight.one())
    yield make_check("ansatz.boundary_cap_nonnegative", boundary >= 0, log_size_at_one=boundary)


@_suite
def cmd_loglink(cfg: RunConfig) -> Iterator[CheckRecord]:
    """Chain structure, epsilon thresholds, and exact log functional equations."""
    import random

    from .loglink import PadicUnit, _random_units, chain_build, m_of_epsilon, padic_log

    depth = cfg.frobenius_depth
    window = (-depth, depth)
    chain = chain_build(cfg.p, Fraction(1), window)
    ratios_ok = all(
        chain.value_at(n + 1) == cfg.p * chain.value_at(n) for n in range(window[0], window[1])
    )
    yield make_check(
        "loglink.chain_ratio_is_p",
        ratios_ok,
        entries=tuple(value for _, value in chain.entries),
    )
    growth_ok = all(
        chain.value_at(n) < chain.value_at(n + 1) for n in range(window[0], window[1])
    )
    yield make_check("loglink.chain_strictly_increasing", growth_ok, window=window)
    eps_grid = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 10))
    ms = []
    minimal_ok = True
    for eps in eps_grid:
        m = m_of_epsilon(cfg.p, eps)
        ms.append(m)
        if not Fraction(1, cfg.p**m) < eps:
            minimal_ok = False
        if m > 0 and not Fraction(1, cfg.p ** (m - 1)) >= eps:
            minimal_ok = False
    yield make_check(
        "loglink.m_of_epsilon_grid",
        minimal_ok,
        eps=eps_grid,
        m=tuple(ms),
    )
    p, precision = cfg.p, cfg.padic_precision
    # Kummer shift: u = 1 + p^v at the principal-unit level v has v_p(log u) = v, and each p-th
    # power of u adds one, so v_p(log(u^(p^n))) = v + n while that stays below N.  log(1 + x) = x
    # mod p^(2 v_p(x)), mod 2^(2 v_2(x) - 1) at p = 2, so the first-order term pins log's scale.
    v = _unit_level(p)
    base = PadicUnit.of(p, precision, 1 + p**v)
    shifts = [n for n in sorted({0, 1, depth}) if v + n < precision]  # depth is the window's top
    units = [base.pow(p**n) for n in shifts]
    logs = [padic_log(u) for u in units]
    first_order = [p ** min(precision, 2 * (v + n) - (p == 2)) for n in shifts]  # log(u) = u - 1 mod these
    kummer_ok = all(x % p ** (v + n) == 0 and x % p ** (v + n + 1) != 0 for n, x in zip(shifts, logs))
    kummer_ok &= all((x - u.value + 1) % order == 0 for u, x, order in zip(units, logs, first_order))
    yield make_check("loglink.kummer_shift_telescoping", kummer_ok, window=window)
    modulus = p**precision
    yield make_check(
        "loglink.log_at_one_is_zero",
        padic_log(PadicUnit.of(p, precision, 1)) == 0,
        precision=precision,
    )
    rng = random.Random(cfg.seed)  # validate() proved p prime and the precision at its floor or above
    trials = 100
    product_failures = 0
    pairs = _random_units(rng, p, precision, 2 * trials)  # trial i takes draws 2i and 2i + 1, as drawn one by one
    for u, w in zip(pairs[::2], pairs[1::2]):
        if padic_log(u.mul(w)) != (padic_log(u) + padic_log(w)) % modulus:
            product_failures += 1
    yield make_check(
        "loglink.log_product_rule_trials",
        product_failures == 0,
        trials=trials,
        failures=product_failures,
    )
    power_failures = 0
    for u in _random_units(rng, p, precision, trials):
        if padic_log(u.pow(p)) != (p * padic_log(u)) % modulus:
            power_failures += 1
    yield make_check(
        "loglink.log_p_power_rule_trials",
        power_failures == 0,
        trials=trials,
        failures=power_failures,
    )


@_suite
def cmd_sweep_ell(cfg: RunConfig) -> Iterator[CheckRecord]:
    """Threshold behavior of the bound over all odd primes up to the limit."""
    from .pilot import main_bound_check, main_bound_sweep, threshold_ell_by_root_analysis, threshold_ell_by_sweep

    report3 = main_bound_check(3, cfg.v_q)
    yield make_check(
        "sweep.ell3_boundary_equality",
        (not report3.passed) and report3.lhs_log == report3.rhs_log == cfg.v_q / 6,
        lhs_log=report3.lhs_log,
        rhs_log=report3.rhs_log,
        diagnostic="lhs == rhs (equality)",
    )
    failures, checked, last = main_bound_sweep(cfg.ell_sweep_max)
    yield make_check(
        "sweep.all_primes_from_5_pass",
        not failures,
        primes_checked=checked,
        limit=cfg.ell_sweep_max,
        failures=failures,
        last_margin=main_bound_check(last, cfg.v_q).margin,
    )
    by_sweep = threshold_ell_by_sweep(cfg.ell_sweep_max)
    yield make_check("sweep.threshold_by_sweep", by_sweep == 5, threshold=by_sweep)
    by_roots = threshold_ell_by_root_analysis(cfg.ell_sweep_max)
    yield make_check("sweep.threshold_by_root_analysis", by_roots == 5, threshold=by_roots)
    yield make_check("sweep.threshold_routes_agree", by_sweep == by_roots, threshold=by_sweep)


def cmd_all(cfg: RunConfig) -> CombinedReport:
    """Every suite in order under one configuration."""
    started = time.perf_counter()
    suites = tuple(_command(name)(cfg) for name in _SUITES)
    return CombinedReport(suites=suites, config_echo=cfg.echo(), gauges=GAUGE_NOTES, wall_ms=_wall_ms(started))


def _plain_args(argv: list[str]) -> dict | None:
    """argv read without argparse: one command and options, each with a valid value not starting "-"; else None."""
    args = dict.fromkeys(("command", *_OPTIONS.values()))
    words = iter(argv)
    for word in words:
        if word in _OPTIONS and not (value := next(words, "-")).startswith("-"):
            # argparse checks each value of a repeated option, and the last one wins.  int() converts a seed of 640
            # digits under any digit limit; argparse reads a longer one, and refuses it past the limit.
            if word == "--format" and value not in _FORMATS:
                return None
            if word == "--seed" and not (len(value) <= 640 and _SEED_RE.fullmatch(value)):
                return None
            args[_OPTIONS[word]] = int(value) if word == "--seed" else value
        elif args["command"] is None and word in _COMMANDS:
            args["command"] = word
        else:
            return None
    return args if args["command"] else None


def _read_argv(argv: list[str] | None) -> dict:
    """The command and options of argv (sys.argv[1:] when None): read by _plain_args, else by argparse.

    Only an argv outside _plain_args's form (none, -h, --opt=value, an abbreviation, --, a value that starts with
    "-", a usage error) imports and builds the parser, so help text, error text and exit codes are argparse's.
    """
    argv = sys.argv[1:] if argv is None else argv
    if (args := _plain_args(argv)) is not None:
        return args
    import argparse

    parser = argparse.ArgumentParser(
        prog="tiltval",
        description="Exact verification suites for tilt valuations, theta identities, and log chains.",
        epilog="commands:\n" + "\n".join(f"  {name:<14}{text}" for name, text in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=tuple(_COMMANDS), help="the suite to run, listed below")
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=_FORMATS, dest="fmt", help="report format")
    # A failed match raises TypeError, which argparse reports with the type's name: "invalid int value: 'x'".
    seed = lambda text: int(_SEED_RE.fullmatch(text)[0])
    seed.__name__ = "int"
    parser.add_argument("--seed", type=seed, help="seed for randomized trials")
    return vars(parser.parse_args(argv))


def main(argv: list[str] | None = None) -> int:
    args = _read_argv(argv)
    try:
        cfg = load_config(args["config"], seed=args["seed"], output_format=args["fmt"])
        report = _command(args["command"])(cfg)
        rendered = render_report(report, cfg.output_format)  # refuses a leaf that is not exact
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    if args["output"] is not None:  # an empty path is refused, as open() refuses it
        try:
            with open(args["output"], "w", encoding="utf-8", newline="") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if report.passed else 1
