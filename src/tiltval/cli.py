"""Command-line front end: configured check suites with exact reports.

Subcommands: verify-theta, bound, ansatz, loglink, sweep-ell, all.
Configuration comes from an optional JSON file whose rationals are
"num/den" strings; numeric literals with a decimal point are rejected
outright, there is no tolerance knob anywhere.  Exit status: 0 when all
checks pass, 1 when a mathematical check fails, 2 for configuration or
usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from fractions import Fraction
from functools import wraps
from typing import Callable

from ._record import Record
from .ansatz import is_member, make_ansatz, untilt_records, valuation_profile, scale_invariance_check
from .errors import ConfigError, DomainError, PrecisionError, VerificationError, WindowError
from .loglink import PadicUnit, _require_precision, chain_build, kummer_shift, m_of_epsilon, padic_log
from .pilot import (
    _odd_primes_upto,
    corollary_c_check,
    main_bound_check,
    main_bound_derivation,
    size_estimate,
    sum_log_norms,
    theta_set_sample,
    threshold_ell_by_root_analysis,
    threshold_ell_by_sweep,
)
from .reporting import GAUGE_NOTES, AnyReport, CheckRecord, CombinedReport, Report, make_check, render_report
from .theta import (
    check_inversion_antisymmetry,
    check_quasi_periodicity_upto,
    check_theta_value_laurent_upto,
    theta_value,
)
from .tilt import TiltElement, _is_p_power, _require_odd_prime, is_prime, tilt_mul, tilt_pow, tilt_rescale_t
from .witt import PrimitiveDeg1, RhoWeight, eta_val

__all__ = ["RunConfig", "load_config", "main"]

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")
_FORMATS = ("json", "csv", "text")


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
        if not is_prime(self.p):
            raise ConfigError(f"p must be prime, got {self.p}")
        _require_odd_prime(self.ell, ConfigError)
        if self.ell == self.p:
            raise ConfigError("ell must differ from p")
        if self.ell_sweep_max < 5:
            raise ConfigError(f"ell_sweep_max must be at least 5, got {self.ell_sweep_max}")
        if self.v_q <= 0:
            raise ConfigError(f"v_q must be positive, got {self.v_q}")
        if self.rho_weight <= 0:
            raise ConfigError(f"rho_weight must be positive, got {self.rho_weight}")
        if self.theta_truncation < 1:
            raise ConfigError(f"theta_truncation must be at least 1, got {self.theta_truncation}")
        if self.frobenius_depth < 0:
            raise ConfigError(f"frobenius_depth must be nonnegative, got {self.frobenius_depth}")
        _require_precision(self.p, self.padic_precision, "padic_precision")
        if self.output_format not in _FORMATS:
            raise ConfigError(f"output_format must be one of {_FORMATS}, got {self.output_format!r}")
        return self

    def echo(self) -> tuple[tuple[str, str], ...]:
        pairs = []
        for name in self.__slots__:
            value = getattr(self, name)
            if isinstance(value, Fraction):
                pairs.append((name, f"{value.numerator}/{value.denominator}"))
            else:
                pairs.append((name, str(value)))
        return tuple(pairs)

    def override(self, **changes: object) -> "RunConfig":
        """A copy with the given fields replaced; a change of None keeps the field."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update((name, value) for name, value in changes.items() if value is not None)
        return RunConfig(**values)


def parse_rational(text: object) -> Fraction:
    """Parse "num/den" (or a bare integer string) into an exact Fraction."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ConfigError(f'rationals must be "num/den" strings, got {text!r}')
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ConfigError(f"zero denominator in {text!r}") from exc


def _reject_float(literal: str) -> None:
    raise ConfigError(f'float literal {literal!r} is not allowed; use "num/den" strings')


def load_config(path: str | None) -> RunConfig:
    """Defaults overlaid with a JSON config file, strictly validated."""
    if path is None:
        return RunConfig().validate()
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle, parse_float=_reject_float, parse_constant=_reject_float)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    known = {"schema", *RunConfig.__slots__}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "schema" in data and (isinstance(data["schema"], bool) or data["schema"] != 1):
        raise ConfigError(f"unsupported config schema {data['schema']!r}")
    merged: dict = {}
    for key in RunConfig.__slots__:
        if key not in data:
            continue
        value, kind = data[key], type(RunConfig._defaults[key])  # int, Fraction or str
        if kind is Fraction:
            value = parse_rational(value)
        elif isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a string'}, got {value!r}")
        merged[key] = value
    return RunConfig(**merged).validate()


# Suite name -> help text, in the order `all` runs them.  Each runs as the module attribute
# cmd_<name with "-" as "_">, looked up per call, so a wrapper set on that attribute sees every run.
_SUITES = {
    "verify-theta": "theta-series inversion, quasi-periodicity, special values",
    "bound": "the strict size inequality at the configured (ell, v_q)",
    "ansatz": "witness square-power family, orbits, membership, sizes",
    "loglink": "p-adic log rules, valuation chains, epsilon thresholds",
    "sweep-ell": "bound threshold over all odd primes up to the limit",
}


def _command(name: str) -> Callable[[RunConfig], AnyReport]:
    return globals()["cmd_" + name.replace("-", "_")]


def _wall_ms(started: float) -> int:
    return int((time.perf_counter() - started) * 1000)


def _suite(build: Callable[[RunConfig], list[CheckRecord]]) -> Callable[[RunConfig], Report]:
    """Make a suite command from a check builder: time it and wrap its checks in a Report."""
    name = build.__name__.removeprefix("cmd_").replace("_", "-")

    @wraps(build)
    def run(cfg: RunConfig) -> Report:
        started = time.perf_counter()
        checks = tuple(build(cfg))
        return Report(suite=name, config_echo=cfg.echo(), gauges=GAUGE_NOTES, checks=checks, wall_ms=_wall_ms(started))

    return run


@_suite
def cmd_verify_theta(cfg: RunConfig) -> list[CheckRecord]:
    """Inversion antisymmetry, quasi-periodicity, and special-value consistency."""
    n_max = cfg.theta_truncation
    ell_star = (cfg.ell - 1) // 2
    if n_max < ell_star:
        raise WindowError(
            f"theta_truncation {n_max} is smaller than ell* = {ell_star}; raise it to cover every shift"
        )
    checks = []
    inv = check_inversion_antisymmetry(n_max)
    checks.append(
        make_check(
            "theta.inversion_antisymmetry",
            inv.passed,
            n_max=inv.n_max,
            pairs_matched=inv.pairs_matched,
            boundary_terms=inv.boundary_terms,
            pairs_cancel_at_one=inv.pairs_cancel_at_one,
        )
    )
    control = check_inversion_antisymmetry(n_max, signed=False)
    checks.append(
        make_check(
            "theta.unsigned_control_fails_antisymmetry",
            not control.passed,
            n_max=control.n_max,
            first_mismatch=control.first_mismatch or "none",
        )
    )
    for qp in check_quasi_periodicity_upto(min(ell_star, n_max), n_max):
        checks.append(
            make_check(
                f"theta.quasi_periodicity.j{qp.j}",
                qp.passed,
                overlap=(qp.overlap_lo, qp.overlap_hi),
                terms_checked=qp.terms_checked,
                q_shift_doubled=qp.q_shift_doubled,
            )
        )
    base = theta_value(1, cfg.ell)
    scaling_ok = True
    exponents = []
    for j in range(1, ell_star + 1):
        tv = theta_value(j, cfg.ell)
        exponents.append(tv.q_exponent)
        if tv.q_exponent != j * j * base.q_exponent:
            scaling_ok = False
    checks.append(
        make_check(
            "theta.value_q_exponent_scaling",
            scaling_ok,
            ell=cfg.ell,
            q_exponents=tuple(exponents),
        )
    )
    for lr in check_theta_value_laurent_upto(min(ell_star, n_max - 1), 1, cfg.ell, n_max):
        checks.append(
            make_check(
                f"theta.value_laurent_ratio.j{lr.j}",
                lr.passed,
                s_exponent_gap=lr.s_exponent_gap,
                expected_gap=lr.expected_gap,
                coeff_relation_holds=lr.coeff_relation_holds,
            )
        )
    return checks


@_suite
def cmd_bound(cfg: RunConfig) -> list[CheckRecord]:
    """The strict size inequality at (ell, v_q), every identity step shown."""
    checks = []
    for step in main_bound_derivation(cfg.ell, cfg.v_q):
        if step.label == "strict_inequality":
            continue  # reported through the main comparison record below
        checks.append(make_check(f"bound.{step.label}", step.ok, value=step.value))
    report = main_bound_check(cfg.ell, cfg.v_q)
    if report.margin > 0:
        comparison = "lhs < rhs (strict)"
    elif report.margin == 0:
        comparison = "lhs == rhs (equality)"
    else:
        comparison = "lhs > rhs"
    checks.append(
        make_check(
            "bound.strict_inequality",
            report.passed,
            lhs_log=report.lhs_log,
            rhs_log=report.rhs_log,
            margin=report.margin,
            comparison=comparison,
        )
    )
    if report.passed:
        for c in (Fraction(1, 2), Fraction(1), Fraction(2)):
            contradiction = corollary_c_check(cfg.ell, cfg.v_q, c)
            checks.append(
                make_check(
                    f"bound.corollary_c_{c.numerator}_{c.denominator}",
                    contradiction == (c < 1),
                    c=c,
                    contradiction=contradiction,
                )
            )
    return checks


@_suite
def cmd_ansatz(cfg: RunConfig) -> list[CheckRecord]:
    """The witness square-power family: profiles, orbits, membership, sizes."""
    ell_star = (cfg.ell - 1) // 2
    if not _is_p_power(ell_star, cfg.p):
        raise ConfigError(
            f"the witness generator t^(1/{ell_star * ell_star}) needs ell* = {ell_star} to be a"
            f" power of p = {cfg.p}; choose p and ell accordingly"
        )
    point = make_ansatz(TiltElement.monomial(cfg.p, Fraction(1, ell_star * ell_star)), cfg.ell)
    profile = valuation_profile(point)
    checks = []
    expected_profile = tuple(Fraction(j * j, ell_star * ell_star) for j in range(1, ell_star + 1))
    checks.append(
        make_check(
            "ansatz.witness_profile_squares",
            profile == expected_profile,
            profile=profile,
        )
    )
    checks.append(make_check("ansatz.witness_top_normalized", profile[-1] == 1, top=profile[-1]))
    t_unit_val = eta_val(point.members[0], TiltElement.monomial(cfg.p, 1))
    checks.append(
        make_check(
            "ansatz.witness_untilt_gauge",
            t_unit_val == ell_star * ell_star,
            v_of_t_p_normalized=t_unit_val.as_fraction(),
        )
    )
    depth = cfg.frobenius_depth
    xi_val = theta_value(1, cfg.ell).q_exponent * cfg.v_q
    sample = theta_set_sample([point], xi_val, depth)
    # One generator: the lifts scale by p^n, so the sample's sort order is the orbit's n order.
    orbit = tuple(t.ansatz for t in sample.tuples)
    checks.append(
        make_check(
            "ansatz.orbit_membership",
            all(is_member(o.members) for o in orbit),
            orbit_size=len(orbit),
        )
    )
    scaling_ok = all(
        valuation_profile(o) == tuple(e * Fraction(cfg.p) ** n for e in profile)
        for n, o in zip(range(-depth, depth + 1), orbit)
    )
    checks.append(make_check("ansatz.orbit_profile_scaling", scaling_ok, depth=depth))
    t_mon = TiltElement.monomial(cfg.p, 1)
    bad_tail = PrimitiveDeg1(tilt_mul(tilt_pow(point.a, (ell_star + 1) ** 2), t_mon))
    tampered = (*point.members, bad_tail)
    checks.append(
        make_check(
            "ansatz.tampered_tuple_rejected",
            not is_member(tampered),
            tampered_length=len(tampered),
        )
    )
    unit = cfg.p - 1 if cfg.p > 2 else 1
    checks.append(
        make_check(
            "ansatz.scale_invariance",
            scale_invariance_check(point, lambda x: tilt_rescale_t(x, unit)),
            substitution_unit=unit,
        )
    )
    records = untilt_records(point, cfg.v_q, label="untilt")
    checks.append(
        make_check(
            "ansatz.untilt_records",
            len(records) == ell_star and all(r.tate_valuation == cfg.v_q * r.member_index**2 for r in records),
            records=tuple(f"{r.label}:{r.tate_valuation.numerator}/{r.tate_valuation.denominator}" for r in records),
        )
    )
    rho = RhoWeight.of(cfg.rho_weight)
    sums = tuple(sum_log_norms(pilot, rho) for pilot in sample.tuples)
    estimate = size_estimate(sample, rho)
    checks.append(
        make_check(
            "ansatz.sample_size_estimate",
            estimate == min(sums) and estimate > 0,
            sample_size=len(sample.tuples),
            log_size=estimate,
        )
    )
    boundary = size_estimate(sample, RhoWeight.one())
    checks.append(make_check("ansatz.boundary_cap_nonnegative", boundary >= 0, log_size_at_one=boundary))
    return checks


@_suite
def cmd_loglink(cfg: RunConfig) -> list[CheckRecord]:
    """Chain structure, epsilon thresholds, and exact log functional equations."""
    depth = cfg.frobenius_depth
    window = (-depth, depth)
    chain = chain_build(cfg.p, Fraction(1), window)
    checks = []
    ratios_ok = all(
        chain.value_at(n + 1) == cfg.p * chain.value_at(n) for n in range(window[0], window[1])
    )
    checks.append(
        make_check(
            "loglink.chain_ratio_is_p",
            ratios_ok,
            entries=tuple(value for _, value in chain.entries),
        )
    )
    growth_ok = all(
        chain.value_at(n) < chain.value_at(n + 1) for n in range(window[0], window[1])
    )
    checks.append(make_check("loglink.chain_strictly_increasing", growth_ok, window=window))
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
    checks.append(
        make_check(
            "loglink.m_of_epsilon_grid",
            minimal_ok,
            eps=eps_grid,
            m=tuple(ms),
        )
    )
    lo, hi = window
    telescoping = (
        kummer_shift(lo, 0) + kummer_shift(0, hi) == kummer_shift(lo, hi)
        and all(kummer_shift(n - 1, n) == 1 for n in range(lo + 1, hi + 1))
    )
    checks.append(make_check("loglink.kummer_shift_telescoping", telescoping, window=window))
    p, precision = cfg.p, cfg.padic_precision
    modulus = p**precision
    checks.append(
        make_check(
            "loglink.log_at_one_is_zero",
            padic_log(PadicUnit.of(p, precision, 1)) == 0,
            precision=precision,
        )
    )
    rng = random.Random(cfg.seed)
    trials = 100
    product_failures = 0
    for _ in range(trials):
        u = PadicUnit.random(rng, p, precision)
        w = PadicUnit.random(rng, p, precision)
        if padic_log(u.mul(w)) != (padic_log(u) + padic_log(w)) % modulus:
            product_failures += 1
    checks.append(
        make_check(
            "loglink.log_product_rule_trials",
            product_failures == 0,
            trials=trials,
            failures=product_failures,
        )
    )
    power_failures = 0
    for _ in range(trials):
        u = PadicUnit.random(rng, p, precision)
        if padic_log(u.pow(p)) != (p * padic_log(u)) % modulus:
            power_failures += 1
    checks.append(
        make_check(
            "loglink.log_p_power_rule_trials",
            power_failures == 0,
            trials=trials,
            failures=power_failures,
        )
    )
    return checks


@_suite
def cmd_sweep_ell(cfg: RunConfig) -> list[CheckRecord]:
    """Threshold behavior of the bound over all odd primes up to the limit."""
    checks = []
    report3 = main_bound_check(3, cfg.v_q)
    checks.append(
        make_check(
            "sweep.ell3_boundary_equality",
            (not report3.passed) and report3.lhs_log == report3.rhs_log == cfg.v_q / 6,
            lhs_log=report3.lhs_log,
            rhs_log=report3.rhs_log,
            diagnostic="lhs == rhs (equality)",
        )
    )
    failures = []
    primes = [ell for ell in _odd_primes_upto(cfg.ell_sweep_max) if ell != 3]
    last_margin = Fraction(0)
    for ell in primes:
        rep = main_bound_check(ell, cfg.v_q)
        last_margin = rep.margin
        if not rep.passed:
            failures.append(ell)
    checks.append(
        make_check(
            "sweep.all_primes_from_5_pass",
            not failures,
            primes_checked=len(primes),
            limit=cfg.ell_sweep_max,
            failures=tuple(failures),
            last_margin=last_margin,
        )
    )
    by_sweep = threshold_ell_by_sweep(cfg.ell_sweep_max)
    checks.append(make_check("sweep.threshold_by_sweep", by_sweep == 5, threshold=by_sweep))
    by_roots = threshold_ell_by_root_analysis(cfg.ell_sweep_max)
    checks.append(make_check("sweep.threshold_by_root_analysis", by_roots == 5, threshold=by_roots))
    checks.append(make_check("sweep.threshold_routes_agree", by_sweep == by_roots, threshold=by_sweep))
    return checks


def cmd_all(cfg: RunConfig) -> CombinedReport:
    """Every suite in order under one configuration."""
    started = time.perf_counter()
    suites = tuple(_command(name)(cfg) for name in _SUITES)
    return CombinedReport(suites=suites, config_echo=cfg.echo(), gauges=GAUGE_NOTES, wall_ms=_wall_ms(started))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltval",
        description="Exact verification suites for tilt valuations, theta identities, and log chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (*_SUITES.items(), ("all", "every suite in order")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON config file")
        sp.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
        sp.add_argument("--format", choices=_FORMATS, dest="fmt", help="report format")
        sp.add_argument("--seed", type=int, help="seed for randomized trials")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config).override(seed=args.seed, output_format=args.fmt)
        report = _command(args.command)(cfg)
    except (ConfigError, DomainError, PrecisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    rendered = render_report(report, cfg.output_format)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
