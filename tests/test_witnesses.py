"""Every theta, ansatz, bound, sweep and loglink witness against the paper's closed forms, from the CLI's own json.

The CLI runs as a subprocess on the defaults, wide and F_3 configs.  The config is read back from the
report's echo, and each witness is derived from it in plain int/Fraction arithmetic, with nothing
imported from tiltval: the witness generator is a = t^(1/ell*^2), so v(a^(j^2)) = j^2/ell*^2, and the
sample's lifts scale by p^n over the orbit n = -depth..depth.  The bound's sides and margin are
closed forms in ell, and the sweep's primes are counted by trial division.  The log chain has v0 = 1,
so its entries are p^n, and each m(eps) is the least m with p^-m < eps.  The theta witnesses are the window
formulas of the truncated series, each shift's j range read from the config.  A kernel that moves a witness
while its check still passes fails here.
"""

import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from functools import cache
from math import isqrt
from pathlib import Path

import pytest
from conftest import CONFIGS, env_with_src


@cache
def _report(config):
    """The `all --format json` report of a canonical config, run once per config."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(CONFIGS[config], encoding="utf-8")
        argv = [sys.executable, "-m", "tiltval", "all", "--format", "json", "--config", str(path)]
        result = subprocess.run(argv, env=env_with_src(), capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    return json.loads(result.stdout)


def _witnesses(report, suites):
    """Check id -> witness, as the report's strings, for the named suites."""
    return {check["id"]: check["witness"] for suite in report["suites"] if suite["suite"] in suites
            for check in suite["checks"]}


def _expected(cfg):
    """Check id -> {witness key: value} for the ansatz suite of the config cfg (the report's echo)."""
    p, ell, depth, v_q = int(cfg["p"]), int(cfg["ell"]), int(cfg["frobenius_depth"]), Fraction(cfg["v_q"])
    ls = (ell - 1) // 2
    js = range(1, ls + 1)
    # the least summed log-norm, the n = -depth pilot's: sum_j j^2 * v_q / (2 ell * ell*^2) * p^-depth
    log_size = v_q * (ls + 1) / (12 * ls) / Fraction(p) ** depth
    return {
        "ansatz.witness_profile_squares": {"profile": [Fraction(j * j, ls * ls) for j in js]},
        "ansatz.witness_top_normalized": {"top": 1},
        "ansatz.witness_untilt_gauge": {"v_of_t_p_normalized": ls * ls},
        "ansatz.orbit_membership": {"orbit_size": 2 * depth + 1},
        "ansatz.orbit_profile_scaling": {"depth": depth},
        "ansatz.tampered_tuple_rejected": {"tampered_length": ls + 1},
        "ansatz.scale_invariance": {"substitution_unit": p - 1},  # the only unit over F_2 is 1
        "ansatz.untilt_records": {"records": [(f"untilt.{j}", v_q * j * j) for j in js]},
        "ansatz.sample_size_estimate": {"sample_size": 2 * depth + 1, "log_size": log_size},
        "ansatz.boundary_cap_nonnegative": {"log_size_at_one": log_size},  # the lifts sit in slot zero
    }


def _value(text):
    """A witness string as a value: "(a, b)" a list, "label:v" a (label, Fraction) pair, else a Fraction."""
    if text.startswith("(") and text.endswith(")"):
        return [_value(item) for item in text[1:-1].split(", ")]
    if ":" in text:
        label, value = text.split(":")
        return label, Fraction(value)
    return Fraction(text)


def _q(x):
    """A rational as the report writes it: n/d, with d = 1 kept."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _margin(ell, v_q):
    """rhs - lhs of the size bound, in factored form: v_q (2 ell - 1)(ell - 3) / (12 ell (ell - 1))."""
    return v_q * (2 * ell - 1) * (ell - 3) / (12 * ell * (ell - 1))


def _expected_bound_and_sweep(cfg):
    """Check id -> {witness key: string} for the bound and sweep suites of the config cfg (the report's echo)."""
    ell, v_q, limit = int(cfg["ell"]), Fraction(cfg["v_q"]), int(cfg["ell_sweep_max"])
    ls = (ell - 1) // 2
    lhs = v_q * (ell + 1) / (12 * (ell - 1))  # (1/12)(1 + 1/ell*) v_q
    rhs = v_q * (ell - 1) / (4 * ell)
    margin = _margin(ell, v_q)
    assert rhs - lhs == margin > 0  # every canonical config lies past the threshold
    primes = [n for n in range(5, limit + 1) if _is_prime(n)]
    sides = {"lhs_log": _q(v_q / 6), "rhs_log": _q(v_q / 6)}  # at ell = 3: ell* = 1, lhs = rhs = v_q / 6
    return {
        "bound.square_sum_closed_form": {"value": _q(ls * (ls + 1) * (2 * ls + 1) // 6)},  # Faulhaber
        "bound.lhs_termwise": {"value": _q(lhs)},
        "bound.lhs_closed_form": {"value": _q(lhs)},
        "bound.rhs_product_form": {"value": _q(rhs)},
        "bound.rhs_ratio_form": {"value": _q(rhs)},
        "bound.margin": {"value": _q(margin)},
        "bound.margin_factored": {"value": _q(margin)},
        "bound.strict_inequality": {
            "lhs_log": _q(lhs), "rhs_log": _q(rhs), "margin": _q(margin), "comparison": "lhs < rhs (strict)",
        },
        **{f"bound.corollary_c_{c.numerator}_{c.denominator}": {"c": _q(c), "contradiction": str(c < 1).lower()}
           for c in (Fraction(1, 2), Fraction(1), Fraction(2))},
        "sweep.ell3_boundary_equality": {**sides, "diagnostic": "lhs == rhs (equality)"},
        "sweep.all_primes_from_5_pass": {
            "primes_checked": str(len(primes)), "limit": str(limit), "failures": "()",
            "last_margin": _q(_margin(primes[-1], v_q)),
        },
        **{f"sweep.threshold_{route}": {"threshold": "5"}
           for route in ("by_sweep", "by_root_analysis", "routes_agree")},
    }


def _tuple(items):
    """A tuple as the report writes it."""
    return "(" + ", ".join(map(str, items)) + ")"


def _expected_loglink(cfg):
    """Check id -> {witness key: string} for the loglink suite of the config cfg (the report's echo)."""
    p, depth, precision = int(cfg["p"]), int(cfg["frobenius_depth"]), cfg["padic_precision"]
    window = _tuple((-depth, depth))
    eps = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 10))
    m = [next(m for m in range(64) if Fraction(1, p**m) < e) for e in eps]  # the least m with p^-m < eps
    trials = {"trials": "100", "failures": "0"}
    return {
        "loglink.chain_ratio_is_p": {"entries": _tuple(_q(Fraction(p) ** n) for n in range(-depth, depth + 1))},
        "loglink.chain_strictly_increasing": {"window": window},
        "loglink.m_of_epsilon_grid": {"eps": _tuple(map(_q, eps)), "m": _tuple(m)},
        "loglink.kummer_shift_telescoping": {"window": window},
        "loglink.log_at_one_is_zero": {"precision": precision},
        "loglink.log_product_rule_trials": trials,
        "loglink.log_p_power_rule_trials": trials,
    }


# Check id, with .j<k> folded, -> its witness at (ell, N, j), N = theta_truncation; j is None for an id
# reported once.  The shift identity at u -> q^(j/2) u compares term n with term n + j over the window
# n = -N + j .. N - j, and the special value's lowest s-exponent drops by j^2 from the base's.
THETA_WITNESSES = {
    "theta.inversion_antisymmetry": lambda ell, n, j: {
        "n_max": str(n), "pairs_matched": str(n), "boundary_terms": "1", "pairs_cancel_at_one": "true",
    },
    "theta.unsigned_control_fails_antisymmetry": lambda ell, n, j: {
        "n_max": str(n), "first_mismatch": "pair (0, -1): sign 1 is not -1",
    },
    "theta.quasi_periodicity": lambda ell, n, j: {
        "overlap": _tuple((-n + j, n - j)), "terms_checked": str(2 * (n - j) + 1), "q_shift_doubled": str(-j * j),
    },
    "theta.value_q_exponent_scaling": lambda ell, n, j: {
        "ell": str(ell), "q_exponents": _tuple(_q(Fraction(i * i, 2 * ell)) for i in range(1, (ell - 1) // 2 + 1)),
    },
    "theta.value_laurent_ratio": lambda ell, n, j: {
        "s_exponent_gap": str(-j * j), "expected_gap": str(-j * j), "coeff_relation_holds": "true",
    },
}


def _theta_steps(ell, n):
    """Folded id -> the shifts j it is reported at: every j to ell* = (ell - 1) / 2, and for the special value
    only those whose lowest indices -j and -j - 1 both lie in the window, j <= N - 1."""
    ls = (ell - 1) // 2
    return {"theta.quasi_periodicity": range(1, ls + 1), "theta.value_laurent_ratio": range(1, min(ls, n - 1) + 1)}


def _expected_theta(cfg):
    """Check id -> {witness key: string} for the theta suite of the config cfg (the report's echo)."""
    ell, n = int(cfg["ell"]), int(cfg["theta_truncation"])
    steps = _theta_steps(ell, n)
    return {f"{folded}.j{j}" if folded in steps else folded: witness(ell, n, j)
            for folded, witness in THETA_WITNESSES.items() for j in steps.get(folded, (None,))}


@pytest.mark.parametrize("config", ("defaults", "wide", "f3"))
def test_every_theta_witness_is_its_closed_form(config):
    report = _report(config)
    assert _witnesses(report, ("verify-theta",)) == _expected_theta(report["config"])


def test_the_theta_steps_come_from_the_config():
    # Wide (ell 59, N 29) reports the top shift j = 29 = ell* without its special value.
    steps = _theta_steps(59, 29)
    assert (len(steps["theta.quasi_periodicity"]), len(steps["theta.value_laurent_ratio"])) == (29, 28)
    assert [len(r) for r in _theta_steps(19, 12).values()] == [9, 9]
    assert [len(r) for r in _theta_steps(3, 1).values()] == [1, 0]


@pytest.mark.parametrize("config", ("defaults", "wide", "f3"))
def test_every_loglink_witness_is_its_closed_form(config):
    report = _report(config)
    assert _witnesses(report, ("loglink",)) == _expected_loglink(report["config"])


@pytest.mark.parametrize("config", ("defaults", "wide", "f3"))
def test_every_ansatz_witness_is_its_closed_form(config):
    report = _report(config)
    witnesses = {check_id: {key: _value(v) for key, v in witness.items()}
                 for check_id, witness in _witnesses(report, ("ansatz",)).items()}
    assert witnesses == _expected(report["config"])


@pytest.mark.parametrize("config", ("defaults", "wide", "f3"))
def test_every_bound_and_sweep_witness_is_its_closed_form(config):
    report = _report(config)
    assert _witnesses(report, ("bound", "sweep-ell")) == _expected_bound_and_sweep(report["config"])
