"""Every ansatz witness against the paper's closed forms, read from the CLI's own json.

The CLI runs as a subprocess on the defaults, wide and F_3 configs.  The config is read back from the
report's echo, and each witness is derived from it in plain int/Fraction arithmetic, with nothing
imported from tiltval: the witness generator is a = t^(1/ell*^2), so v(a^(j^2)) = j^2/ell*^2, and the
sample's lifts scale by p^n over the orbit n = -depth..depth.  A kernel that moves a witness while its
check still passes fails here.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import CONFIGS, env_with_src


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


@pytest.mark.parametrize("config", ("defaults", "wide", "f3"))
def test_every_ansatz_witness_is_its_closed_form(tmp_path, config):
    path = tmp_path / "c.json"
    path.write_text(CONFIGS[config], encoding="utf-8")
    argv = [sys.executable, "-m", "tiltval", "all", "--format", "json", "--config", str(path)]
    result = subprocess.run(argv, env=env_with_src(), capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    report = json.loads(result.stdout)
    (suite,) = [suite for suite in report["suites"] if suite["suite"] == "ansatz"]
    witnesses = {check["id"]: {key: _value(v) for key, v in check["witness"].items()} for check in suite["checks"]}
    assert witnesses == _expected(report["config"])
