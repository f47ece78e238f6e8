"""Report pins: the sha256 of every json and csv report on a fixed set of runs, and cold refusals.

This module is the one place that holds the report digests of the test suite; perfbench/expected.json
pins the benchmark's own.  A report byte change is a change of its own: it re-pins here and in
perfbench/expected.json, after each changed witness has been checked by hand.  Every Python version
that runs the suite checks the same pins, so the reports are also byte-identical across versions.
"""

import hashlib
import re
import subprocess
import sys
from typing import NamedTuple

import pytest
from conftest import CONFIGS, env_with_src, run_cli, write_config


class Pin(NamedTuple):
    name: str
    command: str
    config: str | None  # None runs the command on the defaults, with no config file
    code: int
    json: str
    csv: str


PINS = (
    # The defaults.
    Pin(
        "default", "all", None, 0,
        "7c094c69eca0be25a7fb9b59c7456bd1d62d2b3ae10ebff32a14d47e31b6a049",
        "ae1a27565220ebaefc5458ab513313d20558bec2ca32cdc7ed3caa38cf7d36d2",
    ),
    # Wide ell = 2p + 1 with theta_truncation = p.
    Pin(
        "wide", "all", CONFIGS["wide"], 0,
        "65cd25770e4226b167268b0823d4384f221f547a69db16b63c5070c32b764a7a",
        "eafd440e92999adbbd9ff92e3f77dcb61de538d23a7435c870a763955b3b11f6",
    ),
    # Deep precision: padic_precision 96 and a sweep to 1500.
    Pin(
        "deep", "all", '{"p": 3, "ell": 7, "padic_precision": 96, "ell_sweep_max": 1500}', 0,
        "28d90ffaa8e3d0cf20599b9dabe02aa3edbb11f0339a3787c789fec8f2dfde00",
        "7213e01e00248bca09afb75ab421a862bff1388b34bda1678aa4edd83428d36c",
    ),
    # F_3: negative Frobenius exponents, and lifts whose denominator is not 1.
    Pin(
        "f3", "all", CONFIGS["f3"], 0,
        "47a7ea2904449b4211d878175c8aede5851724b8e2eacfc9cde0972e4d2a4349",
        "a53272d269f28ac3e572610e8e5b5b84758202f8208cea7502b417e2573d8e7f",
    ),
    # A loglink Kummer-shift edge: a depth past N - v.
    Pin(
        "kdepth", "all", '{"frobenius_depth": 20}', 0,
        "89a541b14b4c0918b650bb0146d0db1547de21cb981302dc9ef10dd155d1605f",
        "679059d46aeccfe75384b3cfd9d582c8f736513c3fc4a22324f33c4485d309a5",
    ),
    # The other Kummer-shift edge: a precision where only n = 0 fits.
    Pin(
        "kedge", "all", '{"p": 2, "ell": 5, "frobenius_depth": 0, "padic_precision": 3}', 0,
        "296755656ac35e3046f6524d386bf94ee9d97aa9054c46ce13eb8f3676bd8af3",
        "6889c1674977871d7472a655f64ffe124b59faf0924fc1d6c63af06f47d0ea35",
    ),
    # Wide-ell's top stratum p = 53, where the log plan reduces no argument (m = 0).
    Pin(
        "wide53", "all", '{"p": 53, "ell": 107, "theta_truncation": 53}', 0,
        "f0f4858ab45cb93c8583ac1d11a232cba9e522199b2c514b596eadc7bfa570c2",
        "9d7fc817b032fa6b8ea46f95cf5e506a9fad4e989ce91dc6e0be307dc23cbe51",
    ),
    # A one-point orbit over F_3: frobenius_depth 0, where phi^0 returns its argument.
    Pin(
        "f3d0", "all", '{"p": 3, "ell": 19, "frobenius_depth": 0}', 0,
        "a6b2cd0e9339bce343bc40edf2716bea61dcad284ddc41b38c608b93865408d1",
        "64d64b279a7211feed6edc644a44ac99b8cb02e0be30b432c65521dde1962818",
    ),
    # p = 5 at padic_precision 80, where the log plan holds its largest digit table (125 powers).
    Pin(
        "table125", "all", '{"p": 5, "ell": 11, "padic_precision": 80, "ell_sweep_max": 500}', 0,
        "3336e89ef6cabe33d157bfa987b63d959c5babee999f26737d9368b76fee4ffe",
        "9d2c7abe47f92b2b95037d0e91b3e92388bcc2abc4ba63da2c2efa7f2a4276c5",
    ),
    # p = 131: p > 128 leaves the log plan no digit table (b = 0).
    Pin(
        "wide131", "all", '{"p": 131, "ell": 263, "theta_truncation": 131}', 0,
        "1dc05d33822f32e7b6a276e936d477ca25f1e7ce70ee3dc2217afc157c4f3ff2",
        "5ce6726b74cc2a505ec6b9d24d91baa7ce23e95d653cb093189a2395430160e1",
    ),
    # A large-ell verify-theta run.
    Pin(
        "theta", "verify-theta", '{"ell": 211, "theta_truncation": 105}', 0,
        "5e1103e715174ea0b6535fcb5eb6e10109ece35b4a80023c24b6c0ba0c1be1e4",
        "8222cca9b7e80ddb4126b35e4ee994c6b580853b81729340a4b355ca3256052a",
    ),
    # A large-ell bound run with v_q != 1.
    Pin(
        "bound", "bound", '{"ell": 1000003, "v_q": "7/3"}', 0,
        "6e7742e3f8e76580d47f669bd714e8ed1a4641d36c900a8ff51306fa5a74732c",
        "493a9bd871222ed5db7d848a2333b8070fcf8db8efc4f7af4245c85afdc66c94",
    ),
    # The ansatz suite alone at the defaults.
    Pin(
        "ansatz", "ansatz", None, 0,
        "b7f8424ca65071c7e80797d99efc22a0d5490ca4f5e043348baab8b1bca492a1",
        "ea4fd1adeed05ebce09736eb7e3ee865716d6e72753bc6a4cc5ad4fe23a9e0c1",
    ),
    # The loglink suite alone at the defaults.
    Pin(
        "loglink", "loglink", None, 0,
        "988366de7a42a686a36831c58113edcf1d1fb83c14e3399a8b856b7420f787ba",
        "2276c69b4cd6c822dfec0929b92911156a67684841b31f07d4f445dc50d3df34",
    ),
    # The sweep-ell suite alone at the defaults.
    Pin(
        "sweep", "sweep-ell", None, 0,
        "40851105ddb6ab7fed6700bb8b0bdb399e2b4d3ae13e428df361472e2cfd7924",
        "682027ed270ce41d525e5806e592cac2568555b23b1b602aca5370e7b10b88a2",
    ),
    # ell = 3, the equality prime: its report fails, and its run alone exits 1.
    Pin(
        "ell3", "all", CONFIGS["ell3"], 1,
        "9a11e019dff72858de24564ef596924c498208560e14acc9e36d65a111415e60",
        "59f160861d75f66bc4623e6432679278bf4a427ec512dbb8af183fd35c6fb126",
    ),
    # The smallest window: theta_truncation 1 at ell* = 1, so n_max = 1, overlap (0, 0), one term checked.
    Pin(
        "floor", "verify-theta", '{"ell": 3, "theta_truncation": 1}', 0,
        "a9f20dde3f10c1f6a76aab8761e147bfb1c9ec2b4c6a480c955683a1936ba18a",
        "7b6a223dc3470fa5c80aaa36f46bfe3521691eebfee587592aa8ef44e4adb327",
    ),
)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("pin", PINS, ids=[pin.name for pin in PINS])
def test_report_bytes_are_pinned(tmp_path, capsys, pin, fmt):
    report = tmp_path / f"{pin.name}.{fmt}"
    config = [] if pin.config is None else ["--config", write_config(tmp_path, "c.json", pin.config)]
    code, out, err = run_cli(capsys, pin.command, "--format", fmt, *config, "--output", str(report))
    assert (code, out, err) == (pin.code, "", ""), f"{pin.name} {fmt}"
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    pinned = getattr(pin, fmt)
    assert digest == pinned, f"{pin.name} {fmt}: got {digest}, pinned {pinned}"


# Refused in a fresh process, as the benchmark's cold-mix workload runs a config, where no other test has
# imported a module yet.  The int-string limit (4,300 digits since 3.10.7 and 3.11) is interpreter
# behaviour, so a number past it, bare or inside a rational, is refused cold on every version; so is a
# config whose report would render one (the chain entry 29^3000, or v_q / 6 at a 4,299-digit denominator).
_REFUSED = [
    pytest.param('{"ell": 4}', id="ell4"),
    pytest.param('{"v_q": 0.5}', id="float"),
    pytest.param('{"colour": 1}', id="unknown-key"),
    pytest.param('{"ell": 11, "p": 3}', id="generator"),
    pytest.param('{"p": ' + "1" * 5000 + "}", id="long-int"),
    pytest.param('{"v_q": "1/' + "1" * 5000 + '"}', id="long-rational"),
    pytest.param('{"p": 29, "frobenius_depth": 3000}', id="deep-chain"),
    pytest.param('{"v_q": "1/' + "9" * 4299 + '"}', id="long-denominator"),
    pytest.param('{"ell": 17, "theta_truncation": 5}', id="window"),  # refused by verify-theta, inside `all`
    pytest.param('{"padic_precision": 2}', id="precision"),  # below the floor 3 for p = 2
]


@pytest.mark.parametrize("payload", _REFUSED)
def test_a_cold_refusal_exits_two_with_one_error_line(tmp_path, payload):
    report = tmp_path / "report.json"
    argv = ["all", "--format", "json", "--config", write_config(tmp_path, "c.json", payload), "--output", str(report)]
    result = subprocess.run(
        [sys.executable, "-m", "tiltval", *argv],
        env=env_with_src(),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, ""), result.stderr
    assert re.fullmatch(r"error: [^\n]*\n", result.stderr), result.stderr
    assert not report.exists()
