"""Reach: every src function is entered by a passing `all` run, or is listed with its reason."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

from conftest import env_with_src

import tiltval

# Records every code object entered from here on; dump() writes those of the package to the
# file named by argv[1].
_HOOK = r"""
import json, os, sys

entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

def dump():
    sys.setprofile(None)
    import tiltval
    home = os.path.dirname(os.path.abspath(tiltval.__file__))
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(
            [[os.path.basename(c.co_filename), c.co_firstlineno, c.co_name]
             for c in entered if os.path.dirname(os.path.abspath(c.co_filename)) == home],
            handle,
        )

sys.setprofile(hook)
"""

# The trace starts before `import tiltval.cli`, so code that runs only at import (the record
# metaclass, the suite decorator) counts as entered.  Each run must pass.
_TRACE = _HOOK + r"""
from tiltval import cli

for config in sys.argv[2:]:
    for fmt in ("json", "csv", "text"):
        argv = ["all", "--format", fmt, "--output", os.devnull] + (["--config", config] if config else [])
        if cli.main(argv) != 0:
            raise SystemExit(f"{argv} did not pass")
dump()
"""

# The acceptance gate, argv[2], under the same hook, which is set before `import pytest`.
_GATE_TRACE = _HOOK + r"""
import pytest

code = pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[2]])
if code != 0:
    raise SystemExit(f"the gate did not pass: pytest exit {code}")
dump()
"""

# The defaults, CI's wide config and CI's F_3 config.
_CONFIGS = (
    None,
    '{"p": 29, "ell": 59, "theta_truncation": 29}',
    '{"p": 3, "ell": 19, "frobenius_depth": 5, "v_q": "7/3", "rho_weight": "7/3"}',
)

_GATE = "gate API: tests/test_acceptance.py calls it, or reaches it through a gate API"
_CONSTRUCTOR = "validating public constructor: the CLI gets these records from kernels that build through _trusted"
_TRACED = "benchmark trace target: perfbench/tracer.py wraps it as theta.cyclo_mul; the theta tests check it"
_VALUE = "frozen-value protocol of every record (equality, hash, repr, copying, refused writes): tests and gate use it"
_REFUSAL = "refusal path: only a config that exits 2 enters it"
_MULTI_TERM = "multi-term generator path: the CLI's witness is one term; the generator-family benchmark runs it"

# Functions no passing `all` run enters, each with its reason.  The table may only shrink.
UNREACHED = {
    "_record.Record.__delattr__": _VALUE,
    "_record.Record.__eq__": _VALUE,
    "_record.Record.__hash__": _VALUE,
    "_record.Record.__reduce__": _VALUE,
    "_record.Record.__repr__": _VALUE,
    "_record.Record.__setattr__": _VALUE,
    "_record.Record._values": _VALUE,
    "ansatz.AnsatzPoint.__init__": _CONSTRUCTOR,
    "cli._reject_float": _REFUSAL,
    "loglink.LogLinkChain.__init__": _CONSTRUCTOR,
    "loglink.PadicUnit.random": _GATE,
    "pilot.PilotTuple.__init__": _CONSTRUCTOR,
    "pilot.threshold_ell": _GATE,
    "theta.CycloElt.__mul__": _TRACED,
    "theta.ThetaValue.__init__": _CONSTRUCTOR,
    "theta.check_quasi_periodicity": _GATE,
    "theta.check_theta_value_laurent": _GATE,
    "tilt.TiltElement.__init__": _CONSTRUCTOR,
    "tilt.TiltElement.support": _GATE,
    "tilt._table": _MULTI_TERM,
    "tilt._table.power": _MULTI_TERM,
    "witt.RhoWeight.weight": _GATE,
    "witt.WittExpr.__init__": _GATE,
    "witt.WittExpr.is_zero": _GATE,
    "witt.gauss_log_norm": _GATE,
    "witt.teichmuller": _GATE,
}


def _src_functions(home: Path) -> dict:
    """(file name, first line, name) -> qualified name, for every def in the package.

    A decorated function's code starts at its first decorator, so that line keys it.
    """
    functions = {}

    def walk(node, file_name, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    functions[(file_name, first, child.name)] = name
                walk(child, file_name, name)
            else:
                walk(child, file_name, prefix)

    for path in sorted(home.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.name, path.stem)
    return functions


def _trace(tmp_path, script, *args) -> tuple[set, set]:
    """Run a trace script in a fresh interpreter; (reached, unreached) src functions by qualified name."""
    out = tmp_path / "entered.json"
    result = subprocess.run(
        [sys.executable, "-c", script, str(out), *args], env=env_with_src(), capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr
    entered = {tuple(key) for key in json.loads(out.read_text(encoding="utf-8"))}
    functions = _src_functions(Path(tiltval.__file__).resolve().parent)
    reached = {name for key, name in functions.items() if key in entered}
    return reached, {name for key, name in functions.items() if key not in entered}


def test_every_unreached_function_has_a_reason(tmp_path):
    configs = []
    for i, payload in enumerate(_CONFIGS):
        if payload is None:
            configs.append("")
            continue
        path = tmp_path / f"config{i}.json"
        path.write_text(payload, encoding="utf-8")
        configs.append(str(path))
    _, unreached = _trace(tmp_path, _TRACE, *configs)
    assert not unreached - set(UNREACHED), "newly unreached: give each a reason or delete it"
    assert not set(UNREACHED) - unreached, "now reached or gone: drop it from UNREACHED"


def test_the_gate_enters_every_gate_api_function(tmp_path):
    reached, _ = _trace(tmp_path, _GATE_TRACE, str(Path(__file__).resolve().parent / "test_acceptance.py"))
    missed = sorted(name for name, reason in UNREACHED.items() if reason == _GATE and name not in reached)
    assert not missed, f"listed as gate API, but the gate never enters {missed}"


def test_every_exported_name_resolves():
    # A deletion that leaves its name in __all__ breaks `from tiltval.<module> import *`.
    for path in sorted(Path(tiltval.__file__).resolve().parent.glob("*.py")):
        if path.stem.startswith("__"):  # the package and `python -m tiltval`, which runs the CLI on import
            continue
        module = importlib.import_module(f"tiltval.{path.stem}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"tiltval.{path.stem}.__all__ lists {missing}, which the module does not define"


# A src raise names one of the two types the CLI maps to an exit status, DomainError (exit 2)
# or VerificationError (exit 1), or is listed here, keyed by module, top-level definition and type.
_PROTOCOL = "record value protocol: a bad signature or a write raises what a Python class raises"
ALLOWED_RAISES = {
    ("_record", "_RecordMeta", "TypeError"): "a record class declared wrongly: fails at import, before any input",
    ("_record", "Record", "TypeError"): _PROTOCOL,
    ("_record", "Record", "ValueError"): "_trusted or _assign given too few or too many values: a caller's bug",
    ("_record", "Record", "AttributeError"): _PROTOCOL,
    ("reporting", "format_exact", "TypeError"): "a witness with no exact rendering, a float first: a caller's bug",
}
_EXIT_TYPES = {"DomainError", "VerificationError"}


def _raises(tree: ast.Module):
    """(top-level definition, raised type name) per raise; a bare raise names the types its handler catches."""
    for top in tree.body:
        handlers = [node for node in ast.walk(top) if isinstance(node, ast.ExceptHandler)]
        for node in ast.walk(top):
            if not isinstance(node, ast.Raise):
                continue
            if node.exc is None:
                handler = [h for h in handlers if any(node is inner for inner in ast.walk(h))][-1]  # the innermost
                caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
                names = [ast.unparse(kind) for kind in caught]
            else:
                names = [ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)]
            for name in names:
                yield top.name, name


def test_every_raise_names_an_exit_type_or_is_listed():
    seen, stray = set(), []
    for path in sorted(Path(tiltval.__file__).resolve().parent.glob("*.py")):
        for top, name in _raises(ast.parse(path.read_text(encoding="utf-8"))):
            if name in _EXIT_TYPES:
                continue
            seen.add((path.stem, top, name))
            if (path.stem, top, name) not in ALLOWED_RAISES:
                stray.append(f"{path.stem}.{top} raises {name}")
    assert not stray, f"raise DomainError or VerificationError, or list the raise with its reason: {stray}"
    assert not set(ALLOWED_RAISES) - seen, "no longer raised: drop it from ALLOWED_RAISES"
