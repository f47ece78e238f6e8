"""Shared deterministic generators and CLI helpers for the test suite."""

import copy
import inspect
import os
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tiltval
from tiltval.cli import main
from tiltval.tilt import TiltElement, _powers, tilt_pow

# The canonical configs: the defaults; wide ell = 2p + 1 with theta_truncation = p; F_3, with negative
# Frobenius exponents and lifts whose denominator is not 1; and ell = 3, the equality prime, whose
# report fails.
CONFIGS = {
    "defaults": "{}",
    "wide": '{"p": 29, "ell": 59, "theta_truncation": 29}',
    "f3": '{"p": 3, "ell": 19, "frobenius_depth": 5, "v_q": "7/3", "rho_weight": "7/3"}',
    "ell3": '{"ell": 3}',
}


@pytest.fixture(autouse=True)
def empty_power_cache():
    """Each test starts with an empty power-table cache, so none reads a table that another test built."""
    _powers.cache_clear()


def fresh_pow(x: TiltElement, k: int) -> TiltElement:
    """tilt_pow(x, k) from a table of its own, filled for k alone, as if no call had cached one."""
    _powers.cache_clear()
    return tilt_pow(x, k)


def random_monomial(rng: random.Random, p: int, max_num: int = 48, max_pow: int = 4) -> TiltElement:
    """A nonzero monomial c * t^(num / p^k) with positive valuation."""
    num = rng.randint(1, max_num)
    den = p ** rng.randint(0, max_pow)
    coeff = rng.randint(1, p - 1)
    return TiltElement.monomial(p, Fraction(num, den), coeff)


def random_element(rng: random.Random, p: int, max_terms: int = 4) -> TiltElement:
    """A random element with up to max_terms monomials; may be zero."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        num = rng.randint(0, 40)
        den = p ** rng.randint(0, 3)
        terms[Fraction(num, den)] = rng.randint(0, p - 1)
    return TiltElement.from_terms(p, terms)


def assert_immutable_value(make) -> None:
    """Two records built by make() behave as one immutable value.

    They compare and hash equal; every field refuses assignment and
    deletion, and no new attribute can be added; copies and pickles
    rebuild an equal record through the validating constructor.
    """
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    for name in type(first).__slots__:
        with pytest.raises(AttributeError):
            setattr(first, name, getattr(second, name))
        with pytest.raises(AttributeError):
            delattr(first, name)
    with pytest.raises(AttributeError):
        first.not_a_field = 1
    assert first == second
    assert copy.copy(first) == copy.deepcopy(first) == first
    assert pickle.loads(pickle.dumps(first)) == first


def env_with_src() -> dict:
    """The environment for a fresh interpreter that imports this tiltval."""
    src = str(Path(tiltval.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, payload: str):
    path = tmp_path / name
    path.write_text(payload, encoding="utf-8")
    return str(path)


def replace_everywhere(monkeypatch, func, replacement):
    """Replace func under every name a tiltval module binds it to."""
    for name, module in list(sys.modules.items()):
        if name == "tiltval" or name.startswith("tiltval."):
            for key, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, key, replacement)


def source_patch(module, name, original, mutated):
    """A patch(monkeypatch) that replaces module.name by its source recompiled with original reading mutated."""

    def patch(monkeypatch):
        source = inspect.getsource(getattr(module, name))
        assert original in source
        namespace = dict(vars(module))
        exec(compile(source.replace(original, mutated), module.__file__, "exec"), namespace)
        monkeypatch.setattr(module, name, namespace[name])

    return patch
