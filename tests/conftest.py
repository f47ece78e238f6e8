"""Shared deterministic generators for the test suite."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from tiltval.tilt import TiltElement


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
