"""Shared deterministic generators for the test suite."""

import random
from fractions import Fraction

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
