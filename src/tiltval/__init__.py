"""Exact-arithmetic verification of valuation identities over a tilt model.

Everything here computes with Python ints and Fractions; there is no
float anywhere and no tolerance parameter on any check.  Import from the
submodules:

    tilt      characteristic-p valuation model and Frobenius
    witt      Teichmuller-style presentations, Gauss log-norms, degree-one primes
    theta     truncated theta series, its identities, symbolic special values
    ansatz    square-power families, membership, Frobenius orbits
    pilot     lifted tuples, size functionals, the strict inequality engine
    loglink   p-adic logarithm, valuation chains, epsilon thresholds
    cli       configured suites with deterministic reports
"""

# The benchmark self-test (perfbench/selftest.py) checks that its tracer
# patches tilt_pow in every tiltval namespace, this one included.
from .tilt import tilt_pow  # noqa: F401

__version__ = "0.1.0"
