"""Kernel mutants: each mutant of a fast kernel or its decode fails the kernel's oracle test and a family built on it.

A row names a mutant, the patch that makes it and a family (generator, ell) that the mutant must
break.  Under the patch, the differential test against the kernel's oracle must fail, and so must
the square-power checks of the family, built before the patch: ``is_member`` refuses it, and
``frobenius_orbit`` raises VerificationError.
"""

from fractions import Fraction
from typing import Callable, NamedTuple

import pytest
from conftest import source_patch
from test_tilt import assert_powers_match_the_dict_oracle

from tiltval import tilt
from tiltval.ansatz import frobenius_orbit, is_member, make_ansatz
from tiltval.errors import VerificationError
from tiltval.tilt import TiltElement, _packing

# The primes whose power tables can be byte-packed: (span + 1) * (p - 1)^2 <= 255 needs p <= 11.
PACKED_PRIMES = (2, 3, 5, 7, 11)


class Mutant(NamedTuple):
    name: str
    patch: Callable
    family: tuple[dict, int, int]  # (p, generator terms, ell)

    def apply(self, monkeypatch):
        """Patch, then empty the power-table cache: a mutant process never holds a table the correct kernel built."""
        self.patch(monkeypatch)
        tilt._powers.cache_clear()


def _residue_of_p_is_one(monkeypatch):
    # Slot sums equal to p, as 1 + 1 over F_2, no longer reduce to 0.
    tables = {p: bytes([1 if v == p else v % p for v in range(256)]) for p in PACKED_PRIMES}
    monkeypatch.setattr(tilt, "_RESIDUES", tables)


_PHI = "got = bytearray(p * (len(h) - 1) + 1)\n                    got[::p] = h"
_PHI_P_MINUS_1 = "got = bytearray((p - 1) * (len(h) - 1) + 1)\n                    got[::p - 1] = h"

MUTANTS = [
    # a^25 over F_2 reads a^3 = phi(b) * b, whose slots 2 and 4 each sum two products.
    Mutant("mod_table_one_residue_off", _residue_of_p_is_one, (2, {Fraction(1, 2): 1, 1: 1, Fraction(3, 2): 1}, 11)),
    Mutant("phi_spread_by_p_minus_1", source_patch(tilt, "_table", _PHI, _PHI_P_MINUS_1),
           (3, {Fraction(1, 3): 1, Fraction(2, 3): 2}, 7)),
    # 16 slots of 4 over F_5: b^2 sums 16 products of 16 in its middle slot, 256, which carries.
    Mutant("bound_admits_256", lambda monkeypatch: monkeypatch.setattr(tilt, "_SLOT_MAX", 256),
           (5, {Fraction(m, 5): 4 for m in range(1, 17)}, 7)),
    # The one decode that make_ansatz and the checks share reads every power past a itself one slot high.
    Mutant("decode_off_by_one_slot",
           source_patch(tilt, "_powers", "base = k * m0", "base = k * m0 + (g if k > 1 else 0)"),
           (2, {Fraction(1, 2): 1, 1: 1}, 5)),
]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_a_packed_kernel_mutant_fails_the_differential_test(monkeypatch, mutant):
    mutant.apply(monkeypatch)
    with pytest.raises(AssertionError):
        assert_powers_match_the_dict_oracle(PACKED_PRIMES)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_a_packed_kernel_mutant_fails_a_family(monkeypatch, mutant):
    p, terms, ell = mutant.family
    point = make_ansatz(TiltElement.from_terms(p, terms), ell)
    assert is_member(point.members) and len(frobenius_orbit(point, (-1, 1))) == 3
    mutant.apply(monkeypatch)
    assert _packing(point.a.nums, p) is not None  # the family's table is packed under the mutant
    assert not is_member(point.members)
    with pytest.raises(VerificationError, match="left the ansatz"):
        frobenius_orbit(point, (-1, 1))
