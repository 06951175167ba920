"""The result records: immutable namedtuples, and what importing them costs."""

import os
import subprocess
import sys

import pytest

from absorder.order import full_poset
from absorder.signed import balanced_cycle, cycle_decomposition, from_cycles
from absorder.topology import HomologyProfile, homology, order_complex
from absorder.verify import ClaimResult

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps site hooks, which may import anything, out of the count
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import absorder.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code, SRC],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []


def test_an_unknown_cycle_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown cycle kind 'bogus'"):
        from_cycles([("bogus", (1, 2))], 2)


def test_cycles_and_decompositions_are_hashable_values():
    w = balanced_cycle((1, 2), 3)
    assert cycle_decomposition(w) == cycle_decomposition(w)
    assert hash(cycle_decomposition(w)) == hash(cycle_decomposition(w))
    assert len({cycle_decomposition(w), cycle_decomposition(w)}) == 1
    assert cycle_decomposition(w) == (("balanced", (1, 2)),)


def test_homology_profile_equality_compares_torsion():
    assert HomologyProfile((0, 1), {1: [2]}) != HomologyProfile((0, 1))
    assert not HomologyProfile((0, 1), {1: [2]}) == HomologyProfile((0, 1))
    assert HomologyProfile((0, 1), {1: [2]}) == HomologyProfile((0, 1), {1: [2]})
    assert HomologyProfile((0, 1)) == HomologyProfile((0, 1), {})
    assert HomologyProfile((0, 1)) != HomologyProfile((1, 0))
    with pytest.raises(TypeError):
        hash(HomologyProfile((0, 1)))


def test_homology_profiles_share_no_torsion_dict():
    assert HomologyProfile(()).torsion is not HomologyProfile(()).torsion
    a = homology(order_complex(full_poset("B", 2), "endpoints"))
    b = homology(order_complex(full_poset("S", 3), "endpoints"))
    assert a.torsion is not b.torsion


def test_claim_results_are_immutable():
    result = ClaimResult("c", "s", {"n": 1}, "4", "4")
    with pytest.raises(AttributeError):
        result.computed = "5"
    assert result._replace(computed="5").computed == "5"
    assert result.computed == "4"
