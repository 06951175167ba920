"""Truncated power series arithmetic and the Euler-characteristic predictions."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from absorder import (
    FormalPowerSeries,
    ResourceGuardError,
    catalan_series,
    flip_exponential_identity_ok,
    predicted_chi_hyper,
    predicted_chi_sym,
)
from absorder.series import _convolve

SRC = str(Path(__file__).resolve().parents[1] / "src")
TESTS = str(Path(__file__).resolve().parent)


def test_series_arithmetic_basics():
    t = FormalPowerSeries.variable(5)
    one = FormalPowerSeries.constant(1, 5)
    geom = FormalPowerSeries([1] * 6, 5)
    assert (one - t) * geom == one
    assert (t + t).coefficient(1) == 2
    assert (3 * t).coefficient(1) == 3
    assert (-t).coefficient(1) == -1
    assert t.coefficient(3) == 0


def test_series_multiplication_truncates_to_shorter_order():
    a = FormalPowerSeries([1, 1], 1)
    b = FormalPowerSeries([1, 1, 1], 2)
    assert (a * b).order == 1


def test_series_error_cases():
    t = FormalPowerSeries.variable(4)
    with pytest.raises(ValueError):
        t.coefficient(5)
    with pytest.raises(ValueError):
        FormalPowerSeries.constant(1, 4).exp()
    with pytest.raises(ValueError):
        (FormalPowerSeries.constant(1, 4) + t).sqrt().agrees_with(t, 5)
    with pytest.raises(ValueError):
        (t + FormalPowerSeries.constant(2, 4)).sqrt()
    with pytest.raises(ValueError):
        FormalPowerSeries.constant(1, 4).shift_down()
    with pytest.raises(TypeError):
        t + 1


def test_exp_and_scale():
    t = FormalPowerSeries.variable(6)
    e = t.exp()
    for k in range(7):
        assert e.coefficient(k) == Fraction(1, [1, 1, 2, 6, 24, 120, 720][k])
    doubled = t.exp().scale_variable(2)
    assert doubled.coefficient(3) == Fraction(8, 6)


def test_sqrt_inverts_squaring():
    t = FormalPowerSeries.variable(8)
    s = (FormalPowerSeries.constant(1, 8) + 4 * t).sqrt()
    assert s * s == FormalPowerSeries.constant(1, 8) + 4 * t


def test_shift_down_divides_by_t():
    t = FormalPowerSeries.variable(5)
    shifted = (t * t + t * t * t).shift_down(2)
    assert shifted.coefficient(0) == 1
    assert shifted.coefficient(1) == 1
    assert shifted.order == 3


def test_catalan_series_satisfies_its_equation():
    c = catalan_series(10)
    t = FormalPowerSeries.variable(10)
    assert c == FormalPowerSeries.constant(1, 10) + t * c * c
    assert [int(c.coefficient(k)) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_predicted_plain_euler_values():
    assert predicted_chi_sym(8) == {
        1: -1, 2: 0, 3: -2, 4: 16, 5: -192, 6: 3008, 7: -58480, 8: 1360896,
    }


def test_predicted_signed_euler_values():
    assert predicted_chi_hyper(8) == {
        2: -3, 3: 48, 4: -1105, 5: 33592, 6: -1276451, 7: 58353320,
        8: -3122111105,
    }


def test_prediction_guard():
    with pytest.raises(ResourceGuardError):
        predicted_chi_sym(21)
    with pytest.raises(ResourceGuardError):
        predicted_chi_hyper(21)


def test_flip_exponential_identity():
    assert flip_exponential_identity_ok()
    assert flip_exponential_identity_ok(order=6)


def test_convolve_matches_the_double_loop():
    # trailing zeros on either side, sizes short of, at and past the product
    rng = random.Random(20261018)
    values = (0, 0, 1, -2, 3, Fraction(1, 3))
    for _ in range(200):
        a, b = (tuple(rng.choice(values) for _ in range(rng.randint(1, 6)))
                + (0,) * rng.randint(0, 3) for _ in range(2))
        product = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                product[i + j] += x * y
        for size in range(len(product) + 3):
            assert _convolve(a, b, size) == (product + [0] * 3)[:size]


def test_consistency_checks_raise_under_python_optimise():
    # `python -O` strips assert statements: both checks must still raise,
    # the homology kernel must still refuse faces that are not flag, and
    # torsion must still come out of the elimination, with no column
    # deferred (the stripped B3) and with one (the barycentric subdivision
    # of RP^2)
    code = """if True:
        import itertools
        from fractions import Fraction
        from absorder import full_poset, order_complex, torsion_profile
        from absorder.invariants import InvariantReport
        from absorder.series import FormalPowerSeries, _extract_euler
        from absorder.topology import _homology_from_faces
        from packing import levels_and_counts
        checks = [
            lambda: InvariantReport(5, (1, 1), None, None, None).check(),
            lambda: _extract_euler(
                FormalPowerSeries([0, Fraction(1, 3)], 1), 1, 1),
        ]
        for check in checks:
            try:
                print("no error:", check())
            except AssertionError as exc:
                print("AssertionError:", exc)
        def closure(tops):
            return [sorted({f for t in tops
                            for f in itertools.combinations(t, k)})
                    for k in range(1, max(map(len, tops)) + 1)]

        hollow = closure([(0, 1, 2, 3), (4, 5), (4, 6), (5, 6)])
        try:
            print("no error:",
                  _homology_from_faces(*levels_and_counts(hollow)))
        except ValueError as exc:
            print("ValueError:", exc)
        rp2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
               (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
        cells = [cell for faces in closure(rp2) for cell in faces]
        index = {cell: k for k, cell in enumerate(cells)}
        flags = [tuple(index[tuple(sorted(p[:k]))] for k in (1, 2, 3))
                 for t in rp2 for p in itertools.permutations(t)]
        print(_homology_from_faces(
            *levels_and_counts(closure(flags))).torsion)
        print(torsion_profile(order_complex(full_poset("B", 3),
                                            strip="endpoints")))
    """
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, TESTS] + ([path] if path else [])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("AssertionError: ") for line in lines[:2]), lines
    assert lines[2].startswith(
        "ValueError: not a flag complex at dimension 1: "), lines
    assert lines[3:] == ["{1: [], 2: [2]}", "{1: [], 2: []}"]
