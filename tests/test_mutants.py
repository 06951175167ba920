"""Wrong rules patched into the package, one at a time.

Each mutant breaks one rule the suite rests on.  `verify` must report it
as failing claims and exit 1: a claim section that raises becomes one
failing claim naming the exception, and the rest of the suite still runs,
so the claim table is printed and no traceback escapes.  Each row names
exactly the claims that fail at quick and at full, and the sections that
raise; a row whose rule only the full profile reaches must leave quick
passing.  Every claim of the full report fails under some row.
"""

import json
from pathlib import Path

import pytest

from absorder import (cli, invariants, labeling, lattice, order, series,
                      topology, verify)
from absorder.signed import _orbits, absolute_length
from absorder.topology import HomologyProfile


def _longest(covers, kind):
    return max(covers, key=lambda z: (absolute_length(z, kind), z))


def _poset_short_of_its_top(monkeypatch):
    # every Poset loses its longest element, the top of a bounded one
    init = order.Poset.__init__

    def short(self, covers, kind, label):
        last = _longest(covers, kind)
        init(self, {z: c for z, c in covers.items() if z != last}, kind,
             label)

    monkeypatch.setattr(order.Poset, "__init__", short)


def _top_short_of_a_cover(monkeypatch):
    # every Poset's longest element loses the first lower cover recorded
    init = order.Poset.__init__

    def short(self, covers, kind, label):
        last = _longest(covers, kind)
        init(self, {**covers, last: covers[last][1:]}, kind, label)

    monkeypatch.setattr(order.Poset, "__init__", short)


def _one_lower_cover_short(monkeypatch):
    # each w with w(n) < 0 loses its last lower cover
    right = order._lower_covers

    def one_short(images, kind="B"):
        covers = right(images, kind)
        return covers[:-1] if images[-1] < 0 else covers

    monkeypatch.setattr(order, "_lower_covers", one_short)


def _longer_with_two_balanced_cycles(monkeypatch):
    # reflection length one too high on w with two or more balanced cycles
    def longer(w, kind="B"):
        balanced = sum(is_balanced for _, is_balanced in _orbits(w))
        return absolute_length(w, kind) + (balanced >= 2)

    monkeypatch.setattr(order, "absolute_length", longer)


def _least_moved_letter_label(monkeypatch):
    # the letter label reads the least moved letter, not the largest
    def least(a, b):
        return next(i for i in range(1, len(a) + 1) if a[i - 1] != b[i - 1])

    monkeypatch.setattr(labeling, "support_size_label", least)


def _top_betti_number_plus_one(monkeypatch):
    # the elimination reports its top Betti number one too high
    right = topology._homology_from_faces

    def plus_one(levels, counts):
        h = right(levels, counts)
        betti = h.reduced_betti
        return HomologyProfile(betti[:-1] + (betti[-1] + 1,) if betti else (),
                               h.torsion)

    monkeypatch.setattr(topology, "_homology_from_faces", plus_one)


def _noncrossing_always_true(monkeypatch):
    # cycles of u from one cycle of v count as noncrossing however they sit
    monkeypatch.setattr(order, "_noncrossing", lambda pos_a, pos_b: True)


def _sqrt_last_coefficient_plus_one(monkeypatch):
    # a series' square root has its last coefficient one too high
    right = series.FormalPowerSeries.sqrt

    def plus_one(self):
        root = right(self)
        return series.FormalPowerSeries(
            root.coeffs[:-1] + (root.coeffs[-1] + 1,), root.order)

    monkeypatch.setattr(series.FormalPowerSeries, "sqrt", plus_one)


def _zeta_polynomial_plus_one(monkeypatch):
    # every zeta polynomial has its constant term one too high
    right = invariants.zeta_polynomial

    def plus_one(p):
        return right(p) + invariants.RationalPolynomial([1])

    monkeypatch.setattr(invariants, "zeta_polynomial", plus_one)


def _top_rank_size_plus_one(monkeypatch):
    # a poset counts one element too many at its top rank
    right = order.Poset.rank_sizes

    def plus_one(self):
        sizes = right(self)
        return sizes[:-1] + (sizes[-1] + 1,)

    monkeypatch.setattr(order.Poset, "rank_sizes", plus_one)


def _one_common_lower_bound_short(monkeypatch):
    # two elements lose the last of their maximal common lower bounds
    right = lattice.maximal_common_lower_bounds

    def short(u, v, kind="B"):
        return right(u, v, kind)[:-1]

    monkeypatch.setattr(lattice, "maximal_common_lower_bounds", short)


def _extra_z2_in_the_top_torsion(monkeypatch):
    # the elimination reports one Z/2 too many in its highest torsion group
    right = topology._homology_from_faces

    def extra(levels, counts):
        h = right(levels, counts)
        if h.torsion:
            top = max(h.torsion)
            h.torsion[top] = h.torsion[top] + [2]
        return h

    monkeypatch.setattr(topology, "_homology_from_faces", extra)


# mutant: (patch, {raising section: computed text}, every claim that fails
# at quick, raised sections included, and the claims that fail at full
# besides); a raising section raises at each profile where it fails
MUTANTS = {
    "poset-short-of-its-top": (
        _poset_short_of_its_top,
        {"zeta-battery": "ValueError: zeta polynomial needs a bounded poset",
         "lattice-scans": "ValueError: [1][2][3][5] is not an element of "
                          "ideal"},
        {"coxeter-interval-invariants", "flip-interval-invariants",
         "cycle-flip-interval-invariants", "zeta-battery",
         "letter-labeling-el", "euler-three-way-plain",
         "euler-three-way-signed", "cycle-flip-literal-boundary",
         "rank-generating-function", "annular-mixing-counts",
         "fiber-projection-laws"},
        {"lattice-scans", "lower-cover-rule", "proper-part-cm"}),
    "one-lower-cover-short": (
        _one_lower_cover_short,
        {"zeta-battery": "ValueError: zeta polynomial needs a bounded poset"},
        {"coxeter-interval-invariants", "flip-interval-invariants",
         "cycle-flip-interval-invariants", "zeta-battery",
         "hook-lattice-scan-signed", "even-lattice-scan",
         "letter-labeling-el", "flip-interval-el-join-position",
         "flip-interval-el-collapsed-reflection",
         "disconnected-even-interval", "euler-three-way-signed",
         "cycle-flip-literal-boundary", "proper-part-cm",
         "annular-mixing-counts", "fiber-ideal-ranks",
         "fiber-projection-laws"},
        {"lower-cover-rule"}),
    "longer-with-two-balanced-cycles": (
        _longer_with_two_balanced_cycles,
        {section: "AssertionError: zeta degree 2 != poset height 3 for "
                  "interval"
         for section in ("interval-invariants", "cycle-flip",
                         "zeta-battery")},
        {"interval-invariants", "cycle-flip", "zeta-battery",
         "cover-pattern-agreement", "rank-generating-function"},
        {"lower-cover-rule"}),
    "least-moved-letter-label": (
        _least_moved_letter_label, {},
        {"letter-labeling-el", "canonical-chain-labels"}, set()),
    "top-betti-number-plus-one": (
        _top_betti_number_plus_one, {},
        {"euler-three-way-plain", "euler-three-way-signed", "proper-part-cm"},
        set()),
    "top-short-of-a-cover": (
        _top_short_of_a_cover,
        {"alt-labelings": "LabelingError: no reflection joins ((2,-3)) up "
                          "to [2][3]; labeler only covers intervals of the "
                          "involution sublattice",
         "zeta-battery": "ValueError: zeta polynomial needs a bounded poset"},
        {"coxeter-interval-invariants", "flip-interval-invariants",
         "cycle-flip-interval-invariants", "alt-labelings", "zeta-battery",
         "hook-lattice-scan-signed", "even-lattice-scan",
         "letter-labeling-el", "disconnected-even-interval",
         "euler-three-way-plain", "euler-three-way-signed",
         "proper-part-cm", "fiber-projection-laws"},
        {"fiber-ideal-ranks", "lower-cover-rule"}),
    "noncrossing-always-true": (
        _noncrossing_always_true, {}, {"noncrossing-order-agreement"}, set()),
    "sqrt-last-coefficient-plus-one": (
        _sqrt_last_coefficient_plus_one, {},
        {"euler-three-way-signed", "flip-exponential-identity"},
        {"proper-part-cm"}),
    "zeta-polynomial-plus-one": (
        _zeta_polynomial_plus_one,
        {section: "AssertionError: zeta(2) is not the cardinality"
         for section in ("interval-invariants", "cycle-flip")},
        {"interval-invariants", "cycle-flip", "zeta-consistency"}, set()),
    "top-rank-size-plus-one": (
        _top_rank_size_plus_one,
        {section: "AssertionError: the rank sizes do not sum to the "
                  "cardinality"
         for section in ("interval-invariants", "cycle-flip")},
        {"interval-invariants", "cycle-flip", "palindromic-interval-ranks",
         "rank-generating-function"}, set()),
    "one-common-lower-bound-short": (
        _one_common_lower_bound_short, {}, set(), {"even-three-lower-bounds"}),
    "extra-z2-in-the-top-torsion": (
        _extra_z2_in_the_top_torsion, {}, set(),
        {"coxeter-ideal-torsion-free"}),
}

SECTION_RUNS = "the claim section runs to its verdicts"


def _failing(name, profile):
    """The claims that fail under the mutant at the profile, and the
    sections among them that raise."""
    _, raised, quick, full = MUTANTS[name]
    failing = quick | full if profile == "full" else quick
    return failing, {s: c for s, c in raised.items() if s in failing}


def _fails_its_claims(name, profile, monkeypatch, capsys):
    MUTANTS[name][0](monkeypatch)
    assert cli.main(["verify", "--profile", profile]) == 1
    out, err = capsys.readouterr()
    assert err == "" and "Traceback" not in out
    lines = out.splitlines()
    assert lines[-1] == (f"CLAIMS FAILED (profile {profile}, "
                         f"seed {verify.DEFAULT_SEED})")
    verdicts = {}
    for line in lines:
        if line.startswith(("[PASS] ", "[FAIL] ")):
            verdicts[line[7:].split(":")[0]] = line.startswith("[PASS]")
    failing, raised = _failing(name, profile)
    assert {c for c, ok in verdicts.items() if not ok} == failing
    assert {line[7:].split(":")[0] for line in lines
            if line.startswith("[FAIL] ") and line.endswith(SECTION_RUNS)} == (
        set(raised))
    for section, computed in raised.items():
        at = lines.index(f"[FAIL] {section}: {SECTION_RUNS}")
        assert lines[at + 1:at + 3] == ["       expected: no exception",
                                        f"       computed: {computed}"]
    # the sections after a raising one still ran
    assert "flip-exponential-identity" in verdicts


@pytest.mark.parametrize("name", [name for name, row in MUTANTS.items()
                                  if row[2]])
def test_verify_reports_a_wrong_rule_as_failing_claims(name, monkeypatch,
                                                       capsys):
    _fails_its_claims(name, "quick", monkeypatch, capsys)


@pytest.mark.parametrize("name", [name for name, row in MUTANTS.items()
                                  if not row[2]])
def test_a_wrong_rule_only_the_full_profile_reaches_passes_quick(
        name, monkeypatch, capsys):
    MUTANTS[name][0](monkeypatch)
    assert cli.main(["verify", "--profile", "quick"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and not any(line.startswith("[FAIL] ") for line in lines)
    assert lines[-1] == (f"all claims hold (profile quick, "
                         f"seed {verify.DEFAULT_SEED})")


@pytest.mark.parametrize("name", MUTANTS)
def test_the_full_profile_reports_a_wrong_rule_as_failing_claims(
        name, monkeypatch, capsys):
    _fails_its_claims(name, "full", monkeypatch, capsys)


def test_every_full_claim_fails_under_some_wrong_rule():
    # a new claim needs a row that fails it; read off the golden report,
    # so this runs no verify
    golden = Path(__file__).resolve().parent / "golden" / "verify_full.json"
    claims = {r["claim"] for r in json.loads(golden.read_bytes())["results"]}
    failing = set().union(*(quick | full for _, _, quick, full
                            in MUTANTS.values()))
    assert claims - failing == set()


def test_the_json_report_names_exactly_the_failing_claims(monkeypatch,
                                                         capsys):
    # at quick this row fails its claims and raising sections, no others
    MUTANTS["top-short-of-a-cover"][0](monkeypatch)
    assert cli.main(["verify", "--profile", "quick", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    assert list(report) == ["profile", "seed", "ok", "results"]
    assert report["ok"] is False
    results = {r["claim"]: r for r in report["results"]}
    assert len(results) == len(report["results"])
    failing, raised = _failing("top-short-of-a-cover", "quick")
    assert {c for c, r in results.items() if not r["verdict"]} == failing
    for section, computed in raised.items():
        assert results[section] == {
            "claim": section, "statement": SECTION_RUNS,
            "parameters": {}, "expected": "no exception",
            "computed": computed, "verdict": False}


def test_a_guard_in_a_claim_section_still_stops_the_suite(monkeypatch,
                                                          capsys):
    # a resource guard is no wrong rule: exit 3, as for every command
    def refused(*args, **kwargs):
        raise order.ResourceGuardError("guard tripped on purpose")

    monkeypatch.setattr(order, "full_poset", refused)
    assert cli.main(["verify", "--profile", "quick"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "resource guard: guard tripped on purpose\n"
