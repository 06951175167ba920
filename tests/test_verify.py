"""The claim-by-claim verification suite."""

import json

import pytest

from absorder import (ClaimResult, absolute_length, invariants, order,
                      run_verify_suite, topology, verify)
from absorder.topology import HomologyProfile

QUICK_CLAIMS = [r.claim for r in run_verify_suite(profile="quick").results]


def _column(profile):
    """The profile's column of the scope table, row name to value."""
    column = verify.PROFILES.index(profile)
    return {row: values[column] for row, values in verify.SCOPES.items()}


# The ordered claim ids and parameters each profile reports, so that no
# edit of the scope table changes what a profile checks unnoticed.
_CM_FULL = [["S", 3], ["S", 4], ["B", 2], ["B", 3], ["B", 4]]
_INTERVALS = ["coxeter-1", "flip-1", "coxeter-2", "flip-2", "coxeter-3",
              "flip-3"]
PINNED = {
    "quick": [
        ("coxeter-interval-invariants", {"n": [1, 2, 3]}),
        ("flip-interval-invariants", {"n": [1, 2, 3]}),
        ("cycle-flip-interval-invariants",
         {"pairs": [[1, 1], [1, 2], [2, 1]]}),
        ("cycle-flip-literal-boundary", {"k": 1, "r": 1}),
        ("annular-mixing-counts", {"k": [1, 2]}),
        ("hook-lattice-scan-signed", {"n": 3}),
        ("even-lattice-scan", {"n": 3}),
        ("letter-labeling-el", {"n": 2, "intervals": 19}),
        ("canonical-chain-labels", {"n": 3, "elements": 48}),
        ("flip-interval-el-collapsed-reflection", {"n": [1, 2, 3]}),
        ("flip-interval-el-join-position", {"n": [1, 2, 3]}),
        ("disconnected-even-interval",
         {"interval": "(e, [1][2][3][4])", "kind": "D"}),
        ("euler-three-way-plain", {"n": [3, 4]}),
        ("euler-three-way-signed", {"n": [2, 3]}),
        ("proper-part-cm", {"scopes": [["S", 3], ["B", 2]]}),
        ("cover-pattern-agreement", {"n": 3, "elements": 48}),
        ("noncrossing-order-agreement", {"n": 4, "pairs": 576}),
        ("rank-generating-function",
         {"kinds": ["S", "B", "D"], "n_upto": 3}),
        ("zeta-consistency", {"posets": _INTERVALS + [
            "cycle-flip-1-1", "cycle-flip-1-2", "cycle-flip-2-1"]}),
        ("palindromic-interval-ranks", {"n": 3}),
        ("fiber-ideal-ranks", {"scopes": [["S", 3], ["B", 2]]}),
        ("fiber-projection-laws", {"n": [3]}),
        ("flip-exponential-identity", {"order": 10}),
    ],
    "full": [
        ("coxeter-interval-invariants", {"n": [1, 2, 3, 4]}),
        ("flip-interval-invariants", {"n": [1, 2, 3, 4, 5]}),
        ("cycle-flip-interval-invariants",
         {"pairs": [[1, 1], [1, 2], [1, 3], [1, 4], [2, 1], [2, 2], [2, 3],
                    [3, 1], [3, 2], [4, 1]]}),
        ("cycle-flip-literal-boundary", {"k": 1, "r": 1}),
        ("annular-mixing-counts", {"k": [1, 2, 3, 4]}),
        ("hook-lattice-scan-signed", {"n": 5}),
        ("even-lattice-scan", {"n": 5}),
        ("even-three-lower-bounds",
         {"u": "[1][2][3][4]", "v": "[1][2][3][5]"}),
        ("letter-labeling-el", {"n": 5, "intervals": 326979}),
        ("canonical-chain-labels", {"n": 4, "elements": 384}),
        ("flip-interval-el-collapsed-reflection", {"n": [1, 2, 3, 4]}),
        ("flip-interval-el-join-position", {"n": [1, 2, 3, 4]}),
        ("disconnected-even-interval",
         {"interval": "(e, [1][2][3][4])", "kind": "D"}),
        ("euler-three-way-plain", {"n": [3, 4, 5]}),
        ("euler-three-way-signed", {"n": [2, 3, 4]}),
        ("proper-part-cm", {"scopes": _CM_FULL}),
        ("coxeter-ideal-torsion-free", {"scopes": _CM_FULL}),
        ("cover-pattern-agreement", {"n": 4, "elements": 384}),
        ("lower-cover-rule", {"groups": ["B4", "D4", "S5"]}),
        ("noncrossing-order-agreement", {"n": 5, "pairs": 14400}),
        ("rank-generating-function",
         {"kinds": ["S", "B", "D"], "n_upto": 4}),
        ("zeta-consistency", {"posets": _INTERVALS + [
            "coxeter-4", "flip-4", "cycle-flip-1-1", "cycle-flip-1-2",
            "cycle-flip-2-1", "cycle-flip-2-2", "cycle-flip-3-1",
            "cycle-flip-1-3"]}),
        ("palindromic-interval-ranks", {"n": 3}),
        ("fiber-ideal-ranks", {"scopes": [["S", 3], ["S", 4], ["S", 5],
                                          ["B", 2], ["B", 3], ["B", 4]]}),
        ("fiber-projection-laws", {"n": [2, 3, 4]}),
        ("flip-exponential-identity", {"order": 10}),
    ],
}


@pytest.mark.parametrize("profile", verify.PROFILES)
def test_each_profile_pins_its_claims_and_reads_every_scope_row(
        monkeypatch, profile):
    # a row no section reads in some profile is dead, and fails here
    read = set()

    class Recording(dict):
        def __getitem__(self, row):
            read.add(row)
            return super().__getitem__(row)

    monkeypatch.setattr(verify, "CLAIM_SECTIONS", [
        lambda scope, section=section: section(Recording(scope))
        for section in verify.CLAIM_SECTIONS])
    report = run_verify_suite(profile=profile)
    assert report.ok()
    assert [(r.claim, json.loads(json.dumps(r.parameters)))
            for r in report.results] == PINNED[profile]
    assert read == set(verify.SCOPES)


def test_quick_profile_all_claims_pass():
    report = run_verify_suite(profile="quick")
    assert report.ok()
    ids = [r.claim for r in report.results]
    assert len(ids) == len(set(ids))
    assert "coxeter-interval-invariants" in ids
    assert all(r.verdict for r in report.results)


def test_report_serializes():
    report = run_verify_suite(profile="quick")
    data = report.to_json()
    assert data["profile"] == "quick"
    assert len(data["results"]) == len(report.results)
    first = data["results"][0]
    for key in ("claim", "statement", "expected", "computed", "verdict"):
        assert key in first


def test_fault_injection_flips_exactly_one_claim():
    report = run_verify_suite(profile="quick", fault="zeta-consistency")
    assert not report.ok()
    bad = [r for r in report.results if not r.verdict]
    assert len(bad) == 1
    assert bad[0].claim == "zeta-consistency"
    assert "injected fault" in bad[0].computed


def test_unknown_fault_is_rejected():
    with pytest.raises(ValueError):
        run_verify_suite(profile="quick", fault="no-such-claim")


def test_unknown_profile_is_rejected():
    with pytest.raises(ValueError):
        run_verify_suite(profile="exhaustive")


def test_verdict_is_derived_from_the_two_texts():
    assert "verdict" not in ClaimResult._fields
    result = ClaimResult("c", "s", {"n": 1}, "4 vs 6", "4 vs 6")
    assert result.verdict
    assert list(result.to_json()) == ["claim", "statement", "parameters",
                                      "expected", "computed", "verdict"]
    result = result._replace(computed="4 vs 5")
    assert not result.verdict
    assert result.to_json()["verdict"] is False


@pytest.mark.parametrize("claim", QUICK_CLAIMS)
def test_fault_injection_fails_exactly_the_named_claim(claim):
    report = run_verify_suite(profile="quick", fault=claim)
    assert not report.ok()
    bad = [r for r in report.results if not r.verdict]
    assert [r.claim for r in bad] == [claim]
    assert bad[0].computed == bad[0].expected + " [injected fault]"


def test_a_wrong_top_betti_number_fails_the_homology_claims(monkeypatch):
    # the Euler claims read the Betti numbers, and proper-part-cm compares
    # the top one with the Mobius number, so neither may pass on wrong ranks
    right = topology._homology_from_faces

    def off_by_one(levels, counts):
        betti = right(levels, counts).reduced_betti
        return HomologyProfile(betti[:-1] + (betti[-1] + 1,) if betti else ())

    monkeypatch.setattr(topology, "_homology_from_faces", off_by_one)
    failed = {r.claim for r in run_verify_suite(profile="quick").results
              if not r.verdict}
    assert {"euler-three-way-plain", "euler-three-way-signed",
            "proper-part-cm"} <= failed


@pytest.mark.parametrize("profile,ambients", [("quick", 3), ("full", 7)])
def test_fiber_machinery_builds_each_ambient_once(monkeypatch, profile,
                                                  ambients):
    built = []
    init = order.Poset.__init__

    def counting(self, elements, kind, label):
        init(self, elements, kind, label)
        built.append((kind, self.n))

    monkeypatch.setattr(order.Poset, "__init__", counting)
    assert all(r.verdict for r in verify._claim_fiber_machinery(_column(profile)))
    assert len(built) == len(set(built)) == ambients


def test_zeta_consistency_reports_a_wrong_mobius_number(monkeypatch):
    # the claim reads the Moebius number itself, so a wrong one fails the
    # claim instead of tripping the census's own consistency check
    right = invariants.mobius
    monkeypatch.setattr(invariants, "mobius", lambda p: right(p) + 1)
    claims = {r.claim: r for r in
              verify._claim_zeta_battery(_column("quick"))}
    assert not claims["zeta-consistency"].verdict
    assert claims["palindromic-interval-ranks"].verdict


def test_lower_cover_rule_is_a_full_profile_claim_that_sees_a_wrong_rule(
        monkeypatch):
    assert "lower-cover-rule" not in QUICK_CLAIMS
    claims = {r.claim: r for r in
              verify._claim_order_agreement(_column("full"))}
    assert claims["lower-cover-rule"].verdict
    right = order._lower_covers

    def one_short(w, kind="B"):
        return right(w, kind)[1:]

    monkeypatch.setattr(order, "_lower_covers", one_short)
    claims = {r.claim: r for r in
              verify._claim_order_agreement(_column("full"))}
    assert not claims["lower-cover-rule"].verdict
    assert claims["lower-cover-rule"].computed.startswith("mismatch at B4")


def test_el_claim_fails_on_a_poset_short_of_one_element(monkeypatch):
    # B5 less its last element is still a lower set and still EL; only the
    # count of its intervals, against the ideals of the class
    # representatives, shows the missing element
    init = order.Poset.__init__

    def short(self, covers, kind, label):
        last = max(covers, key=lambda z: (absolute_length(z, kind), z))
        init(self, {z: c for z, c in covers.items() if z != last}, kind,
             label)

    monkeypatch.setattr(order.Poset, "__init__", short)
    claim = verify._claim_el(_column("full"))[0]
    assert claim.claim == "letter-labeling-el"
    assert not claim.verdict
    assert claim.computed == ("326728 intervals checked, 326979 by the "
                              "class sizes")


def test_torsion_claim_is_a_full_profile_claim_that_sees_torsion(monkeypatch):
    assert "coxeter-ideal-torsion-free" not in QUICK_CLAIMS
    claims = {r.claim: r for r in
              verify._claim_euler_three_way(_column("full"))}
    claim = claims["coxeter-ideal-torsion-free"]
    assert claim.verdict
    assert claim.parameters["scopes"] == [["S", 3], ["S", 4], ["B", 2],
                                          ["B", 3], ["B", 4]]
    right = topology.torsion_profile

    def two_torsion(c):
        return {**right(c), 2: [2]}

    monkeypatch.setattr(topology, "torsion_profile", two_torsion)
    claims = {r.claim: r for r in
              verify._claim_euler_three_way(_column("full"))}
    assert not claims["coxeter-ideal-torsion-free"].verdict
    assert '"B4": {"2": [2]}' in claims["coxeter-ideal-torsion-free"].computed
