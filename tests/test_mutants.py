"""Wrong rules patched into the package, one at a time.

Each mutant breaks one rule the suite rests on.  `verify` must report it
as failing claims and exit 1: a claim section that raises becomes one
failing claim naming the exception, and the rest of the suite still runs,
so the claim table is printed and no traceback escapes.
"""

import pytest

from absorder import cli, order, verify
from absorder.signed import _orbits, absolute_length


def _poset_short_of_its_top(monkeypatch):
    # every Poset loses its longest element, the top of a bounded one
    init = order.Poset.__init__

    def short(self, covers, kind, label):
        last = max(covers, key=lambda z: (absolute_length(z, kind), z))
        init(self, {z: c for z, c in covers.items() if z != last}, kind,
             label)

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


# mutant: (patch, {section claim: computed text}, claims that must fail)
MUTANTS = {
    "poset-short-of-its-top": (
        _poset_short_of_its_top,
        {"zeta-battery": "ValueError: zeta polynomial needs a bounded poset"},
        {"coxeter-interval-invariants", "letter-labeling-el",
         "euler-three-way-plain", "euler-three-way-signed",
         "rank-generating-function", "fiber-projection-laws"}),
    "one-lower-cover-short": (
        _one_lower_cover_short,
        {"zeta-battery": "ValueError: zeta polynomial needs a bounded poset"},
        {"coxeter-interval-invariants", "hook-lattice-scan-signed",
         "letter-labeling-el", "euler-three-way-signed", "proper-part-cm",
         "fiber-ideal-ranks", "fiber-projection-laws"}),
    "longer-with-two-balanced-cycles": (
        _longer_with_two_balanced_cycles,
        {section: "AssertionError: zeta degree 2 != poset height 3 for "
                  "interval"
         for section in ("interval-invariants", "cycle-flip",
                         "zeta-battery")},
        {"cover-pattern-agreement", "rank-generating-function"}),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_verify_reports_a_wrong_rule_as_failing_claims(name, monkeypatch,
                                                       capsys):
    patch, raised, failing = MUTANTS[name]
    patch(monkeypatch)
    assert cli.main(["verify", "--profile", "quick"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and "Traceback" not in out
    lines = out.splitlines()
    assert lines[-1] == (f"CLAIMS FAILED (profile quick, "
                         f"seed {verify.DEFAULT_SEED})")
    verdicts = {}
    for line in lines:
        if line.startswith(("[PASS] ", "[FAIL] ")):
            verdicts[line[7:].split(":")[0]] = line.startswith("[PASS]")
    assert failing | set(raised) <= {c for c, ok in verdicts.items()
                                     if not ok}
    for section, computed in raised.items():
        at = lines.index(f"[FAIL] {section}: the claim section runs to its "
                         f"verdicts")
        assert lines[at + 1:at + 3] == ["       expected: no exception",
                                        f"       computed: {computed}"]
    # the sections after a raising one still ran
    assert "flip-exponential-identity" in verdicts


def test_a_guard_in_a_claim_section_still_stops_the_suite(monkeypatch,
                                                          capsys):
    # a resource guard is no wrong rule: exit 3, as for every command
    def refused(*args, **kwargs):
        raise order.ResourceGuardError("guard tripped on purpose")

    monkeypatch.setattr(order, "full_poset", refused)
    assert cli.main(["verify", "--profile", "quick"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "resource guard: guard tripped on purpose\n"
