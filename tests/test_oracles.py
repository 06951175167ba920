"""The structural checks' shortcuts against their definitional routes.

`cm_check` keys the gaps open at one end by conjugacy class, `meet`,
`join` and `_meet_failure` decide existence by one mask comparison, and
`verify_el` labels all chains up from a bottom in one walk.  Each is
compared here with the route it replaces.
"""

import random

import pytest

from absorder import (
    ResourceGuardError,
    build_ideal,
    build_interval,
    cm_check,
    collapsed_reflection_label,
    coxeter_ideal,
    full_poset,
    identity,
    join,
    join_position_labeler,
    meet,
    order_complex,
    parse_cycles,
    support_size_label,
    verify_el,
)
from absorder import lattice, topology
from absorder.labeling import ELReport
from absorder.order import bits
from absorder.signed import cycle_type, group_elements


# --- Cohen-Macaulay gaps keyed by conjugacy class ---------------------------

def _closed_under_conjugation(p, mask, group_kind):
    """Closure of the members under conjugation by every element of the
    group S_n or B_n."""
    group = list(group_elements(group_kind, p.n))
    members = {p.elements[i] for i in bits(mask)}
    return all(g * w * g.inverse() in members for g in group for w in members)


def _seeded_masks(p, rng, count):
    """Unions of classes, each also with one member moved; the classes are
    the cycle types (conjugacy classes of B_n, or of S_n for kind S) and,
    for kinds B and D, the orbits under conjugation by S_n alone."""
    s_n = list(group_elements("S", p.n))
    keys = [cycle_type]
    if p.kind != "S":
        keys.append(lambda w: min((g * w * g.inverse()).images for g in s_n))
    masks = []
    for key in keys:
        classes = {}
        for i, w in enumerate(p.elements):
            classes.setdefault(key(w), []).append(i)
        for _ in range(count):
            mask = 0
            for members in rng.sample(list(classes.values()),
                                      rng.randint(1, len(classes))):
                for i in members:
                    mask |= 1 << i
            masks.append(mask)
            masks.append(mask ^ 1 << rng.randrange(len(p)))
    return masks


@pytest.mark.parametrize("kind,n", [("B", 3), ("D", 4), ("S", 4)])
def test_conjugation_invariant_matches_closure_under_the_group(kind, n):
    p = full_poset(kind, n)
    rng = random.Random(20261020)
    verdicts = []
    for mask in _seeded_masks(p, rng, 8):
        # B_n-conjugation preserves D's order too
        verdicts.append(_closed_under_conjugation(
            p, mask, "S" if kind == "S" else "B"))
        assert topology._conjugation_invariant(p, mask) is verdicts[-1]
    assert sum(verdicts) >= 8 and verdicts.count(False) >= 8


def _paired_four_cycle_ideal():
    """The ideal of B4 generated by the S_4-conjugates of ((1,-2,3,-4)):
    closed under conjugation by S_4 but not by B_4."""
    w = parse_cycles("((1,-2,3,-4))", 4)
    gens = {g * w * g.inverse() for g in group_elements("S", 4)}
    return build_ideal(sorted(gens, key=lambda v: v.images), "B",
                       label="S4-conjugates of ((1,-2,3,-4))")


GAP_CASES = {
    "S4": (lambda: coxeter_ideal(4, "S"), "endpoints"),
    "S4-ends-kept": (lambda: coxeter_ideal(4, "S"), "none"),
    "S5": (lambda: coxeter_ideal(5, "S"), "endpoints"),
    "coxeter-ideal-B3": (lambda: coxeter_ideal(3, "B"), "endpoints"),
    "coxeter-ideal-B4": (lambda: coxeter_ideal(4, "B"), "endpoints"),
    "D4": (lambda: full_poset("D", 4), "endpoints"),
    "paired-four-cycles": (_paired_four_cycle_ideal, "endpoints"),
}


def _direct_gap(c, lo, hi):
    p, mask = c.poset, c.member_mask
    if lo is not None:
        mask &= p.above[lo] & ~(1 << lo)
    if hi is not None:
        mask &= p.below[hi] & ~(1 << hi)
    return topology._poly_of(topology._homology_from_faces(
        topology._chains_in_mask(p, mask)))


@pytest.mark.parametrize("name", GAP_CASES)
def test_every_gap_polynomial_matches_its_direct_elimination(name):
    # every gap of every face is a gap of a vertex or an edge
    build, strip = GAP_CASES[name]
    c = order_complex(build(), strip=strip)
    gap = topology._gap_polys(c, topology.homology(c))
    vertices = list(bits(c.member_mask))
    ends = ([(None, None)] + [(None, v) for v in vertices]
            + [(v, None) for v in vertices] + list(c.faces_by_dim[1]))
    for lo, hi in ends:
        assert gap(lo, hi) == _direct_gap(c, lo, hi), (name, lo, hi)


def test_an_s_invariant_ideal_of_b4_is_not_keyed_by_signed_class():
    p = _paired_four_cycle_ideal()
    mask = order_complex(p, strip="endpoints").member_mask
    assert _closed_under_conjugation(p, mask, "S")
    assert not _closed_under_conjugation(p, mask, "B")
    assert not topology._conjugation_invariant(p, mask)


def test_cm_check_eliminates_each_one_sided_class_once(monkeypatch):
    calls = []
    eliminate = topology._homology_from_faces

    def counting(faces_by_dim):
        calls.append(len(faces_by_dim))
        return eliminate(faces_by_dim)

    c = order_complex(coxeter_ideal(4, "B"), strip="endpoints")
    types = {cycle_type(c.poset.elements[v]) for v in bits(c.member_mask)}
    monkeypatch.setattr(topology, "_homology_from_faces", counting)
    assert cm_check(c).ok
    # the whole complex, 11 signed cycle types of intervals, one gap above
    # an element per member cycle type
    assert len(calls) <= 1 + 11 + len(types)


# --- one lattice test ---------------------------------------------------------

def _maximal_of(p, mask):
    return [i for i in bits(mask) if p.above[i] & mask == 1 << i]


def _minimal_of(p, mask):
    return [i for i in bits(mask) if p.below[i] & mask == 1 << i]


def _meet_failure_by_maximal(p, members):
    """The scan `_meet_failure` replaces: list the maximal common lower
    bounds of each incomparable pair."""
    for a, i in enumerate(members):
        for j in members[a + 1:]:
            if p.leq(i, j) or p.leq(j, i):
                continue
            tops = _maximal_of(p, p.below[i] & p.below[j])
            if len(tops) != 1:
                return {"x": repr(p.elements[i]), "y": repr(p.elements[j]),
                        "maximal_lower_bounds":
                            sorted(repr(p.elements[t]) for t in tops)}
    return None


def _lattice_cases():
    cases = [full_poset("B", 3), full_poset("D", 4), full_poset("S", 4)]
    b3 = cases[0]
    rng = random.Random(20261021)
    for k in range(20):
        keep = rng.sample(range(len(b3)), rng.randint(6, 30))
        cases.append(b3.subposet(keep, label=f"sample {k}"))
    return cases


def test_meet_and_join_match_the_maximal_and_minimal_bounds():
    subposets_with_failures = 0
    for p in _lattice_cases():
        for i in range(len(p)):
            for j in range(len(p)):
                tops = _maximal_of(p, p.below[i] & p.below[j])
                bottoms = _minimal_of(p, p.above[i] & p.above[j])
                assert meet(p, i, j) == (
                    p.elements[tops[0]] if len(tops) == 1 else None)
                assert join(p, i, j) == (
                    p.elements[bottoms[0]] if len(bottoms) == 1 else None)
        members = list(range(len(p)))
        witness = lattice._meet_failure(p, members)
        assert witness == _meet_failure_by_maximal(p, members), p.label
        subposets_with_failures += witness is not None
        for top in range(len(p)):
            members = list(bits(p.below[top]))
            assert (lattice._meet_failure(p, members)
                    == _meet_failure_by_maximal(p, members))
    assert subposets_with_failures >= 10


# --- EL by one label walk per bottom ----------------------------------------

def _maximal_chains(p, x, y, guard):
    """Maximal chains of [x, y] as index tuples, one DFS per interval."""
    inside = p.below[y]
    chains = []
    stack = [(x, (x,))]
    while stack:
        node, path = stack.pop()
        if node == y:
            chains.append(path)
            if len(chains) > guard:
                raise ResourceGuardError(
                    f"interval [{p.elements[x]!r}, {p.elements[y]!r}] "
                    f"exceeds {guard} maximal chains")
            continue
        for nxt in p.hasse_up[node]:
            if inside >> nxt & 1:
                stack.append((nxt, path + (nxt,)))
    return chains


def _verify_el_per_interval(p, labeler, chain_guard=10 ** 6):
    """The EL check with the chains of each interval enumerated afresh."""
    intervals = chains_total = 0
    for x in range(len(p)):
        for y in bits(p.above[x] & ~(1 << x)):
            intervals += 1
            chains = _maximal_chains(p, x, y, chain_guard)
            chains_total += len(chains)
            labeled = sorted(
                tuple(labeler(p.elements[c[i]], p.elements[c[i + 1]])
                      for i in range(len(c) - 1))
                for c in chains)
            increasing = [seq for seq in labeled
                          if all(a < b for a, b in zip(seq, seq[1:]))]
            reason = None
            if len(increasing) != 1:
                reason = f"{len(increasing)} strictly increasing chains"
            elif labeled[0] != increasing[0]:
                reason = "increasing chain is not lexicographically first"
            elif len(labeled) > 1 and labeled[1] == labeled[0]:
                reason = "lexicographically first label sequence is not unique"
            if reason is not None:
                failure = {"bottom": repr(p.elements[x]),
                           "top": repr(p.elements[y]), "reason": reason,
                           "sequences": [list(map(str, seq))
                                         for seq in labeled[:10]]}
                return ELReport(False, intervals, chains_total, failure)
    return ELReport(True, intervals, chains_total, None)


def _el_cases(labeler):
    """Whole groups, the B4 Coxeter interval and the B3 flip interval; for
    the letter labeling, which labels any pair, also seeded subposets of
    B3, whose Hasse edges need not be covers of the group."""
    b3 = full_poset("B", 3)
    cases = [b3, full_poset("S", 4), full_poset("D", 4),
             build_interval(identity(4), parse_cycles("[1,2,3,4]", 4), "B"),
             build_interval(identity(3), parse_cycles("[1][2][3]", 3), "B")]
    if labeler is support_size_label:
        rng = random.Random(20261022)
        for k in range(8):
            keep = rng.sample(range(len(b3)), rng.randint(10, 40))
            cases.append(b3.subposet(keep, label=f"sample {k}"))
    return cases


@pytest.mark.parametrize("labeler", [support_size_label,
                                     collapsed_reflection_label])
def test_verify_el_matches_per_interval_enumeration(labeler):
    verdicts = []
    for p in _el_cases(labeler):
        report = verify_el(p, labeler=labeler).to_json()
        assert report == _verify_el_per_interval(p, labeler).to_json(), p.label
        verdicts.append(report["ok"])
    assert True in verdicts and False in verdicts


def test_verify_el_matches_per_interval_enumeration_on_flip_intervals():
    for n in (2, 3):
        p = build_interval(identity(n), parse_cycles(
            "".join(f"[{i}]" for i in range(1, n + 1)), n), "B")
        labeler = join_position_labeler(p)
        assert (verify_el(p, labeler=labeler).to_json()
                == _verify_el_per_interval(p, labeler).to_json())


def test_el_chain_guard_trips_before_any_chain_is_labeled():
    def no_label(a, b):
        raise AssertionError("labeled a chain before the guard was checked")

    p = full_poset("B", 3)
    with pytest.raises(ResourceGuardError,
                       match=r"^interval \[e, \[1,-3\]\] exceeds 3 maximal "
                             r"chains$"):
        verify_el(p, labeler=no_label, chain_guard=3)
    with pytest.raises(ResourceGuardError) as expected:
        _verify_el_per_interval(p, support_size_label, chain_guard=3)
    with pytest.raises(ResourceGuardError) as got:
        verify_el(p, chain_guard=3)
    assert str(got.value) == str(expected.value)
