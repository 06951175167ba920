"""The structural checks' shortcuts against their definitional routes.

`cm_check` keys the gaps open at one end by conjugacy class, reads
antichain gaps off their size and, on a lower set of the group, reads each
span (x, y) as the gap below x^-1 y, the lower-set test counts covers off
the orbits on any mask, `meet`, `join` and `_meet_failure` decide
existence by one mask comparison, `verify_el` keeps label states up from a
bottom in one walk (from e alone on a lower set of the group), homology
builds a coboundary column only when a reduction needs it and splices a
lowest row by one vertex mask per run of faces, an order complex's
top level is only counted, chains come out
sorted level by level over labels descending in rank with ties broken by
the reversed image tuple, each packed into one int and read back as the
tuple it packs, the fiber law compares distinct projections by lengths and
inverses found once, fiber
ideals and cover lifting are masks on one ambient poset, chains of every
size come from one sweep and zeta polynomials and multichain counts from
them, Moebius numbers come from the Hall recursion on an open interval, a
poset's bottom and top from its lowest and highest element's masks, lower
covers from the orbits of an element, the balanced profile and the Moebius
product from the cycle type, the projection deleting a letter and the
letter label from the image tuples, and power-series exp, sqrt and
products from integer numerators over one common denominator.  Each is
compared here with the route it replaces.  The oracles that hold for any
poset also run on `_induced` posets, whose member sets need not be
convex; `_induced` is checked against `abs_leq` first.
"""

import itertools
import random
import sys
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from absorder import (
    FormalPowerSeries,
    LabelingError,
    ResourceGuardError,
    abs_leq,
    absolute_length,
    appendix_ideal_checks,
    balanced_cycle,
    build_ideal,
    build_interval,
    cm_check,
    collapsed_reflection_label,
    cover_lifting_ok,
    coxeter_ideal,
    cycle_decomposition,
    fiber_ideal_identity_ok,
    format_cycles,
    from_cycles,
    full_poset,
    identity,
    is_member,
    join,
    join_position_labeler,
    meet,
    order_complex,
    paired_cycle,
    parse_cycles,
    project_pi,
    reflection_set,
    support_size_label,
    verify_el,
)
from absorder import invariants, labeling, lattice, order, signed, topology
from absorder.labeling import ELReport
from absorder.order import Poset, _fibers, _graded, _lower_covers, bits
from absorder.signed import SignedPermutation, cycle_type, group_elements
from absorder.topology import HomologyProfile, IdealCheck, SimplicialComplex
from packing import (boundary_columns, by_index, closure, every_face,
                     levels_and_counts, normalized, packed, tuples)


# --- the order induced on any member set --------------------------------------

def _induced(p, keep, label):
    """The order `p` induces on the members `keep`, convex or not, as a
    poset of its own with ranks from 0: `p`'s masks restricted to them."""
    keep = sorted(set(keep))
    where = {i: a for a, i in enumerate(keep)}

    def restrict(mask):
        out = 0
        for i in bits(mask):
            if i in where:
                out |= 1 << where[i]
        return out

    sub = Poset.__new__(Poset)
    sub.elements = [p.elements[i] for i in keep]
    sub.kind, sub.label, sub.n = p.kind, label, p.n
    base = min((p.rank[i] for i in keep), default=0)
    sub.rank = [p.rank[i] - base for i in keep]
    sub.index = {w: a for a, w in enumerate(sub.elements)}
    sub.below = [restrict(p.below[i]) for i in keep]
    sub.above = [restrict(p.above[i]) for i in keep]
    sub.hasse_up = []
    for a, up in enumerate(sub.above):
        strict = up ^ (1 << a)
        sub.hasse_up.append([j for j in bits(strict)
                             if strict & sub.below[j] == 1 << j])
    sub.hasse_down = _hasse_lower_covers(sub)
    return sub


def test_induced_order_matches_abs_leq_on_nonconvex_sets():
    rng = random.Random(20260816)
    for kind, n in (("B", 3), ("D", 4), ("S", 4)):
        ambient = full_poset(kind, n)
        for _ in range(6):
            keep = rng.sample(range(len(ambient)),
                              rng.randint(1, len(ambient) // 2))
            sub = _induced(ambient, keep, "sample")
            members = sub.elements
            assert members == [ambient.elements[i] for i in sorted(keep)]
            assert min(sub.rank) == 0
            leq = [[abs_leq(u, v, kind) for v in members] for u in members]
            for i in range(len(sub)):
                assert sub.below[i] == sum(1 << j for j in range(len(sub))
                                           if leq[j][i])
                assert sub.above[i] == sum(1 << j for j in range(len(sub))
                                           if leq[i][j])
                strict_up = [j for j in range(len(sub)) if j != i and leq[i][j]]
                assert sub.hasse_up[i] == [
                    j for j in strict_up
                    if not any(leq[m][j] for m in strict_up if m != j)]


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
        keys.append(lambda w: min(g * w * g.inverse() for g in s_n))
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
        assert topology._conjugation_invariant(
            p, _types(p, mask)) is verdicts[-1]
    assert sum(verdicts) >= 8 and verdicts.count(False) >= 8


def _types(p, mask):
    """Each member's cycle type, the table `_gap_polys` keeps."""
    return {v: cycle_type(p.elements[v]) for v in bits(mask)}


def _eliminate(levels):
    """`topology._homology_from_faces` on every level, each counted by its
    length."""
    return topology._homology_from_faces(levels, list(map(len, levels)))


def _every_chain(p, mask, face_guard=None):
    """`topology._chains_in_mask`'s labels and its chains as tuple faces,
    the top level, which it only counts, built by `every_face`."""
    indices, levels, counts = topology._chains_in_mask(p, mask, face_guard)
    return indices, every_face(levels, counts)


def _every_level(c):
    """The packed levels of `c`, its top built by `every_face`."""
    return packed(every_face(c.levels, c.counts))


def _paired_four_cycle_ideal():
    """The ideal of B4 generated by the S_4-conjugates of ((1,-2,3,-4)):
    closed under conjugation by S_4 but not by B_4."""
    w = parse_cycles("((1,-2,3,-4))", 4)
    gens = {g * w * g.inverse() for g in group_elements("S", 4)}
    return build_ideal(sorted(gens), "B",
                       label="S4-conjugates of ((1,-2,3,-4))")


GAP_CASES = {
    "S4": (lambda: coxeter_ideal(4, "S"), "endpoints"),
    "S4-ends-kept": (lambda: coxeter_ideal(4, "S"), "none"),
    "S5": (lambda: coxeter_ideal(5, "S"), "endpoints"),
    "coxeter-ideal-B3": (lambda: coxeter_ideal(3, "B"), "endpoints"),
    "coxeter-ideal-B4": (lambda: coxeter_ideal(4, "B"), "endpoints"),
    "D4": (lambda: full_poset("D", 4), "endpoints"),
    "paired-four-cycles": (_paired_four_cycle_ideal, "endpoints"),
    "B5-above-a-reflection": (lambda: build_interval(
        parse_cycles("((1,2))", 5), parse_cycles("[1,2,3,4,5]", 5), "B"),
        "endpoints"),
}


def _direct_gap(c, lo, hi):
    p, mask = c.poset, c.member_mask
    if lo is not None:
        mask &= p.above[lo] & ~(1 << lo)
    if hi is not None:
        mask &= p.below[hi] & ~(1 << hi)
    return topology._poly_of(topology._homology_from_faces(
        *topology._chains_in_mask(p, mask)[1:]))


def _edges_by_index(c):
    """The gaps between the two ends of an edge, lower end first."""
    return by_index(c.indices, tuples(c.levels)[1:2])[0]


@pytest.mark.parametrize("name", GAP_CASES)
def test_every_gap_polynomial_matches_its_direct_elimination(name):
    # every gap of every face is a gap of a vertex or an edge
    build, strip = GAP_CASES[name]
    c = order_complex(build(), strip=strip)
    gap = topology._gap_polys(c, topology.homology(c))
    vertices = list(bits(c.member_mask))
    ends = ([(None, None)] + [(None, v) for v in vertices]
            + [(v, None) for v in vertices] + _edges_by_index(c))
    for lo, hi in ends:
        assert gap(lo, hi) == _direct_gap(c, lo, hi), (name, lo, hi)


def test_an_s_invariant_ideal_of_b4_is_not_keyed_by_signed_class():
    p = _paired_four_cycle_ideal()
    mask = order_complex(p, strip="endpoints").member_mask
    assert _closed_under_conjugation(p, mask, "S")
    assert not _closed_under_conjugation(p, mask, "B")
    assert not topology._conjugation_invariant(p, _types(p, mask))


def test_cm_check_eliminates_each_one_sided_class_once(monkeypatch):
    calls = []
    eliminate = topology._homology_from_faces

    def counting(levels, counts):
        calls.append(len(counts))
        return eliminate(levels, counts)

    c = order_complex(coxeter_ideal(4, "B"), strip="endpoints")
    types = {cycle_type(c.poset.elements[v]) for v in bits(c.member_mask)}
    monkeypatch.setattr(topology, "_homology_from_faces", counting)
    assert cm_check(c).ok
    # the whole complex, 11 signed cycle types of intervals, one gap above
    # an element per member cycle type
    assert len(calls) <= 1 + 11 + len(types)


def _counting_reads(monkeypatch):
    """The gaps `cm_check` reads, in order, once `_gap_polys` is wrapped."""
    reads = []
    gap_polys = topology._gap_polys

    def counting(c, whole):
        gap = gap_polys(c, whole)
        return lambda lo, hi: reads.append((lo, hi)) or gap(lo, hi)

    monkeypatch.setattr(topology, "_gap_polys", counting)
    return reads


def test_cm_check_reads_each_distinct_gap_once(monkeypatch):
    # edge gaps at most two ranks high are antichains, checked here never to
    # fail, on a CM complex and on D4, which is not; on the lower set that
    # the stripped B4 Coxeter ideal is, no edge gap is read at all
    reads = _counting_reads(monkeypatch)
    for name in ("D4", "coxeter-ideal-B4"):
        build, strip = GAP_CASES[name]
        c = order_complex(build(), strip=strip)
        p = c.poset
        skipped = [(lo, hi) for lo, hi in _edges_by_index(c)
                   if p.rank[hi] - p.rank[lo] <= 2]
        for lo, hi in skipped:
            assert not any(_direct_gap(c, lo, hi)[:-1]), (name, lo, hi)
        reads.clear()
        assert cm_check(c).ok is (name != "D4")
    # the last, CM, complex reads the empty face's gap and the gaps below
    # and above each vertex, each once
    f = c.f_vector()
    assert len(reads) == len(set(reads)) == 1 + 2 * f[0] == 561
    assert not set(reads) & set(skipped)


_LOWER_SET_CASES = [name for name in GAP_CASES
                    if name not in ("S4-ends-kept", "B5-above-a-reflection")]


def _two_ended_spans(c):
    """The gaps `cm_check` skips on a lower set of the group: the edges
    more than two ranks high, and each vertex's gap up to a stripped top."""
    p, (_, top) = c.poset, topology._stripped_ends(c)
    edges = _edges_by_index(c) if c.dim() > 0 else []
    spans = [(lo, hi) for lo, hi in edges if p.rank[hi] - p.rank[lo] > 2]
    return spans + ([(v, None) for v in bits(c.member_mask)]
                    if top is not None else [])


@pytest.mark.parametrize("name", _LOWER_SET_CASES)
def test_each_span_of_a_lower_set_is_a_gap_below_a_member(name):
    build, strip = GAP_CASES[name]
    c = order_complex(build(), strip=strip)
    p = c.poset
    assert order._group_lower_set(p, c.member_mask | 1)
    spans = _two_ended_spans(c)
    assert bool(spans) is (p.height() > 3), name  # stripped, rank > 2 apart
    for lo, hi in spans:
        z = p.index[p.elements[lo].inverse() * p.elements[hi]]
        assert c.member_mask >> z & 1, (name, lo, hi)
        assert _direct_gap(c, lo, hi) == _direct_gap(c, None, z), (name, lo, hi)


def test_each_gap_up_to_a_stripped_top_is_a_gap_below_a_member():
    top = parse_cycles("[1,2,3,4]", 4)
    c = order_complex(build_interval(identity(4), top, "B"), strip="endpoints")
    p = c.poset
    assert topology._stripped_ends(c) == (0, len(p) - 1)
    assert order._group_lower_set(p, (1 << len(p)) - 1)
    for v in bits(c.member_mask):
        z = p.index[p.elements[v].inverse() * top]
        assert c.member_mask >> z & 1
        assert _direct_gap(c, v, None) == _direct_gap(c, None, z), v


def test_cm_check_skips_spans_only_on_a_lower_set(monkeypatch):
    # an interval of B5 above a reflection, S4 with its ends kept and the
    # two induced subposets of B3 that are not lower sets read every span;
    # the stripped B4 Coxeter ideal and [e, [1,2,3,4]] read none
    reads = _counting_reads(monkeypatch)
    cases = [(GAP_CASES[name][0](), GAP_CASES[name][1], False)
             for name in ("B5-above-a-reflection", "S4-ends-kept")]
    cases += [(p, "endpoints", False) for p in _not_lower_sets_of_b3()]
    cases += [(coxeter_ideal(4, "B"), "endpoints", True),
              (build_interval(identity(4), parse_cycles("[1,2,3,4]", 4),
                              "B"), "endpoints", True)]
    for p, strip, lower_set in cases:
        c = order_complex(p, strip=strip)
        spans = _two_ended_spans(c)
        reads.clear()
        assert cm_check(c).ok, p.label
        assert spans or p.label in ("B3 without [1][3]", "rank 2 skipped")
        if lower_set:
            assert spans and not set(spans) & set(reads), p.label
        else:
            assert set(spans) <= set(reads), p.label


def test_lower_set_test_does_not_trust_the_cover_builder(monkeypatch):
    # the covers of every w with w(n) < 0 lose one: the poset is built
    # from them, but the count off the orbits rejects it, so verify_el
    # walks from every element; [3] loses its only cover, e, so there is no
    # bottom to strip and cm_check, failing at once, never asks
    right = order._lower_covers

    def one_short(images, kind="B"):
        covers = right(images, kind)
        return covers[1:] if images[-1] < 0 else covers

    monkeypatch.setattr(order, "_lower_covers", one_short)
    p = full_poset("B", 3)
    assert not order._group_lower_set(p, (1 << len(p)) - 1)
    asked = []

    def recording(poset, mask):
        asked.append(order._group_lower_set(poset, mask))
        return asked[-1]

    for module in (labeling, topology):
        monkeypatch.setattr(module, "_group_lower_set", recording)
    report = verify_el(p)
    assert report == _verify_el_per_interval(p, support_size_label)
    assert asked == [False]
    c = order_complex(p, strip="endpoints")
    assert p.bottom() is None and not cm_check(c).ok
    assert asked == [False]


# --- one lattice test ---------------------------------------------------------

def _maximal_of(p, mask):
    return [i for i in bits(mask) if p.above[i] & mask == 1 << i]


def _minimal_of(p, mask):
    return [i for i in bits(mask) if p.below[i] & mask == 1 << i]


def _meet_failure_by_maximal(p, members):
    """The all-pairs scan `_meet_failure` replaces: list the maximal common
    lower bounds of each incomparable pair."""
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
        cases.append(_induced(b3, keep, f"sample {k}"))
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
        witness = lattice._meet_failure(p)
        _assert_same_verdict(p, witness,
                             _meet_failure_by_maximal(p, range(len(p))))
        subposets_with_failures += witness is not None
    assert subposets_with_failures >= 10


def _assert_same_verdict(p, witness, by_maximal):
    """`_meet_failure`'s witness fails where the all-pairs scan finds a
    failing pair, and names a pair of p with other than one maximal common
    lower bound, listed as `_maximal_of` lists them."""
    assert (witness is None) == (by_maximal is None), p.label
    if witness is not None:
        where = {repr(w): i for i, w in enumerate(p.elements)}
        i, j = where[witness["x"]], where[witness["y"]]
        tops = _maximal_of(p, p.below[i] & p.below[j])
        assert len(tops) != 1, p.label
        assert witness["maximal_lower_bounds"] == sorted(
            repr(p.elements[t]) for t in tops), p.label


def test_meet_failure_of_each_interval_matches_the_members_below_its_top():
    for ambient in _lattice_cases()[:3]:
        e = identity(ambient.n)
        for top, w in enumerate(ambient.elements):
            interval = build_interval(e, w, ambient.kind)
            _assert_same_verdict(
                interval, lattice._meet_failure(interval),
                _meet_failure_by_maximal(ambient,
                                         list(bits(ambient.below[top]))))


def test_meet_failure_reaches_the_only_pair_of_lower_covers_of_the_top():
    # the bowtie e < ((1,3)), ((2,4)) < x, y < [1,2][3,4] induced from the
    # D4 interval: only x and y, the top's one pair of lower covers, fail
    interval = build_interval(identity(4), parse_cycles("[1,2][3,4]", 4), "D")
    witness = lattice._meet_failure(interval)
    keep = [interval.index[parse_cycles(text, 4)] for text in
            ("e", "((1,3))", "((2,4))", witness["x"], witness["y"],
             "[1,2][3,4]")]
    bowtie = _induced(interval, keep, "bowtie")
    assert [len(up) for up in bowtie.hasse_up] == [2, 2, 2, 1, 1, 0]
    assert lattice._meet_failure(bowtie) == witness
    _assert_same_verdict(bowtie, witness,
                         _meet_failure_by_maximal(bowtie, range(6)))


# --- EL by label states, one walk per bottom ---------------------------------

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


def _el_cases():
    """Whole groups, the B4 Coxeter interval and the B3 flip interval."""
    return [full_poset("B", 3), full_poset("S", 4), full_poset("D", 4),
            build_interval(identity(4), parse_cycles("[1,2,3,4]", 4), "B"),
            build_interval(identity(3), parse_cycles("[1][2][3]", 3), "B")]


@pytest.mark.parametrize("labeler", [support_size_label,
                                     collapsed_reflection_label])
def test_verify_el_matches_per_interval_enumeration(labeler):
    verdicts = []
    for p in _el_cases():
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


def test_el_chain_guard_trips_before_any_chain_is_labeled(monkeypatch):
    def no_label(a, b):
        raise AssertionError("labeled a chain before the guard was checked")

    monkeypatch.setattr(labeling, "CHAIN_GUARD", 3)
    p = full_poset("B", 3)
    with pytest.raises(ResourceGuardError,
                       match=r"^interval \[e, \[1,-3\]\] exceeds 3 maximal "
                             r"chains$"):
        verify_el(p, labeler=no_label)
    with pytest.raises(ResourceGuardError) as expected:
        _verify_el_per_interval(p, support_size_label, chain_guard=3)
    with pytest.raises(ResourceGuardError) as got:
        verify_el(p)
    assert str(got.value) == str(expected.value)


def _hasse_lower_covers(p):
    return [[i for i, ups in enumerate(p.hasse_up) if j in ups]
            for j in range(len(p))]


def _lower_set_by_abs_leq(p):
    """Whether p holds e and every group element below one of its members."""
    members = set(p.elements)
    return identity(p.n) in members and all(
        z in members for z in group_elements(p.kind, p.n)
        if any(abs_leq(z, w, p.kind) for w in p.elements))


def _not_lower_sets_of_b3():
    """Induced subposets of B3 with bottom e that are not lower sets: B3
    without [1][3], whose upper covers miss a lower cover, and
    [e, [1][2][3]] without its rank 2, whose lower-cover counts all match
    the group's but whose top covers the atoms."""
    b3 = full_poset("B", 3)
    gone = b3.index[parse_cycles("[1][3]", 3)]
    missing = _induced(b3, [i for i in range(len(b3)) if i != gone],
                       "B3 without [1][3]")
    top = b3.index[parse_cycles("[1][2][3]", 3)]
    skipping = _induced(b3, [i for i in bits(b3.below[top])
                             if b3.rank[i] != 2], "rank 2 skipped")
    return missing, skipping


def test_only_lower_sets_of_the_group_walk_from_e_alone():
    # each half of the precondition alone rejects one of the two subposets
    missing, skipping = _not_lower_sets_of_b3()
    assert _graded(missing, (1 << len(missing)) - 1)
    assert not _graded(skipping, (1 << len(skipping)) - 1)
    assert all(len(lower) == len(_lower_covers(w, "B"))
               for lower, w in zip(_hasse_lower_covers(skipping),
                                   skipping.elements))
    b3 = full_poset("B", 3)
    rng = random.Random(20261020)
    cases = [missing, skipping, b3, full_poset("S", 4), full_poset("D", 4),
             build_interval(identity(4), parse_cycles("[1,2,3,4]", 4), "B"),
             coxeter_ideal(3, "B")]
    cases += [build_ideal(rng.sample(b3.elements, 3), "B") for _ in range(4)]
    cases += [_induced(b3, [0] + rng.sample(range(1, len(b3)), k), "sample")
              for k in (8, 16, 32)]
    for p in cases:
        assert (order._group_lower_set(p, (1 << len(p)) - 1)
                == _lower_set_by_abs_leq(p)), p.label
    # B3 without [1][3] fails above [3] only, where a walk from e is blind
    for p, bottom in ((missing, "[3]"), (skipping, "e")):
        report = verify_el(p)
        assert report == _verify_el_per_interval(p, support_size_label)
        assert report.failure["bottom"] == bottom


def _lower_set_by_covers(p, mask):
    """Whether `mask` holds e and the group's lower covers of each member."""
    members = {p.elements[i] for i in bits(mask)}
    return identity(p.n) in members and all(
        z in members for w in members for z in _lower_covers(w, p.kind))


@pytest.mark.parametrize("kind,n", [("B", 3), ("S", 4), ("D", 4)])
def test_lower_set_test_matches_the_covers_on_partial_masks(kind, n):
    # random ideals, each less a maximal member, less e, and intervals
    # [u, v] with u other than e; every mask but the ideals lacks e or a
    # cover, and the empty mask is no lower set
    p = full_poset(kind, n)
    rng = random.Random(20261042)
    ideals, others = [], [0, (1 << len(p)) - 2]
    for _ in range(8):
        ideal = 0
        for g in rng.sample(range(len(p)), rng.randint(1, 4)):
            ideal |= p.below[g]
        top = rng.choice(lattice._maximal_of(p, ideal))
        u = rng.randrange(1, len(p))
        v = rng.choice(list(bits(p.above[u])))
        ideals += [ideal, ideal & ~(1 << top)]
        others += [ideal & ~1, p.above[u] & p.below[v]]
    for mask in ideals + others:
        assert (order._group_lower_set(p, mask)
                == _lower_set_by_covers(p, mask)), (kind, mask)
    assert all(order._group_lower_set(p, mask) for mask in ideals if mask)
    assert not any(order._group_lower_set(p, mask) for mask in others)


def test_other_labelers_walk_from_every_element():
    # negated on the covers out of [3], the letter label fails above [3]
    # only, which a lower set's walk from e alone would not see
    b3, flip = full_poset("B", 3), parse_cycles("[3]", 3)

    def label(a, b):
        return support_size_label(a, b) * (-1 if a == flip else 1)

    report = verify_el(b3, labeler=label)
    assert report == _verify_el_per_interval(b3, label)
    assert report.failure["bottom"] == "[3]"


def test_walk_from_e_labels_each_hasse_edge_once(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return support_size_label(a, b)

    monkeypatch.setattr(labeling, "support_size_label", counted)
    for p in (full_poset("B", 3), full_poset("S", 4)):
        calls.clear()
        report = verify_el(p)
        assert report.ok
        assert report == _verify_el_per_interval(p, support_size_label)
        assert len(calls) == len(set(calls)) == sum(map(len, p.hasse_up))


# --- homology by lowest cofaces ----------------------------------------------

def _homology_by_boundary_matrices(faces_by_dim):
    """Cohomology with clearing on explicit columns: every boundary map is
    built and transposed, and each column's lowest row found by max."""
    if not faces_by_dim or not faces_by_dim[0]:
        return HomologyProfile(())
    ranks = [1] + [0] * len(faces_by_dim)
    cleared = {len(faces_by_dim[0]) - 1}
    for d in range(len(faces_by_dim) - 1):
        columns = [{} for _ in faces_by_dim[d]]
        for i, col in enumerate(boundary_columns(faces_by_dim, d + 1)):
            for r, v in col.items():
                columns[r][i] = v
        pivots = {}
        for j, col in enumerate(columns):
            low = None if j in cleared else max(col, default=None)
            while low in pivots:
                v = col[low]
                for r, pv in pivots[low].items():
                    col[r] = col.get(r, 0) - v * pv
                    if not col[r]:
                        del col[r]
                low = max(col, default=None)
            if low is not None:
                pivots[low] = normalized(col, low)
        ranks[d + 1] = len(pivots)
        cleared = pivots
    betti = tuple(len(faces) - ranks[d] - ranks[d + 1]
                  for d, faces in enumerate(faces_by_dim))
    return HomologyProfile(betti)


def _chains_by_stack_and_sort(p, mask, face_guard=topology.FACE_GUARD):
    """Chains of the induced subposet on `mask`, each grown upward from its
    largest element in any order, then every dimension sorted."""
    faces_by_dim = []
    total = 0
    stack = [((v,), p.above[v] & mask & ~(1 << v)) for v in bits(mask)]
    while stack:
        chain, up = stack.pop()
        d = len(chain) - 1
        while len(faces_by_dim) <= d:
            faces_by_dim.append([])
        faces_by_dim[d].append(chain)
        total += 1
        if total > face_guard:
            raise ResourceGuardError(
                f"face guard exceeded: the poset {p.label!r} has more than "
                f"the guard {face_guard} chains")
        for v in bits(up):
            stack.append((chain + (v,), up & p.above[v] & ~(1 << v)))
    for faces in faces_by_dim:
        faces.sort()
    return faces_by_dim


def _chains_by_index(p, mask):
    """The walk `_chains_in_mask` made before it labelled members in
    rank-descending order: level by level, each chain extended by the
    members above its top in ascending poset-index order."""
    above = {v: [*bits(p.above[v] & mask & ~(1 << v))] for v in bits(mask)}
    faces_by_dim, chains = [], [()]
    while True:
        chains = [chain + (v,) for chain in chains
                  for v in (above[chain[-1]] if chain else above)]
        if not chains:
            return faces_by_dim
        faces_by_dim.append(chains)


LABEL_ORDER_CASES = {
    **{f"{kind}{n}": lambda kind=kind, n=n: full_poset(kind, n)
       for kind, n in (("S", 3), ("S", 4), ("S", 5), ("B", 2), ("B", 3),
                       ("B", 4), ("D", 4))},
    **{f"coxeter-ideal-{kind}{n}": lambda kind=kind, n=n: coxeter_ideal(n, kind)
       for kind, n in (("B", 2), ("B", 3), ("B", 4), ("D", 4))},
    "interval-coxeter-B5": lambda: build_interval(
        identity(5), balanced_cycle((1, 2, 3, 4, 5), 5), "B"),
    "interval-flips-B5": lambda: build_interval(
        identity(5), invariants.flip_interval_top(5), "B"),
}


def _same_as_the_index_walk(p, mask):
    """The chains of `mask` under both walks agree after mapping, and so do
    their Betti numbers and torsion."""
    indices, faces = _every_chain(p, mask)
    ranks = [p.rank[v] for v in indices]
    assert ranks == sorted(ranks, reverse=True)
    assert all(level == sorted(level) for level in faces)
    old = _chains_by_index(p, mask)
    assert by_index(indices, faces) == old
    new_profile = topology._homology_from_faces(
        *topology._chains_in_mask(p, mask)[1:])
    old_profile = _eliminate(packed(old))
    assert new_profile == old_profile
    assert new_profile.torsion == old_profile.torsion
    return new_profile


@pytest.mark.parametrize("name", LABEL_ORDER_CASES)
def test_rank_descending_labels_match_the_index_walk(name):
    p = LABEL_ORDER_CASES[name]()
    profile = _same_as_the_index_walk(
        p, topology._strip_mask(p, "endpoints", (1 << len(p)) - 1))
    # only the D4 Coxeter ideal has torsion, the same in either order
    assert any(profile.torsion.values()) is (name == "coxeter-ideal-D4")


def test_rank_descending_labels_match_the_index_walk_on_random_submasks():
    rng = random.Random(20261025)
    for p in (full_poset("B", 3), full_poset("S", 5), coxeter_ideal(4, "B")):
        for k in range(30):
            density = rng.uniform(0.1, 0.5)
            mask = sum(1 << i for i in range(len(p)) if rng.random() < density)
            _same_as_the_index_walk(p, mask)


def _by_rank_then_index(c):
    """The faces of the order complex `c` over the labels it had when ties
    within a rank were broken by poset index, not by the reversed image
    tuple: each face ascending, each dimension sorted."""
    p = c.poset
    label = {v: k for k, v in enumerate(
        sorted(c.indices, key=lambda v: (-p.rank[v], v)))}
    return [sorted(tuple(sorted(label[c.indices[v]] for v in face))
                   for face in faces)
            for faces in every_face(c.levels, c.counts)]


def _same_under_index_ties(c):
    """Betti numbers and torsion of `c` equal those of its relabelling by
    poset index within each rank; returns the profile and whether the two
    label orders differ."""
    p = c.poset
    assert c.indices == sorted(
        c.indices, key=lambda v: (-p.rank[v], p.elements[v][::-1]))
    relabelled = _by_rank_then_index(c)
    profile = topology.homology(c)
    assert profile == _eliminate(packed(relabelled)), c.label
    return profile, relabelled != every_face(c.levels, c.counts)


@pytest.mark.parametrize("kind", ["B", "D"])
def test_reversed_image_ties_keep_the_homology_of_each_class_interval(kind):
    # one [e, w] per signed cycle type of B4 and D4, with its ends and
    # without: the same Betti numbers and torsion under either tie-break
    types = {}
    for w in group_elements(kind, 4):
        types.setdefault(cycle_type(w), w)
    moved = 0
    for w in types.values():
        iv = build_interval(identity(4), w, kind)
        for strip in ("endpoints", "none"):
            profile, differ = _same_under_index_ties(
                order_complex(iv, strip=strip))
            assert not any(profile.torsion.values())
            moved += differ
    assert moved > 0


@pytest.mark.parametrize("kind,n,torsion", [
    ("S", 4, {}), ("S", 5, {}), ("B", 3, {}), ("B", 4, {}),
    ("D", 4, {3: [2, 2]}),
], ids=["S4", "S5", "B3", "B4", "D4"])
def test_reversed_image_ties_keep_the_homology_of_coxeter_ideals(kind, n,
                                                                 torsion):
    profile, differ = _same_under_index_ties(
        order_complex(coxeter_ideal(n, kind), strip="endpoints"))
    assert {d: f for d, f in profile.torsion.items() if f} == torsion
    assert differ


def _homology_posets():
    return [full_poset("S", 4), full_poset("S", 5), full_poset("B", 3),
            full_poset("D", 4), coxeter_ideal(3, "B"), coxeter_ideal(4, "B")]


@pytest.mark.parametrize("strip", ["endpoints", "none"])
def test_homology_matches_boundary_matrix_elimination(strip):
    profiles = []
    for p in _homology_posets():
        c = order_complex(p, strip=strip)
        profiles.append(topology.homology(c))
        assert profiles[-1].reduced_betti == _homology_by_boundary_matrices(
            every_face(c.levels, c.counts)).reduced_betti, p.label
    # stripped, D4 has homology below its top dimension; with their ends
    # kept, all six complexes are cones
    assert sum(not h.concentrated_in_top() for h in profiles) == (
        strip == "endpoints")


def test_homology_and_chains_match_on_random_submasks():
    # random members at random densities: induced subposets that are not
    # convex, whose complexes often have homology below their top dimension
    rng = random.Random(20261023)
    low_homology = 0
    for p in (full_poset("B", 3), full_poset("S", 5), coxeter_ideal(4, "B")):
        for k in range(40):
            density = rng.uniform(0.1, 0.5)
            mask = sum(1 << i for i in range(len(p)) if rng.random() < density)
            indices, faces = _every_chain(p, mask)
            assert by_index(indices, faces) == _chains_by_stack_and_sort(
                p, mask), (p.label, k)
            profile = _eliminate(packed(faces))
            assert profile.reduced_betti == _homology_by_boundary_matrices(
                faces).reduced_betti, (p.label, k)
            low_homology += not profile.concentrated_in_top()
    assert low_homology >= 20


def _random_non_flag_complex(rng):
    """The face closure of random top faces on 5-9 vertices: where the
    edges of a triangle come from different tops, the triangle is no face."""
    vertices = rng.randint(5, 9)
    return closure(sorted(rng.sample(range(vertices), rng.choice(
        (1, 2, 2, 3, 3, 4)))) for _ in range(rng.randint(2, 10)))


def _skips_a_common_neighbour(faces_by_dim):
    """Whether some face below the top dimension, with a common neighbour u
    of all its vertices, does not span a face with u: the complex is not
    flag there."""
    faces = {face for dim_faces in faces_by_dim for face in dim_faces}
    edges = faces_by_dim[1] if len(faces_by_dim) > 1 else []
    adjacent = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    vertices = [v for v, in faces_by_dim[0]]
    return any(tuple(sorted(face + (u,))) not in faces
               for dim_faces in faces_by_dim[:-1] for face in dim_faces
               for u in vertices if all((v, u) in adjacent for v in face))


def test_homology_matches_boundary_matrix_elimination_on_non_flag_complexes():
    # the elimination refuses exactly the complexes with a clique that is
    # no face below their top dimension; a missing clique above it (a
    # hollow top simplex) changes no coboundary it reduces
    rng = random.Random(20261024)
    refused = low_homology = 0
    for k in range(200):
        faces = _random_non_flag_complex(rng)
        if _skips_a_common_neighbour(faces):
            with pytest.raises(ValueError, match="^not a flag complex at "):
                _eliminate(packed(faces))
            refused += 1
            continue
        profile = _eliminate(packed(faces))
        assert profile.reduced_betti == _homology_by_boundary_matrices(
            faces).reduced_betti, (k, faces)
        low_homology += not profile.concentrated_in_top()
    assert refused >= 100
    assert low_homology >= 20


def _homology_by_grouped_scan(levels):
    """`topology._homology_from_faces` with its runs grouped by
    `itertools.groupby` and the splice offset of a highest common neighbour
    u below the last vertex found by walking down the vertices above u."""
    if not levels or not levels[0]:
        return HomologyProfile(())
    w = topology._width(levels)
    tail = (1 << w) - 1
    neighbours = topology._neighbours(levels, w)
    get = neighbours.__getitem__
    ranks = [1] + [0] * len(levels)
    cleared = {levels[0][-1]}
    torsion = {}
    for d in range(len(levels) - 1):
        shifts = range(w * d, -1, -w)
        pivots, extensions, deferred = {}, 0, []
        for prefix, faces in itertools.groupby(levels[d], w.__rrshift__):
            shared = -1
            for s in shifts[1:]:
                shared &= neighbours[prefix >> s & tail]
            for face in faces:
                last = face & tail
                common = shared & neighbours[last]
                above = common >> last + 1
                extensions += above.bit_count()
                if face in cleared or not common:
                    continue
                u = common.bit_length() - 1
                if above:
                    low = face << w | u
                else:
                    s = w
                    while face >> s & tail > u:
                        s += w
                    low = (face >> s << w | u) << s | face & (1 << s) - 1
                if low not in pivots:
                    pivots[low] = face
                    continue
                col = dict(topology._cofaces(face, shifts, common))
                while low in pivots:
                    topology._subtract(col, col[low], topology._pivot(
                        pivots, low, get, shifts))
                    low = max(col, default=None)
                if low is None:
                    continue
                if col[low] in (1, -1):
                    pivots[low] = topology._normalized(col, low)
                else:
                    deferred.append(col)
        if extensions != len(levels[d + 1]):
            raise ValueError(f"not a flag complex at dimension {d}")
        factors = []
        if deferred:
            for low in sorted(pivots, reverse=True):
                for col in deferred:
                    if low in col:
                        topology._subtract(col, col[low], topology._pivot(
                            pivots, low, get, shifts))
            factors = topology._smith_form(deferred, d + 1)
        ranks[d + 1] = len(pivots) + len(factors)
        torsion[d + 1] = [v for v in factors if v > 1]
        for low in pivots:
            pivots[low] = None
        cleared = pivots
    betti = tuple(len(faces) - ranks[d] - ranks[d + 1]
                  for d, faces in enumerate(levels))
    return HomologyProfile(betti, torsion)


def _random_flag_complex(rng):
    """The cliques of a dense random graph on 11-14 vertices, by dimension."""
    vertices = rng.randint(11, 14)
    density = rng.uniform(0.6, 0.75)
    adjacent = {(a, b) for a, b in itertools.combinations(range(vertices), 2)
                if rng.random() < density}
    faces, level = [], [(v,) for v in range(vertices)]
    while level:
        faces.append(level)
        level = [face + (u,) for face in level
                 for u in range(face[-1] + 1, vertices)
                 if all((v, u) in adjacent for v in face)]
    return faces


def _splice_depths(faces_by_dim):
    """The numbers of vertices above the highest common neighbour u of a
    face, over the faces whose u lies below their last vertex."""
    edges = faces_by_dim[1] if len(faces_by_dim) > 1 else []
    adjacent = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    vertices = [v for v, in faces_by_dim[0]]
    depths = set()
    for dim_faces in faces_by_dim:
        for face in dim_faces:
            common = [u for u in vertices
                      if all((v, u) in adjacent for v in face)]
            if common and max(common) < face[-1]:
                depths.add(sum(v > max(common) for v in face))
    return depths


def test_homology_matches_the_grouped_scan():
    # the stripped Coxeter ideals, D4's with torsion, and random flag
    # complexes of dimension 4 and up, where a splice meets every depth
    levels = [_every_level(order_complex(coxeter_ideal(n, kind),
                                         strip="endpoints"))
              for kind, n in (("B", 4), ("S", 5), ("D", 4))]
    rng = random.Random(20261041)
    complexes = [_random_flag_complex(rng) for _ in range(20)]
    assert all(len(faces) >= 5 for faces in complexes)
    assert all(_splice_depths(faces) == set(range(1, len(faces)))
               for faces in complexes)
    levels += map(packed, complexes)
    profiles = [_eliminate(lv) for lv in levels]
    assert profiles == [_homology_by_grouped_scan(lv) for lv in levels]
    assert profiles[2].torsion == {1: [], 2: [], 3: [2, 2]}
    assert sum(not h.concentrated_in_top() for h in profiles[3:]) >= 5


def test_torsion_guard_refuses_the_d4_ideal_as_the_grouped_scan(monkeypatch):
    monkeypatch.setattr(topology, "TORSION_GUARD", 293)
    levels = _every_level(order_complex(coxeter_ideal(4, "D"),
                                        strip="endpoints"))
    refusals = []
    for scan in (_eliminate, _homology_by_grouped_scan):
        with pytest.raises(ResourceGuardError, match="98x3") as got:
            scan(levels)
        refusals.append(str(got.value))
    assert refusals[0] == refusals[1]


PACKING_CASES = {
    "B3": lambda: full_poset("B", 3),
    "D4": lambda: full_poset("D", 4),
    "S5": lambda: full_poset("S", 5),
    "coxeter-ideal-B4": lambda: coxeter_ideal(4, "B"),
    "flips-D4": lambda: build_interval(
        identity(4), parse_cycles("[1][2][3][4]", 4), "D"),
}


def _same_as_the_tuple_walk(c):
    """The tuple view of `c` holds the chains the stack walk finds, each
    face and each dimension ascending, and packs back to its levels."""
    faces = every_face(c.levels, c.counts)
    assert by_index(c.indices, faces) == _chains_by_stack_and_sort(
        c.poset, c.member_mask), c.label
    assert all(level == sorted(level) for level in c.levels)
    assert all(level == sorted(level) and all(
        all(a < b for a, b in zip(face, face[1:])) for face in level)
        for level in faces)
    assert packed(faces)[:len(c.levels)] == c.levels


@pytest.mark.parametrize("strip", ["endpoints", "none"])
@pytest.mark.parametrize("name", PACKING_CASES)
def test_packed_faces_read_back_as_the_tuple_chains(name, strip):
    _same_as_the_tuple_walk(order_complex(PACKING_CASES[name](), strip=strip))


@pytest.mark.parametrize("strip", ["endpoints", "none"])
def test_packed_faces_read_back_as_the_tuple_chains_on_random_masks(strip):
    rng = random.Random(20261030)
    for p in (full_poset("B", 3), full_poset("S", 5), coxeter_ideal(4, "B")):
        for k in range(15):
            density = rng.uniform(0.1, 0.6)
            mask = sum(1 << i for i in range(len(p)) if rng.random() < density)
            _same_as_the_tuple_walk(
                SimplicialComplex(p, mask, strip, f"{p.label} {k}"))


def test_faces_packed_past_64_bits_keep_their_betti_numbers():
    # labels of 10,000 and up take 14 bits each, so a 4-face packs into 70:
    # S5 with its ends and random member sets of it, relabelled in order
    rng = random.Random(20261031)
    p = full_poset("S", 5)
    masks = [(1 << len(p)) - 1] + [
        sum(1 << i for i in range(len(p)) if rng.random() < 0.5)
        for _ in range(12)]
    wide = low_homology = 0
    for mask in masks:
        faces = [[tuple(10_000 + 3 * v for v in face) for face in level]
                 for level in _every_chain(p, mask)[1]]
        levels, counts = levels_and_counts(faces)
        wide += len(levels) == 5 and levels[4][-1].bit_length() > 64
        profile = topology._homology_from_faces(levels, counts)
        assert profile.reduced_betti == _homology_by_boundary_matrices(
            faces).reduced_betti, mask
        low_homology += any(profile.reduced_betti)
    assert wide >= 5 and low_homology >= 3


def test_face_guard_trips_one_past_the_guard_with_the_same_message():
    p = full_poset("B", 3)
    mask = topology._strip_mask(p, "endpoints", (1 << len(p)) - 1)
    total = sum(topology._chains_in_mask(p, mask)[2])
    indices, faces = _every_chain(p, mask, face_guard=total)
    assert by_index(indices, faces) == (
        _chains_by_stack_and_sort(p, mask))
    with pytest.raises(ResourceGuardError) as expected:
        _chains_by_stack_and_sort(p, mask, face_guard=total - 1)
    with pytest.raises(ResourceGuardError) as got:
        topology._chains_in_mask(p, mask, face_guard=total - 1)
    assert str(got.value) == str(expected.value) == (
        f"face guard exceeded: the poset 'full' has more than the guard "
        f"{total - 1} chains")


def test_face_guard_refuses_a_level_before_building_it():
    # stripped B4: a guard of f_0 = 383 refuses the 9,658 edges, so the call
    # must never hold them (B4, not B3, so that they outweigh the labels);
    # 9 bits a label, each edge packs into an int below 2^18
    p = full_poset("B", 4)
    mask = topology._strip_mask(p, "endpoints", (1 << len(p)) - 1)
    f_0 = mask.bit_count()
    f_1 = sum((p.above[v] & mask).bit_count() - 1 for v in bits(mask))
    assert (f_0, f_1) == (383, 9658)
    edge_bytes = f_1 * (8 + sys.getsizeof(1 << 17))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match=f"the guard {f_0} "):
            topology._chains_in_mask(p, mask, face_guard=f_0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < edge_bytes


# --- the counted top ----------------------------------------------------------

def _stripped(p):
    return p, topology._strip_mask(p, "endpoints", (1 << len(p)) - 1)


def _whole(p):
    return p, (1 << len(p)) - 1


def _less_e(p):
    return p, (1 << len(p)) - 2


def _rank_one_of_b3():
    p = full_poset("B", 3)
    return p, sum(1 << i for i in range(len(p)) if p.rank[i] == 1)


def _rank_three_interval():
    return build_interval(identity(3), parse_cycles("[1,2,3]", 3), "B")


COUNTED_TOP_CASES = {
    "coxeter-ideal-B4": lambda: _stripped(coxeter_ideal(4, "B")),
    "coxeter-ideal-D4": lambda: _stripped(coxeter_ideal(4, "D")),
    "S5": lambda: _whole(full_poset("S", 5)),
    "interval-coxeter-B5": lambda: _whole(
        LABEL_ORDER_CASES["interval-coxeter-B5"]()),
    "interval-flips-B5": lambda: _whole(
        LABEL_ORDER_CASES["interval-flips-B5"]()),
    "one-vertex": lambda: _whole(full_poset("S", 1)),
    "antichain": _rank_one_of_b3,
    "two-element-chain": lambda: _whole(full_poset("S", 2)),
    "rank-3-interval": lambda: _whole(_rank_three_interval()),
    "rank-3-interval-less-e": lambda: _less_e(_rank_three_interval()),
}
# the complexes of dimension 0 to 2: the top is built at 0 and 1, counted at 2
SMALL_DIMS = {"one-vertex": 0, "antichain": 0, "two-element-chain": 1,
              "rank-3-interval-less-e": 2}


def _complex_of(name):
    p, mask = COUNTED_TOP_CASES[name]()
    return p, mask, SimplicialComplex(p, mask, "none", name)


@pytest.mark.parametrize("name", COUNTED_TOP_CASES)
def test_the_f_vector_counts_the_chains_by_size(name):
    # the top level is counted from dimension 2 up and built below it
    p, mask, c = _complex_of(name)
    sizes = p.chain_counts(mask)[1:]
    assert list(c.f_vector()) == sizes and c.face_count() == sum(sizes)
    assert c.to_json()["dim"] == c.dim() == len(sizes) - 1
    assert [len(level) for level in c.levels] == sizes[:len(c.levels)]
    assert len(c.levels) == len(sizes) - (len(sizes) > 2), name
    assert c.dim() == SMALL_DIMS.get(name, c.dim())


def _every_level_by_the_stack(c):
    """`c` built again, its levels then replaced by every level from the
    stack walk, relabelled as `c` labels its members, and its counts by
    the lengths of those levels."""
    every = SimplicialComplex(c.poset, c.member_mask, "none", "every level")
    label = {v: k for k, v in enumerate(every.indices)}
    faces = [sorted(tuple(sorted(label[v] for v in face)) for face in level)
             for level in _chains_by_stack_and_sort(c.poset, c.member_mask)]
    every.levels, every.counts = levels_and_counts(faces)
    return every


@pytest.mark.parametrize("name", COUNTED_TOP_CASES)
def test_the_levels_and_a_top_built_here_are_the_chains(name):
    # the levels and a top level built by `every_face` are the chains of
    # the stack walk, and the elimination, the top only counted, gives the
    # profile of the complex with every level built
    p, mask, c = _complex_of(name)
    faces = every_face(c.levels, c.counts)
    assert [len(level) for level in faces] == list(c.f_vector())
    assert by_index(c.indices, faces) == _chains_by_stack_and_sort(p, mask)
    every = _every_level_by_the_stack(c)
    assert packed(faces) == every.levels
    assert topology.homology(c) == topology.homology(every)
    assert topology.homology(c).torsion == topology.homology(every).torsion


def test_homology_and_cm_check_match_every_level_built_on_random_masks():
    # random member sets and random ideals (which reach the failing walk
    # past the empty face) of B4, S5 and D4
    rng = random.Random(20261042)
    counted = walked = 0
    for p in (full_poset("B", 4), full_poset("S", 5), full_poset("D", 4)):
        for k in range(16):
            if k % 2:
                mask = sum(1 << i for i in range(len(p))
                           if rng.random() < rng.uniform(0.05, 0.3))
            else:
                mask = 0
                for g in rng.sample(range(len(p)), rng.randint(1, 3)):
                    mask |= p.below[g]
            for strip in ("none", "endpoints"):
                c = SimplicialComplex(p, mask, strip, f"{p.label} {k}")
                every = _every_level_by_the_stack(c)
                assert every.counts == c.counts, (p.label, k)
                assert topology.homology(c) == topology.homology(every), (
                    p.label, k)
                report = cm_check(c)
                assert report == cm_check(every), (p.label, k)
                counted += len(c.levels) < len(c.counts)
                walked += not report.ok and report.faces_checked > 1
    assert counted >= 60 and walked >= 10  # 78 of 96 and 13


@pytest.mark.parametrize("build,strip,top", [
    (lambda: full_poset("B", 3), "none", 3),
    (lambda: full_poset("B", 3), "endpoints", 2),
    (lambda: full_poset("S", 3), "endpoints", 1),
    (lambda: coxeter_ideal(4, "B"), "endpoints", 3),
], ids=["B3", "B3-less-e", "S3-less-e", "coxeter-ideal-B4"])
def test_the_face_guard_refuses_at_the_total_with_the_top_counted(build,
                                                                 strip, top):
    # B3 and S3 have no greatest element: only e is stripped
    p = build()
    mask = topology._strip_mask(p, strip, (1 << len(p)) - 1)
    total = sum(p.chain_counts(mask)[1:])
    indices, levels, counts = topology._chains_in_mask(
        p, mask, face_guard=total)
    assert sum(counts) == total and len(counts) == top + 1
    assert len(levels) == len(counts) - (top >= 2)
    with pytest.raises(ResourceGuardError, match=f"the guard {total - 1} "):
        topology._chains_in_mask(p, mask, face_guard=total - 1)


def test_the_flag_check_reads_the_builders_count():
    # one top face counted too many or too few: the scan's total of common
    # neighbours below the top no longer matches
    c = order_complex(coxeter_ideal(4, "B"), strip="endpoints")
    assert len(c.levels) == 3
    for wrong in (12_287, 12_289):
        with pytest.raises(ValueError, match=(
                f"^not a flag complex at dimension 2: 12288 common "
                f"neighbours above the last vertices of its faces, "
                f"{wrong} faces of dimension 3$")):
            topology._homology_from_faces(c.levels, c.counts[:3] + [wrong])


# --- antichain gaps ----------------------------------------------------------

@pytest.mark.parametrize("name,antichains,two_ended", [
    ("coxeter-ideal-B4", 4456, 5408), ("S5", 1375, 1689),
    ("S4-ends-kept", None, None), ("D4", None, None)])
def test_antichain_gaps_match_the_oracle_without_elimination(
        name, antichains, two_ended, monkeypatch):
    build, strip = GAP_CASES[name]
    c = order_complex(build(), strip=strip)
    p = c.poset
    gap = topology._gap_polys(c, topology.homology(c))
    bottom, top = (end if end is not None and not c.member_mask >> end & 1
                   else None for end in (p.bottom(), p.top()))
    vertices = list(bits(c.member_mask))
    ends = ([(None, v) for v in vertices] + [(v, None) for v in vertices]
            + _edges_by_index(c))
    spans = {}  # two-ended gaps; an open end at a stripped bottom or top
    for lo, hi in ends:
        x, y = bottom if lo is None else lo, top if hi is None else hi
        if x is not None and y is not None:
            spans[lo, hi] = (x, y)
    flat = [gap_ends for gap_ends, (x, y) in spans.items()
            if p.rank[y] - p.rank[x] <= 2]

    def no_call(*args):
        raise AssertionError("an antichain gap was eliminated or keyed")

    for attr in ("_homology_from_faces", "cycle_type"):
        monkeypatch.setattr(topology, attr, no_call)
    polys = {(lo, hi): gap(lo, hi) for lo, hi in flat}
    monkeypatch.undo()
    for (lo, hi), poly in polys.items():
        assert poly == _direct_gap_by_oracle(c, lo, hi), (name, lo, hi)
    if antichains is not None:
        assert (len(flat), len(spans)) == (antichains, two_ended)
    assert {len(poly) for poly in polys.values()} == {1, 2}


def _direct_gap_by_oracle(c, lo, hi):
    p, mask = c.poset, c.member_mask
    if lo is not None:
        mask &= p.above[lo] & ~(1 << lo)
    if hi is not None:
        mask &= p.below[hi] & ~(1 << hi)
    return topology._poly_of(_homology_by_boundary_matrices(
        _chains_by_stack_and_sort(p, mask)))


# --- the fiber law on distinct projections -----------------------------------

def _fiber_identity_by_pairs(ambient, i=None):
    """The fiber law with the componentwise order evaluated on every
    (element, fiber point) pair."""
    i = ambient.n if i is None else i
    image = [(project_pi(w, i), w(i) != i) for w in ambient.elements]
    points = {}
    for idx, point in enumerate(image):
        points.setdefault(point, set()).add(idx)
    for (q_base, q_moved), fiber in points.items():
        preimage = {idx for idx, (base, moved) in enumerate(image)
                    if moved <= q_moved
                    and abs_leq(base, q_base, ambient.kind)}
        generated = set()
        for g in fiber:
            generated.update(bits(ambient.below[g]))
        if preimage != generated:
            return False
    return True


def test_fiber_identity_matches_the_pairwise_check():
    # whole groups and Coxeter ideals satisfy the law for every deleted
    # letter; seeded subsets of B3, mostly not ideals, often break it
    cases = [full_poset("S", 3), full_poset("S", 4), full_poset("B", 3),
             coxeter_ideal(3, "B"), coxeter_ideal(4, "B")]
    b3 = cases[2]
    rng = random.Random(20261025)
    for k in range(24):
        keep = rng.sample(range(len(b3)), rng.randint(4, 40))
        cases.append(_induced(b3, keep, f"sample {k}"))
    verdicts = []
    for p in cases:
        for i in range(1, p.n + 1):
            verdicts.append(fiber_ideal_identity_ok(p, i))
            assert verdicts[-1] is _fiber_identity_by_pairs(p, i), (p.label, i)
    assert verdicts[:17] == [True] * 17
    assert verdicts.count(False) >= 20


def _fiber_identity_by_abs_leq(ambient, i=None):
    """The fiber law with `abs_leq` called on each pair of distinct
    projections, each call computing both lengths and the inverse again."""
    image = _fibers(ambient, ambient.n if i is None else i)
    for base, fibers in image.items():
        lower = [0, 0]
        for b, masks in image.items():
            if abs_leq(b, base, ambient.kind):
                lower = [lower[0] | masks[0], lower[1] | masks[1]]
        for moved, fiber in enumerate(fibers):
            generated = 0
            for g in bits(fiber):
                generated |= ambient.below[g]
            if fiber and generated != lower[0] | (lower[1] if moved else 0):
                return False
    return True


def test_fiber_identity_matches_the_abs_leq_route():
    # S3-S5 and the B2-B4 Coxeter ideals keep the law for every deleted
    # letter; seeded subsets of S4, mostly not ideals, often break it
    cases = [full_poset("S", n) for n in (3, 4, 5)]
    cases += [coxeter_ideal(n, "B") for n in (2, 3, 4)]
    s4 = cases[1]
    rng = random.Random(20261019)
    samples = [_induced(s4, rng.sample(range(len(s4)), rng.randint(4, 16)),
                        f"sample {k}") for k in range(12)]
    verdicts = []
    for p in cases + samples:
        for i in range(1, p.n + 1):
            verdicts.append(fiber_ideal_identity_ok(p, i))
            assert verdicts[-1] is _fiber_identity_by_abs_leq(p, i), (
                p.label, i)
    assert verdicts[:21] == [True] * 21
    assert verdicts.count(False) >= 10


# --- fiber ideals and cover lifting as masks on one ambient -------------------

def _ideal_checks_per_fiber(kind, n):
    """`appendix_ideal_checks` with each ideal built as a poset of its own:
    the long-cycle generators filtered from the whole group, the base
    elements from the Coxeter ideal one letter down, each fiber found by
    projecting every ambient element again.  Returns the checks and the
    element set of each ideal."""
    checks, members = [], []

    def check(name, gens, expected_rank):
        ideal = build_ideal(gens, kind)
        checks.append(IdealCheck(
            name, len(ideal), ideal.height(), expected_rank,
            _graded(ideal, (1 << len(ideal)) - 1),
            cm_check(order_complex(ideal, strip="endpoints"))))
        members.append(set(ideal.elements))

    letters = tuple(range(1, n))
    if n >= 3:
        group = full_poset(kind, n)
        targets = ([("plain", paired_cycle(letters, n), n - 1)] if kind == "S"
                   else [("pair-type", paired_cycle(letters, n), n - 1),
                         ("balanced", balanced_cycle(letters, n), n)])
        for flavor, target, expected_rank in targets:
            check(f"{flavor} long-cycle fiber ideal",
                  [v for v in group.elements
                   if len(cycle_decomposition(v)) == 1
                   and project_pi(v, n) == target], expected_rank)
    ambient = coxeter_ideal(n, kind)
    for u in coxeter_ideal(n - 1, kind).elements:
        u = SignedPermutation(u + (n,))
        check(f"fiber ideal over {format_cycles(u)}",
              [v for v in ambient.elements if project_pi(v, n) == u],
              absolute_length(u, kind) + 1)
    return checks, members


@pytest.mark.parametrize("kind,n", [("S", 2), ("S", 3), ("S", 4), ("S", 5),
                                    ("B", 2), ("B", 3), ("B", 4)])
def test_ideal_checks_match_the_per_fiber_posets(kind, n, monkeypatch):
    expected, expected_members = _ideal_checks_per_fiber(kind, n)
    members = []
    checked_ideal = topology._checked_ideal

    def recording(name, ambient, mask, expected_rank):
        members.append({ambient.elements[i] for i in bits(mask)})
        return checked_ideal(name, ambient, mask, expected_rank)

    monkeypatch.setattr(topology, "_checked_ideal", recording)
    got = appendix_ideal_checks(coxeter_ideal(n, kind))
    assert [c.to_json() for c in got] == [c.to_json() for c in expected]
    assert members == expected_members


def _cover_lifting_by_lifts(ambient, i=None):
    """Cover lifting with the lifts of each u listed and every (w, u) pair
    compared."""
    i = ambient.n if i is None else i
    proj = [project_pi(v, i) for v in ambient.elements]
    fixed = [k for k, u in enumerate(ambient.elements) if u(i) == i]
    lifts = {}
    for ui in fixed:
        lifts[ui] = [
            vi for vi in range(len(ambient.elements))
            if vi != ui and proj[vi] == ambient.elements[ui]
            and ambient.rank[vi] == ambient.rank[ui] + 1
            and ambient.leq(ui, vi)
        ]
    for wi in range(len(ambient.elements)):
        pwi = ambient.index[proj[wi]]
        for ui in fixed:
            if ambient.leq(pwi, ui) and not any(ambient.leq(wi, vi)
                                                for vi in lifts[ui]):
                return False
    return True


def test_cover_lifting_matches_the_per_lift_check():
    # whole groups and Coxeter ideals lift covers for every deleted letter;
    # seeded ideals of B3, whose lifts may lie outside, often do not
    cases = [full_poset("S", 3), full_poset("S", 4), full_poset("S", 5),
             full_poset("B", 3), full_poset("B", 4), coxeter_ideal(3, "B"),
             coxeter_ideal(4, "B"), coxeter_ideal(5, "B")]
    b3 = cases[3]
    rng = random.Random(20261026)
    for k in range(12):
        gens = rng.sample(b3.elements, rng.randint(1, 4))
        cases.append(build_ideal(gens, "B", label=f"sample {k}"))
    verdicts = []
    for p in cases:
        for i in range(1, p.n + 1):
            verdicts.append(cover_lifting_ok(p, i))
            assert verdicts[-1] is _cover_lifting_by_lifts(p, i), (p.label, i)
    assert verdicts[:31] == [True] * 31
    assert verdicts.count(False) >= 24


# --- chain counts from one sweep, zeta and multichains from them --------------

def _chain_counts_by_dict(p):
    """counts[j] = number of chains of j elements, j >= 0, from one dict of
    chain sizes per element, each filled from the elements below it."""
    k = len(p.elements)
    ending = [{1: 1} for _ in range(k)]
    counts = [1, k]
    for j in range(k):
        for i in bits(p.below[j] ^ (1 << j)):
            for size, cnt in ending[i].items():
                ending[j][size + 1] = ending[j].get(size + 1, 0) + cnt
    top_size = max((max(d) for d in ending if d), default=1)
    for size in range(2, top_size + 1):
        counts.append(sum(d.get(size, 0) for d in ending))
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def test_chain_counts_match_the_dict_per_element_on_random_masks():
    rng = random.Random(20261106)
    for p in (full_poset("B", 3), full_poset("D", 4), coxeter_ideal(4, "B")):
        everything = (1 << len(p)) - 1
        assert p.chain_counts() == _chain_counts_by_dict(p), p.label
        assert p.chain_counts(everything) == p.chain_counts()
        assert p.chain_counts(0) == _chain_counts_by_dict(
            _induced(p, [], "empty")) == [1]
        for k in range(40):
            density = rng.uniform(0.05, 0.6)
            keep = [i for i in range(len(p)) if rng.random() < density]
            mask = sum(1 << i for i in keep)
            assert p.chain_counts(mask) == _chain_counts_by_dict(
                _induced(p, keep, "sample")), (p.label, k)


def _multichain_count_by_recursion(p, m):
    """Multichains x_1 <= ... <= x_(m-1), the recursion started afresh."""
    if m == 1:
        return 1
    below_lists = [list(bits(mask)) for mask in p.below]
    counts = [1] * len(p)
    for _ in range(m - 2):
        counts = [sum(counts[i] for i in below) for below in below_lists]
    return sum(counts)


def _lagrange_by_fractions(points):
    """Sum of y_i prod_(j != i) (t - x_j) / (x_i - x_j) over Fractions."""
    total = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, scale = [Fraction(1)], Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if i != j:
                basis = [(basis[k - 1] if k else 0)
                         - (basis[k] * xj if k < len(basis) else 0)
                         for k in range(len(basis) + 1)]
                scale /= Fraction(xi) - Fraction(xj)
        for k, c in enumerate(basis):
            total[k] += scale * c
    return total


def _zeta_cases():
    """The `_el_cases` posets, seeded subposets of B3, whose Hasse edges
    need not be covers of the group, and intervals of all three families."""
    cases = _el_cases()
    rng = random.Random(20261022)
    for k in range(8):
        keep = rng.sample(range(len(cases[0])), rng.randint(10, 40))
        cases.append(_induced(cases[0], keep, f"sample {k}"))
    return cases + [
        build(n) for n in range(1, 5) for build in (
            invariants.build_coxeter_interval, invariants.build_flip_interval)
    ] + [invariants.build_cycle_flip_interval(k, r)
         for k, r in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3))]


def test_multichain_sweep_matches_the_recursion_for_each_m():
    for p in _zeta_cases():
        want = [_multichain_count_by_recursion(p, m) for m in range(1, 8)]
        got = [invariants.multichain_count(p, m) for m in range(1, 8)]
        assert got == want, p.label


def test_zeta_matches_the_lagrange_form_of_the_recursion():
    bounded = 0
    for p in _zeta_cases():
        if not p.is_bounded():
            with pytest.raises(ValueError, match="needs a bounded poset"):
                invariants.zeta_polynomial(p)
            continue
        points = [(m, _multichain_count_by_recursion(p, m))
                  for m in range(1, p.height() + 3)]
        assert invariants.zeta_polynomial(p) == invariants.RationalPolynomial(
            _lagrange_by_fractions(points)), p.label
        bounded += 1
    assert bounded == 16


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_annular_mixing_facts_match_the_recursion(k):
    interval = invariants.build_cycle_flip_interval(k, 1)
    mixing = set(invariants.mixing_indices(interval, k))
    rest = _induced(interval, [i for i in range(len(interval))
                               if i not in mixing], "mixing-free")
    facts = invariants.annular_mixing_facts(k)
    assert facts.ok() and facts.cardinality == len(mixing)
    assert facts.multichain_counts == {
        m: _multichain_count_by_recursion(interval, m)
        - _multichain_count_by_recursion(rest, m) for m in range(1, 7)}


# --- Moebius numbers by the Hall recursion, ends by the mask rule -------------

def _mobius_by_recursion(p, x, y):
    """mu(x, y) by the defining recursion up from x."""
    values = {}
    for z in bits(p.above[x] & p.below[y]):
        inner = p.above[x] & p.below[z] & ~(1 << z)
        values[z] = 1 if z == x else -sum(values[i] for i in bits(inner))
    return values[y]


def _ends_by_scan(p):
    """(bottom, top): the only element of rank 0 (of the top rank) when it
    is comparable with every element, else None."""
    everything = range(len(p))
    mins = [i for i in everything if p.rank[i] == 0]
    maxs = [i for i in everything if p.rank[i] == p.height()]
    bottom = (mins[0] if len(mins) == 1
              and all(p.leq(mins[0], j) for j in everything) else None)
    top = (maxs[0] if len(maxs) == 1
           and all(p.leq(i, maxs[0]) for i in everything) else None)
    return bottom, top


def _hall_cases():
    b3 = full_poset("B", 3)
    cases = [b3, full_poset("D", 4), full_poset("S", 4), coxeter_ideal(3, "B")]
    rng = random.Random(20261018)
    for k in range(30):
        if k % 2:
            keep = rng.sample(range(len(b3)), rng.randint(1, 40))
        else:  # below an element that is kept, so that it is the top
            w = rng.randrange(len(b3))
            below = list(bits(b3.below[w]))
            keep = [w] + rng.sample(below, rng.randint(0, len(below)))
        cases.append(_induced(b3, keep, f"sample {k}"))
    return cases


def test_mobius_matches_the_defining_recursion_on_every_pair():
    pairs = 0
    for p in _hall_cases():
        for y in range(len(p)):
            for x in bits(p.below[y]):
                assert invariants.mobius(p, x, y) == _mobius_by_recursion(
                    p, x, y), (p.label, x, y)
                pairs += 1
    assert pairs == 6551


def test_bottom_and_top_match_the_rank_scans():
    ends = []
    for p in _hall_cases():
        ends.append((p.bottom(), p.top()))
        assert ends[-1] == _ends_by_scan(p), p.label
        assert p.is_bounded() is (None not in ends[-1])
    # bounded, bottom only, top only, neither
    kinds = [(bottom is None, top is None) for bottom, top in ends]
    assert [kinds.count(k) for k in itertools.product((False, True),
                                                      repeat=2)] == [14, 11, 2, 7]


# --- Lower covers by the orbit rule ------------------------------------------

def _lower_covers_by_trial(w, kind):
    """The image tuples of every product w*t by a reflection of the kind,
    kept when its length is one less than that of w."""
    length = absolute_length(w, "B") - 1
    return {w * t for t in reflection_set(kind, w.n)
            if absolute_length(w * t, "B") == length}


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in "SBD"
                                    for n in range(5)] + [("B", 5)])
def test_lower_covers_match_every_reflection_product(kind, n):
    for w in group_elements(kind, n):
        got = _lower_covers(w, kind)
        assert len(got) == len(set(got)), format_cycles(w)
        assert set(got) == _lower_covers_by_trial(w, kind), format_cycles(w)


def _lower_covers_by_swaps(images, kind):
    """The orbit rule with one call per product, as the covers were built
    before each product was built inline."""
    def swap(a, b):
        new, i, j = list(images), abs(a) - 1, abs(b) - 1
        sign = 1 if (a > 0) == (b > 0) else -1
        new[i], new[j] = sign * images[j], sign * images[i]
        return tuple(new)

    out, balanced = [], []
    for orbit, is_balanced in signed._orbits(images):
        if is_balanced:
            balanced += [abs(a) for a in orbit]
        else:
            out += [swap(a, b) for p, a in enumerate(orbit) for b in orbit[p + 1:]]
    for p, i in enumerate(balanced):
        if kind == "B":
            out.append(swap(i, -i))
        for j in balanced[p + 1:]:
            out += [swap(i, j), swap(i, -j)]
    return out


@pytest.mark.parametrize("kind", "BD")
def test_lower_covers_keep_the_order_of_the_swap_rule(kind):
    for n in range(6):
        for w in group_elements(kind, n):
            assert _lower_covers(w, kind) == \
                _lower_covers_by_swaps(w, kind), format_cycles(w)


@pytest.mark.parametrize("kind,n", [("S", 5), ("B", 4), ("D", 5)])
def test_lower_cover_count_off_the_orbits_matches_the_built_covers(kind, n):
    for w in group_elements(kind, n):
        assert order._lower_cover_count(w, kind) == len(
            _lower_covers(w, kind)), format_cycles(w)


# --- the group by sign vectors -------------------------------------------------

@pytest.mark.parametrize("kind", "SD")
def test_enumeration_matches_the_membership_filter_of_b(kind):
    # D_n keeps the sign vectors with evenly many -1 and S_n the positive
    # one, where they were filtered out of B_n by `is_member`
    for n in range(6):
        assert list(group_elements(kind, n)) == \
            [w for w in group_elements("B", n) if is_member(w, kind)], n


# --- balanced profiles and Moebius products from the cycle type ---------------

def _mu_partition_by_decomposition(w):
    return tuple(sorted((len(entries) for kind, entries in cycle_decomposition(w)
                         if kind == "balanced"), reverse=True))


def _mobius_element_by_decomposition(w):
    words = cycle_decomposition(w)
    balanced = sum(1 for kind, _ in words if kind == "balanced")
    if balanced > 1:
        raise ValueError(
            "product form needs at most one balanced cycle, got %d" % balanced)
    value = 1
    for kind, entries in words:
        m = len(entries)
        if kind == "balanced":
            value *= (-1) ** m * comb(2 * m - 1, m)
        else:
            value *= (-1) ** (m - 1) * invariants.catalan(m - 1)
    return value


def _outcome(f, w):
    try:
        return f(w)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("kind", ["B", "D"])
def test_cycle_type_reads_match_the_decomposition(kind):
    refused = 0
    for w in group_elements(kind, 4):
        assert cycle_type(w)[1][::-1] == _mu_partition_by_decomposition(w), w
        got = _outcome(invariants.mobius_element, w)
        assert got == _outcome(_mobius_element_by_decomposition, w), w
        refused += isinstance(got, str)
    assert refused > 0


# --- the projection and the letter label off the image tuples ----------------

def _project_pi_by_cycles(w, i):
    """Delete +-i from the cycle word holding it and rebuild from cycles."""
    words = []
    for kind, entries in cycle_decomposition(w):
        entries = tuple(a for a in entries if abs(a) != i)
        if entries:
            words.append((kind, entries))
    return from_cycles(words, w.n)


def _label_by_product(a, b):
    """Largest letter moved by a^-1 b, from the product itself."""
    t = a.inverse() * b
    moved = [i for i in range(1, t.n + 1) if t(i) != i]
    if not moved:
        raise LabelingError("label of a loop edge is undefined")
    return max(moved)


def _seeded_elements(n, count, rng):
    return [SignedPermutation(x * rng.choice((1, -1))
                              for x in rng.sample(range(1, n + 1), n))
            for _ in range(count)]


def test_projection_matches_cycle_surgery():
    rng = random.Random(20261019)
    elements = [w for kind, n in (("S", 5), ("B", 4), ("D", 4))
                for w in group_elements(kind, n)]
    elements += _seeded_elements(6, 400, rng) + _seeded_elements(7, 400, rng)
    for w in elements:
        for i in range(1, w.n + 1):
            assert project_pi(w, i) == _project_pi_by_cycles(w, i), (w, i)
        for i in (0, w.n + 1):
            with pytest.raises(ValueError, match="out of range"):
                project_pi(w, i)


def test_letter_label_matches_the_product():
    pairs = [(p.elements[i], p.elements[j])
             for p in (full_poset("B", 4), full_poset("D", 4),
                       full_poset("S", 5))
             for i, ups in enumerate(p.hasse_up) for j in ups]
    rng = random.Random(20261020)
    pairs += zip(_seeded_elements(5, 2000, rng),
                 _seeded_elements(5, 2000, rng))
    for a, b in pairs:
        assert support_size_label(a, b) == _label_by_product(a, b), (a, b)
    for w in _seeded_elements(5, 20, rng):
        with pytest.raises(LabelingError, match="loop edge"):
            support_size_label(w, w)


# --- power series on plain integers -------------------------------------------

def _exp_by_fractions(coeffs, order):
    """exp by the f' = g'f recurrence over Fractions, term by term."""
    out = [Fraction(1)] + [Fraction(0)] * order
    for n in range(order):
        acc = Fraction(0)
        for k in range(n + 1):
            acc += (k + 1) * coeffs[k + 1] * out[n - k]
        out[n + 1] = acc / (n + 1)
    return out


def _sqrt_by_fractions(coeffs, order):
    """The square root by 2 r_n = f_n - sum_(0<k<n) r_k r_(n-k)."""
    out = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        acc = coeffs[n]
        for k in range(1, n):
            acc -= out[k] * out[n - k]
        out[n] = acc / 2
    return out


def _product_by_fractions(a, b, order):
    """The Cauchy product through degree `order`, over Fractions."""
    return [sum((a[k] * b[n - k] for k in range(n + 1)), Fraction(0))
            for n in range(order + 1)]


def _random_coefficients(rng, order):
    """Negative, zero, integer and non-integer coefficients, or all zero."""
    if rng.random() < 0.1:
        return [Fraction(0)] * (order + 1)
    return [Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 6, 7, 12)))
            if rng.random() < 0.8 else Fraction(0) for _ in range(order + 1)]


def _random_series_cases(seed):
    rng = random.Random(seed)
    for order in list(range(31)) * 4:
        yield order, _random_coefficients(rng, order)


def test_exp_matches_the_fraction_recurrence():
    for order, coeffs in _random_series_cases(20261101):
        coeffs[0] = Fraction(0)
        got = FormalPowerSeries(coeffs, order).exp()
        assert list(got.coeffs) == _exp_by_fractions(coeffs, order), (
            order, coeffs)


def test_sqrt_matches_the_fraction_recurrence():
    for order, coeffs in _random_series_cases(20261102):
        coeffs[0] = Fraction(1)
        got = FormalPowerSeries(coeffs, order).sqrt()
        assert list(got.coeffs) == _sqrt_by_fractions(coeffs, order), (
            order, coeffs)


def test_product_matches_the_fraction_convolution_at_mixed_orders():
    rng = random.Random(20261103)
    for order, a in _random_series_cases(20261104):
        other = rng.randint(0, 30)
        b = _random_coefficients(rng, other)
        common = min(order, other)
        got = FormalPowerSeries(a, order) * FormalPowerSeries(b, other)
        assert got.order == common
        assert list(got.coeffs) == _product_by_fractions(a, b, common), (
            a, b)


def test_exp_and_sqrt_keep_their_refusals():
    for c in (1, -1, Fraction(1, 2)):
        with pytest.raises(ValueError, match="exp needs a zero constant term"):
            FormalPowerSeries([c, 1, 2], 2).exp()
    for c in (0, 2, -1, Fraction(1, 2)):
        with pytest.raises(ValueError, match="sqrt needs constant term one"):
            FormalPowerSeries([c, 1, 2], 2).sqrt()
