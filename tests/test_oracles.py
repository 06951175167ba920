"""The structural checks' shortcuts against their definitional routes.

`cm_check` keys the gaps open at one end by conjugacy class and reads
antichain gaps off their size, `meet`, `join` and `_meet_failure` decide
existence by one mask comparison, `verify_el` keeps label states up from a
bottom in one walk, homology builds a coboundary column only when a
reduction needs it, chains come out sorted level by level over labels
descending in rank, the fiber law compares distinct projections, fiber
ideals and cover lifting are masks on one ambient poset, multichain counts
for every m come from one sweep, Moebius numbers come from the Hall
recursion on an open interval, a poset's bottom and top from its lowest
and highest element's masks, lower covers from the orbits of an element,
and the balanced profile and the Moebius product from the cycle type.
Each is compared here with the route it replaces.
"""

import itertools
import random
import sys
import tracemalloc
from math import comb

import pytest

from absorder import (
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
    full_poset,
    identity,
    join,
    join_position_labeler,
    meet,
    mu_partition,
    order_complex,
    paired_cycle,
    parse_cycles,
    project_pi,
    reflection_set,
    support_size_label,
    verify_el,
)
from absorder import invariants, labeling, lattice, topology
from absorder.labeling import ELReport
from absorder.order import _lower_covers, bits
from absorder.signed import SignedPermutation, cycle_type, group_elements
from absorder.topology import HomologyProfile, IdealCheck, _normalized


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
        topology._chains_in_mask(p, mask)[1]))


def _by_index(indices, faces_by_dim):
    """Faces over vertex labels as ascending tuples of the poset indices
    `indices` gives them, each dimension sorted."""
    return [sorted(tuple(sorted(indices[v] for v in face)) for face in faces)
            for faces in faces_by_dim]


def _edges_by_index(c):
    """The gaps between the two ends of an edge, lower end first."""
    return _by_index(c.indices, c.faces_by_dim[1:2])[0]


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


def test_cm_check_reads_each_distinct_gap_once(monkeypatch):
    reads = []
    gap_polys = topology._gap_polys

    def counting(c, whole):
        gap = gap_polys(c, whole)
        return lambda lo, hi: reads.append((lo, hi)) or gap(lo, hi)

    monkeypatch.setattr(topology, "_gap_polys", counting)
    c = order_complex(coxeter_ideal(4, "B"), strip="endpoints")
    assert cm_check(c).ok
    f = c.f_vector()
    assert len(reads) == len(set(reads)) == 1 + 2 * f[0] + f[1]


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


def test_verify_el_compares_first_sequences_of_one_length():
    # in the induced subposet [e, i] has chains labeled (2, 3) and
    # (2, 3, 1), so [e, y] has first sequence (2, 3, 1, 4), not the
    # increasing (2, 3, 4) that extends the first sequence (2, 3) of [e, i]
    names = ["((1,-4))((2,-3))", "[1]", "[1,-4]", "[1,-4]((2,-3))",
             "[1,-4,-2,3]"]
    e, (a, b, c, i, y) = identity(4), [parse_cycles(s, 4) for s in names]
    iv = build_interval(e, y, "B")
    p = iv.subposet([iv.index[w] for w in (e, a, b, c, i, y)],
                    label="chains of two lengths")
    labels = {(e, a): 2, (a, i): 3, (e, b): 2, (b, c): 3, (c, i): 1,
              (i, y): 4}
    labeler = lambda u, v: labels[u, v]  # noqa: E731
    report = verify_el(p, labeler=labeler).to_json()
    assert report == _verify_el_per_interval(p, labeler).to_json()
    assert report["failure"]["top"] == repr(y)
    assert report["failure"]["sequences"][0] == ["2", "3", "1", "4"]


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


# --- homology by lowest cofaces ----------------------------------------------

def _boundary_columns(faces_by_dim, d):
    """The boundary map from d-faces to (d-1)-faces, as row->sign columns."""
    row_index = {face: k for k, face in enumerate(faces_by_dim[d - 1])}
    return [{row_index[face[:k] + face[k + 1:]]: (-1) ** k
             for k in range(d + 1)} for face in faces_by_dim[d]]


def _homology_by_boundary_matrices(faces_by_dim):
    """Cohomology with clearing on explicit columns: every boundary map is
    built and transposed, and each column's lowest row found by max."""
    if not faces_by_dim or not faces_by_dim[0]:
        return HomologyProfile(())
    ranks = [1] + [0] * len(faces_by_dim)
    cleared = {len(faces_by_dim[0]) - 1}
    for d in range(len(faces_by_dim) - 1):
        columns = [{} for _ in faces_by_dim[d]]
        for i, col in enumerate(_boundary_columns(faces_by_dim, d + 1)):
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
                pivots[low] = _normalized(col, low)
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
    their Betti numbers and whether their eliminations met only +-1."""
    indices, faces = topology._chains_in_mask(p, mask)
    ranks = [p.rank[v] for v in indices]
    assert ranks == sorted(ranks, reverse=True)
    assert all(level == sorted(level) for level in faces)
    old = _chains_by_index(p, mask)
    assert _by_index(indices, faces) == old
    new_profile = topology._homology_from_faces(faces)
    old_profile = topology._homology_from_faces(old)
    assert new_profile == old_profile
    assert new_profile.unit_pivots == old_profile.unit_pivots
    return new_profile


@pytest.mark.parametrize("name", LABEL_ORDER_CASES)
def test_rank_descending_labels_match_the_index_walk(name):
    p = LABEL_ORDER_CASES[name]()
    profile = _same_as_the_index_walk(
        p, topology._strip_mask(p, "endpoints", (1 << len(p)) - 1))
    # the D4 Coxeter ideal meets a pivot other than +-1 in either order
    assert profile.unit_pivots is (name != "coxeter-ideal-D4")


def test_rank_descending_labels_match_the_index_walk_on_random_submasks():
    rng = random.Random(20261025)
    for p in (full_poset("B", 3), full_poset("S", 5), coxeter_ideal(4, "B")):
        for k in range(30):
            density = rng.uniform(0.1, 0.5)
            mask = sum(1 << i for i in range(len(p)) if rng.random() < density)
            _same_as_the_index_walk(p, mask)


def _homology_posets():
    return [full_poset("S", 4), full_poset("S", 5), full_poset("B", 3),
            full_poset("D", 4), coxeter_ideal(3, "B"), coxeter_ideal(4, "B")]


@pytest.mark.parametrize("strip", ["endpoints", "none"])
def test_homology_matches_boundary_matrix_elimination(strip):
    profiles = []
    for p in _homology_posets():
        faces = order_complex(p, strip=strip).faces_by_dim
        profiles.append(topology._homology_from_faces(faces))
        assert profiles[-1] == _homology_by_boundary_matrices(faces), p.label
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
            indices, faces = topology._chains_in_mask(p, mask)
            assert _by_index(indices, faces) == _chains_by_stack_and_sort(
                p, mask), (p.label, k)
            profile = topology._homology_from_faces(faces)
            assert profile == _homology_by_boundary_matrices(faces), (
                p.label, k)
            low_homology += not profile.concentrated_in_top()
    assert low_homology >= 20


def _random_non_flag_complex(rng):
    """The face closure of random top faces on 5-9 vertices: where the
    edges of a triangle come from different tops, the triangle is no face."""
    vertices = rng.randint(5, 9)
    return _closure(sorted(rng.sample(range(vertices), rng.choice(
        (1, 2, 2, 3, 3, 4)))) for _ in range(rng.randint(2, 10)))


def _closure(tops):
    """Faces by dimension, each sorted, of the complex the sorted `tops`
    generate."""
    faces = set()
    for top in tops:
        for k in range(1, len(top) + 1):
            faces.update(itertools.combinations(top, k))
    by_dim = [[] for _ in range(max(map(len, faces)))]
    for face in faces:
        by_dim[len(face) - 1].append(face)
    return [sorted(dim_faces) for dim_faces in by_dim]


def _skips_a_common_neighbour(faces_by_dim):
    """Whether some face with a common neighbour u of all its vertices does
    not span a face with u: the complex is not flag there."""
    faces = {face for dim_faces in faces_by_dim for face in dim_faces}
    edges = faces_by_dim[1] if len(faces_by_dim) > 1 else []
    adjacent = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    vertices = [v for v, in faces_by_dim[0]]
    return any(tuple(sorted(face + (u,))) not in faces
               for face in faces for u in vertices
               if all((v, u) in adjacent for v in face))


def test_homology_matches_boundary_matrix_elimination_on_non_flag_complexes():
    rng = random.Random(20261024)
    non_flag = low_homology = 0
    for k in range(200):
        faces = _random_non_flag_complex(rng)
        profile = topology._homology_from_faces(faces)
        assert profile == _homology_by_boundary_matrices(faces), (k, faces)
        non_flag += _skips_a_common_neighbour(faces)
        low_homology += not profile.concentrated_in_top()
    assert non_flag >= 100
    assert low_homology >= 100


@pytest.mark.parametrize("tops,betti", [
    # a 3-simplex and a hollow triangle: not flag at dimension 2, below a
    # dimension 3 that exists
    ([(0, 1, 2, 3), (4, 5), (4, 6), (5, 6)], (1, 1, 0, 0)),
    # a 4-simplex and the boundary of a 3-simplex: flag up to dimension 3
    ([(0, 1, 2, 3, 4)] + list(itertools.combinations(range(5, 9), 3)),
     (1, 0, 1, 0, 0)),
])
def test_homology_leaves_the_flag_path_where_a_clique_is_no_face(tops, betti):
    faces = _closure(tops)
    assert _skips_a_common_neighbour(faces)
    profile = topology._homology_from_faces(faces)
    assert profile == _homology_by_boundary_matrices(faces)
    assert profile.reduced_betti == betti


def test_face_guard_trips_one_past_the_guard_with_the_same_message():
    p = full_poset("B", 3)
    mask = topology._strip_mask(p, "endpoints", (1 << len(p)) - 1)
    total = sum(map(len, topology._chains_in_mask(p, mask)[1]))
    assert _by_index(*topology._chains_in_mask(p, mask, face_guard=total)) == (
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
    # must never hold them (freed 2-tuples are reused, hence B4, not B3)
    p = full_poset("B", 4)
    mask = topology._strip_mask(p, "endpoints", (1 << len(p)) - 1)
    f_0 = mask.bit_count()
    f_1 = sum((p.above[v] & mask).bit_count() - 1 for v in bits(mask))
    assert (f_0, f_1) == (383, 9658)
    edge_bytes = f_1 * (8 + sys.getsizeof((0, 0)))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match=f"the guard {f_0} "):
            topology._chains_in_mask(p, mask, face_guard=f_0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < edge_bytes


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

    for attr in ("_homology_from_faces", "build_interval", "cycle_type"):
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
        cases.append(b3.subposet(keep, label=f"sample {k}"))
    verdicts = []
    for p in cases:
        for i in range(1, p.n + 1):
            verdicts.append(fiber_ideal_identity_ok(p, i))
            assert verdicts[-1] is _fiber_identity_by_pairs(p, i), (p.label, i)
    assert verdicts[:17] == [True] * 17
    assert verdicts.count(False) >= 20


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
            ideal.is_graded_by_rank(),
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
                   if len(cycle_decomposition(v).cycles) == 1
                   and project_pi(v, n) == target], expected_rank)
    ambient = coxeter_ideal(n, kind)
    for u in coxeter_ideal(n - 1, kind).elements:
        u = SignedPermutation(u.images + (n,))
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


# --- multichain counts from one sweep -----------------------------------------

def _multichain_count_by_recursion(p, m):
    """Multichains x_1 <= ... <= x_(m-1), the recursion started afresh."""
    if m == 1:
        return 1
    below_lists = [list(bits(mask)) for mask in p.below]
    counts = [1] * len(p)
    for _ in range(m - 2):
        counts = [sum(counts[i] for i in below) for below in below_lists]
    return sum(counts)


def test_multichain_sweep_matches_the_recursion_for_each_m():
    posets = _el_cases(support_size_label) + [
        build(n) for n in range(1, 5) for build in (
            invariants.build_coxeter_interval, invariants.build_flip_interval)]
    for p in posets:
        want = [_multichain_count_by_recursion(p, m) for m in range(1, 8)]
        got = list(itertools.islice(invariants._multichain_counts(p), 7))
        assert got == want, p.label
        assert [invariants.multichain_count(p, m) for m in (1, 4)] == [
            want[0], want[3]]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_annular_mixing_facts_match_the_recursion(k):
    interval = invariants.build_cycle_flip_interval(k, 1)
    mixing = set(invariants.mixing_indices(interval, k))
    rest = interval.subposet(
        [i for i in range(len(interval)) if i not in mixing], "mixing-free")
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
        cases.append(b3.subposet(keep, label=f"sample {k}"))
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
    """Every product w*t by a reflection of the kind, kept when its length
    is one less than that of w."""
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


# --- balanced profiles and Moebius products from the cycle type ---------------

def _mu_partition_by_decomposition(w):
    return tuple(sorted((c.length for c in cycle_decomposition(w).balanced),
                        reverse=True))


def _mobius_element_by_decomposition(w):
    dec = cycle_decomposition(w)
    balanced = sum(1 for cyc in dec.cycles if cyc.kind == "balanced")
    if balanced > 1:
        raise ValueError(
            "product form needs at most one balanced cycle, got %d" % balanced)
    value = 1
    for cyc in dec.cycles:
        m = len(cyc.entries)
        if cyc.kind == "balanced":
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
        assert mu_partition(w) == _mu_partition_by_decomposition(w), w
        got = _outcome(invariants.mobius_element, w)
        assert got == _outcome(_mobius_element_by_decomposition, w), w
        refused += isinstance(got, str)
    assert refused > 0
