"""Order complexes, homology, Cohen-Macaulay checks, torsion, ideal battery."""

import itertools
import random

import pytest

from absorder import (
    ResourceGuardError,
    appendix_ideal_checks,
    build_interval,
    chain_euler_characteristic,
    cm_check,
    coxeter_ideal,
    full_poset,
    homology,
    identity,
    order_complex,
    parse_cycles,
    torsion_profile,
)
from absorder import order, topology
from absorder.order import bits
from absorder.topology import (SimplicialComplex, _boundary_columns,
                               _chains_in_mask, _homology_from_faces,
                               _invariant_factors, _normalized, _reduce,
                               _smith_normal_form_diagonal)


def test_stripped_coxeter_ideal_two_letters():
    c = order_complex(coxeter_ideal(2, "B"), strip="endpoints")
    assert c.f_vector() == (6, 8)
    h = homology(c)
    assert h.reduced_betti == (0, 3)
    assert h.euler == -3


def test_stripped_plain_posets():
    c3 = order_complex(full_poset("S", 3), strip="endpoints")
    assert c3.f_vector() == (5, 6)
    assert homology(c3).reduced_betti == (0, 2)
    c4 = order_complex(full_poset("S", 4), strip="endpoints")
    assert c4.f_vector() == (23, 102, 96)
    h4 = homology(c4)
    assert h4.reduced_betti == (0, 0, 16)
    assert h4.concentrated_in_top()


def test_stripped_coxeter_ideal_three_letters():
    c = order_complex(coxeter_ideal(3, "B"), strip="endpoints")
    assert c.f_vector() == (37, 204, 216)
    assert homology(c).reduced_betti == (0, 0, 48)


def test_bounded_interval_is_a_double_cone():
    iv = build_interval(identity(2), parse_cycles("[1,2]", 2), "B")
    c = order_complex(iv, strip="none")
    h = homology(c)
    assert h.reduced_betti == (0, 0, 0)
    assert h.euler == 0


def test_stripping_a_bounded_two_element_poset_empties_it():
    c = order_complex(full_poset("S", 2), strip="endpoints")
    assert c.f_vector() == ()
    assert c.dim() == -1
    h = homology(c)
    assert h.reduced_betti == ()
    assert h.euler == -1


def test_order_complex_rejects_unknown_strip():
    with pytest.raises(ValueError):
        order_complex(full_poset("S", 3), strip="top")


def test_chain_euler_matches_homology_euler():
    probes = (
        (full_poset("S", 3), "endpoints"),
        (full_poset("B", 2), "endpoints"),
        (build_interval(identity(3), parse_cycles("[1,2,3]", 3), "B"), "none"),
        (build_interval(identity(4), parse_cycles("[1][2][3][4]", 4), "D"),
         "endpoints"),
    )
    for p, strip in probes:
        counted = chain_euler_characteristic(p, strip=strip)
        assert counted == homology(order_complex(p, strip=strip)).euler


def test_disconnected_even_interval():
    iv = build_interval(identity(4), parse_cycles("[1][2][3][4]", 4), "D")
    c = order_complex(iv, strip="endpoints")
    assert c.f_vector() == (42, 108, 72)
    h = homology(c)
    assert h.reduced_betti == (2, 0, 3)
    assert h.euler == 5
    assert not h.concentrated_in_top()
    report = cm_check(c)
    assert not report.ok
    assert report.failing_face == ()
    assert report.failing_betti[0] == 2


def test_cm_holds_on_stripped_plain_poset():
    report = cm_check(order_complex(full_poset("S", 3), strip="endpoints"))
    assert report.ok
    assert report.failing_face is None
    assert report.mode == "all"


def _links_from_scratch(c):
    """The link criterion by eliminating every link on its own.

    The reference for `cm_check`, which multiplies gap homologies instead:
    here the link of a face is the set of vertices comparable with all of
    its elements, and its homology comes from its own chains.
    """
    p = c.poset
    comparable = {v: (p.below[v] | p.above[v]) & c.member_mask & ~(1 << v)
                  for v in bits(c.member_mask)}
    faces = [()] + [face for dim_faces in c.faces_by_dim for face in dim_faces]
    for checked, face in enumerate(faces, 1):
        mask = c.member_mask
        for v in face:
            mask &= comparable[v]
        profile = _homology_from_faces(_chains_in_mask(p, mask))
        if not profile.concentrated_in_top():
            return {"ok": False, "mode": "all", "faces_checked": checked,
                    "failing_face": [c.vertex_name(v) for v in face],
                    "failing_betti": list(profile.reduced_betti)}
    return {"ok": True, "mode": "all", "faces_checked": len(faces)}


def _oracle_complexes():
    four_flips = build_interval(identity(4), parse_cycles("[1][2][3][4]", 4), "D")
    cases = [
        ("coxeter-ideal-B3", order_complex(coxeter_ideal(3, "B"), strip="endpoints")),
        ("S4", order_complex(full_poset("S", 4), strip="endpoints")),
        ("four-flips-D4-endpoints", order_complex(four_flips, strip="endpoints")),
        ("four-flips-D4-none", order_complex(four_flips, strip="none")),
        ("empty", order_complex(full_poset("S", 2), strip="endpoints")),
    ]
    # Random subsets of B4 mostly fail at the empty face; subsets of an
    # interval [e, w] kept with both ends are double cones, which pass
    # there and mostly fail at a link further on.
    b4 = full_poset("B", 4)
    tops = [i for i in range(len(b4)) if b4.rank[i] == 4]
    rng = random.Random(20261018)
    for k in range(12):
        keep = rng.sample(range(len(b4)), rng.randint(12, 40))
        sub = b4.subposet(keep, label=f"sample {k}")
        cases.append((f"subposet-B4-{k}", order_complex(sub, strip="none")))
        w = rng.choice(tops)
        inside = [i for i in bits(b4.below[w]) if i not in (0, w)]
        keep = rng.sample(inside, rng.randint(8, 30)) + [0, w]
        sub = b4.subposet(keep, label=f"bounded sample {k}")
        cases.append((f"bounded-subposet-B4-{k}", order_complex(sub, strip="none")))
    return cases


def test_cm_check_matches_links_from_scratch():
    reports = {}
    for name, c in _oracle_complexes():
        reports[name] = cm_check(c).to_json()
        assert reports[name] == _links_from_scratch(c), name
    failing_faces = [r["failing_face"] for r in reports.values() if not r["ok"]]
    assert len(failing_faces) >= 20
    assert sum(len(face) > 1 for face in failing_faces) >= 10


def test_face_guard_trips():
    with pytest.raises(ResourceGuardError):
        order_complex(full_poset("B", 3), strip="endpoints", face_guard=10)


def test_torsion_free_small_complex(monkeypatch):
    # the one boundary map has 2 * 8 = 16 nonzeros
    c = order_complex(coxeter_ideal(2, "B"), strip="endpoints")
    assert torsion_profile(c) == {1: []}
    monkeypatch.setattr(topology, "TORSION_GUARD", 16)
    assert torsion_profile(c) == {1: []}
    monkeypatch.setattr(topology, "TORSION_GUARD", 15)
    with pytest.raises(ResourceGuardError):
        torsion_profile(c)


def test_torsion_guard_refuses_before_eliminating(monkeypatch):
    # the maps of stripped S5 have 3140, 12780 and 12000 nonzeros: under a
    # guard of 12779 dimension 1 is within it and dimension 2 is not, and
    # nothing may be eliminated first
    def no_elimination(*args):
        raise AssertionError("eliminated before the guard was checked")

    monkeypatch.setattr(topology, "_invariant_factors", no_elimination)
    monkeypatch.setattr(topology, "_smith_normal_form_diagonal", no_elimination)
    monkeypatch.setattr(topology, "TORSION_GUARD", 12779)
    c = order_complex(full_poset("S", 5), strip="endpoints")
    with pytest.raises(ResourceGuardError,
                       match="dimension 2: a boundary map with 12780 nonzeros"):
        torsion_profile(c)


def test_stripped_s5_is_torsion_free_within_the_guard():
    c = order_complex(full_poset("S", 5), strip="endpoints")
    assert c.f_vector() == (119, 1570, 4260, 3000)
    assert torsion_profile(c) == {1: [], 2: [], 3: []}


def test_residual_over_the_guard_raises_before_the_dense_form(monkeypatch):
    # 2 * identity(3) has no unit pivot, so all of it is a 3x3 residual
    columns = [{0: 2}, {1: 2}, {2: 2}]
    monkeypatch.setattr(topology, "TORSION_GUARD", 9)
    assert _invariant_factors(columns) == [2, 2, 2]

    def no_dense_form(*args):
        raise AssertionError("dense Smith form started past the guard")

    monkeypatch.setattr(topology, "_smith_normal_form_diagonal", no_dense_form)
    monkeypatch.setattr(topology, "TORSION_GUARD", 8)
    with pytest.raises(ResourceGuardError,
                       match="dimension 2: a residual of 3x3 entries for the "
                             "dense Smith form, more than the guard 8"):
        _invariant_factors(columns, 2)


def test_real_projective_plane_has_two_torsion():
    # the six-vertex triangulation of RP^2: H_1 = Z/2
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
    edges = sorted({t[:k] + t[k + 1:] for t in triangles for k in range(3)})
    faces = [[(v,) for v in range(6)], edges, sorted(triangles)]
    assert len(edges) == 15
    c = SimplicialComplex(None, 0, faces, label="RP^2")
    assert homology(c).reduced_betti == (0, 0, 0)
    assert torsion_profile(c) == {1: [], 2: [2]}


def _boundary_maps():
    four_flips = build_interval(identity(4), parse_cycles("[1][2][3][4]", 4), "D")
    posets = (full_poset("B", 3), full_poset("S", 4), coxeter_ideal(3, "B"),
              four_flips)
    for p in posets:
        faces = order_complex(p, strip="endpoints").faces_by_dim
        for d in range(1, len(faces)):
            yield (f"{p.label} d={d}", _boundary_columns(faces, d),
                   len(faces[d - 1]))


def test_sparse_first_smith_matches_dense_on_boundary_maps():
    names = []
    for name, columns, rows in _boundary_maps():
        assert _invariant_factors(columns) == \
            _smith_normal_form_diagonal(columns, rows), name
        names.append(name)
    assert len(names) == 8


def _random_matrix(rng):
    rows, cols = rng.randint(0, 7), rng.randint(0, 7)
    values = [0] * 6 + [1, -1, 2, -2, 3, -3, 4, 6, -6, 9]
    columns = [{} if rng.random() < 0.2
               else {r: v for r in range(rows) if (v := rng.choice(values))}
               for _ in range(cols)]
    return columns, rows


def test_sparse_first_smith_matches_dense_on_random_matrices():
    rng = random.Random(20261018)
    with_torsion = 0
    for k in range(300):
        columns, rows = _random_matrix(rng)
        dense = _smith_normal_form_diagonal(columns, rows)
        assert _invariant_factors(columns) == dense, (k, columns, rows)
        with_torsion += any(v > 1 for v in dense)
    assert with_torsion >= 50


def test_cm_report_carries_the_complex_homology():
    four_flips = build_interval(identity(4), parse_cycles("[1][2][3][4]", 4), "D")
    for p in (full_poset("S", 4), four_flips, full_poset("S", 2)):
        c = order_complex(p, strip="endpoints")
        report = cm_check(c)
        assert report.homology == homology(c), p.label
        assert "homology" not in report.to_json()


def test_smith_normal_form_units():
    # diag(2,3) has invariant factors 1,6
    assert _smith_normal_form_diagonal([{0: 2}, {1: 3}], 2) == [1, 6]
    # [[2,4],[4,2]]: gcd 2, det -12
    assert _smith_normal_form_diagonal([{0: 2, 1: 4}, {0: 4, 1: 2}], 2) == [2, 6]


def test_ideal_battery_plain_three_letters():
    checks = appendix_ideal_checks(coxeter_ideal(3, "S"))
    assert len(checks) == 3
    assert all(c.ok() for c in checks)
    by_name = {c.name: c for c in checks}
    long_cycle = by_name["plain long-cycle fiber ideal"]
    assert long_cycle.rank == long_cycle.expected_rank == 2


def test_ideal_battery_signed_three_letters():
    checks = appendix_ideal_checks(coxeter_ideal(3, "B"))
    assert len(checks) == 9
    assert all(c.ok() for c in checks)
    assert all(c.graded for c in checks)
    by_name = {c.name: c for c in checks}
    pair = by_name["pair-type long-cycle fiber ideal"]
    assert (pair.size, pair.rank) == (10, 2)
    balanced = by_name["balanced long-cycle fiber ideal"]
    assert (balanced.size, balanced.rank) == (33, 3)
    fibers = [c for c in checks if c.name.startswith("fiber ideal over")]
    assert len(fibers) == 7


def test_ideal_battery_refuses_kind_d_and_is_empty_below_two_letters():
    with pytest.raises(ValueError, match="no ideal checks for kind 'D'"):
        appendix_ideal_checks(coxeter_ideal(3, "D"))
    assert appendix_ideal_checks(coxeter_ideal(1, "B")) == []
    assert appendix_ideal_checks(coxeter_ideal(1, "S")) == []


def _rank_sparse(columns):
    """Rank over the rationals of row->value columns, by plain elimination.

    The reference for the ranks behind `_homology_from_faces`: every column
    of the boundary map is cleared of every pivot row found before it, with
    a unit entry preferred as the next pivot, and no column is skipped.
    """
    pivots = {}
    rank = 0
    for col in columns:
        col = _reduce(dict(col), pivots)
        if col:
            prow = None
            for r, v in col.items():
                if v == 1 or v == -1:
                    prow = r
                    break
            if prow is None:
                prow = next(iter(col))
            pivots[prow] = _normalized(col, prow)
            rank += 1
    return rank


def _ranks_from_betti(faces):
    """The boundary ranks behind `_homology_from_faces`, recovered from its
    Betti numbers: b_d = f_d - r_d - r_(d+1), with r_0 = 1."""
    ranks = [1]
    for d, b in enumerate(_homology_from_faces(faces).reduced_betti):
        ranks.append(len(faces[d]) - ranks[d] - b)
    return ranks


def _oracle_ranks(faces):
    return [1] + [_rank_sparse(_boundary_columns(faces, d))
                  for d in range(1, len(faces))] + [0]


# the six-vertex real projective plane; over Q its coboundaries reduce to
# pivots of 2
_RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]


def _random_complex(rng):
    """A face-closed complex from random maximal faces on 6-9 vertices, half
    of them around a copy of RP^2 with shuffled vertices."""
    vertices = rng.randint(6, 9)
    tops = []
    if rng.random() < 0.5:
        place = rng.sample(range(vertices), 6)
        tops += [[place[v] for v in triangle] for triangle in _RP2]
    for _ in range(rng.randint(1, 12)):
        tops.append(rng.sample(range(vertices), rng.choice((1, 2, 2, 3, 3, 4))))
    faces = set()
    for top in tops:
        for k in range(1, len(top) + 1):
            faces.update(itertools.combinations(sorted(top), k))
    by_dim = [[] for _ in range(max(map(len, faces)))]
    for face in faces:
        by_dim[len(face) - 1].append(face)
    return [sorted(dim_faces) for dim_faces in by_dim]


def test_ranks_match_the_reference_on_order_complexes():
    four_flips = build_interval(identity(4), parse_cycles("[1][2][3][4]", 4), "D")
    posets = (full_poset("B", 3), full_poset("S", 4), full_poset("S", 5),
              coxeter_ideal(3, "B"), coxeter_ideal(4, "B"), four_flips)
    maps = 0
    for p in posets:
        faces = order_complex(p, strip="endpoints").faces_by_dim
        assert _ranks_from_betti(faces) == _oracle_ranks(faces), p.label
        maps += len(faces) - 1
    assert maps == 14


def test_ranks_match_the_reference_on_random_complexes(monkeypatch):
    # the reference binds its own `_normalized`; only the new path records
    non_unit = []

    def recording(col, pivot_row):
        non_unit[-1] |= any(abs(v) > 1 for v in col.values())
        return _normalized(col, pivot_row)

    monkeypatch.setattr(topology, "_normalized", recording)
    rng = random.Random(20261018)
    low_homology = zero_columns = 0
    for k in range(200):
        faces = _random_complex(rng)
        non_unit.append(False)
        assert _ranks_from_betti(faces) == _oracle_ranks(faces), (k, faces)
        low_homology += any(_homology_from_faces(faces).reduced_betti[:-1])
        cofaces = {face[:i] + face[i + 1:]
                   for dim_faces in faces[1:] for face in dim_faces
                   for i in range(len(face))}
        zero_columns += any(face not in cofaces
                            for dim_faces in faces[:-1] for face in dim_faces)
    assert low_homology >= 100
    assert zero_columns >= 100
    assert sum(non_unit) >= 20


def test_cm_check_eliminates_each_interval_class_once(monkeypatch):
    calls = []
    eliminate = topology._homology_from_faces

    def counting(faces_by_dim):
        calls.append(len(faces_by_dim))
        return eliminate(faces_by_dim)

    def no_walk(*args):
        raise AssertionError("walked the faces although every gap passes")

    c = order_complex(coxeter_ideal(4, "B"), strip="endpoints")
    monkeypatch.setattr(topology, "_homology_from_faces", counting)
    monkeypatch.setattr(topology, "_poly_mul", no_walk)
    report = cm_check(c)
    assert report.ok and report.faces_checked == 1 + c.face_count() == 33729
    # the whole complex, 11 signed cycle types, 280 gaps above an element
    assert len(calls) <= 1 + 11 + 280


def test_cm_check_matches_links_on_stripped_subposets():
    # intervals [e, w] of B4 less a few rank-2 elements, stripped of both
    # ends: gaps at the open ends and between members are smaller than the
    # group intervals they lie in, and must be eliminated on their own
    b4 = full_poset("B", 4)
    tops = [i for i in range(len(b4)) if b4.rank[i] == 4]
    rng = random.Random(20261019)
    reports = []
    for k in range(12):
        below = list(bits(b4.below[rng.choice(tops)]))
        drop = rng.sample([i for i in below if b4.rank[i] == 2],
                          rng.randint(1, 6))
        sub = b4.subposet([i for i in below if i not in drop],
                          label=f"sample {k}")
        c = order_complex(sub, strip="endpoints")
        reports.append(cm_check(c).to_json())
        assert reports[-1] == _links_from_scratch(c), k
    assert 3 <= sum(r["ok"] for r in reports) <= 9


def test_cm_check_matches_links_when_the_ends_are_kept():
    # the D4 four-flip interval less one interior element, ends kept: a gap
    # with an open end holds the kept bottom or top, so it is not the group
    # interval (e, w) even when it has as many elements
    iv = build_interval(identity(4), parse_cycles("[1][2][3][4]", 4), "D")
    for z in range(1, len(iv) - 1, 3):
        sub = iv.subposet([i for i in range(len(iv)) if i != z], label="sub")
        c = order_complex(sub, strip="none")
        assert cm_check(c).to_json() == _links_from_scratch(c), z


def test_guard_messages_state_the_limit(monkeypatch):
    with pytest.raises(ResourceGuardError,
                       match="'full' has more than the guard 10 chains"):
        order_complex(full_poset("B", 3), strip="endpoints", face_guard=10)
    c = order_complex(full_poset("S", 5), strip="endpoints")
    monkeypatch.setattr(topology, "TORSION_GUARD", 12779)
    with pytest.raises(ResourceGuardError,
                       match="12780 nonzeros, more than the guard 12779$"):
        torsion_profile(c)


@pytest.mark.parametrize("kind,n", [("S", 4), ("B", 3)])
def test_ideal_battery_builds_one_ambient_and_projects_once(kind, n,
                                                            monkeypatch):
    labels, projected = [], []
    init, project_pi = order.Poset.__init__, order.project_pi

    def counting_init(self, elements, kind, label):
        labels.append(label)
        init(self, elements, kind, label)

    def counting_project_pi(w, i):
        projected.append(w)
        return project_pi(w, i)

    monkeypatch.setattr(order.Poset, "__init__", counting_init)
    monkeypatch.setattr(order, "project_pi", counting_project_pi)
    checks = appendix_ideal_checks(coxeter_ideal(n, kind))
    assert all(c.ok() for c in checks)
    # the other posets are the group intervals that key cm_check's gaps
    assert [label for label in labels if label != "interval"] == [
        "coxeter-ideal"]
    assert sorted(projected, key=lambda w: w.images) == sorted(
        coxeter_ideal(n, kind).elements, key=lambda w: w.images)
