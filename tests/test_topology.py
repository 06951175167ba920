"""Order complexes, homology, Cohen-Macaulay checks, torsion, ideal battery."""

import gc
import itertools
import random
import re
import tracemalloc
from math import gcd

import pytest

from absorder import (
    ResourceGuardError,
    appendix_ideal_checks,
    build_interval,
    chain_euler_characteristic,
    cm_check,
    coxeter_ideal,
    format_cycles,
    full_poset,
    group_elements,
    homology,
    identity,
    order_complex,
    parse_cycles,
    torsion_profile,
)
from absorder import order, topology
from absorder.cli import main
from absorder.order import bits
from absorder.signed import cycle_type
from absorder.topology import (SimplicialComplex, _chains_in_mask,
                               _homology_from_faces, _smith_form,
                               _subtract)
from packing import (boundary_columns, by_index, closure, every_face,
                     levels_and_counts, normalized, tuples)


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


def test_vertices_are_labelled_from_the_top_down():
    iv = build_interval(identity(4), parse_cycles("[1][2][3][4]", 4), "D")
    c = order_complex(iv, strip="none")
    faces = tuples(c.levels)
    vertices = [v for (v,) in faces[0]]
    ranks = [iv.rank[c.indices[v]] for v in vertices]
    assert ranks == sorted(ranks, reverse=True)
    names = [format_cycles(iv.elements[c.indices[v]]) for v in vertices]
    assert (names[0], names[-1]) == ("[1][2][3][4]", "e")
    # every face runs from its top down
    assert all(ranks[a] > ranks[b] for a, b in faces[1])


def test_a_failing_cm_check_unpacks_no_face_before_its_verdict(monkeypatch):
    # the stripped D4 Coxeter ideal fails at the empty face, whose link is
    # the complex itself: with its homology kept, the walk reports that
    # before unpacking any of the 15,238 faces
    c = order_complex(coxeter_ideal(4, "D"), strip="endpoints")
    homology(c)
    calls = []

    def counting(face, shifts, _f=topology._unpacked):
        calls.append(face)
        return _f(face, shifts)

    monkeypatch.setattr(topology, "_unpacked", counting)
    report = cm_check(c)
    assert (report.ok, report.failing_face, report.faces_checked) == (
        False, (), 1)
    assert report.failing_betti == (0, 0, 1, 340)
    assert calls == [] and c.face_count() == 15_238


@pytest.mark.parametrize("args", [
    ["--group", "B", "--n", "0"],
    ["--group", "S", "--n", "1"],
    ["--group", "B", "--n", "2", "--top", "e"],
    ["--group", "B", "--n", "2", "--top", "[1]", "--bottom", "[1]"],
])
def test_cm_check_of_a_one_element_host_checks_the_empty_face(capsys, args):
    # the stripped bottom and top are one element there, so one bit
    assert main(["topology", *args, "--cm"]) == 0
    assert "cm: {'ok': True, 'mode': 'all', 'faces_checked': 1}" in \
        capsys.readouterr().out.splitlines()
    report = cm_check(order_complex(full_poset("B", 0), strip="endpoints"))
    assert report.ok and report.faces_checked == 1


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
    faces = [()] + [face for dim_faces in by_index(
        c.indices, every_face(c.levels, c.counts)) for face in dim_faces]
    for checked, face in enumerate(faces, 1):
        mask = c.member_mask
        for v in face:
            mask &= comparable[v]
        profile = _homology_from_faces(*_chains_in_mask(p, mask)[1:])
        if not profile.concentrated_in_top():
            return {"ok": False, "mode": "all", "faces_checked": checked,
                    "failing_face": [format_cycles(p.elements[v])
                                     for v in face],
                    "failing_betti": list(profile.reduced_betti)}
    return {"ok": True, "mode": "all", "faces_checked": len(faces)}


def _on_members(p, keep, strip):
    """The order complex of the members `keep` of `p`, a mask on `p`."""
    return SimplicialComplex(p, sum(1 << i for i in set(keep)), strip,
                             "members")


@pytest.mark.parametrize("strip", ["none", "endpoints"])
def test_every_order_complex_lists_its_vertices_from_0_in_order(strip):
    # the precondition of `_homology_from_faces`, which `homology` reads
    # unchecked: the vertices of an order complex, `levels[0]`, are
    # 0, 1, ..., k-1 in ascending order, k its members, on random masks of
    # B3 and B4 and on the empty mask, which has no level
    rng = random.Random(20261044)
    for p in (full_poset("B", 3), full_poset("B", 4)):
        masks = [0, (1 << len(p)) - 1] + [
            sum(1 << i for i in range(len(p)) if rng.random() < density)
            for density in [rng.uniform(0.01, 0.4) for _ in range(20)]]
        for mask in masks:
            c = SimplicialComplex(p, mask, strip, "random")
            k = c.member_mask.bit_count()
            assert sorted(c.indices) == list(bits(c.member_mask))
            assert (c.levels[0] if c.levels else []) == list(range(k))
            assert c.f_vector()[:1] == ((k,) if k else ()), (p.label, mask)
    assert SimplicialComplex(p, 0, strip, "empty").levels == []


def _oracle_complexes():
    four_flips = build_interval(identity(4), parse_cycles("[1][2][3][4]", 4), "D")
    cases = [
        ("coxeter-ideal-B3", order_complex(coxeter_ideal(3, "B"), strip="endpoints")),
        ("S4", order_complex(full_poset("S", 4), strip="endpoints")),
        ("four-flips-D4-endpoints", order_complex(four_flips, strip="endpoints")),
        ("four-flips-D4-none", order_complex(four_flips, strip="none")),
        ("empty", order_complex(full_poset("S", 2), strip="endpoints")),
    ]
    # Random member sets of B4, masks on it, mostly fail at the empty
    # face; members of an interval [e, w] kept with both ends are double
    # cones, which pass there and mostly fail at a link further on.
    b4 = full_poset("B", 4)
    tops = [i for i in range(len(b4)) if b4.rank[i] == 4]
    rng = random.Random(20261018)
    for k in range(12):
        keep = rng.sample(range(len(b4)), rng.randint(12, 40))
        cases.append((f"members-B4-{k}", _on_members(b4, keep, "none")))
        w = rng.choice(tops)
        inside = [i for i in bits(b4.below[w]) if i not in (0, w)]
        keep = rng.sample(inside, rng.randint(8, 30)) + [0, w]
        cases.append((f"bounded-members-B4-{k}",
                      _on_members(b4, keep, "none")))
    return cases


def test_cm_check_matches_links_from_scratch():
    reports = {}
    for name, c in _oracle_complexes():
        reports[name] = cm_check(c).to_json()
        assert reports[name] == _links_from_scratch(c), name
    failing_faces = [r["failing_face"] for r in reports.values() if not r["ok"]]
    assert len(failing_faces) >= 20
    assert sum(len(face) > 1 for face in failing_faces) >= 10


@pytest.mark.parametrize("top,strip,checked,face,betti", [
    (None, "endpoints", 1, (), (0, 2, 0, 666)),
    (None, "none", 2, ("e",), (0, 2, 0, 666)),
    ("[1][2][3][4]", "endpoints", 1, (), (2, 0, 3)),
    ("[1][2][3][4]", "none", 88, ("e", "[1][2][3][4]"), (2, 0, 3)),
])
def test_cm_failure_walk_is_pinned(top, strip, checked, face, betti):
    # D4 and its four-flip interval; with both ends kept the interval is a
    # double cone and fails first at the link of the edge from e to its top
    p = (full_poset("D", 4) if top is None
         else build_interval(identity(4), parse_cycles(top, 4), "D"))
    report = cm_check(order_complex(p, strip=strip))
    assert (report.ok, report.faces_checked, report.failing_face,
            report.failing_betti) == (False, checked, face, betti)


@pytest.mark.parametrize("build,cofaces,subtracts", [
    (lambda: coxeter_ideal(4, "B"), 616, 408),
    (lambda: full_poset("S", 5), 151, 98),
    (lambda: build_interval(identity(5), parse_cycles("[1,2,3,4,5]", 5), "B"),
     0, 0),
], ids=["coxeter-ideal-B4", "S5", "coxeter-interval-B5"])
def test_elimination_work_stays_at_its_counts(monkeypatch, build, cofaces,
                                              subtracts):
    # labels in rank-descending order pair nearly every column with its
    # lowest coface at once, and ties broken by the reversed image tuple
    # make lowest cofaces collide less: with ties broken by poset index
    # these complexes took 1,343, 432 and 24 built columns and 947, 300 and
    # 12 column subtractions, and in poset-index order the first two took
    # 3,280 and 702 built columns, 3,249 and 607 subtractions
    calls = {"_cofaces": 0, "_subtract": 0}
    for name in calls:
        def counting(*args, _name=name, _f=getattr(topology, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(topology, name, counting)
    # and each answers at a torsion guard of 0: no pivot other than +-1
    monkeypatch.setattr(topology, "TORSION_GUARD", 0)
    c = order_complex(build(), strip="endpoints")
    homology(c)
    assert calls["_cofaces"] <= cofaces and calls["_subtract"] <= subtracts


def test_the_scan_intersects_each_face_prefix_once(monkeypatch):
    # the neighbour masks of a face's vertices but its last are read once
    # for the run of faces sharing them, and each face reads the mask of
    # its last vertex; a column built later reads those of all its
    # vertices.  Reading a face's every vertex, 21,440 faces in dimensions
    # 0-2, was the cost before
    calls = {"reads": 0, "built": 0, "built_reads": 0}

    class CountingMasks(list):
        def __getitem__(self, v):
            calls["reads"] += 1
            return list.__getitem__(self, v)

    def counting_neighbours(*args, _f=topology._neighbours):
        return CountingMasks(_f(*args))

    def counting_pivot(pivots, low, get, shifts, _f=topology._pivot):
        if type(pivots[low]) is int:
            calls["built"] += 1
            calls["built_reads"] += len(shifts)
        return _f(pivots, low, get, shifts)

    monkeypatch.setattr(topology, "_neighbours", counting_neighbours)
    monkeypatch.setattr(topology, "_pivot", counting_pivot)
    c = order_complex(coxeter_ideal(4, "B"), strip="endpoints")
    _homology_from_faces(c.levels, c.counts)
    scanned = tuples(c.levels)  # the top is only counted
    prefixes = [{face[:-1] for face in faces} for faces in scanned]
    faces = sum(map(len, scanned))
    assert faces == 21_440 and sum(map(len, prefixes)) < 6_000
    assert 0 < calls["built"] < 2_000
    assert calls["reads"] == (faces + calls["built_reads"] + sum(
        len(prefix) for level in prefixes for prefix in level))


@pytest.mark.parametrize("enabled", [True, False])
def test_the_collector_is_left_as_the_caller_had_it(monkeypatch, enabled):
    # chain enumeration, the elimination and the gap pass run with the
    # cyclic collector paused, and hand it back as they found it, also when
    # a guard refuses
    seen = set()

    def recording(f):
        def call(*args):
            seen.add(gc.isenabled())
            return f(*args)
        return call

    for name in ("bits", "_subtract", "cycle_type"):
        monkeypatch.setattr(topology, name, recording(getattr(topology, name)))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        c = order_complex(full_poset("S", 5), strip="endpoints")
        assert gc.isenabled() is enabled
        homology(c)
        assert gc.isenabled() is enabled
        assert cm_check(order_complex(coxeter_ideal(3, "B"),
                                      strip="endpoints")).ok
        assert gc.isenabled() is enabled
        with pytest.raises(ResourceGuardError, match="face guard"):
            order_complex(full_poset("B", 3), face_guard=10)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(topology, "TORSION_GUARD", 0)
        d4 = coxeter_ideal(4, "D")
        for call in (homology, cm_check):
            with pytest.raises(ResourceGuardError, match="torsion guard"):
                call(order_complex(d4, strip="endpoints"))
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == {False}


def test_face_guard_trips():
    with pytest.raises(ResourceGuardError):
        order_complex(full_poset("B", 3), strip="endpoints", face_guard=10)


def test_face_guard_is_read_at_each_call(monkeypatch):
    # with no guard given, chain enumeration reads FACE_GUARD as it stands,
    # also for the gaps `cm_check` eliminates (B4's rank-3 intervals)
    c = order_complex(coxeter_ideal(4, "B"), strip="endpoints")
    monkeypatch.setattr(topology, "FACE_GUARD", 10)
    with pytest.raises(ResourceGuardError,
                       match="'full' has more than the guard 10 chains$"):
        order_complex(full_poset("B", 3), strip="endpoints")
    with pytest.raises(ResourceGuardError, match="the guard 10 chains$"):
        cm_check(c)


def test_homology_of_the_b4_coxeter_ideal_stays_small():
    # its 33,728 faces packed one int each: the chains and the elimination
    # together peak near 3.0 MB, where vertex tuples took 4.5-4.9 MB
    p = coxeter_ideal(4, "B")
    tracemalloc.start()
    try:
        assert homology(order_complex(p, strip="endpoints")).reduced_betti == (
            0, 0, 0, 1105)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_600_000


def _recording_residuals(monkeypatch):
    """The (rows, columns) of what `_smith_form` has left at its first
    pivot other than +-1, for each residual the kernel hands it from now
    on: read off the message a guard of 0 raises there, on a copy, before
    the run itself.  A residual that only units reduce records nothing."""
    residuals = []

    def recording(columns, dim):
        guard, topology.TORSION_GUARD = topology.TORSION_GUARD, 0
        try:
            _smith_form([dict(col) for col in columns], dim)
        except ResourceGuardError as e:
            residuals.append(tuple(map(int, re.search(
                r"residual of (\d+)x(\d+) entries", str(e)).groups())))
        finally:
            topology.TORSION_GUARD = guard
        return _smith_form(columns, dim)

    monkeypatch.setattr(topology, "_smith_form", recording)
    return residuals


def test_torsion_free_small_complex(monkeypatch):
    # the elimination behind the Betti numbers defers no column, so it
    # answers at a torsion guard of 0
    c = order_complex(coxeter_ideal(2, "B"), strip="endpoints")
    monkeypatch.setattr(topology, "TORSION_GUARD", 0)
    assert torsion_profile(c) == {1: []}


# the six-vertex real projective plane, whose barycentric subdivision
# meets a pivot of 2 over Q
_RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]


def _rp2():
    """The barycentric subdivision of the six-vertex real projective plane,
    as the homology kernel takes it: a flag complex on 31 vertices with
    H_1 = Z/2."""
    return levels_and_counts(_subdivided(closure(_RP2)))


def test_torsion_guard_refuses_before_eliminating(monkeypatch):
    # RP^2 defers one column at dimension 2 and leaves it a 1x1 residual,
    # its pivot 2: a guard of 1 admits it, a guard of 0 refuses it
    monkeypatch.setattr(topology, "TORSION_GUARD", 1)
    assert _homology_from_faces(*_rp2()).torsion == {1: [], 2: [2]}
    monkeypatch.setattr(topology, "TORSION_GUARD", 0)
    with pytest.raises(ResourceGuardError,
                       match=r"dimension 2: a residual of 1x1 entries for the "
                             r"Smith form, more than the guard 0$"):
        _homology_from_faces(*_rp2())


def test_residual_over_the_guard_raises_before_the_smith_form(monkeypatch):
    # the Betti numbers come from the same pass, so they are refused too,
    # and `homology` keeps nothing on the complex (the stripped D4 Coxeter
    # ideal, whose residual at dimension 3 is 98x3): with the guard back,
    # both answer
    c = order_complex(coxeter_ideal(4, "D"), strip="endpoints")
    monkeypatch.setattr(topology, "TORSION_GUARD", 0)
    with pytest.raises(ResourceGuardError, match="a residual of 1x1 "):
        _homology_from_faces(*_rp2())
    for call in (homology, torsion_profile):
        with pytest.raises(ResourceGuardError, match="a residual of 98x3 "):
            call(c)
    monkeypatch.undo()
    profile = _homology_from_faces(*_rp2())
    assert profile.reduced_betti == (0, 0, 0)
    assert profile.torsion == {1: [], 2: [2]}
    assert homology(c).reduced_betti == (0, 0, 1, 340)
    assert torsion_profile(c) == {1: [], 2: [], 3: [2, 2]}


def test_stripped_s5_is_torsion_free_within_the_guard():
    c = order_complex(full_poset("S", 5), strip="endpoints")
    assert c.f_vector() == (119, 1570, 4260, 3000)
    assert torsion_profile(c) == {1: [], 2: [], 3: []}


def test_real_projective_plane_has_two_torsion(monkeypatch):
    # H_1 = Z/2, from the one column the elimination defers
    residuals = _recording_residuals(monkeypatch)
    levels, counts = _rp2()
    assert counts == [31, 90, 60]
    profile = _homology_from_faces(levels, counts)
    assert profile.reduced_betti == (0, 0, 0)
    assert profile.torsion == {1: [], 2: [2]}
    assert residuals == [(1, 1)]


def _reduce(col, pivots):
    """Clear, in place, every pivot row of `col`; `pivots` maps a pivot row
    to its column, normalised to 1 there and zero on earlier pivot rows."""
    while col:
        for r in col:
            if r in pivots:
                _subtract(col, col[r], pivots[r])
                break
        else:
            break
    return col


def _smith_by_unit_pivots(columns, dim):
    """Invariant factors by sparse elimination on unit pivots, one column
    at a time, `_smith_form` running on the columns left with no unit entry.

    The reference for maps too large for `_smith_form` alone: reducing by
    an integer multiple of a column normalised to 1 is unimodular, and once
    the residual is zero on every pivot row the Smith form splits.
    """
    pivots, todo, found = {}, columns, True
    while found:
        found, residual = False, []
        for col in todo:
            col = _reduce(dict(col), pivots)
            prow = next((r for r, v in col.items() if v in (1, -1)), None)
            if prow is not None:
                pivots[prow] = normalized(col, prow)
                found = True
            elif col:
                residual.append(col)
        todo = residual
    return [1] * len(pivots) + _smith_form(todo, dim)


def _torsion_by_boundary_maps(faces, whole):
    """Torsion of each boundary map, by `_smith_form` on the whole map, or
    by unit pivots first."""
    smith = _smith_form if whole else _smith_by_unit_pivots
    return {d: [v for v in smith(boundary_columns(faces, d), d) if v > 1]
            for d in range(1, len(faces))}


def _boundary_maps():
    four_flips = build_interval(identity(4), parse_cycles("[1][2][3][4]", 4), "D")
    posets = (full_poset("B", 3), full_poset("S", 4), coxeter_ideal(3, "B"),
              four_flips)
    for p in posets:
        yield p.label, order_complex(p, strip="endpoints")


def test_torsion_matches_the_smith_form_of_boundary_maps():
    # `_smith_form` of whole explicit boundary maps on the smaller
    # complexes; on stripped S5 and the B4 and D4 Coxeter ideals, unit
    # pivots first, checked against whole maps here and on the random
    # complexes below; the D4 ideal defers columns, and both find (Z/2)^2;
    # the references read the faces over poset indices, where they fill in
    # least
    maps = 0
    for name, c in _boundary_maps():
        faces = by_index(c.indices, every_face(c.levels, c.counts))
        whole = _torsion_by_boundary_maps(faces, whole=True)
        assert torsion_profile(c) == whole, name
        assert _torsion_by_boundary_maps(faces, whole=False) == whole, name
        maps += len(whole)
    assert maps == 8
    for p, top in ((full_poset("S", 5), []), (coxeter_ideal(4, "B"), []),
                   (coxeter_ideal(4, "D"), [2, 2])):
        c = order_complex(p, strip="endpoints")
        faces = by_index(c.indices, every_face(c.levels, c.counts))
        assert torsion_profile(c) == _torsion_by_boundary_maps(
            faces, whole=False) == {1: [], 2: [], 3: top}, p.label


def test_torsion_matches_the_smith_form_of_whole_maps_on_random_complexes(
        monkeypatch):
    # the subdivision of a random complex around RP^2 often meets a pivot
    # of 2 and leaves its residual a pivot other than +-1.  Subdividing
    # changes no homology group, so `_smith_form` runs on the whole maps of
    # the smaller complex drawn; the subdivision's own maps are checked
    # with unit pivots first.
    rng = random.Random(20261018)
    with_torsion = deferring = 0
    for k in range(600):
        raw = _random_complex(rng)
        faces = _subdivided(raw)
        whole = _torsion_by_boundary_maps(raw, whole=True)
        residuals = _recording_residuals(monkeypatch)
        profile = _homology_from_faces(*levels_and_counts(faces))
        assert profile.torsion == whole == _torsion_by_boundary_maps(
            faces, whole=False), (k, raw)
        with_torsion += any(whole.values())
        deferring += bool(residuals)
    assert with_torsion >= 50
    assert deferring >= 50


def test_torsion_answers_on_random_subposets_of_b4():
    # member sets of B4, mostly not convex, as masks on it; eliminated in
    # poset-index order, 3 of these met a pivot of 2 with every map over the
    # torsion guard.  The reference reads that order, where it fills in least.
    b4 = full_poset("B", 4)
    rng = random.Random(11)
    for k in range(150):
        c = _on_members(b4, rng.sample(range(len(b4)), rng.randint(30, 250)),
                        "endpoints")
        faces = by_index(c.indices, every_face(c.levels, c.counts))
        assert torsion_profile(c) == _torsion_by_boundary_maps(
            faces, whole=False), k


def _betti_by_boundary_maps(faces):
    """Reduced Betti numbers from the ranks of the boundary maps, the
    augmentation of rank 1 below the vertices."""
    ranks = [1] + [len(_smith_by_unit_pivots(boundary_columns(faces, d), d))
                   for d in range(1, len(faces))] + [0]
    return tuple(len(f) - ranks[d] - ranks[d + 1] for d, f in enumerate(faces))


@pytest.mark.parametrize("seed", [193, 668, 2948])
def test_unit_entries_of_the_residual_answer_at_a_zero_guard(
        monkeypatch, seed):
    # random members of the D4 Coxeter ideal whose deferred columns, once
    # cleared, hold a +-1: two columns (seed 193) or one.  Each such entry
    # is an invariant factor 1, taken before any larger pivot, so the
    # residual empties with no other pivot: each answers at a guard of 0.
    ideal = coxeter_ideal(4, "D")
    rng = random.Random(seed)
    c = _on_members(ideal, rng.sample(range(len(ideal)), rng.randint(20, 90)),
                    "none")
    faces = by_index(c.indices, every_face(c.levels, c.counts))
    handed = []

    def counting(columns, dim):
        handed.append(sum(map(bool, columns)))
        return _smith_form(columns, dim)

    monkeypatch.setattr(topology, "_smith_form", counting)
    monkeypatch.setattr(topology, "TORSION_GUARD", 0)
    assert homology(c).reduced_betti == _betti_by_boundary_maps(faces)
    assert torsion_profile(c) == _torsion_by_boundary_maps(faces, whole=False)
    assert sum(handed) == (2 if seed == 193 else 1)


@pytest.mark.parametrize("tops,d,cliques,faces", [
    (lambda: [(0, 1, 2, 3), (4, 5), (4, 6), (5, 6)], 1, 5, 4),
    (lambda: [(0, 1, 2, 3, 4), *itertools.combinations(range(5, 9), 3)],
     2, 6, 5),
    (lambda: _subdivided(closure(_RP2))[2] + [
        *itertools.combinations(range(31, 35), 3), (35, 36, 37, 38)], 2, 2, 1),
], ids=["hollow-triangle", "hollow-tetrahedron", "rp2-beside-tetrahedra"])
def test_homology_refuses_a_complex_not_flag_below_its_top(tops, d, cliques,
                                                           faces):
    # a clique that is no face below a dimension that exists, beside a
    # 3-simplex, a 4-simplex, or RP^2 and a solid tetrahedron: the
    # elimination reads cofaces off the cliques, so it must refuse, also
    # after meeting a pivot of 2 (RP^2), before any Betti number or torsion
    message = (f"not a flag complex at dimension {d}: {cliques} common "
               f"neighbours above the last vertices of its faces, "
               f"{faces} faces of dimension {d + 1}$")
    with pytest.raises(ValueError, match=message):
        _homology_from_faces(*levels_and_counts(closure(tops())))


def test_homology_is_eliminated_once_per_complex(monkeypatch):
    calls = []
    eliminate = topology._homology_from_faces

    def counting(levels, counts):
        calls.append((levels, counts))
        return eliminate(levels, counts)

    monkeypatch.setattr(topology, "_homology_from_faces", counting)
    ideal = order_complex(coxeter_ideal(4, "D"), strip="endpoints")
    cone = order_complex(coxeter_ideal(2, "B"), strip="none")
    for c in (ideal, cone, ideal, cone):
        assert homology(c) == eliminate(c.levels, c.counts)
        assert torsion_profile(c) == ({1: [], 2: [], 3: [2, 2]}
                                      if c is ideal else {1: [], 2: []})
    assert calls == [(ideal.levels, ideal.counts), (cone.levels, cone.counts)]


def _random_matrix(rng):
    rows, cols = rng.randint(0, 7), rng.randint(0, 7)
    values = [0] * 6 + [1, -1, 2, -2, 3, -3, 4, 6, -6, 9]
    columns = [{} if rng.random() < 0.2
               else {r: v for r in range(rows) if (v := rng.choice(values))}
               for _ in range(cols)]
    return columns, rows


def _determinant(mat):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination."""
    mat = [row[:] for row in mat]
    n, sign, prev = len(mat), 1, 1
    for k in range(n - 1):
        if not mat[k][k]:
            swap = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
        prev = mat[k][k]
    return sign * mat[-1][-1] if n else 1


def _by_determinantal_divisors(columns, rows):
    """Invariant factors d_k / d_(k-1), d_k the gcd of the k x k minors."""
    mat = [[col.get(r, 0) for col in columns] for r in range(rows)]
    factors, previous = [], 1
    for k in range(1, min(rows, len(columns)) + 1):
        divisor = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(len(columns)), k):
                divisor = gcd(divisor, _determinant(
                    [[mat[r][c] for c in cs] for r in rs]))
        if not divisor:
            break
        factors.append(divisor // previous)
        previous = divisor
    return factors


def test_smith_normal_form_matches_determinantal_divisors():
    rng = random.Random(20261018)
    with_torsion = 0
    for k in range(300):
        columns, rows = _random_matrix(rng)
        factors = _smith_form([dict(col) for col in columns], 1)
        assert factors == _by_determinantal_divisors(columns, rows), (
            k, columns, rows)
        with_torsion += any(v > 1 for v in factors)
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
    assert _smith_form([{0: 2}, {1: 3}], 1) == [1, 6]
    # [[2,4],[4,2]]: gcd 2, det -12
    assert _smith_form([{0: 2, 1: 4}, {0: 4, 1: 2}], 1) == [2, 6]
    # 1x2 [2 3]: row 0 keeps a 1 in the second column, so the pivot 2 goes
    # back unchanged and the 1 is taken
    assert _smith_form([{0: 2}, {0: 3}], 1) == [1]
    # 2x1 [2; 3]: the remainder 1 of row 1 goes back with the pivot 2
    assert _smith_form([{0: 2, 1: 3}], 1) == [1]
    # diag(4, 6): two factors found apart, made a divisor chain
    assert _smith_form([{0: 4}, {1: 6}], 1) == [2, 12]
    assert _smith_form([], 1) == _smith_form([{}, {}], 1) == []


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
            pivots[prow] = normalized(col, prow)
            rank += 1
    return rank


def _ranks_from_betti(faces):
    """The boundary ranks behind `_homology_from_faces`, recovered from its
    Betti numbers on the faces packed: b_d = f_d - r_d - r_(d+1), with
    r_0 = 1."""
    ranks = [1]
    for d, b in enumerate(_homology_from_faces(*levels_and_counts(faces))
                          .reduced_betti):
        ranks.append(len(faces[d]) - ranks[d] - b)
    return ranks


def _oracle_ranks(faces):
    return [1] + [_rank_sparse(boundary_columns(faces, d))
                  for d in range(1, len(faces))] + [0]


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
    return closure(tops)


def _subdivided(faces_by_dim):
    """Faces by dimension of the barycentric subdivision: the chains of
    faces under inclusion, the k-th face listed being vertex k.  An order
    complex, so a flag complex, with the same homology groups."""
    cells = [face for dim_faces in faces_by_dim for face in dim_faces]
    index = {cell: k for k, cell in enumerate(cells)}
    return closure([index[tuple(sorted(flag[:k]))]
                    for k in range(1, len(flag) + 1)]
                   for cell in cells for flag in itertools.permutations(cell))


def test_ranks_match_the_reference_on_order_complexes(monkeypatch):
    four_flips = build_interval(identity(4), parse_cycles("[1][2][3][4]", 4), "D")
    posets = (full_poset("B", 3), full_poset("S", 4), full_poset("S", 5),
              coxeter_ideal(3, "B"), coxeter_ideal(4, "B"), four_flips)
    # the reference reads the faces over poset indices, where it fills in
    # least; the ranks do not depend on the labels
    maps = 0
    for p in posets:
        c = order_complex(p, strip="endpoints")
        faces = every_face(c.levels, c.counts)
        assert _ranks_from_betti(faces) == _oracle_ranks(
            by_index(c.indices, faces)), p.label
        maps += len(faces) - 1
    assert maps == 14
    # the intervals `cm_check` eliminates once per class, one [e, w] per
    # signed cycle type of B4 and D4, with and without its ends (five are
    # empty when stripped), each answering at a torsion guard of 0
    monkeypatch.setattr(topology, "TORSION_GUARD", 0)
    complexes = 0
    for kind in ("B", "D"):
        types = {}
        for w in group_elements(kind, 4):
            types.setdefault(cycle_type(w), w)
        for w in types.values():
            iv = build_interval(identity(4), w, kind)
            for strip in ("endpoints", "none"):
                c = order_complex(iv, strip=strip)
                faces = every_face(c.levels, c.counts)
                name = (kind, format_cycles(w), strip)
                assert not faces or (_ranks_from_betti(faces)
                                     == _oracle_ranks(by_index(c.indices, faces))), name
                assert not any(homology(c).torsion.values()), name
                complexes += 1
                maps += max(len(faces) - 1, 0)
    assert (complexes, maps) == (62, 14 + 107)


def test_ranks_match_the_reference_on_random_complexes(monkeypatch):
    # the reference reads no residual; only the kernel's deferrals record
    rng = random.Random(20261018)
    low_homology = zero_columns = deferring = 0
    for k in range(200):
        faces = _subdivided(_random_complex(rng))
        residuals = _recording_residuals(monkeypatch)
        assert _ranks_from_betti(faces) == _oracle_ranks(faces), (k, faces)
        deferring += bool(residuals)
        low_homology += any(_homology_from_faces(*levels_and_counts(faces))
                            .reduced_betti[:-1])
        cofaces = {face[:i] + face[i + 1:]
                   for dim_faces in faces[1:] for face in dim_faces
                   for i in range(len(face))}
        zero_columns += any(face not in cofaces
                            for dim_faces in faces[:-1] for face in dim_faces)
    assert low_homology >= 100
    assert zero_columns >= 100
    assert deferring >= 20


def test_homology_of_a_vertex_list_sorted_again():
    # the kernel sizes its neighbour masks by the last vertex listed and
    # starts clearing from it, so it takes the vertices in ascending order,
    # as every order complex lists them; lists drawn out of order and
    # sorted again keep their Betti numbers
    hollow = [[(2,), (0,), (1,)], [(0, 1), (0, 2), (1, 2)]]
    hollow[0].sort()
    assert _homology_from_faces(*levels_and_counts(hollow)
                                ).reduced_betti == (0, 1)
    rng = random.Random(3)
    for k in range(50):
        faces = _subdivided(_random_complex(rng))
        shuffled = rng.sample(faces[0], len(faces[0]))
        ranks = _oracle_ranks(faces)
        profile = _homology_from_faces(
            *levels_and_counts([sorted(shuffled)] + faces[1:]))
        assert profile.reduced_betti == tuple(
            len(dim_faces) - ranks[d] - ranks[d + 1]
            for d, dim_faces in enumerate(faces)), k


def test_cm_check_eliminates_each_interval_class_once(monkeypatch):
    calls = []
    eliminate = topology._homology_from_faces

    def counting(levels, counts):
        calls.append(len(counts))
        return eliminate(levels, counts)

    def no_walk(*args):
        raise AssertionError("walked the faces although every gap passes")

    c = order_complex(coxeter_ideal(4, "B"), strip="endpoints")
    monkeypatch.setattr(topology, "_homology_from_faces", counting)
    monkeypatch.setattr(topology, "_poly_mul", no_walk)
    report = cm_check(c)
    assert report.ok and report.faces_checked == 1 + c.face_count() == 33729
    # the whole complex, 11 signed cycle types, 280 gaps above an element
    assert len(calls) <= 1 + 11 + 280


def test_cm_check_builds_no_poset(monkeypatch):
    # every gap is a mask on the complex's own poset, the class intervals
    # included
    c = order_complex(coxeter_ideal(4, "B"), strip="endpoints")

    def no_build(*args):
        raise AssertionError("cm_check built a poset")

    monkeypatch.setattr(order.Poset, "__init__", no_build)
    assert cm_check(c).ok


def test_cm_check_matches_links_on_stripped_subposets():
    # intervals [e, w] of B4 less a few rank-2 elements, masks on B4
    # stripped of both ends: gaps at the open ends and between members are
    # smaller than the group intervals they lie in, and must be eliminated
    # on their own
    b4 = full_poset("B", 4)
    tops = [i for i in range(len(b4)) if b4.rank[i] == 4]
    rng = random.Random(20261019)
    reports = []
    for k in range(12):
        below = list(bits(b4.below[rng.choice(tops)]))
        drop = rng.sample([i for i in below if b4.rank[i] == 2],
                          rng.randint(1, 6))
        c = _on_members(b4, [i for i in below if i not in drop], "endpoints")
        reports.append(cm_check(c).to_json())
        assert reports[-1] == _links_from_scratch(c), k
    assert 3 <= sum(r["ok"] for r in reports) <= 9


def test_cm_check_matches_links_when_the_ends_are_kept():
    # the D4 four-flip interval less one interior element, a mask on it
    # with its ends kept: a gap with an open end holds the kept bottom or
    # top, so it lies in no group interval
    iv = build_interval(identity(4), parse_cycles("[1][2][3][4]", 4), "D")
    for z in range(1, len(iv) - 1, 3):
        c = _on_members(iv, [i for i in range(len(iv)) if i != z], "none")
        assert cm_check(c).to_json() == _links_from_scratch(c), z


def test_guard_messages_state_the_limit():
    with pytest.raises(ResourceGuardError,
                       match="'full' has more than the guard 10 chains"):
        order_complex(full_poset("B", 3), strip="endpoints", face_guard=10)


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
    assert labels == ["coxeter-ideal"]
    assert sorted(projected) == sorted(
        coxeter_ideal(n, kind).elements)
