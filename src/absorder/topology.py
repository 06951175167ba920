"""Order complexes, exact simplicial homology, and Cohen-Macaulay checks.

The complex of a poset has the poset's chains as faces.  Homology is
computed over the rationals with exact sparse elimination, so Betti numbers
are certificates, not floating-point estimates.  The Cohen-Macaulay test is
the link criterion: every link, the empty face included, must have reduced
homology concentrated in its top dimension.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .order import (Poset, ResourceGuardError, bits, build_ideal,
                    coxeter_ideal, fiber_ideal_M, full_poset, project_pi)
from .signed import cycle_decomposition, format_cycles

FACE_GUARD = 5_000_000


class SimplicialComplex:
    """Faces grouped by dimension, over the vertex set of a host poset.

    Vertices are indices into `poset.elements`; every face tuple is sorted
    ascending, which for poset chains means sorted by rank.
    """

    def __init__(self, poset: Poset, member_mask: int, faces_by_dim: list,
                 label: str = "complex"):
        self.poset = poset
        self.member_mask = member_mask
        self.faces_by_dim = faces_by_dim
        self.label = label

    def dim(self) -> int:
        return len(self.faces_by_dim) - 1

    def f_vector(self) -> tuple:
        return tuple(len(faces) for faces in self.faces_by_dim)

    def face_count(self) -> int:
        return sum(len(faces) for faces in self.faces_by_dim)

    def vertex_name(self, i: int) -> str:
        return format_cycles(self.poset.elements[i])

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "dim": self.dim(),
            "f_vector": list(self.f_vector()),
        }


def _chains_in_mask(p: Poset, mask: int, face_guard: int = FACE_GUARD) -> list:
    """All chains of the induced subposet on `mask`, grouped by size - 1.

    Chains extend upward from their largest element, so each chain is
    produced exactly once, in ascending index (hence rank) order.
    """
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
                f"face guard exceeded: more than {face_guard} chains"
            )
        for v in bits(up):
            stack.append((chain + (v,), up & p.above[v] & ~(1 << v)))
    for faces in faces_by_dim:
        faces.sort()
    return faces_by_dim


def _strip_mask(p: Poset, strip: str) -> int:
    """Mask of the elements kept under a strip mode.

    strip="endpoints" drops the minimum and maximum when they exist and
    dominate; a poset with many maximal elements only loses its bottom.
    """
    if strip not in ("none", "endpoints"):
        raise ValueError(f"unknown strip mode {strip!r}")
    mask = (1 << len(p)) - 1
    if strip == "endpoints":
        for end in (p.bottom(), p.top()):
            if end is not None:
                mask &= ~(1 << end)
    return mask


def order_complex(p: Poset, strip: str = "none",
                  face_guard: int = FACE_GUARD) -> SimplicialComplex:
    """The chain complex of a poset, optionally with endpoints removed."""
    mask = _strip_mask(p, strip)
    faces = _chains_in_mask(p, mask, face_guard)
    return SimplicialComplex(p, mask, faces,
                             label=f"chains of {p.label} (strip={strip})")


@dataclass
class HomologyProfile:
    reduced_betti: tuple
    euler: int

    def concentrated_in_top(self) -> bool:
        return all(b == 0 for b in self.reduced_betti[:-1])

    def to_json(self) -> dict:
        return {"reduced_betti": list(self.reduced_betti), "euler": self.euler}


def _normalized(col: dict, pivot_row) -> dict:
    pv = col[pivot_row]
    if pv == 1:
        return col
    if pv == -1:
        return {r: -v for r, v in col.items()}
    return {r: Fraction(v, pv) if isinstance(v, int) else v / pv
            for r, v in col.items()}


def _rank_sparse(columns: list) -> int:
    """Rank over the rationals of a matrix given as row->value columns."""
    pivots = {}
    rank = 0
    for col in columns:
        col = dict(col)
        while col:
            hit = None
            for r in col:
                if r in pivots:
                    hit = r
                    break
            if hit is None:
                break
            v = col.pop(hit)
            for rr, vv in pivots[hit].items():
                if rr == hit:
                    continue
                nv = col.get(rr, 0) - v * vv
                if nv:
                    col[rr] = nv
                else:
                    col.pop(rr, None)
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


def _boundary_columns(faces_by_dim: list, d: int) -> list:
    """The boundary map from d-faces to (d-1)-faces, as row->sign columns."""
    row_index = {face: k for k, face in enumerate(faces_by_dim[d - 1])}
    columns = []
    for face in faces_by_dim[d]:
        col = {}
        sign = 1
        for k in range(d + 1):
            col[row_index[face[:k] + face[k + 1:]]] = sign
            sign = -sign
        columns.append(col)
    return columns


def _homology_from_faces(faces_by_dim: list) -> HomologyProfile:
    if not faces_by_dim or not faces_by_dim[0]:
        return HomologyProfile((), -1)
    top = len(faces_by_dim) - 1
    ranks = [0] * (top + 2)
    ranks[0] = 1
    for d in range(1, top + 1):
        ranks[d] = _rank_sparse(_boundary_columns(faces_by_dim, d))
    betti = tuple(len(faces_by_dim[d]) - ranks[d] - ranks[d + 1]
                  for d in range(top + 1))
    euler = -1 + sum((-1) ** d * len(faces_by_dim[d]) for d in range(top + 1))
    assert sum((-1) ** d * b for d, b in enumerate(betti)) == euler
    return HomologyProfile(betti, euler)


def homology(c: SimplicialComplex) -> HomologyProfile:
    """Reduced rational Betti numbers and the reduced Euler characteristic."""
    return _homology_from_faces(c.faces_by_dim)


def chain_euler_characteristic(p: Poset, strip: str = "none") -> int:
    """Reduced Euler characteristic of the chain complex, by counting alone.

    Signed chain counting needs no boundary matrices, so this gives an
    independent route to the Euler characteristic for cross-checking.
    """
    mask = _strip_mask(p, strip)
    signed = {}
    for i in bits(mask):
        below = p.below[i] & mask & ~(1 << i)
        signed[i] = -1 - sum(signed[j] for j in bits(below))
    return -(1 + sum(signed.values()))


@dataclass
class CMReport:
    ok: bool
    mode: str
    faces_checked: int
    failing_face: tuple | None
    failing_betti: tuple | None

    def to_json(self) -> dict:
        data = {"ok": self.ok, "mode": self.mode,
                "faces_checked": self.faces_checked}
        if not self.ok:
            data["failing_face"] = list(self.failing_face)
            data["failing_betti"] = list(self.failing_betti)
        return data


def cm_check(c: SimplicialComplex, mode: str = "all", seed: int = 0,
             edge_samples: int = 200,
             face_guard: int = FACE_GUARD) -> CMReport:
    """Link criterion for Cohen-Macaulayness over the rationals.

    Checks the empty face first (the whole complex), then faces by ascending
    dimension.  In sampled mode only the empty face, every vertex link, and
    a seeded sample of edge links are examined; a passing sampled report is
    evidence, not a proof.
    """
    if mode not in ("all", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    p = c.poset
    comparable = {
        v: (p.below[v] | p.above[v]) & c.member_mask & ~(1 << v)
        for v in bits(c.member_mask)
    }
    checked = 0

    def link_ok(face):
        nonlocal checked
        link_mask = c.member_mask
        for v in face:
            link_mask &= comparable[v]
        profile = _homology_from_faces(_chains_in_mask(p, link_mask, face_guard))
        checked += 1
        return profile.concentrated_in_top(), profile

    ok, profile = link_ok(())
    if not ok:
        return CMReport(False, mode, checked, (), profile.reduced_betti)
    for d in range(len(c.faces_by_dim)):
        faces = c.faces_by_dim[d]
        if mode == "sampled":
            if d == 1 and len(faces) > edge_samples:
                faces = random.Random(seed).sample(faces, edge_samples)
            elif d > 1:
                break
        for face in faces:
            ok, profile = link_ok(face)
            if not ok:
                names = tuple(c.vertex_name(v) for v in face)
                return CMReport(False, mode, checked, names,
                                profile.reduced_betti)
    return CMReport(True, mode, checked, None, None)


def _smith_normal_form_diagonal(columns: list, rows: int) -> list:
    """Invariant factors of an integer matrix (small, dense computation)."""
    mat = [[0] * len(columns) for _ in range(rows)]
    for j, col in enumerate(columns):
        for r, v in col.items():
            mat[r][j] = v
    diag = []
    top = 0
    while True:
        found = None
        for i in range(top, len(mat)):
            for j in range(top, len(mat[0]) if mat else 0):
                if mat[i][j]:
                    if found is None or abs(mat[i][j]) < abs(mat[found[0]][found[1]]):
                        found = (i, j)
        if found is None:
            break
        i, j = found
        mat[top], mat[i] = mat[i], mat[top]
        for row in mat:
            row[top], row[j] = row[j], row[top]
        dirty = False
        for i in range(top + 1, len(mat)):
            q = mat[i][top] // mat[top][top]
            if q:
                for j in range(top, len(mat[0])):
                    mat[i][j] -= q * mat[top][j]
            if mat[i][top]:
                dirty = True
        for j in range(top + 1, len(mat[0])):
            q = mat[top][j] // mat[top][top]
            if q:
                for i in range(top, len(mat)):
                    mat[i][j] -= q * mat[i][top]
            if mat[top][j]:
                dirty = True
        if dirty:
            continue
        diag.append(abs(mat[top][top]))
        top += 1
    changed = True
    while changed:
        changed = False
        for k in range(len(diag) - 1):
            if diag[k + 1] % diag[k]:
                a, b = diag[k], diag[k + 1]
                g = gcd(a, b)
                diag[k], diag[k + 1] = g, a * b // g
                changed = True
    return diag


@dataclass
class IdealCheck:
    name: str
    size: int
    rank: int
    expected_rank: int
    graded: bool
    cm: CMReport

    def ok(self) -> bool:
        return self.rank == self.expected_rank and self.graded and self.cm.ok

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "rank": self.rank,
            "expected_rank": self.expected_rank,
            "graded": self.graded,
            "cm": self.cm.to_json(),
            "ok": self.ok(),
        }


def _single_cycles_with_projection(ambient: Poset, target) -> list:
    gens = []
    for v in ambient.elements:
        if len(cycle_decomposition(v).cycles) != 1:
            continue
        if project_pi(v, ambient.n) == target:
            gens.append(v)
    return gens


def _checked_ideal(name: str, ideal: Poset, expected_rank: int,
                   cm_mode: str) -> IdealCheck:
    report = cm_check(order_complex(ideal, strip="endpoints"), mode=cm_mode)
    return IdealCheck(name, len(ideal), ideal.height(), expected_rank,
                      ideal.is_graded_by_rank(), report)


def appendix_ideal_checks(kind: str, n: int, include_fibers: bool = True,
                          cm_mode: str = "all") -> list:
    """Rank and Cohen-Macaulay checks for the structural ideals.

    Long-cycle fiber ideals (n >= 3): the ideal generated by all single
    cycles projecting onto the full cycle on the first n-1 letters, in the
    plain (kind S) and both signed flavors (kind B); expected ranks are
    n-1 for the plain and pair-type targets and n for the balanced target.
    Fiber ideals: for every u one rank down, the ideal generated by the
    projection fiber of u, of expected rank one more than the length of u.
    """
    from .signed import absolute_length, balanced_cycle, paired_cycle

    checks = []
    if kind == "S":
        ambient = full_poset("S", n)
        if n >= 3:
            target = paired_cycle(tuple(range(1, n)), n)
            gens = _single_cycles_with_projection(ambient, target)
            ideal = build_ideal(gens, "S", label="long-cycle fiber ideal")
            checks.append(_checked_ideal(
                "plain long-cycle fiber ideal", ideal, n - 1, cm_mode))
        if include_fibers and n >= 2:
            for u in full_poset("S", n - 1).elements:
                ideal = fiber_ideal_M(u, ambient)
                checks.append(_checked_ideal(
                    f"fiber ideal over {format_cycles(u)}",
                    ideal, absolute_length(u, "S") + 1, cm_mode))
    elif kind == "B":
        if n >= 3:
            ambient = full_poset("B", n)
            target = paired_cycle(tuple(range(1, n)), n)
            gens = _single_cycles_with_projection(ambient, target)
            ideal = build_ideal(gens, "B", label="long-cycle fiber ideal")
            checks.append(_checked_ideal(
                "pair-type long-cycle fiber ideal", ideal, n - 1, cm_mode))
            target = balanced_cycle(tuple(range(1, n)), n)
            gens = _single_cycles_with_projection(ambient, target)
            ideal = build_ideal(gens, "B", label="long-cycle fiber ideal")
            checks.append(_checked_ideal(
                "balanced long-cycle fiber ideal", ideal, n, cm_mode))
        if include_fibers and n >= 2:
            ambient = coxeter_ideal(n, "B")
            for u in coxeter_ideal(n - 1, "B").elements:
                ideal = fiber_ideal_M(u, ambient)
                checks.append(_checked_ideal(
                    f"fiber ideal over {format_cycles(u)}",
                    ideal, absolute_length(u, "B") + 1, cm_mode))
    else:
        raise ValueError(f"no ideal checks for kind {kind!r}")
    return checks


def torsion_profile(c: SimplicialComplex, entry_guard: int = 250_000) -> dict:
    """Torsion coefficients of each boundary map, via Smith normal form.

    Returns {d: [invariant factors > 1]}; all empty means the integral
    homology is free, so the rational Betti numbers tell the whole story.
    """
    out = {}
    for d in range(1, len(c.faces_by_dim)):
        rows = len(c.faces_by_dim[d - 1])
        cols = len(c.faces_by_dim[d])
        if rows * cols > entry_guard:
            raise ResourceGuardError(
                f"torsion guard exceeded at dimension {d}: {rows}x{cols}"
            )
        diag = _smith_normal_form_diagonal(
            _boundary_columns(c.faces_by_dim, d), rows)
        out[d] = [v for v in diag if v > 1]
    return out
