"""Order complexes, exact simplicial homology, and Cohen-Macaulay checks.

The complex of a poset has the poset's chains as faces.  Homology is
computed over the integers with exact sparse elimination, so Betti numbers
and torsion are certificates, not floating-point estimates.  The
Cohen-Macaulay test is the link criterion: every link, the empty face
included, must have reduced homology concentrated in its top dimension.
"""

import gc
import itertools
from bisect import bisect
from collections import Counter, namedtuple
from functools import reduce, wraps
from itertools import repeat
from math import gcd
from operator import and_, or_

from .order import (Poset, ResourceGuardError, _fibers, _graded, _greatest,
                    _group_lower_set, _hall_mobius, _least, bits)
from .series import _convolve
from .signed import (balanced_cycle, cycle_decomposition, cycle_type,
                     format_cycles, paired_cycle, signed_cycle_types)

FACE_GUARD = 5_000_000
# Most entries, rows x columns, of what is left of the residual of the
# homology elimination, the columns it defers, when `_smith_form` meets a
# pivot other than +-1 there.
TORSION_GUARD = 250_000


def _collector_paused(f):
    """f with the cyclic collector paused, then left as the caller had it:
    the kernels below make many containers but no cycles."""
    @wraps(f)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return f(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


def _width(levels: list) -> int:
    """Bits per vertex of packed faces: the bit length of the largest
    vertex label, at least 1."""
    return max(levels[0], default=0).bit_length() or 1 if levels else 1


def _unpacked(face: int, shifts: range) -> list:
    """The vertex labels of `face` at the bit offsets `shifts`, first to
    last; a d-face packed w bits a label has them at range(w*d, -1, -w)."""
    tail = (1 << -shifts.step) - 1
    return [face >> s & tail for s in shifts]


class SimplicialComplex:
    """Faces grouped by dimension, over the vertex set of a host poset.

    The complex must be flag, its faces the cliques of its edges, as an
    order complex is: `homology` raises ValueError for one that is not
    flag below its top dimension.  Each face, an ascending vertex tuple, is
    given and kept as one int, its labels packed `_width` bits each, the
    first most significant, so integer order is lexicographic; `levels[d]`
    lists the d-faces ascending.  The elimination sizes its neighbour masks
    by the last vertex listed; `homology` refuses a vertex list out of order.
    `indices[v]` is the poset index of vertex v: an order complex labels
    its members in rank-descending order, ties broken by the reversed image
    tuple (see `_chains_in_mask`).
    Hand-built complexes, with no host poset, leave it None.  `homology`
    keeps its profile here, so each complex is eliminated once.
    `counts[d]` is the number of d-faces and `built` the levels built: an
    order complex defers a top level of dimension 2 or more, read only for
    its size, which `top()` builds on the first read of `levels`.  A
    hand-built complex gives every level, counted by their lengths.
    """

    def __init__(self, poset: Poset, member_mask: int, faces: list,
                 label: str = "complex", indices: list | None = None,
                 counts: list | None = None, top=None):
        self.poset = poset
        self.member_mask = member_mask
        self.built = faces
        self.counts = counts or [len(level) for level in faces]
        self._top = top
        self.label = label
        self.indices = indices
        self._homology = None

    @property
    def levels(self) -> list:
        """Every level of faces, the deferred top built on the first read."""
        if self._top is not None:
            self.built.append(self._top())
            self._top = None
        return self.built

    def dim(self) -> int:
        return len(self.counts) - 1

    def f_vector(self) -> tuple:
        return tuple(self.counts)

    def face_count(self) -> int:
        return sum(self.counts)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "dim": self.dim(),
            "f_vector": list(self.f_vector()),
        }


@_collector_paused
def _chains_in_mask(p: Poset, mask: int, face_guard: int | None = None):
    """(indices, levels, counts, top): the chains of the members of `mask`,
    packed as `SimplicialComplex` keeps them and grouped by size - 1, over
    labels 0, 1, ... that ascend as rank descends, ties broken by the image
    tuple read from the last letter back, (w(n), ..., w(1)); `indices[v]`
    is the poset index of label v and `counts[d]` the number of d-chains.

    Level by level from the empty chain, 0, each chain c becomes c << w | v
    for the members v below its lowest element, its last label (every
    member for the empty chain), in ascending order: every level ascends.
    A level's size sums the members below the last labels of the level
    before it.  The top level, of chains that all end in a member with
    nothing below it, is only counted from dimension 2 up: `top()` builds
    it by the same step (top is None when every level is built).  The
    guard, FACE_GUARD when none is given, is checked on the total so far
    before each level is built or counted.
    """
    face_guard = FACE_GUARD if face_guard is None else face_guard
    indices = sorted(bits(mask), key=lambda v: (-p.rank[v], p.elements[v][::-1]))
    label = {v: k for k, v in enumerate(indices)}
    below = [sorted(label[u] for u in bits(p.below[v] & mask & ~(1 << v)))
             for v in indices]
    w = (len(indices) - 1).bit_length() or 1
    tail = (1 << w) - 1  # the bits of a chain's last label

    def step(chains, downs):  # each chain extended by each label in its down
        return [c | v for c, down in zip(map(w.__rlshift__, chains), downs)
                for v in down]

    levels, counts, chains, downs = [], [], [0], [range(len(indices))]
    while size := sum(map(len, downs)):
        if sum(counts) + size > face_guard:
            raise ResourceGuardError(
                f"face guard exceeded: the poset {p.label!r} has more than "
                f"the guard {face_guard} chains")
        counts.append(size)
        if len(levels) > 1 and not any(map(
                below.__getitem__, itertools.chain.from_iterable(downs))):
            return indices, levels, counts, lambda: step(
                chains, [below[c & tail] for c in chains])
        chains = step(chains, downs)
        levels.append(chains)
        downs = [below[c & tail] for c in chains]
    return indices, levels, counts, None


def _strip_mask(p: Poset, strip: str, mask: int) -> int:
    """The members of `mask` kept under a strip mode.

    strip="endpoints" drops their least and greatest member when they
    exist; members with many maximal elements only lose their bottom.
    """
    if strip not in ("none", "endpoints"):
        raise ValueError(f"unknown strip mode {strip!r}")
    if strip == "endpoints":
        for end in (_least(p, mask), _greatest(p, mask)):
            if end is not None:
                mask &= ~(1 << end)
    return mask


def _mask_complex(p: Poset, mask: int, strip: str, name: str,
                  face_guard: int | None = None) -> SimplicialComplex:
    """The chain complex of the members of `mask` kept under `strip`."""
    kept = _strip_mask(p, strip, mask)
    indices, levels, counts, top = _chains_in_mask(p, kept, face_guard)
    label = f"chains of {name} (strip={strip})"
    return SimplicialComplex(p, kept, levels, label, indices, counts, top)


def order_complex(p: Poset, strip: str = "none",
                  face_guard: int | None = None) -> SimplicialComplex:
    """The chain complex of a poset, optionally with endpoints removed."""
    return _mask_complex(p, (1 << len(p)) - 1, strip, p.label, face_guard)


class HomologyProfile(namedtuple("HomologyProfile", "reduced_betti torsion")):
    """Reduced Betti numbers over Q.  `torsion`, which the JSON view leaves
    out, maps each d >= 1 to the invariant factors above 1 of the boundary
    map d; each profile has its own dict.  Equality compares both fields,
    and the dict makes a profile unhashable."""

    __slots__ = ()

    def __new__(cls, reduced_betti: tuple, torsion: dict | None = None):
        return super().__new__(cls, reduced_betti,
                               {} if torsion is None else torsion)

    @property
    def euler(self) -> int:
        """Reduced Euler characteristic, sum (-1)^i b_i; -1 when empty."""
        if not self.reduced_betti:
            return -1
        return sum((-1) ** i * b for i, b in enumerate(self.reduced_betti))

    def concentrated_in_top(self) -> bool:
        return all(b == 0 for b in self.reduced_betti[:-1])

    def to_json(self) -> dict:
        return {"reduced_betti": list(self.reduced_betti), "euler": self.euler}


def _normalized(col: dict, pivot_row) -> dict:
    """The column scaled to 1 at its +-1 pivot row."""
    return col if col[pivot_row] == 1 else {r: -v for r, v in col.items()}


def _subtract(col: dict, v, pivot: dict) -> None:
    """col -= v * pivot, in place, dropping the entries that vanish."""
    for r, pv in pivot.items():
        nv = col.get(r, 0) - v * pv
        if nv:
            col[r] = nv
        else:
            col.pop(r, None)


def _cofaces(face: int, shifts: range, common: int):
    """(face with u inserted at k, (-1)^k) for the vertices u of `common`;
    `shifts` are the offsets of the vertices of `face`."""
    vertices, w = _unpacked(face, shifts), -shifts.step
    for u in bits(common):
        k = bisect(vertices, u)
        s = w * (len(vertices) - k)  # the bits of the labels above u
        yield ((face >> s << w | u) << s | face & (1 << s) - 1,
               -1 if k & 1 else 1)


def _neighbours(levels: list, w: int) -> list:
    """The bit mask of each vertex's neighbours along the edges."""
    neighbours = [0] * (levels[0][-1] + 1)
    for a, b in map(divmod, levels[1] if len(levels) > 1 else (),
                    repeat(1 << w)):
        neighbours[a] |= 1 << b
        neighbours[b] |= 1 << a
    return neighbours


def _pivot(pivots: dict, low: int, get, shifts: range) -> dict:
    """The pivot column of row `low`, built on first use from its face,
    whose vertices lie at the offsets `shifts`."""
    pivot = pivots[low]
    if type(pivot) is int:
        pivot = pivots[low] = _normalized(dict(_cofaces(pivot, shifts, reduce(
            and_, map(get, _unpacked(pivot, shifts))))), low)
    return pivot


@_collector_paused
def _homology_from_faces(levels: list, counts: list) -> HomologyProfile:
    """Reduced Betti numbers over Q and torsion over Z, by cohomology with
    clearing, from the packed faces of `SimplicialComplex.built` and the
    number of faces of each dimension, `counts`: the top dimension, which
    has no coboundary, is read only for its count, so it need not be built.

    The coboundaries delta^d are reduced for d = 0, 1, ... by lowest-row
    pivots, skipping the pivot rows of delta^(d-1) (Chen and Kerber): a
    reduced column of delta^(d-1) with lowest row i is a cocycle, so column
    i of delta^d is a combination of earlier columns, by induction of kept
    ones.  The augmentation (ranks[0] = 1) clears the last vertex.

    Columns are implicit and keyed, like rows, by packed faces (as Ripser,
    Bauer 2021, keys simplices by integers).  A coface of s inserts a common
    neighbour u of its vertices at a position growing with u, so the lowest
    row of column s is s plus its highest u, the key of its pivot.  The scan
    intersects the neighbour masks of each distinct prefix s >> w once, for
    the run of faces sharing it, so each face costs one more intersection,
    with the mask of its last vertex; a highest u above that vertex gives
    s << w | u, one below it is spliced in under the vertices above u, the
    last and those that the prefix's vertex mask holds above u.  A column
    whose lowest row is no pivot yet is kept as its face and built, unpacked
    once, only when a later column reduces against it.
    An order complex labels its vertices in rank-descending order, so u is a
    member below the chain's bottom when there is one; s then is the only
    face whose lowest row is s + (u,), and in an ideal nearly every column
    is kept at once; ties in rank broken by the reversed image tuple make
    other lowest rows collide far less than ties by poset index.  Built
    columns are dropped when their dimension ends: clearing reads rows.
    Each common neighbour gives a face only in a flag complex, such as an
    order complex: if the d-faces are the cliques of their size and the
    common neighbours above the last vertex of each number f_(d+1) in all,
    so are the (d+1)-faces.  Where the scan's total, over masks, is not
    `counts[d + 1]`, for an order complex the builder's own count over its
    member lists, ValueError is raised.

    A column becomes a pivot only when its lowest entry is +-1, as a column
    kept as its face has, so every column operation is unimodular and
    clearing holds over Z (the cocycle's +-1 in row i makes column i an
    integer combination of earlier ones).  Any other reduced column is
    deferred, and at the end of its dimension cleared in one sweep over the
    pivot rows, highest first: a pivot has no entry above its own row, so a
    row once cleared is never filled again.  The residual left is zero on
    every pivot row and the pivots are unitriangular on theirs, so the Smith
    form of delta^d is ones for the pivots and `_smith_form` of the
    residual, which TORSION_GUARD bounds.  The factors add to the rank;
    those above 1 are the torsion of the boundary map d + 1, the transpose
    of delta^d.
    """
    if not levels or not levels[0]:
        return HomologyProfile(())
    w = _width(levels)
    tail = (1 << w) - 1  # the bits of a face's last vertex
    neighbours = _neighbours(levels, w)
    get = neighbours.__getitem__
    ranks = [1] + [0] * len(counts)
    cleared = {levels[0][-1]}
    torsion = {}
    for d in range(len(counts) - 1):
        shifts = range(w * d, -1, -w)
        pivots, extensions, deferred = {}, 0, []
        prefix = -1  # of the run of faces that share all vertices but the last
        for face in levels[d]:
            if face >> w != prefix:
                prefix, shared, held = face >> w, -1, 0
                for s in shifts[1:]:
                    v = prefix >> s & tail
                    shared &= neighbours[v]
                    held |= 1 << v
            last = face & tail
            common = shared & neighbours[last]
            above = common >> last + 1
            if above:
                extensions += above.bit_count()
            if face in cleared or not common:
                continue
            u = common.bit_length() - 1
            if above:
                low = face << w | u
            else:  # s: the bits of the vertices above u, the last one's too
                s = w * ((held >> u).bit_count() + 1)
                low = (face >> s << w | u) << s | face & (1 << s) - 1
            if low not in pivots:
                pivots[low] = face
                continue
            col = dict(_cofaces(face, shifts, common))
            while low in pivots:
                _subtract(col, col[low], _pivot(pivots, low, get, shifts))
                low = max(col, default=None)
            if low is None:
                continue
            if col[low] in (1, -1):
                pivots[low] = _normalized(col, low)
            else:
                deferred.append(col)
        if extensions != counts[d + 1]:
            raise ValueError(
                f"not a flag complex at dimension {d}: {extensions} common "
                f"neighbours above the last vertices of its faces, "
                f"{counts[d + 1]} faces of dimension {d + 1}")
        factors = []
        if deferred:
            for low in sorted(pivots, reverse=True):
                for col in deferred:
                    if low in col:
                        _subtract(col, col[low],
                                  _pivot(pivots, low, get, shifts))
            factors = _smith_form(deferred, d + 1)
        ranks[d + 1] = len(pivots) + len(factors)
        torsion[d + 1] = [v for v in factors if v > 1]
        for low in pivots:  # in place: clearing reads the rows alone
            pivots[low] = None
        cleared = pivots
    betti = tuple(f - ranks[d] - ranks[d + 1] for d, f in enumerate(counts))
    return HomologyProfile(betti, torsion)


def homology(c: SimplicialComplex) -> HomologyProfile:
    """Reduced rational Betti numbers, the reduced Euler characteristic and
    the torsion, eliminated on the first call and kept on the complex.  The
    vertices must be listed in ascending order, as `_neighbours` and
    clearing assume; ValueError otherwise.  ResourceGuardError when a
    residual is over TORSION_GUARD."""
    if c._homology is None:
        vertices = c.built[0] if c.built else []
        for a, b in zip(vertices, vertices[1:]):
            if a >= b:
                raise ValueError(
                    f"the vertices of {c.label!r} must be listed in "
                    f"ascending order: {a} comes before {b}")
        c._homology = _homology_from_faces(c.built, c.counts)
    return c._homology


def chain_euler_characteristic(p: Poset, strip: str = "none") -> int:
    """Reduced Euler characteristic of the chain complex, by counting alone.

    It is `_hall_mobius` of the kept members (P. Hall's theorem), so no
    boundary matrix is built: an independent route for cross-checking.
    """
    return _hall_mobius(p, _strip_mask(p, strip, (1 << len(p)) - 1))


class CMReport(namedtuple(
        "CMReport",
        "ok mode faces_checked failing_face failing_betti homology")):
    """The outcome of `cm_check`; `mode` is always "all" (every link).

    `homology` is the complex's own, the link of the empty face; it is not
    part of the JSON report.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        data = {"ok": self.ok, "mode": self.mode,
                "faces_checked": self.faces_checked}
        if not self.ok:
            data["failing_face"] = list(self.failing_face)
            data["failing_betti"] = list(self.failing_betti)
        return data


def _poly_mul(a: tuple, b: tuple) -> tuple:
    """Product of two integer coefficient tuples, trailing zeros kept."""
    return tuple(_convolve(a, b, len(a) + len(b) - 1))


def _conjugation_invariant(p: Poset, types: dict) -> bool:
    """Whether the members, keys of `types` with their cycle types, are a
    union of conjugacy classes (of S_n for kind S, else of B_n)."""
    sizes = {t: size for t, _, size in signed_cycle_types(p.kind, p.n)}
    return all(sizes[t] == k for t, k in Counter(types.values()).items())


def _poly_of(h: HomologyProfile) -> tuple:
    return (0,) + h.reduced_betti if h.reduced_betti else (1,)


def _stripped_ends(c: SimplicialComplex) -> tuple:
    """The bottom and top of the host that `c` leaves out, else None."""
    return tuple(end if end is not None and not c.member_mask >> end & 1
                 else None for end in (c.poset.bottom(), c.poset.top()))


def _gap_polys(c: SimplicialComplex, whole: HomologyProfile):
    """(gap, types): `gap(lo, hi)` is P of the gap (lo, hi) of `cm_check`,
    memoised, a None end open; `types` maps each member to its cycle type."""
    p = c.poset
    polys = {(None, None): _poly_of(whole)}
    classes, sides = {}, {}
    types = {v: cycle_type(p.elements[v]) for v in bits(c.member_mask)}
    invariant = _conjugation_invariant(p, types)
    bottom, top = _stripped_ends(c)
    at_e = bottom is not None and not cycle_decomposition(p.elements[bottom])

    def eliminate(mask: int) -> tuple:
        return _poly_of(_homology_from_faces(*_chains_in_mask(p, mask)[1:3]))

    def gap(lo, hi) -> tuple:
        if (lo, hi) not in polys:
            mask = c.member_mask
            if lo is not None:
                mask &= p.above[lo] & ~(1 << lo)
            if hi is not None:
                mask &= p.below[hi] & ~(1 << hi)
            x, y = bottom if lo is None else lo, top if hi is None else hi
            if x is None or y is None:
                end = hi if lo is None else lo  # below end iff lo is None
                key = (lo is None, types[end]) if invariant else (lo, hi)
                if key not in sides:
                    sides[key] = eliminate(mask)
                polys[lo, hi] = sides[key]
            elif p.rank[y] - p.rank[x] <= 2:
                polys[lo, hi] = (0, mask.bit_count() - 1) if mask else (1,)
            elif mask == p.above[x] & p.below[y] & ~(1 << x | 1 << y):
                key = (types[y] if lo is None and at_e else
                       cycle_type(p.elements[x].inverse() * p.elements[y]))
                if key not in classes:
                    classes[key] = eliminate(mask)
                polys[lo, hi] = classes[key]
            else:
                polys[lo, hi] = eliminate(mask)
        return polys[lo, hi]

    return gap, types


@_collector_paused
def cm_check(c: SimplicialComplex) -> CMReport:
    """Link criterion for Cohen-Macaulayness over the rationals.

    The link of a chain c_0 < ... < c_k is the join of its gaps, the open
    intervals below c_0, between its elements and above c_k; over a field
    P(X) = sum_i b_i(X) t^(i+1) (reduced Betti numbers) is multiplicative on
    joins, with P = 1 for an empty gap.  Every gap is one of a face of
    dimension at most 1, so when each distinct gap's P is concentrated in
    its top degree, so is every link's (the interval criterion of Bjorner,
    Garsia and Stanley).  Otherwise faces are walked by dimension, the empty
    face first and each dimension in lexicographic order of poset indices,
    to the first link whose Betti numbers (P from t^1 up) fail.

    A gap (x, y) lies in the open interval (x, y) of the host poset (an
    open end stands for a stripped bottom or top).  The host is convex, so
    that is the group interval, which x^-1 carries onto (e, x^-1 y); one
    signed cycle type is one conjugacy class of S_n (kind S) or of B_n (an
    automorphism of D's order too), so the first gap of each type (of y
    when x = e) that is all of its interval is eliminated in place, and
    later ones reuse it; one with fewer members is eliminated apart.  When
    y is at most two ranks above x the gap is an antichain: k points have
    P = (k - 1) t and none P = 1, with no elimination; it never fails, so
    the pass over distinct gaps skips those edges.  It skips every (x, y)
    with x a member, once the others pass, when members and stripped ends
    are a lower set of the group (`_group_lower_set`): z = x^-1 y <= y
    (Brady and Watt), so (x, y) is the gap below the member z.

    A gap open at one end, (x, open) or (open, y), lies in no interval.
    When the member set M is closed under conjugation (decided once, by
    class counts), g carries (x, open) onto (g x g^-1, open) inside M, so
    each side and cycle type of the end is eliminated once; for any other
    M each such gap is eliminated apart.
    """
    whole = homology(c)
    gap, types = _gap_polys(c, whole)
    p, at, w = c.poset, c.indices, _width(c.built)

    def by_index(d, faces):  # poset indices, ascending: the lower end first
        shifts = range(w * d, -1, -w)
        return sorted(tuple(sorted(at[v] for v in _unpacked(f, shifts)))
                      for f in faces)

    bottom, top = _stripped_ends(c)
    gaps = [(None, None)] + [(None, v) for v in at] + [(v, None) for v in at]
    cut = len(gaps) - (top is not None) * len(at)  # (v, top) is two-ended
    edges = map(divmod, (c.built + [[], []])[1], repeat(1 << w))
    spans = itertools.chain(gaps[cut:], (
        (at[lo], at[hi]) for hi, lo in edges
        if p.rank[at[hi]] - p.rank[at[lo]] > 2))
    stripped = {v: cycle_type(p.elements[v]) for v in (bottom, top)
                if v is not None}
    lower = reduce(or_, map((1).__lshift__, stripped), c.member_mask)
    if any(any(gap(*ends)[:-1]) for ends in gaps[:cut]) or not (
            bottom is not None
            and _group_lower_set(p, lower, types | stripped)) and any(
            any(gap(*ends)[:-1]) for ends in spans):
        faces = itertools.chain([()], itertools.chain.from_iterable(
            itertools.starmap(by_index, enumerate(c.built[:c.dim()]))))
        for checked, face in enumerate(faces, 1):
            ends = (None,) + face + (None,)
            betti = reduce(_poly_mul, map(gap, ends, ends[1:]))[1:]
            if any(betti[:-1]):
                names = tuple(format_cycles(p.elements[v]) for v in face)
                return CMReport(False, "all", checked, names, betti, whole)
    return CMReport(True, "all", 1 + c.face_count(), None, None, whole)


def _smith_form(columns: list, dim: int) -> list:
    """Invariant factors of the integer matrix with these {row: value}
    columns, reduced in place; `dim` names the boundary map in the guard.

    The pivot is the first entry a of least |a| in scan order, columns in
    turn, so every +-1 is taken before any larger entry.  Row r of a is
    cleared from the other columns by col[r] // a times the pivot.  While
    any of them keeps an entry in row r, the pivot goes back unchanged: a
    row operation is valid only once row r is zero elsewhere.  Then the
    pivot's other entries are reduced modulo a; the remainders, if any,
    go back with a in row r, else |a| is one factor.  Each return leaves a
    nonzero entry below |a|, so the least entry falls until a factor is
    found.  TORSION_GUARD bounds rows x columns of what is left at each
    pivot other than +-1.  The factors are made a divisor chain at the end.
    """
    factors = []
    while columns := [col for col in columns if col]:
        k, r = min(((k, r) for k, col in enumerate(columns) for r in col),
                   key=lambda kr: abs(columns[kr[0]][kr[1]]))
        pivot = columns[k]
        a = pivot[r]
        if a * a > 1:
            rows = len(set().union(*columns))
            if rows * len(columns) > TORSION_GUARD:
                raise ResourceGuardError(
                    f"torsion guard exceeded at dimension {dim}: a residual "
                    f"of {rows}x{len(columns)} entries for the Smith form, "
                    f"more than the guard {TORSION_GUARD}")
        others = [col for col in columns if col is not pivot]
        for col in others:
            if r in col:
                _subtract(col, col[r] // a, pivot)
        if any(r in col for col in others):
            continue
        rest = {s: v % a for s, v in pivot.items() if v % a}
        columns[k] = {**rest, r: a} if rest else {}
        if not rest:
            factors.append(abs(a))
    for k in range(len(factors)):  # gcd forward, lcm back: a divisor chain
        for j in range(k + 1, len(factors)):
            g = gcd(factors[k], factors[j])
            factors[k], factors[j] = g, factors[k] * factors[j] // g
    return factors


class IdealCheck(namedtuple("IdealCheck",
                            "name size rank expected_rank graded cm")):
    __slots__ = ()

    def ok(self) -> bool:
        return self.rank == self.expected_rank and self.graded and self.cm.ok

    def to_json(self) -> dict:
        return {**self._asdict(), "cm": self.cm.to_json(), "ok": self.ok()}


def _checked_ideal(name: str, ambient: Poset, mask: int,
                   expected_rank: int) -> IdealCheck:
    """Rank, grading and link criterion of the ideal `mask` of `ambient`,
    its bottom and top stripped."""
    c = _mask_complex(ambient, mask, "endpoints", name)
    ranks = [ambient.rank[i] for i in bits(mask)]
    return IdealCheck(name, mask.bit_count(), max(ranks) - min(ranks),
                      expected_rank, _graded(ambient, mask), cm_check(c))


def appendix_ideal_checks(ambient: Poset) -> list:
    """Rank and Cohen-Macaulay checks for the structural ideals.

    `ambient` is `coxeter_ideal(n, kind)` for kind S (all of S_n) or B;
    other kinds raise ValueError, and below n = 2 there are no checks.
    Every ideal is a mask on the ambient poset, generated by a part of a
    fiber of the projection deleting letter n.
    Long-cycle fiber ideals (n >= 3): the ideal generated by all single
    cycles projecting onto the full cycle on the first n-1 letters, in the
    plain (kind S) and both signed flavors (kind B); expected ranks are
    n-1 for the plain and pair-type targets and n for the balanced target.
    Fiber ideals: for every u fixing n, the ideal generated by the
    projection fiber of u, of expected rank one more than the length of u.
    """
    kind, n = ambient.kind, ambient.n
    if kind not in ("S", "B"):
        raise ValueError(f"no ideal checks for kind {kind!r}")
    if n < 2:
        return []
    fibers = _fibers(ambient, n)

    def generated(gens) -> int:
        mask = 0
        for g in gens:
            mask |= ambient.below[g]
        return mask

    checks = []
    letters = tuple(range(1, n))
    targets = []
    if n >= 3 and kind == "S":
        targets = [("plain", paired_cycle(letters, n), n - 1)]
    elif n >= 3:
        targets = [("pair-type", paired_cycle(letters, n), n - 1),
                   ("balanced", balanced_cycle(letters, n), n)]
    for flavor, target, expected_rank in targets:
        fixed, moved = fibers[target]
        gens = [g for g in bits(fixed | moved)
                if len(cycle_decomposition(ambient.elements[g])) == 1]
        checks.append(_checked_ideal(f"{flavor} long-cycle fiber ideal",
                                     ambient, generated(gens), expected_rank))
    for ui, u in enumerate(ambient.elements):
        if u(n) == n:
            fixed, moved = fibers[u]
            checks.append(_checked_ideal(
                f"fiber ideal over {format_cycles(u)}", ambient,
                generated(bits(fixed | moved)), ambient.rank[ui] + 1))
    return checks


def torsion_profile(c: SimplicialComplex) -> dict:
    """Torsion coefficients of each boundary map, {d: [factors > 1]}, as
    the elimination `homology` keeps found them; all empty means the
    integral homology is free."""
    return homology(c).torsion
