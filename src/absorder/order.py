"""The absolute order: comparisons, covering moves, intervals and ideals.

The order is defined by length additivity: u <= v iff
l(u) + l(u^{-1} v) = l(v), where l is reflection length.  It is graded by
l, its covers multiply by a single reflection, and for S_n and D_n it is
the subposet of Abs(B_n) induced on the subgroup (lengths restrict).

Finite subposets are carried around as `Poset` objects with order
relations stored as integer bitmasks, which keeps meets, joins, chain
DPs and transitive reductions cheap at desk scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .signed import (
    SignedPermutation,
    Cycle,
    absolute_length,
    cycle_decomposition,
    format_cycles,
    from_cycles,
    coxeter_elements,
    group_elements,
    group_order,
    identity,
    is_member,
    reflection_set,
)


# Largest group `full_poset` builds: S7 (5,040 elements) fits, D6 does not.
POSET_GUARD = 10_000


class ResourceGuardError(RuntimeError):
    """Raised when a computation would exceed its declared size guard."""


def abs_leq(u: SignedPermutation, v: SignedPermutation, kind: str = "B") -> bool:
    """u <= v in the absolute order: lengths add along u, u^{-1}v, v."""
    lu = absolute_length(u, kind)
    lv = absolute_length(v, kind)
    if lu > lv:
        return False
    return lu + absolute_length(u.inverse() * v, "B") == lv


def covers(w: SignedPermutation, kind: str = "B") -> set:
    """All covers of w: products wt by a reflection that raise length by 1."""
    lw = absolute_length(w, kind)
    out = set()
    for t in reflection_set(kind, w.n):
        wt = w * t
        if absolute_length(wt, "B") == lw + 1:
            out.add(wt)
    return out


def covered_by(w: SignedPermutation, kind: str = "B") -> set:
    """All elements covered by w (products wt dropping length by 1)."""
    lw = absolute_length(w, kind)
    out = set()
    for t in reflection_set(kind, w.n):
        wt = w * t
        if absolute_length(wt, "B") == lw - 1:
            out.add(wt)
    return out


def _word_reps(word, kind):
    """Every cyclic-word representation of a cycle.

    A paired k-cycle has its k rotations and their global negations; a
    balanced k-cycle has the 2k windows of length k of its doubled orbit.
    """
    k = len(word)
    if kind == "paired":
        neg = tuple(-a for a in word)
        return [word[i:] + word[:i] for i in range(k)] + [neg[i:] + neg[:i] for i in range(k)]
    orbit = word + tuple(-a for a in word)
    return [tuple(orbit[(i + j) % (2 * k)] for j in range(k)) for i in range(2 * k)]


def covers_by_pattern(w: SignedPermutation) -> set:
    """Covers of w in Abs(B_n), generated structurally instead of by trial
    multiplication.

    With every fixed point treated as a paired 1-cycle, the complete list
    of covering moves is:

    * turn a paired cycle ((a1,...,am)) into the balanced cycle
      [a1,...,ai,-a_{i+1},...,-am] for some i;
    * split a paired cycle ((a1,...,am)) into the two balanced cycles
      [a1,...,ai,-a_{j+1},...,-am][a_{i+1},...,aj] for some i < j;
    * merge a balanced cycle and a paired cycle into one balanced cycle by
      concatenating cycle words (any representations);
    * merge two paired cycles into one paired cycle the same way.

    Inserting a new letter into a cycle is the special case of merging
    with a paired 1-cycle, and creating [i] or ((i,j)) on fixed points is
    the 1-cycle case of the first and last moves.
    """
    n = w.n
    dec = cycle_decomposition(w)
    balanced = [c.entries for c in dec.balanced]
    paired = [c.entries for c in dec.paired] + [(i,) for i in sorted(dec.fixed_points)]
    others: dict = {}

    def rest_words(skip):
        key = skip
        if key not in others:
            words = [("balanced", b) for b in balanced] + [("paired", p) for p in paired]
            others[key] = [wd for wd in words if wd[1] not in skip]
        return others[key]

    out = set()
    for p in paired:
        base = rest_words((p,))
        m = len(p)
        for i in range(1, m + 1):
            word = p[:i] + tuple(-a for a in p[i:])
            out.add(from_cycles(base + [("balanced", word)], n))
        for i in range(1, m):
            for j in range(i + 1, m + 1):
                first = p[:i] + tuple(-a for a in p[j:])
                second = p[i:j]
                out.add(from_cycles(base + [("balanced", first), ("balanced", second)], n))
    for b in balanced:
        for p in paired:
            base = rest_words((b, p))
            for brep in _word_reps(b, "balanced"):
                for prep in _word_reps(p, "paired"):
                    out.add(from_cycles(base + [("balanced", brep + prep)], n))
    for a in range(len(paired)):
        for b_ in range(a + 1, len(paired)):
            p, q = paired[a], paired[b_]
            base = rest_words((p, q))
            for prep in _word_reps(p, "paired"):
                for qrep in _word_reps(q, "paired"):
                    out.add(from_cycles(base + [("paired", prep + qrep)], n))
    return out


def _embedded_cycle(cycle_entries, target_word) -> bool:
    """True when the cycle word arises from target_word by deleting entries."""
    sub = set(cycle_entries)
    filtered = tuple(a for a in target_word if a in sub)
    if len(filtered) != len(cycle_entries):
        return False
    k = len(filtered)
    doubled = filtered + filtered
    return any(doubled[i:i + k] == tuple(cycle_entries) for i in range(k))


def _noncrossing(pos_a, pos_b) -> bool:
    """No alternation i < j < k < l cyclically with i,k from a and j,l from b."""
    anchors = sorted(pos_a)
    gaps = set()
    for q in sorted(pos_b):
        lo = 0
        hi = len(anchors)
        while lo < hi:
            mid = (lo + hi) // 2
            if anchors[mid] < q:
                lo = mid + 1
            else:
                hi = mid
        gaps.add(lo % len(anchors))
        if len(gaps) > 1:
            return False
    return True


def sn_leq_noncrossing(u: SignedPermutation, v: SignedPermutation) -> bool:
    """The order on S_n via cycle containment and noncrossing placement.

    u <= v iff every nontrivial cycle of u is obtained from a cycle of v
    by deleting entries, and cycles of u coming from the same cycle of v
    sit noncrossing around it.
    """
    for w, name in ((u, "u"), (v, "v")):
        if not is_member(w, "S"):
            raise ValueError(f"{name} is not sign-free")
    vdec = cycle_decomposition(v)
    vcycles = [c.entries for c in vdec.cycles]
    host = {}
    for cyc in cycle_decomposition(u).cycles:
        parent = None
        for idx, word in enumerate(vcycles):
            if cyc.support <= set(word):
                parent = idx
                break
        if parent is None or not _embedded_cycle(cyc.entries, vcycles[parent]):
            return False
        host.setdefault(parent, []).append(cyc.entries)
    for idx, members in host.items():
        word = vcycles[idx]
        position = {a: i for i, a in enumerate(word)}
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pos_a = [position[a] for a in members[i]]
                pos_b = [position[a] for a in members[j]]
                if not _noncrossing(pos_a, pos_b):
                    return False
    return True


def bits(mask: int):
    """Yield the indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """A finite ranked subposet of an absolute order.

    `below[i]` is a bitmask over element indices j with element_j <= element_i
    (including i itself); `above` is the transpose.  Ranks are reflection
    lengths shifted so the minimum is 0, and indices ascend with rank.

    The element set must be convex: with x <= z <= y and x, y in the set,
    z is in it too.  Whole groups, intervals and ideals all are.  The order
    is graded by length and each cover multiplies by a single reflection,
    so on a convex set it is the transitive closure of the covers found by
    one reflection step down.  `subposet` gives the induced order on any
    other subset.
    """

    __slots__ = ("elements", "kind", "label", "n", "rank", "index",
                 "below", "above", "hasse_up")

    def __init__(self, elements, kind: str, label: str):
        lengths = {w: absolute_length(w, kind) for w in elements}
        self.elements = sorted(elements, key=lambda w: (lengths[w], w.images))
        self.kind = kind
        self.label = label
        self.n = self.elements[0].n if self.elements else 0
        base = min(lengths.values()) if lengths else 0
        self.rank = [lengths[w] - base for w in self.elements]
        self.index = {w: i for i, w in enumerate(self.elements)}
        k = len(self.elements)
        refs = reflection_set(kind, self.n)
        below = [1 << j for j in range(k)]
        self.hasse_up = [[] for _ in range(k)]
        for j, wj in enumerate(self.elements):
            for t in refs:
                i = self.index.get(wj * t)
                if i is not None and self.rank[i] == self.rank[j] - 1:
                    below[j] |= below[i]
                    self.hasse_up[i].append(j)
        above = [1 << i for i in range(k)]
        for i in reversed(range(k)):
            for j in self.hasse_up[i]:
                above[i] |= above[j]
        self.below = below
        self.above = above

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.below[j] >> i & 1)

    def rank_sizes(self) -> tuple:
        top = max(self.rank, default=0)
        sizes = [0] * (top + 1)
        for r in self.rank:
            sizes[r] += 1
        return tuple(sizes)

    def height(self) -> int:
        return max(self.rank, default=0)

    def bottom(self):
        mins = [i for i in range(len(self.elements)) if self.rank[i] == 0]
        if len(mins) == 1 and all(self.leq(mins[0], j) for j in range(len(self.elements))):
            return mins[0]
        return None

    def top(self):
        h = self.height()
        maxs = [i for i in range(len(self.elements)) if self.rank[i] == h]
        if len(maxs) == 1 and all(self.leq(i, maxs[0]) for i in range(len(self.elements))):
            return maxs[0]
        return None

    def is_bounded(self) -> bool:
        return self.bottom() is not None and self.top() is not None

    def maximal_indices(self) -> list:
        k = len(self.elements)
        return [i for i in range(k) if self.above[i] == 1 << i]

    def is_graded_by_rank(self) -> bool:
        """Every Hasse edge climbs exactly one rank."""
        return all(self.rank[j] == self.rank[i] + 1
                   for i in range(len(self.elements)) for j in self.hasse_up[i])

    def chain_counts(self) -> list:
        """counts[j] = number of chains of j elements, j >= 0."""
        k = len(self.elements)
        ending = [{1: 1} for _ in range(k)]
        counts = [1, k]
        for j in range(k):
            for i in bits(self.below[j] ^ (1 << j)):
                for size, cnt in ending[i].items():
                    ending[j][size + 1] = ending[j].get(size + 1, 0) + cnt
        top_size = max((max(d) for d in ending if d), default=1)
        for size in range(2, top_size + 1):
            counts.append(sum(d.get(size, 0) for d in ending))
        while counts and counts[-1] == 0:
            counts.pop()
        return counts

    def maximal_chain_count(self) -> int:
        """Number of maximal chains from the bottom to the top (bounded only)."""
        if not self.is_bounded():
            raise ValueError("maximal chain count needs a bounded poset")
        k = len(self.elements)
        paths = [0] * k
        paths[self.bottom()] = 1
        for i in range(k):
            for j in self.hasse_up[i]:
                paths[j] += paths[i]
        return paths[self.top()]

    def subposet(self, indices, label: str = "sub") -> "Poset":
        """The induced order on any subset, by restricting this one's masks."""
        keep = sorted(set(indices))
        where = {i: a for a, i in enumerate(keep)}

        def restrict(mask):
            out = 0
            for i in bits(mask):
                if i in where:
                    out |= 1 << where[i]
            return out

        sub = Poset.__new__(Poset)
        sub.elements = [self.elements[i] for i in keep]
        sub.kind, sub.label, sub.n = self.kind, label, self.n
        base = min((self.rank[i] for i in keep), default=0)
        sub.rank = [self.rank[i] - base for i in keep]
        sub.index = {w: a for a, w in enumerate(sub.elements)}
        sub.below = [restrict(self.below[i]) for i in keep]
        sub.above = [restrict(self.above[i]) for i in keep]
        sub.hasse_up = []
        for a, up in enumerate(sub.above):
            strict = up ^ (1 << a)
            sub.hasse_up.append([j for j in bits(strict)
                                 if strict & sub.below[j] == 1 << j])
        return sub

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "n": self.n,
            "elements": [format_cycles(w) for w in self.elements],
            "rank": list(self.rank),
            "hasse": sorted([i, j] for i in range(len(self.elements))
                            for j in self.hasse_up[i]),
        }, indent=2)

    def to_dot(self) -> str:
        lines = ["digraph poset {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
        for i, w in enumerate(self.elements):
            lines.append(f'  v{i} [label="{format_cycles(w)}"];')
        for r in range(self.height() + 1):
            layer = " ".join(f"v{i};" for i in range(len(self.elements)) if self.rank[i] == r)
            lines.append("  { rank=same; " + layer + " }")
        for i in range(len(self.elements)):
            for j in self.hasse_up[i]:
                lines.append(f"  v{i} -> v{j};")
        lines.append("}")
        return "\n".join(lines)


def elements_below(v: SignedPermutation, kind: str = "B") -> set:
    """The principal ideal {z : z <= v}, by downward multiplication search."""
    refs = reflection_set(kind, v.n)
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for z in frontier:
            lz = absolute_length(z, kind)
            for t in refs:
                zt = z * t
                if zt not in seen and absolute_length(zt, "B") == lz - 1:
                    seen.add(zt)
                    nxt.append(zt)
        frontier = nxt
    return seen


def build_interval(u: SignedPermutation, v: SignedPermutation, kind: str = "B") -> Poset:
    """The closed interval [u, v] as a Poset (rank 0 at u).

    Given u <= v, z lies in [u, v] exactly when u^{-1} z lies in
    [e, u^{-1} v], so left multiplication by u carries one onto the other.
    """
    if not abs_leq(u, v, kind):
        raise ValueError(f"{u!r} is not below {v!r} in kind {kind}")
    members = [u * z for z in elements_below(u.inverse() * v, kind)]
    return Poset(members, kind, "interval")


def build_ideal(generators, kind: str = "B", label: str = "ideal") -> Poset:
    """The order ideal generated by the given elements."""
    members = set()
    for g in generators:
        if not is_member(g, kind):
            raise ValueError(f"generator {g!r} is not in kind {kind}")
        members |= elements_below(g, kind)
    return Poset(members, kind, label)


def coxeter_ideal(n: int, kind: str = "B") -> Poset:
    """The ideal generated by all Coxeter elements.

    For S_n this is all of Abs(S_n); for B_n it is the proper ideal of
    elements lying below some balanced n-cycle.
    """
    return build_ideal(coxeter_elements(kind, n), kind, label="coxeter-ideal")


def full_poset(kind: str, n: int) -> Poset:
    """The whole group as a poset under the absolute order.

    Refused before any element is generated when the group has more than
    POSET_GUARD elements.
    """
    size = group_order(kind, n)
    if size > POSET_GUARD:
        raise ResourceGuardError(
            f"full_poset({kind}, {n}) has {size} elements, more than the "
            f"guard {POSET_GUARD}"
        )
    return Poset(list(group_elements(kind, n)), kind, "full")


def translate_interval(u: SignedPermutation, v: SignedPermutation, kind: str = "B"):
    """The bijection z -> u^{-1} z from [u, v] onto [e, u^{-1} v].

    Returns (mapping, ok): ok confirms the map is a rank-preserving
    order isomorphism onto the target interval, checked exhaustively.
    """
    source = build_interval(u, v, kind)
    uinv = u.inverse()
    target = build_interval(identity(u.n), uinv * v, kind)
    mapping = {z: uinv * z for z in source.elements}
    ok = set(mapping.values()) == set(target.elements)
    if ok:
        k = len(source.elements)
        for i in range(k):
            zi = source.elements[i]
            for j in range(k):
                zj = source.elements[j]
                fwd = source.leq(i, j)
                gt = abs_leq(mapping[zi], mapping[zj], kind)
                if fwd != gt:
                    ok = False
                    break
            if not ok:
                break
    return mapping, ok


def project_pi(w: SignedPermutation, i: int) -> SignedPermutation:
    """Delete +-i from the cycle of w containing it (fixing i afterwards)."""
    if not 1 <= i <= w.n:
        raise ValueError(f"index {i} out of range")
    dec = cycle_decomposition(w)
    words = []
    for c in dec.cycles:
        entries = tuple(a for a in c.entries if abs(a) != i)
        if entries:
            words.append((c.kind, entries))
    return from_cycles(words, w.n)


@dataclass(frozen=True)
class FiberPoint:
    """Image of w under the fiber map: its projection and a moved flag."""

    base: SignedPermutation
    moved: int


def fiber_map(w: SignedPermutation, i: int) -> FiberPoint:
    return FiberPoint(project_pi(w, i), 0 if w(i) == i else 1)


def fiber_leq(p: FiberPoint, q: FiberPoint, kind: str = "B") -> bool:
    """Componentwise order on (projection, flag) pairs."""
    return p.moved <= q.moved and abs_leq(p.base, q.base, kind)


def embed(w: SignedPermutation, n: int) -> SignedPermutation:
    """Include an element of B_m into B_n (n >= m) fixing the new letters."""
    if n < w.n:
        raise ValueError("cannot embed into a smaller group")
    return SignedPermutation(tuple(w.images) + tuple(range(w.n + 1, n + 1)))


def fiber_ideal_M(u: SignedPermutation, ambient: Poset, i: int | None = None) -> Poset:
    """The ideal of the ambient poset generated by the fiber of u.

    `ambient` is a downward-closed subposet of Abs (the Coxeter ideal or a
    whole symmetric group); the generators are all v in it whose
    projection (deleting letter i, default the last letter) equals u.
    """
    n = ambient.n
    if i is None:
        i = n
    u = embed(u, n)
    gens = [v for v in ambient.elements if project_pi(v, i) == u]
    if not gens:
        raise ValueError(f"{u!r} has empty fiber in the ambient ideal")
    members = set()
    for g in gens:
        members |= elements_below(g, ambient.kind)
    if not all(v in ambient.index for v in members):
        raise ValueError("fiber ideal escapes the ambient poset")
    return Poset(members, ambient.kind, "fiber-ideal")


def cover_lifting_ok(ambient: Poset, i: int | None = None) -> bool:
    """Cover lifting along the projection deleting letter i.

    For every w in the ambient ideal and every u fixing i with the
    projection of w below u (equality and fixed w included), some v with
    projection u covers u and lies above w.
    """
    n = ambient.n
    if i is None:
        i = n
    proj = [project_pi(v, i) for v in ambient.elements]
    fixed = [k for k, u in enumerate(ambient.elements) if u(i) == i]
    lifts = {}
    for ui in fixed:
        u = ambient.elements[ui]
        lifts[ui] = [
            vi for vi in range(len(ambient.elements))
            if vi != ui and proj[vi] == u
            and ambient.rank[vi] == ambient.rank[ui] + 1
            and ambient.leq(ui, vi)
        ]
    for wi in range(len(ambient.elements)):
        pwi = ambient.index[proj[wi]]
        for ui in fixed:
            if not ambient.leq(pwi, ui):
                continue
            if not any(ambient.leq(wi, vi) for vi in lifts[ui]):
                return False
    return True


def fiber_ideal_identity_ok(ambient: Poset, i: int | None = None) -> bool:
    """Preimages of principal ideals under the fiber map are ideals
    generated by the fiber: f^{-1}(<q>) = <f^{-1}(q)> for every point q."""
    n = ambient.n
    if i is None:
        i = n
    points = {}
    for idx, w in enumerate(ambient.elements):
        points.setdefault(fiber_map(w, i), set()).add(idx)
    kind = ambient.kind
    for q, fiber in points.items():
        preimage_of_ideal = {
            idx for idx, w in enumerate(ambient.elements)
            if fiber_leq(fiber_map(w, i), q, kind)
        }
        generated = set()
        for g in fiber:
            generated.update(bits(ambient.below[g]))
        if preimage_of_ideal != generated:
            return False
    return True
