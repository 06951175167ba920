"""The absolute order: comparisons, covering moves, intervals and ideals.

The order is defined by length additivity: u <= v iff
l(u) + l(u^{-1} v) = l(v), where l is reflection length.  It is graded by
l, its covers multiply by a single reflection, and for S_n and D_n it is
the order Abs(B_n) induces on the subgroup (lengths restrict).

Finite convex subsets are carried around as `Poset` objects with order
relations stored as integer bitmasks, and any other member set as a
bitmask on one, which keeps meets, joins, chain DPs and transitive
reductions cheap at desk scale.
"""

from __future__ import annotations

import json
from bisect import bisect_left

from .signed import (
    SignedPermutation,
    _element,
    _orbits,
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


# Largest group `full_poset` builds, and the most elements one downward
# search may reach: S7 (5,040 elements) fits, D6 does not.
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


def _lower_covers(w: tuple, kind: str = "B") -> list:
    """The image tuples of the products w*t of length l(w) - 1, for w given
    as an element or its image tuple and t a reflection of the kind.

    By the orbit rule (see `signed`): [i] for i in a balanced orbit,
    ((a, b)) for signed letters a, b of one paired orbit, and ((i, +-j))
    for i, j in balanced orbits.  No other product is built, and each is
    built inline: for t exchanging i with s j (s = +-1), w*t holds s w(j)
    at i and s w(i) at j."""
    out, balanced, images = [], [], list(w)
    for orbit, is_balanced in _orbits(w):
        if is_balanced:
            balanced += [abs(a) - 1 for a in orbit]
            continue
        letters = [(abs(a) - 1, 1 if a > 0 else -1) for a in orbit]
        for p, (i, si) in enumerate(letters):
            for j, sj in letters[p + 1:]:
                new, s = images[:], si * sj
                new[i], new[j] = s * images[j], s * images[i]
                out.append(tuple(new))
    for p, i in enumerate(balanced):
        if kind == "B":
            new = images[:]
            new[i] = -images[i]
            out.append(tuple(new))
        for j in balanced[p + 1:]:
            for s in (1, -1):
                new = images[:]
                new[i], new[j] = s * images[j], s * images[i]
                out.append(tuple(new))
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
    words = cycle_decomposition(w)
    moved = {abs(a) for _, entries in words for a in entries}
    words += tuple(("paired", (i,)) for i in range(1, n + 1) if i not in moved)
    balanced = [entries for kind, entries in words if kind == "balanced"]
    paired = [entries for kind, entries in words if kind == "paired"]

    out = set()
    for p in paired:
        base = [wd for wd in words if wd[1] != p]
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
            base = [wd for wd in words if wd[1] not in (b, p)]
            for brep in _word_reps(b, "balanced"):
                for prep in _word_reps(p, "paired"):
                    out.add(from_cycles(base + [("balanced", brep + prep)], n))
    for a in range(len(paired)):
        for b_ in range(a + 1, len(paired)):
            p, q = paired[a], paired[b_]
            base = [wd for wd in words if wd[1] not in (p, q)]
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
    return len({bisect_left(anchors, q) % len(anchors) for q in pos_b}) <= 1


def sn_leq_noncrossing(u: SignedPermutation, v: SignedPermutation) -> bool:
    """The order on S_n via cycle containment and noncrossing placement.

    u <= v iff every nontrivial cycle of u is obtained from a cycle of v
    by deleting entries, and cycles of u coming from the same cycle of v
    sit noncrossing around it.
    """
    for w, name in ((u, "u"), (v, "v")):
        if not is_member(w, "S"):
            raise ValueError(f"{name} is not sign-free")
    vcycles = [entries for _, entries in cycle_decomposition(v)]
    host = {}
    for _, entries in cycle_decomposition(u):
        parent = None
        for idx, word in enumerate(vcycles):
            if set(entries) <= set(word):
                parent = idx
                break
        if parent is None or not _embedded_cycle(entries, vcycles[parent]):
            return False
        host.setdefault(parent, []).append(entries)
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
    """A finite convex subset of an absolute order, ranked.

    `below[i]` is a bitmask over element indices j with element_j <= element_i
    (including i itself); `above` is the transpose, as `hasse_down[i]`, the
    member lower covers of i ascending, is of `hasse_up`.  Ranks are
    reflection lengths shifted to start at 0; indices ascend with rank.

    `__init__` reads the order off a cover record, a dict from each member,
    an element, to the image tuples of its lower covers, as
    `elements_below` makes one, and does not keep it; `index` finds a
    member's index from the element or its image tuple alike.  The member
    set must be convex: with x <= z <= y and x, y in it, z is in it too.
    Whole groups, intervals and ideals all are.  The order is graded by
    length and each cover multiplies by a single reflection, so on a convex
    set it is the transitive closure of the lower covers that are members.
    Any other member set is kept as a mask on a convex `Poset`: its
    `below` and `above` masks, cut to the members, are the induced order.
    """

    __slots__ = ("elements", "kind", "label", "n", "rank", "index",
                 "below", "above", "hasse_up", "hasse_down")

    def __init__(self, covers: dict, kind: str, label: str):
        ranked = sorted((absolute_length(z, kind), z) for z in covers)
        self.elements = [z for _, z in ranked]
        self.kind = kind
        self.label = label
        self.n = self.elements[0].n if self.elements else 0
        base = ranked[0][0] if ranked else 0
        self.rank = [length - base for length, _ in ranked]
        self.index = {w: i for i, w in enumerate(self.elements)}
        k = len(self.elements)
        below = [1 << j for j in range(k)]
        self.hasse_up = [[] for _ in range(k)]
        for j, (_, zj) in enumerate(ranked):
            for z in covers[zj]:
                i = self.index.get(z)
                if i is not None:
                    below[j] |= below[i]
                    self.hasse_up[i].append(j)
        self.hasse_down = [[] for _ in range(k)]
        for i, ups in enumerate(self.hasse_up):
            for j in ups:
                self.hasse_down[j].append(i)
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
        sizes = [0] * (self.height() + 1)
        for r in self.rank:
            sizes[r] += 1
        return tuple(sizes)

    def height(self) -> int:
        return max(self.rank, default=0)

    def bottom(self):
        return _least(self, (1 << len(self)) - 1)

    def top(self):
        return _greatest(self, (1 << len(self)) - 1)

    def is_bounded(self) -> bool:
        return self.bottom() is not None and self.top() is not None

    def chain_counts(self, mask: int = -1) -> list:
        """counts[j] = number of chains of j members of `mask` (all of the
        poset by default), j >= 0, up to the longest.  One sweep: the
        chains of each size ending at each member are summed strictly below
        it for the next size; a non-member has nothing below it."""
        below_lists = [list(bits(below & mask & ~(1 << i))) if mask >> i & 1
                       else [] for i, below in enumerate(self.below)]
        ending = [mask >> i & 1 for i in range(len(self))]
        counts = [1]
        while total := sum(ending):
            counts.append(total)
            ending = [sum(map(ending.__getitem__, b)) for b in below_lists]
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


def _resolve(p: Poset, x) -> int:
    """The index of x in p, x given as an element, its tuple or an index."""
    i = x if isinstance(x, int) else p.index.get(x)
    if i is None or not 0 <= i < len(p):
        raise ValueError(f"{x!r} is not an element of {p.label}")
    return i


def _least(p: Poset, mask: int):
    """The least member of `mask`, or None.  Indices ascend with rank, so
    only the lowest member can be least, and only the highest greatest."""
    low = (mask & -mask).bit_length() - 1
    return low if mask and not mask & ~p.above[low] else None


def _greatest(p: Poset, mask: int):
    """The greatest member of `mask`, or None (see `_least`)."""
    high = mask.bit_length() - 1
    return high if mask and not mask & ~p.below[high] else None


def _graded(p: Poset, mask: int) -> bool:
    """Whether every Hasse edge between members of `mask` climbs one rank."""
    return all(p.rank[j] == p.rank[i] + 1 for i in bits(mask)
               for j in p.hasse_up[i] if mask >> j & 1)


def _lower_cover_count(w: SignedPermutation, kind: str) -> int:
    """len(_lower_covers(w, kind)) off the orbits: k(k-1)/2 per paired
    k-orbit, and b^2 in kind B or b(b-1) over b balanced letters."""
    count = b = 0
    for orbit, balanced in _orbits(w):
        if balanced:
            b += len(orbit)
        else:
            count += len(orbit) * (len(orbit) - 1) // 2
    return count + b * (b - (kind != "B"))


def _group_lower_set(p: Poset, mask: int) -> bool:
    """Whether the members of `mask` are a lower set of their group: each
    Hasse edge between them climbs one rank and each has `_lower_cover_count`
    members in its `hasse_down`, its group covers, so the lowest is e.  One
    pass over the edges checks the ranks and counts the covers."""
    rank = p.rank
    for j in bits(mask):
        count = 0
        for i in p.hasse_down[j]:
            if mask >> i & 1:
                if rank[i] != rank[j] - 1:
                    return False
                count += 1
        if count != _lower_cover_count(p.elements[j], p.kind):
            return False
    return mask > 0


def _hall_mobius(p: Poset, mask: int) -> int:
    """mu(0, 1) of the members of `mask` with a least 0 and a greatest 1
    adjoined, which is (P. Hall) the reduced Euler characteristic of their
    order complex.  Indices ascend with rank, so each w < z comes first."""
    mu = {}
    for z in bits(mask):
        mu[z] = -1 - sum(mu[w] for w in bits(p.below[z] & mask & ~(1 << z)))
    return -1 - sum(mu.values())


def elements_below(tops, kind: str = "B") -> dict:
    """The order ideal below the elements `tops` (a list), by one
    breadth-first search down the covers that `_lower_covers` reads off the
    orbits (Carter; Brady and Watt): a dict from each member, an element,
    to its lower covers' image tuples, filled when the member is expanded,
    which is what a `Poset` is built from.  No length is computed, and each
    element is expanded once however many tops lie above it.

    The callers check that the tops lie in the kind; a top given as a
    plain tuple is checked as `SignedPermutation` checks it.  Raises
    ResourceGuardError once the search holds more than POSET_GUARD elements.
    """
    seen = dict.fromkeys(map(SignedPermutation, tops))
    frontier = list(seen)
    while frontier:
        nxt = []
        for z in frontier:
            seen[z] = lower = _lower_covers(z, kind)
            fresh = [_element(zt) for zt in lower if zt not in seen]
            seen.update(dict.fromkeys(fresh))
            nxt += fresh
            if len(seen) > POSET_GUARD:
                source = (format_cycles(tops[0]) if len(tops) == 1
                          else f"{len(tops)} tops")
                raise ResourceGuardError(
                    f"the downward search from {source} in kind {kind} "
                    f"reached {len(seen)} elements, more than the guard "
                    f"{POSET_GUARD}")
        frontier = nxt
    return seen


def build_interval(u: SignedPermutation, v: SignedPermutation, kind: str = "B") -> Poset:
    """The closed interval [u, v] as a Poset (rank 0 at u).

    Given u <= v, z is in [u, v] exactly when u^{-1} z is in [e, u^{-1} v], so
    left multiplication by u carries one, with its covers, onto the other;
    from the identity, the record of [e, v] is taken as it is.
    """
    if not abs_leq(u, v, kind):
        raise ValueError(f"{u!r} is not below {v!r} in kind {kind}")
    record = elements_below([u.inverse() * v], kind)
    if u == identity(u.n):
        return Poset(record, kind, "interval")
    moved = {z: u * z for z in record}
    return Poset({moved[z]: [moved[c] for c in lower]
                  for z, lower in record.items()}, kind, "interval")


def build_ideal(generators, kind: str = "B", label: str = "ideal") -> Poset:
    """The order ideal generated by the given elements, of one rank.

    One downward search starts from all generators, so each element of
    the ideal is visited once however many generators lie above it, and
    the whole search is bounded by POSET_GUARD.
    """
    generators = list(generators)
    for g in generators:
        if not is_member(g, kind):
            raise ValueError(f"generator {g!r} is not in kind {kind}")
        if len(g) != len(generators[0]):
            raise ValueError(f"generators of ranks {len(generators[0])} and "
                             f"{len(g)} in one ideal")
    return Poset(elements_below(generators, kind), kind, label)


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
    return Poset({w: _lower_covers(w, kind) for w in group_elements(kind, n)},
                 kind, "full")


def project_pi(w: SignedPermutation, i: int) -> SignedPermutation:
    """Delete +-i from the cycle of w containing it (fixing i afterwards):
    the letter sent to +-i is sent on to +-w(i), read off the images."""
    if not 1 <= i <= w.n:
        raise ValueError(f"index {i} out of range")
    images = list(w)
    j = next(j for j, x in enumerate(images) if x == i or x == -i)
    images[j] = images[i - 1] if images[j] > 0 else -images[i - 1]
    images[i - 1] = i
    return _element(images)


def _fibers(ambient: Poset, i: int) -> dict:
    """The ambient's elements grouped by their projection deleting letter
    i: {projection: [mask of those fixing i, mask of those moving i]}.

    Kind D is refused: deleting a letter leaves D_n ([1][2] projects to
    [2], which is not in D_n).
    """
    if ambient.kind == "D":
        raise ValueError("no fibers in kind D: deleting a letter leaves D_n "
                         "([1][2] projects to [2])")
    fibers = {}
    for idx, w in enumerate(ambient.elements):
        fibers.setdefault(project_pi(w, i), [0, 0])[w(i) != i] |= 1 << idx
    return fibers


def cover_lifting_ok(ambient: Poset, i: int | None = None) -> bool:
    """Cover lifting along the projection deleting letter i.

    For every u fixing i, every w whose projection lies below u (equality
    and fixed w included) lies below some lift of u: a v moving i, with
    projection u, that covers u.  The elements below u fix i, so each is
    the projection of its own fiber.
    """
    i = ambient.n if i is None else i
    fibers = _fibers(ambient, i)
    for ui, u in enumerate(ambient.elements):
        if u(i) != i:
            continue
        lower = 0
        for b in bits(ambient.below[ui]):
            fixed, moved = fibers[ambient.elements[b]]
            lower |= fixed | moved
        upper = 0
        for v in ambient.hasse_up[ui]:
            if fibers[u][1] >> v & 1:
                upper |= ambient.below[v]
        if lower & ~upper:
            return False
    return True


def fiber_ideal_identity_ok(ambient: Poset, i: int | None = None) -> bool:
    """Preimages of principal ideals under the fiber map are ideals
    generated by the fiber: f^{-1}(<q>) = <f^{-1}(q)> for every point q.

    The fiber map sends w to its projection and whether it moves i.  Points
    are ordered componentwise: projections b <= q as in `abs_leq`, l(b) <=
    l(q) and l(b) + l(b^-1 q) = l(q), each length and inverse found once.
    """
    image = _fibers(ambient, ambient.n if i is None else i)
    points = [(b, absolute_length(b, ambient.kind), b.inverse(), masks)
              for b, masks in image.items()]
    for q, lq, _, fibers in points:
        lower = [0, 0]
        for _, lb, inverse, masks in points:
            if lb <= lq and lb + absolute_length(inverse * q, "B") == lq:
                lower = [lower[0] | masks[0], lower[1] | masks[1]]
        for moved, fiber in enumerate(fibers):
            generated = 0
            for g in bits(fiber):
                generated |= ambient.below[g]
            if fiber and generated != lower[0] | (lower[1] if moved else 0):
                return False
    return True
