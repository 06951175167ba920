"""Edge labelings of absolute-order intervals and the EL-shellability checker.

The workhorse labeling sends a cover (a, b) to the largest letter moved by
a^-1 b.  Each interval [e, w] then carries one distinguished maximal chain
whose labels read off the sorted letter multiset of w (balanced-cycle letters
all count; each paired cycle omits its minimal letter, which acts as an
anchor).  `verify_el` checks the defining property directly on every closed
subinterval: exactly one maximal chain has strictly increasing labels, and
that chain is strictly lexicographically first.

Two further labelings for the involution sublattice are provided: one keyed
by the underlying reflection with signs collapsed, one by joins against a
fixed total order of all reflections.
"""

from dataclasses import dataclass

from .lattice import join
from .order import Poset, ResourceGuardError, bits
from .signed import SignedPermutation, cycle_decomposition, from_cycles


class LabelingError(ValueError):
    """A labeling was applied to an edge outside its domain."""


def support_size_label(a: SignedPermutation, b: SignedPermutation) -> int:
    """Largest letter moved by a^-1 b."""
    t = a.inverse() * b
    moved = [i for i in range(1, t.n + 1) if t(i) != i]
    if not moved:
        raise LabelingError("label of a loop edge is undefined")
    return max(moved)


def c_sequence(w: SignedPermutation) -> tuple:
    """Sorted letters of w: all balanced letters, paired letters minus anchors."""
    values = []
    for cyc in cycle_decomposition(w).cycles:
        start = 1 if cyc.kind == "paired" else 0
        values.extend(abs(a) for a in cyc.entries[start:])
    return tuple(sorted(values))


def canonical_chain(w: SignedPermutation) -> list:
    """The increasing maximal chain of [e, w] under the letter labeling.

    Step j keeps the j smallest letters of c(w): every cycle word of w is
    restricted to the kept letters (paired cycles always keep their anchor),
    which inserts the letters one by one in the order and sign they carry
    in w.
    """
    dec = cycle_decomposition(w)
    seq = c_sequence(w)
    chain = []
    for j in range(len(seq) + 1):
        keep = set(seq[:j])
        words = []
        for cyc in dec.cycles:
            if cyc.kind == "balanced":
                sub = tuple(a for a in cyc.entries if abs(a) in keep)
                if sub:
                    words.append(("balanced", sub))
            else:
                sub = (cyc.entries[0],) + tuple(
                    a for a in cyc.entries[1:] if abs(a) in keep
                )
                if len(sub) > 1:
                    words.append(("paired", sub))
        chain.append(from_cycles(words, w.n))
    return chain


def reflection_order(n: int) -> list:
    """All reflections of the signed group, in the fixed total order.

    Sign flips ascending, then both-positive swaps lexicographically, then
    sign-mixing swaps lexicographically.
    """
    flips = [("balanced", (i,)) for i in range(1, n + 1)]
    plain = [("paired", (i, j)) for i in range(1, n) for j in range(i + 1, n + 1)]
    mixed = [("paired", (i, -j)) for i in range(1, n) for j in range(i + 1, n + 1)]
    return [from_cycles([word], n) for word in flips + plain + mixed]


def reflection_signature(t: SignedPermutation) -> tuple:
    """Sort key realizing the reflection order, usable as an edge label."""
    dec = cycle_decomposition(t)
    if len(dec.cycles) != 1 or dec.cycles[0].reflection_length != 1:
        raise LabelingError(f"{t!r} is not a reflection")
    cyc = dec.cycles[0]
    if cyc.kind == "balanced":
        return (0, cyc.entries[0], 0)
    i, j = cyc.entries
    return (1 if j > 0 else 2, i, abs(j))


def collapsed_reflection_label(a: SignedPermutation, b: SignedPermutation) -> tuple:
    """Label a cover by its reflection with the swap sign collapsed.

    Sign flips come first in ascending order, then swaps in lexicographic
    order of their letter pairs, the two signings of a swap sharing a label.
    """
    signature = reflection_signature(a.inverse() * b)
    if signature[0] == 0:
        return signature
    return (1, signature[1], signature[2])


def join_position_labeler(p: Poset):
    """Edge labeler for the involution sublattice built from joins.

    The label of (a, b) is the 1-based position, in the fixed reflection
    order, of the first reflection t with t v a = b.  Raises LabelingError
    when no reflection works, which signals use outside the labeler's
    domain.
    """
    order = reflection_order(p.n)
    positions = [p.index.get(t) for t in order]
    cache = {}

    def label(a: SignedPermutation, b: SignedPermutation) -> int:
        ai, bi = p.index[a], p.index[b]
        got = cache.get((ai, bi))
        if got is not None:
            return got
        for pos, ti in enumerate(positions, start=1):
            if ti is not None and join(p, ti, ai) == b:
                cache[(ai, bi)] = pos
                return pos
        raise LabelingError(
            f"no reflection joins {a!r} up to {b!r}; labeler only covers "
            "intervals of the involution sublattice"
        )

    return label


@dataclass
class ELReport:
    ok: bool
    intervals_checked: int
    chains_checked: int
    failure: dict | None

    def to_json(self) -> dict:
        data = {
            "ok": self.ok,
            "intervals_checked": self.intervals_checked,
            "chains_checked": self.chains_checked,
        }
        if self.failure is not None:
            data["failure"] = self.failure
        return data


def _maximal_chains(p: Poset, x: int, y: int, guard: int):
    """Label-ready maximal chains of [x, y], as index tuples."""
    inside = p.below[y]
    chains = []
    stack = [(x, (x,))]
    while stack:
        node, path = stack.pop()
        if node == y:
            chains.append(path)
            if len(chains) > guard:
                raise ResourceGuardError(
                    f"interval [{p.elements[x]!r}, {p.elements[y]!r}] exceeds "
                    f"{guard} maximal chains"
                )
            continue
        for nxt in p.hasse_up[node]:
            if inside >> nxt & 1:
                stack.append((nxt, path + (nxt,)))
    return chains


def verify_el(p: Poset, labeler=None, key=None, chain_guard: int = 10 ** 6) -> ELReport:
    """Check the EL property of a labeling on every closed interval of p.

    For each comparable pair x < y, every maximal chain of [x, y] is labeled;
    exactly one label sequence must be strictly increasing and it must be
    strictly lexicographically smaller than every other sequence.
    """
    if labeler is None:
        labeler = support_size_label
    if key is None:
        key = lambda lab: lab
    label_cache = {}

    def edge_label(i: int, j: int):
        got = label_cache.get((i, j))
        if got is None:
            got = key(labeler(p.elements[i], p.elements[j]))
            label_cache[(i, j)] = got
        return got

    intervals = 0
    chains_total = 0
    size = len(p)
    for x in range(size):
        for y in bits(p.above[x] & ~(1 << x)):
            intervals += 1
            chains = _maximal_chains(p, x, y, chain_guard)
            chains_total += len(chains)
            labeled = sorted(
                tuple(edge_label(c[i], c[i + 1]) for i in range(len(c) - 1))
                for c in chains
            )
            increasing = [
                seq for seq in labeled
                if all(seq[i] < seq[i + 1] for i in range(len(seq) - 1))
            ]
            reason = None
            if len(increasing) != 1:
                reason = f"{len(increasing)} strictly increasing chains"
            elif labeled[0] != increasing[0]:
                reason = "increasing chain is not lexicographically first"
            elif len(labeled) > 1 and labeled[1] == labeled[0]:
                reason = "lexicographically first label sequence is not unique"
            if reason is not None:
                failure = {
                    "bottom": repr(p.elements[x]),
                    "top": repr(p.elements[y]),
                    "reason": reason,
                    "sequences": [list(map(str, seq)) for seq in labeled[:10]],
                }
                return ELReport(False, intervals, chains_total, failure)
    return ELReport(True, intervals, chains_total, None)
