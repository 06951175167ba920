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

from collections import namedtuple
from functools import cache

from .lattice import join
from .order import Poset, ResourceGuardError, _group_lower_set, bits
from .signed import (SignedPermutation, cycle_decomposition, from_cycles,
                     reflection_set)

# Most maximal chains `verify_el` builds for one interval.
CHAIN_GUARD = 10 ** 6


class LabelingError(ValueError):
    """A labeling was applied to an edge outside its domain."""


def support_size_label(a: SignedPermutation, b: SignedPermutation) -> int:
    """Largest letter moved by a^-1 b: the largest i with a(i) != b(i)."""
    for i in range(len(a), 0, -1):
        if a[i - 1] != b[i - 1]:
            return i
    raise LabelingError("label of a loop edge is undefined")


def c_sequence(w: SignedPermutation) -> tuple:
    """Sorted letters of w: all balanced letters, paired letters minus anchors."""
    values = []
    for kind, entries in cycle_decomposition(w):
        start = 1 if kind == "paired" else 0
        values.extend(abs(a) for a in entries[start:])
    return tuple(sorted(values))


def canonical_chain(w: SignedPermutation) -> list:
    """The increasing maximal chain of [e, w] under the letter labeling.

    Step j keeps the j smallest letters of c(w): every cycle word of w is
    restricted to the kept letters (paired cycles always keep their anchor),
    which inserts the letters one by one in the order and sign they carry
    in w.
    """
    cycles = cycle_decomposition(w)
    seq = c_sequence(w)
    chain = []
    for j in range(len(seq) + 1):
        keep = set(seq[:j])
        words = []
        for kind, entries in cycles:
            if kind == "balanced":
                sub = tuple(a for a in entries if abs(a) in keep)
                if sub:
                    words.append(("balanced", sub))
            else:
                sub = (entries[0],) + tuple(
                    a for a in entries[1:] if abs(a) in keep
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
    return sorted(reflection_set("B", n), key=reflection_signature)


def reflection_signature(t: SignedPermutation) -> tuple:
    """Sort key realizing the reflection order, usable as an edge label."""
    cycles = cycle_decomposition(t)
    kind, entries = cycles[0] if len(cycles) == 1 else (None, ())
    if (kind, len(entries)) not in (("balanced", 1), ("paired", 2)):
        raise LabelingError(f"{t!r} is not a reflection")
    if kind == "balanced":
        return (0, entries[0], 0)
    i, j = entries
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

    def label(a: SignedPermutation, b: SignedPermutation) -> int:
        ai = p.index[a]
        for pos, ti in enumerate(positions, start=1):
            if ti is not None and join(p, ti, ai) == b:
                return pos
        raise LabelingError(
            f"no reflection joins {a!r} up to {b!r}; labeler only covers "
            "intervals of the involution sublattice"
        )

    return label


# Each `check-el --labeling` name's labeler for a poset.
LABELERS = {
    "letter": lambda p: support_size_label,
    "collapsed": lambda p: collapsed_reflection_label,
    "join-position": join_position_labeler,
}


class ELReport(namedtuple("ELReport",
                          "ok intervals_checked chains_checked failure")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {k: v for k, v in self._asdict().items() if v is not None}


def verify_el(p: Poset, labeler=None) -> ELReport:
    """Check the EL property of a labeling on every closed interval of p.

    For each comparable pair x < y, every maximal chain of [x, y] is labeled;
    exactly one label sequence must be strictly increasing and it must be
    strictly lexicographically smaller than every other sequence.

    The maximal chains of [x, y] are the Hasse paths from x to y, which stay
    inside [x, y]; one walk up from x, in ascending index and reading lower
    covers off `hasse_down`, serves every y, and each edge is labeled once.
    Paths are counted first: the first y with more than CHAIN_GUARD raises
    ResourceGuardError before any edge from x is labeled.  Each y keeps the
    increasing label sequences of [x, y] and the least sequence, the least
    of (least sequence at a lower cover i) + (label of i y,).  Appending a
    label keeps the order among sequences of one length, and all maximal
    chains of [x, y] have one length: every Hasse edge of a `Poset` is a
    recorded cover, one length up.

    When the labeler reads only a^-1 b (the letter and collapsed
    reflection labels) and p is a lower set of its group, only the walk
    from index 0, the identity e, is made: x^-1 maps [x, y] onto
    [e, x^-1 y] in p, keeping the order and every label.  That walk comes
    first on either route, so a failure or guard trip is met in it; on
    success the totals are the sums over x of |above x| - 1 intervals and
    over y of A(y) - 1 chains, A(y) = 1 + sum of A over y's lower covers.
    """
    if labeler is None:
        labeler = support_size_label
    edge_label = cache(lambda i, j: labeler(p.elements[i], p.elements[j]))
    reduced = (labeler in (support_size_label, collapsed_reflection_label)
               and _group_lower_set(p, (1 << len(p)) - 1))
    intervals = 0
    chains_total = 0
    for x in range(1 if reduced else len(p)):
        tops = list(bits(p.above[x] & ~(1 << x)))
        paths = {x: 1}
        for y in tops:
            paths[y] = sum(paths.get(i, 0) for i in p.hasse_down[y])
            if paths[y] > CHAIN_GUARD:
                raise ResourceGuardError(
                    f"interval [{p.elements[x]!r}, {p.elements[y]!r}] exceeds "
                    f"{CHAIN_GUARD} maximal chains"
                )
        first, rising = {x: ()}, {x: [()]}
        for y in tops:
            intervals += 1
            chains_total += paths[y]
            least, climbs = (), []
            for i in p.hasse_down[y]:
                if i in paths:
                    step = edge_label(i, y)
                    through = first[i] + (step,)
                    least = min(least or through, through)
                    climbs += [seq + (step,) for seq in rising[i]
                               if not seq or seq[-1] < step]
            first[y] = least
            rising[y] = climbs
            reason = None
            if len(climbs) != 1:
                reason = f"{len(climbs)} strictly increasing chains"
            elif least != climbs[0]:
                reason = "increasing chain is not lexicographically first"
            if reason is not None:
                ending = {x: [()]}
                for z in bits(p.above[x] & p.below[y] & ~(1 << x)):
                    ending[z] = [seq + (edge_label(i, z),)
                                 for i in p.hasse_down[z] if i in ending
                                 for seq in ending[i]]
                failure = {
                    "bottom": repr(p.elements[x]),
                    "top": repr(p.elements[y]),
                    "reason": reason,
                    "sequences": [list(map(str, seq))
                                  for seq in sorted(ending[y])[:10]],
                }
                return ELReport(False, intervals, chains_total, failure)
    if reduced:
        ending = []
        for lower in p.hasse_down:
            ending.append(1 + sum(ending[i] for i in lower))
        intervals = sum(up.bit_count() for up in p.above) - len(p)
        chains_total = sum(ending) - len(p)
    return ELReport(True, intervals, chains_total, None)

