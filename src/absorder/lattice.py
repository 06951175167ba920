"""Meets, joins, lattice detection, and the hook-profile lattice predictions.

A closed interval of the signed-group order is a lattice exactly when the
multiset of balanced-cycle lengths of its top element is a hook partition;
inside the even subgroup the admissible profiles collapse to (), (k,1) and
(1,1,1,1).  `prediction_scan` tests those predictions on one interval
[e, w] per conjugacy class, testing meets of pairs of lower covers only.
"""

from collections import namedtuple
from itertools import combinations

from .order import (Poset, _greatest, _least, _resolve, bits, build_ideal,
                    build_interval)
from .signed import (SignedPermutation, cycle_type, identity, is_member,
                     signed_cycle_types)


def _maximal_of(p: Poset, mask: int) -> list:
    return [i for i in bits(mask) if p.above[i] & mask == 1 << i]


def meet(p: Poset, x, y):
    """Greatest lower bound of two elements, or None."""
    m = _greatest(p, p.below[_resolve(p, x)] & p.below[_resolve(p, y)])
    return None if m is None else p.elements[m]


def join(p: Poset, x, y):
    """Least upper bound of two elements, or None."""
    b = _least(p, p.above[_resolve(p, x)] & p.above[_resolve(p, y)])
    return None if b is None else p.elements[b]


class LatticeVerdict(namedtuple("LatticeVerdict", "is_lattice witness")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {k: v for k, v in self._asdict().items() if v is not None}


def is_lattice(p: Poset) -> LatticeVerdict:
    """Meet-existence check of a bounded poset.

    In a finite bounded poset all meets exist iff all joins exist, so only
    meets are tested.  The witness is a pair of lower covers of one element
    with no meet (`_meet_failure`).
    """
    if not p.is_bounded():
        raise ValueError("lattice check needs a bounded poset")
    witness = _meet_failure(p)
    return LatticeVerdict(witness is None, witness)


def _meet_failure(p: Poset):
    """Witness for the first failing pair of lower covers of one element of
    p, elements in index order, then of a top adjoined to p; or None.

    That suffices, by induction up p with the top adjoined: if every pair
    below each x' < x has a meet, take a, b < x and lower covers y >= a,
    z >= b of x.  If y = z the pair lies below y; else m = y ^ z exists,
    then k = a ^ m below y and b ^ k below z.  Every common lower bound of
    a and b lies below m and k, so below b ^ k, which is thus a ^ b.
    """
    for lower in p.hasse_down + [_maximal_of(p, (1 << len(p)) - 1)]:
        for i, j in combinations(lower, 2):
            common = p.below[i] & p.below[j]
            if _greatest(p, common) is None:
                return {"x": repr(p.elements[i]), "y": repr(p.elements[j]),
                        "maximal_lower_bounds": sorted(
                            repr(p.elements[t]) for t in _maximal_of(p, common))}
    return None


def predict_lattice(w: SignedPermutation, kind: str = "B") -> bool:
    """Closed-form lattice prediction for the interval below w.

    Full signed group: the balanced-length profile must be a hook.  Even
    subgroup: the profile must be empty, (k, 1), or (1, 1, 1, 1); membership
    forces an even number of parts, so these are the hooks that survive.
    """
    if not is_member(w, kind):
        raise ValueError(f"element is not of kind {kind}")
    mu = cycle_type(w)[1]  # ascending: a hook is (1, ..., 1, k)
    if kind == "B":
        return all(part == 1 for part in mu[:-1])
    if kind == "D":
        return mu in ((), (1, 1, 1, 1)) or len(mu) == 2 and mu[0] == 1
    raise ValueError(f"no lattice prediction for kind {kind!r}")


class ScanReport(namedtuple("ScanReport", "kind n checked mismatches")):
    __slots__ = ()

    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {**self._asdict(), "ok": self.ok()}


def prediction_scan(kind: str, n: int) -> ScanReport:
    """Compare predict_lattice with brute force on [e, w] for one w of each
    conjugacy class (isomorphic intervals), counted at its size in `checked`.

    Only kinds B and D have a prediction, asked before anything is built;
    POSET_GUARD bounds each interval.
    """
    checked, mismatches = 0, []
    for ctype, w, size in signed_cycle_types(kind, n):
        predicted = predict_lattice(w, kind)
        witness = _meet_failure(build_interval(identity(n), w, kind))
        if (witness is None) != predicted:
            mismatches.append({
                "w": repr(w),
                "profile": list(ctype[1][::-1]),
                "predicted": predicted,
                "is_lattice": witness is None,
                "witness": witness,
            })
        checked += size
    return ScanReport(kind, n, checked, mismatches)


def maximal_common_lower_bounds(u: SignedPermutation, v: SignedPermutation,
                                kind: str = "B") -> list:
    """Maximal elements lying below both u and v in the group order: the
    maximal members of the mask below both in the ideal they generate."""
    p = build_ideal([u, v], kind)
    i, j = _resolve(p, u), _resolve(p, v)
    return [p.elements[t] for t in _maximal_of(p, p.below[i] & p.below[j])]

