"""Meets, joins, lattice detection, and the hook-profile lattice predictions.

A closed interval of the signed-group order is a lattice exactly when the
multiset of balanced-cycle lengths of its top element is a hook partition;
inside the even subgroup the admissible profiles collapse to (), (k,1) and
(1,1,1,1).  `prediction_scan` confronts those predictions with brute-force meet
existence over a whole group at once.
"""

from dataclasses import dataclass

from .order import (Poset, ResourceGuardError, abs_leq, bits, elements_below,
                    full_poset)
from .signed import SignedPermutation, is_hook, is_member, mu_partition


def _maximal_of(p: Poset, mask: int) -> list:
    return [i for i in bits(mask) if p.above[i] & mask == 1 << i]


def _minimal_of(p: Poset, mask: int) -> list:
    return [i for i in bits(mask) if p.below[i] & mask == 1 << i]


def meet(p: Poset, x, y):
    """Greatest lower bound of two elements, or None when it does not exist."""
    xi, yi = _index(p, x), _index(p, y)
    lower = p.below[xi] & p.below[yi]
    tops = _maximal_of(p, lower)
    return p.elements[tops[0]] if len(tops) == 1 else None


def join(p: Poset, x, y):
    """Least upper bound of two elements, or None when it does not exist."""
    xi, yi = _index(p, x), _index(p, y)
    upper = p.above[xi] & p.above[yi]
    bottoms = _minimal_of(p, upper)
    return p.elements[bottoms[0]] if len(bottoms) == 1 else None


def _index(p: Poset, x) -> int:
    if isinstance(x, int):
        return x
    try:
        return p.index[x]
    except KeyError:
        raise ValueError(f"{x!r} is not an element of {p.label}") from None


@dataclass
class LatticeVerdict:
    is_lattice: bool
    witness: dict | None

    def to_json(self) -> dict:
        data = {"is_lattice": self.is_lattice}
        if self.witness is not None:
            data["witness"] = self.witness
        return data


def is_lattice(p: Poset) -> LatticeVerdict:
    """Meet-existence check over all pairs of a bounded poset.

    In a finite bounded poset all meets exist iff all joins exist, so only
    meets are scanned.  The witness names the first pair with two or more
    maximal common lower bounds.
    """
    if not p.is_bounded():
        raise ValueError("lattice check needs a bounded poset")
    witness = _meet_failure(p, list(range(len(p))))
    return LatticeVerdict(witness is None, witness)


def _meet_failure(p: Poset, members: list):
    """Witness for the first pair of members without a meet in p, or None.

    Lower bounds are taken in all of p, so for the members below one
    element of p this decides whether the interval under it is a lattice.
    """
    for a, i in enumerate(members):
        for j in members[a + 1:]:
            if p.leq(i, j) or p.leq(j, i):
                continue
            tops = _maximal_of(p, p.below[i] & p.below[j])
            if len(tops) != 1:
                return {
                    "x": repr(p.elements[i]),
                    "y": repr(p.elements[j]),
                    "maximal_lower_bounds": sorted(repr(p.elements[t]) for t in tops),
                }
    return None


def predict_lattice(w: SignedPermutation, kind: str = "B") -> bool:
    """Closed-form lattice prediction for the interval below w.

    Full signed group: the balanced-length profile must be a hook.  Even
    subgroup: the profile must be empty, (k, 1), or (1, 1, 1, 1); membership
    forces an even number of parts, so these are the hooks that survive.
    """
    if not is_member(w, kind):
        raise ValueError(f"element is not of kind {kind}")
    mu = mu_partition(w)
    if kind == "B":
        return is_hook(mu)
    if kind == "D":
        return mu == () or mu == (1, 1, 1, 1) or (len(mu) == 2 and mu[1] == 1)
    raise ValueError(f"no lattice prediction for kind {kind!r}")


@dataclass
class ScanReport:
    kind: str
    n: int
    checked: int
    mismatches: list

    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "checked": self.checked,
            "mismatches": self.mismatches,
            "ok": self.ok(),
        }


def prediction_scan(kind: str, n: int, guard: int | None = None) -> ScanReport:
    """Compare predict_lattice with brute force over every interval [e, w].

    Works inside one ambient group poset, so each interval check is a pure
    bitmask pass; mismatching elements are reported with their witnesses.
    """
    limit = guard if guard is not None else (4 if kind == "B" else 5)
    if n > limit:
        raise ResourceGuardError(
            f"prediction_scan({kind}, {n}) exceeds the guard {limit}"
        )
    ambient = full_poset(kind, n)
    mismatches = []
    for wi, w in enumerate(ambient.elements):
        predicted = predict_lattice(w, kind)
        witness = _meet_failure(ambient, list(bits(ambient.below[wi])))
        found = witness is None
        if found != predicted:
            mismatches.append({
                "w": repr(w),
                "profile": list(mu_partition(w)),
                "predicted": predicted,
                "is_lattice": found,
                "witness": witness,
            })
    return ScanReport(kind, n, len(ambient), mismatches)


def maximal_common_lower_bounds(u: SignedPermutation, v: SignedPermutation,
                                kind: str = "B") -> list:
    """Maximal elements lying below both u and v in the group order.

    Built on the intersection of the two principal ideals, which is enough:
    maximality only needs comparisons against other common lower bounds.
    """
    common = [w for w in elements_below(u, kind) if abs_leq(w, v, kind)]
    sub = Poset(common, kind=kind, label="common lower bounds")
    return [sub.elements[i] for i in _maximal_of(sub, (1 << len(sub)) - 1)]

