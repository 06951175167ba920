"""The self-verification suite: every checked claim in one runnable registry.

Each claim states what is being compared and computes both sides from
scratch as text.  A claim passes exactly when computed equals expected: the
verdict is derived from the two texts and never recorded apart from them.
The quick profile stays at sizes that finish in seconds; the full profile
runs everything at the sizes the package is committed to.  They differ only
in `SCOPES`: each row names what it scopes and holds its value under each
of `PROFILES`, in order (False in quick for a claim only full runs), and
each claim section reads its profile's column.  Fault injection
deliberately alters one claim's computed text so callers can watch a
failure propagate to a nonzero exit.
"""

import json
from collections import namedtuple

from . import invariants, labeling, lattice, order, series, topology
from .signed import (format_cycles, group_elements, identity, parse_cycles,
                     signed_cycle_types)

DEFAULT_SEED = 20260816
PROFILES = ("quick", "full")
SCOPES = {
    "coxeter-interval-invariants": (3, 4),  # largest n
    "flip-interval-invariants": (3, 5),  # largest n
    "cycle-flip-interval-invariants": (3, 5),  # largest k + r
    "annular-mixing-counts": ([1, 2], [1, 2, 3, 4]),  # k
    "hook-lattice-scan-signed": (3, 5),  # n
    "even-lattice-scan": (3, 5),  # n
    "even-three-lower-bounds": (False, True),
    "letter-labeling-el": (2, 5),  # n
    "canonical-chain-labels": (3, 4),  # n
    "flip-interval-el": (3, 4),  # largest n
    "euler-three-way-plain": (range(3, 5), range(3, 6)),  # n
    "euler-three-way-signed": (range(2, 4), range(2, 5)),  # n
    "proper-part-cm": ([("S", 3), ("B", 2)],
                       [("S", 3), ("S", 4), ("B", 2), ("B", 3), ("B", 4)]),
    "coxeter-ideal-torsion-free": (False, True),  # on the cm scopes
    "cover-pattern-agreement": (3, 4),  # n
    "lower-cover-rule": (False, True),
    "noncrossing-order-agreement": (4, 5),  # n
    "rank-generating-function": (3, 4),  # largest n
    "zeta-consistency intervals": (3, 4),  # largest n
    "zeta-consistency cycle-flip": ([(1, 1), (1, 2), (2, 1)],
                                    [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1),
                                     (1, 3)]),  # (k, r)
    "fiber-ideal-ranks": ([("S", 3), ("B", 2)],
                          [("S", 3), ("S", 4), ("S", 5), ("B", 2), ("B", 3),
                           ("B", 4)]),
    "fiber-projection-laws": ([3], [2, 3, 4]),  # n
}


class ClaimResult(namedtuple("ClaimResult",
                             "claim statement parameters expected computed")):
    __slots__ = ()

    @property
    def verdict(self) -> bool:
        return self.expected == self.computed

    def to_json(self) -> dict:
        return {**self._asdict(), "verdict": self.verdict}


class VerificationSuiteReport(namedtuple("VerificationSuiteReport",
                                         "profile seed results")):
    __slots__ = ()

    def ok(self) -> bool:
        return all(r.verdict for r in self.results)

    def to_json(self) -> dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "ok": self.ok(),
            "results": [r.to_json() for r in self.results],
        }


def _claim(claim, statement, parameters, expected, computed) -> ClaimResult:
    """The one way to state a claim.  A computed side of None means the
    expected text held; non-string sides are dumped as json."""
    if computed is None:
        computed = expected
    text = [side if isinstance(side, str)
            else json.dumps(side, sort_keys=True, default=str)
            for side in (expected, computed)]
    return ClaimResult(claim, statement, parameters, *text)


def _claim_interval_invariants(scope):
    out = []
    for name in ("coxeter", "flip"):
        closed, build = invariants.FAMILIES[name]
        claim = f"{name}-interval-invariants"
        ns = list(range(1, scope[claim] + 1))
        expected = {}
        computed = {}
        for n in ns:
            expected[n], computed[n] = closed(n).views(
                invariants.census(build(n)))
        out.append(_claim(
            claim=claim,
            statement=(f"census of the {name} interval matches the closed "
                       "forms for cardinality, rank sizes, chain count, "
                       "first-to-last Mobius value, and zeta polynomial"),
            parameters={"n": ns},
            expected=expected,
            computed=computed,
        ))
    return out


def _claim_cycle_flip(scope):
    closed, build = invariants.FAMILIES["cycle-flip"]
    top = scope["cycle-flip-interval-invariants"]
    pairs = [(k, r) for k in range(1, top) for r in range(1, top)
             if k + r <= top]
    expected = {}
    computed = {}
    for k, r in pairs:
        expected[f"{k},{r}"], computed[f"{k},{r}"] = closed(k, r).views(
            invariants.census(build(k, r)))
    results = [_claim(
        claim="cycle-flip-interval-invariants",
        statement=("census of the cycle-plus-flips interval matches the "
                   "closed forms, under the boundary convention that "
                   "evaluates the depth-one terms by the flip formulas"),
        parameters={"pairs": [list(p) for p in pairs]},
        expected=expected,
        computed=computed,
    )]
    literal = closed(1, 1, literal_boundary=True)
    actual = invariants.census(build(1, 1))
    results.append(_claim(
        claim="cycle-flip-literal-boundary",
        statement=("taking the depth-zero and depth-one seeds literally as 1 "
                   "misses the enumerated cardinality at k=r=1"),
        parameters={"k": 1, "r": 1},
        expected="literal cardinality differs: 4 vs 6",
        computed=(f"literal cardinality differs: {literal.cardinality} "
                  f"vs {actual.cardinality}"
                  if literal.cardinality != actual.cardinality
                  else "literal cardinality agrees"),
    ))
    return results


def _claim_annular(scope):
    ks = scope["annular-mixing-counts"]
    expected = {}
    computed = {}
    for k in ks:
        facts = invariants.annular_mixing_facts(k)
        expected[k] = {"cardinality": facts.cardinality_formula,
                       "multichains": facts.multichain_formula}
        computed[k] = {"cardinality": facts.cardinality,
                       "multichains": facts.multichain_counts}
    return [_claim(
        claim="annular-mixing-counts",
        statement=("the mixing subset of the cycle-join interval has the "
                   "predicted size and its touched-multichain counts match "
                   "the binomial formula for m up to 6"),
        parameters={"k": ks},
        expected=expected,
        computed=computed,
    )]


def _claim_lattice_scans(scope):
    out = []
    for claim, kind, statement in (
        ("hook-lattice-scan-signed", "B",
         "an interval below a signed element is a lattice exactly when its "
         "balanced-length profile is a hook"),
        ("even-lattice-scan", "D",
         "inside the even subgroup the lattice profiles are exactly empty, "
         "(k,1), and (1,1,1,1)"),
    ):
        report = lattice.prediction_scan(kind, scope[claim])
        out.append(_claim(
            claim=claim,
            statement=statement,
            parameters={"n": scope[claim]},
            expected=f"0 mismatches over {report.checked} elements",
            computed=f"{len(report.mismatches)} mismatches over {report.checked} elements",
        ))
    if scope["even-three-lower-bounds"]:
        u = parse_cycles("[1][2][3][4]", 5)
        v = parse_cycles("[1][2][3][5]", 5)
        out.append(_claim(
            claim="even-three-lower-bounds",
            statement=("two rank-4 flip products differing in one letter "
                       "have exactly three maximal common lower bounds in "
                       "the even order at rank 5"),
            parameters={"u": format_cycles(u), "v": format_cycles(v)},
            expected=["[1][2]", "[1][3]", "[2][3]"],
            computed=sorted(format_cycles(w) for w in
                            lattice.maximal_common_lower_bounds(u, v, "D")),
        ))
    return out


def _claim_el(scope):
    out = []
    n = scope["letter-labeling-el"]
    report = labeling.verify_el(order.full_poset("B", n))
    # the pairs x < y again: |[e, w]| - 1 is constant on each class
    pairs = sum(size * (len(order.elements_below(rep, "B")) - 1)
                for _, rep, size in signed_cycle_types("B", n))
    out.append(_claim(
        claim="letter-labeling-el",
        statement=("under the largest-moved-letter labeling every closed "
                   "interval has exactly one strictly increasing maximal "
                   "chain and it is lexicographically first"),
        parameters={"n": n, "intervals": report.intervals_checked},
        expected="EL on all intervals",
        computed=(f"failure at {report.failure}" if not report.ok
                  else None if report.intervals_checked == pairs
                  else f"{report.intervals_checked} intervals checked, "
                       f"{pairs} by the class sizes"),
    ))
    n = scope["canonical-chain-labels"]
    elements = list(group_elements("B", n))

    def chain_labels(w):
        chain = labeling.canonical_chain(w)
        return tuple(labeling.support_size_label(a, b)
                     for a, b in zip(chain, chain[1:]))

    mismatch = next((format_cycles(w) for w in elements
                     if chain_labels(w) != labeling.c_sequence(w)), None)
    out.append(_claim(
        claim="canonical-chain-labels",
        statement=("the letter-insertion chain of every element is labeled "
                   "by that element's sorted letter multiset"),
        parameters={"n": n, "elements": len(elements)},
        expected="labels match the letter multiset for every element",
        computed=None if mismatch is None else f"mismatch at {mismatch}",
    ))
    return out


def _claim_alt_labelings(scope):
    top = scope["flip-interval-el"]
    flips = [invariants.build_flip_interval(n) for n in range(1, top + 1)]
    out = []
    for name, cli_name in (("collapsed-reflection", "collapsed"),
                           ("join-position", "join-position")):
        make = labeling.LABELERS[cli_name]
        reports = (labeling.verify_el(p, labeler=make(p)) for p in flips)
        bad = next(((n, rep.failure) for n, rep in enumerate(reports, 1)
                    if not rep.ok), None)
        out.append(_claim(
            claim=f"flip-interval-el-{name}",
            statement=(f"the {name.replace('-', ' ')} labeling is EL on the "
                       "interval below the product of all sign flips"),
            parameters={"n": list(range(1, top + 1))},
            expected="EL on all flip intervals",
            computed=None if bad is None
            else f"failure at n={bad[0]}: {bad[1]}",
        ))
    return out


def _claim_disconnected(scope):
    iv = order.build_interval(parse_cycles("e", 4),
                              parse_cycles("[1][2][3][4]", 4), "D")
    cm = topology.cm_check(topology.order_complex(iv, strip="endpoints"))
    return [_claim(
        claim="disconnected-even-interval",
        statement=("the open interval below the four-flip product in the "
                   "rank-4 even order has three components, so the link "
                   "criterion already fails at the empty face"),
        parameters={"interval": "(e, [1][2][3][4])", "kind": "D"},
        expected="3 components; failure at the empty face",
        computed=(f"{cm.homology.reduced_betti[0] + 1} components; "
                  + ("failure at the empty face" if not cm.ok
                     and cm.failing_face == () else "no failure at the empty face")),
    )]


def _claim_euler_three_way(scope):
    """The two Euler claims, then proper-part-cm and, where the scope asks,
    coxeter-ideal-torsion-free, from one stripped complex per scope, whose
    elimination `topology.homology` keeps for the link criterion and the
    torsion check."""
    out = []
    cm_scopes = scope["proper-part-cm"]
    cm_expected = {}
    cm_computed = {}
    torsion = {}
    # below rank 3 the plain poset is bounded, endpoint stripping empties
    # it, and the prediction describes the bottom-stripped complex instead
    families = [
        ("plain", "S", series.predicted_chi_sym,
         "give the same reduced Euler characteristic for the stripped "
         "plain-group complexes"),
        ("signed", "B", series.predicted_chi_hyper,
         "agree on the stripped coxeter-ideal complexes of the signed groups"),
    ]
    for name, kind, predict, conclusion in families:
        ns = scope[f"euler-three-way-{name}"]
        predictions = predict(max(ns))
        expected = {}
        computed = {}
        for n in ns:
            p = order.coxeter_ideal(n, kind)
            c = topology.order_complex(p, strip="endpoints")
            h = topology.homology(c)
            if (kind, n) in cm_scopes:
                key = f"{kind}{n}"
                cm_expected[key] = {"cm": True, "concentrated": True,
                                    "top_betti": abs(predictions[n])}
                cm_computed[key] = {"cm": topology.cm_check(c).ok,
                                    "concentrated": h.concentrated_in_top(),
                                    "top_betti": h.reduced_betti[-1]}
                if scope["coxeter-ideal-torsion-free"]:
                    torsion[key] = {str(d): factors for d, factors in
                                    topology.torsion_profile(c).items()
                                    if factors}
            expected[n] = {"chi": predictions[n],
                           "chi_by_counting": predictions[n]}
            computed[n] = {
                "chi": h.euler,
                "chi_by_counting": topology.chain_euler_characteristic(
                    p, strip="endpoints"),
            }
        out.append(_claim(
            claim=f"euler-three-way-{name}",
            statement=("series prediction, boundary-rank homology, and signed "
                       f"chain counting {conclusion}"),
            parameters={"n": list(ns)},
            expected=expected,
            computed=computed,
        ))
    out.append(_claim(
        claim="proper-part-cm",
        statement=("the stripped plain-group and coxeter-ideal complexes "
                   "pass the link criterion and have homology concentrated "
                   "in the top dimension, of rank the Mobius number "
                   "|predicted chi|"),
        parameters={"scopes": [list(s) for s in cm_scopes]},
        expected=cm_expected,
        computed=cm_computed,
    ))
    if scope["coxeter-ideal-torsion-free"]:
        out.append(_claim(
            claim="coxeter-ideal-torsion-free",
            statement=("the stripped plain-group and coxeter-ideal complexes "
                       "have torsion-free integral homology, as homotopy "
                       "Cohen-Macaulay complexes are wedges of spheres"),
            parameters={"scopes": [list(s) for s in cm_scopes]},
            expected={f"{kind}{n}": {} for kind, n in cm_scopes},
            computed=torsion,
        ))
    return out


def _claim_order_agreement(scope):
    out = []
    n = scope["cover-pattern-agreement"]
    elements = list(group_elements("B", n))
    bad = next((format_cycles(w) for w in elements
                if order.covers(w, "B") != order.covers_by_pattern(w)), None)
    out.append(_claim(
        claim="cover-pattern-agreement",
        statement=("structural cover generation by cycle surgery equals "
                   "cover generation by trying every reflection"),
        parameters={"n": n, "elements": len(elements)},
        expected="identical cover sets for every element",
        computed=None if bad is None else f"mismatch at {bad}",
    ))
    if scope["lower-cover-rule"]:
        groups = {f"{kind}{n}": order.full_poset(kind, n)
                  for kind, n in (("B", 4), ("D", 4), ("S", 5))}
        bad = next((f"{key} {format_cycles(w)}" for key, p in groups.items()
                    for w, up in zip(p.elements, p.hasse_up)
                    if {p.elements[j] for j in up} != order.covers(w, p.kind)),
                   None)
        out.append(_claim(
            claim="lower-cover-rule",
            statement=("lower covers read off the orbits (Carter; Brady and "
                       "Watt) are the covers found by trying each reflection"),
            parameters={"groups": list(groups)},
            expected="identical covers for every element",
            computed=None if bad is None else f"mismatch at {bad}",
        ))
    n = scope["noncrossing-order-agreement"]
    plain = list(group_elements("S", n))
    bad = next(((format_cycles(u), format_cycles(v))
                for u in plain for v in plain
                if order.abs_leq(u, v, "S") != order.sn_leq_noncrossing(u, v)),
               None)
    out.append(_claim(
        claim="noncrossing-order-agreement",
        statement=("length-additivity and noncrossing cycle containment "
                    "define the same order on the plain group"),
        parameters={"n": n, "pairs": len(plain) ** 2},
        expected="orders agree on all pairs",
        computed=None if bad is None else f"disagreement at {bad}",
    ))
    top = scope["rank-generating-function"]
    expected = {}
    computed = {}
    for kind in ("S", "B", "D"):
        for n in range(2, top + 1):
            key = f"{kind}{n}"
            expected[key] = list(invariants.rank_generating_function(kind, n))
            computed[key] = list(order.full_poset(kind, n).rank_sizes())
    out.append(_claim(
        claim="rank-generating-function",
        statement=("group rank sizes match the product formula over the "
                   "degree exponents"),
        parameters={"kinds": ["S", "B", "D"], "n_upto": top},
        expected=expected,
        computed=computed,
    ))
    return out


def _claim_zeta_battery(scope):
    posets = []
    for n in range(1, scope["zeta-consistency intervals"] + 1):
        posets.append((f"coxeter-{n}", invariants.build_coxeter_interval(n)))
        posets.append((f"flip-{n}", invariants.build_flip_interval(n)))
    for k, r in scope["zeta-consistency cycle-flip"]:
        posets.append((f"cycle-flip-{k}-{r}",
                       invariants.build_cycle_flip_interval(k, r)))
    expected = {}
    computed = {}
    for name, p in posets:
        z = invariants.zeta_polynomial(p)
        expected[name] = {"zeta_at_2": len(p),
                          "zeta_at_minus_1": invariants.mobius(p)}
        computed[name] = {"zeta_at_2": z(2), "zeta_at_minus_1": z(-1)}
    results = [_claim(
        claim="zeta-consistency",
        statement=("the chain-count zeta polynomial returns the cardinality "
                   "at 2 and the first-to-last Mobius value at -1 on every "
                   "bounded interval in the battery"),
        parameters={"posets": [name for name, _ in posets]},
        expected=expected,
        computed=computed,
    )]
    bad = None
    for _, w, _ in signed_cycle_types("B", 3):  # conjugates keep rank sizes
        sizes = order.build_interval(identity(3), w).rank_sizes()
        if sizes != sizes[::-1]:
            bad = (format_cycles(w), sizes)
            break
    results.append(_claim(
        claim="palindromic-interval-ranks",
        statement="every rank-3 signed interval has palindromic rank sizes",
        parameters={"n": 3},
        expected="palindromic for every element",
        computed=None if bad is None
        else f"not palindromic below {bad[0]}: {bad[1]}",
    ))
    return results


def _claim_fiber_machinery(scope):
    out = []
    scopes = scope["fiber-ideal-ranks"]
    ns = scope["fiber-projection-laws"]
    # each Coxeter ideal of kind S (all of S_n) or B, built once
    ambient = {(kind, n): order.coxeter_ideal(n, kind) for kind, n in
               {*scopes, *((kind, n) for n in ns for kind in "SB")}}
    expected = {}
    computed = {}
    for kind, n in scopes:
        checks = topology.appendix_ideal_checks(ambient[kind, n])
        key = f"{kind}{n}"
        expected[key] = {"checks": len(checks), "failures": 0}
        computed[key] = {"checks": len(checks),
                         "failures": sum(1 for c in checks if not c.ok())}
    out.append(_claim(
        claim="fiber-ideal-ranks",
        statement=("the long-cycle fiber ideals and every projection-fiber "
                   "ideal have their stated ranks and pass the link "
                   "criterion"),
        parameters={"scopes": [list(s) for s in scopes]},
        expected=expected,
        computed=computed,
    ))
    expected = {}
    computed = {}
    for n in ns:
        for kind in ("S", "B"):
            key = f"{kind}{n}"
            expected[key] = {"cover_lifting": True, "fiber_ideal_identity": True}
            computed[key] = {
                "cover_lifting": order.cover_lifting_ok(ambient[kind, n]),
                "fiber_ideal_identity": order.fiber_ideal_identity_ok(
                    ambient[kind, n]),
            }
    out.append(_claim(
        claim="fiber-projection-laws",
        statement=("deleting the last letter lifts covers and pulls "
                   "principal ideals back to fiber-generated ideals"),
        parameters={"n": ns},
        expected=expected,
        computed=computed,
    ))
    return out


def _claim_series_identity(scope):
    return [_claim(
        claim="flip-exponential-identity",
        statement=("exp of the alternating Catalan log-series equals its "
                   "closed product form through order 10"),
        parameters={"order": 10},
        expected="coefficients agree through order 10",
        computed=None if series.flip_exponential_identity_ok(10)
        else "coefficient mismatch",
    )]


CLAIM_SECTIONS = [
    _claim_interval_invariants,
    _claim_cycle_flip,
    _claim_annular,
    _claim_lattice_scans,
    _claim_el,
    _claim_alt_labelings,
    _claim_disconnected,
    _claim_euler_three_way,
    _claim_order_agreement,
    _claim_zeta_battery,
    _claim_fiber_machinery,
    _claim_series_identity,
]


def run_verify_suite(profile: str = "quick", seed: int = DEFAULT_SEED,
                     fault: str | None = None) -> VerificationSuiteReport:
    """Run every claim at the given profile; optionally falsify one claim.

    Every claim is exhaustive, so `seed` changes no claim; it is only
    echoed in the report.  A section that raises, as a broken rule can make
    a consistency check do, gives one failing claim, named after the section,
    that names the exception; a ResourceGuardError stops the suite.  The
    fault hook annotates the named claim's computed text, so its derived
    verdict fails, proving that a wrong value cannot produce a clean exit.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    column = PROFILES.index(profile)
    scope = {row: values[column] for row, values in SCOPES.items()}
    results = []
    for section in CLAIM_SECTIONS:
        try:
            results.extend(section(scope))
        except order.ResourceGuardError:
            raise
        except Exception as error:
            name = section.__name__[len("_claim_"):].replace("_", "-")
            results.append(_claim(
                name, "the claim section runs to its verdicts", {},
                "no exception", f"{type(error).__name__}: {error}"))
    if fault is not None:
        known = [r.claim for r in results]
        if fault not in known:
            raise ValueError(f"unknown claim id {fault!r}; this profile "
                             f"produced: {', '.join(known)}")
        i = known.index(fault)
        results[i] = results[i]._replace(
            computed=results[i].computed + " [injected fault]")
    return VerificationSuiteReport(profile, seed, results)
