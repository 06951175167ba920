"""The self-verification suite: every checked claim in one runnable registry.

Each claim states what is being compared and computes both sides from
scratch as text.  A claim passes exactly when computed equals expected: the
verdict is derived from the two texts and never recorded apart from them.
The quick profile stays at sizes that finish in seconds; the full profile
runs everything at the sizes the package is committed to.  Fault injection
deliberately alters one claim's computed text so callers can watch a
failure propagate to a nonzero exit.
"""

import json
from dataclasses import asdict, dataclass

from . import invariants, labeling, lattice, order, series, topology
from .signed import format_cycles, parse_cycles

DEFAULT_SEED = 20260816


@dataclass
class ClaimResult:
    claim: str
    statement: str
    parameters: dict
    expected: str
    computed: str

    @property
    def verdict(self) -> bool:
        return self.expected == self.computed

    def to_json(self) -> dict:
        return {**asdict(self), "verdict": self.verdict}


@dataclass
class VerificationSuiteReport:
    profile: str
    seed: int
    results: list

    def ok(self) -> bool:
        return all(r.verdict for r in self.results)

    def to_json(self) -> dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "ok": self.ok(),
            "results": [r.to_json() for r in self.results],
        }


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True, default=str)


def _claim(claim, statement, parameters, expected, computed) -> ClaimResult:
    """The one way to state a claim; non-string sides are dumped as json."""
    text = [side if isinstance(side, str) else _dump(side)
            for side in (expected, computed)]
    return ClaimResult(claim, statement, parameters, *text)


def _report_pair(closed_report, census_report):
    """Json views of the two reports, restricted to the closed form's fields."""
    expected = {k: v for k, v in closed_report.to_json().items()
                if v is not None}
    computed = {k: census_report.to_json().get(k) for k in expected}
    return expected, computed


def _claim_interval_invariants(profile):
    families = {
        "coxeter": (invariants.build_coxeter_interval,
                    invariants.closed_form_coxeter_interval, 3, 4),
        "flip": (invariants.build_flip_interval,
                 invariants.closed_form_flip_interval, 3, 5),
    }
    out = []
    for name, (build, closed, quick, full) in families.items():
        ns = list(range(1, (quick if profile == "quick" else full) + 1))
        expected = {}
        computed = {}
        for n in ns:
            expected[n], computed[n] = _report_pair(
                closed(n), invariants.census(build(n)))
        out.append(_claim(
            claim=f"{name}-interval-invariants",
            statement=(f"census of the {name} interval matches the closed "
                       "forms for cardinality, rank sizes, chain count, "
                       "first-to-last Mobius value, and zeta polynomial"),
            parameters={"n": ns},
            expected=expected,
            computed=computed,
        ))
    return out


def _claim_cycle_flip(profile):
    top = 3 if profile == "quick" else 5
    pairs = [(k, r) for k in range(1, top) for r in range(1, top)
             if k + r <= top]
    expected = {}
    computed = {}
    for k, r in pairs:
        expected[f"{k},{r}"], computed[f"{k},{r}"] = _report_pair(
            invariants.closed_form_cycle_flip_interval(k, r),
            invariants.census(invariants.build_cycle_flip_interval(k, r)))
    results = [_claim(
        claim="cycle-flip-interval-invariants",
        statement=("census of the cycle-plus-flips interval matches the "
                   "closed forms, under the boundary convention that "
                   "evaluates the depth-one terms by the flip formulas"),
        parameters={"pairs": [list(p) for p in pairs]},
        expected=expected,
        computed=computed,
    )]
    literal = invariants.closed_form_cycle_flip_interval(1, 1, literal_boundary=True)
    actual = invariants.census(invariants.build_cycle_flip_interval(1, 1))
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


def _claim_annular(profile):
    ks = [1, 2] if profile == "quick" else [1, 2, 3, 4]
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


def _claim_lattice_scans(profile):
    out = []
    n_b = 3 if profile == "quick" else 4
    report = lattice.prediction_scan("B", n_b)
    out.append(_claim(
        claim="hook-lattice-scan-signed",
        statement=("an interval below a signed element is a lattice exactly "
                   "when its balanced-length profile is a hook"),
        parameters={"n": n_b},
        expected=f"0 mismatches over {report.checked} elements",
        computed=f"{len(report.mismatches)} mismatches over {report.checked} elements",
    ))
    n_d = 3 if profile == "quick" else 4
    report = lattice.prediction_scan("D", n_d)
    out.append(_claim(
        claim="even-lattice-scan",
        statement=("inside the even subgroup the lattice profiles are "
                   "exactly empty, (k,1), and (1,1,1,1)"),
        parameters={"n": n_d},
        expected=f"0 mismatches over {report.checked} elements",
        computed=f"{len(report.mismatches)} mismatches over {report.checked} elements",
    ))
    if profile != "quick":
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


def _claim_el(profile):
    out = []
    n = 2 if profile == "quick" else 4
    report = labeling.verify_el(order.full_poset("B", n))
    out.append(_claim(
        claim="letter-labeling-el",
        statement=("under the largest-moved-letter labeling every closed "
                   "interval has exactly one strictly increasing maximal "
                   "chain and it is lexicographically first"),
        parameters={"n": n, "intervals": report.intervals_checked},
        expected="EL on all intervals",
        computed="EL on all intervals" if report.ok
        else f"failure at {report.failure}",
    ))
    n = 3 if profile == "quick" else 4
    ambient = order.full_poset("B", n)

    def chain_labels(w):
        chain = labeling.canonical_chain(w)
        return tuple(labeling.support_size_label(a, b)
                     for a, b in zip(chain, chain[1:]))

    mismatch = next((format_cycles(w) for w in ambient.elements
                     if chain_labels(w) != labeling.c_sequence(w)), None)
    out.append(_claim(
        claim="canonical-chain-labels",
        statement=("the letter-insertion chain of every element is labeled "
                   "by that element's sorted letter multiset"),
        parameters={"n": n, "elements": len(ambient)},
        expected="labels match the letter multiset for every element",
        computed="labels match the letter multiset for every element"
        if mismatch is None else f"mismatch at {mismatch}",
    ))
    return out


def _claim_alt_labelings(profile):
    top = 3 if profile == "quick" else 4
    out = []
    for name, make in (
        ("collapsed-reflection", lambda p: labeling.collapsed_reflection_label),
        ("join-position", labeling.join_position_labeler),
    ):
        bad = None
        for n in range(1, top + 1):
            p = invariants.build_flip_interval(n)
            labeler = make(p)
            rep = labeling.verify_el(p, labeler=labeler)
            if not rep.ok:
                bad = (n, rep.failure)
                break
        out.append(_claim(
            claim=f"flip-interval-el-{name}",
            statement=(f"the {name.replace('-', ' ')} labeling is EL on the "
                       "interval below the product of all sign flips"),
            parameters={"n": list(range(1, top + 1))},
            expected="EL on all flip intervals",
            computed="EL on all flip intervals" if bad is None
            else f"failure at n={bad[0]}: {bad[1]}",
        ))
    return out


def _claim_disconnected(profile):
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


def _claim_euler_three_way(profile):
    """The two Euler claims, then proper-part-cm and, in the full profile,
    coxeter-ideal-torsion-free, from one stripped complex per scope, whose
    elimination `topology.homology` keeps for the link criterion and the
    torsion check."""
    out = []
    cm_scopes = ([("S", 3), ("B", 2)] if profile == "quick"
                 else [("S", 3), ("S", 4), ("B", 2), ("B", 3), ("B", 4)])
    cm_expected = {}
    cm_computed = {}
    torsion = {}
    # below rank 3 the plain poset is bounded, endpoint stripping empties
    # it, and the prediction describes the bottom-stripped complex instead
    families = [
        ("plain", "S", range(3, 5) if profile == "quick" else range(3, 6),
         series.predicted_chi_sym, lambda n: order.full_poset("S", n),
         "give the same reduced Euler characteristic for the stripped "
         "plain-group complexes"),
        ("signed", "B", range(2, 4) if profile == "quick" else range(2, 5),
         series.predicted_chi_hyper, lambda n: order.coxeter_ideal(n, "B"),
         "agree on the stripped coxeter-ideal complexes of the signed groups"),
    ]
    for name, kind, scope, predict, build, conclusion in families:
        predictions = predict(max(scope))
        expected = {}
        computed = {}
        for n in scope:
            p = build(n)
            c = topology.order_complex(p, strip="endpoints")
            h = topology.homology(c)
            if (kind, n) in cm_scopes:
                key = f"{kind}{n}"
                cm_expected[key] = {"cm": True, "concentrated": True,
                                    "top_betti": abs(predictions[n])}
                cm_computed[key] = {"cm": topology.cm_check(c).ok,
                                    "concentrated": h.concentrated_in_top(),
                                    "top_betti": h.reduced_betti[-1]}
                if profile != "quick":
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
            parameters={"n": list(scope)},
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
    if profile != "quick":
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


def _claim_order_agreement(profile):
    out = []
    n = 3 if profile == "quick" else 4
    ambient = order.full_poset("B", n)
    bad = next((format_cycles(w) for w in ambient.elements
                if order.covers(w, "B") != order.covers_by_pattern(w)), None)
    out.append(_claim(
        claim="cover-pattern-agreement",
        statement=("structural cover generation by cycle surgery equals "
                   "cover generation by trying every reflection"),
        parameters={"n": n, "elements": len(ambient)},
        expected="identical cover sets for every element",
        computed="identical cover sets for every element" if bad is None
        else f"mismatch at {bad}",
    ))
    if profile != "quick":
        groups = {"B4": ambient, "D4": order.full_poset("D", 4),
                  "S5": order.full_poset("S", 5)}
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
            computed="identical covers for every element" if bad is None
            else f"mismatch at {bad}",
        ))
    n = 4 if profile == "quick" else 5
    plain = order.full_poset("S", n)
    bad = next(((format_cycles(u), format_cycles(v))
                for u in plain.elements for v in plain.elements
                if order.abs_leq(u, v, "S") != order.sn_leq_noncrossing(u, v)),
               None)
    out.append(_claim(
        claim="noncrossing-order-agreement",
        statement=("length-additivity and noncrossing cycle containment "
                    "define the same order on the plain group"),
        parameters={"n": n, "pairs": len(plain) ** 2},
        expected="orders agree on all pairs",
        computed="orders agree on all pairs" if bad is None
        else f"disagreement at {bad}",
    ))
    scope = 3 if profile == "quick" else 4
    expected = {}
    computed = {}
    for kind in ("S", "B", "D"):
        for n in range(2, scope + 1):
            key = f"{kind}{n}"
            expected[key] = list(invariants.rank_generating_function(kind, n))
            computed[key] = list(order.full_poset(kind, n).rank_sizes())
    out.append(_claim(
        claim="rank-generating-function",
        statement=("group rank sizes match the product formula over the "
                   "degree exponents"),
        parameters={"kinds": ["S", "B", "D"], "n_upto": scope},
        expected=expected,
        computed=computed,
    ))
    return out


def _claim_zeta_battery(profile):
    tops = 3 if profile == "quick" else 4
    posets = []
    for n in range(1, tops + 1):
        posets.append((f"coxeter-{n}", invariants.build_coxeter_interval(n)))
        posets.append((f"flip-{n}", invariants.build_flip_interval(n)))
    for k, r in [(1, 1), (1, 2), (2, 1)] + ([(2, 2), (3, 1), (1, 3)]
                                            if profile != "quick" else []):
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
        statement=("the interpolated zeta polynomial returns the cardinality "
                   "at 2 and the first-to-last Mobius value at -1 on every "
                   "bounded interval in the battery"),
        parameters={"posets": [name for name, _ in posets]},
        expected=expected,
        computed=computed,
    )]
    ambient = order.full_poset("B", 3)
    bad = None
    for i, w in enumerate(ambient.elements):
        ranks = [ambient.rank[j] for j in order.bits(ambient.below[i])]
        sizes = tuple(map(ranks.count, range(ambient.rank[i] + 1)))
        if sizes != sizes[::-1]:
            bad = (format_cycles(w), sizes)
            break
    results.append(_claim(
        claim="palindromic-interval-ranks",
        statement="every rank-3 signed interval has palindromic rank sizes",
        parameters={"n": 3},
        expected="palindromic for every element",
        computed="palindromic for every element" if bad is None
        else f"not palindromic below {bad[0]}: {bad[1]}",
    ))
    return results


def _claim_fiber_machinery(profile):
    out = []
    scopes = ([("S", 3), ("B", 2)] if profile == "quick"
              else [("S", 3), ("S", 4), ("S", 5), ("B", 2), ("B", 3), ("B", 4)])
    ns = [3] if profile == "quick" else [2, 3, 4]
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


def _claim_series_identity(profile):
    return [_claim(
        claim="flip-exponential-identity",
        statement=("exp of the alternating Catalan log-series equals its "
                   "closed product form through order 10"),
        parameters={"order": 10},
        expected="coefficients agree through order 10",
        computed="coefficients agree through order 10"
        if series.flip_exponential_identity_ok(10) else "coefficient mismatch",
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
    echoed in the report.  The fault hook annotates the named claim's computed text, so its
    derived verdict fails, proving that a wrong value cannot produce a
    clean exit.
    """
    if profile not in ("quick", "full"):
        raise ValueError(f"unknown profile {profile!r}")
    results = []
    for section in CLAIM_SECTIONS:
        results.extend(section(profile))
    if fault is not None:
        matched = [r for r in results if r.claim == fault]
        if not matched:
            known = ", ".join(r.claim for r in results)
            raise ValueError(
                f"unknown claim id {fault!r}; this profile produced: {known}")
        for r in matched:
            r.computed += " [injected fault]"
    return VerificationSuiteReport(profile, seed, results)
