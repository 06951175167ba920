"""The self-verification suite: every checked claim in one runnable registry.

Each claim states what is being compared, computes both sides from scratch,
and records a verdict.  The quick profile stays at sizes that finish in
seconds; the full profile runs everything at the sizes the package is
committed to.  Fault injection deliberately falsifies one claim's verdict
so callers can watch a failure propagate to a nonzero exit.
"""

import json
import random
from dataclasses import dataclass

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
    verdict: bool

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "statement": self.statement,
            "parameters": self.parameters,
            "expected": self.expected,
            "computed": self.computed,
            "verdict": self.verdict,
        }


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


def _report_pair(closed_report, census_report):
    """Json views of the two reports, restricted to the closed form's fields."""
    expected = {k: v for k, v in closed_report.to_json().items()
                if v is not None}
    computed = {k: census_report.to_json().get(k) for k in expected}
    return expected, computed


def _claim_interval_invariants(profile, rng):
    scopes = {
        "coxeter": (range(1, 4), range(1, 5)),
        "flip": (range(1, 4), range(1, 6)),
    }
    builders = {
        "coxeter": (invariants.build_coxeter_interval,
                    invariants.closed_form_coxeter_interval),
        "flip": (invariants.build_flip_interval,
                 invariants.closed_form_flip_interval),
    }
    out = []
    for name, (quick, full) in scopes.items():
        ns = list(quick if profile == "quick" else full)
        build, closed = builders[name]
        expected = {}
        computed = {}
        for n in ns:
            expected[n], computed[n] = _report_pair(
                closed(n), invariants.census(build(n)))
        out.append(ClaimResult(
            claim=f"{name}-interval-invariants",
            statement=(f"census of the {name} interval matches the closed "
                       "forms for cardinality, rank sizes, chain count, "
                       "first-to-last Mobius value, and zeta polynomial"),
            parameters={"n": ns},
            expected=_dump(expected),
            computed=_dump(computed),
            verdict=expected == computed,
        ))
    return out


def _claim_cycle_flip(profile, rng):
    top = 3 if profile == "quick" else 5
    pairs = [(k, r) for k in range(1, top) for r in range(1, top)
             if k + r <= top]
    expected = {}
    computed = {}
    for k, r in pairs:
        expected[f"{k},{r}"], computed[f"{k},{r}"] = _report_pair(
            invariants.closed_form_cycle_flip_interval(k, r),
            invariants.census(invariants.build_cycle_flip_interval(k, r)))
    results = [ClaimResult(
        claim="cycle-flip-interval-invariants",
        statement=("census of the cycle-plus-flips interval matches the "
                   "closed forms, under the boundary convention that "
                   "evaluates the depth-one terms by the flip formulas"),
        parameters={"pairs": [list(p) for p in pairs]},
        expected=_dump(expected),
        computed=_dump(computed),
        verdict=expected == computed,
    )]
    literal = invariants.closed_form_cycle_flip_interval(1, 1, literal_boundary=True)
    actual = invariants.census(invariants.build_cycle_flip_interval(1, 1))
    results.append(ClaimResult(
        claim="cycle-flip-literal-boundary",
        statement=("taking the depth-zero and depth-one seeds literally as 1 "
                   "misses the enumerated cardinality at k=r=1"),
        parameters={"k": 1, "r": 1},
        expected="literal cardinality differs: 4 vs 6",
        computed=(f"literal cardinality differs: {literal.cardinality} "
                  f"vs {actual.cardinality}"
                  if literal.cardinality != actual.cardinality
                  else "literal cardinality agrees"),
        verdict=literal.cardinality == 4 and actual.cardinality == 6,
    ))
    return results


def _claim_annular(profile, rng):
    ks = [1, 2] if profile == "quick" else [1, 2, 3, 4]
    expected = {}
    computed = {}
    for k in ks:
        facts = invariants.annular_mixing_facts(k)
        expected[k] = {"cardinality": facts.cardinality_formula,
                       "multichains": facts.multichain_formula}
        computed[k] = {"cardinality": facts.cardinality,
                       "multichains": facts.multichain_counts}
    return [ClaimResult(
        claim="annular-mixing-counts",
        statement=("the mixing subset of the cycle-join interval has the "
                   "predicted size and its touched-multichain counts match "
                   "the binomial formula for m up to 6"),
        parameters={"k": ks},
        expected=_dump(expected),
        computed=_dump(computed),
        verdict=expected == computed,
    )]


def _claim_lattice_scans(profile, rng):
    out = []
    n_b = 3 if profile == "quick" else 4
    report = lattice.prediction_scan("B", n_b)
    out.append(ClaimResult(
        claim="hook-lattice-scan-signed",
        statement=("an interval below a signed element is a lattice exactly "
                   "when its balanced-length profile is a hook"),
        parameters={"n": n_b},
        expected=f"0 mismatches over {report.checked} elements",
        computed=f"{len(report.mismatches)} mismatches over {report.checked} elements",
        verdict=report.ok(),
    ))
    n_d = 3 if profile == "quick" else 4
    report = lattice.prediction_scan("D", n_d)
    out.append(ClaimResult(
        claim="even-lattice-scan",
        statement=("inside the even subgroup the lattice profiles are "
                   "exactly empty, (k,1), and (1,1,1,1)"),
        parameters={"n": n_d},
        expected=f"0 mismatches over {report.checked} elements",
        computed=f"{len(report.mismatches)} mismatches over {report.checked} elements",
        verdict=report.ok(),
    ))
    if profile != "quick":
        u = parse_cycles("[1][2][3][4]", 5)
        v = parse_cycles("[1][2][3][5]", 5)
        mlbs = sorted(format_cycles(w) for w in
                      lattice.maximal_common_lower_bounds(u, v, "D"))
        out.append(ClaimResult(
            claim="even-three-lower-bounds",
            statement=("two rank-4 flip products differing in one letter "
                       "have exactly three maximal common lower bounds in "
                       "the even order at rank 5"),
            parameters={"u": format_cycles(u), "v": format_cycles(v)},
            expected=_dump(["[1][2]", "[1][3]", "[2][3]"]),
            computed=_dump(mlbs),
            verdict=mlbs == ["[1][2]", "[1][3]", "[2][3]"],
        ))
    return out


def _claim_el(profile, rng):
    out = []
    n = 2 if profile == "quick" else 3
    report = labeling.verify_el(order.full_poset("B", n))
    out.append(ClaimResult(
        claim="letter-labeling-el",
        statement=("under the largest-moved-letter labeling every closed "
                   "interval has exactly one strictly increasing maximal "
                   "chain and it is lexicographically first"),
        parameters={"n": n, "intervals": report.intervals_checked},
        expected="EL on all intervals",
        computed="EL on all intervals" if report.ok
        else f"failure at {report.failure}",
        verdict=report.ok,
    ))
    if profile != "quick":
        ambient = order.full_poset("B", 4)
        ids = rng.sample(range(len(ambient)), 50)
        bad = None
        intervals = 0
        for idx in ids:
            members = list(order.bits(ambient.below[idx]))
            sub = ambient.subposet(members, label=f"[e, {format_cycles(ambient.elements[idx])}]")
            rep = labeling.verify_el(sub)
            intervals += rep.intervals_checked
            if not rep.ok:
                bad = (format_cycles(ambient.elements[idx]), rep.failure)
                break
        out.append(ClaimResult(
            claim="letter-labeling-el-sample",
            statement=("the largest-moved-letter labeling stays EL on a "
                       "seeded sample of 50 rank-4 intervals"),
            parameters={"n": 4, "sampled_tops": 50,
                        "intervals": intervals},
            expected="EL on all sampled intervals",
            computed="EL on all sampled intervals" if bad is None
            else f"failure below {bad[0]}: {bad[1]}",
            verdict=bad is None,
        ))
    n = 3 if profile == "quick" else 4
    ambient = order.full_poset("B", n)
    mismatch = None
    for w in ambient.elements:
        chain = labeling.canonical_chain(w)
        labels = tuple(labeling.support_size_label(chain[i], chain[i + 1])
                       for i in range(len(chain) - 1))
        if labels != labeling.c_sequence(w):
            mismatch = format_cycles(w)
            break
    out.append(ClaimResult(
        claim="canonical-chain-labels",
        statement=("the letter-insertion chain of every element is labeled "
                   "by that element's sorted letter multiset"),
        parameters={"n": n, "elements": len(ambient)},
        expected="labels match the letter multiset for every element",
        computed="labels match the letter multiset for every element"
        if mismatch is None else f"mismatch at {mismatch}",
        verdict=mismatch is None,
    ))
    return out


def _claim_alt_labelings(profile, rng):
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
        out.append(ClaimResult(
            claim=f"flip-interval-el-{name}",
            statement=(f"the {name.replace('-', ' ')} labeling is EL on the "
                       "interval below the product of all sign flips"),
            parameters={"n": list(range(1, top + 1))},
            expected="EL on all flip intervals",
            computed="EL on all flip intervals" if bad is None
            else f"failure at n={bad[0]}: {bad[1]}",
            verdict=bad is None,
        ))
    return out


def _claim_disconnected(profile, rng):
    iv = order.build_interval(parse_cycles("e", 4),
                              parse_cycles("[1][2][3][4]", 4), "D")
    complex_ = topology.order_complex(iv, strip="endpoints")
    h = topology.homology(complex_)
    cm = topology.cm_check(complex_)
    good = (h.reduced_betti[0] == 2 and not cm.ok and cm.failing_face == ())
    return [ClaimResult(
        claim="disconnected-even-interval",
        statement=("the open interval below the four-flip product in the "
                   "rank-4 even order has three components, so the link "
                   "criterion already fails at the empty face"),
        parameters={"interval": "(e, [1][2][3][4])", "kind": "D"},
        expected="3 components; failure at the empty face",
        computed=(f"{h.reduced_betti[0] + 1} components; "
                  + ("failure at the empty face" if not cm.ok
                     and cm.failing_face == () else "no failure at the empty face")),
        verdict=good,
    )]


def _claim_euler_three_way(profile, rng):
    out = []
    # below rank 3 the plain poset is bounded, endpoint stripping empties
    # it, and the prediction describes the bottom-stripped complex instead
    scope_s = range(3, 5) if profile == "quick" else range(3, 6)
    predictions = series.predicted_chi_sym(max(scope_s))
    expected = {}
    computed = {}
    for n in scope_s:
        p = order.full_poset("S", n)
        c = topology.order_complex(p, strip="endpoints")
        expected[n] = {"chi": predictions[n], "chi_by_counting": predictions[n]}
        computed[n] = {
            "chi": topology.homology(c).euler,
            "chi_by_counting": topology.chain_euler_characteristic(
                p, strip="endpoints"),
        }
    out.append(ClaimResult(
        claim="euler-three-way-plain",
        statement=("series prediction, boundary-rank homology, and signed "
                   "chain counting give the same reduced Euler "
                   "characteristic for the stripped plain-group complexes"),
        parameters={"n": list(scope_s)},
        expected=_dump(expected),
        computed=_dump(computed),
        verdict=expected == computed,
    ))
    scope_j = range(2, 4) if profile == "quick" else range(2, 5)
    predictions = series.predicted_chi_hyper(max(scope_j))
    expected = {}
    computed = {}
    for n in scope_j:
        p = order.coxeter_ideal(n, "B")
        c = topology.order_complex(p, strip="endpoints")
        expected[n] = {"chi": predictions[n], "chi_by_counting": predictions[n]}
        computed[n] = {
            "chi": topology.homology(c).euler,
            "chi_by_counting": topology.chain_euler_characteristic(
                p, strip="endpoints"),
        }
    out.append(ClaimResult(
        claim="euler-three-way-signed",
        statement=("series prediction, boundary-rank homology, and signed "
                   "chain counting agree on the stripped coxeter-ideal "
                   "complexes of the signed groups"),
        parameters={"n": list(scope_j)},
        expected=_dump(expected),
        computed=_dump(computed),
        verdict=expected == computed,
    ))
    return out


def _claim_proper_part_cm(profile, rng):
    scopes = ([("S", 3), ("B", 2)] if profile == "quick"
              else [("S", 3), ("S", 4), ("B", 2), ("B", 3), ("B", 4)])
    expected = {}
    computed = {}
    for kind, n in scopes:
        p = (order.full_poset("S", n) if kind == "S"
             else order.coxeter_ideal(n, "B"))
        c = topology.order_complex(p, strip="endpoints")
        h = topology.homology(c)
        cm = topology.cm_check(c)
        key = f"{kind}{n}"
        expected[key] = {"cm": True, "concentrated": True}
        computed[key] = {"cm": cm.ok, "concentrated": h.concentrated_in_top()}
    return [ClaimResult(
        claim="proper-part-cm",
        statement=("the stripped plain-group and coxeter-ideal complexes "
                   "pass the link criterion and have homology concentrated "
                   "in the top dimension"),
        parameters={"scopes": [list(s) for s in scopes]},
        expected=_dump(expected),
        computed=_dump(computed),
        verdict=expected == computed,
    )]


def _claim_order_agreement(profile, rng):
    out = []
    n = 3 if profile == "quick" else 4
    ambient = order.full_poset("B", n)
    bad = None
    for w in ambient.elements:
        if order.covers(w, "B") != order.covers_by_pattern(w):
            bad = format_cycles(w)
            break
    out.append(ClaimResult(
        claim="cover-pattern-agreement",
        statement=("structural cover generation by cycle surgery equals "
                   "cover generation by trying every reflection"),
        parameters={"n": n, "elements": len(ambient)},
        expected="identical cover sets for every element",
        computed="identical cover sets for every element" if bad is None
        else f"mismatch at {bad}",
        verdict=bad is None,
    ))
    n = 4 if profile == "quick" else 5
    plain = order.full_poset("S", n)
    bad = None
    for u in plain.elements:
        for v in plain.elements:
            if order.abs_leq(u, v, "S") != order.sn_leq_noncrossing(u, v):
                bad = (format_cycles(u), format_cycles(v))
                break
        if bad:
            break
    out.append(ClaimResult(
        claim="noncrossing-order-agreement",
        statement=("length-additivity and noncrossing cycle containment "
                    "define the same order on the plain group"),
        parameters={"n": n, "pairs": len(plain) ** 2},
        expected="orders agree on all pairs",
        computed="orders agree on all pairs" if bad is None
        else f"disagreement at {bad}",
        verdict=bad is None,
    ))
    scope = 3 if profile == "quick" else 4
    expected = {}
    computed = {}
    for kind in ("S", "B", "D"):
        for n in range(2, scope + 1):
            key = f"{kind}{n}"
            expected[key] = list(invariants.rank_generating_function(kind, n))
            computed[key] = list(order.full_poset(kind, n).rank_sizes())
    out.append(ClaimResult(
        claim="rank-generating-function",
        statement=("group rank sizes match the product formula over the "
                   "degree exponents"),
        parameters={"kinds": ["S", "B", "D"], "n_upto": scope},
        expected=_dump(expected),
        computed=_dump(computed),
        verdict=expected == computed,
    ))
    return out


def _claim_zeta_battery(profile, rng):
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
        report = invariants.census(p)
        z = report.zeta
        expected[name] = {"zeta_at_2": report.cardinality,
                          "zeta_at_minus_1": report.mobius_bottom_top}
        computed[name] = {"zeta_at_2": z(2), "zeta_at_minus_1": z(-1)}
    results = [ClaimResult(
        claim="zeta-consistency",
        statement=("the interpolated zeta polynomial returns the cardinality "
                   "at 2 and the first-to-last Mobius value at -1 on every "
                   "bounded interval in the battery"),
        parameters={"posets": [name for name, _ in posets]},
        expected=_dump(expected),
        computed=_dump(computed),
        verdict=expected == computed,
    )]
    ambient = order.full_poset("B", 3)
    bad = None
    for w in ambient.elements:
        sizes = ambient.subposet(
            list(order.bits(ambient.below[ambient.index[w]]))).rank_sizes()
        if sizes != sizes[::-1]:
            bad = (format_cycles(w), sizes)
            break
    results.append(ClaimResult(
        claim="palindromic-interval-ranks",
        statement="every rank-3 signed interval has palindromic rank sizes",
        parameters={"n": 3},
        expected="palindromic for every element",
        computed="palindromic for every element" if bad is None
        else f"not palindromic below {bad[0]}: {bad[1]}",
        verdict=bad is None,
    ))
    return results


def _claim_fiber_machinery(profile, rng):
    out = []
    scopes = ([("S", 3), ("B", 2)] if profile == "quick"
              else [("S", 3), ("S", 4), ("S", 5), ("B", 2), ("B", 3), ("B", 4)])
    expected = {}
    computed = {}
    for kind, n in scopes:
        checks = topology.appendix_ideal_checks(kind, n)
        key = f"{kind}{n}"
        expected[key] = {"checks": len(checks), "failures": 0}
        computed[key] = {"checks": len(checks),
                         "failures": sum(1 for c in checks if not c.ok())}
    out.append(ClaimResult(
        claim="fiber-ideal-ranks",
        statement=("the long-cycle fiber ideals and every projection-fiber "
                   "ideal have their stated ranks and pass the link "
                   "criterion"),
        parameters={"scopes": [list(s) for s in scopes]},
        expected=_dump(expected),
        computed=_dump(computed),
        verdict=expected == computed,
    ))
    ns = [3] if profile == "quick" else [2, 3, 4]
    expected = {}
    computed = {}
    for n in ns:
        for kind in ("S", "B"):
            ambient = (order.full_poset("S", n) if kind == "S"
                       else order.coxeter_ideal(n, "B"))
            key = f"{kind}{n}"
            expected[key] = {"cover_lifting": True, "fiber_ideal_identity": True}
            computed[key] = {
                "cover_lifting": order.cover_lifting_ok(ambient),
                "fiber_ideal_identity": order.fiber_ideal_identity_ok(ambient),
            }
    out.append(ClaimResult(
        claim="fiber-projection-laws",
        statement=("deleting the last letter lifts covers and pulls "
                   "principal ideals back to fiber-generated ideals"),
        parameters={"n": ns},
        expected=_dump(expected),
        computed=_dump(computed),
        verdict=expected == computed,
    ))
    return out


def _claim_series_identity(profile, rng):
    ok = series.flip_exponential_identity_ok(10)
    return [ClaimResult(
        claim="flip-exponential-identity",
        statement=("exp of the alternating Catalan log-series equals its "
                   "closed product form through order 10"),
        parameters={"order": 10},
        expected="coefficients agree through order 10",
        computed="coefficients agree through order 10" if ok
        else "coefficient mismatch",
        verdict=ok,
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
    _claim_proper_part_cm,
    _claim_order_agreement,
    _claim_zeta_battery,
    _claim_fiber_machinery,
    _claim_series_identity,
]


def run_verify_suite(profile: str = "quick", seed: int = DEFAULT_SEED,
                     fault: str | None = None) -> VerificationSuiteReport:
    """Run every claim at the given profile; optionally falsify one verdict.

    The fault hook marks the named claim as failed and annotates its
    computed value, proving that a wrong value cannot produce a clean exit.
    """
    if profile not in ("quick", "full"):
        raise ValueError(f"unknown profile {profile!r}")
    rng = random.Random(seed)
    results = []
    for section in CLAIM_SECTIONS:
        results.extend(section(profile, rng))
    if fault is not None:
        matched = [r for r in results if r.claim == fault]
        if not matched:
            known = ", ".join(r.claim for r in results)
            raise ValueError(
                f"unknown claim id {fault!r}; this profile produced: {known}")
        for r in matched:
            r.verdict = False
            r.computed += " [injected fault]"
    return VerificationSuiteReport(profile, seed, results)
