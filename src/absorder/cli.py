"""Command line front end.

Exit codes: 0 success, 1 a checked claim failed, 2 usage or domain error,
3 a resource guard tripped.
"""

import argparse
import json
import sys

from . import invariants, labeling, lattice, order, series, topology, verify
from .order import ResourceGuardError
from .labeling import LabelingError
from .signed import CycleNotationError, format_cycles, identity, parse_cycles

# --format choices: only the poset renderers print DOT.
FORMATS = ("json", "table")
POSET_FORMATS = ("json", "dot", "table")


def _build_poset(args) -> order.Poset:
    if getattr(args, "ideal", None) == "coxeter":
        return order.coxeter_ideal(args.n, args.group)
    if getattr(args, "top", None):
        top = parse_cycles(args.top, args.n)
        bottom = (parse_cycles(args.bottom, args.n)
                  if getattr(args, "bottom", None) else identity(args.n))
        return order.build_interval(bottom, top, args.group)
    return order.full_poset(args.group, args.n)


def _emit_poset(p: order.Poset, fmt: str) -> None:
    if fmt == "json":
        print(p.to_json())
    elif fmt == "dot":
        print(p.to_dot())
    else:
        print(f"{p.label}: kind {p.kind}, {len(p)} elements, "
              f"rank sizes {p.rank_sizes()}")
        for i, w in enumerate(p.elements):
            print(f"  rank {p.rank[i]}: {format_cycles(w)}")


def _cmd_poset(args) -> int:
    _emit_poset(_build_poset(args), args.format)
    return 0


def _cmd_ideal(args) -> int:
    if args.coxeter:
        p = order.coxeter_ideal(args.n, args.group)
    else:
        gens = [parse_cycles(text, args.n) for text in args.gen]
        p = order.build_ideal(gens, args.group)
    _emit_poset(p, args.format)
    return 0


def _cmd_check_el(args) -> int:
    p = _build_poset(args)
    if args.labeling == "letter":
        labeler = labeling.support_size_label
    elif args.labeling == "collapsed":
        labeler = labeling.collapsed_reflection_label
    else:
        labeler = labeling.join_position_labeler(p)
    report = labeling.verify_el(p, labeler=labeler,
                                chain_guard=args.chain_guard)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        verdict = "EL" if report.ok else "not EL"
        print(f"{p.label}: {verdict} under the {args.labeling} labeling "
              f"({report.intervals_checked} intervals, "
              f"{report.chains_checked} chains)")
        if not report.ok:
            print(f"  failure: {report.failure}")
    return 0 if report.ok else 1


def _cmd_lattice_scan(args) -> int:
    report = lattice.prediction_scan(args.group, args.n, guard=args.guard)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(f"kind {report.kind}, rank {report.n}: {report.checked} "
              f"intervals, {len(report.mismatches)} prediction mismatches")
        for miss in report.mismatches:
            print(f"  {miss}")
    return 0 if report.ok() else 1


def _cmd_invariants(args) -> int:
    if args.family:
        if args.family == "coxeter":
            closed = invariants.closed_form_coxeter_interval(args.n)
            built = invariants.build_coxeter_interval(args.n)
        elif args.family == "flip":
            closed = invariants.closed_form_flip_interval(args.n)
            built = invariants.build_flip_interval(args.n)
        else:
            if args.k is None or args.r is None:
                raise CycleNotationError("cycle-flip needs --k and --r")
            closed = invariants.closed_form_cycle_flip_interval(args.k, args.r)
            built = invariants.build_cycle_flip_interval(args.k, args.r)
        census = invariants.census(built)
        agree = closed.matches(census)
        if args.format == "json":
            print(json.dumps({"closed_form": closed.to_json(),
                              "census": census.to_json(),
                              "agree": agree}, indent=2))
        else:
            print("closed form:", closed.to_json())
            print("census:     ", census.to_json())
            print("agree:", agree)
        return 0 if agree else 1
    p = _build_poset(args)
    report = invariants.census(p)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(f"{p.label}: {report.to_json()}")
    return 0


def _cmd_topology(args) -> int:
    p = _build_poset(args)
    complex_ = topology.order_complex(p, strip=args.strip)
    profile = topology.homology(complex_)
    payload = {
        "complex": complex_.to_json(),
        "homology": profile.to_json(),
        "chi_by_counting": topology.chain_euler_characteristic(
            p, strip=args.strip),
    }
    ok = payload["chi_by_counting"] == profile.euler
    if args.cm:
        report = topology.cm_check(complex_, mode=args.cm_mode,
                                   seed=args.seed)
        payload["cm"] = report.to_json()
        ok = ok and report.ok
    if args.torsion:
        payload["torsion"] = {
            str(d): factors
            for d, factors in topology.torsion_profile(complex_).items()
        }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0 if ok else 1


def _cmd_gf(args) -> int:
    if args.family == "sym":
        predicted = series.predicted_chi_sym(args.upto)
        crosscheck_limit = 5
        first = 3
    else:
        predicted = series.predicted_chi_hyper(args.upto)
        crosscheck_limit = 4
        first = 2
    rows = {}
    ok = True
    for n, chi in predicted.items():
        rows[n] = {"predicted": chi}
        if args.crosscheck and first <= n <= crosscheck_limit:
            if args.family == "sym":
                p = order.full_poset("S", n)
            else:
                p = order.coxeter_ideal(n, "B")
            computed = topology.homology(
                topology.order_complex(p, strip="endpoints")).euler
            rows[n]["computed"] = computed
            ok = ok and computed == chi
    if args.format == "json":
        print(json.dumps({"family": args.family, "rows": rows, "ok": ok},
                         indent=2))
    else:
        for n, row in rows.items():
            line = f"  rank {n}: predicted {row['predicted']}"
            if "computed" in row:
                line += f", computed {row['computed']}"
            print(line)
        print("ok:", ok)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    report = verify.run_verify_suite(profile=args.profile, seed=args.seed,
                                     fault=args.inject_fault)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        for r in report.results:
            flag = "PASS" if r.verdict else "FAIL"
            print(f"[{flag}] {r.claim}: {r.statement}")
            if not r.verdict:
                print(f"       expected: {r.expected}")
                print(f"       computed: {r.computed}")
        print(f"{'all claims hold' if report.ok() else 'CLAIMS FAILED'} "
              f"(profile {report.profile}, seed {report.seed})")
    return 0 if report.ok() else 1


def _rank(text: str) -> int:
    """The --n argument: a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"the rank must be a nonnegative integer, got {text!r}")
    return int(text)


def _add_common(sub, top=False):
    sub.add_argument("--group", choices=("S", "B", "D"), default="B")
    sub.add_argument("--n", type=_rank, required=True)
    if top:
        sub.add_argument("--top", help="top element in cycle notation")
        sub.add_argument("--bottom", help="bottom element (default identity)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absorder",
        description="absolute order on plain, signed, and even signed "
                    "permutations: construction and verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("poset", help="render a whole group poset")
    _add_common(sub)
    sub.add_argument("--format", choices=POSET_FORMATS, default="table")
    sub.set_defaults(handler=_cmd_poset)

    sub = subs.add_parser("interval", help="render a closed interval")
    _add_common(sub, top=True)
    sub.add_argument("--format", choices=POSET_FORMATS, default="table")
    sub.set_defaults(handler=_cmd_poset)

    sub = subs.add_parser("ideal", help="render an order ideal")
    _add_common(sub)
    sub.add_argument("--format", choices=POSET_FORMATS, default="table")
    which = sub.add_mutually_exclusive_group(required=True)
    which.add_argument("--coxeter", action="store_true",
                       help="ideal generated by all maximal cycles")
    which.add_argument("--gen", action="append",
                       help="generator in cycle notation (repeatable)")
    sub.set_defaults(handler=_cmd_ideal)

    sub = subs.add_parser("check-el", help="verify an edge labeling")
    _add_common(sub, top=True)
    sub.add_argument("--format", choices=FORMATS, default="table")
    sub.add_argument("--labeling",
                     choices=("letter", "collapsed", "join-position"),
                     default="letter")
    sub.add_argument("--chain-guard", type=int, default=10 ** 6)
    sub.set_defaults(handler=_cmd_check_el)

    sub = subs.add_parser("lattice-scan",
                          help="compare lattice predictions with brute force")
    _add_common(sub)
    sub.add_argument("--format", choices=FORMATS, default="table")
    sub.add_argument("--guard", type=int, default=None)
    sub.set_defaults(handler=_cmd_lattice_scan)

    sub = subs.add_parser("invariants",
                          help="census a poset, or confront a closed form")
    _add_common(sub, top=True)
    sub.add_argument("--format", choices=FORMATS, default="table")
    sub.add_argument("--family", choices=("coxeter", "flip", "cycle-flip"))
    sub.add_argument("--k", type=int)
    sub.add_argument("--r", type=int)
    sub.set_defaults(handler=_cmd_invariants)

    sub = subs.add_parser("topology",
                          help="homology and Cohen-Macaulay checks")
    _add_common(sub, top=True)
    sub.add_argument("--format", choices=FORMATS, default="table")
    sub.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    sub.add_argument("--ideal", choices=("coxeter",),
                     help="use the maximal-cycle ideal instead of an interval")
    sub.add_argument("--strip", choices=("none", "endpoints"),
                     default="endpoints")
    sub.add_argument("--cm", action="store_true")
    sub.add_argument("--cm-mode", choices=("all", "sampled"), default="all")
    sub.add_argument("--torsion", action="store_true")
    sub.set_defaults(handler=_cmd_topology)

    sub = subs.add_parser("gf", help="generating-function predictions")
    sub.add_argument("--family", choices=("sym", "hyper"), required=True)
    sub.add_argument("--upto", type=int, required=True)
    sub.add_argument("--crosscheck", action="store_true")
    sub.add_argument("--format", choices=FORMATS, default="table")
    sub.set_defaults(handler=_cmd_gf)

    sub = subs.add_parser("verify", help="run the claim suite")
    sub.add_argument("--profile", choices=("quick", "full"), default="quick")
    sub.add_argument("--inject-fault", metavar="CLAIM",
                     help="deliberately falsify one claim's verdict")
    sub.add_argument("--format", choices=FORMATS, default="table")
    sub.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    sub.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (LabelingError, CycleNotationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
