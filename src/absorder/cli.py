"""Command line front end.

Exit codes: 0 success, 1 a checked claim failed, 2 usage or domain error,
3 a resource guard tripped.
"""

import argparse
import json
import os
import sys

from . import invariants, labeling, lattice, order, series, topology, verify
from .labeling import LABELERS
from .order import ResourceGuardError
from .signed import format_cycles, identity, parse_cycles

# --format choices: only the poset renderers print DOT.
FORMATS = ("json", "table")
POSET_FORMATS = ("json", "dot", "table")


def _build_poset(args) -> order.Poset:
    if getattr(args, "ideal", None) == "coxeter":
        return order.coxeter_ideal(args.n, args.group)
    if getattr(args, "gen", None):
        return order.build_ideal(
            [parse_cycles(text, args.n) for text in args.gen], args.group)
    if getattr(args, "top", None):
        top = parse_cycles(args.top, args.n)
        bottom = (parse_cycles(args.bottom, args.n)
                  if getattr(args, "bottom", None) else identity(args.n))
        return order.build_interval(bottom, top, args.group)
    return order.full_poset(args.group, args.n)


def _print(text: str) -> None:
    """The one print of a report.  A reader such as `head` may close the
    pipe first: the rest then goes into os.devnull, as in the Python
    documentation's recipe for SIGPIPE, so the command still exits with
    its handler's code and prints nothing on stderr."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(fmt: str, data, table) -> None:
    """`data` as indented JSON, or else the lines of `table`."""
    _print(json.dumps(data, indent=2) if fmt == "json" else "\n".join(table))


def _emit_poset(p: order.Poset, fmt: str) -> None:
    if fmt == "json":
        _print(p.to_json())
    elif fmt == "dot":
        _print(p.to_dot())
    else:
        _print("\n".join([f"{p.label}: kind {p.kind}, {len(p)} elements, "
                          f"rank sizes {p.rank_sizes()}"]
                         + [f"  rank {r}: {format_cycles(w)}"
                            for r, w in zip(p.rank, p.elements)]))


def _cmd_poset(args) -> int:
    _emit_poset(_build_poset(args), args.format)
    return 0


def _cmd_check_el(args) -> int:
    p = _build_poset(args)
    report = labeling.verify_el(p, labeler=LABELERS[args.labeling](p))
    verdict = "EL" if report.ok else "not EL"
    _emit(args.format, report.to_json(), [
        f"{p.label}: {verdict} under the {args.labeling} labeling "
        f"({report.intervals_checked} intervals, "
        f"{report.chains_checked} chains)"]
        + ([] if report.ok else [f"  failure: {report.failure}"]))
    return 0 if report.ok else 1


def _cmd_lattice_scan(args) -> int:
    report = lattice.prediction_scan(args.group, args.n)
    _emit(args.format, report.to_json(), [
        f"kind {report.kind}, rank {report.n}: {report.checked} "
        f"intervals, {len(report.mismatches)} prediction mismatches"]
        + [f"  {miss}" for miss in report.mismatches])
    return 0 if report.ok() else 1


def _cmd_invariants(args) -> int:
    if args.family:
        closed_form, build = invariants.FAMILIES[args.family]
        sizes = (args.k, args.r) if args.family == "cycle-flip" else (args.n,)
        closed = closed_form(*sizes)
        census = invariants.census(build(*sizes))
        agree = closed.matches(census)
        _emit(args.format, {"closed_form": closed.to_json(),
                            "census": census.to_json(), "agree": agree},
              [f"closed form: {closed.to_json()}",
               f"census:      {census.to_json()}", f"agree: {agree}"])
        return 0 if agree else 1
    p = _build_poset(args)
    report = invariants.census(p).to_json()
    _emit(args.format, report, [f"{p.label}: {report}"])
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
        report = topology.cm_check(complex_)
        payload["cm"] = report.to_json()
        ok = ok and report.ok
    if args.torsion:
        payload["torsion"] = {str(d): factors for d, factors in
                              topology.torsion_profile(complex_).items()}
    _emit(args.format, payload,
          [f"{key}: {value}" for key, value in payload.items()])
    return 0 if ok else 1


def _cmd_gf(args) -> int:
    predict, scope, kind = {
        "sym": (series.predicted_chi_sym, "euler-three-way-plain", "S"),
        "hyper": (series.predicted_chi_hyper, "euler-three-way-signed", "B"),
    }[args.family]
    ranks = verify.SCOPES[scope][verify.PROFILES.index("full")]
    rows = {}
    ok = True
    for n, chi in predict(args.upto).items():
        rows[n] = {"predicted": chi}
        if args.crosscheck and n in ranks:
            computed = topology.chain_euler_characteristic(
                order.coxeter_ideal(n, kind), strip="endpoints")
            rows[n]["computed"] = computed
            ok = ok and computed == chi
    _emit(args.format, {"family": args.family, "rows": rows, "ok": ok},
          [f"  rank {n}: predicted {row['predicted']}"
           + (f", computed {row['computed']}" if "computed" in row else "")
           for n, row in rows.items()] + [f"ok: {ok}"])
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    report = verify.run_verify_suite(profile=args.profile, seed=args.seed)
    table = []
    for r in report.results:
        table.append(f"[{'PASS' if r.verdict else 'FAIL'}] {r.claim}: "
                     f"{r.statement}")
        if not r.verdict:
            table += [f"       expected: {r.expected}",
                      f"       computed: {r.computed}"]
    table.append(f"{'all claims hold' if report.ok() else 'CLAIMS FAILED'} "
                 f"(profile {report.profile}, seed {report.seed})")
    _emit(args.format, report.to_json(), table)
    return 0 if report.ok() else 1


def _unread_option(args) -> str | None:
    """Why an option given would go unread, or one needed is missing."""
    top, bottom = getattr(args, "top", None), getattr(args, "bottom", None)
    if args.command == "interval" and not top:
        return "interval needs --top"
    if bottom and not top:
        return "--bottom needs --top"
    if getattr(args, "ideal", None) and (top or bottom):
        return "--ideal coxeter takes no --top or --bottom"
    if args.command == "invariants" and args.family and (top or bottom):
        return "--family takes no --top or --bottom"
    if (args.command == "invariants" and args.family != "cycle-flip"
            and (args.k is not None or args.r is not None)):
        return "--k and --r need --family cycle-flip"
    if args.command == "invariants" and args.family and args.group != "B":
        return "--family builds kind-B intervals; --group must be B"
    if args.command == "invariants" and args.family == "cycle-flip" and (
            None in (args.k, args.r) or args.n != args.k + args.r):
        return "--family cycle-flip needs --k and --r adding up to --n"
    return None


def _rank(text: str) -> int:
    """The --n, --upto, --k and --r arguments: a nonnegative integer in
    ASCII digits, leading zeros aside no longer than int() reads."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(
            f"the rank must be a nonnegative integer, got {text!r}")
    try:
        return int(text.lstrip("0") or "0")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"the rank has {len(text)} digits, too many to read") from None


def _add_common(sub, formats, top=False):
    sub.add_argument("--group", choices=("S", "B", "D"), default="B")
    sub.add_argument("--n", type=_rank, required=True)
    if top:
        sub.add_argument("--top", help="top element in cycle notation")
        sub.add_argument("--bottom", help="bottom element (default identity)")
    sub.add_argument("--format", choices=formats, default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absorder",
        description="absolute order on plain, signed, and even signed "
                    "permutations: construction and verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("poset", help="render a whole group poset")
    _add_common(sub, POSET_FORMATS)
    sub.set_defaults(handler=_cmd_poset)

    sub = subs.add_parser("interval", help="render a closed interval")
    _add_common(sub, POSET_FORMATS, top=True)
    sub.set_defaults(handler=_cmd_poset)

    sub = subs.add_parser("ideal", help="render an order ideal")
    _add_common(sub, POSET_FORMATS)
    which = sub.add_mutually_exclusive_group(required=True)
    which.add_argument("--coxeter", dest="ideal", action="store_const",
                       const="coxeter", help="ideal generated by all maximal cycles")
    which.add_argument("--gen", action="append",
                       help="generator in cycle notation (repeatable)")
    sub.set_defaults(handler=_cmd_poset)

    sub = subs.add_parser("check-el", help="verify an edge labeling")
    _add_common(sub, FORMATS, top=True)
    sub.add_argument("--labeling", choices=LABELERS, default="letter")
    sub.set_defaults(handler=_cmd_check_el)

    sub = subs.add_parser("lattice-scan",
                          help="compare lattice predictions with brute force")
    _add_common(sub, FORMATS)
    sub.set_defaults(handler=_cmd_lattice_scan)

    sub = subs.add_parser("invariants",
                          help="census a poset, or confront a closed form")
    _add_common(sub, FORMATS, top=True)
    sub.add_argument("--family", choices=invariants.FAMILIES)
    sub.add_argument("--k", type=_rank)
    sub.add_argument("--r", type=_rank)
    sub.set_defaults(handler=_cmd_invariants)

    sub = subs.add_parser("topology",
                          help="homology and Cohen-Macaulay checks")
    _add_common(sub, FORMATS, top=True)
    sub.add_argument("--ideal", choices=("coxeter",),
                     help="use the maximal-cycle ideal instead of an interval")
    sub.add_argument("--strip", choices=("none", "endpoints"),
                     default="endpoints")
    sub.add_argument("--cm", action="store_true")
    sub.add_argument("--torsion", action="store_true")
    sub.set_defaults(handler=_cmd_topology)

    sub = subs.add_parser("gf", help="generating-function predictions")
    sub.add_argument("--family", choices=("sym", "hyper"), required=True)
    sub.add_argument("--upto", type=_rank, required=True)
    sub.add_argument("--crosscheck", action="store_true")
    sub.add_argument("--format", choices=FORMATS, default="table")
    sub.set_defaults(handler=_cmd_gf)

    sub = subs.add_parser("verify", help="run the claim suite")
    sub.add_argument("--profile", choices=verify.PROFILES, default="quick")
    sub.add_argument("--format", choices=FORMATS, default="table")
    sub.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    sub.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    unread = _unread_option(args)
    if unread:
        parser.error(unread)
    try:
        return args.handler(args)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # LabelingError and CycleNotationError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
