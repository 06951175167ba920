"""The benchmark's metric list: names, units, directions, bounds and what
each per-layer metric should move.  `BENCHMARK.json` is this list in the
format the benchmark is run by; `selftest.py` checks that the two agree.

Normalised seconds
------------------
Every time below, except the raw figures kept in the run record, is in
normalised seconds: raw_s * R0 / R.  R is the median time of the reference
kernel (`calib.py`) over the samples taken in the bracket just before the
span, inside it and in the bracket just after it; R0 is a constant, so a
normalised second is a second at the speed the benchmark was tuned at.
In-process spans are interrupted every `calib.INTERVAL` seconds by a timer
that takes one more sample, and a CLI command samples inside its own
process (`child.py`); the sampling time is taken out of the span.

Why: on the shared 2-CPU machine (Python 3.11) this benchmark was tuned
on, the same `full_poset("S", 5)` build took anywhere from 0.12 s to
0.32 s within one 90 s loop, while process CPU time tracked wall time to
within 2 %, so the machine itself changes speed and no run length or
median averages that away.  Two runs of identical code differed by 7 % on
raw analyze wall time, 10 % on raw CLI wall time and 11 % on raw CLI
set-up time.  Brackets alone (no samples inside a span) still left 4-5 %
between runs, because the speed also changes within one op.  With samples
inside every span, two sets of ten seeds gave quartile spreads of wall_s
of 4.6 % and 5.0 % (construct), 1.0 % and 4.7 % (analyze) and 2.0 % and
5.8 % (cli), and the two medians agreed within 1.7 %; the raw seconds of
the same runs spread by 10-19 %.

Per-layer times are the inclusive time of the outermost calls into the
named functions, so nested layers overlap: `order.build_s` includes the
reflection-length calls a build makes, which `signed.length_s` also counts.
`trace.coverage_pct` uses self times, which do not overlap.
"""

WORKLOADS = [
    ("construct", "builds full posets, the B4 Coxeter ideal, B5 intervals and "
     "an ideal each pass: the all-pairs order build and reflection length, "
     "where the fast core must show"),
    ("analyze", "reads posets built in set-up: homology, CM links, torsion, "
     "census, EL, lattice and fiber laws; a faster order build moves only "
     "its setup_s"),
    ("cli", "the README commands, one fresh process each: start-up, import, "
     "argparse, small builds and output; no in-process cache survives"),
]

# name, unit, better, bound
END_TO_END = [
    ("wall_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# name, unit, better, where it should move (end-to-end metric per workload)
PER_LAYER = [
    ("signed.length_calls", "count", "lower",
     "construct/wall_s, analyze/setup_s, analyze/wall_s (project_pi)"),
    ("signed.length_s", "s", "lower",
     "construct/wall_s, analyze/setup_s, analyze/wall_s (project_pi)"),
    ("signed.decompose_calls", "count", "lower",
     "construct/wall_s, analyze/setup_s, analyze/wall_s"),
    ("signed.self_s", "s", "lower", "construct/wall_s, analyze/setup_s"),
    ("order.build_s", "s", "lower",
     "construct/wall_s, analyze/setup_s, cli/wall_s"),
    ("order.abs_leq_calls", "count", "lower",
     "construct/wall_s, analyze/setup_s, cli/wall_s"),
    ("order.relations", "count", "higher", "none: fixed by the inputs"),
    ("order.hasse_edges", "count", "higher", "none: fixed by the inputs"),
    ("order.leq_hit_ratio", "ratio", "higher",
     "construct/wall_s, analyze/setup_s, cli/wall_s"),
    ("order.cover_search_s", "s", "lower",
     "construct/wall_s, analyze/setup_s, cli/wall_s"),
    ("order.relations_per_s", "1/s", "higher",
     "construct/wall_s, analyze/setup_s, cli/wall_s"),
    ("order.read_s", "s", "lower", "analyze/wall_s"),
    ("topology.complex_s", "s", "lower", "analyze/wall_s, cli/wall_s"),
    ("topology.faces", "count", "higher", "none: fixed by the inputs"),
    ("topology.homology_s", "s", "lower", "analyze/wall_s, cli/wall_s"),
    ("topology.boundary_nonzeros", "count", "higher",
     "none: fixed by the inputs"),
    ("topology.cm_s", "s", "lower", "analyze/wall_s, cli/wall_s (--cm)"),
    ("topology.cm_links", "count", "higher", "none: fixed by the inputs"),
    ("topology.links_per_s", "1/s", "higher", "analyze/wall_s, cli/wall_s"),
    ("topology.torsion_s", "s", "lower", "analyze/wall_s"),
    ("topology.euler_count_s", "s", "lower", "analyze/wall_s"),
    ("invariants.census_s", "s", "lower", "analyze/wall_s"),
    ("invariants.multichain_calls", "count", "lower", "analyze/wall_s"),
    ("invariants.mobius_s", "s", "lower", "analyze/wall_s"),
    ("invariants.zeta_s", "s", "lower", "analyze/wall_s"),
    ("labeling.el_s", "s", "lower", "analyze/wall_s, cli/wall_s"),
    ("labeling.intervals_checked", "count", "higher",
     "none: fixed by the inputs"),
    ("labeling.chains_checked", "count", "higher", "none: fixed by the inputs"),
    ("labeling.chains_per_s", "1/s", "higher", "analyze/wall_s, cli/wall_s"),
    ("lattice.is_lattice_s", "s", "lower", "analyze/wall_s"),
    ("lattice.scan_s", "s", "lower", "cli/wall_s (lattice-scan)"),
    ("series.s", "s", "lower",
     "analyze/wall_s, where its share is too small to show"),
    ("verify.claims", "count", "higher", "none: fixed by the profile"),
    ("verify.claims_passed", "count", "higher", "none: must equal claims"),
    ("verify.self_s", "s", "lower", "cli/wall_s"),
    ("cli.start_s", "s", "lower", "cli/setup_s, cli/wall_s"),
    ("cli.cmd_s", "s", "lower", "cli/wall_s"),
    ("cli.emit_s", "s", "lower", "cli/wall_s"),
    ("cli.stdout_bytes", "bytes", "lower", "cli/wall_s"),
    ("calib.ref_s", "s", "lower", "none: diagnostic, the machine's speed"),
    ("calib.iqr_pct", "%", "lower", "none: diagnostic, kernel spread"),
    ("trace.coverage_pct", "%", "higher", "none: diagnostic"),
    ("trace.overhead_s", "s", "lower", "none: diagnostic"),
]

# Counts that must repeat exactly between runs and across seeds.
EXACT_COUNTS = ("signed.length_calls", "order.abs_leq_calls",
                "order.relations", "order.hasse_edges", "topology.faces",
                "topology.boundary_nonzeros", "topology.cm_links",
                "labeling.chains_checked")


def unit_of(name: str) -> str:
    for entry in END_TO_END + PER_LAYER:
        if entry[0] == name:
            return entry[1]
    raise KeyError(name)


def benchmark_json() -> dict:
    """This list as committed in BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 10,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }
