"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in order:

1. `BENCHMARK.json` equals the metric list in `metrics.py`.
2. Answer checks: corrupting one reference of each kind makes the op that
   produces it count as failed; a raise, a guard trip, a live thread and a
   live child process each count as a failed op too.
3. Injected slowdown: with `order.Poset.__init__` wrapped at run time to
   build every poset twice, `construct/wall_s` rises by more than its
   bound, `analyze/wall_s` stays within its bound, and the traced run puts
   most of the extra construct time in `order.build_s`.
4. Exact counts: the counts in `metrics.EXACT_COUNTS` repeat exactly
   between two traced runs with one seed and a run with another seed.

Exits 1 if any check fails.  Takes about ten minutes on two CPUs.
"""

import copy
import json
import os
import subprocess
import sys
import threading

import run as bench  # sets up the import path
import calib
import metrics
import workloads
from absorder import order, topology

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        FAILURES.append(what)


# --- 1 ---------------------------------------------------------------------

def check_benchmark_json() -> None:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        committed = json.load(fh)
    check(committed == metrics.benchmark_json(),
          "BENCHMARK.json agrees with metrics.py")


# --- 2 ---------------------------------------------------------------------

# kind -> (workload, op) that reports it
KIND_SOURCES = {
    "size": ("construct", "ideal_B5"),
    "rank_sizes": ("construct", "ideal_B5"),
    "relations": ("construct", "ideal_B5"),
    "hasse_edges": ("construct", "ideal_B5"),
    "f_vector": ("analyze", "homology_coxeter_ideal_B4"),
    "betti": ("analyze", "homology_coxeter_ideal_B4"),
    "euler": ("analyze", "euler_count"),
    "zeta": ("analyze", "census"),
    "mobius": ("analyze", "census"),
    "el": ("analyze", "el"),
    "lattice": ("analyze", "lattice"),
    "claims": ("cli", "verify_quick"),
}


def _corrupt(tree, kind) -> bool:
    """Change the first leaf named `kind`; True when one was found."""
    for key in sorted(tree):
        value = tree[key]
        if key == kind:
            if isinstance(value, bool):
                tree[key] = not value
            elif isinstance(value, int):
                tree[key] = value + 1
            elif kind == "claims":
                value[0][1] = not value[0][1]
            else:
                tree[key] = value[:-1] + [value[-1] + 1 if isinstance(
                    value[-1], int) else value[-1] + "0"]
            return True
        if isinstance(value, dict) and _corrupt(value, kind):
            return True
    return False


def check_answer_checks() -> None:
    references = bench._load_references()
    run = bench.Run(3, references)
    try:
        ops = {"construct": dict(workloads.construct_ops(workloads.Inputs(3)))}
        context, _ = run.setup("analyze")
        ops["analyze"] = dict(context["ops"])
        ops["cli"] = {name: run._cli_child(name, args)
                      for name, args in workloads.cli_commands(
                          workloads.Inputs(3), 3)}
        answers = {}
        for kind, (workload, name) in KIND_SOURCES.items():
            if (workload, name) not in answers:
                before = run.failed
                answers[workload, name] = run.op(
                    workload, name, ops[workload][name],
                    child=workload == "cli")[0]
                check(run.failed == before,
                      f"{workload}/{name} passes its answer check")
            run.references = copy.deepcopy(references)
            found = _corrupt(run.references[workload][name], kind)
            before = run.failed
            run.op(workload, name, lambda: answers[workload, name])
            check(found and run.failed == before + 1,
                  f"a corrupted '{kind}' reference fails {workload}/{name}")
        run.references = references

        some_op = context["ops"][0][1]
        before = run.failed
        run.op("analyze", "guard", lambda: topology.order_complex(
            order.full_poset("B", 3), face_guard=10), check=False)
        check(run.failed == before + 1, "a guard trip counts as a failed op")
        before = run.failed
        run.op("analyze", "raise", lambda: 1 // 0, check=False)
        check(run.failed == before + 1, "a raise counts as a failed op")

        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        before = run.failed
        try:
            run.op("analyze", "with-thread", some_op, check=False)
        finally:
            release.set()
            thread.join(timeout=10)
        check(run.failed == before + 1 and not thread.is_alive(),
              "the kernel refuses to run beside a live thread")

        child = subprocess.Popen([sys.executable, "-c",
                                  "import time; time.sleep(30)"])
        before = run.failed
        try:
            run.op("analyze", "with-child", some_op, check=False)
        finally:
            child.kill()
            child.wait()
        check(run.failed == before + 1,
              "the kernel refuses to run beside a live child process")
        check(calib.kernel_sample() > 0, "the kernel runs again once quiet")
    finally:
        run.close()


# --- 3 and 4 ---------------------------------------------------------------

class BuildTwice:
    """Wrap Poset.__init__ so every poset is built twice."""

    def __enter__(self):
        self.original = order.Poset.__init__
        original = self.original

        def twice(poset, *args, **kwargs):
            original(poset, *args, **kwargs)
            original(poset, *args, **kwargs)

        order.Poset.__init__ = twice
        return self

    def __exit__(self, *exc):
        order.Poset.__init__ = self.original
        return False


def _untraced(workload: str, seed: int) -> float:
    run = bench.Run(seed, bench._load_references())
    try:
        values, _ = bench.untraced_run(run, workload, seconds=0)
    finally:
        run.close()
    check(run.failed == 0, f"{workload} seed {seed}: every op passes")
    return values["wall_s"]


def _traced(workload: str, seed: int) -> tuple:
    run = bench.Run(seed, bench._load_references())
    try:
        values, record = bench.traced_run(run, workload)
    finally:
        run.close()
    check(run.failed == 0, f"traced {workload} seed {seed}: every op passes")
    return values, record


def _construct_phase(record: dict) -> tuple:
    phase = record["phases"]["construct"]
    traced_pass = sum(o["norm_s"] for o in phase["pass_ops"])
    return traced_pass, phase["pass"]["inclusive"].get("__init__", 0.0)


def check_slowdown_and_counts() -> None:
    bound = {n: b for n, _, _, b in metrics.END_TO_END}["wall_s"]
    saved = dict(bench.SETUP_REPS)
    bench.SETUP_REPS.update({name: 1 for name in saved})
    try:
        base = {w: _untraced(w, 11) for w in ("construct", "analyze")}
        traced_base, record_base = _traced("construct", 11)
        with BuildTwice():
            slow = {w: _untraced(w, 11) for w in ("construct", "analyze")}
            traced_slow, record_slow = _traced("construct", 11)
    finally:
        bench.SETUP_REPS.update(saved)
    rise = slow["construct"] / base["construct"] - 1
    check(rise > bound, f"building twice raises construct/wall_s by "
          f"{100 * rise:.0f}% (bound {100 * bound:.0f}%)")
    drift = slow["analyze"] / base["analyze"] - 1
    check(abs(drift) <= bound, f"building twice moves analyze/wall_s by "
          f"{100 * drift:+.1f}% (bound {100 * bound:.0f}%)")
    pass_a, build_a = _construct_phase(record_base)
    pass_b, build_b = _construct_phase(record_slow)
    share = (build_b - build_a) / (pass_b - pass_a)
    check(share > 0.5, f"order.build_s holds {100 * share:.0f}% of the extra "
          f"traced construct time")
    check(traced_slow["order.build_s"] > traced_base["order.build_s"]
          + bound * traced_base["order.build_s"],
          "order.build_s rises in the traced run")

    again, _ = _traced("construct", 11)
    other, _ = _traced("construct", 12)
    for name in metrics.EXACT_COUNTS:
        values = (traced_base[name], again[name], other[name])
        check(values[0] > 0 and len(set(values)) == 1,
              f"{name} repeats exactly: {values[0]}")


def main() -> int:
    check_benchmark_json()
    check_answer_checks()
    check_slowdown_and_counts()
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
