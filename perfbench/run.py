"""Benchmark of the absorder package: three workloads, normalised times.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones of the chosen workload (`wall_s`, `setup_s`,
`peak_rss_mb`); with `--trace 1` they are the per-layer ones, from a traced
sweep of all three workloads (see `traced_run`).  A full record of the run,
with raw seconds and every kernel sample, is written under `.perfbench_runs/`.

Load comes from this one process, with at most one child at a time and no
threads.  Every op's answers are checked against `references.json`; a wrong
answer, an exception or a guard trip counts as a failed op.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402  (a checkout without src/absorder stops here)
from absorder import cli  # noqa: E402

# wall_s is the median of at least MIN_PASSES passes and setup_s the median
# of SETUP_REPS set-ups; analyze builds six posets per set-up, so fewer.
MIN_PASSES = 3
SETUP_REPS = {"construct": 9, "analyze": 3, "cli": 9}


def _load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def _plain(value):
    """Answers as JSON would hold them, so they compare with references."""
    return json.loads(json.dumps(value))


def mismatches(got, want, path="") -> list:
    """Paths at which the answers differ from the reference."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(want) | set(got)):
            out += mismatches(got.get(key), want.get(key), f"{path}/{key}")
        return out
    return [] if got == want else [path or "/"]


class Run:
    """State of one benchmark run: the clock, the tallies and the record."""

    def __init__(self, seed: int, references: dict):
        self.seed = seed
        self.references = references
        self.clock = calib.Clock()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.env = workloads.child_env(ROOT)
        self.scratch = os.path.join(RUNS_DIR, f"tmp-{os.getpid()}")
        os.makedirs(self.scratch, exist_ok=True)
        self.child_maxrss_kb = 0
        self.tracer = None
        self.traced = {}
        self.traced_bytes = 0

    # -- one timed op -------------------------------------------------------

    def op(self, workload: str, name: str, fn, check: bool = True,
           child: bool = False):
        """Time fn against the kernel and check its answers.

        `child` marks an op that runs a child process, which the kernel
        must not overlap.  Returns (answers, raw_s, normalised_s); the times
        are None when the op raised, in which case it counts as failed.
        """
        self.attempted += 1
        try:
            answers, raw, norm, factor = self.clock.span(
                fn, interleave=not child)
        except Exception as exc:  # a raise or guard trip is a failed op
            self.clock.reset()
            self._fail(workload, name, f"{type(exc).__name__}: {exc}")
            if self.tracer is not None:
                self.tracer.take()
            return None, None, None
        if self.tracer is not None:
            self._absorb_trace(factor)
        if check:
            want = self.references.get(workload, {}).get(name)
            bad = (["no reference"] if want is None
                   else mismatches(_plain(answers), want))
            if bad:
                self._fail(workload, name, "wrong answer at " + ", ".join(bad[:5]))
        return answers, raw, norm

    def _fail(self, workload, name, why):
        self.failed += 1
        self.failures.append({"workload": workload, "op": name, "why": why})

    def _absorb_trace(self, factor: float):
        data = self.tracer.take()
        for store, values in data.items():
            acc = self.traced.setdefault(store, {})
            timed = store != "calls" and store != "counts"
            for key, value in values.items():
                acc[key] = acc.get(key, 0) + (value * factor if timed else value)

    # -- set-up -------------------------------------------------------------

    def start_child(self):
        """Interpreter start plus package import, in a fresh process."""
        code, _ = self.spawn(["-c", "import absorder.cli"], "start")
        return {"exit": code}

    def spawn(self, args: list, tag: str):
        out = os.path.join(self.scratch, f"{tag}.out")
        err = os.path.join(self.scratch, f"{tag}.err")
        code, maxrss = workloads.spawn([sys.executable] + args, self.env,
                                       out, err)
        self.child_maxrss_kb = max(self.child_maxrss_kb, maxrss)
        return code, out

    def setup(self, workload: str) -> tuple:
        """One set-up of a workload; returns (context, steps)."""
        steps = []
        context = {}

        def step(name, fn, check=True, child=False):
            value, raw, norm = self.op(workload, "setup:" + name, fn, check,
                                       child)
            if raw is None:
                raise RuntimeError(f"set-up step {name} failed: "
                                   f"{self.failures[-1]['why']}")
            steps.append({"step": name, "raw_s": raw, "norm_s": norm})
            return value

        step("start", self.start_child, child=True)
        inputs = step("inputs", lambda: workloads.Inputs(self.seed), check=False)
        context["inputs"] = inputs
        if workload == "construct":
            context["ops"] = workloads.construct_ops(inputs)
        elif workload == "analyze":
            posets = {}
            for name, build in workloads.analyze_setup_steps(inputs):
                posets[name] = step(name, build, check=False)
            context["ops"] = workloads.analyze_ops(posets)
        else:
            context["commands"] = step(
                "commands", lambda: workloads.cli_commands(inputs, self.seed),
                check=False)
        return context, steps

    # -- passes -------------------------------------------------------------

    def one_pass(self, workload: str, context: dict, in_process_cli=False):
        """Run every op once; returns a list of per-op timings."""
        ops = []
        if workload == "cli":
            for name, args in context["commands"]:
                if in_process_cli:
                    fn = self._cli_in_process(name, args)
                else:
                    fn = self._cli_child(name, args)
                _, raw, norm = self.op(workload, name, fn,
                                       child=not in_process_cli)
                ops.append({"op": name, "raw_s": raw, "norm_s": norm})
        else:
            for name, fn in context["ops"]:
                _, raw, norm = self.op(workload, name, fn)
                ops.append({"op": name, "raw_s": raw, "norm_s": norm})
        return ops

    def _cli_child(self, name, args):
        def run():
            samples = os.path.join(self.scratch, f"{name}.samples")
            code, out = self.spawn(
                [os.path.join(HERE, "child.py"), samples] + args, name)
            with open(samples) as fh:
                taken = json.load(fh)
            os.remove(samples)
            self.clock.absorb(taken["samples"], taken["paused"])
            with open(out) as fh:
                return workloads.cli_answers(name, code, fh.read())
        return run

    def _cli_in_process(self, name, args):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(args)
            text = out.getvalue()
            self.traced_bytes += len(text.encode())
            return workloads.cli_answers(name, code, text)
        return run

    def close(self):
        for name in os.listdir(self.scratch):
            os.remove(os.path.join(self.scratch, name))
        os.rmdir(self.scratch)


def _total(ops: list):
    norm = [o["norm_s"] for o in ops if o["norm_s"] is not None]
    raw = [o["raw_s"] for o in ops if o["raw_s"] is not None]
    return sum(norm), sum(raw)


def untraced_run(run: Run, workload: str, seconds: float) -> tuple:
    record = {"setups": [], "passes": []}
    setup_norm = []
    for _ in range(SETUP_REPS[workload]):
        run.clock.reset()
        context, steps = run.setup(workload)
        record["setups"].append(steps)
        setup_norm.append(sum(s["norm_s"] for s in steps))
    pass_norm = []
    started = time.perf_counter()
    while (len(pass_norm) < MIN_PASSES
           or time.perf_counter() - started < seconds):
        ops = run.one_pass(workload, context)
        record["passes"].append(ops)
        pass_norm.append(_total(ops)[0])
    if workload == "cli":
        peak_kb = run.child_maxrss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": statistics.median(pass_norm),
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": peak_kb / 1024,
    }
    record["raw_medians"] = {
        "wall_s": statistics.median(_total(p)[1] for p in record["passes"]),
        "setup_s": statistics.median(sum(s["raw_s"] for s in st)
                                     for st in record["setups"]),
    }
    return values, record


def traced_run(run: Run, workload: str) -> tuple:
    """Per-layer metrics from one traced sweep of all three workloads.

    Each workload is set up once and run once under the tracer, so every
    layer is measured whichever workload was asked for.  The chosen
    workload also gets one untraced pass first: `trace.overhead_s` is its
    traced pass minus that untraced pass.  CLI commands run in-process
    through `cli.main` in both, so their spans are seen; those times are
    for attribution only.
    """
    import tracer as tracing

    record = {"phases": {}}
    starts = []
    cmd_times = []
    coverage = None
    overhead = None
    for name in workloads.WORKLOADS:
        run.clock.reset()
        untraced = None
        if name == workload:
            context, _ = run.setup(name)
            untraced = _total(run.one_pass(name, context,
                                           in_process_cli=True))[0]
        with tracing.Tracer(run.clock.now) as tr:
            run.tracer = tr
            run.traced = {}
            context, steps = run.setup(name)
            setup_trace = run.traced
            run.traced = {}
            run.traced_bytes = 0
            ops = run.one_pass(name, context, in_process_cli=True)
            pass_trace = run.traced
            run.tracer = None
        starts.append(steps[0]["norm_s"])
        if name == "cli":
            cmd_times = [o["norm_s"] for o in ops if o["norm_s"] is not None]
            stdout_bytes = run.traced_bytes
        traced_pass = _total(ops)[0]
        if untraced is not None:
            overhead = traced_pass - untraced
            covered = sum(pass_trace.get("layer_self", {}).values())
            coverage = 100.0 * covered / traced_pass
        record["phases"][name] = {"setup": setup_trace, "pass": pass_trace,
                                  "setup_steps": steps, "pass_ops": ops,
                                  "untraced_pass_s": untraced}
    total = {}
    for phase in record["phases"].values():
        for part in (phase["setup"], phase["pass"]):
            for store, values in part.items():
                acc = total.setdefault(store, {})
                for key, value in values.items():
                    acc[key] = acc.get(key, 0) + value
    values = tracing.layer_metrics(total)
    ratio = lambda a, b: a / b if b else 0.0
    values.update({
        "order.leq_hit_ratio": ratio(values["order.relations"],
                                     values["order.abs_leq_calls"]),
        "order.relations_per_s": ratio(values["order.relations"],
                                       values["order.build_s"]),
        "topology.links_per_s": ratio(values["topology.cm_links"],
                                      values["topology.cm_s"]),
        "labeling.chains_per_s": ratio(values["labeling.chains_checked"],
                                       values["labeling.el_s"]),
        "cli.start_s": statistics.median(starts),
        "cli.cmd_s": statistics.median(cmd_times) if cmd_times else 0.0,
        "cli.stdout_bytes": stdout_bytes,
        "trace.coverage_pct": coverage,
        "trace.overhead_s": overhead,
    })
    return values, record


def _kernel_stats(samples: list) -> dict:
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return {"calib.ref_s": q2, "calib.iqr_pct": 100.0 * (q3 - q1) / q2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[n for n, _ in metrics.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = Run(args.seed, _load_references())
    began = time.perf_counter()
    try:
        if args.trace:
            values, record = traced_run(run, args.workload)
            values.update(_kernel_stats(run.clock.samples))
            names = [n for n, *_ in metrics.PER_LAYER]
        else:
            values, record = untraced_run(run, args.workload, args.seconds)
            names = [n for n, *_ in metrics.END_TO_END]
    finally:
        run.close()
    record.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "elapsed_s": time.perf_counter() - began,
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "r0_s": calib.R0, "kernel_samples": run.clock.samples,
        "failures": run.failures, "metrics": values,
    })
    os.makedirs(RUNS_DIR, exist_ok=True)
    path = os.path.join(
        RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": metrics.unit_of(n)}
                    for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
