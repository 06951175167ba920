"""Repeat the benchmark over seeds and report its spread.

    python3 perfbench/summary.py --runs 10 --sets 2 [--workload cli ...]

Runs `run.py` once per seed, one process at a time, for each workload and
set (set k uses seeds 1000 k + 1 ... 1000 k + runs).  For every end-to-end
metric it prints each set's median, the quartile spread as a share of the
median, the bound, and the medians of the raw seconds kept in the run
records, so raw and normalised figures sit side by side.  Then, once per
summary and off the gated path, it probes two inputs the CLI does not
guard (see `PROBES`) with a fixed deadline and records the exit code and
the time to answer.  Everything is also written to
`.perfbench_runs/summary.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run as bench  # sets up the import path
import metrics
import workloads

PROBE_DEADLINE_S = 20
PROBES = [
    ("poset_B5_unguarded", ["poset", "--group", "B", "--n", "5"]),
    ("poset_negative_n", ["poset", "--n", "-1"]),
]


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(bench.HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True,
                          cwd=bench.ROOT)
    result = json.loads(done.stdout.splitlines()[-1])
    path = os.path.join(bench.RUNS_DIR, f"{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        raw = json.load(fh)["raw_medians"]
    return {"result": result, "raw": raw}


def spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def probe(args: list) -> dict:
    """Run one CLI command with a deadline; the child is always reaped."""
    env = workloads.child_env(bench.ROOT)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "absorder.cli"] + args,
                            env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    try:
        _, err = proc.communicate(timeout=PROBE_DEADLINE_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        code = None
    lines = err.decode(errors="replace").strip().splitlines()
    return {"exit": code, "seconds": time.perf_counter() - start,
            "timed_out": code is None, "stderr": lines[-1] if lines else ""}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append",
                        choices=[n for n, _ in metrics.WORKLOADS])
    args = parser.parse_args(argv)
    chosen = args.workload or [n for n, _ in metrics.WORKLOADS]
    bounds = {n: b for n, _, _, b in metrics.END_TO_END}
    seconds = metrics.benchmark_json()["run_seconds"]

    report = {"workloads": {}, "probes": {}}
    ok = True
    for workload in chosen:
        sets = []
        for k in range(1, args.sets + 1):
            runs = [one_run(workload, 1000 * k + i, seconds)
                    for i in range(1, args.runs + 1)]
            sets.append(runs)
            failed = sum(r["result"]["failed"] for r in runs)
            attempted = sum(r["result"]["attempted"] for r in runs)
            print(f"{workload} set {k}: {failed} failed of {attempted} ops",
                  flush=True)
            ok = ok and failed == 0
        rows = {}
        for name in bounds:
            row = {"bound": bounds[name], "sets": []}
            for runs in sets:
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                raws = [r["raw"][name] for r in runs if name in r["raw"]]
                row["sets"].append({
                    "median": statistics.median(values),
                    "spread": spread(values) if len(values) > 1 else 0.0,
                    "raw_median": statistics.median(raws) if raws else None,
                    "raw_spread": spread(raws) if len(raws) > 1 else None,
                    "values": values,
                })
            first = row["sets"][0]["median"]
            row["drift"] = [s["median"] / first - 1 for s in row["sets"]]
            rows[name] = row
            cells = "  ".join(
                f"median {s['median']:.4f} spread {100 * s['spread']:.1f}%"
                + (f" raw {s['raw_median']:.4f} raw spread "
                   f"{100 * s['raw_spread']:.1f}%" if s["raw_median"] else "")
                for s in row["sets"])
            print(f"  {name:12s} bound {100 * bounds[name]:.0f}%  {cells}  "
                  f"drift {', '.join(f'{100 * d:+.1f}%' for d in row['drift'])}",
                  flush=True)
        report["workloads"][workload] = rows

    for name, cmd in PROBES:
        report["probes"][name] = found = probe(cmd)
        print(f"probe {name}: exit {found['exit']} after "
              f"{found['seconds']:.2f} s {found['stderr']!r}", flush=True)

    with open(os.path.join(bench.RUNS_DIR, "summary.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
