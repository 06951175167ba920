"""The recorded benchmark pairs: every `BENCH_*.json` at the root of the
checkout parses, and each summary figure in it follows from its raw runs.

A record holds, per workload, every run of `perfbench/run.py` on the parent
and on the change, alternating which side runs first.  Its summary gives,
per metric, each side's median and quartiles (`statistics.quantiles` with
n = 4), the parent's interquartile range and the pairs the change won
(lower is better for every end-to-end metric); its `op_median_s` gives, per
side and op, the median over runs of each run's median op time.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_summaries_follow_from_its_runs(path):
    record = json.loads(path.read_text())
    assert record["workloads"], path.name
    for name, workload in record["workloads"].items():
        runs = workload["runs"]
        seeds = sorted({run["seed"] for run in runs})
        by_side = {side: {run["seed"]: run for run in runs if run["side"] == side}
                   for side in SIDES}
        # every seed was run once on each side
        assert all(sorted(by_side[side]) == seeds for side in SIDES), name
        assert len(runs) == 2 * len(seeds), name
        for metric, summary in workload["summary"].items():
            values = {side: [by_side[side][s]["metrics"][metric] for s in seeds]
                      for side in SIDES}
            for side in SIDES:
                assert _close(summary[side]["median"],
                              statistics.median(values[side])), (name, metric)
                if len(seeds) > 1:
                    q1, _, q3 = statistics.quantiles(values[side], n=4)
                    assert _close(summary[side]["q1"], q1), (name, metric)
                    assert _close(summary[side]["q3"], q3), (name, metric)
            parent = summary["parent"]
            if len(seeds) > 1:
                assert _close(summary["parent_iqr"], parent["q3"] - parent["q1"])
            won = sum(c < p for p, c in zip(values["parent"], values["change"]))
            assert summary["pairs_won"] == won, (name, metric)
            assert summary["pairs"] == len(seeds), (name, metric)
        for side in SIDES:
            for op, median in workload.get("op_median_s", {}).get(side, {}).items():
                assert _close(median, statistics.median(
                    by_side[side][s]["op_median_s"][op] for s in seeds)), (name, op)
