"""The benchmark's contract with the package, checked in the test suite.

`perfbench/tracer.py` wraps each `(owner, attribute)` in its TARGETS with
`getattr`, and `perfbench/run.py` checks every op's answers against
`perfbench/references.json`.  A traced function that is deleted or renamed,
or an answer that drifts, would otherwise break only a benchmark run; these
tests make such a change fail here instead.  They read `perfbench/` and
change nothing there.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

import pytest

from absorder import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 3


def _perfbench_module(name):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module(name)


@pytest.fixture(scope="module")
def targets():
    return _perfbench_module("tracer").TARGETS


@pytest.fixture(scope="module")
def workloads():
    return _perfbench_module("workloads")


@pytest.fixture(scope="module")
def references():
    return json.loads((PERFBENCH / "references.json").read_text())


def test_every_traced_target_exists(targets):
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _layer, _timed in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def _cli_op(workloads, name, argv):
    """The cli workload's answers for one command, run through `cli.main`
    in this process."""
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return workloads.cli_answers(name, code, out.getvalue())
    return run


def _ops(workloads, workload):
    inputs = workloads.Inputs(SEED)
    if workload == "construct":
        return workloads.construct_ops(inputs)
    if workload == "cli":
        return [(name, _cli_op(workloads, name, argv))
                for name, argv in workloads.cli_commands(inputs, SEED)]
    posets = {name: build()
              for name, build in workloads.analyze_setup_steps(inputs)}
    return workloads.analyze_ops(posets)


@pytest.mark.parametrize("workload", ["construct", "analyze", "cli"])
def test_benchmark_answers_match_references(workloads, references, workload):
    want = {name: value for name, value in references[workload].items()
            if not name.startswith("setup:")}
    got = {name: json.loads(json.dumps(fn()))
           for name, fn in _ops(workloads, workload)}
    assert sorted(got) == sorted(want)
    wrong = sorted(name for name in got if got[name] != want[name])
    assert {name: got[name] for name in wrong} == {name: want[name] for name in wrong}
