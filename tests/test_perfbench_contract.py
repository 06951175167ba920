"""The benchmark's contract with the package, checked in the test suite.

`perfbench/tracer.py` wraps each `(owner, attribute)` in its TARGETS with
`getattr`, `perfbench/run.py` checks every op's answers against
`perfbench/references.json`, and `perfbench/selftest.py` trips a face
guard and wraps `Poset.__init__`.  A traced function that is deleted or
renamed, an answer that drifts or a self-test call that stops working
would otherwise break only a benchmark run; these tests make such a
change fail here instead.  They read `perfbench/` and change nothing there.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

import pytest

from absorder import ResourceGuardError, cli, order, topology

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


def test_the_self_test_calls_into_the_package_still_work():
    # the self-test counts a guard trip as a failed op, and builds every
    # poset twice by wrapping the class's own __init__
    with pytest.raises(ResourceGuardError):
        topology.order_complex(order.full_poset("B", 3), face_guard=10)
    assert callable(vars(order.Poset).get("__init__"))


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
