"""The benchmark tracer's targets still exist in the package.

`perfbench/tracer.py` wraps each `(owner, attribute)` in its TARGETS with
`getattr`, so a traced function that is deleted or renamed would break
only a benchmark run.  This test makes such a change fail here instead.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def targets():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("tracer").TARGETS


def test_every_traced_target_exists(targets):
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _layer, _timed in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
