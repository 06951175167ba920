"""The CLI pinned byte for byte: the exit code, stdout and stderr of each
command in a fixed list, run in-process through `cli.main`.

The list covers every subcommand in each of its formats, a failing check,
guard refusals and usage errors.  An intended change of the output rewrites
tests/golden/cli.json and says so:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from absorder.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

# one command a line; no argument holds a space
COMMANDS = """
poset --group B --n 2
poset --group S --n 3 --format json
poset --group B --n 2 --format dot
poset --group B --n 7
poset --n x
interval --group B --n 3 --top [1,2,3]
interval --group B --n 2 --top [1,2] --format json
interval --group S --n 3 --bottom ((1,2)) --top ((1,2,3)) --format dot
interval --group B --n 2
interval --group B --n 2 --top ((1,9))
ideal --group B --n 2 --coxeter
ideal --group D --n 3 --coxeter --format json
ideal --group B --n 2 --coxeter --format dot
ideal --group B --n 2 --gen [1] --gen ((1,2))
ideal --group B --n 3 --gen ((1,2,3)) --gen [1] --format json
ideal --group S --n 3 --gen ((1,2)) --format dot
check-el --group B --n 3 --top [1,2,3]
check-el --group B --n 3 --top [1,2,3] --format json
check-el --group B --n 3 --top [1,2,3] --labeling collapsed
check-el --group B --n 3 --top [1,2,3] --labeling join-position --format json
lattice-scan --group B --n 3
lattice-scan --group D --n 4 --format json
lattice-scan --group S --n 3
invariants --group B --n 3 --top [1,2,3]
invariants --group S --n 4 --format json
invariants --group B --n 3 --family coxeter
invariants --group B --n 3 --family cycle-flip --k 1 --r 2 --format json
invariants --group B --n 3 --family cycle-flip --k 1 --r 1
topology --group S --n 4
topology --group B --n 3 --ideal coxeter --torsion --cm --format json
topology --group D --n 4 --ideal coxeter --torsion --cm
topology --group B --n 3 --top [1,2,3] --strip none --format json
gf --family sym --upto 6
gf --family hyper --upto 4 --crosscheck --format json
gf --family hyper --upto 25
verify --profile quick
""".strip().splitlines()


def run(command: str) -> dict:
    """Exit code, stdout and stderr of `absorder COMMAND`, in-process."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage lines to the terminal width
    with (mock.patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out),
          redirect_stderr(err)):
        try:
            code = main(command.split())
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_the_golden_file_pins_the_command_list(golden):
    assert list(golden) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_matches_the_golden_file_byte_for_byte(golden, command):
    assert run(command) == golden[command]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: run(c) for c in COMMANDS}, indent=1)
                      + "\n")
