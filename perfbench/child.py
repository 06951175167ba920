"""Run one absorder CLI command with the reference kernel interleaved.

    python3 perfbench/child.py SAMPLES_FILE CLI_ARGS...

The benchmark starts each CLI command through this wrapper.  The parent may
not run the kernel while a child is alive, so the child samples the kernel
itself, inside its own single-threaded process, and writes the samples and
the time they took to SAMPLES_FILE for the parent to fold into the
command's span.  The command runs as `python -m absorder.cli` would.
"""

import json
import os
import runpy
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calib  # noqa: E402


def main() -> None:
    samples_file = sys.argv[1]
    sys.argv = ["absorder"] + sys.argv[2:]
    clock = calib.Clock()
    try:
        with clock.interleaved():
            runpy.run_module("absorder.cli", run_name="__main__")
    finally:
        with open(samples_file, "w") as fh:
            json.dump({"samples": clock.inside, "paused": clock.paused}, fh)


if __name__ == "__main__":
    main()
