"""Command line interface: exit codes and output formats."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from absorder import topology
from absorder.cli import build_parser, main


def test_poset_table(capsys):
    assert main(["poset", "--group", "B", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "[1,2]" in out


def test_poset_json_parses(capsys):
    assert main(["poset", "--group", "S", "--n", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "S"
    assert len(data["elements"]) == 6


def test_poset_dot(capsys):
    assert main(["poset", "--group", "B", "--n", "2", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "->" in out


def test_interval_and_bad_endpoints(capsys):
    assert main(["interval", "--group", "B", "--n", "2",
                 "--top", "[1,2]"]) == 0
    capsys.readouterr()
    assert main(["interval", "--group", "B", "--n", "2",
                 "--bottom", "[1]", "--top", "[2]"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_cycle_notation_is_a_usage_error(capsys):
    # CycleNotationError is a ValueError, which `main` turns into exit 2
    assert main(["interval", "--group", "B", "--n", "2",
                 "--top", "((1,9))"]) == 2
    assert capsys.readouterr().err == (
        "error: entry 9 exceeds n=2 (at position 4)\n")


def test_ideal_generators_and_coxeter(capsys):
    assert main(["ideal", "--group", "B", "--n", "2", "--coxeter"]) == 0
    capsys.readouterr()
    assert main(["ideal", "--group", "B", "--n", "2",
                 "--gen", "[1]", "--gen", "((1,2))"]) == 0


def test_check_el_letter_labeling(capsys):
    assert main(["check-el", "--group", "B", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "EL" in out


def test_check_el_join_position_outside_domain(capsys):
    # LabelingError is a ValueError, which `main` turns into exit 2
    code = main(["check-el", "--group", "B", "--n", "2",
                 "--labeling", "join-position"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: no reflection joins ((1,-2)) up to [1,-2]; labeler only "
        "covers intervals of the involution sublattice\n")


def test_check_el_collapsed_on_flip_interval(capsys):
    assert main(["check-el", "--group", "B", "--n", "2", "--top", "[1][2]",
                 "--labeling", "collapsed"]) == 0
    capsys.readouterr()
    assert main(["check-el", "--group", "B", "--n", "2", "--top", "[1,2]",
                 "--labeling", "collapsed"]) == 1


def test_lattice_scan_and_guard(capsys):
    assert main(["lattice-scan", "--group", "B", "--n", "3"]) == 0
    capsys.readouterr()
    assert main(["lattice-scan", "--group", "B", "--n", "8"]) == 3
    assert "resource guard" in capsys.readouterr().err
    assert main(["lattice-scan", "--group", "S", "--n", "3"]) == 2
    assert "no lattice prediction" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["lattice-scan", "--group", "B", "--n", "3", "--guard", "2"],
    ["check-el", "--group", "B", "--n", "2", "--chain-guard", "-5"],
])
def test_guard_flags_are_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_invariants_family_agreement(capsys):
    assert main(["invariants", "--group", "B", "--n", "3",
                 "--family", "coxeter"]) == 0
    out = capsys.readouterr().out
    assert "agree: True" in out


def test_invariants_cycle_flip_small_values(capsys):
    # the corrected closed forms agree even at the (1,1) seed
    assert main(["invariants", "--group", "B", "--n", "3", "--family",
                 "cycle-flip", "--k", "2", "--r", "1"]) == 0
    capsys.readouterr()
    assert main(["invariants", "--group", "B", "--n", "2", "--family",
                 "cycle-flip", "--k", "1", "--r", "1"]) == 0


def test_invariants_census_only(capsys):
    assert main(["invariants", "--group", "D", "--n", "3",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cardinality"] == 24


def test_topology_plain_poset(capsys):
    assert main(["topology", "--group", "S", "--n", "3", "--cm"]) == 0
    data = capsys.readouterr().out
    assert "homology" in data


def test_topology_disconnected_interval_fails(capsys):
    code = main(["topology", "--group", "D", "--n", "4",
                 "--top", "[1][2][3][4]", "--cm"])
    assert code == 1


def test_topology_failing_cm_json_is_pinned(capsys):
    # the failure walk reads faces in poset-index order, whatever order
    # the elimination labels them in
    assert main(["topology", "--group", "D", "--n", "4", "--cm",
                 "--format", "json"]) == 1
    assert capsys.readouterr().out == _D4_CM_JSON


_D4_CM_JSON = """\
{
  "complex": {
    "label": "chains of full (strip=endpoints)",
    "dim": 3,
    "f_vector": [
      191,
      3270,
      9972,
      7560
    ]
  },
  "homology": {
    "reduced_betti": [
      0,
      2,
      0,
      666
    ],
    "euler": -668
  },
  "chi_by_counting": -668,
  "cm": {
    "ok": false,
    "mode": "all",
    "faces_checked": 1,
    "failing_face": [],
    "failing_betti": [
      0,
      2,
      0,
      666
    ]
  }
}
"""


def test_topology_with_torsion(capsys):
    assert main(["topology", "--group", "B", "--n", "2", "--ideal", "coxeter",
                 "--torsion", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["torsion"] == {"1": []}


def test_topology_torsion_guard_exits_before_eliminating(capsys, monkeypatch):
    # stripped S5 defers no column, so it answers at a guard of 0; the
    # stripped D4 Coxeter ideal defers three at dimension 3, and its first
    # pivot other than +-1 leaves a residual of 98x3 entries, which a
    # guard of 293 refuses
    monkeypatch.setattr(topology, "TORSION_GUARD", 0)
    assert main(["topology", "--group", "S", "--n", "5", "--torsion",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["torsion"] == {"1": [], "2": [], "3": []}

    monkeypatch.setattr(topology, "TORSION_GUARD", 293)
    assert main(["topology", "--group", "D", "--n", "4", "--ideal", "coxeter",
                 "--torsion"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource guard: torsion guard exceeded at dimension 3: a residual "
        "of 98x3 entries for the Smith form, more than the guard "
        "293\n")


def test_d4_coxeter_ideal_torsion_answers_from_the_residual(capsys):
    # the stripped D4 Coxeter ideal meets pivots other than +-1; its three
    # deferred columns leave a residual whose Smith form gives (Z/2)^2
    assert main(["topology", "--group", "D", "--n", "4", "--ideal", "coxeter",
                 "--torsion"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "homology: {'reduced_betti': [0, 0, 1, 340], 'euler': -339}",
        "chi_by_counting: -339",
        "torsion: {'1': [], '2': [], '3': [2, 2]}",
    ]


@pytest.mark.parametrize("cm", [[], ["--cm"]])
def test_topology_torsion_eliminates_the_complex_once(capsys, monkeypatch, cm):
    # the link criterion eliminates its gaps too, all smaller than the
    # stripped S4, whose f-vector is (23, 102, 96)
    eliminated = []
    eliminate = topology._homology_from_faces

    def counting(levels, counts):
        eliminated.append(tuple(counts))
        return eliminate(levels, counts)

    monkeypatch.setattr(topology, "_homology_from_faces", counting)
    assert main(["topology", "--group", "S", "--n", "4", "--torsion",
                 "--format", "json", *cm]) == 0
    assert json.loads(capsys.readouterr().out)["torsion"] == {"1": [], "2": []}
    assert eliminated.count((23, 102, 96)) == 1
    if cm:
        assert len(eliminated) > 1
    else:
        assert eliminated == [(23, 102, 96)]


def test_gf_values_and_guard(capsys):
    assert main(["gf", "--family", "sym", "--upto", "6"]) == 0
    capsys.readouterr()
    assert main(["gf", "--family", "hyper", "--upto", "25"]) == 3


def test_gf_crosscheck(capsys):
    assert main(["gf", "--family", "sym", "--upto", "5", "--crosscheck"]) == 0
    out = capsys.readouterr().out
    assert "-192" in out


def test_verify_quick_profile(capsys):
    assert main(["verify", "--profile", "quick"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_every_readme_command_exits_as_documented(capsys):
    # the D4 interval [e, [1][2][3][4]] fails its link check by design
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"\n## Command line\n.*?```\n(.*?)```", readme, re.S)
    lines = block.group(1).splitlines()
    assert lines and all(line.startswith("absorder ") for line in lines)
    codes = {}
    for line in lines:
        try:
            codes[line] = main(shlex.split(line)[1:])
        except SystemExit as exc:  # argparse's usage errors
            codes[line] = exc.code
    capsys.readouterr()
    failing = 'absorder topology --group D --n 4 --top "[1][2][3][4]" --cm'
    assert codes == {line: int(line == failing) for line in lines}


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("value", ["-1", "two", "١"])
def test_negative_or_bad_rank_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["poset", "--group", "B", "--n", value])
    assert exc.value.code == 2
    assert "rank must be a nonnegative integer" in capsys.readouterr().err


def test_overlong_rank_is_a_usage_error(capsys):
    # more digits than int() reads: refused by the rank reader, not argparse
    with pytest.raises(SystemExit) as exc:
        main(["poset", "--n", "1" * 5000])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --n: the rank has 5000 digits" in err
    assert "_rank" not in err
    assert main(["poset", "--group", "S", "--n", "0" * 5000 + "2"]) == 0
    assert "2 elements" in capsys.readouterr().out


@pytest.mark.parametrize("option", ["--k", "--r"])
def test_cycle_flip_sizes_are_read_like_ranks(capsys, option):
    argv = ["invariants", "--group", "B", "--n", "3", "--family",
            "cycle-flip", "--k", "1", "--r", "2"]
    argv[argv.index(option) + 1] = "١"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert (f"argument {option}: the rank must be a nonnegative integer"
            in capsys.readouterr().err)


def test_negative_gf_order_is_a_usage_error_naming_the_option(capsys):
    # --upto is parsed like --n, so argparse names the option it rejects
    with pytest.raises(SystemExit) as exc:
        main(["gf", "--family", "sym", "--upto", "-1"])
    assert exc.value.code == 2
    assert ("argument --upto: the rank must be a nonnegative integer"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["poset", "--n", "2"],
    ["interval", "--n", "2", "--top", "[1,2]"],
    ["ideal", "--n", "2", "--coxeter"],
    ["check-el", "--n", "2"],
    ["lattice-scan", "--n", "2"],
    ["invariants", "--n", "2"],
    ["gf", "--family", "sym", "--upto", "4"],
    ["topology", "--n", "2"],
])
def test_seed_only_where_it_is_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_seed_accepted_by_verify(capsys):
    assert main(["verify", "--profile", "quick", "--seed", "3"]) == 0


def test_cm_mode_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["topology", "--group", "S", "--n", "3", "--cm",
              "--cm-mode", "all"])
    assert exc.value.code == 2
    assert "--cm-mode" in capsys.readouterr().err


@pytest.mark.parametrize("argv,option", [
    (["interval", "--group", "B", "--n", "2"], "--top"),
    (["check-el", "--n", "2", "--bottom", "[1]"], "--bottom"),
    (["invariants", "--n", "2", "--bottom", "[1]"], "--bottom"),
    (["topology", "--n", "2", "--bottom", "[1]"], "--bottom"),
    (["topology", "--group", "B", "--n", "2", "--ideal", "coxeter",
      "--top", "[1]"], "--top"),
    (["invariants", "--n", "2", "--k", "2", "--r", "9"], "--k and --r"),
    (["invariants", "--n", "2", "--family", "coxeter", "--top", "[1]"],
     "--top"),
    (["invariants", "--group", "D", "--n", "3", "--family", "coxeter"],
     "--group"),
    (["invariants", "--n", "9", "--family", "cycle-flip", "--k", "1",
      "--r", "1"], "--n"),
    (["invariants", "--n", "2", "--family", "cycle-flip", "--k", "1"],
     "--r"),
])
def test_unread_options_are_usage_errors(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("group", ["S", "B", "D"])
def test_rank_zero_coxeter_ideal_is_the_identity(capsys, group):
    assert main(["ideal", "--group", group, "--n", "0", "--coxeter"]) == 0
    assert "1 elements" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["check-el", "--n", "2"],
    ["lattice-scan", "--n", "2"],
    ["invariants", "--n", "2"],
    ["topology", "--n", "2"],
    ["gf", "--family", "sym", "--upto", "4"],
    ["verify"],
])
def test_dot_only_where_dot_is_printed(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "dot"])
    assert exc.value.code == 2
    assert "invalid choice: 'dot'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["interval", "--n", "2", "--top", "[1,2]"],
    ["ideal", "--n", "2", "--coxeter"],
])
def test_dot_rendering_of_intervals_and_ideals(capsys, argv):
    assert main(argv + ["--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_interval_renders_like_poset(capsys):
    parser = build_parser()
    poset = parser.parse_args(["poset", "--n", "2"])
    interval = parser.parse_args(["interval", "--n", "2", "--top", "[1,2]"])
    assert poset.handler is interval.handler
    assert main(["interval", "--group", "S", "--n", "3",
                 "--top", "((1,2,3))", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == [0, 1, 1, 1, 2]


def test_full_poset_guard_trips_at_once(capsys):
    start = time.perf_counter()
    assert main(["poset", "--group", "B", "--n", "6"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "resource guard" in err and "46080" in err


@pytest.mark.parametrize("argv,size", [
    (["ideal", "--group", "B", "--n", "9", "--coxeter"], "10321920"),
    (["topology", "--group", "S", "--n", "12", "--ideal", "coxeter"],
     "39916800"),
    (["ideal", "--group", "D", "--n", "10", "--coxeter"], "103219200"),
])
def test_coxeter_class_guard_trips_at_once(capsys, argv, size):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "resource guard" in err and "Coxeter class" in err and size in err


def test_largest_signed_group_in_reach(capsys):
    assert main(["poset", "--group", "B", "--n", "5"]) == 0
    assert "3840 elements" in capsys.readouterr().out


def test_coxeter_ideal_guard_trips(capsys):
    assert main(["ideal", "--group", "B", "--n", "6", "--coxeter"]) == 3
    err = capsys.readouterr().err
    assert "resource guard" in err and "downward search" in err


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _absorder_process(*argv):
    """`python -m absorder ARGV...` in a child process, stdout and stderr
    piped; leaving its `with` block closes both and waits for it."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.Popen([sys.executable, "-m", "absorder", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("profile", ["quick", "full"])
def test_verify_json_matches_the_golden_file_byte_for_byte(profile):
    # an intended change of verify's output rewrites tests/golden/ and says so
    proc = _absorder_process("verify", "--profile", profile, "--format", "json")
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert out == (GOLDEN / f"verify_{profile}.json").read_bytes()


def test_python_dash_m_runs_the_cli():
    proc = _absorder_process("poset", "--group", "S", "--n", "3",
                             "--format", "json")
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert len(json.loads(out)["elements"]) == 6


def test_reader_closing_after_the_first_line_is_not_an_error():
    # The JSON (about 110 kB) outgrows the pipe buffer, so the command is
    # still writing when the reader goes.
    with _absorder_process("poset", "--group", "B", "--n", "4",
                           "--format", "json") as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert first == b"{\n"
    assert err == b""


def test_closed_pipe_keeps_the_handler_exit_code():
    # the D4 interval [e, [1][2][3][4]] fails its link check: exit 1
    with _absorder_process("topology", "--group", "D", "--n", "4", "--top",
                           "[1][2][3][4]", "--cm") as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_reader_closing_after_the_table_header_is_not_an_error():
    # The B5 table (about 94 kB) outgrows the pipe buffer as well.
    with _absorder_process("poset", "--group", "B", "--n", "5") as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert first.startswith(b"full: kind B, 3840 elements, ")
    assert err == b""
