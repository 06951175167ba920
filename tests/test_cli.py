"""Command line interface: exit codes and output formats."""

import json
import time

import pytest

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
    assert main(["interval", "--group", "B", "--n", "2",
                 "--top", "((1,9))"]) == 2
    assert "error:" in capsys.readouterr().err


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
    code = main(["check-el", "--group", "B", "--n", "2",
                 "--labeling", "join-position"])
    assert code == 2
    assert "involution" in capsys.readouterr().err


def test_check_el_collapsed_on_flip_interval(capsys):
    assert main(["check-el", "--group", "B", "--n", "2", "--top", "[1][2]",
                 "--labeling", "collapsed"]) == 0
    capsys.readouterr()
    assert main(["check-el", "--group", "B", "--n", "2", "--top", "[1,2]",
                 "--labeling", "collapsed"]) == 1


def test_lattice_scan_and_guard(capsys):
    assert main(["lattice-scan", "--group", "B", "--n", "3"]) == 0
    capsys.readouterr()
    assert main(["lattice-scan", "--group", "B", "--n", "5"]) == 3
    assert "resource guard" in capsys.readouterr().err
    assert main(["lattice-scan", "--group", "B", "--n", "3",
                 "--guard", "2"]) == 3


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


def test_topology_with_torsion(capsys):
    assert main(["topology", "--group", "B", "--n", "2", "--ideal", "coxeter",
                 "--torsion", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["torsion"] == {"1": []}


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


def test_verify_fault_injection(capsys):
    code = main(["verify", "--profile", "quick",
                 "--inject-fault", "zeta-consistency"])
    assert code == 1
    assert "injected fault" in capsys.readouterr().out


def test_verify_unknown_fault(capsys):
    assert main(["verify", "--profile", "quick",
                 "--inject-fault", "no-such-claim"]) == 2


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("value", ["-1", "two"])
def test_negative_or_bad_rank_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["poset", "--group", "B", "--n", value])
    assert exc.value.code == 2
    assert "rank must be a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["poset", "--n", "2"],
    ["interval", "--n", "2", "--top", "[1,2]"],
    ["ideal", "--n", "2", "--coxeter"],
    ["check-el", "--n", "2"],
    ["lattice-scan", "--n", "2"],
    ["invariants", "--n", "2"],
    ["gf", "--family", "sym", "--upto", "4"],
])
def test_seed_only_where_it_is_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_seed_accepted_by_topology_and_verify(capsys):
    assert main(["topology", "--group", "S", "--n", "3", "--cm",
                 "--cm-mode", "sampled", "--seed", "3"]) == 0
    assert main(["verify", "--profile", "quick", "--seed", "3"]) == 0


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


def test_largest_signed_group_in_reach(capsys):
    assert main(["poset", "--group", "B", "--n", "5"]) == 0
    assert "3840 elements" in capsys.readouterr().out
