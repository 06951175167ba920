"""The three workloads: what each set-up step and each op computes.

Every op returns a dict of answers whose leaf keys name the kind of answer
(`size`, `rank_sizes`, `relations`, `hasse_edges`, `f_vector`, `betti`,
`euler`, `zeta`, `mobius`, `el`, `lattice`, `claims`, ...).  The answers do
not depend on the seed: the seed only picks the element `g` that conjugates
the inputs, and conjugation is an automorphism of the absolute order, so
sizes, counts and verdicts are the same for every seed.  The work is the
same too, down to the number of calls into each layer.

The library is always reached through module attributes looked up at call
time (`order.full_poset`, never a name bound at import), so the tracer's
patches see every call.
"""

import json
import os
import random
import re
import subprocess

from absorder import (invariants, labeling, lattice, order, series,
                      signed, topology)

WORKLOADS = ("construct", "analyze", "cli")


def poset_answers(p) -> dict:
    return {
        "size": len(p),
        "rank_sizes": list(p.rank_sizes()),
        "relations": sum(bin(mask).count("1") for mask in p.below) - len(p),
        "hasse_edges": sum(len(ups) for ups in p.hasse_up),
    }


def random_element(rng: random.Random, n: int):
    perm = rng.sample(range(1, n + 1), n)
    return signed.SignedPermutation(rng.choice((1, -1)) * a for a in perm)


def conjugate(g, w):
    return g * w * g.inverse()


class Inputs:
    """The seeded elements every workload starts from."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.g3 = random_element(rng, 3)
        self.g4 = random_element(rng, 4)
        self.g5 = random_element(rng, 5)
        coxeter5 = signed.balanced_cycle((1, 2, 3, 4, 5), 5)
        self.coxeter5 = conjugate(self.g5, coxeter5)
        self.flips5 = conjugate(self.g5, invariants.flip_interval_top(5))
        self.flips4 = conjugate(self.g4, invariants.flip_interval_top(4))
        self.ideal_gens = [conjugate(self.g5, w) for w in (
            signed.from_cycles([("paired", (1, 2, 3)), ("balanced", (4, 5))], 5),
            signed.from_cycles([("balanced", (1, 2)), ("balanced", (3, 4))], 5),
            signed.from_cycles([("paired", (1, -4, 2, 5))], 5),
            signed.balanced_cycle((1, 2, 3, 4), 5),
        )]
        self.top3 = signed.format_cycles(
            conjugate(self.g3, signed.balanced_cycle((1, 2, 3), 3)))
        self.top2 = signed.format_cycles(
            conjugate(random_element(rng, 2), invariants.flip_interval_top(2)))
        self.top4 = signed.format_cycles(self.flips4)


# --- construct -------------------------------------------------------------

def construct_ops(inputs: Inputs) -> list:
    e5 = signed.identity(5)
    return [
        ("full_D4", lambda: poset_answers(order.full_poset("D", 4))),
        ("full_B4", lambda: poset_answers(order.full_poset("B", 4))),
        ("coxeter_ideal_B4",
         lambda: poset_answers(order.coxeter_ideal(4, "B"))),
        ("interval_coxeter_B5",
         lambda: poset_answers(order.build_interval(e5, inputs.coxeter5, "B"))),
        ("interval_flips_B5",
         lambda: poset_answers(order.build_interval(e5, inputs.flips5, "B"))),
        ("ideal_B5",
         lambda: poset_answers(order.build_ideal(inputs.ideal_gens, "B"))),
    ]


# --- analyze ---------------------------------------------------------------

def analyze_setup_steps(inputs: Inputs) -> list:
    """(name, build) pairs; each builds one poset the passes read."""
    e4, e5 = signed.identity(4), signed.identity(5)
    return [
        ("coxeter_ideal_B4", lambda: order.coxeter_ideal(4, "B")),
        ("full_S5", lambda: order.full_poset("S", 5)),
        ("interval_coxeter_B5",
         lambda: order.build_interval(e5, inputs.coxeter5, "B")),
        ("interval_flips_B5",
         lambda: order.build_interval(e5, inputs.flips5, "B")),
        ("full_B3", lambda: order.full_poset("B", 3)),
        ("interval_flips_D4",
         lambda: order.build_interval(e4, inputs.flips4, "D")),
    ]


def _complex_answers(c) -> dict:
    profile = topology.homology(c)
    return {"f_vector": list(c.f_vector()),
            "betti": list(profile.reduced_betti), "euler": profile.euler}


def _census_answers(p) -> dict:
    report = invariants.census(p)
    zeta = invariants.zeta_polynomial(p)
    return {
        "size": report.cardinality,
        "rank_sizes": list(report.rank_sizes),
        "max_chains": report.max_chains,
        "mobius": invariants.mobius(p),
        "zeta": [str(zeta(m)) for m in range(-2, 5)],
    }


def _el_answers(p) -> dict:
    report = labeling.verify_el(p)
    return {"el": report.ok, "intervals": report.intervals_checked,
            "chains": report.chains_checked}


def _cm_answers(p) -> dict:
    report = topology.cm_check(topology.order_complex(p, strip="endpoints"))
    return {"cm": report.ok, "links": report.faces_checked}


def _series_answers() -> dict:
    return {
        "identity": series.flip_exponential_identity_ok(30),
        "chi_hyper": {str(n): v for n, v in series.predicted_chi_hyper(20).items()},
        "chi_sym": {str(n): v for n, v in series.predicted_chi_sym(20).items()},
    }


def analyze_ops(posets: dict) -> list:
    ci, s5 = posets["coxeter_ideal_B4"], posets["full_S5"]
    ic, iflip = posets["interval_coxeter_B5"], posets["interval_flips_B5"]
    b3, d4 = posets["full_B3"], posets["interval_flips_D4"]
    return [
        ("homology_coxeter_ideal_B4", lambda: _complex_answers(
            topology.order_complex(ci, strip="endpoints"))),
        ("cm_S5", lambda: _cm_answers(s5)),
        ("cm_coxeter_ideal_B4", lambda: _cm_answers(ci)),
        ("torsion", lambda: {
            name: {str(d): f for d, f in topology.torsion_profile(
                topology.order_complex(p, strip="endpoints")).items()}
            for name, p in (("full_B3", b3), ("interval_flips_D4", d4))}),
        ("euler_count", lambda: {
            name: {"euler": topology.chain_euler_characteristic(
                p, strip="endpoints")}
            for name, p in (("coxeter_ideal_B4", ci), ("full_S5", s5),
                            ("interval_coxeter_B5", ic))}),
        ("census", lambda: {
            name: _census_answers(p)
            for name, p in (("interval_coxeter_B5", ic),
                            ("interval_flips_B5", iflip),
                            ("interval_flips_D4", d4))}),
        ("el", lambda: {
            name: _el_answers(p)
            for name, p in (("full_B3", b3), ("interval_coxeter_B5", ic),
                            ("interval_flips_B5", iflip))}),
        ("lattice", lambda: {
            name: {"lattice": lattice.is_lattice(p).is_lattice}
            for name, p in (("interval_coxeter_B5", ic),
                            ("interval_flips_B5", iflip),
                            ("interval_flips_D4", d4))}),
        ("fiber_laws", lambda: {
            name: {"cover_lifting": order.cover_lifting_ok(p),
                   "fiber_identity": order.fiber_ideal_identity_ok(p),
                   "max_chains": p.chain_counts()[-1]}
            for name, p in (("coxeter_ideal_B4", ci), ("full_S5", s5))}),
        ("series", _series_answers),
    ]


# --- cli -------------------------------------------------------------------

def cli_commands(inputs: Inputs, seed: int) -> list:
    """The README command list; `--top` values are seeded conjugates."""
    return [
        ("poset_dot", ["poset", "--group", "B", "--n", "2", "--format", "dot"]),
        ("interval_json", ["interval", "--group", "B", "--n", "3",
                           "--top", inputs.top3, "--format", "json"]),
        ("ideal_coxeter", ["ideal", "--group", "B", "--n", "3", "--coxeter"]),
        ("check_el", ["check-el", "--group", "B", "--n", "3"]),
        ("check_el_join", ["check-el", "--group", "B", "--n", "2",
                           "--top", inputs.top2,
                           "--labeling", "join-position"]),
        ("lattice_scan", ["lattice-scan", "--group", "D", "--n", "4"]),
        ("invariants_coxeter", ["invariants", "--group", "B", "--n", "4",
                                "--family", "coxeter"]),
        ("topology_cm", ["topology", "--group", "D", "--n", "4",
                         "--top", inputs.top4, "--cm"]),
        ("gf_crosscheck", ["gf", "--family", "hyper", "--upto", "8",
                           "--crosscheck"]),
        ("verify_quick", ["verify", "--profile", "quick", "--seed", str(seed)]),
    ]


_CLAIM = re.compile(r"^\[(PASS|FAIL)\] ([^:]+):")


def cli_answers(name: str, exit_code: int, stdout: str) -> dict:
    """Seed-free facts from one command's output."""
    answers = {"exit": exit_code}
    if name == "interval_json":
        data = json.loads(stdout)
        sizes = [0] * (max(data["rank"]) + 1)
        for r in data["rank"]:
            sizes[r] += 1
        answers.update(size=len(data["elements"]), rank_sizes=sizes,
                       hasse_edges=len(data["hasse"]))
    elif name == "poset_dot":
        answers.update(size=stdout.count("[label="),
                       hasse_edges=stdout.count(" -> "))
    elif name == "verify_quick":
        answers["claims"] = [[m.group(2), m.group(1) == "PASS"]
                             for m in map(_CLAIM.match, stdout.splitlines())
                             if m]
    else:
        answers["stdout"] = stdout.splitlines()
    return answers


def child_env(root: str) -> dict:
    """Environment of every child: the checkout's `src` on the path, and
    bytecode cached inside the checkout, as for an installed package, so
    start-up time does not depend on the caller's caching settings."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, env: dict, out_path: str, err_path: str):
    """Start one child, wait for it, and return (exit, maxrss_kb)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss

