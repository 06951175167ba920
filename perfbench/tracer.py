"""Spans and counters around the public functions of each layer.

A traced function is wrapped wherever it is looked up: in its own module
and in every `absorder` module that imported it by name (for example
`order` imports `absolute_length`, so `order.absolute_length` is patched
too).  Methods are patched on their class.  Everything is restored when the
tracer closes.

A `*_s` metric is the inclusive time of the outermost calls into the named
functions, except the `*.self_s` ones: a span's self time (its time minus
the spans it called) is added to its layer, and self times partition the
traced time, so their sum is the time covered by any span.  The hottest
calls below a span get a call counter only, where a span would cost more
than the call.
"""

import sys
from collections import defaultdict

from absorder import (cli, invariants, labeling, lattice, order, series,
                      signed, topology, verify)
from workloads import poset_answers

# (owner, attribute, layer, timed): timed functions get a span, the others
# only a call counter.
TARGETS = [
    (signed, "absolute_length", "signed", True),
    (signed, "cycle_decomposition", "signed", False),
    (signed, "from_cycles", "signed", True),
    (signed, "format_cycles", "signed", True),
    (signed, "parse_cycles", "signed", True),
    (order, "abs_leq", "order", False),
    (order.Poset, "__init__", "order", True),
    (order, "elements_below", "order", True),
    (order, "build_interval", "order", True),
    (order, "build_ideal", "order", True),
    (order, "full_poset", "order", True),
    (order, "project_pi", "order", True),
    (order.Poset, "chain_counts", "order", True),
    (order.Poset, "maximal_chain_count", "order", True),
    (order, "cover_lifting_ok", "order", True),
    (order, "fiber_ideal_identity_ok", "order", True),
    (topology, "order_complex", "topology", True),
    (topology, "homology", "topology", True),
    (topology, "cm_check", "topology", True),
    (topology, "torsion_profile", "topology", True),
    (topology, "chain_euler_characteristic", "topology", True),
    (invariants, "census", "invariants", True),
    (invariants, "multichain_count", "invariants", False),
    (invariants, "mobius", "invariants", True),
    (invariants, "zeta_polynomial", "invariants", True),
    (labeling, "verify_el", "labeling", True),
    (lattice, "is_lattice", "lattice", True),
    (lattice, "prediction_scan", "lattice", True),
    (series.FormalPowerSeries, "exp", "series", True),
    (series.FormalPowerSeries, "sqrt", "series", True),
    (series, "predicted_chi_hyper", "series", True),
    (series, "predicted_chi_sym", "series", True),
    (series, "flip_exponential_identity_ok", "series", True),
    (verify, "run_verify_suite", "verify", True),
    (cli, "_emit_poset", "cli", True),
]

READ_FUNCTIONS = ("chain_counts", "maximal_chain_count", "cover_lifting_ok",
                  "fiber_ideal_identity_ok")


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "absorder"
                                  or name.startswith("absorder."))]


class Tracer:
    """Patch the targets on enter, restore them on exit.

    `clock` gives program time; the benchmark passes `Clock.now`, which
    leaves out the kernel samples taken inside spans.  Work is also counted
    from return values (relations, faces, links, chains, claims).
    """

    def __init__(self, clock):
        self.clock = clock
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.layer_inclusive = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._depth = defaultdict(int)
        self._layer_depth = defaultdict(int)
        self._patches = []

    # -- bookkeeping -------------------------------------------------------

    def take(self) -> dict:
        """Return and clear everything recorded since the last take."""
        data = {"calls": dict(self.calls), "inclusive": dict(self.inclusive),
                "layer_self": dict(self.layer_self),
                "layer_inclusive": dict(self.layer_inclusive),
                "counts": dict(self.counts)}
        for store in (self.calls, self.inclusive, self.layer_self,
                      self.layer_inclusive, self.counts):
            store.clear()
        return data

    def _count_result(self, name, args, result):
        if name == "__init__":
            facts = poset_answers(args[0])
            self.counts["relations"] += facts["relations"]
            self.counts["hasse_edges"] += facts["hasse_edges"]
        elif name == "order_complex":
            self.counts["faces"] += result.face_count()
        elif name == "homology":
            self.counts["boundary_nonzeros"] += sum(
                (d + 1) * f for d, f in enumerate(args[0].f_vector()) if d)
        elif name == "cm_check":
            self.counts["cm_links"] += result.faces_checked
        elif name == "verify_el":
            self.counts["el_intervals"] += result.intervals_checked
            self.counts["el_chains"] += result.chains_checked
        elif name == "run_verify_suite":
            self.counts["claims"] += len(result.results)
            self.counts["claims_passed"] += sum(r.verdict for r in result.results)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, layer, timed):
        tracer = self
        clock = self.clock

        if not timed:
            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            tracer.calls[name] += 1
            frame = [0.0]
            tracer._stack.append(frame)
            tracer._depth[name] += 1
            tracer._layer_depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._stack.pop()
                tracer._depth[name] -= 1
                tracer._layer_depth[layer] -= 1
                own = elapsed - frame[0]
                tracer.layer_self[layer] += own
                if tracer._depth[name] == 0:
                    tracer.inclusive[name] += elapsed
                if tracer._layer_depth[layer] == 0:
                    tracer.layer_inclusive[layer] += elapsed
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            tracer._count_result(name, args, result)
            return result
        return spanned

    def __enter__(self):
        for owner, attr, layer, timed in TARGETS:
            original = getattr(owner, attr)
            wrapped = self._wrap(original, attr, layer, timed)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in _modules():
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False


def layer_metrics(data: dict) -> dict:
    """Per-layer values from one `take()`, in the tracer's raw units."""
    calls, inc = data.get("calls", {}), data.get("inclusive", {})
    counts, lay = data.get("counts", {}), data.get("layer_self", {})
    get = lambda store, key: store.get(key, 0)
    return {
        "signed.length_calls": get(calls, "absolute_length"),
        "signed.length_s": get(inc, "absolute_length"),
        "signed.decompose_calls": get(calls, "cycle_decomposition"),
        "signed.self_s": get(lay, "signed"),
        "order.build_s": get(inc, "__init__"),
        "order.abs_leq_calls": get(calls, "abs_leq"),
        "order.relations": get(counts, "relations"),
        "order.hasse_edges": get(counts, "hasse_edges"),
        "order.cover_search_s": get(inc, "elements_below"),
        "order.read_s": sum(get(inc, f) for f in READ_FUNCTIONS),
        "topology.complex_s": get(inc, "order_complex"),
        "topology.faces": get(counts, "faces"),
        "topology.homology_s": get(inc, "homology"),
        "topology.boundary_nonzeros": get(counts, "boundary_nonzeros"),
        "topology.cm_s": get(inc, "cm_check"),
        "topology.cm_links": get(counts, "cm_links"),
        "topology.torsion_s": get(inc, "torsion_profile"),
        "topology.euler_count_s": get(inc, "chain_euler_characteristic"),
        "invariants.census_s": get(inc, "census"),
        "invariants.multichain_calls": get(calls, "multichain_count"),
        "invariants.mobius_s": get(inc, "mobius"),
        "invariants.zeta_s": get(inc, "zeta_polynomial"),
        "labeling.el_s": get(inc, "verify_el"),
        "labeling.intervals_checked": get(counts, "el_intervals"),
        "labeling.chains_checked": get(counts, "el_chains"),
        "lattice.is_lattice_s": get(inc, "is_lattice"),
        "lattice.scan_s": get(inc, "prediction_scan"),
        "series.s": get(data.get("layer_inclusive", {}), "series"),
        "verify.claims": get(counts, "claims"),
        "verify.claims_passed": get(counts, "claims_passed"),
        "verify.self_s": get(lay, "verify"),
        "cli.emit_s": get(inc, "_emit_poset"),
    }

