"""Per-layer spans and counts, recorded from outside the program.

``installed(trace)`` swaps wrappers in for the public functions at the names
``nbcolor.solver`` imported them under, plus ``FlowNetwork.max_flow``,
``forbidden.find_embedding`` and the ``Graph`` copy methods, and puts every
original back when the block ends.  The recursive workers are not wrapped,
so the solver's own call depth is unchanged.

Each wrapped call is a span.  Its self time is its duration minus the part
covered by wrapped calls inside it, so the self times of all layers plus the
solver's own add up to the traced solve time.  The three ``min_potential``
kinds are the exception: their time includes the flows they run, which are
also reported on their own as ``flow_s``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from nbcolor import forbidden, graph_core, min_potential, solver

MP_KINDS = ("screen", "window", "pinned")
GRAPH_COPY_METHODS = ("with_precolor", "with_edge", "set_kind", "without_edge", "add_vertices")
STEP_IDS = {
    "multi": ("base", "2a", "2b", "2c", "2d", "tight", "5a", "5c", "5d", "6"),
    "simple": ("base", "2", "3", "4", "5", "6", "7", "8", "9", "10"),
}


def _out_size(result) -> int:
    """Vertex count of a rebuild's output graph."""
    G = result[0] if isinstance(result, tuple) else result
    return G.n


class LayerTrace:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.steps: Counter[str] = Counter()
        self._open: list[list[float]] = []  # child seconds of each open span
        self._mp: list[str] = []            # open min_potential kinds
        self._hyper_calls = 0

    # -- spans ------------------------------------------------------------

    def _timed(self, name: str, fn, args, kwargs):
        frame = [0.0]
        self._open.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._open.pop()
            self.self_s[name] += dur - frame[0]
            self.total_s[name] += dur
            if self._open:
                self._open[-1][0] += dur

    def span(self, name: str, fn, size=None, hits=None):
        """Wrapper counting calls of fn under `name`; `size(args, result)`
        adds to the name's vertex sum, `hits(result)` to its hit count."""

        def wrapper(*args, **kwargs):
            result = self._timed(name, fn, args, kwargs)
            self.counts[name + ".calls"] += 1
            if size is not None:
                self.counts[name + ".vertices"] += size(args, result)
            if hits is not None and hits(result):
                self.counts[name + ".hits"] += 1
            return result

        return wrapper

    def mp_span(self, kind, fn):
        """Wrapper for a min_potential entry point; `kind` is a name or a
        function of the call's arguments giving one."""

        def wrapper(*args, **kwargs):
            k = kind(args, kwargs) if callable(kind) else kind
            self._mp.append(k)
            try:
                result = self._timed("mp." + k, fn, args, kwargs)
            finally:
                self._mp.pop()
            self.counts[f"mp.{k}.calls"] += 1
            return result

        return wrapper

    def flow_span(self, fn):
        def wrapper(net, *args, **kwargs):
            result = self._timed("mp.flow", fn, (net,) + args, kwargs)
            owner = self._mp[-1] if self._mp else "other"
            self.counts[f"mp.{owner}.flows"] += 1
            self.counts["mp.arcs"] += len(net.to) // 2
            return result

        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def hypergraph(self, fn):
        """The potential layer's hypergraph constructors.  A driver makes one
        for its entry screen; every later build in the same solve starts a
        level scan."""
        inner = self.span("potential", fn, size=lambda a, r: a[0].n)

        def wrapper(*args, **kwargs):
            self._hyper_calls += 1
            return inner(*args, **kwargs)

        return wrapper

    # -- one solve --------------------------------------------------------

    def solve(self, driver: str, fn, *args, **kwargs):
        """Run one driver call as the root span; trace lines feed the step
        hits and the depth."""
        lines: list[str] = []
        self._hyper_calls = 0
        try:
            return self._timed("solver", fn, args, dict(kwargs, trace=lines))
        finally:
            self.counts["mp.scans"] += max(0, self._hyper_calls - 1)
            for line in lines:
                depth = (len(line) - len(line.lstrip(" "))) // 2
                self.counts["solver.depth_max"] = max(self.counts["solver.depth_max"], depth)
                self.steps[f"{driver}.{line.split()[0]}"] += 1

    # -- metrics ----------------------------------------------------------

    def deterministic(self) -> dict:
        """Counts that must repeat exactly for the same input."""
        out = {k: v for k, v in self.counts.items() if v}
        out.update({"step." + k: v for k, v in self.steps.items()})
        return dict(sorted(out.items()))

    def metrics(self) -> dict[str, tuple[float, str]]:
        c, s, tot = self.counts, self.self_s, self.total_s
        m: dict[str, tuple[float, str]] = {}
        flows = 0
        for k in MP_KINDS:
            m[f"min_potential.{k}.calls"] = (c[f"mp.{k}.calls"], "count")
            m[f"min_potential.{k}.flows"] = (c[f"mp.{k}.flows"], "count")
            m[f"min_potential.{k}.s"] = (tot[f"mp.{k}"], "s")
            flows += c[f"mp.{k}.flows"]
        scans = c["mp.scans"]
        m["min_potential.scans"] = (scans, "count")
        m["min_potential.flows_per_scan"] = (c["mp.pinned.flows"] / scans if scans else 0.0, "count")
        m["min_potential.flow_s"] = (tot["mp.flow"], "s")
        m["min_potential.build_s"] = (sum(s[f"mp.{k}"] for k in MP_KINDS), "s")
        m["min_potential.arcs_per_flow"] = (c["mp.arcs"] / flows if flows else 0.0, "count")
        mp_s = sum(tot[f"mp.{k}"] for k in MP_KINDS)
        m["min_potential.share"] = (mp_s / tot["solver"] if tot["solver"] else 0.0, "ratio")
        for layer in ("graph_core.rebuild", "graph_core.validate", "potential"):
            m[layer + ".calls"] = (c[layer + ".calls"], "count")
            m[layer + ".s"] = (s[layer], "s")
            m[layer + ".vertices"] = (c[layer + ".vertices"], "count")
        m["graph_core.contract.calls"] = (c["graph_core.contract"], "count")
        m["forbidden.screen.calls"] = (c["forbidden.screen.calls"], "count")
        m["forbidden.screen.s"] = (s["forbidden.screen"], "s")
        m["forbidden.linked.calls"] = (c["forbidden.linked.calls"], "count")
        m["forbidden.linked.hits"] = (c["forbidden.linked.hits"], "count")
        m["forbidden.linked.s"] = (s["forbidden.linked"], "s")
        m["forbidden.embed.calls"] = (c["forbidden.embed"], "count")
        m["oracle.brute.calls"] = (c["oracle.brute.calls"], "count")
        m["oracle.brute.s"] = (s["oracle.brute"], "s")
        m["oracle.brute.max_n"] = (c["oracle.brute.max_n"], "count")
        m["solver.self_s"] = (s["solver"], "s")
        m["solver.depth_max"] = (c["solver.depth_max"], "count")
        for driver, ids in STEP_IDS.items():
            for step in ids:
                key = f"{driver}.{step}"
                m[f"solver.step.{key}"] = (self.steps[key], "count")
        return m


def _constrained_kind(args, kwargs) -> str:
    m1 = kwargs.get("m1", args[1] if len(args) > 1 else 0)
    m2 = kwargs.get("m2", args[2] if len(args) > 2 else 0)
    return "screen" if (m1, m2) == (1, 0) else "window"


def _brute_max_n(trace: LayerTrace, fn):
    def wrapper(G, *args, **kwargs):
        c = trace.counts
        c["oracle.brute.max_n"] = max(c["oracle.brute.max_n"], G.n)
        return fn(G, *args, **kwargs)

    return trace.span("oracle.brute", wrapper)


def _patches(trace: LayerTrace):
    """(owner, attribute, wrapper) for every wrapped name."""
    def rebuild_span(fn):
        return trace.span("graph_core.rebuild", fn, size=lambda a, r: _out_size(r))

    out = [
        (solver, "min_potential_constrained", trace.mp_span(_constrained_kind, solver.min_potential_constrained)),
        (solver, "min_potential_pinned", trace.mp_span("pinned", solver.min_potential_pinned)),
        (min_potential.FlowNetwork, "max_flow", trace.flow_span(min_potential.FlowNetwork.max_flow)),
        (solver, "hypergraph_for_rho_m", trace.hypergraph(solver.hypergraph_for_rho_m)),
        (solver, "hypergraph_for_rho_s", trace.hypergraph(solver.hypergraph_for_rho_s)),
        (solver, "rho_m", trace.span("potential", solver.rho_m, size=lambda a, r: a[0].n)),
        (solver, "rho_s", trace.span("potential", solver.rho_s, size=lambda a, r: a[0].n)),
        (solver, "induced_subgraph", rebuild_span(solver.induced_subgraph)),
        (solver, "normalize", rebuild_span(solver.normalize)),
        (
            solver,
            "contract_colored_subset",
            trace.counter("graph_core.contract", rebuild_span(solver.contract_colored_subset)),
        ),
        (
            solver,
            "validate_coloring",
            trace.span("graph_core.validate", solver.validate_coloring, size=lambda a, r: a[0].n),
        ),
        (solver, "find_forbidden_subgraph", trace.span("forbidden.screen", solver.find_forbidden_subgraph)),
        (solver, "are_linked", trace.span("forbidden.linked", solver.are_linked, hits=lambda r: r is not None)),
        (forbidden, "find_embedding", trace.counter("forbidden.embed", forbidden.find_embedding)),
        (solver, "brute_nb_color", _brute_max_n(trace, solver.brute_nb_color)),
    ]
    for name in GRAPH_COPY_METHODS:
        out.append((graph_core.Graph, name, rebuild_span(vars(graph_core.Graph)[name])))
    return out


@contextmanager
def installed(trace: LayerTrace):
    """Wrap the layers for the duration of the block, then restore every
    original object, also when the block raises."""
    saved = []
    try:
        for owner, attr, wrapper in _patches(trace):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        yield trace
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
