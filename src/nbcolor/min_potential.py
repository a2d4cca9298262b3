"""Minimum-potential subsets via max-flow.

The reduction: a network with source s, sink t, one node per hypergraph
vertex, one node per hyperedge.  Arcs s->v with capacity w_v, f->t with
capacity w_f, and v->f with infinite capacity whenever v sits in f.  A
minimum s-t cut corresponds to the subset W of vertices on its sink side, and
its weight equals rho(W) plus the total hyperedge weight, so a max-flow
computation finds a minimizer of rho.

All arithmetic is integer: denominators are cleared once per hypergraph, and
a Fraction is built only for the value handed back to the caller.  Extremal
cardinality among minimizers comes from an exact integer perturbation: scale
all weights by n + 1 so that one unit of cardinality can never outweigh one
unit of potential, then nudge vertex weights by one.

Membership constraints are terminal arcs.  Besides its s->v arc, every vertex
has a v->t arc of capacity zero.  Banning v raises its s->v arc by the
network's infinite capacity, so v stays on the source side; forcing v raises
its v->t arc, so v stays on the sink side.  Infinite is one more than the sum
of all finite capacities, so no minimum cut crosses a raised arc, and over
the subsets that honour the constraints the cut weight is the unconstrained
one plus a constant (the hyperedges through banned vertices).

Warm start (Gallo, Grigoriadis & Tarjan, SIAM J. Comput. 1989): the network
of a hypergraph and its unconstrained max flow are built once per extremal
mode and memoised in a one-entry cache.  A constrained instance copies the
cached residual capacities, raises its terminal arcs and augments from the
cached flow.  This is exact: raising capacities keeps the cached flow
feasible, so augmenting it until no path is left gives a max flow of the
constrained network, and the nodes reachable from s in the residual graph of
any max flow form the same set, the smallest source side of a minimum cut.
W is read from that set, so it is the union of all minimizers of the
(perturbed) objective, exactly what a flow from zero on the constrained
network returns.

Cardinality windows m1 <= |W| <= n - m2 sweep those constraints over every
m1-subset to force or m2-subset to ban and keep the best branch.  Two
shortcut rules (documented at their call sites) skip branches whose answer is
already known; both are exact, they never change results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .potential import WeightedHypergraph

LARGEST = "largest"
SMALLEST = "smallest"
EXTREMAL_MODES = (None, LARGEST, SMALLEST)


class FlowNetwork:
    """Dinic's algorithm over integer capacities."""

    def __init__(self, num_nodes: int):
        self.n = num_nodes
        self.head: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, cap: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def copy(self) -> FlowNetwork:
        """A network on the same arcs with its own residual capacities; the
        arc lists are shared, so add no arc to either afterwards."""
        net = FlowNetwork.__new__(FlowNetwork)
        net.n, net.head, net.to = self.n, self.head, self.to
        net.cap = self.cap.copy()
        return net

    def _levels(self, s: int, t: int):
        head, to, cap = self.head, self.to, self.cap
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            if u == t:
                break  # the rest of the queue is at t's depth or deeper
            nxt = level[u] + 1
            for idx in head[u]:
                v = to[idx]
                if cap[idx] and level[v] < 0:
                    level[v] = nxt
                    queue.append(v)
        return level if level[t] >= 0 else None

    def max_flow(self, s: int, t: int) -> int:
        """Augments the current flow to a maximum one and returns the amount
        added.  The blocking-flow search keeps its path on an explicit stack,
        so path length is not bounded by the interpreter's recursion limit."""
        head, to, cap = self.head, self.to, self.cap
        total = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return total
            it = [0] * self.n
            path: list[int] = []  # arcs from s to u
            u = s
            while True:
                if u == t:
                    pushed = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    total += pushed
                    # resume from the tail of the first saturated arc
                    k = next(i for i, a in enumerate(path) if not cap[a])
                    del path[k:]
                    u = to[path[-1]] if path else s
                    continue
                arcs = head[u]
                i, end = it[u], len(arcs)
                nxt = level[u] + 1
                while i < end:
                    a = arcs[i]
                    if cap[a] and level[to[a]] == nxt:
                        break
                    i += 1
                it[u] = i
                if i < end:
                    path.append(a)
                    u = to[a]
                elif path:
                    level[u] = -1  # dead end: no arc leads here again this phase
                    u = to[path.pop() ^ 1]
                else:
                    break

    def source_side(self, s: int) -> set[int]:
        """Nodes reachable from s in the residual graph; call after max_flow."""
        head, to, cap = self.head, self.to, self.cap
        seen = {s}
        queue = [s]
        for u in queue:
            for idx in head[u]:
                v = to[idx]
                if cap[idx] and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


@dataclass(frozen=True)
class AuxNetwork:
    """The cut network for one hypergraph: a minimum source-side cut picks
    out a minimum-potential subset, offset by the total edge weight.

    Weights are cleared of denominators by `scale`; in an extremal mode the
    capacities are those integers times n + 1, nudged by one per vertex."""

    flow: FlowNetwork
    source: int
    sink: int
    vertex_node: tuple[int, ...]
    scale: int                      # integer weights are weight * scale
    total_edge_weight_scaled: int
    weights: tuple[int, ...]        # vertex weights * scale
    edges: tuple[tuple[frozenset[int], int], ...]  # hyperedges, weight * scale
    source_arc: tuple[int, ...]     # s->v of each vertex, raised to ban v
    sink_arc: tuple[int, ...]       # v->t of each vertex (capacity 0), raised to force v
    infinite: int                   # above every finite cut

    def rho_scaled(self, W) -> int:
        """rho(W) * scale."""
        return sum(self.weights[v] for v in W) - sum(w for members, w in self.edges if members <= W)

    def sink_side(self, net: FlowNetwork) -> frozenset[int]:
        """Vertices on the sink side of the smallest-source-side minimum cut
        of `net`, a flowed copy of this network."""
        reach = net.source_side(self.source)
        return frozenset(v for v, node in enumerate(self.vertex_node) if node not in reach)


def _denominator_scale(H: WeightedHypergraph) -> int:
    dens = [w.denominator for w in H.vertex_weights]
    dens += [w.denominator for _, w in H.edges]
    return lcm(*dens) if dens else 1


def build_aux_network(H: WeightedHypergraph, extremal: str | None = None) -> AuxNetwork:
    """H's network before any flow, with the perturbation of `extremal`; no
    terminal arc is raised."""
    L = _denominator_scale(H)
    n = H.n
    M = n + 1 if extremal else 1
    weights = tuple(int(w * L) for w in H.vertex_weights)
    edges = tuple((members, int(w * L)) for members, w in H.edges)
    caps_v = []
    for w in weights:
        c = w * M
        if extremal == LARGEST and c > 0:
            c -= 1
        elif extremal == SMALLEST:
            c += 1
        caps_v.append(c)
    total_e = sum(w for _, w in edges)
    infinite = sum(caps_v) + total_e * M + 1
    net = FlowNetwork(2 + n + len(edges))
    s, t = 0, 1
    vnode = tuple(2 + v for v in range(n))
    source_arc = tuple(net.add_arc(s, vnode[v], caps_v[v]) for v in range(n))
    sink_arc = tuple(net.add_arc(vnode[v], t, 0) for v in range(n))
    for j, (members, w) in enumerate(edges):
        enode = 2 + n + j
        net.add_arc(enode, t, w * M)
        for v in sorted(members):
            net.add_arc(vnode[v], enode, infinite)
    return AuxNetwork(net, s, t, vnode, L, total_e, weights, edges, source_arc, sink_arc, infinite)


def max_flow(aux: AuxNetwork) -> tuple[int, set[int]]:
    """Runs the flow and returns (scaled cut value, source-side node set)."""
    value = aux.flow.max_flow(aux.source, aux.sink)
    return value, aux.flow.source_side(aux.source)


# (H, extremal, warm) of the latest call.  Keyed by identity: an lru_cache
# would hash and compare H's Fraction weights on every call.
_last_warm: tuple = (None, None, None)


def _warm(H: WeightedHypergraph, extremal) -> tuple[AuxNetwork, frozenset[int]]:
    """H's network after its unconstrained max flow, and the minimizer that
    flow cuts out, memoised for the latest hypergraph.  Every instance on H
    starts from this flow, and callers in several threads may share it, so
    it is never changed again."""
    global _last_warm
    last, mode, warm = _last_warm
    if last is not H or mode != extremal:
        aux = build_aux_network(H, extremal)
        aux.flow.max_flow(aux.source, aux.sink)
        warm = (aux, aux.sink_side(aux.flow))
        _last_warm = (H, extremal, warm)
    return warm


def _solve_device(warm, banned, forced) -> frozenset[int]:
    """One flow instance on the warm network `warm` with the vertices of
    `banned` kept out and those of `forced` kept in.  Returns the minimizer W."""
    aux, W0 = warm
    if not banned and not forced:
        return W0
    net = aux.flow.copy()
    for v in banned:
        net.cap[aux.source_arc[v]] += aux.infinite
    for v in forced:
        net.cap[aux.sink_arc[v]] += aux.infinite
    net.max_flow(aux.source, aux.sink)
    W = aux.sink_side(net)
    if forced and not (forced <= W):
        raise AssertionError("forcing device failed to pin its subset")
    return W


def _rank_key(aux: AuxNetwork, W: frozenset[int], extremal):
    r = aux.rho_scaled(W)
    if extremal == LARGEST:
        return (r, -len(W), tuple(sorted(W)))
    if extremal == SMALLEST:
        return (r, len(W), tuple(sorted(W)))
    return (r, 0, tuple(sorted(W)))


def _answer(aux: AuxNetwork, W: frozenset[int]) -> tuple[frozenset[int], Fraction]:
    return W, Fraction(aux.rho_scaled(W), aux.scale)


def min_potential_subset(H: WeightedHypergraph) -> tuple[frozenset[int], Fraction]:
    """Unconstrained minimizer of rho over all subsets (the empty set counts)."""
    aux, W = _warm(H, None)
    return _answer(aux, W)


def min_potential_constrained(
    H: WeightedHypergraph,
    m1: int = 0,
    m2: int = 0,
    extremal: str | None = None,
) -> tuple[frozenset[int], Fraction]:
    """Minimize rho over subsets with m1 <= |W| <= n - m2.

    Ties on rho are settled by extremal cardinality when asked, then by the
    lexicographically smallest vertex tuple among the candidate sets the
    device branches surface.
    """
    n = H.n
    if extremal not in EXTREMAL_MODES:
        raise ValueError(f"unknown extremal mode {extremal!r}")
    if m1 < 0 or m2 < 0 or m1 > n - m2:
        raise ValueError(f"no subset satisfies {m1} <= |W| <= {n} - {m2}")

    # exact shortcut: a feasible unconstrained extremal minimizer already
    # answers the constrained problem
    warm = _warm(H, extremal)
    aux, W0 = warm
    if m1 <= len(W0) <= n - m2:
        return _answer(aux, W0)

    best = None
    best_key = None

    def consider(W):
        nonlocal best, best_key
        if m1 <= len(W) <= n - m2:
            key = _rank_key(aux, W, extremal)
            if best_key is None or key < best_key:
                best_key, best = key, W

    # Sweep the side of the window that W0 violates: forcing an m1-subset
    # guarantees the lower bound by membership, banning an m2-subset the
    # upper bound, so primary branches almost always land inside the window.
    # A branch whose extremal minimizer still misses the window falls back
    # to the crossed sweep, pruned by the branch minimum: restricting a
    # branch never lowers its rho, and in extremal mode an out-of-window
    # extremal minimizer means every in-window set is strictly worse.
    if len(W0) < m1:
        pend = []
        for Y in itertools.combinations(range(n), m1):
            forced = frozenset(Y)
            W1 = _solve_device(warm, (), forced)
            if len(W1) <= n - m2:
                consider(W1)
            else:
                pend.append((forced, aux.rho_scaled(W1)))
        for forced, lb in pend:
            if best_key is not None and lb > best_key[0]:
                continue
            if extremal == SMALLEST and best_key is not None and lb >= best_key[0]:
                continue
            for X in itertools.combinations(
                [v for v in range(n) if v not in forced], m2
            ):
                consider(_solve_device(warm, X, forced))
    else:
        pend = []
        for X in itertools.combinations(range(n), m2):
            W1 = _solve_device(warm, X, ())
            if len(W1) >= m1:
                consider(W1)
            else:
                pend.append((X, aux.rho_scaled(W1)))
        for banned, lb in pend:
            if best_key is not None and lb > best_key[0]:
                continue
            if extremal == LARGEST and best_key is not None and lb >= best_key[0]:
                continue
            for Y in itertools.combinations(
                [v for v in range(n) if v not in banned], m1
            ):
                consider(_solve_device(warm, banned, frozenset(Y)))
    return best, Fraction(best_key[0], aux.scale)


def min_potential_pinned(
    H: WeightedHypergraph,
    force=(),
    ban=(),
    extremal: str | None = LARGEST,
) -> tuple[frozenset[int], Fraction]:
    """Minimize rho over subsets that contain every vertex of `force` and
    avoid every vertex of `ban`.  One flow instance, warm-started from H's
    unconstrained flow; membership constraints are exact (infinite terminal
    arcs)."""
    fset = frozenset(force)
    bset = frozenset(ban)
    if extremal not in EXTREMAL_MODES:
        raise ValueError(f"unknown extremal mode {extremal!r}")
    if fset & bset:
        raise ValueError(f"force and ban overlap on {sorted(fset & bset)}")
    for v in fset | bset:
        if not 0 <= v < H.n:
            raise ValueError(f"vertex {v} out of range")
    warm = _warm(H, extremal)
    return _answer(warm[0], _solve_device(warm, bset, fset))


# -- reference implementation by enumeration ------------------------------


def min_potential_enum(
    H: WeightedHypergraph,
    m1: int = 0,
    m2: int = 0,
    extremal: str | None = None,
) -> tuple[frozenset[int], Fraction]:
    """Authoritative but exponential: walk all subsets.  Ties on rho go to
    the extremal cardinality, then to the lexicographically smallest tuple
    over every qualifying subset (not just surfaced candidates)."""
    n = H.n
    if m1 < 0 or m2 < 0 or m1 > n - m2:
        raise ValueError(f"no subset satisfies {m1} <= |W| <= {n} - {m2}")
    L = _denominator_scale(H)
    wv = [int(H.vertex_weights[v] * L) for v in range(n)]
    masks = []
    for members, w in H.edges:
        mask = 0
        for v in members:
            mask |= 1 << v
        masks.append((mask, int(w * L)))
    best_key = None
    best = None
    for bits in range(1 << n):
        size = bits.bit_count()
        if size < m1 or size > n - m2:
            continue
        total = 0
        for v in range(n):
            if bits >> v & 1:
                total += wv[v]
        for mask, w in masks:
            if bits & mask == mask:
                total -= w
        if extremal == LARGEST:
            second = -size
        elif extremal == SMALLEST:
            second = size
        else:
            second = 0
        members = tuple(v for v in range(n) if bits >> v & 1)
        key = (total, second, members)
        if best_key is None or key < best_key:
            best_key, best = key, members
    return frozenset(best), Fraction(best_key[0], L)
