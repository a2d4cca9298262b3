"""Potential functions.

Three flavors share one shape, "vertex credit minus edge debit":

  rho_m  multigraph potential  3|W cap U| + |W cap Fp| - 2 e(W)   (multi counts two edges)
  rho_s  simple-graph potential 8|W cap U| + 3|W cap Fp| - 5 e'(W) - 11 e''(W)
         (e' ordinary edges, e'' gadget edges)
  rho_hyper  generic weighted-hypergraph potential
             sum of vertex weights in X minus weights of hyperedges inside X

The two graph potentials are one function of a weights record, RHO_M or
RHO_S: a credit per precolor tag, a debit per edge kind, and the edge kind
the potential refuses.  The hypergraph reductions and the drivers' peel read
the same records, so each weight table is written once, here.

Everything is exact.  The two graph potentials are integers, and so are the
weights of the hypergraphs built for them (hypergraph_for_rho_m/_s), which
the flow code takes without clearing a denominator.  The generic
constructor `hypergraph` and hypergraph_for_sparsity take rational weights
as Fractions, and rho_hyper returns a Fraction.  rho_m refuses graphs with
gadget records, rho_s refuses graphs with multi records.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .graph_core import FP, GADGET, IP, MULTI, SINGLE, UNCOLORED, Graph


class KindError(ValueError):
    """Potential applied to a graph of the wrong kind."""


class Weights(namedtuple("Weights", "tag edge refused message")):
    """One graph potential: `tag` maps a precolor tag to its vertex credit,
    `edge` an edge kind to its debit; graphs holding a `refused` edge are
    rejected with `message`."""

    __slots__ = ()

    def check(self, G: Graph) -> None:
        if G.has_multi if self.refused == MULTI else G.has_gadget:
            raise KindError(self.message)


RHO_M = Weights(
    {UNCOLORED: 3, FP: 1, IP: 0},
    {SINGLE: 2, MULTI: 4},
    GADGET,
    "multigraph potential does not accept gadget edges",
)
RHO_S = Weights(
    {UNCOLORED: 8, FP: 3, IP: 0},
    {SINGLE: 5, GADGET: 11},
    MULTI,
    "simple-graph potential does not accept multi edges",
)


def _rho(G: Graph, W, weights: Weights) -> int:
    weights.check(G)
    W = set(W)
    tag, edge = weights.tag, weights.edge
    total = sum(tag[G.precolor[v]] for v in W)
    for u, v, kind in G.edges:
        if u in W and v in W:
            total -= edge[kind]
    return total


def rho_m(G: Graph, W) -> int:
    return _rho(G, W, RHO_M)


def rho_s(G: Graph, W) -> int:
    return _rho(G, W, RHO_S)


# -- weighted hypergraphs -------------------------------------------------


@dataclass(frozen=True)
class WeightedHypergraph:
    """Vertex weights and weighted hyperedges: ints from the graph
    potentials' builders, Fractions from `hypergraph`."""

    n: int
    vertex_weights: tuple[int | Fraction, ...]
    edges: tuple[tuple[frozenset[int], int | Fraction], ...]

    def __post_init__(self):
        if len(self.vertex_weights) != self.n:
            raise ValueError("vertex weight count mismatch")
        if self.vertex_weights and min(self.vertex_weights) < 0:
            raise ValueError("vertex weights must be nonnegative")
        if not self.edges:
            return
        members, weights = zip(*self.edges)
        if not all(members):
            raise ValueError("empty hyperedge")
        used = frozenset().union(*members)
        if min(used) < 0 or max(used) >= self.n:
            raise ValueError("hyperedge member out of range")
        if min(weights) <= 0:
            raise ValueError("hyperedge weights must be positive")


def hypergraph(n, vertex_weights, hyperedges) -> WeightedHypergraph:
    """Canonical constructor: weights coerced to Fraction, duplicate
    hyperedges merged by summing their weights, deterministic order."""
    vw = tuple(Fraction(w) for w in vertex_weights)
    merged: dict[frozenset[int], Fraction] = {}
    for members, w in hyperedges:
        members = frozenset(members)
        merged[members] = merged.get(members, Fraction(0)) + Fraction(w)
    edges = tuple(
        (members, merged[members])
        for members in sorted(merged, key=lambda f: (len(f), sorted(f)))
    )
    return WeightedHypergraph(n, vw, edges)


def rho_hyper(H: WeightedHypergraph, X) -> Fraction:
    X = set(X)
    total = sum((H.vertex_weights[u] for u in X), Fraction(0))
    for members, w in H.edges:
        if members <= X:
            total -= w
    return total


# -- graph -> hypergraph reductions ---------------------------------------


# (G, weights, H) of the latest build, replaced whole and never changed, so
# threads may share it.  Keyed by identity: a driver's entry screen and the
# first level scan of a graph that does not peel ask for the same G's
# hypergraph, and handing back the same H lets min_potential's warm record
# for it serve both.
_last_built: tuple = (None, None, None)


def _hypergraph_for(G: Graph, weights: Weights) -> WeightedHypergraph:
    """The hypergraph of `weights` on G, with int weights.  G.edges is sorted
    and holds one record per pair, so its order is the canonical one that
    `hypergraph` would give."""
    global _last_built
    last_G, last_weights, H = _last_built
    if last_G is G and last_weights is weights:
        return H
    weights.check(G)
    tag, edge = weights.tag, weights.edge
    H = WeightedHypergraph(
        G.n,
        tuple([tag[t] for t in G.precolor]),
        tuple([(frozenset((u, v)), edge[kind]) for u, v, kind in G.edges]),
    )
    _last_built = (G, weights, H)
    return H


def hypergraph_for_rho_m(G: Graph) -> WeightedHypergraph:
    """Hypergraph whose potential agrees with rho_m on every subset."""
    return _hypergraph_for(G, RHO_M)


def hypergraph_for_rho_s(G: Graph) -> WeightedHypergraph:
    """Hypergraph whose potential agrees with rho_s on every subset."""
    return _hypergraph_for(G, RHO_S)


def hypergraph_for_sparsity(G: Graph, a) -> WeightedHypergraph:
    """Potential a|X| - e(X); a multi record contributes two edges, any other
    record one.  Sparsity (a, b) holds iff the minimum over nonempty X
    is at least b."""
    a = Fraction(a)
    vw = [a] * G.n
    he = [((u, v), 2 if kind == MULTI else 1) for u, v, kind in G.edges]
    return hypergraph(G.n, vw, he)
