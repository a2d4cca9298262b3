"""Potential functions: the two graph potentials and the hypergraph form."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from nbcolor import potential
from nbcolor.families import base_graph, gen_gk, gen_hk
from nbcolor.graph_core import FP, GADGET, IP, MULTI, SINGLE, UNCOLORED, graph, normalize
from nbcolor.min_potential import build_aux_network
from nbcolor.potential import (
    RHO_M,
    RHO_S,
    KindError,
    hypergraph,
    hypergraph_for_rho_m,
    hypergraph_for_rho_s,
    hypergraph_for_sparsity,
    rho_hyper,
    rho_m,
    rho_s,
    screen_kernel,
)

# published values for the seven named graphs, (rho_m, rho_s) on V
TABLE = {
    "k4": (0, 2),
    "w5": (-2, -2),
    "k222": (-6, -12),
    "m7": (-1, 1),
    "j7": (-3, -4),
    "j8": (-2, -1),
    "j12": (-4, -4),
}


@pytest.mark.parametrize("name", sorted(TABLE))
def test_named_graph_potentials(name):
    G = base_graph(name)
    V = range(G.n)
    assert rho_m(G, V) == TABLE[name][0]
    assert rho_s(G, V) == TABLE[name][1]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_gk_full_potential(k):
    G = gen_gk(k)
    assert rho_m(G, range(G.n)) == -2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hk_full_potential(k):
    G = gen_hk(k)
    assert rho_s(G, range(G.n)) == -5


def test_rho_m_formula_terms():
    # 3 per uncolored, 1 per F-tag, 0 per I-tag, -2 per edge end inside
    G = graph(4, singles=[(0, 1)], multis=[(2, 3)], fp=[1], ip=[2])
    assert rho_m(G, {0}) == 3
    assert rho_m(G, {1}) == 1
    assert rho_m(G, {2}) == 0
    assert rho_m(G, {0, 1}) == 3 + 1 - 2
    assert rho_m(G, {2, 3}) == 0 + 3 - 4
    assert rho_m(G, range(4)) == 3 + 1 + 0 + 3 - 2 - 4


def test_rho_s_formula_terms():
    G = graph(4, singles=[(0, 1)], gadgets=[(2, 3)], fp=[1], ip=[2])
    assert rho_s(G, {0}) == 8
    assert rho_s(G, {1}) == 3
    assert rho_s(G, {0, 1}) == 8 + 3 - 5
    assert rho_s(G, {2, 3}) == 0 + 8 - 11
    assert rho_s(G, range(4)) == 8 + 3 + 0 + 8 - 5 - 11


def test_kind_guards():
    with pytest.raises(KindError):
        rho_m(graph(2, gadgets=[(0, 1)]), {0, 1})
    with pytest.raises(KindError):
        rho_s(graph(2, multis=[(0, 1)]), {0, 1})


def test_empty_subset_is_zero():
    G = base_graph("k4")
    assert rho_m(G, ()) == 0
    assert rho_s(G, ()) == 0


def test_rho_hyper_basic():
    H = hypergraph(3, [2, 3, 5], [((0, 1), 4), ((0, 1, 2), 1)])
    assert rho_hyper(H, ()) == 0
    assert rho_hyper(H, {0}) == 2
    assert rho_hyper(H, {0, 1}) == 2 + 3 - 4
    assert rho_hyper(H, {0, 1, 2}) == 10 - 5
    assert isinstance(rho_hyper(H, {0}), Fraction)


def test_rho_hyper_fractional_weights():
    H = hypergraph(2, [Fraction(3, 2), 1], [((0, 1), Fraction(1, 3))])
    assert rho_hyper(H, {0, 1}) == Fraction(3, 2) + 1 - Fraction(1, 3)


# the hypergraph encodings must agree with the direct formulas on every subset


@pytest.mark.parametrize(
    "G",
    [
        base_graph("k4"),
        base_graph("m7"),
        graph(5, singles=[(0, 1), (1, 2)], multis=[(2, 3)], fp=[0], ip=[4]),
        gen_gk(2),
    ],
)
def test_hypergraph_for_rho_m_matches(G):
    H = hypergraph_for_rho_m(G)
    for r in range(G.n + 1):
        for W in itertools.combinations(range(G.n), r):
            assert rho_hyper(H, W) == rho_m(G, W)


@pytest.mark.parametrize(
    "G",
    [
        base_graph("w5"),
        graph(5, singles=[(0, 1), (1, 2)], gadgets=[(2, 3)], fp=[0], ip=[4]),
        gen_hk(1),
    ],
)
def test_hypergraph_for_rho_s_matches(G):
    H = hypergraph_for_rho_s(G)
    for r in range(G.n + 1):
        for W in itertools.combinations(range(G.n), r):
            assert rho_hyper(H, W) == rho_s(G, W)


def test_hypergraph_for_sparsity():
    # a*|W| - e(W) with multiplicity; gadgets count one edge
    G = graph(4, singles=[(0, 1)], multis=[(1, 2)], gadgets=[(2, 3)])
    H = hypergraph_for_sparsity(G, Fraction(3, 2))
    assert rho_hyper(H, {0, 1}) == Fraction(3) - 1
    assert rho_hyper(H, {1, 2}) == Fraction(3) - 2
    assert rho_hyper(H, {2, 3}) == Fraction(3) - 1
    assert rho_hyper(H, range(4)) == Fraction(6) - 4


def _canonical(G, weights):
    """The hypergraph of `weights` on G through the generic constructor."""
    return hypergraph(
        G.n,
        [weights.tag[t] for t in G.precolor],
        [((u, v), weights.edge[kind]) for u, v, kind in G.edges],
    )


def _random_tagged(rng, heavy, n):
    """A random graph on n vertices with every tag and SINGLE or `heavy`
    edges."""
    raw = [
        (u, v, heavy if rng.random() < 0.3 else SINGLE)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < 0.4
    ]
    return normalize(n, raw, [rng.choice((UNCOLORED, FP, IP)) for _ in range(n)])


@pytest.mark.parametrize(
    "to_hyper, weights, heavy",
    [(hypergraph_for_rho_m, RHO_M, MULTI), (hypergraph_for_rho_s, RHO_S, GADGET)],
    ids=["rho_m", "rho_s"],
)
def test_integer_hypergraph_matches_the_canonical_one(to_hyper, weights, heavy):
    # the graph potentials' hypergraphs are built straight from G.edges with
    # int weights; they must equal the generic constructor's in n, edge order
    # and weight values, and give the same network with no scaling
    rng = random.Random(1203)
    kinds = set()
    tags = set()
    for _ in range(80):
        G = _random_tagged(rng, heavy, rng.randint(0, 14))
        kinds.update(kind for _, _, kind in G.edges)
        tags.update(G.precolor)
        H = to_hyper(G)
        ref = _canonical(G, weights)
        assert H.n == ref.n == G.n
        assert H.vertex_weights == ref.vertex_weights
        assert [members for members, _ in H.edges] == [members for members, _ in ref.edges]
        assert [w for _, w in H.edges] == [w for _, w in ref.edges]
        assert all(type(w) is int for w in H.vertex_weights)
        assert all(type(w) is int for _, w in H.edges)
        net, ref_net = build_aux_network(H), build_aux_network(ref)
        assert net.scale == ref_net.scale == 2
        assert net.flow.head == ref_net.flow.head
        assert net.flow.to == ref_net.flow.to
        assert net.flow.cap == ref_net.flow.cap
    assert kinds == {SINGLE, heavy}
    assert tags == {UNCOLORED, FP, IP}


def test_hypergraph_memo_keeps_graphs_and_potentials_apart():
    # the memo is keyed by the identity of (G, weights): the same G under the
    # other potential, and an equal graph that is another object, each get
    # their own build; only the same pair again gets the same object back
    G = graph(5, singles=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)], fp=[2], ip=[4])
    H_m = hypergraph_for_rho_m(G)
    assert hypergraph_for_rho_m(G) is H_m
    H_s = hypergraph_for_rho_s(G)
    assert H_s is not H_m
    assert H_s == _canonical(G, RHO_S)
    assert hypergraph_for_rho_s(G) is H_s
    H_m2 = hypergraph_for_rho_m(G)
    assert H_m2 == H_m == _canonical(G, RHO_M)
    assert H_m2 != H_s

    twin = graph(5, singles=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)], fp=[2], ip=[4])
    assert twin == G and twin is not G
    H_twin = hypergraph_for_rho_m(twin)
    assert H_twin is not H_m2 and H_twin == H_m2
    assert potential._last_built[0] is twin

    # a graph the potential refuses is refused also right after a build of
    # the same graph under the other potential
    mixed = graph(4, singles=[(0, 1)], gadgets=[(2, 3)])
    hypergraph_for_rho_s(mixed)
    with pytest.raises(KindError):
        hypergraph_for_rho_m(mixed)
    assert hypergraph_for_rho_s(mixed) == _canonical(mixed, RHO_S)


def _nonempty_min(H):
    """The least rho over nonempty vertex sets, by enumeration; +inf on an
    empty vertex set."""
    if H.n == 0:
        return float("inf")
    masks = np.arange(1, 1 << H.n)
    inside = (masks[:, None] >> np.arange(H.n)) & 1
    rho = inside @ np.array(H.vertex_weights, dtype=np.int64)
    for members, w in H.edges:
        edge = sum(1 << v for v in members)
        rho -= w * ((masks & edge) == edge)
    return int(rho.min())


def _kernel_case(rng, heavy):
    """A random graph on at most 11 vertices: sparse ones with leaves,
    paths and isolated vertices, denser ones often of minimum degree 3, every
    tag, and SINGLE or `heavy` edges."""
    n = rng.randint(1, 11)
    p = rng.choice((rng.uniform(0.05, 0.35), rng.uniform(0.35, 0.9)))
    heavy_rate = rng.choice((0.0, 0.1, 0.3))
    raw = [
        (u, v, heavy if rng.random() < heavy_rate else SINGLE)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    tags = [rng.choice((UNCOLORED,) * 6 + (FP, IP)) for _ in range(n)]
    return normalize(n, raw, tags)


@pytest.mark.parametrize(
    "to_hyper, heavy",
    [(hypergraph_for_rho_m, MULTI), (hypergraph_for_rho_s, GADGET)],
    ids=["rho_m", "rho_s"],
)
def test_screen_kernel_matches_enumeration(to_hyper, heavy):
    # Below 0 the kernel's nonempty minimum is H's, so a negative floor
    # fires on both or on neither; a graph whose every vertex has three or
    # more neighbours is its own kernel
    rng = random.Random(1919)
    reduced = emptied = negative = dense = 0
    for _ in range(1600):
        G = _kernel_case(rng, heavy)
        H = to_hyper(G)
        K = screen_kernel(G, RHO_M if heavy == MULTI else RHO_S) or H
        low = min(_nonempty_min(H), 0)
        assert low == min(_nonempty_min(K), 0)
        if G.n and min(map(len, G.adj)) >= 3:
            dense += 1
            assert K is H
        if K is not H:
            reduced += 1
            emptied += K.n == 0
            negative += low < 0
            assert K.n < H.n
            assert all(len(members) == 2 for members, _ in K.edges)
    assert reduced >= 1100 and emptied >= 600 and negative >= 350 and dense >= 250, (reduced, emptied, negative, dense)
