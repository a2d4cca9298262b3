"""Potential functions: the two graph potentials and the hypergraph form."""

import itertools
from fractions import Fraction

import pytest

from nbcolor.families import base_graph, gen_gk, gen_hk
from nbcolor.graph_core import graph
from nbcolor.potential import (
    KindError,
    hypergraph,
    hypergraph_for_rho_m,
    hypergraph_for_rho_s,
    hypergraph_for_sparsity,
    rho_hyper,
    rho_m,
    rho_s,
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
