"""Embedding search, the obstruction catalog, and linkage certificates."""

import pytest

from nbcolor.families import base_graph
from nbcolor.forbidden import (
    BASE_NAMES,
    SEED_NAMES,
    CatalogError,
    LinkWitness,
    are_linked,
    build_catalog,
    default_catalog,
    find_embedding,
    find_forbidden_subgraph,
    load_catalog,
    save_catalog,
    verify_member,
    witness_cycle,
)
from nbcolor.graph_core import SINGLE, graph


def cycle(n):
    return graph(n, singles=[(i, (i + 1) % n) for i in range(n)])


def _embedding_ok(pattern, host, mapping):
    assert len(set(mapping.values())) == pattern.n
    for u, v, _ in pattern.edges:
        assert host.kind_of(mapping[u], mapping[v]) is not None


def test_find_embedding_basic():
    tri = cycle(3)
    m = find_embedding(tri, base_graph("k4"))
    assert m is not None
    _embedding_ok(tri, base_graph("k4"), m)
    assert find_embedding(tri, cycle(5)) is None
    # subgraph search, not induced: a path sits inside a triangle
    path = graph(3, singles=[(0, 1), (1, 2)])
    assert find_embedding(path, tri) is not None
    # pattern larger than host
    assert find_embedding(base_graph("k4"), tri) is None


def test_find_embedding_anchored():
    tri = cycle(3)
    m = find_embedding(tri, base_graph("k4"), anchor={0: 3})
    assert m is not None and m[0] == 3
    # adjacent pattern pair pinned on a non-adjacent host pair
    edge = graph(2, singles=[(0, 1)])
    path = graph(3, singles=[(0, 1), (1, 2)])
    assert find_embedding(edge, path, anchor={0: 0, 1: 2}) is None
    # two pattern vertices on one host vertex
    assert find_embedding(edge, path, anchor={0: 1, 1: 1}) is None


def test_find_embedding_kind_blind():
    edge = graph(2, singles=[(0, 1)])
    pair = graph(2, multis=[(0, 1)])
    assert find_embedding(edge, pair) is not None


def test_default_catalog_contents():
    cat = default_catalog()
    assert cat.names() == SEED_NAMES
    assert cat.vertex_bound == 12
    for e in cat.entries:
        if e.name in BASE_NAMES:
            assert e.role == "base" and e.witness_cycle is None
        else:
            assert e.role == "derived"
            assert e.witness_cycle is not None and len(e.witness_cycle) == 3


def test_build_catalog_bound():
    cat = build_catalog(7)
    assert cat.names() == ("k4", "w5", "m7", "j7")
    assert build_catalog(4).names() == ("k4",)


def test_restrict():
    cat = default_catalog().restrict(("k4", "m7"))
    assert cat.names() == ("k4", "m7")


def test_verify_member():
    cat = default_catalog()
    for name in SEED_NAMES:
        assert verify_member(base_graph(name), cat)
    assert not verify_member(cycle(5), cat)
    # a member plus anything extra is no longer one
    padded = base_graph("k4").add_vertices(1).with_edge(0, 4, SINGLE)
    assert not verify_member(padded, cat)
    assert not verify_member(graph(2, multis=[(0, 1)]), cat)
    assert not verify_member(cycle(3).with_precolor(0, "f"), cat)


def test_witness_cycle_property():
    cat = default_catalog()
    for name in ("m7", "j8"):
        G = base_graph(name)
        cyc = witness_cycle(G, cat)
        assert cyc is not None
        k = len(cyc)
        assert k in (3, 5)
        for x in cyc:
            outside = [u for u in G.adj[x] if u not in set(cyc)]
            assert len(outside) == 1
    assert witness_cycle(cycle(5), cat) is None


def test_are_linked_negative_c6():
    G = cycle(6)
    for s in range(1, 6):
        assert are_linked(G, 0, s) is None


def test_are_linked_positive():
    host = base_graph("k4").without_edge(0, 1)
    w = are_linked(host, 0, 1)
    assert isinstance(w, LinkWitness)
    assert w.member == "k4"
    # restoring the missing edge completes a catalog member around s, t
    patt = base_graph(w.member).without_edge(*w.removed_edge)
    _embedding_ok(patt, host, w.mapping)
    pv, pw = w.removed_edge
    assert {w.mapping[pv], w.mapping[pw]} == {0, 1}
    with pytest.raises(ValueError):
        are_linked(host, 2, 2)


def test_find_forbidden_subgraph():
    hit = find_forbidden_subgraph(base_graph("k4"))
    assert hit is not None and hit[0] == "k4"
    assert find_forbidden_subgraph(cycle(5)) is None
    # hub plus rim holds no k4, so the six-vertex wheel is the first hit
    W = base_graph("w5")
    hit = find_forbidden_subgraph(W)
    assert hit is not None and hit[0] == "w5"
    _embedding_ok(W, W, hit[1])
    # still found inside a larger host
    big = W.add_vertices(3).with_edge(5, 6, SINGLE).with_edge(6, 7, SINGLE)
    hit = find_forbidden_subgraph(big)
    assert hit is not None and hit[0] == "w5"


def test_catalog_round_trip(tmp_path):
    cat = default_catalog()
    save_catalog(cat, tmp_path / "cat")
    back = load_catalog(tmp_path / "cat")
    assert back.vertex_bound == cat.vertex_bound
    assert back.names() == cat.names()
    for a, b in zip(cat.entries, back.entries):
        assert a.graph.n == b.graph.n
        assert a.graph.edges == b.graph.edges
        assert a.role == b.role
        assert a.witness_cycle == b.witness_cycle


def test_catalog_load_errors(tmp_path):
    with pytest.raises(CatalogError):
        load_catalog(tmp_path / "missing")
    save_catalog(default_catalog(), tmp_path / "cat")
    target = tmp_path / "cat" / "k4.nbg"
    target.write_text(target.read_text() + "# tampered\n")
    with pytest.raises(CatalogError):
        load_catalog(tmp_path / "cat")


def test_embedding_search_leaves_no_reference_cycles():
    import gc

    k4, w5 = base_graph("k4"), base_graph("w5")
    gc.collect()
    gc.disable()
    try:
        assert find_embedding(k4, k4) is not None
        assert find_embedding(k4, w5) is None
        assert gc.collect() == 0
    finally:
        gc.enable()
