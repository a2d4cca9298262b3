"""Exhaustive differential against the brute-force oracle: every graph of
networkx's graph atlas (Read & Wilson, *An Atlas of Graphs*) on 1-6
vertices, plain and with one parallel pair or one or two precolor tags, run
through both drivers at brute threshold 3 so that the reductions, not the
base, do the work.  Three 7-vertex atlas graphs with one forest tag pin
simple step 9's trade of the tagged degree-three vertex."""

from itertools import combinations

import networkx as nx
import pytest

from nbcolor import solver
from nbcolor.forbidden import default_catalog, find_embedding
from nbcolor.graph_core import FP, IP, MULTI, SINGLE, UNCOLORED, normalize, validate_coloring
from nbcolor.oracle import brute_nb_color
from nbcolor.potential import rho_m, rho_s
from nbcolor.solver import CertForbidden, CertLowPotential, Colored, color_multigraph, color_simple

# Colorable inputs that end in a Diagnostic, as (atlas index, variant,
# driver, step): the step-5a defect, whose child embeds a K4 although the
# graph has a coloring with both of the deleted vertex's neighbours in I.
# The list must match exactly, so a fix shrinks it and a new defect fails.
EXPECTED_DIAGNOSTICS = {
    (48, "F3", "multi", "5d"),
    (110, "F5", "multi", "5d"),
    (110, "F4+F5", "multi", "5d"),
    (140, "F5", "multi", "5d"),
    (141, "F1", "multi", "5d"),
    (143, "F0", "multi", "5d"),
    (143, "I4", "multi", "5d"),
}

_ATLAS = [(i, g) for i, g in enumerate(nx.graph_atlas_g()) if 1 <= g.number_of_nodes() <= 6]


def _variants(g):
    """(name, graph) for g plain, with each edge in turn a parallel pair,
    with each vertex F-tagged, each vertex I-tagged, and each vertex pair
    F-tagged."""
    n = g.number_of_nodes()
    pairs = sorted(tuple(sorted(e)) for e in g.edges())
    plain = [(u, v, SINGLE) for u, v in pairs]
    yield "plain", normalize(n, plain)
    for p in pairs:
        yield "M{}-{}".format(*p), normalize(n, [(u, v, MULTI if (u, v) == p else SINGLE) for u, v in pairs])
    for tag, name in ((FP, "F"), (IP, "I")):
        for x in range(n):
            yield f"{name}{x}", normalize(n, plain, [tag if y == x else UNCOLORED for y in range(n)])
    for x, y in combinations(range(n), 2):
        yield f"F{x}+F{y}", normalize(n, plain, [FP if z in (x, y) else UNCOLORED for z in range(n)])


@pytest.mark.parametrize("order", range(1, 7))
def test_atlas_agrees_with_the_oracle(order):
    catalog = default_catalog()
    drivers = (("multi", color_multigraph, rho_m), ("simple", color_simple, rho_s))
    diagnostics = set()
    runs = 0
    for index, g in _ATLAS:
        if g.number_of_nodes() != order:
            continue
        for variant, G in _variants(g):
            colorable = brute_nb_color(G, G.n) is not None
            for driver, solve, rho in drivers:
                if driver == "simple" and G.has_multi:
                    continue
                out = solve(G, brute_threshold=3)
                runs += 1
                if isinstance(out, Colored):
                    assert validate_coloring(G, out.coloring) is None
                elif isinstance(out, CertLowPotential):
                    assert out.subset and rho(G, out.subset) == out.rho < out.threshold
                elif isinstance(out, CertForbidden):
                    # a member is uncolorable, and so is any graph holding one
                    assert find_embedding(catalog.member(out.name).graph, G, anchor=out.mapping) is not None
                    assert not colorable
                else:
                    assert colorable, (index, variant, driver, out)
                    diagnostics.add((index, variant, driver, out.step))
    assert runs > 0
    assert diagnostics == {d for d in EXPECTED_DIAGNOSTICS if nx.graph_atlas(d[0]).number_of_nodes() == order}


def test_band_zero_step_3_matches_the_simple_band(monkeypatch):
    # A simple level whose deficit bound fails and whose step 4 will return
    # scans at band 0; every outcome and trace equals a run whose eager scan
    # always takes the simple band, as before.  Over the atlas slice at
    # threshold 3, 18 of the 47 simple scans run at band 0, and no scan has
    # m <= 0, so step 3 never acts here
    scan = solver._scan
    bands = []

    def recorded(H, n, band_top):
        bands.append(band_top)
        return scan(H, n, band_top)

    runs = 0
    for index, g in _ATLAS:
        for variant, G in _variants(g):
            if G.has_multi:
                continue
            monkeypatch.setattr(solver, "_scan", recorded)
            trace = []
            out = color_simple(G, brute_threshold=3, trace=trace)
            monkeypatch.setattr(solver, "_scan", lambda H, n, band_top: scan(H, n, solver._SIMPLE_BAND))
            ref_trace = []
            ref = color_simple(G, brute_threshold=3, trace=ref_trace)
            assert repr(out) == repr(ref) and trace == ref_trace, (index, variant)
            runs += 1
    assert runs > 5_000
    assert bands.count(0) >= 15 and bands.count(solver._SIMPLE_BAND) >= 15


# (atlas index, forest-tagged vertex): 7 vertices and 11 edges each, the
# inputs on which simple step 9 trades the tagged degree-three vertex
STEP_9_INPUTS = [(875, 4), (875, 5), (876, 0), (876, 1), (877, 3), (877, 6)]


@pytest.mark.parametrize("index, tagged", STEP_9_INPUTS)
def test_step_9_trades_the_tagged_vertex(monkeypatch, index, tagged):
    calls = {"_eliminate_b3f": [], "_tree_path": []}
    for name in calls:
        inner = getattr(solver, name)

        def counted(*args, inner=inner, name=name):
            out = inner(*args)
            calls[name].append(out)
            return out

        monkeypatch.setattr(solver, name, counted)
    g = nx.graph_atlas(index)
    pairs = sorted(tuple(sorted(e)) for e in g.edges())
    G = normalize(g.number_of_nodes(), [(u, v, SINGLE) for u, v in pairs], [FP if v == tagged else UNCOLORED for v in g])
    for threshold in range(3, 7):
        for found in calls.values():
            found.clear()
        trace = []
        out = color_simple(G, brute_threshold=threshold, trace=trace)
        assert isinstance(out, Colored) and validate_coloring(G, out.coloring) is None
        assert "9 strata endgame" in trace
        assert [type(x) for x in calls["_eliminate_b3f"]] == [Colored]
        assert calls["_tree_path"]


def test_a_failed_lone_triangle_labeling_is_retried():
    # atlas graph 877, plain: the child of step 5d's first lone-triangle
    # labeling is colored but does not lift, and the second labeling colors
    # the graph (the one retry counted over 59,363 multigraph solves, R1 in
    # ROADMAP item 2)
    g = nx.graph_atlas(877)
    G = normalize(g.number_of_nodes(), [(u, v, SINGLE) for u, v in sorted(tuple(sorted(e)) for e in g.edges())])
    trace = []
    out = color_multigraph(G, brute_threshold=3, trace=trace)
    assert isinstance(out, Colored) and validate_coloring(G, out.coloring) is None
    assert [line.split()[:2] for line in trace if line.startswith("5d")] == [["5d", "lone"]] * 2
