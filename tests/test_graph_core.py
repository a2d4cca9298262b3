"""Graph type, coloring validation, contraction, and the .nbg text format."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbcolor.families import multiedge_replacement
from nbcolor.graph_core import (
    FP,
    GADGET,
    IP,
    MULTI,
    SINGLE,
    UNCOLORED,
    Coloring,
    ContractionRejected,
    F_SIDE,
    Graph,
    GraphError,
    I_SIDE,
    coloring_from_i_set,
    contract_colored_subset,
    graph,
    induced_cycles,
    induced_subgraph,
    normalize,
    parse_nbg,
    validate_coloring,
    write_nbg,
)


def coloring(n, i_set):
    return coloring_from_i_set(n, i_set)


# -- construction and normalization ---------------------------------------


def test_graph_builder_records_kinds():
    G = graph(4, singles=[(0, 1)], multis=[(1, 2)], gadgets=[(2, 3)], fp=[0], ip=[3])
    assert G.kind_of(0, 1) == SINGLE
    assert G.kind_of(1, 2) == MULTI
    assert G.kind_of(2, 3) == GADGET
    assert G.kind_of(0, 2) is None
    assert G.precolor[0] == FP and G.precolor[3] == IP
    assert G.precolor[1] == UNCOLORED
    assert G.fp_set == {0} and G.ip_set == {3} and G.up_set == {1, 2}


def test_normalize_merges_duplicate_singles_into_multi():
    G = normalize(3, [(0, 1, SINGLE), (1, 0, SINGLE), (1, 2, SINGLE)])
    assert G.kind_of(0, 1) == MULTI
    assert G.kind_of(1, 2) == SINGLE


def test_normalize_caps_multiplicity_at_two():
    G = normalize(2, [(0, 1, SINGLE), (0, 1, MULTI), (0, 1, SINGLE)])
    assert G.edges == ((0, 1, MULTI),)


def test_normalize_rejects_bad_records():
    with pytest.raises(GraphError):
        normalize(3, [(0, 0, SINGLE)])
    with pytest.raises(GraphError):
        normalize(3, [(0, 3, SINGLE)])
    with pytest.raises(GraphError):
        normalize(3, [(-1, 1, SINGLE)])
    with pytest.raises(GraphError):
        normalize(3, [(0, 1, "twisted")])
    with pytest.raises(GraphError):
        normalize(3, [(0, 1, GADGET), (0, 1, SINGLE)])


def test_edges_are_sorted_and_canonical():
    G = normalize(4, [(3, 2, SINGLE), (1, 0, SINGLE)])
    assert G.edges == ((0, 1, SINGLE), (2, 3, SINGLE))


def test_degree_counts_multiplicity():
    G = graph(4, singles=[(0, 1)], multis=[(0, 2)], gadgets=[(0, 3)])
    # degree: single 1, parallel pair 2, gadget 1; nsize counts distinct pairs
    assert G.degree(0) == 4
    assert G.nsize(0) == 3
    assert G.degree(2) == 2 and G.nsize(2) == 1
    assert G.degree(3) == 1 and G.nsize(3) == 1


def test_edit_helpers():
    G = graph(3, singles=[(0, 1)])
    assert G.with_edge(0, 1, SINGLE).kind_of(0, 1) == MULTI
    assert G.with_edge(1, 2, SINGLE).kind_of(1, 2) == SINGLE
    with pytest.raises(GraphError):
        G.with_edge(0, 1, GADGET)
    assert G.set_kind(0, 1, MULTI).kind_of(0, 1) == MULTI
    assert G.without_edge(0, 1).edges == ()
    assert G.with_precolor(2, FP).precolor[2] == FP
    H = G.add_vertices(2, tags=(IP, UNCOLORED))
    assert H.n == 5 and H.precolor[3] == IP and H.precolor[4] == UNCOLORED


def test_components():
    G = graph(5, singles=[(0, 1), (3, 4)])
    assert G.components() == [[0, 1], [2], [3, 4]]


# -- coloring validation --------------------------------------------------


def test_validate_edge_inside_i():
    G = graph(3, singles=[(0, 1), (1, 2)])
    v = validate_coloring(G, coloring(3, {0, 1}))
    assert v is not None and v.rule == "edge-inside-I"
    assert validate_coloring(G, coloring(3, {0, 2})) is None


def test_validate_multi_is_a_two_circuit():
    G = graph(2, multis=[(0, 1)])
    assert validate_coloring(G, coloring(2, {0, 1})).rule == "edge-inside-I"
    assert validate_coloring(G, coloring(2, set())).rule == "circuit-inside-F"
    assert validate_coloring(G, coloring(2, {0})) is None
    assert validate_coloring(G, coloring(2, {1})) is None


def test_validate_gadget_forces_exactly_one_i():
    G = graph(2, gadgets=[(0, 1)])
    assert validate_coloring(G, coloring(2, {0, 1})).rule == "edge-inside-I"
    assert validate_coloring(G, coloring(2, set())).rule == "circuit-inside-F"
    assert validate_coloring(G, coloring(2, {0})) is None


def test_validate_f_cycle():
    G = graph(4, singles=[(0, 1), (1, 2), (2, 3), (0, 3)])
    v = validate_coloring(G, coloring(4, set()))
    assert v.rule == "cycle-inside-F"
    assert sorted(v.witness) == [0, 1, 2, 3]
    assert validate_coloring(G, coloring(4, {0, 2})) is None


def test_validate_respects_precolor():
    G = graph(2, singles=[(0, 1)], fp=[0], ip=[1])
    assert validate_coloring(G, coloring(2, {1})) is None
    assert validate_coloring(G, coloring(2, {0})).rule == "precolor-ignored"
    assert validate_coloring(G, coloring(2, set())).rule == "precolor-ignored"


def test_validate_rejects_wrong_length():
    G = graph(2, singles=[(0, 1)])
    with pytest.raises(GraphError):
        validate_coloring(G, coloring(3, set()))


# -- validation against an expansion reference ----------------------------
#
# Reference semantics: a parallel pair is two plain edges (so its endpoints
# must straddle the cut), and a gadget is the five-vertex widget from
# multiedge_replacement.  A coloring of G is valid exactly when some
# completion over the widget vertices satisfies plain independence plus
# forest on the expansion.


def _expansion_valid(G, sides):
    for u, v, kind in G.edges:
        if kind == MULTI and sides[u] == sides[v]:
            return False
    plain = [(u, v) for u, v, k in G.edges if k == SINGLE]
    widgets = []
    fresh = G.n
    for u, v, kind in G.edges:
        if kind == GADGET:
            x, y, z = fresh, fresh + 1, fresh + 2
            fresh += 3
            widgets.append((x, y, z))
            plain += [(u, v), (u, x), (u, y), (x, y), (x, z), (y, z), (z, v)]
    for combo in itertools.product((I_SIDE, F_SIDE), repeat=3 * len(widgets)):
        full = dict(sides)
        pos = 0
        for x, y, z in widgets:
            full[x], full[y], full[z] = combo[pos : pos + 3]
            pos += 3
        if any(full[u] == I_SIDE and full[v] == I_SIDE for u, v in plain):
            continue
        parent = list(range(fresh))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for u, v in plain:
            if full[u] == F_SIDE and full[v] == F_SIDE:
                ru, rv = find(u), find(v)
                if ru == rv:
                    ok = False
                    break
                parent[ru] = rv
        if ok:
            return True
    return False


EXPANSION_CASES = [
    graph(4, singles=[(0, 1), (1, 2)], multis=[(2, 3)]),
    graph(4, singles=[(0, 1), (2, 3)], gadgets=[(1, 2)]),
    graph(5, singles=[(0, 1), (1, 2), (2, 0)], gadgets=[(3, 4)], fp=[0]),
    graph(5, multis=[(0, 1)], gadgets=[(2, 3)], singles=[(1, 2), (3, 4), (4, 0)]),
    graph(6, singles=[(0, 1), (1, 2), (2, 3), (3, 0)], gadgets=[(0, 4), (2, 5)]),
    graph(3, multis=[(0, 1), (1, 2)], singles=[(0, 2)]),
]


@pytest.mark.parametrize("G", EXPANSION_CASES)
def test_validate_matches_expansion_reference(G):
    for bits in range(1 << G.n):
        i_set = {v for v in range(G.n) if bits >> v & 1}
        c = coloring(G.n, i_set)
        sides = {v: c.side(v) for v in range(G.n)}
        mine = validate_coloring(G, c) is None
        # the reference has no precolor notion; apply that rule separately
        pre_ok = all(
            (G.precolor[v] != FP or c.side(v) == F_SIDE)
            and (G.precolor[v] != IP or c.side(v) == I_SIDE)
            for v in range(G.n)
        )
        assert mine == (pre_ok and _expansion_valid(G, sides))


# -- subgraphs and contraction -------------------------------------------


def test_induced_subgraph_keeps_kinds_and_tags():
    G = graph(5, singles=[(0, 2), (2, 4)], multis=[(0, 4)], fp=[2])
    sub, table = induced_subgraph(G, {0, 2, 4})
    assert table == (0, 2, 4)
    assert sub.n == 3
    assert sub.kind_of(0, 1) == SINGLE and sub.kind_of(1, 2) == SINGLE
    assert sub.kind_of(0, 2) == MULTI
    assert sub.precolor[1] == FP


def _induced_cycles_by_brute_force(G, allowed, k):
    """Every induced k-cycle (k = 3 or 5) inside `allowed`, written from its
    smallest vertex towards the smaller of that vertex's two cycle
    neighbours.  On 3 or 5 vertices, a 2-regular induced graph is one cycle."""
    out = set()
    for S in itertools.combinations(sorted(allowed), k):
        inside = {v: [u for u in G.adj[v] if u in S] for v in S}
        if any(len(nb) != 2 for nb in inside.values()):
            continue
        walk = [S[0], min(inside[S[0]])]
        while len(walk) < k:
            a, b = inside[walk[-1]]
            walk.append(b if a == walk[-2] else a)
        out.add(tuple(walk))
    return out


def test_induced_cycles_match_brute_force():
    rng = random.Random(35)
    found = {3: 0, 5: 0}
    for _ in range(300):
        n = rng.randrange(3, 12)
        p = rng.uniform(0.15, 0.45)
        raw = [
            (u, v, rng.choice((SINGLE, SINGLE, MULTI, GADGET)))
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < p
        ]
        G = normalize(n, raw)
        allowed = frozenset(v for v in range(n) if rng.random() < 0.85)
        got = list(induced_cycles(G, allowed))
        lengths = [len(c) for c in got]
        assert lengths == sorted(lengths)  # triangles first
        for k in (3, 5):
            cycles = [c for c in got if len(c) == k]
            assert len(cycles) == len(set(cycles))
            assert set(cycles) == _induced_cycles_by_brute_force(G, allowed, k)
            found[k] += len(cycles)
    assert found[3] >= 100 and found[5] >= 40


def test_contract_multi_mode_basic():
    # P4 with W = middle pair, colored I/F; outside edges route to wi/wf
    G = graph(4, singles=[(0, 1), (1, 2), (2, 3)])
    cW = Coloring((I_SIDE, F_SIDE))
    Gp, lift = contract_colored_subset(G, [1, 2], cW, mode="multi")
    assert Gp.n == 4  # 0, 3, wi, wf
    assert Gp.precolor.count(IP) == 1 and Gp.precolor.count(FP) == 1
    child = coloring(4, {v for v in range(4) if Gp.precolor[v] == IP})
    assert validate_coloring(Gp, child) is None
    full = lift.lift(child)
    assert validate_coloring(G, full) is None
    assert full.side(1) == I_SIDE and full.side(2) == F_SIDE


def test_contract_multi_mode_caps_parallelism():
    # vertex 0 sends two singles into the F part of W: they fold to one multi
    G = graph(4, singles=[(0, 1), (0, 2), (1, 2), (2, 3)])
    cW = Coloring((F_SIDE, F_SIDE))
    Gp, _ = contract_colored_subset(G, [1, 2], cW, mode="multi")
    wf = next(v for v in range(Gp.n) if Gp.precolor[v] == FP)
    out = next(v for v in range(Gp.n) if Gp.precolor[v] == UNCOLORED and Gp.nsize(v) > 0)
    assert Gp.kind_of(out, wf) == MULTI


def test_contract_simple_mode_rejects_multiplicity():
    G = graph(4, singles=[(0, 1), (0, 2), (1, 2), (2, 3)])
    cW = Coloring((F_SIDE, F_SIDE))
    with pytest.raises(ContractionRejected) as info:
        contract_colored_subset(G, [1, 2], cW, mode="simple")
    assert info.value.vertex == 0


def test_contract_simple_mode_rejects_gadget_into_subset():
    G = graph(3, gadgets=[(0, 1)], singles=[(1, 2)])
    with pytest.raises(ContractionRejected):
        contract_colored_subset(G, [1], Coloring((F_SIDE,)), mode="simple")


def test_contract_simple_mode_basic():
    G = graph(5, singles=[(0, 1), (1, 2), (2, 3), (3, 4)])
    cW = Coloring((F_SIDE, I_SIDE, F_SIDE))
    Gp, lift = contract_colored_subset(G, [1, 2, 3], cW, mode="simple")
    child = coloring(Gp.n, {v for v in range(Gp.n) if Gp.precolor[v] == IP})
    assert validate_coloring(Gp, child) is None
    full = lift.lift(child)
    assert validate_coloring(G, full) is None


def test_contract_lift_small_random():
    import random

    rng = random.Random(11)
    done = 0
    from nbcolor.oracle import brute_nb_color

    while done < 25:
        n = rng.randrange(4, 9)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        G = graph(n, singles=pairs[: rng.randrange(n - 1, 2 * n - 2)])
        W = sorted(rng.sample(range(n), rng.randrange(2, n - 1)))
        sub, _ = induced_subgraph(G, W)
        cW = brute_nb_color(sub)
        if cW is None or not sub.edges:
            continue
        try:
            Gp, lift = contract_colored_subset(G, W, cW, mode="multi")
        except GraphError:
            continue
        child = brute_nb_color(Gp)
        if child is None:
            continue
        full = lift.lift(child)
        assert validate_coloring(G, full) is None
        done += 1


# -- text format ----------------------------------------------------------


NBG_SAMPLE = """# sample
n 4
v 0 f
v 3 i
e 0 1
m 1 2
g 2 3
"""


def test_parse_nbg_sample():
    G = parse_nbg(NBG_SAMPLE)
    assert G.n == 4
    assert G.kind_of(0, 1) == SINGLE
    assert G.kind_of(1, 2) == MULTI
    assert G.kind_of(2, 3) == GADGET
    assert G.precolor == (FP, UNCOLORED, UNCOLORED, IP)


def test_write_parse_round_trip_exact():
    G = parse_nbg(NBG_SAMPLE)
    text = write_nbg(G, comment="sample")
    assert parse_nbg(text) == G
    assert write_nbg(parse_nbg(text), comment="sample") == text


def test_parse_nbg_without_n_line_infers_count():
    assert parse_nbg("e 0 1\n").n == 2


def test_parse_nbg_errors():
    with pytest.raises(GraphError):
        parse_nbg("n 2\nq 0 1\n")
    with pytest.raises(GraphError):
        parse_nbg("n 2\ne 0 2\n")
    with pytest.raises(GraphError):
        parse_nbg("n 2\nv 0 x\n")
    with pytest.raises(GraphError):
        parse_nbg("n 2\nn 3\n")


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = list(itertools.combinations(range(n), 2))
    kinds = draw(
        st.lists(
            st.sampled_from([None, None, SINGLE, MULTI, GADGET]),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    raw = [(u, v, k) for (u, v), k in zip(pairs, kinds) if k is not None]
    pre = draw(
        st.lists(
            st.sampled_from([UNCOLORED, UNCOLORED, FP, IP]),
            min_size=n,
            max_size=n,
        )
    )
    return normalize(n, raw, pre)


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_nbg_round_trip_property(G):
    assert parse_nbg(write_nbg(G)) == G
