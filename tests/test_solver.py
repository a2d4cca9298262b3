"""Reduction machinery and the two recursive coloring drivers."""

import itertools
import random
from fractions import Fraction

import pytest

from nbcolor import solver
from nbcolor.families import (
    base_graph,
    gen_gk,
    gen_hk,
    random_sparse_multigraph,
    random_sparse_simple,
)
from nbcolor.forbidden import find_embedding
from nbcolor.graph_core import (
    FP,
    F_SIDE,
    GADGET,
    IP,
    I_SIDE,
    MULTI,
    SINGLE,
    UNCOLORED,
    Coloring,
    GraphError,
    graph,
    normalize,
    validate_coloring,
)
from nbcolor.min_potential import LARGEST, min_potential_enum
from nbcolor.oracle import brute_nb_color, enumerate_nb_colorings
from nbcolor.potential import KindError, hypergraph_for_rho_m, hypergraph_for_rho_s, rho_m, rho_s
from nbcolor.solver import (
    Blocked,
    CertForbidden,
    CertLowPotential,
    Colored,
    Diagnostic,
    color_multigraph,
    color_simple,
    discharge_classify,
    extend_over_induced_cycle,
    extend_to_forest,
    finish_structured,
    helper_extend,
    reduce_cycle_gadget,
    tree_split,
)


# -- shared fixtures -------------------------------------------------------


def instance_a():
    # two degree-four hubs over an eight-vertex forest; the left block is a
    # seven-vertex obstruction, so no coloring exists
    singles = [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (0, 3), (0, 4), (2, 5),
               (2, 6), (1, 3), (1, 6), (8, 9), (9, 10), (10, 11), (7, 8),
               (7, 9), (7, 10), (7, 11), (0, 8), (2, 11)]
    return graph(12, singles=singles)


def instance_b():
    # three path trees pinned between four degree-four vertices, one edge
    # inside the top part
    singles = [(0, 1), (1, 2), (2, 3), (4, 5), (6, 7), (8, 9),
               (8, 0), (8, 3), (8, 4), (9, 0), (9, 3), (9, 5),
               (10, 1), (10, 4), (10, 6), (10, 7), (11, 2), (11, 5),
               (11, 6), (11, 7)]
    return graph(12, singles=singles)


def instance_c():
    # sixteen-vertex path under three disjoint top edges
    singles = [(i, i + 1) for i in range(15)]
    singles += [(16, 17), (18, 19), (20, 21)]
    singles += [(16, 0), (16, 1), (16, 2), (17, 0), (17, 3), (17, 4)]
    singles += [(18, 5), (18, 6), (18, 7), (19, 8), (19, 9), (19, 10)]
    singles += [(20, 11), (20, 12), (20, 15), (21, 13), (21, 14), (21, 15)]
    return graph(22, singles=singles)


def cyc_host(k, chain=False):
    """k-cycle of degree-three vertices, attachment i sitting on k + i;
    with chain=True the attachments form a path of their own."""
    singles = [(i, (i + 1) % k) for i in range(k)] + [(i, k + i) for i in range(k)]
    if chain:
        singles += [(k + i, k + i + 1) for i in range(k - 1)]
    return graph(2 * k, singles=singles)


# -- tree splitting --------------------------------------------------------


def test_tree_split_tiny():
    assert tree_split(graph(1), [], [0]) == frozenset()
    k2 = graph(2, singles=[(0, 1)])
    assert tree_split(k2, [0], [1]) == frozenset({0})
    star = graph(4, singles=[(0, 1), (0, 2), (0, 3)])
    assert tree_split(star, [], [1, 2, 3]) == frozenset({0})
    assert tree_split(star, [1, 2], [3]) == frozenset({1, 2})


def test_tree_split_rejects():
    tri = graph(3, singles=[(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        tree_split(tri, [0], [1, 2])
    star4 = graph(5, singles=[(0, i) for i in range(1, 5)])
    with pytest.raises(ValueError):
        tree_split(star4, [], [1, 2, 3, 4])
    k2 = graph(2, singles=[(0, 1)])
    with pytest.raises(ValueError):
        tree_split(k2, [0, 1], [])  # even outside part
    with pytest.raises(ValueError):
        tree_split(k2, [0], [])  # partition misses a leaf


def random_cubic_tree(rng, grows):
    edges = [(0, 1)]
    n = 2
    for _ in range(grows):
        deg = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        v = rng.choice([u for u in range(n) if deg[u] == 1])
        edges += [(v, n), (v, n + 1)]
        n += 2
    return graph(n, singles=edges)


def test_tree_split_random():
    rng = random.Random(424242)
    for _ in range(40):
        T = random_cubic_tree(rng, rng.randint(0, 6))
        leaves = [v for v in range(T.n) if T.nsize(v) <= 1]
        out_size = rng.randrange(1, len(leaves) + 1, 2)
        s_out = set(rng.sample(leaves, out_size))
        s_in = set(leaves) - s_out
        S = tree_split(T, s_in, s_out)
        assert s_in <= S and not (s_out & S)
        for u in S:
            assert not any(w in S for w in T.adj[u])
        # each piece of T - S keeps at most one leaf
        seen = set()
        for s in range(T.n):
            if s in S or s in seen:
                continue
            comp = {s}
            seen.add(s)
            stack = [s]
            while stack:
                x = stack.pop()
                for y in T.adj[x]:
                    if y not in S and y not in seen:
                        seen.add(y)
                        comp.add(y)
                        stack.append(y)
            assert sum(1 for v in comp if v in leaves) <= 1


# -- forest extension ------------------------------------------------------


def star_host():
    return graph(4, singles=[(0, 1), (0, 2), (0, 3)])


def test_extend_single_vertex_tree():
    G = star_host()
    cases = [
        ((F_SIDE, F_SIDE, F_SIDE), I_SIDE),
        ((I_SIDE, I_SIDE, I_SIDE), F_SIDE),
        ((F_SIDE, I_SIDE, I_SIDE), F_SIDE),
        ((F_SIDE, F_SIDE, I_SIDE), None),
    ]
    for sides, want in cases:
        partial = {v + 1: s for v, s in enumerate(sides)}
        col = extend_to_forest(G, partial, [[0]])
        if want is None:
            assert col is None
        else:
            assert col.side(0) == want
            assert validate_coloring(G, col) is None


def test_extend_flex_leaf_balances_parity():
    # tree edge 0-1; 0 watches two independent-side vertices, 1 two
    # forest-side ones; the flexible leaf restores odd parity
    G = graph(6, singles=[(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    partial = {2: I_SIDE, 3: I_SIDE, 4: F_SIDE, 5: F_SIDE}
    col = extend_to_forest(G, partial, [[0, 1]])
    assert col is not None
    assert col.side(0) == F_SIDE and col.side(1) == I_SIDE
    assert validate_coloring(G, col) is None
    # with all four outside forest-side there is no odd split
    partial = {2: F_SIDE, 3: F_SIDE, 4: F_SIDE, 5: F_SIDE}
    assert extend_to_forest(G, partial, [[0, 1]]) is None


def test_extend_requires_cubic_plain():
    G = graph(3, singles=[(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        extend_to_forest(G, {1: F_SIDE, 2: F_SIDE}, [[0]])


def test_extend_split_sweep():
    G = instance_c()
    comps = [list(range(16))]
    top_edges = [(16, 17), (18, 19), (20, 21)]
    hits = 0
    for bits in range(64):
        fpart = {16 + i for i in range(6) if bits >> i & 1}
        ipart = set(range(16, 22)) - fpart
        # skip splits whose fixed part is illegal on its own
        if any(u in ipart and v in ipart for u, v in top_edges):
            continue
        partial = {v: (F_SIDE if v in fpart else I_SIDE) for v in range(16, 22)}
        col = extend_to_forest(G, partial, comps)
        if col is None:
            continue
        for v in range(16, 22):
            assert col.side(v) == partial[v]
        assert validate_coloring(G, col) is None
        hits += 1
    assert hits >= 1


def test_extend_conservative_fallthrough():
    # a split the extension cannot handle: every tree needs the exact search
    G = instance_b()
    comps = [[0, 1, 2, 3], [4, 5], [6, 7]]
    partial = {8: I_SIDE, 9: F_SIDE, 10: F_SIDE, 11: F_SIDE}
    assert extend_to_forest(G, partial, comps) is None


# -- cycle extension -------------------------------------------------------


def test_cycle_extension_sweeps():
    for k, chain, blocks in [
        (5, False, {"all-attachments-I"}),
        (5, True, {"odd-single-F-component"}),
        (4, False, {"all-attachments-I"}),
        (4, True, set()),
    ]:
        G = cyc_host(k, chain)
        C = list(range(k))
        seen_blocks = set()
        for bits in range(1 << k):
            partial = {
                k + i: (F_SIDE if bits >> i & 1 else I_SIDE) for i in range(k)
            }
            if chain and any(
                partial[k + i] == I_SIDE and partial[k + i + 1] == I_SIDE
                for i in range(k - 1)
            ):
                continue  # the fixed part already breaks independence
            out = extend_over_induced_cycle(G, C, partial)
            if isinstance(out, Blocked):
                seen_blocks.add(out.reason)
                continue
            assert validate_coloring(G, out) is None
            for z, side in partial.items():
                assert out.side(z) == side
        assert seen_blocks == blocks


def test_cycle_extension_rejects():
    with pytest.raises(ValueError):
        extend_over_induced_cycle(graph(2, singles=[(0, 1)]), [0, 1], {})
    # plain cycle vertices have only two neighbors
    c4 = graph(4, singles=[(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(ValueError):
        extend_over_induced_cycle(c4, [0, 1, 2, 3], {})
    # chord
    c5 = graph(5, singles=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    with pytest.raises(ValueError):
        extend_over_induced_cycle(c5, [0, 1, 2, 3, 4], {})
    # two outside neighbors
    P = graph(5, singles=[(0, 1), (1, 2), (0, 3), (0, 4)])
    with pytest.raises(ValueError):
        extend_over_induced_cycle(P, [0, 1, 2], {3: F_SIDE, 4: F_SIDE})


# -- cycle removal device --------------------------------------------------


def test_reduce_cycle_lifts_every_child_coloring():
    G = cyc_host(5).with_edge(5, 7, SINGLE).with_edge(6, 8, SINGLE)
    child, lift = reduce_cycle_gadget(G, [0, 1, 2, 3, 4], 5, 6)
    assert child.n == 5
    pos = {orig: i for i, orig in enumerate(lift.table)}
    assert child.kind_of(pos[5], pos[6]) == SINGLE
    cols = enumerate_nb_colorings(child)
    assert cols
    for c in cols:
        full = lift.lift(c)
        assert validate_coloring(G, full) is None
        for i, orig in enumerate(lift.table):
            assert full.side(orig) == c.side(i)


def test_reduce_cycle_upgrades_edge():
    G = cyc_host(5).with_edge(5, 6, SINGLE)
    child, lift = reduce_cycle_gadget(G, [0, 1, 2, 3, 4], 5, 6)
    pos = {orig: i for i, orig in enumerate(lift.table)}
    assert child.kind_of(pos[5], pos[6]) == GADGET
    for c in enumerate_nb_colorings(child):
        assert validate_coloring(G, lift.lift(c)) is None


def test_reduce_cycle_rejects():
    G = cyc_host(5)
    with pytest.raises(ValueError):
        reduce_cycle_gadget(G, [0, 1, 2, 3, 4], 5, 5)
    with pytest.raises(ValueError):
        reduce_cycle_gadget(G, [0, 1, 2, 3, 4], 0, 6)
    H = cyc_host(5).with_edge(5, 6, MULTI)
    with pytest.raises(GraphError):
        reduce_cycle_gadget(H, [0, 1, 2, 3, 4], 5, 6)


# -- helper colorings ------------------------------------------------------


def test_helper_extend_tree_base():
    G = graph(4, singles=[(0, 1), (1, 2), (3, 0), (3, 2)])
    col = helper_extend(G, 3)
    assert validate_coloring(G, col) is None
    assert col.i_set <= set(G.adj[3])


def test_helper_extend_cycle_base():
    G = graph(5, singles=[(0, 1), (1, 2), (2, 3), (0, 3), (4, 0), (4, 1)])
    col = helper_extend(G, 4)
    assert validate_coloring(G, col) is None
    assert col.i_set and col.i_set <= set(G.adj[4])


def test_helper_extend_rejects():
    fan = graph(6, singles=[(0, 1), (1, 2), (2, 3), (3, 4)] + [(5, i) for i in range(5)])
    with pytest.raises(ValueError):
        helper_extend(fan, 5)
    split = graph(5, singles=[(0, 1), (2, 3), (4, 0), (4, 2)])
    with pytest.raises(ValueError):
        helper_extend(split, 4)
    two_extra = graph(5, singles=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (4, 0)])
    with pytest.raises(ValueError):
        helper_extend(two_extra, 4)
    tri = graph(4, singles=[(0, 1), (1, 2), (0, 2), (3, 0)])
    with pytest.raises(ValueError):
        helper_extend(tri, 3)
    off = graph(6, singles=[(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (5, 4)])
    with pytest.raises(ValueError):
        helper_extend(off, 5)


# -- discharging -----------------------------------------------------------


def test_discharge_on_pinned_instance():
    G = instance_b()
    rep = discharge_classify(G)
    assert rep.L == frozenset(range(8))
    assert rep.B == frozenset({8, 9, 10, 11})
    assert rep.b4 == rep.B and rep.structured
    assert rep.ell == 3
    assert rep.e_prime_b == 1 and rep.e_dprime_b == 0
    assert rep.ineq_lhs == 4 and rep.ineq_ok
    assert rep.b_tilde == frozenset({8, 9})
    assert rep.ch[0] == Fraction(-1, 2)
    assert rep.ch[8] == 2
    # after the rule, the top vertices have spent everything
    assert rep.ch_star[8] == 0 and rep.ch_star[10] == 0
    assert rep.ch_star[0] == Fraction(1, 2)
    assert rep.ch_star[1] == 0


def test_discharge_identity():
    for G in (instance_a(), instance_b(), instance_c()):
        rep = discharge_classify(G)
        assert sum(rep.ch) + rep.e_dprime_b == -rho_s(G, range(G.n))


def test_discharge_rejects():
    with pytest.raises(ValueError):
        discharge_classify(base_graph("k4"))  # degree-three part has a cycle
    with pytest.raises(KindError):
        discharge_classify(graph(2, multis=[(0, 1)]))
    with pytest.raises(ValueError):
        discharge_classify(instance_b().with_precolor(0, IP))
    with pytest.raises(ValueError):
        discharge_classify(graph(2, singles=[(0, 1)]))


# -- structured endgame ----------------------------------------------------


def test_finish_structured_obstruction():
    G = instance_a()
    rep = discharge_classify(G)
    assert rep.structured and rep.ineq_ok
    assert rep.ell == 2 and rep.e_prime_b == 2
    out = finish_structured(G, rep)
    assert isinstance(out, CertForbidden) and out.name == "m7"
    patt = base_graph("m7")
    assert find_embedding(patt, G, anchor=out.mapping) is not None


def test_finish_structured_colors():
    for G in (instance_b(), instance_c()):
        out = finish_structured(G, discharge_classify(G))
        assert isinstance(out, Colored)
        assert validate_coloring(G, out.coloring) is None


def test_finish_structured_needs_frame():
    G = instance_b().with_precolor(8, FP)
    out = finish_structured(G, discharge_classify(G))
    assert isinstance(out, Diagnostic)


# -- the level scan --------------------------------------------------------


def test_scan_matches_enumeration():
    # no independent tags: the peel removes those before any level scans
    rng = random.Random(8)
    in_band = 0
    for trial in range(240):
        if trial % 2 == 0:
            heavy, rho, to_hyper, band = MULTI, rho_m, hypergraph_for_rho_m, solver._MULTI_BAND
        else:
            heavy, rho, to_hyper, band = GADGET, rho_s, hypergraph_for_rho_s, solver._SIMPLE_BAND
        n = rng.randrange(3, 10)
        p = rng.uniform(0.2, 0.7)
        raw = [
            (u, v, heavy if rng.random() < 0.15 else SINGLE)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < p
        ]
        G = normalize(n, raw, [FP if rng.random() < 0.3 else UNCOLORED for _ in range(n)])
        H = to_hyper(G)
        m, W = solver._scan(H, n, band)
        _, low = min_potential_enum(H, m1=2, m2=1, extremal=LARGEST)
        assert m <= low
        if low <= band:
            in_band += 1
            assert m == low
            assert W is not None and 2 <= len(W) <= n - 1
            assert rho(G, W) == m
        else:
            assert m > band and W is None
    assert in_band >= 100


# -- drivers: certificates and guards --------------------------------------


def test_driver_low_potential_multi():
    for k in (1, 2, 3):
        G = gen_gk(k)
        out = color_multigraph(G)
        assert isinstance(out, CertLowPotential)
        assert out.rho == -2 and out.threshold == -1
        assert rho_m(G, out.subset) == -2


def test_driver_low_potential_simple():
    G = gen_hk(1)
    out = color_simple(G)
    assert isinstance(out, CertLowPotential)
    assert out.rho == -5 and out.threshold == -4
    assert rho_s(G, out.subset) == -5


def test_driver_forbidden_certs():
    out = color_multigraph(base_graph("k4"))
    assert isinstance(out, CertForbidden) and out.name == "k4"
    out = color_multigraph(base_graph("m7"))
    assert isinstance(out, CertForbidden) and out.name == "m7"
    for name in ("w5", "j7", "j12"):
        out = color_simple(base_graph(name))
        assert isinstance(out, CertForbidden) and out.name == name
        patt = base_graph(out.name)
        assert find_embedding(patt, base_graph(name), anchor=out.mapping) is not None


def test_driver_guards():
    with pytest.raises(KindError):
        color_multigraph(graph(2, gadgets=[(0, 1)]))
    with pytest.raises(KindError):
        color_simple(graph(2, multis=[(0, 1)]))
    assert isinstance(color_multigraph(graph(0)), Colored)
    assert isinstance(color_simple(graph(0)), Colored)


def test_driver_honors_precolors():
    G = graph(5, singles=[(i, i + 1) for i in range(4)])
    G = G.with_precolor(0, FP).with_precolor(2, IP)
    out = color_multigraph(G)
    assert isinstance(out, Colored)
    assert out.coloring.side(0) == F_SIDE and out.coloring.side(2) == I_SIDE
    out = color_simple(G)
    assert isinstance(out, Colored)
    assert out.coloring.side(0) == F_SIDE and out.coloring.side(2) == I_SIDE


# -- drivers: recursion against the oracle ---------------------------------


def test_multi_recursion_on_sparse_instances():
    rng = random.Random(99)
    for _ in range(12):
        G = random_sparse_multigraph(rng, rng.randint(8, 16))
        out = color_multigraph(G, brute_threshold=6)
        assert isinstance(out, Colored)
        assert validate_coloring(G, out.coloring) is None


def test_simple_recursion_on_sparse_instances():
    rng = random.Random(7)
    for _ in range(12):
        G = random_sparse_simple(rng, rng.randint(8, 16))
        out = color_simple(G, brute_threshold=6)
        assert isinstance(out, Colored)
        assert validate_coloring(G, out.coloring) is None


def _random_instance(rng):
    n = rng.randint(2, 14)
    kind = rng.choice(["multi", "simple"])
    edges = []
    pairs = set()
    target = rng.randint(n - 1, int(1.7 * n))
    while len(edges) < target and len(pairs) < n * (n - 1) // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (min(u, v), max(u, v)) in pairs:
            continue
        pairs.add((min(u, v), max(u, v)))
        k = MULTI if kind == "multi" and rng.random() < 0.2 else SINGLE
        edges.append((u, v, k))
    G = normalize(n, edges)
    for v in range(n):
        r = rng.random()
        if r < 0.08:
            G = G.with_precolor(v, FP)
        elif r < 0.14:
            G = G.with_precolor(v, IP)
    return kind, G


def test_agreement_with_oracle():
    rng = random.Random(2024)
    seen = set()
    for _ in range(60):
        kind, G = _random_instance(rng)
        ref = brute_nb_color(G)
        out = (color_multigraph(G, brute_threshold=6) if kind == "multi"
               else color_simple(G, brute_threshold=6))
        seen.add(type(out).__name__)
        if isinstance(out, Colored):
            assert validate_coloring(G, out.coloring) is None
            assert ref is not None
        elif isinstance(out, CertLowPotential):
            r = (rho_m if kind == "multi" else rho_s)(G, out.subset)
            assert r == out.rho and r < out.threshold
        elif isinstance(out, CertForbidden):
            patt = base_graph(out.name)
            assert find_embedding(patt, G, anchor=out.mapping) is not None
        else:
            raise AssertionError(f"unexpected outcome {out!r}")
    assert {"Colored", "CertLowPotential"} <= seen


def test_trace_smoke():
    rng = random.Random(5)
    G = random_sparse_multigraph(rng, 30)
    trace = []
    out = color_multigraph(G, trace=trace)
    assert isinstance(out, Colored)
    assert trace and all(isinstance(line, str) for line in trace)
    H = random_sparse_simple(rng, 26)
    trace = []
    out = color_simple(H, trace=trace)
    assert isinstance(out, Colored)
    assert trace


# -- the peel: scale, call counts, final validation -------------------------

PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
PETERSEN += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
# a cubic graph with one extra edge, (1, 2), found by densifying a seeded
# random cubic graph while the simple floor and the catalog screen held:
# full-set simple potential 0, so the entry screen settles in one flow
DENSE10 = [(0, 7), (0, 8), (0, 9), (1, 2), (1, 3), (1, 5), (1, 9), (2, 4), (2, 6),
           (2, 7), (3, 4), (3, 6), (4, 5), (5, 6), (7, 8), (8, 9)]


def hung_on(core, core_n, n, chains=20, chain_len=200):
    """`core` with `chains` subdivided chains of `chain_len` inner vertices
    between core vertices, and a pendant path on vertex 0 up to n vertices."""
    rng = random.Random(11)
    singles = list(core)
    count = core_n
    for _ in range(chains):
        a, b = rng.sample(range(core_n), 2)
        path = [a] + list(range(count, count + chain_len)) + [b]
        singles += list(zip(path, path[1:]))
        count += chain_len
    path = [0] + list(range(count, n))
    singles += list(zip(path, path[1:]))
    return graph(n, singles=singles)


def test_multi_peel_at_scale():
    G = hung_on(PETERSEN, 10, 20_000)
    out = color_multigraph(G)
    assert isinstance(out, Colored)
    assert validate_coloring(G, out.coloring) is None


def test_simple_peel_at_scale():
    assert rho_s(graph(10, singles=DENSE10), range(10)) == 0
    G = hung_on(DENSE10, 10, 20_000)
    out = color_simple(G)
    assert isinstance(out, Colored)
    assert validate_coloring(G, out.coloring) is None


def test_peel_rebuilds_and_validates_a_constant_number_of_times(monkeypatch):
    calls = {"induced_subgraph": 0, "validate_coloring": 0}
    for name in calls:
        def counted(*args, _fn=getattr(solver, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(solver, name, counted)
    G = hung_on(PETERSEN, 10, 5_000, chains=5, chain_len=100)
    trace = []
    out = color_multigraph(G, trace=trace)
    assert isinstance(out, Colored)
    # one line per vertex peeled down to the brute-force threshold, then the base
    assert len(trace) == 5_000 - 22 + 1
    # one core rebuild; the core's validation plus the driver's final one
    assert calls == {"induced_subgraph": 1, "validate_coloring": 2}


def test_driver_rejects_an_invalid_base_coloring(monkeypatch):
    monkeypatch.setattr(solver, "brute_nb_color", lambda G, threshold: Coloring((I_SIDE,) * G.n))
    out = color_multigraph(graph(10, singles=PETERSEN))
    assert isinstance(out, Diagnostic) and out.step == "final"
    out = color_simple(graph(10, singles=DENSE10))
    assert isinstance(out, Diagnostic) and out.step == "final"
    # behind a peel, the level above the core reports it
    out = color_multigraph(hung_on(PETERSEN, 10, 40, chains=1, chain_len=10))
    assert isinstance(out, Diagnostic) and out.step == "2b"
    assert out.message.startswith("lifted coloring violates edge-inside-I")
