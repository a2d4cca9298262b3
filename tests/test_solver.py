"""Reduction machinery and the two recursive coloring drivers."""

import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest

from nbcolor import min_potential, solver
from nbcolor.families import (
    base_graph,
    gen_gk,
    gen_hk,
    random_sparse_multigraph,
    random_sparse_simple,
)
from nbcolor.forbidden import default_catalog, find_embedding, find_forbidden_subgraph
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
from nbcolor.min_potential import (
    LARGEST,
    FlowNetwork,
    build_aux_network,
    min_potential_constrained,
    min_potential_enum,
    min_potential_pinned,
)
from nbcolor.oracle import brute_nb_color, enumerate_nb_colorings
from nbcolor.potential import (
    RHO_M,
    RHO_S,
    KindError,
    hypergraph,
    hypergraph_for_rho_m,
    hypergraph_for_rho_s,
    rho_m,
    rho_s,
    screen_kernel,
)
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
    """A tree whose non-leaves have degree three, grown from an edge by
    splitting a random leaf `grows` times."""
    edges = [(0, 1)]
    leaves = [0, 1]  # increasing, since new leaves get the largest ids
    for _ in range(grows):
        v = rng.choice(leaves)
        n = len(edges) + 1
        leaves.remove(v)
        leaves += [n, n + 1]
        edges += [(v, n), (v, n + 1)]
    return graph(len(edges) + 1, singles=edges)


def structured_instance(rng, grows, b_edges=1):
    """A random cubic tree, the degree-three part L, whose leaves each send
    two edges into a set B of degree-four vertices with b_edges plain edges
    inside B.  The tree grows once more when B's degrees would not come out
    even.  With one B-edge the whole graph has rho_s = -2 and discharges to a
    structured level with ell = 1 and e'(B) = 1."""
    T = random_cubic_tree(rng, grows + (grows + b_edges) % 2)
    leaves = [v for v in range(T.n) if T.nsize(v) == 1]
    slots = [T.n + b for b in range((len(leaves) + b_edges) // 2) for _ in range(4)]
    while True:
        rng.shuffle(slots)
        pairs = list(zip(slots[::2], slots[1::2]))
        inside = pairs[len(leaves):]
        if all(a != b for a, b in pairs) and len({frozenset(e) for e in inside}) == b_edges:
            break
    singles = [(u, v) for u, v, _ in T.edges] + inside
    singles += [(w, b) for w, pair in zip(leaves, pairs) for b in pair]
    return graph(T.n + len(slots) // 4, singles=singles)


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
    # each gadget keeps one unit of charge; the instances with B-B edges
    # turned into gadgets exercise that unit
    gadgets = 0
    for G in (
        instance_a(),
        instance_b(),
        instance_c(),
        instance_a().set_kind(0, 1, GADGET),
        instance_b().set_kind(8, 9, GADGET),
        instance_c().set_kind(16, 17, GADGET).set_kind(18, 19, GADGET).set_kind(20, 21, GADGET),
    ):
        rep = discharge_classify(G)
        assert sum(rep.ch) + rep.e_dprime_b == -rho_s(G, range(G.n))
        gadgets += rep.e_dprime_b
    assert gadgets == 5


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


def _recursive_engine(G, Lset, F_B):
    """The structured endgame's own search before it ran on the oracle's:
    a rollback union-find seeded with the F-components of G[B], and a
    recursive place over the same vertex order.  Returns an I-set or None."""
    I_B = [v for v in range(G.n) if v not in Lset and v not in F_B]
    i_b_set = set(I_B)
    croot = {}
    for v in sorted(F_B):
        if v in croot:
            continue
        croot[v] = v
        stack = [v]
        while stack:
            x = stack.pop()
            for y in G.adj[x]:
                if y in F_B and y not in croot and G.kind_of(x, y) != GADGET:
                    croot[y] = v
                    stack.append(y)
    parent = {("b", r): ("b", r) for r in set(croot.values())}
    trail = []

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = root(a), root(b)
        if ra == rb:
            return False
        parent[ra] = rb
        trail.append(ra)
        return True

    def undo(mark):
        while len(trail) > mark:
            ra = trail.pop()
            parent[ra] = ra

    order = []
    for comp in solver._l_components(G, Lset):
        stack = [comp[0]]
        seen = {comp[0]}
        while stack:
            x = stack.pop()
            order.append(x)
            for y in sorted(G.adj[x], reverse=True):
                if y in Lset and y not in seen:
                    seen.add(y)
                    stack.append(y)
    side = {}

    def place(i):
        if i == len(order):
            return True
        v = order[i]
        if not any(u in i_b_set or side.get(u) == I_SIDE for u in G.adj[v]):
            side[v] = I_SIDE
            if place(i + 1):
                return True
            del side[v]
        mark = len(trail)
        parent[v] = v
        ok = True
        for u in G.adj[v]:
            target = ("b", croot[u]) if u in F_B else u if side.get(u) == F_SIDE else None
            if target is not None and not union(v, target):
                ok = False
                break
        if ok:
            side[v] = F_SIDE
            if place(i + 1):
                return True
            del side[v]
        undo(mark)
        del parent[v]
        return False

    if not place(0):
        return None
    return set(I_B) | {v for v in order if side[v] == I_SIDE}


def test_endgame_engine_matches_the_recursive_search():
    # every candidate split of small structured inputs, gadget variants
    # (step-9 levels) and an obstruction, where no split extends over L
    rng = random.Random(25)
    graphs = [
        instance_a(),
        instance_b(),
        instance_c(),
        instance_b().set_kind(8, 9, GADGET),
        instance_c().set_kind(16, 17, GADGET).set_kind(18, 19, GADGET),
    ]
    graphs += [structured_instance(rng, rng.randint(1, 6), rng.randint(1, 4)) for _ in range(60)]
    colored = blocked = 0
    for G in graphs:
        rep = discharge_classify(G)
        for F_B in solver._candidate_fb(G, rep):
            want = _recursive_engine(G, rep.L, F_B)
            got = solver._endgame_engine(G, rep.L, F_B)
            if want is None:
                assert got is None
                blocked += 1
            else:
                assert got is not None and got.i_set == want
                colored += 1
    assert colored > 500 and blocked > 50


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


def _sweep_order_per_pop(H, n):
    """The sweep order as first written: a generator per edge member, and a
    sorted copy of the adjacency list at every visit."""
    adj = [[] for _ in range(n)]
    for members, _ in H.edges:
        for u in members:
            adj[u].extend(v for v in members if v != u)
    seen = [False] * n
    order = []
    for root in range(n):
        stack = [root]
        while stack:
            u = stack.pop()
            if not seen[u]:
                seen[u] = True
                order.append(u)
                stack.extend(sorted(adj[u], reverse=True))
    return order


def test_sweep_order_matches_the_per_pop_sort():
    rng = random.Random(1949)
    graphs = [_random_cubic(seed, n) for seed, n in ((1, 20), (2, 60), (3, 140))]
    for _ in range(400):
        n = rng.randint(1, 30)
        p = rng.uniform(0.02, 0.5)
        graphs.append(normalize(n, [(u, v, SINGLE) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]))
    for G in graphs:
        for to_hyper in (hypergraph_for_rho_m, hypergraph_for_rho_s):
            H = to_hyper(G)
            assert solver._sweep_order(H, G.n) == _sweep_order_per_pop(H, G.n)


def test_scan_witness_is_canonical():
    # an in-band witness is enumeration's answer on the window, set included:
    # the smallest potential, then the largest set, then the smallest tuple
    rng = random.Random(2718)
    in_band = 0
    for trial in range(200):
        if trial % 2 == 0:
            heavy, to_hyper, band = MULTI, hypergraph_for_rho_m, solver._MULTI_BAND
        else:
            heavy, to_hyper, band = GADGET, hypergraph_for_rho_s, solver._SIMPLE_BAND
        n = rng.randrange(3, 11)
        p = rng.uniform(0.2, 0.7)
        raw = [
            (u, v, heavy if rng.random() < 0.15 else SINGLE)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < p
        ]
        G = normalize(n, raw, [FP if rng.random() < 0.3 else UNCOLORED for _ in range(n)])
        H = to_hyper(G)
        m, W = solver._scan(H, n, band)
        if m <= band:
            in_band += 1
            assert (W, Fraction(m)) == min_potential_enum(H, m1=2, m2=1, extremal=LARGEST)
    assert in_band >= 80


def test_deficit_bound_matches_enumeration():
    # Whenever the bound holds, every proper nonempty set of the connected
    # graph has rho_s >= 1.  A forest-tagged leaf on a gadget has c = -5 and
    # sits in a set of potential 0, so a bound that also took a zero sum
    # would fail here, and so would one summing every c(v), which is twice
    # the whole graph's potential.
    rng = random.Random(1903)
    certified = 0
    trials = 2000
    for _ in range(trials):
        n = rng.randint(3, 11)
        p = rng.uniform(0.0, 0.35)
        pairs = {(rng.randrange(v), v) for v in range(1, n)}  # a spanning tree
        pairs |= {e for e in itertools.combinations(range(n), 2) if rng.random() < p}
        raw = [(u, v, GADGET if rng.random() < 0.15 else SINGLE) for u, v in sorted(pairs)]
        G = normalize(n, raw, [FP if rng.random() < 0.3 else UNCOLORED for _ in range(n)])
        H = hypergraph_for_rho_s(G)
        if solver._deficit_bound(H):
            certified += 1
            assert min_potential_enum(H, m1=1, m2=1)[1] >= 1
    assert certified >= 300 and trials - certified >= 300, certified


@pytest.mark.parametrize("to_hyper, band", [
    (hypergraph_for_rho_m, solver._MULTI_BAND),
    (hypergraph_for_rho_s, solver._SIMPLE_BAND),
], ids=["rho_m", "rho_s"])
def test_scan_refuses_a_vertex_of_potential_zero(to_hyper, band):
    # an independent-tagged vertex has potential 0, so its singleton's bound
    # would fall in band; the peel removes such vertices before any scan
    G = normalize(5, [(0, 1, SINGLE), (1, 2, SINGLE), (2, 3, SINGLE), (3, 4, SINGLE), (4, 0, SINGLE)],
                  [UNCOLORED, IP, UNCOLORED, FP, UNCOLORED])
    H = to_hyper(G)
    assert H.vertex_weights[1] == 0
    with pytest.raises(ValueError):
        solver._scan(H, G.n, band)


def _random_cubic(seed, n):
    """A Hamiltonian cycle through a random vertex order plus a random
    perfect matching on it, retried until no chord doubles a cycle edge."""
    rng = random.Random(seed)
    while True:
        cycle = rng.sample(range(n), n)
        match = rng.sample(range(n), n)
        ring = {frozenset((cycle[i - 1], cycle[i])) for i in range(n)}
        chords = {frozenset(match[i:i + 2]) for i in range(0, n, 2)}
        if not ring & chords:
            return normalize(n, [(*sorted(e), SINGLE) for e in ring | chords])


def _scan_lookups(monkeypatch, to_hyper, band, n=120):
    """Nodes expanded by every residual search of one above-band scan of a
    fixed n-vertex cubic graph: each expansion is one head lookup."""
    G = _random_cubic(1, n)
    H = to_hyper(G)
    min_potential_pinned(H)  # the warm flow, built outside the count
    lookups = 0

    class CountingHead(list):
        def __getitem__(self, u):
            nonlocal lookups
            lookups += 1
            return list.__getitem__(self, u)

    def counted(search):
        def run(self, *args):
            head = self.head
            self.head = CountingHead(head)
            try:
                return search(self, *args)
            finally:
                self.head = head

        return run

    for name in ("_levels", "_augmenting_path", "source_side"):
        monkeypatch.setattr(FlowNetwork, name, counted(getattr(FlowNetwork, name)))
    m, W = solver._scan(H, G.n, band)
    assert m > band and W is None
    return lookups


@pytest.mark.parametrize(
    "to_hyper, band, bound",
    [
        (hypergraph_for_rho_m, solver._MULTI_BAND, 7_700),
        (hypergraph_for_rho_s, solver._SIMPLE_BAND, 1_400),
    ],
    ids=["rho_m", "rho_s"],
)
def test_scan_search_work(monkeypatch, to_hyper, band, bound):
    # With the sweep in vertex-id order, every flow started from the warm
    # flow and W taken from a second search from s, this graph took 208,908
    # (rho_m) and 47,205 (rho_s) lookups; chained flows along a depth-first
    # sweep, with W read off each flow's last search, took about 140,000 and
    # 7,100, and chained flows repaired by path searches seeded from the
    # open terminal arcs take 6,409 and 1,145.
    assert _scan_lookups(monkeypatch, to_hyper, band) <= bound


@pytest.mark.parametrize(
    "to_hyper, band, bound",
    [
        (hypergraph_for_rho_m, solver._MULTI_BAND, 7_700),
        (hypergraph_for_rho_s, solver._SIMPLE_BAND, 1_400),
    ],
    ids=["rho_m", "rho_s"],
)
def test_scan_search_work_unperturbed(monkeypatch, to_hyper, band, bound):
    # The sweep's flows run on the plain network, and each stops once its
    # value proves the pair above the band, so no flow of this above-band
    # scan runs its final, failing search.  Each flow repairs the one before
    # it by path searches seeded from the open terminal arcs: 6,409 (rho_m)
    # and 1,145 (rho_s) lookups.  Dinic phases from t, stopped at the same
    # cutoff, took 19,034 and 1,466; run to their maximum, 48,090 and 5,658;
    # and a sweep on a LARGEST network perturbed by (n + 1) scaling, 139,864
    # and 7,123.
    assert _scan_lookups(monkeypatch, to_hyper, band) <= bound


def test_scan_search_work_per_flow_grows_slowly(monkeypatch):
    # A repaired scan flow searches near the arcs its two pins open, so its
    # work barely grows with the graph.  Per flow of an above-band rho_m
    # scan, n = 120 -> 480: 53.4 -> 91.8 lookups (x1.7).  Dinic phases from
    # t, which flood outwards from every open arc into t, took 158.6 ->
    # 528.8 (x3.3).
    per_flow = []
    for n in (120, 480):
        per_flow.append(_scan_lookups(monkeypatch, hypergraph_for_rho_m, solver._MULTI_BAND, n) / n)
        monkeypatch.undo()
    assert per_flow[1] < 2.5 * per_flow[0]


def _asking(monkeypatch):
    """Records each (extremal, below, force, ban, W, value) the scan asks
    for."""
    asked = []

    def pinned(H, force=(), ban=(), extremal=LARGEST, below=None):
        W, r = min_potential_pinned(H, force, ban, extremal, below)
        asked.append((extremal, below, tuple(force), tuple(ban), W, r))
        return W, r

    monkeypatch.setattr(solver, "min_potential_pinned", pinned)
    return asked


@pytest.mark.parametrize("to_hyper, band", [
    (hypergraph_for_rho_m, solver._MULTI_BAND),
    (hypergraph_for_rho_s, solver._SIMPLE_BAND),
], ids=["rho_m", "rho_s"])
def test_above_band_scan_asks_each_pair_once(monkeypatch, to_hyper, band):
    G = _random_cubic(1, 120)
    H = to_hyper(G)
    asked = _asking(monkeypatch)
    m, W = solver._scan(H, G.n, band)
    assert m > band and W is None
    assert [(mode, below) for mode, below, *_ in asked] == [(LARGEST, band + 1)] * G.n


def test_in_band_scan_asks_each_pair_once(monkeypatch):
    # each pin pair is asked once, under LARGEST with the band's top plus one
    # as its cutoff; a pair whose value lies in the band gets its witness
    # from that one ask, the largest minimizer of the pair's family
    asked = _asking(monkeypatch)
    rng = random.Random(99)
    in_band = mixed = 0
    for trial in range(120):
        H, n, band = _random_level(rng, trial)
        asked.clear()
        m, W = solver._scan(H, n, band)
        assert len(asked) == n == len({(f, b) for _, _, f, b, *_ in asked})
        pairs_in_band = 0
        for mode, below, f, b, W_pair, r in asked:
            assert (mode, below) == (LARGEST, band + 1)
            if r <= band:
                pairs_in_band += 1
                assert W_pair == _pinned_largest(H, f, b)
            else:
                assert W_pair is None
        if m <= band:
            in_band += 1
            mixed += pairs_in_band < n
    assert in_band >= 40 and mixed >= 10


def _random_level(rng, trial):
    """A level to scan, with no independent tags: (H, n, band), for rho_m on
    even trials and rho_s on odd ones."""
    if trial % 2 == 0:
        heavy, to_hyper, band = MULTI, hypergraph_for_rho_m, solver._MULTI_BAND
    else:
        heavy, to_hyper, band = GADGET, hypergraph_for_rho_s, solver._SIMPLE_BAND
    n = rng.randrange(3, 10)
    p = rng.uniform(0.2, 0.7)
    raw = [
        (u, v, heavy if rng.random() < 0.15 else SINGLE)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    G = normalize(n, raw, [FP if rng.random() < 0.3 else UNCOLORED for _ in range(n)])
    return to_hyper(G), n, band


def test_in_band_scan_runs_no_bfs_after_a_repaired_flow(monkeypatch):
    # A repaired flow that reaches its maximum ends with its failed path
    # search and labels nothing more: the scan reads an in-band witness by
    # one search from s, and no solver path reads the nodes that reach t
    kernel, levels = FlowNetwork.max_flow, FlowNetwork._levels
    repairing = False
    repaired = bfs_in_repair = 0

    def flow(self, s, t, limit=None, open_arcs=None):
        nonlocal repairing, repaired
        repairing = open_arcs is not None
        repaired += repairing
        try:
            return kernel(self, s, t, limit, open_arcs)
        finally:
            repairing = False

    def counted_levels(self, *args):
        nonlocal bfs_in_repair
        bfs_in_repair += repairing
        return levels(self, *args)

    monkeypatch.setattr(FlowNetwork, "max_flow", flow)
    monkeypatch.setattr(FlowNetwork, "_levels", counted_levels)
    rng = random.Random(31)
    in_band = 0
    for trial in range(60):
        H, n, band = _random_level(rng, trial)
        in_band += solver._scan(H, n, band)[0] <= band
    assert in_band >= 20 and repaired >= 200
    assert bfs_in_repair == 0


def _pinned_largest(H, force, ban):
    """By enumeration: the union of the minimizers of rho over the subsets
    that contain `force` and miss `ban`."""
    best, union = None, frozenset()
    for bits in range(1 << H.n):
        W = frozenset(v for v in range(H.n) if bits >> v & 1)
        if not W.issuperset(force) or W.intersection(ban):
            continue
        r = sum(H.vertex_weights[v] for v in W) - sum(w for members, w in H.edges if members <= W)
        if best is None or r < best:
            best, union = r, W
        elif r == best:
            union |= W
    return union


def _fresh_hypergraph(G, weights):
    """An equal hypergraph for G that no memo holds."""
    return hypergraph(
        G.n,
        [weights.tag[t] for t in G.precolor],
        [((u, v), weights.edge[kind]) for u, v, kind in G.edges],
    )


def test_level_zero_scan_continues_from_the_entry_screen(monkeypatch):
    # On a graph that neither splits nor peels, the worker's scan gets the
    # entry screen's hypergraph back, so it reuses the screen's warm record.
    # The drivers' screen stops at its floor after the warm flow, so their
    # scan's first instance starts from that flow.  Here the nonempty query
    # runs uncut, and on many of these graphs it runs constrained flows, so
    # the scan starts from the last of them instead.  Either way the scan
    # must give what a scan of an equal, fresh hypergraph gives from an
    # empty memo: the value and the witness.
    rng = random.Random(5150)
    multi = (hypergraph_for_rho_m, RHO_M, solver._MULTI_BAND)
    simple = (hypergraph_for_rho_s, RHO_S, solver._SIMPLE_BAND)
    cases = [(random_sparse_multigraph(rng, rng.randint(6, 14)), *multi) for _ in range(12)]
    cases += [(random_sparse_simple(rng, rng.randint(6, 14)), *simple) for _ in range(12)]
    for seed in range(6):
        G = _random_cubic(seed, 2 * rng.randint(4, 10))
        cases += [(G, *multi), (G, *simple)]
    handed = in_band = 0
    for G, to_hyper, weights, band in cases:
        H = to_hyper(G)
        min_potential_constrained(H, m1=1, m2=0, extremal=LARGEST)
        rec = min_potential._memo.record
        handed += bool(rec.forced or rec.banned)
        assert to_hyper(G) is H
        shared = solver._scan(H, G.n, band)
        assert min_potential._memo.record is rec

        fresh = _fresh_hypergraph(G, weights)
        assert fresh == H and fresh is not H
        monkeypatch.setattr(min_potential, "_memo", threading.local())
        assert solver._scan(fresh, G.n, band) == shared
        in_band += shared[1] is not None
    # the uncut query ran constrained flows, whose last one the scan starts
    # from, on every cubic graph under rho_s and on some of the others
    assert handed >= 15 and in_band >= 8


def _lcf(n, shifts):
    """The cubic graph of LCF notation [shifts]^(n / len(shifts)): an
    n-cycle, and a chord from each i to i + shifts[i % len(shifts)]."""
    edges = {frozenset((i, (i + 1) % n)) for i in range(n)}
    edges |= {frozenset((i, (i + shifts[i % len(shifts)]) % n)) for i in range(n)}
    return normalize(n, [(*sorted(e), SINGLE) for e in edges])


@pytest.mark.parametrize("driver", [color_multigraph, color_simple])
def test_unpeeled_graph_builds_one_network(monkeypatch, driver):
    # a cubic graph neither splits nor peels, so the entry screen and the
    # level-0 scan ask for the same G's hypergraph: one network is built
    # for it, and the scan runs on the screen's hypergraph object.  The
    # deficit bound settles a cubic graph's screen without a network, so
    # the scan's first ask builds it.  A cubic level passes the simple
    # worker's deficit bound, so its scan waits for step 5, which a
    # triangle or induced 4-cycle pre-empts at step 4: the simple case
    # takes the Tutte-Coxeter graph (girth 8, 30 vertices, above the brute
    # threshold), whose level 0 reaches step 5
    G = _random_cubic(8, 24) if driver is color_multigraph else _lcf(30, [-13, -9, 7, -7, 9, 13])
    default_catalog()  # its first build runs flows of its own
    built, scanned = [], []
    build, scan = min_potential.build_aux_network, solver._scan

    def counting_build(H):
        built.append(H)
        return build(H)

    def recording_scan(H, n, band_top):
        scanned.append(H)
        return scan(H, n, band_top)

    monkeypatch.setattr(min_potential, "build_aux_network", counting_build)
    monkeypatch.setattr(solver, "_scan", recording_scan)
    out = driver(G)
    assert isinstance(out, Colored)
    weights = RHO_M if driver is color_multigraph else RHO_S
    assert sum(H == _fresh_hypergraph(G, weights) for H in built) == 1
    assert scanned and scanned[0] is built[0]


def _generalized_petersen(n, k):
    outer = [(i, (i + 1) % n) for i in range(n)]
    inner = [(n + i, n + (i + k) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    return normalize(2 * n, [(min(e), max(e), SINGLE) for e in outer + inner + spokes])


def _subdivided(rng, G, tags, kind=SINGLE):
    """G with one edge replaced by a path through new vertices tagged
    `tags`: the path's two end edges are single, its inner edges `kind`."""
    u, v, _ = rng.choice(G.edges)
    walk = [u, *range(G.n, G.n + len(tags)), v]
    raw = [e for e in G.edges if e[:2] != (u, v)]
    raw += [(a, b, SINGLE if u in (a, b) or v in (a, b) else kind) for a, b in zip(walk, walk[1:])]
    return normalize(G.n + len(tags), raw, list(G.precolor) + list(tags))


def _densified(rng, n, extra):
    """A random cubic graph with up to `extra` single edges added, each kept
    only while the simple floor holds and no catalog member embeds."""
    G = _random_cubic(rng.random(), n)
    for _ in range(4 * extra):
        u, v = rng.sample(range(n), 2)
        if extra == 0 or G.kind_of(u, v) is not None:
            continue
        H = G.with_edge(u, v, SINGLE)
        r = min_potential_constrained(hypergraph_for_rho_s(H), m1=1, m2=0, below=solver.SIMPLE_FLOOR)[1]
        if r >= solver.SIMPLE_FLOOR and find_forbidden_subgraph(H, default_catalog()) is None:
            G, extra = H, extra - 1
    return G


def test_deficit_bound_leaves_outcomes_unchanged(monkeypatch):
    # A level whose deficit bound holds skips step 3 and scans at step 5
    # only; every outcome and trace must equal a run in which the bound
    # never holds, which scans every level at step 3.  High-girth cubic
    # graphs (generalized Petersen, Heawood, Tutte-Coxeter) have no triangle
    # or induced 4-cycle for step 4, so their certified levels reach the
    # step-5 scan; one forest-tagged subdivision keeps a cubic graph
    # certified (c = -4 against a least debit of 5).  A forest-tagged and a
    # plain vertex joined by a gadget form a set of potential 0, so a cubic
    # graph with an edge subdivided by that pair fails the bound and acts
    # at step 3.
    rng = random.Random(2020)
    cases = [gen_hk(k) for k in (1, 2, 3)]
    cases += [_hang(rng, base_graph(name), rng.randint(1, 3), 0) for name in ("k4", "w5", "m7", "j7", "j8", "j12")]
    cases += [_densified(rng, n, rng.randint(1, 6)) for n in (10, 12, 14, 16, 18) for _ in range(6)]
    cubic = [_generalized_petersen(n, k) for n in range(5, 13) for k in (2, 3) if k < n / 2]
    cubic += [_lcf(14, [5, -5]), _lcf(30, [-13, -9, 7, -7, 9, 13])]
    cubic += [_random_cubic(seed, 2 * rng.randint(5, 12)) for seed in range(12)]
    cases += cubic + [_subdivided(rng, G, [FP]) for G in cubic]
    cases += [_subdivided(rng, G, [FP, UNCOLORED], GADGET) for G in cubic]
    while len(cases) < 200:
        kind, G = _random_instance(rng)
        if kind == "simple":
            cases.append(G)
    bound, scan = solver._deficit_bound, solver._scan
    certified = reached = fired = 0
    pending = None

    def counted_bound(H):
        nonlocal certified, pending
        holds = bound(H)
        certified += holds
        pending = H if holds else None
        return holds

    def counted_scan(H, n, band_top):
        nonlocal reached
        reached += H is pending
        return scan(H, n, band_top)

    for G in cases:
        monkeypatch.setattr(solver, "_deficit_bound", counted_bound)
        monkeypatch.setattr(solver, "_scan", counted_scan)
        trace = []
        out = color_simple(G, brute_threshold=3, trace=trace)
        monkeypatch.setattr(solver, "_deficit_bound", lambda H: False)
        monkeypatch.setattr(solver, "_scan", scan)
        ref_trace = []
        ref = color_simple(G, brute_threshold=3, trace=ref_trace)
        assert repr(out) == repr(ref) and trace == ref_trace
        fired += sum(line.split()[0] == "3" for line in trace)
    assert certified >= 60 and reached >= 25 and fired >= 20, (certified, reached, fired)


def test_certified_cubic_solve_runs_no_pinned_flow(monkeypatch):
    # Every level of this simple solve passes the deficit bound and ends at
    # step 4, so it never scans.  The multigraph driver has no such bound
    # (a bridge already gives rho_m = 1) and scans level 0 with one pinned
    # ask per vertex; that scan is why a traced solve of both drivers on a
    # cubic graph still runs pinned flows.
    G = _random_cubic(1, 120)
    asked = 0
    scans = []
    pinned, scan = solver.min_potential_pinned, solver._scan

    def counted_pinned(*args, **kwargs):
        nonlocal asked
        asked += 1
        return pinned(*args, **kwargs)

    def counted_scan(H, n, band_top):
        before = asked
        out = scan(H, n, band_top)
        scans.append(asked - before)
        return out

    monkeypatch.setattr(solver, "min_potential_pinned", counted_pinned)
    monkeypatch.setattr(solver, "_scan", counted_scan)
    assert isinstance(color_simple(G), Colored)
    assert asked == 0 and scans == []
    assert isinstance(color_multigraph(G), Colored)
    assert scans[0] == G.n == 120


def _entry_screen_flows(monkeypatch):
    """The flows of each nonempty-set query (m1=1, m2=0), in call order; in
    the drivers only the entry screen asks one."""
    flows = 0
    screens = []
    run, query = FlowNetwork.max_flow, solver.min_potential_constrained

    def counted(self, s, t, limit=None, open_arcs=None):
        nonlocal flows
        flows += 1
        return run(self, s, t, limit, open_arcs)

    def recording(H, m1=0, m2=0, extremal=None, below=None):
        before = flows
        out = query(H, m1, m2, extremal, below)
        if (m1, m2) == (1, 0):
            screens.append(flows - before)
        return out

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    monkeypatch.setattr(solver, "min_potential_constrained", recording)
    return screens


def _cycle(n):
    return graph(n, singles=[(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("driver, to_hyper", [
    (color_multigraph, hypergraph_for_rho_m),
    (color_simple, hypergraph_for_rho_s),
])
def test_entry_screen_runs_one_flow(monkeypatch, driver, to_hyper):
    # A cubic graph neither splits nor peels, and a long cycle peels away.
    # On a cycle, and on a cubic graph under rho_s, every nonempty set has
    # positive potential, so the union of minimizers is empty and the exact
    # nonempty minimum forces each vertex in turn.  The screen only asks
    # for a set below the floor.  A cubic graph is its own screen kernel,
    # and its deficits (0 under rho_m, 1 under rho_s) settle the screen
    # with no flow; a cycle's kernel is empty, so its screen runs no flow
    # either.  Where the deficit bound misses the floor, the screen stops
    # after the warm flow: under rho_m a cubic graph with a chord (two
    # deficits of -2) and, to keep the full-set potential at the floor,
    # one edge subdivided, which the kernel merges back; under rho_s a
    # cubic graph with one F-tagged vertex (deficit -9), its own kernel.
    screens = _entry_screen_flows(monkeypatch)
    limit = sys.getrecursionlimit()
    cubic = _random_cubic(11, 60)
    if driver is color_multigraph:
        p = 0
        q = min(v for v in range(1, 60) if v not in cubic.adj[p])
        near = {p, q, *cubic.adj[p], *cubic.adj[q]}
        u, v, _ = next(e for e in cubic.edges if not {e[0], e[1]} & near)
        edges = [e for e in cubic.edges if e[:2] != (u, v)]
        missed = normalize(61, edges + [(p, q, SINGLE), (u, 60, SINGLE), (v, 60, SINGLE)])
    else:
        missed = cubic.with_precolor(0, FP)
    for G, expected in ((cubic, [0]), (_cycle(5000), []), (missed, [1])):
        assert isinstance(driver(G), Colored)
        assert screens == expected
        screens.clear()
    assert sys.getrecursionlimit() == limit
    solver.min_potential_constrained(to_hyper(_cycle(60)), m1=1, m2=0, extremal=LARGEST)
    assert screens[0] > 60


def test_entry_screen_certificate_is_the_exact_minimizer():
    # Below the floor the screen's cutoff never fires, so its certificate
    # is the uncut query's set: the largest, then lexicographically
    # smallest, nonempty minimizer.
    multi = (color_multigraph, hypergraph_for_rho_m, solver.MULTI_FLOOR)
    simple = (color_simple, hypergraph_for_rho_s, solver.SIMPLE_FLOOR)
    cases = [(gen_gk(k), *multi) for k in (1, 2, 3, 4)]
    cases += [(gen_hk(k), *kind) for k in (1, 2, 3) for kind in (multi, simple)]
    rng = random.Random(2718)
    seeded = 0
    while seeded < 40:
        kind, G = _random_instance(rng)
        driver, to_hyper, floor = multi if kind == "multi" else simple
        if min_potential_constrained(to_hyper(G), m1=1, m2=0, extremal=LARGEST)[1] < floor:
            cases.append((G, driver, to_hyper, floor))
            seeded += 1
    for G, driver, to_hyper, floor in cases:
        out = driver(G)
        W, r = min_potential_constrained(to_hyper(G), m1=1, m2=0, extremal=LARGEST)
        assert r < floor
        assert isinstance(out, CertLowPotential)
        assert (out.subset, out.rho, out.threshold) == (W, r, floor)


def _hang(rng, G, trees, paths):
    """G with `trees` pendant trees and `paths` subdivided paths (one to
    three inner vertices) between vertices of G, all new vertices plain."""
    n = G.n
    raw = list(G.edges)
    for _ in range(trees):
        nodes = [rng.randrange(G.n)]
        for _ in range(rng.randint(1, 6)):
            raw.append((rng.choice(nodes), n, SINGLE))
            nodes.append(n)
            n += 1
    for _ in range(paths):
        a, b = rng.sample(range(G.n), 2)
        inner = list(range(n, n + rng.randint(1, 3)))
        n += len(inner)
        walk = [a] + inner + [b]
        raw += [(u, v, SINGLE) for u, v in zip(walk, walk[1:])]
    return normalize(n, raw, list(G.precolor) + [UNCOLORED] * (n - G.n))


def test_screen_kernel_leaves_outcomes_unchanged(monkeypatch):
    # The entry screen asks the kernel first and H only when the kernel
    # fires, so every outcome and trace equals a run whose kernel is H
    # itself: low-potential cores with pendant trees and subdivided paths
    # (kernels that fire), cycles and trees (empty kernels), and random
    # sparse graphs of both kinds
    rng = random.Random(1931)
    multi = (color_multigraph, hypergraph_for_rho_m)
    simple = (color_simple, hypergraph_for_rho_s)
    cases = [(_hang(rng, gen_gk(k), rng.randint(0, 3), rng.randint(0, 3)), *multi) for k in (1, 2, 3, 4) for _ in range(4)]
    cases += [(_hang(rng, gen_hk(k), rng.randint(0, 3), rng.randint(0, 3)), *kind) for k in (1, 2) for kind in (multi, simple) for _ in range(3)]
    cases += [(_cycle(n), *kind) for n in (3, 7, 40) for kind in (multi, simple)]
    cases += [(hung_on(PETERSEN, 10, 300, chains=3, chain_len=20), *multi), (hung_on(DENSE10, 10, 300, chains=3, chain_len=20), *simple)]
    for _ in range(120):
        kind, G = _random_instance(rng)
        cases.append((G, *(multi if kind == "multi" else simple)))
    kernels = []
    kernel = solver.screen_kernel

    def recorded(G, weights):
        K = kernel(G, weights)
        kernels.append((K is None, K and K.n))
        return K

    fired = emptied = reduced = 0
    for G, driver, to_hyper in cases:
        kernels.clear()
        trace = []
        monkeypatch.setattr(solver, "screen_kernel", recorded)
        out = driver(G, brute_threshold=4, trace=trace)
        [(same, k)] = kernels
        monkeypatch.setattr(solver, "screen_kernel", lambda G, weights: None)
        ref_trace = []
        ref = driver(G, brute_threshold=4, trace=ref_trace)
        assert repr(out) == repr(ref) and trace == ref_trace
        if not same:
            reduced += 1
            emptied += k == 0
            fired += isinstance(out, CertLowPotential)
    assert fired >= 60 and emptied >= 25 and reduced >= 130, (fired, emptied, reduced)


def test_closure_absorbs_within_its_room():
    rng = random.Random(31)
    grown = capped = 0
    for trial in range(300):
        if trial % 2 == 0:
            heavy, rho, room_left = MULTI, rho_m, 1
        else:
            heavy, rho, room_left = GADGET, rho_s, 2
        n = rng.randrange(3, 12)
        p = rng.uniform(0.15, 0.6)
        raw = [
            (u, v, heavy if rng.random() < 0.2 else SINGLE)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < p
        ]
        G = normalize(n, raw, [rng.choice((UNCOLORED, UNCOLORED, FP, IP)) for _ in range(n)])
        W = frozenset(rng.sample(range(n), rng.randrange(1, n)))
        room = n - room_left
        out = solver._closure(G, W, heavy, room)
        assert W <= out
        assert len(out) <= max(len(W), room)
        # every absorption lowers the potential by at least one
        assert rho(G, out) <= rho(G, W) - (len(out) - len(W))
        grown += len(out) > len(W)
        if len(out) >= room:
            capped += 1
            continue
        for u in set(range(n)) - out:
            kinds = [G.kind_of(u, x) for x in G.adj[u] if x in out]
            assert heavy not in kinds and kinds.count(SINGLE) < 2
    assert grown >= 50 and capped >= 20


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


def test_drivers_leave_the_recursion_limit_alone():
    rng = random.Random(12)
    old = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        for G in (random_sparse_multigraph(rng, 40), hung_on(PETERSEN, 10, 3_000, chains=5, chain_len=100)):
            assert isinstance(color_multigraph(G, brute_threshold=6), Colored)
        for G in (random_sparse_simple(rng, 40), hung_on(DENSE10, 10, 3_000, chains=5, chain_len=100)):
            assert isinstance(color_simple(G, brute_threshold=6), Colored)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)


def _petersen_chain(k):
    """k Petersen graphs in a row, each joined to the next by a path through
    3 new vertices: every block is a split level of its own."""
    singles = [(10 * b + u, 10 * b + v) for b in range(k) for u, v in PETERSEN]
    n = 10 * k
    for b in range(k - 1):
        walk = [10 * b + 1, n, n + 1, n + 2, 10 * (b + 1)]
        singles += zip(walk, walk[1:])
        n += 3
    return graph(n, singles=singles)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.xfail(strict=True, raises=RecursionError, reason="each split level adds worker frames (ROADMAP item 1)")
@pytest.mark.parametrize("driver", [color_multigraph, color_simple], ids=["multi", "simple"])
def test_a_chain_of_blocks_needs_no_deeper_stack(driver):
    # 200 frames above this test's own stack hold a chain of 40 blocks but
    # not one of 60: each split level recurses into its component and then
    # into its peeled core, so the depth grows by a few frames per block
    G = _petersen_chain(60)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 200)
    try:
        out = driver(G)
    finally:
        sys.setrecursionlimit(old)
    assert isinstance(out, Colored)


def test_structured_endgame_needs_no_deeper_stack():
    # a 1,004-vertex tree over 252 degree-four vertices reaches the
    # structured endgame at level 0; its tree split and its exhaustive
    # search once took one frame per step or per tree vertex
    G = structured_instance(random.Random(500), 500)
    rep = discharge_classify(G)
    F_B = next(solver._candidate_fb(G, rep))
    T = random_cubic_tree(random.Random(2_000), 1_998)
    leaves = [v for v in range(T.n) if T.nsize(v) == 1]
    trace = []
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        out = color_simple(G, trace=trace)
        S = tree_split(T, leaves[1:], leaves[:1])
        col = solver._endgame_engine(G, rep.L, F_B)
    finally:
        sys.setrecursionlimit(old)
    assert G.n == 1_256 and len(rep.L) == 1_004 and "10 structured endgame" in trace
    assert isinstance(out, Colored) and validate_coloring(G, out.coloring) is None
    assert len(leaves) == 2_000 and set(leaves[1:]) <= S and leaves[0] not in S
    assert col is not None and validate_coloring(G, col) is None


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


def _relabeled(G, perm):
    """G with vertex v renamed perm[v], edge kinds and tags kept."""
    tags = [None] * G.n
    for v, tag in enumerate(G.precolor):
        tags[perm[v]] = tag
    return normalize(G.n, [(perm[u], perm[v], kind) for u, v, kind in G.edges], tags)


def _check_outcome(kind, G, out):
    """A coloring validates on G and a certificate verifies on G."""
    if isinstance(out, Colored):
        assert validate_coloring(G, out.coloring) is None
    elif isinstance(out, CertLowPotential):
        assert out.subset
        assert (rho_m if kind == "multi" else rho_s)(G, out.subset) == out.rho < out.threshold
    elif isinstance(out, CertForbidden):
        assert find_embedding(base_graph(out.name), G, anchor=out.mapping) is not None
    else:
        assert isinstance(out, Diagnostic)


def test_relabeling_keeps_the_outcome_class():
    # Seeded sparse graphs, some tagged and some with a few extra edges so
    # that certificates come up too, each solved as given and with its ids
    # permuted.  The outcome class is the same whenever neither run reports a
    # Diagnostic, and every answer checks out on its own graph.
    rng = random.Random(1903)
    compared = 0
    seen = set()
    for trial in range(64):
        kind = ("multi", "simple")[trial % 2]
        n = rng.randint(8, 14)
        G = (random_sparse_multigraph if kind == "multi" else random_sparse_simple)(rng, n)
        if trial % 4 == 1:
            edges = {(u, v) for u, v, _ in G.edges}
            extra = [p for p in itertools.combinations(range(n), 2) if p not in edges]
            G = normalize(n, list(G.edges) + [(*p, SINGLE) for p in rng.sample(extra, 2)])
        elif trial % 4 == 2:
            G = normalize(n, G.edges, [rng.choice((UNCOLORED,) * 8 + (FP, IP)) for _ in range(n)])
        perm = rng.sample(range(n), n)
        P = _relabeled(G, perm)
        drive = color_multigraph if kind == "multi" else color_simple
        out, out_p = drive(G, brute_threshold=3), drive(P, brute_threshold=3)
        _check_outcome(kind, G, out)
        _check_outcome(kind, P, out_p)
        if not isinstance(out, Diagnostic) and not isinstance(out_p, Diagnostic):
            assert type(out) is type(out_p), (trial, out, out_p)
            compared += 1
            seen.add(type(out).__name__)
    assert compared >= 56
    assert seen == {"Colored", "CertLowPotential", "CertForbidden"}


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
# full-set simple potential 0, and the deficit bound of its two degree-four
# vertices is the floor, so the entry screen settles without a flow
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


@pytest.mark.parametrize("to_hyper", [hypergraph_for_rho_m, hypergraph_for_rho_s])
def test_sparse_networks_have_no_arc_into_the_sink(to_hyper):
    # the warm flow needs no greedy start on the networks a long sparse
    # graph and a cubic one run their flows on (the long graph's entry
    # kernel is its Petersen core): every deficit there is 0 under rho_m
    # and 1 under rho_s, so no v->t arc has capacity and the warm value is 0
    weights = RHO_M if to_hyper is hypergraph_for_rho_m else RHO_S
    for G in (hung_on(PETERSEN, 10, 5_000), _random_cubic(1, 120)):
        H = screen_kernel(G, weights) or to_hyper(G)
        aux = build_aux_network(H)
        net = aux.flow
        assert H.n in (10, 120)
        assert not any(net.cap[r ^ 1] for r in net.head[aux.sink])
        assert net.max_flow(aux.source, aux.sink) == 0


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


# PETERSEN with the chord (0, 2) and its edge (6, 8) subdivided by vertex
# 10: the chord's ends have multigraph deficit -2 each, so the deficit
# bound N/2 = -2 misses the floor -1
PETERSEN_CHORD = [e for e in PETERSEN if e != (6, 8)] + [(0, 2), (6, 10), (8, 10)]


def test_long_sparse_entry_builds_no_whole_hypergraph(monkeypatch):
    # the entry kernel reads G.edges, and a kernel that reduces means the
    # level-0 peel runs, so the whole graph's hypergraph is never built,
    # and the core goes to brute force.  On a Petersen core the kernel is
    # the Petersen graph, whose deficits are all 0, so the deficit bound
    # settles the screen and no network is built at all.  On the chorded
    # core the bound fails, and the one network is the 10-vertex kernel's
    default_catalog()  # its first build runs flows of its own
    hypers, networks = [], []
    hyper, build = solver.hypergraph_for_rho_m, min_potential.build_aux_network

    def counting_build(H):
        networks.append(H.n)
        return build(H)

    monkeypatch.setattr(solver, "hypergraph_for_rho_m", lambda G: hypers.append(G.n) or hyper(G))
    monkeypatch.setattr(min_potential, "build_aux_network", counting_build)
    for core, core_n, expected in ((PETERSEN, 10, []), (PETERSEN_CHORD, 11, [10])):
        G = hung_on(core, core_n, 5_000, chains=5, chain_len=100)
        out = color_multigraph(G)
        assert isinstance(out, Colored)
        assert hypers == []
        assert networks == expected
        networks.clear()


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


# The step-5d defect: the rho = 1 tight route pins vertex 9 of
# W = {0, 1, 2, 7, 9}; step 5a then deletes 9 and joins 1 and 2, which makes
# {0, 1, 2, 7} a K4, and the child fails although the graph is colorable.
STEP_5D_WITNESS = [
    (0, 1), (0, 2), (0, 7), (1, 7), (1, 9), (2, 7), (2, 9), (3, 4),
    (3, 6), (3, 8), (4, 6), (4, 8), (5, 6), (5, 8), (5, 9),
]


STEP_5D_DEFECT = pytest.mark.xfail(strict=True, reason="step 5a hands its child a K4")


@pytest.mark.parametrize(
    "threshold",
    [pytest.param(3, marks=STEP_5D_DEFECT), pytest.param(4, marks=STEP_5D_DEFECT), 5],
)
def test_step_5d_witness_is_colored(threshold):
    G = graph(10, singles=STEP_5D_WITNESS)
    out = color_multigraph(G, brute_threshold=threshold)
    assert isinstance(out, Colored), out
    assert validate_coloring(G, out.coloring) is None


def _first_induced_c4_by_pairs(G, Lset):
    """The step-4 C4 search as a loop over every pair (a, c) of Lset, kept
    as the reference for solver._first_induced_c4."""
    best = None
    Ls = sorted(Lset)
    for a in Ls:
        for c in Ls:
            if c <= a or G.kind_of(a, c) is not None:
                continue
            common = [x for x in G.adj[a] if x in Lset and G.kind_of(c, x) is not None]
            for i, x in enumerate(common):
                for y in common[i + 1:]:
                    if G.kind_of(x, y) is not None:
                        continue
                    cyc = solver._canon_cycle((a, x, c, y))
                    if best is None or cyc < best:
                        best = cyc
    return best


def test_first_induced_c4_matches_the_pair_loop():
    # random graphs with single and parallel edges and a random part L,
    # sometimes all of it: the walk over L-neighbours returns the pair
    # loop's cycle
    rng = random.Random(4404)
    found = 0
    for _ in range(3000):
        n = rng.randint(4, 14)
        p = rng.uniform(0.15, 0.6)
        raw = [
            (u, v, rng.choice((SINGLE, SINGLE, SINGLE, MULTI)))
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < p
        ]
        G = normalize(n, raw)
        Lset = frozenset(range(n)) if rng.random() < 0.3 else frozenset(v for v in range(n) if rng.random() < 0.7)
        want = _first_induced_c4_by_pairs(G, Lset)
        assert solver._first_induced_c4(G, Lset) == want
        found += want is not None
    assert found >= 1200
