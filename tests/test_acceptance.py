"""End-to-end acceptance runs, one test per numbered criterion.

Every test is self-contained, seeded, and finishes with a single PASS line
carrying its wall time; the assertions all sit before that print, so a
failing criterion never reports PASS.  Reference answers come from exhaustive
enumeration or from independent recomputation, never from the code under test.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from nbcolor.families import (
    attach_force_f,
    attach_force_i,
    base_graph,
    base_names,
    gen_gk,
    gen_hk,
    multiedge_replacement,
    random_sparse_multigraph,
    random_sparse_simple,
)
from nbcolor.forbidden import are_linked, build_catalog
from nbcolor.graph_core import (
    F_SIDE,
    I_SIDE,
    contract_colored_subset,
    graph,
    induced_subgraph,
    validate_coloring,
)
from nbcolor.min_potential import (
    EXTREMAL_MODES,
    LARGEST,
    build_aux_network,
    max_flow,
    min_potential_constrained,
    min_potential_subset,
)
from nbcolor.oracle import (
    brute_nb_color,
    check_sparse,
    enumerate_nb_colorings,
    is_4_critical,
    is_nb_critical,
)
from nbcolor.potential import (
    hypergraph,
    hypergraph_for_rho_m,
    hypergraph_for_rho_s,
    rho_hyper,
    rho_m,
    rho_s,
)
from nbcolor.solver import (
    CertLowPotential,
    Colored,
    color_multigraph,
    color_simple,
    tree_split,
)


def report(num, label, t0, bound):
    elapsed = time.perf_counter() - t0
    assert elapsed < bound, f"criterion {num} overran: {elapsed:.1f}s >= {bound}s"
    print(f"criterion {num} ({label}): PASS ({elapsed:.1f}s)")


# -- 1: named potentials ---------------------------------------------------


POTENTIAL_TABLE = {
    "k4": (0, 2),
    "w5": (-2, -2),
    "k222": (-6, -12),
    "m7": (-1, 1),
    "j7": (-3, -4),
    "j8": (-2, -1),
    "j12": (-4, -4),
}


def test_01_potential_table():
    t0 = time.perf_counter()
    for name, (rm, rs) in POTENTIAL_TABLE.items():
        G = base_graph(name)
        V = range(G.n)
        assert rho_m(G, V) == rm, name
        assert rho_s(G, V) == rs, name
    for k in range(1, 6):
        G = gen_gk(k)
        assert rho_m(G, range(G.n)) == -2, k
    for k in range(1, 4):
        G = gen_hk(k)
        assert rho_s(G, range(G.n)) == -5, k
    report(1, "potential table", t0, 1.0)


# -- 2: the six-vertex worked example --------------------------------------


WORKED = hypergraph(
    6,
    [3, 4, 2, 1, 9, 15],
    [
        ((0, 1), 5),
        ((0, 2), 8),
        ((1, 2), 2),
        ((1, 3), 7),
        ((2, 4), 5),
        ((3, 4), 3),
        ((3, 5), 6),
        ((4, 5), 7),
    ],
)


def test_02_worked_example():
    t0 = time.perf_counter()
    W, r = min_potential_subset(WORKED)
    assert W == frozenset({0, 1, 2, 3})
    assert r == -12
    aux = build_aux_network(WORKED)
    assert aux.scale == 2
    assert aux.offset == 38
    value, reach = max_flow(aux)
    assert value == 14
    cut_side = frozenset(
        v for v in range(WORKED.n) if aux.vertex_node[v] not in reach
    )
    assert cut_side == W
    # min cut equals rho of the recovered subset, scaled, plus the offset
    assert value == r * aux.scale + aux.offset
    report(2, "worked example", t0, 1.0)


# -- 3: flow vs enumeration ------------------------------------------------


def random_weighted_hypergraph(rng, max_n=12, max_edges=18, max_w=20):
    n = rng.randrange(4, max_n + 1)
    weights = [rng.randrange(0, max_w + 1) for _ in range(n)]
    edges = []
    for _ in range(rng.randrange(0, max_edges + 1)):
        size = rng.randrange(2, min(n, 4) + 1)
        members = tuple(sorted(rng.sample(range(n), size)))
        edges.append((members, rng.randrange(1, max_w + 1)))
    return hypergraph(n, weights, edges)


def rho_by_mask(H):
    """rho of every subset, indexed by bitmask; integer weights only."""
    n = H.n
    vals = [0] * (1 << n)
    for v in range(n):
        w = int(H.vertex_weights[v])
        bit = 1 << v
        for bits in range(1 << n):
            if bits & bit:
                vals[bits] += w
    for members, w in H.edges:
        mask = 0
        for v in members:
            mask |= 1 << v
        w = int(w)
        for bits in range(1 << n):
            if bits & mask == mask:
                vals[bits] -= w
    return vals


def test_03_flow_vs_enum():
    t0 = time.perf_counter()
    rng = random.Random(300)
    for i in range(200):
        H = random_weighted_hypergraph(rng)
        n = H.n
        vals = rho_by_mask(H)
        sizes = [bits.bit_count() for bits in range(1 << n)]

        W, r = min_potential_subset(H)
        assert r == min(vals), i
        assert vals[sum(1 << v for v in W)] == r, i

        for m1, m2 in itertools.product(range(4), repeat=2):
            if m1 > n - m2:
                with pytest.raises(ValueError):
                    min_potential_constrained(H, m1, m2)
                continue
            window = [
                bits for bits in range(1 << n) if m1 <= sizes[bits] <= n - m2
            ]
            rmin = min(vals[bits] for bits in window)
            for mode in EXTREMAL_MODES:
                W, r = min_potential_constrained(H, m1, m2, mode)
                assert r == rmin, (i, m1, m2, mode)
                k = len(W)
                assert m1 <= k <= n - m2, (i, m1, m2, mode)
                assert vals[sum(1 << v for v in W)] == rmin, (i, m1, m2, mode)
                if mode is not None:
                    tied = [
                        sizes[bits] for bits in window if vals[bits] == rmin
                    ]
                    want = max(tied) if mode == LARGEST else min(tied)
                    assert k == want, (i, m1, m2, mode)
    report(3, "flow vs enumeration", t0, 120.0)


# -- 4: criticality --------------------------------------------------------


def test_04_criticality():
    t0 = time.perf_counter()
    for name in base_names():
        assert is_nb_critical(base_graph(name)), name
    for k in range(1, 5):
        assert is_nb_critical(gen_gk(k)), k
    for k in range(1, 3):
        assert is_nb_critical(gen_hk(k)), k
    for name in base_names():
        if name == "k222":
            assert not is_4_critical(base_graph(name))
        else:
            assert is_4_critical(base_graph(name)), name
    report(4, "criticality", t0, 300.0)


# -- 5: sharpness of the sparsity hypotheses -------------------------------


def test_05_sparsity():
    t0 = time.perf_counter()
    for k in range(1, 5):
        G = gen_gk(k)
        assert check_sparse(G, "3/2", "-1")[0], k
        ok, witness = check_sparse(G, "3/2", "-1/2")
        assert not ok and witness, k
        # every proper nonempty subset sits strictly above the full-set value
        _, r = min_potential_constrained(hypergraph_for_rho_m(G), m1=1, m2=1)
        assert r > -2, k
    for k in range(1, 3):
        G = gen_hk(k)
        assert check_sparse(G, "8/5", "-1")[0], k
        _, r = min_potential_constrained(hypergraph_for_rho_s(G), m1=1, m2=1)
        assert r > -5, k
    report(5, "sparsity sharpness", t0, 60.0)


# -- 6: gadget semantics ---------------------------------------------------


def random_host(rng, n):
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    return graph(n, singles=pairs[: rng.randrange(n - 1, n + 2)])


def test_06_gadget_semantics():
    t0 = time.perf_counter()
    W = multiedge_replacement(graph(2, multis=[(0, 1)]), 0, 1)
    assert W.n == 5 and len(W.edges) == 7
    cols = list(enumerate_nb_colorings(W))
    assert cols
    for c in cols:
        assert (c.side(0) == I_SIDE) != (c.side(1) == I_SIDE)
    for u, v, _ in W.edges:
        sub = W.without_edge(u, v)
        assert any(
            c.side(0) == F_SIDE and c.side(1) == F_SIDE
            for c in enumerate_nb_colorings(sub)
        ), (u, v)

    rng = random.Random(600)
    done_f = done_i = 0
    while done_f < 10 or done_i < 10:
        G = random_host(rng, rng.randrange(3, 7))
        w = rng.randrange(G.n)
        if done_f < 10:
            Hf, _ = attach_force_f(G, w)
            cols = list(enumerate_nb_colorings(Hf))
            if cols:
                assert all(c.side(w) == F_SIDE for c in cols)
                done_f += 1
        if done_i < 10:
            Hi, _ = attach_force_i(G, w)
            cols = list(enumerate_nb_colorings(Hi))
            if cols:
                assert all(c.side(w) == I_SIDE for c in cols)
                done_i += 1
    report(6, "gadget semantics", t0, 30.0)


# -- 7: multigraph solver at desk scale ------------------------------------


def test_07_solver_multigraph():
    t0 = time.perf_counter()
    rng = random.Random(700)
    small = 0
    for i in range(500):
        G = random_sparse_multigraph(rng, rng.randrange(4, 61))
        res = color_multigraph(G)
        assert isinstance(res, Colored), (i, res)
        assert validate_coloring(G, res.coloring) is None, i
        if G.n <= 16:
            assert brute_nb_color(G) is not None, i
            small += 1
    assert small >= 50
    for k in range(1, 5):
        G = gen_gk(k)
        res = color_multigraph(G)
        assert isinstance(res, CertLowPotential), k
        assert res.rho == -2 and res.threshold == -1, k
        assert rho_m(G, res.subset) == -2, k
    report(7, "multigraph solver", t0, 300.0)


# -- 8: simple-graph solver at desk scale ----------------------------------


def test_08_solver_simple():
    # soundness plus oracle agreement only; no runtime scaling is measured
    t0 = time.perf_counter()
    rng = random.Random(800)
    small = 0
    for i in range(300):
        G = random_sparse_simple(rng, rng.randrange(4, 41))
        res = color_simple(G)
        assert isinstance(res, Colored), (i, res)
        assert validate_coloring(G, res.coloring) is None, i
        if G.n <= 16:
            assert brute_nb_color(G) is not None, i
            small += 1
    assert small >= 30
    for k in range(1, 3):
        G = gen_hk(k)
        res = color_simple(G)
        assert isinstance(res, CertLowPotential), k
        assert res.rho == -5 and res.threshold == -4, k
        assert rho_s(G, res.subset) == -5, k
    report(8, "simple-graph solver", t0, 600.0)


# -- 9: property suites ----------------------------------------------------


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


def linked_host(rng):
    name = rng.choice(("k4", "w5", "m7"))
    H = base_graph(name)
    v, w, _ = rng.choice(H.edges)
    n = H.n + rng.randrange(0, 3)
    perm = rng.sample(range(n), H.n)
    pairs = {
        tuple(sorted((perm[a], perm[b])))
        for a, b, _ in H.edges
        if {a, b} != {v, w}
    }
    for _ in range(rng.randrange(0, 3)):
        a, b = rng.sample(range(n), 2)
        pairs.add(tuple(sorted((a, b))))
    return graph(n, singles=sorted(pairs)), perm[v], perm[w]


def f_path(G, c, s, t):
    if c.side(s) != F_SIDE or c.side(t) != F_SIDE:
        return False
    seen = {s}
    stack = [s]
    while stack:
        x = stack.pop()
        if x == t:
            return True
        for y in G.adj[x]:
            if y not in seen and c.side(y) == F_SIDE:
                seen.add(y)
                stack.append(y)
    return False


def test_09_property_suites():
    t0 = time.perf_counter()

    # submodularity of the hypergraph potential
    rng = random.Random(901)
    for _ in range(100):
        H = random_weighted_hypergraph(rng, max_n=10, max_edges=12)
        subsets = list(range(H.n))
        for _ in range(100):
            W1 = frozenset(rng.sample(subsets, rng.randrange(0, H.n + 1)))
            W2 = frozenset(rng.sample(subsets, rng.randrange(0, H.n + 1)))
            lhs = rho_hyper(H, W1) + rho_hyper(H, W2)
            rhs = rho_hyper(H, W1 | W2) + rho_hyper(H, W1 & W2)
            assert lhs >= rhs

    # contraction lifts stay valid colorings
    rng = random.Random(902)
    done = 0
    while done < 100:
        n = rng.randrange(4, 9)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        G = graph(n, singles=pairs[: rng.randrange(n - 1, 2 * n - 2)])
        Wv = sorted(rng.sample(range(n), rng.randrange(2, n - 1)))
        sub, _ = induced_subgraph(G, Wv)
        cW = brute_nb_color(sub)
        if cW is None or not sub.edges:
            continue
        Gp, lift = contract_colored_subset(G, Wv, cW, mode="multi")
        child = brute_nb_color(Gp)
        if child is None:
            continue
        assert validate_coloring(G, lift.lift(child)) is None
        done += 1

    # tree_split postconditions
    rng = random.Random(903)
    for _ in range(200):
        T = random_cubic_tree(rng, rng.randint(0, 6))
        leaves = [v for v in range(T.n) if T.nsize(v) <= 1]
        s_out = set(rng.sample(leaves, rng.randrange(1, len(leaves) + 1, 2)))
        s_in = set(leaves) - s_out
        S = tree_split(T, s_in, s_out)
        assert s_in <= S and not (s_out & S)
        assert not any(w in S for u in S for w in T.adj[u])
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
            assert sum(1 for u in comp if u in leaves) <= 1

    # linked pairs: both independent, or together in one forest component
    rng = random.Random(904)
    done = 0
    while done < 50:
        G, s, t = linked_host(rng)
        cols = list(enumerate_nb_colorings(G))
        if not cols:
            continue
        assert are_linked(G, s, t) is not None
        for c in cols:
            both_i = c.side(s) == I_SIDE and c.side(t) == I_SIDE
            assert both_i or f_path(G, c, s, t)
        done += 1
    report(9, "property suites", t0, 180.0)


# -- 10: catalog verification ----------------------------------------------


def test_10_catalog():
    t0 = time.perf_counter()
    cat = build_catalog(12)
    assert cat.names() == ("k4", "w5", "m7", "j7", "j8", "j12")
    for entry in cat.entries:
        G = entry.graph
        assert is_4_critical(G), entry.name
        assert is_nb_critical(G), entry.name
        _, r = min_potential_constrained(hypergraph_for_rho_s(G), m1=1)
        assert r >= -4, entry.name
        full = rho_s(G, range(G.n))
        assert full <= Fraction(10 - G.n, 3), entry.name
        if entry.name not in ("k4", "m7"):
            assert full <= 0, entry.name
    report(10, "catalog verification", t0, 120.0)
