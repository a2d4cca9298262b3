"""Flow-based subset minimization against the enumeration reference."""

import itertools
import random
import sys
import threading
from fractions import Fraction
from math import lcm

import networkx as nx
import pytest

from nbcolor import min_potential
from nbcolor.min_potential import (
    LARGEST,
    SMALLEST,
    FlowNetwork,
    build_aux_network,
    max_flow,
    min_potential_constrained,
    min_potential_enum,
    min_potential_pinned,
    min_potential_subset,
)
from nbcolor.potential import hypergraph, rho_hyper


# worked example: six vertices u..z with the two-triangle-plus-tail shape
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


def test_worked_example_minimum():
    W, val = min_potential_subset(WORKED)
    assert val == -12
    assert W == frozenset({0, 1, 2, 3})
    assert rho_hyper(WORKED, W) == -12


def test_worked_example_network_cut():
    aux = build_aux_network(WORKED)
    assert aux.scale == 1
    assert aux.total_edge_weight_scaled == 43
    value, reach = max_flow(aux)
    # min cut = rho(W) + total edge weight
    assert value == 31
    W = {v for v in range(WORKED.n) if aux.vertex_node[v] not in reach}
    assert W == {0, 1, 2, 3}


def random_hypergraph(rng, max_n=7, max_edges=10, max_w=12):
    n = rng.randint(1, max_n)
    weights = [rng.randint(0, max_w) for _ in range(n)]
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        size = rng.randint(1, min(3, n))
        members = tuple(rng.sample(range(n), size))
        edges.append((members, rng.randint(1, max_w)))
    return hypergraph(n, weights, edges)


def test_flow_matches_enum_unconstrained():
    rng = random.Random(90210)
    for _ in range(60):
        H = random_hypergraph(rng)
        W, val = min_potential_subset(H)
        We, vale = min_potential_enum(H)
        assert val == vale
        assert rho_hyper(H, W) == val


def test_flow_matches_enum_extremal_unconstrained():
    # minimizers form a lattice, so the largest and the smallest minimizer
    # are each unique and both routes must return them exactly
    rng = random.Random(4711)
    for _ in range(40):
        H = random_hypergraph(rng)
        for mode in (LARGEST, SMALLEST):
            W, val = min_potential_constrained(H, extremal=mode)
            We, vale = min_potential_enum(H, extremal=mode)
            assert val == vale
            assert W == We


def test_flow_matches_enum_constrained():
    rng = random.Random(1729)
    for _ in range(25):
        H = random_hypergraph(rng, max_n=6, max_edges=8)
        for m1, m2 in itertools.product(range(3), repeat=2):
            if m1 > H.n - m2:
                continue
            for mode in (None, LARGEST, SMALLEST):
                W, val = min_potential_constrained(H, m1, m2, mode)
                We, vale = min_potential_enum(H, m1, m2, mode)
                assert val == vale
                assert m1 <= len(W) <= H.n - m2
                assert rho_hyper(H, W) == val


def test_constrained_bad_window():
    H = hypergraph(3, [1, 1, 1], [])
    with pytest.raises(ValueError):
        min_potential_constrained(H, m1=2, m2=2)
    with pytest.raises(ValueError):
        min_potential_constrained(H, m1=-1)
    with pytest.raises(ValueError):
        min_potential_constrained(H, extremal="median")


def test_fractional_weights():
    H = hypergraph(2, ["1/2", "1/3"], [((0, 1), "5/6")])
    W, val = min_potential_constrained(H, extremal=LARGEST)
    assert val == 0
    assert W == frozenset({0, 1})
    W, val = min_potential_constrained(H, extremal=SMALLEST)
    assert val == 0
    assert W == frozenset()
    _, val = min_potential_constrained(H, m1=1, m2=1)
    assert val == Fraction(1, 3)


def test_extremal_tiebreak_path():
    # rho is 0 on both the empty set and the whole pair, 1 in between
    H = hypergraph(2, [1, 1], [((0, 1), 2)])
    W, _ = min_potential_constrained(H, extremal=LARGEST)
    assert W == frozenset({0, 1})
    W, _ = min_potential_constrained(H, extremal=SMALLEST)
    assert W == frozenset()


def test_pinned_respects_membership():
    rng = random.Random(31337)
    for _ in range(30):
        H = random_hypergraph(rng, max_n=6, max_edges=8)
        verts = list(range(H.n))
        force = frozenset(rng.sample(verts, rng.randint(0, min(2, H.n))))
        rest = [v for v in verts if v not in force]
        ban = frozenset(rng.sample(rest, rng.randint(0, min(2, len(rest)))))
        W, val = min_potential_pinned(H, force, ban)
        assert force <= W
        assert not (ban & W)
        assert rho_hyper(H, W) == val
        # reference: walk every subset honoring the pins
        best = min(
            rho_hyper(H, set(sub) | force)
            for sub in itertools.chain.from_iterable(
                itertools.combinations([v for v in rest if v not in ban], k)
                for k in range(len(rest) - len(ban) + 1)
            )
        )
        assert val == best


def test_pinned_rejects_bad_input():
    H = hypergraph(3, [1, 1, 1], [])
    with pytest.raises(ValueError):
        min_potential_pinned(H, force=[0], ban=[0])
    with pytest.raises(ValueError):
        min_potential_pinned(H, force=[3])
    with pytest.raises(ValueError):
        min_potential_pinned(H, ban=[-1])
    with pytest.raises(ValueError):
        min_potential_pinned(H, extremal="weird")


def test_submodularity_spot():
    rng = random.Random(555)
    for _ in range(200):
        H = random_hypergraph(rng, max_n=7, max_edges=9)
        verts = range(H.n)
        A = {v for v in verts if rng.random() < 0.5}
        B = {v for v in verts if rng.random() < 0.5}
        lhs = rho_hyper(H, A) + rho_hyper(H, B)
        rhs = rho_hyper(H, A | B) + rho_hyper(H, A & B)
        assert lhs >= rhs


def _pinned_oracle(H, force, ban, extremal):
    """Enumeration of the subsets honouring the pins: the minimum rho and
    its unique extremal minimizer (the union of all minimizers, or their
    intersection for SMALLEST)."""
    L = lcm(*(w.denominator for w in H.vertex_weights), *(w.denominator for _, w in H.edges))
    wv = [int(w * L) for w in H.vertex_weights]
    masks = [(sum(1 << v for v in members), int(w * L)) for members, w in H.edges]
    fmask = sum(1 << v for v in force)
    bmask = sum(1 << v for v in ban)
    best, minimizers = None, []
    for bits in range(1 << H.n):
        if bits & fmask != fmask or bits & bmask:
            continue
        total = sum(wv[v] for v in range(H.n) if bits >> v & 1)
        total -= sum(w for mask, w in masks if bits & mask == mask)
        if best is None or total < best:
            best, minimizers = total, [bits]
        elif total == best:
            minimizers.append(bits)
    pick = 0
    if extremal == SMALLEST:
        pick = minimizers[0]
        for bits in minimizers:
            pick &= bits
    else:
        for bits in minimizers:
            pick |= bits
    return frozenset(v for v in range(H.n) if pick >> v & 1), Fraction(best, L)


def test_pinned_warm_start_matches_enumeration():
    # Calls interleave over a pool of hypergraphs and all three modes, so the
    # memoised warm network is hit, missed and replaced; a hit must hand back
    # the very network the previous call left, with its flow untouched.
    rng = random.Random(8128)
    hits = misses = 0
    for _ in range(12):
        pool = []
        for _ in range(4):
            n = rng.randint(1, 12)
            weights = [Fraction(rng.randint(0, 12), rng.choice((1, 1, 2, 3))) for _ in range(n)]
            edges = [
                (rng.sample(range(n), rng.randint(1, min(3, n))), Fraction(rng.randint(1, 12), rng.choice((1, 2))))
                for _ in range(rng.randint(0, 2 * n))
            ]
            pool.append(hypergraph(n, weights, edges))
        for _ in range(20):
            H = rng.choice(pool)
            mode = rng.choice((None, LARGEST, SMALLEST))
            order = rng.sample(range(H.n), H.n)
            k_force = rng.randint(0, min(3, H.n))
            force = order[:k_force]
            ban = order[k_force:k_force + rng.randint(0, min(3, H.n - k_force))]
            last_H, last_mode, last_warm = min_potential._last_warm
            snapshot = list(last_warm[0].flow.cap) if last_warm else None
            W, val = min_potential_pinned(H, force, ban, extremal=mode)
            assert (W, val) == _pinned_oracle(H, force, ban, mode)
            warm = min_potential._last_warm[2]
            if last_H is H and last_mode == mode:
                hits += 1
                assert warm is last_warm
                assert warm[0].flow.cap == snapshot
            else:
                misses += 1
                assert warm is not last_warm
    assert hits >= 10 and misses >= 100


def test_warm_start_shared_across_threads():
    # batch --jobs solves in threads that share the one-entry memo, here on
    # the same hypergraph objects: every thread must still get the answers
    # of a serial run
    rng = random.Random(16)
    pool = [random_hypergraph(rng, max_n=12, max_edges=24) for _ in range(3)]
    queries = []
    for _ in range(6):
        qs = []
        for _ in range(40):
            H = rng.choice(pool)
            order = rng.sample(range(H.n), H.n)
            k = rng.randint(0, 1)
            qs.append((H, order[:k], order[k:k + rng.randint(0, 1)]))
        queries.append(qs)
    expected = [[min_potential_pinned(H, f, b) for H, f, b in qs] for qs in queries]
    got = [[] for _ in queries]
    start = threading.Barrier(len(queries))

    def work(i):
        start.wait()
        for _ in range(5):
            got[i].append([min_potential_pinned(H, f, b) for H, f, b in queries[i]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(queries))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == [[exp] * 5 for exp in expected]


def _random_network(rng, n, arcs):
    net = FlowNetwork(n)
    G = nx.DiGraph()
    G.add_nodes_from(range(n))
    for _ in range(arcs):
        u, v = rng.sample(range(n), 2)
        c = rng.randint(0, 40)
        net.add_arc(u, v, c)
        if G.has_edge(u, v):
            G[u][v]["capacity"] += c
        else:
            G.add_edge(u, v, capacity=c)
    return net, G


def _check_against_networkx(net, G, s, t, value):
    cut_value, (source_part, _) = nx.minimum_cut(G, s, t)
    assert value == cut_value
    reach = net.source_side(s)
    assert t not in reach
    # the residual reach set is the smallest source side of any minimum cut
    assert reach <= source_part
    assert sum(G[u][v]["capacity"] for u in reach for v in G[u] if v not in reach) == cut_value


def test_max_flow_matches_networkx():
    rng = random.Random(4242)
    for _ in range(30):
        n = rng.randint(2, 300)
        net, G = _random_network(rng, n, rng.randint(n, 4 * n))
        value = net.max_flow(0, n - 1)
        _check_against_networkx(net, G, 0, n - 1, value)
        # warm start: raise some arcs of a copy and augment from the flow
        flowed = list(net.cap)
        warm = net.copy()
        for idx in rng.sample(range(0, len(warm.to), 2), min(5, len(warm.to) // 2)):
            extra = rng.randint(1, 60)
            warm.cap[idx] += extra
            G[warm.to[idx ^ 1]][warm.to[idx]]["capacity"] += extra
        added = warm.max_flow(0, n - 1)
        _check_against_networkx(warm, G, 0, n - 1, value + added)
        assert net.cap == flowed  # the copy left the original's flow alone


def test_max_flow_long_path_is_iterative():
    # deeper than any recursion limit the drivers set
    rng = random.Random(99)
    n = 20_000
    net = FlowNetwork(n)
    caps = [rng.randint(5, 10_000) for _ in range(n - 1)]
    for v, c in enumerate(caps):
        net.add_arc(v, v + 1, c)
    assert net.max_flow(0, n - 1) == min(caps)
    assert len(net.source_side(0)) == caps.index(min(caps)) + 1
