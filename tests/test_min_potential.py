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
from nbcolor.graph_core import FP, SINGLE, UNCOLORED, normalize
from nbcolor.potential import WeightedHypergraph, deficits, hypergraph, hypergraph_for_rho_m, hypergraph_for_rho_s, rho_hyper


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
    assert aux.scale == 2
    assert aux.offset == 38
    value, reach = max_flow(aux)
    # min cut = rho(W) * scale + offset
    assert value == 14
    W = {v for v in range(WORKED.n) if aux.vertex_node[v] not in reach}
    assert W == {0, 1, 2, 3}
    assert value == min_potential_subset(WORKED)[1] * aux.scale + aux.offset


def _deficit_floor(H):
    """Half the sum of the negative deficits, from the weights directly:
    each vertex's weight less an equal share of each edge it lies in."""
    share = [Fraction(w) for w in H.vertex_weights]
    for members, w in H.edges:
        for v in members:
            share[v] -= Fraction(w) / len(members)
    return sum((x for x in share if x < 0), Fraction(0))


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


def _record():
    """This thread's warm record, or None when its memo is empty."""
    return getattr(min_potential._memo, "record", None)


def test_pinned_warm_start_matches_enumeration():
    # Calls interleave over a pool of hypergraphs and all three modes, so the
    # memoised warm record is hit, missed and replaced; a hit must hand back
    # the very record the previous call left.  The memo is keyed by the
    # hypergraph alone, so a change of mode hits it too.
    rng = random.Random(8128)
    hits = misses = mode_changes = 0
    last_mode = None
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
            last = _record()
            W, val = min_potential_pinned(H, force, ban, extremal=mode)
            assert (W, val) == _pinned_oracle(H, force, ban, mode)
            rec = _record()
            assert rec.H is H
            if last is not None and last.H is H:
                hits += 1
                mode_changes += mode != last_mode
                assert rec is last
            else:
                misses += 1
                assert rec is not last
            last_mode = mode
    assert hits >= 10 and mode_changes >= 10 and misses >= 100


def test_warm_start_shared_across_threads():
    # Threads ask on the same hypergraph objects and in all three modes, each
    # through its own warm record, whose one network serves every mode: every
    # thread must get the answers of a serial run.  Some asks carry a
    # threshold, so flows stop at their cutoff and later instances start
    # from the stopped flows.
    rng = random.Random(16)
    pool = [random_hypergraph(rng, max_n=12, max_edges=24) for _ in range(3)]
    modes = (None, LARGEST, SMALLEST)

    def below(H):
        return rng.choice((None, min_potential_subset(H)[1] + rng.randint(0, 24)))

    queries = []
    for _ in range(6):
        qs = []
        for _ in range(40):
            H = rng.choice(pool)
            order = rng.sample(range(H.n), H.n)
            k = rng.randint(0, 1)
            qs.append((H, order[:k], order[k:k + rng.randint(0, 1)], rng.choice(modes), below(H)))
        queries.append(qs)
    # scan-shaped runs: force v, ban its successor, so each flow releases the
    # pins of the one before it, on the thread's own network; each pair
    # is asked in every mode, so the later asks read the flow of the first
    # when it is maximal
    for H in pool * 2:
        order = rng.sample(range(H.n), H.n)
        queries.append([
            (H, [v], [order[(i + 1) % H.n]], mode, below(H))
            for i, v in enumerate(order)
            for mode in rng.sample(modes, 3)
        ])
    expected = [[min_potential_pinned(*q) for q in qs] for qs in queries]
    got = [[] for _ in queries]
    start = threading.Barrier(len(queries))

    def work(i):
        start.wait()
        for _ in range(5):
            got[i].append([min_potential_pinned(*q) for q in queries[i]])

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


def test_hypergraph_memo_shared_across_threads():
    # Threads alternate graphs and both potentials through potential's
    # one-entry hypergraph memo and their own warm records, the way a
    # driver's entry screen and level-0 scan use them: each thread must get
    # its own graph's hypergraph under its own potential, and the screen's
    # and scan-shaped answers of a serial run.  An equal graph that is
    # another object is in the pool too.
    rng = random.Random(2718)
    graphs = []
    for _ in range(3):
        n = rng.randint(5, 12)
        raw = [(u, v, SINGLE) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.35]
        graphs.append(normalize(n, raw, [FP if rng.random() < 0.3 else UNCOLORED for _ in range(n)]))
    graphs.append(normalize(graphs[0].n, graphs[0].edges, graphs[0].precolor))
    jobs = [(G, to_hyper) for G in graphs for to_hyper in (hypergraph_for_rho_m, hypergraph_for_rho_s)]

    def run(G, to_hyper):
        H = to_hyper(G)
        answers = [H, min_potential_constrained(H, m1=1, m2=0, extremal=LARGEST)]
        H = to_hyper(G)
        answers.append(H)
        for i in range(G.n):
            answers.append(min_potential_pinned(H, [i], [(i + 1) % G.n], extremal=SMALLEST))
        return answers

    expected = [run(*job) for job in jobs]
    got = [[] for _ in range(8)]
    start = threading.Barrier(len(got))

    def work(t):
        start.wait()
        for k in random.Random(t).choices(range(len(jobs)), k=6 * len(jobs)):
            got[t].append((k, run(*jobs[k])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(len(got))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for answers in got:
        assert len(answers) == 6 * len(jobs)
        for k, answer in answers:
            assert answer == expected[k]


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


def _twin(net):
    """A network on net's arcs, added in net's order, with net's residual
    capacities: its head lists are net's, and its flow is net's."""
    twin = FlowNetwork(net.n)
    for a in range(0, len(net.to), 2):
        twin.add_arc(net.to[a ^ 1], net.to[a], 0)
    twin.cap = list(net.cap)
    return twin


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
        # warm start: raise some arcs of a twin and augment from the flow
        warm = _twin(net)
        for idx in rng.sample(range(0, len(warm.to), 2), min(5, len(warm.to) // 2)):
            extra = rng.randint(1, 60)
            warm.cap[idx] += extra
            G[warm.to[idx ^ 1]][warm.to[idx]]["capacity"] += extra
        added = warm.max_flow(0, n - 1)
        _check_against_networkx(warm, G, 0, n - 1, value + added)


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


def test_window_matches_enum_tiebreak():
    # LARGEST and SMALLEST break ties canonically, so the flow route must
    # return enumeration's very set; mode None promises only the value and
    # an in-window minimizer
    rng = random.Random(6061)
    for trial in range(60):
        if trial % 4 == 3:
            n = rng.randint(1, 10)
            weights = [Fraction(rng.randint(0, 12), rng.choice((1, 2, 3))) for _ in range(n)]
            edges = [
                (rng.sample(range(n), rng.randint(1, min(3, n))), Fraction(rng.randint(1, 12), rng.choice((1, 2))))
                for _ in range(rng.randint(0, 2 * n))
            ]
            H = hypergraph(n, weights, edges)
        else:
            H = random_hypergraph(rng, max_n=10, max_edges=20)
        for m1, m2 in itertools.product(range(4), repeat=2):
            if m1 > H.n - m2:
                continue
            for mode in (LARGEST, SMALLEST):
                assert min_potential_constrained(H, m1, m2, mode) == min_potential_enum(H, m1, m2, mode)
            W, val = min_potential_constrained(H, m1, m2)
            assert val == min_potential_enum(H, m1, m2)[1]
            assert m1 <= len(W) <= H.n - m2
            assert rho_hyper(H, W) == val


def _fraction_hypergraph(rng, max_n):
    n = rng.randint(1, max_n)
    weights = [Fraction(rng.randint(0, 12), rng.choice((1, 2, 3))) for _ in range(n)]
    edges = [
        (rng.sample(range(n), rng.randint(1, min(3, n))), Fraction(rng.randint(1, 12), rng.choice((1, 2))))
        for _ in range(rng.randint(0, 2 * n))
    ]
    return hypergraph(n, weights, edges)


def test_cutoff_matches_enumeration():
    # below= stops the search at the first branch whose value reaches the
    # threshold.  A window minimum below the threshold comes back exactly as
    # the uncut query gives it, set included; otherwise no set comes back,
    # and the value lies between the threshold and the window minimum
    rng = random.Random(1313)
    kept = cut = early = 0
    for trial in range(48):
        H = _fraction_hypergraph(rng, 8) if trial % 3 == 2 else random_hypergraph(rng, max_n=8, max_edges=16)
        root = min_potential_subset(H)[1]
        windows = [(m1, m2) for m1, m2 in itertools.product(range(3), repeat=2) if m1 <= H.n - m2]
        for m1, m2 in rng.sample(windows, min(3, len(windows))):
            for mode in (None, LARGEST, SMALLEST):
                uncut = min_potential_constrained(H, m1, m2, mode)
                low = min_potential_enum(H, m1, m2, mode)[1]
                assert uncut[1] == low
                between = (root + low) / 2
                for below in (low - 1, between, low, low + Fraction(1, 3), low + 1, int(low) + 4):
                    W, v = min_potential_constrained(H, m1, m2, mode, below=below)
                    if low < below:
                        assert (W, v) == uncut
                        kept += 1
                    else:
                        assert W is None
                        assert below <= v <= low
                        cut += 1
                        early += v < low
    # half the thresholds lie above the minimum; some cuts stop before the
    # search reaches the window minimum
    assert kept == cut >= 1000 and early >= 50


def test_deficit_cutoff_matches_enumeration(monkeypatch):
    # A nonpositive cutoff at or under the deficit bound N/2 (half the sum
    # of the negative deficits) is answered (None, N/2) with no network
    # built; any other cutoff is answered as before.  Pair edges with int
    # weights (the graph potentials' shape), edges of up to three members,
    # and Fraction weights, all with zero-weight vertices.
    built = []
    build = min_potential.build_aux_network
    monkeypatch.setattr(min_potential, "build_aux_network", lambda H: built.append(H) or build(H))
    rng = random.Random(2626)
    settled = flowed = 0
    for trial in range(90):
        shape = trial % 3
        if shape == 0:
            n = rng.randint(1, 8)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            H = WeightedHypergraph(n, tuple(rng.choice((0, 1, 3, 8)) for _ in range(n)), tuple((frozenset(e), rng.choice((2, 4, 5, 11))) for e in pairs))
        elif shape == 1:
            H = random_hypergraph(rng, max_n=8, max_edges=12)
        else:
            H = _fraction_hypergraph(rng, 8)
        floor = _deficit_floor(H)
        assert shape or all(type(c) is int for c in deficits(H))
        windows = [(m1, m2) for m1, m2 in itertools.product(range(3), repeat=2) if m1 <= H.n - m2]
        for m1, m2 in rng.sample(windows, min(2, len(windows))):
            mode = rng.choice((None, LARGEST, SMALLEST))
            W_low, low = min_potential_enum(H, m1, m2, mode)
            assert floor <= low
            for below in {floor - 1, floor - Fraction(1, 2), floor, floor + Fraction(1, 3), low, low + 1, 0, -1}:
                if below > 0:
                    continue
                del built[:]
                min_potential._memo.record = None
                W, v = min_potential_constrained(H, m1, m2, mode, below=below)
                if floor >= below:
                    assert (W, v) == (None, floor)
                    assert built == []
                    settled += 1
                    continue
                assert len(built) == 1
                flowed += 1
                if low < below:
                    assert v == low
                    assert mode is None or W == W_low
                else:
                    assert W is None and below <= v <= low
    assert settled >= 300 and flowed >= 300


def _pinned_cut_oracle(H, force, ban, mode, below):
    """min_potential_pinned's answer by enumeration: the uncut one when the
    pinned minimum lies below the threshold, and otherwise (None, below)."""
    W, low = _pinned_oracle(H, force, ban, mode)
    if below is None or low < below:
        return W, low
    return None, Fraction(below)


def _thresholds(low, fractional):
    """Thresholds below, at and above a pinned minimum; off the weights'
    grid (denominators 1, 2, 3) when `fractional`."""
    if fractional:
        return [low - 1, low - Fraction(1, 7), low, low + Fraction(1, 7), low + Fraction(5, 7)]
    return [low - 1, low, low + 1, low + 3]


def test_pinned_cutoff_matches_enumeration(monkeypatch):
    # below= stops a pinned flow once its value proves the pinned minimum is
    # at least the threshold.  A minimum below the threshold comes back as
    # the uncut query gives it, set included, and any other as exactly
    # (None, below), whatever flow the instance starts from: the asks on
    # each hypergraph run in a shuffled order, so flows start from stopped
    # ones as often as from maximal ones
    rng = random.Random(1414)
    kept = cut = stopped = 0
    for trial in range(48):
        fractional = trial % 3 == 2
        H = _fraction_hypergraph(rng, 8) if fractional else random_hypergraph(rng, max_n=8, max_edges=16)
        asks = []
        for _ in range(4):
            picked = rng.sample(range(H.n), rng.randint(1, min(3, H.n)))
            k = rng.randint(0, len(picked))
            force, ban = picked[:k], picked[k:]
            for mode in (None, LARGEST, SMALLEST):
                low = _pinned_oracle(H, force, ban, mode)[1]
                asks += [(force, ban, mode, below) for below in _thresholds(low, fractional)]
        rng.shuffle(asks)
        for force, ban, mode, below in asks:
            got = min_potential_pinned(H, force, ban, mode, below=below)
            assert got == _pinned_cut_oracle(H, force, ban, mode, below), (trial, force, ban, mode, below)
            if got[0] is None:
                cut += 1
                assert type(got[1]) is Fraction
                stopped += not _record().maximal
            else:
                kept += 1
    assert kept >= 1000 and cut >= 1200 and stopped >= 900

    # One run per hypergraph mixing cut asks, uncut asks and re-asks on the
    # pins just solved: a re-ask must not read a set off a stopped flow, and
    # every answer must be the one an empty memo gives
    def fresh(H, force, ban, mode, below):
        monkeypatch.setattr(min_potential, "_memo", threading.local())
        return min_potential_pinned(H, force, ban, mode, below)

    after_stop = 0
    for trial in range(24):
        fractional = trial % 3 == 2
        H = _fraction_hypergraph(rng, 8) if fractional else random_hypergraph(rng, max_n=8, max_edges=16)
        force = ban = ()
        run = []
        for _ in range(40):
            if not run or rng.random() < 0.6:
                v = rng.randrange(H.n)
                force, ban = [v], [] if H.n == 1 else [(v + rng.randint(1, H.n - 1)) % H.n]
            mode = rng.choice((None, LARGEST, SMALLEST))
            low = _pinned_oracle(H, force, ban, mode)[1]
            below = rng.choice([None, *_thresholds(low, fractional)])
            run.append((H, force, ban, mode, below))
        expected = [fresh(*q) for q in run]
        assert expected == [_pinned_cut_oracle(*q) for q in run]
        fresh(H, (), (), None, None)
        for q, want in zip(run, expected):
            rec = _record()
            if (rec.forced, rec.banned) == (frozenset(q[1]), frozenset(q[2])):
                after_stop += not rec.maximal
            assert min_potential_pinned(*q) == want, (trial, q)
    assert after_stop >= 80


class _Interrupted(Exception):
    pass


class _CuttingCap(list):
    """A capacity list that raises _Interrupted instead of making its
    `left`-th write, so a flow stops in the middle of an augmenting path."""

    def __init__(self, cap, left):
        super().__init__(cap)
        self.left = left

    def __setitem__(self, i, x):
        self.left -= 1
        if not self.left:
            raise _Interrupted
        list.__setitem__(self, i, x)


def test_interrupted_instance_leaves_no_stale_memo(monkeypatch):
    # An instance cut short inside its flow leaves the network half changed:
    # its pins raised and released, part of a flow augmented, its open-arc
    # sets out of date.  Scan-shaped runs (force v, ban its successor, mixed
    # thresholds) are cut at their k-th flow for every k, the warm build
    # included: on even trials after one augmenting path, on odd ones in the
    # middle of one, between two capacity writes.  Every later ask, the one
    # before the cut and the cut one included, must give what it gives from
    # an empty memo
    kernel = FlowNetwork.max_flow
    flows, cut_at, mid_path = 0, None, False
    mid_cuts = 0

    def cut(self, s, t, limit=None, open_arcs=None):
        nonlocal flows, mid_cuts
        flows += 1
        if flows != cut_at:
            return kernel(self, s, t, limit, open_arcs)
        if not mid_path:
            kernel(self, s, t, 1, open_arcs)
            raise _Interrupted
        cap = self.cap
        self.cap = cutting = _CuttingCap(cap, 3)
        try:
            kernel(self, s, t, limit, open_arcs)
        finally:
            cap[:] = cutting  # the writes made before the cut stay
            self.cap = cap
            mid_cuts += cutting.left <= 0
        raise _Interrupted

    def empty_memo():
        monkeypatch.setattr(min_potential, "_memo", threading.local())

    def fresh(q):
        empty_memo()
        return min_potential_pinned(*q)

    monkeypatch.setattr(FlowNetwork, "max_flow", cut)
    rng = random.Random(4711)
    modes = (None, LARGEST, SMALLEST)
    cut_short = checked = 0
    for trial in range(18):
        fractional = trial % 3 == 2
        mid_path = trial % 2 == 1
        H = _fraction_hypergraph(rng, 8) if fractional else random_hypergraph(rng, max_n=8, max_edges=16)
        order = rng.sample(range(H.n), H.n)
        run = []
        for i, v in enumerate(order):
            force, ban = [v], [] if H.n == 1 else [order[(i + 1) % H.n]]
            for mode in rng.sample(modes, 2):
                low = _pinned_oracle(H, force, ban, mode)[1]
                run.append((H, force, ban, mode, rng.choice([None, *_thresholds(low, fractional)])))
        expected = [fresh(q) for q in run]
        assert expected == [_pinned_cut_oracle(*q) for q in run]
        empty_memo()
        flows = 0
        assert [min_potential_pinned(*q) for q in run] == expected
        # flow 1 builds H's warm record; every later one is a pinned instance
        for k in range(1, flows + 1):
            empty_memo()
            flows, cut_at = 0, k
            with pytest.raises(_Interrupted):
                for i, q in enumerate(run):
                    assert min_potential_pinned(*q) == expected[i]
            cut_at = None
            cut_short += k > 1
            for q, want in zip(run[max(i - 1, 0):], expected[max(i - 1, 0):]):
                assert min_potential_pinned(*q) == want, (trial, k, q)
                checked += 1
    assert cut_short >= 140 and checked >= 1300 and mid_cuts >= 40


def test_open_arc_sets_cover_every_open_terminal_arc(monkeypatch):
    # A repaired flow seeds its search from the record's open-arc sets, so
    # after every instance they must hold each open arc out of s and into t:
    # scan-shaped chains (force v, ban its successor) and window queries,
    # whose branches force and ban growing sets, with and without
    # thresholds.  Some sets also hold arcs that have closed since.  The
    # network itself keeps no search state, only its arcs.
    solve = min_potential._solve_device
    instances = stale = 0

    def checked(rec, banned, forced, extremal, below=None):
        nonlocal instances, stale
        W = solve(rec, banned, forced, extremal, below)
        assert _record() is rec
        aux, arcs = rec.aux, rec.open_arcs
        head, cap = aux.flow.head, aux.flow.cap
        assert {a for a in head[aux.source] if cap[a]} <= arcs.out_of_s
        assert {r ^ 1 for r in head[aux.sink] if cap[r ^ 1]} <= arcs.into_t
        stale += any(not cap[a] for a in arcs.out_of_s | arcs.into_t)
        assert set(vars(aux.flow)) == {"n", "head", "to", "cap"}
        instances += 1
        return W

    monkeypatch.setattr(min_potential, "_solve_device", checked)
    rng = random.Random(5353)
    modes = (None, LARGEST, SMALLEST)
    for trial in range(48):
        fractional = trial % 3 == 2
        H = _fraction_hypergraph(rng, 10) if fractional else random_hypergraph(rng, max_n=10, max_edges=20)
        order = rng.sample(range(H.n), H.n)
        for i, v in enumerate(order):
            force, ban = [v], [] if H.n == 1 else [order[(i + 1) % H.n]]
            mode = rng.choice(modes)
            low = _pinned_oracle(H, force, ban, mode)[1]
            below = rng.choice([None, *_thresholds(low, fractional)])
            assert min_potential_pinned(H, force, ban, mode, below) == _pinned_cut_oracle(H, force, ban, mode, below)
        for m1, m2 in rng.sample([(m1, m2) for m1 in range(3) for m2 in range(3) if m1 <= H.n - m2], 3):
            mode = rng.choice((LARGEST, SMALLEST))
            assert min_potential_constrained(H, m1, m2, mode) == min_potential_enum(H, m1, m2, mode)
    assert instances >= 550 and stale >= 20


# 12 vertices, 20 edges, minimum degree three: rho_s is lowest on the whole
# vertex set (-4), and every set that misses two vertices has rho_s above 0
WINDOW_GRAPH_EDGES = [
    (0, 2), (0, 3), (0, 9), (1, 2), (1, 4), (1, 5), (1, 10), (2, 8), (2, 10), (2, 11),
    (3, 8), (3, 11), (4, 9), (4, 11), (5, 6), (5, 7), (6, 9), (6, 10), (7, 8), (7, 9),
]


def test_window_query_flow_count(monkeypatch):
    # the crossed sweep ran 66 banned pairs times 45 forced pairs here
    G = normalize(12, [(u, v, SINGLE) for u, v in WINDOW_GRAPH_EDGES])
    H = hypergraph_for_rho_s(G)
    assert min_potential_enum(H, extremal=LARGEST)[0] == frozenset(range(12))
    flows = 0
    run = FlowNetwork.max_flow

    def counted(self, s, t, limit=None, open_arcs=None):
        nonlocal flows
        flows += 1
        return run(self, s, t, limit, open_arcs)

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    got = min_potential_constrained(H, 2, 2, LARGEST)
    assert got == min_potential_enum(H, 2, 2, LARGEST)
    assert got[1] == 5
    assert flows <= 250


def test_forced_flows_search_near_their_raised_arc(monkeypatch):
    # Against C_2000's warm flow every source arc is saturated, so a forced
    # instance can only gain paths through its own raised v->t arc.  Its
    # path search, seeded from the empty set of open source arcs, ends at
    # once, and the levels measured from the sink find the few nodes that
    # reach t; levels measured from the source expanded about 747,000 nodes
    # over these 50 flows.
    n = 2000
    H = hypergraph_for_rho_s(normalize(n, [(v, (v + 1) % n, SINGLE) for v in range(n)]))
    min_potential_pinned(H)
    expanded = 0

    class CountingHead(list):
        def __getitem__(self, u):
            nonlocal expanded
            expanded += 1
            return list.__getitem__(self, u)

    levels = FlowNetwork._levels

    def counted(search):
        # every node a search expands is looked up once in head, the last,
        # failing one included
        def run(self, *args):
            head = self.head
            self.head = CountingHead(head)
            try:
                return search(self, *args)
            finally:
                self.head = head

        return run

    monkeypatch.setattr(FlowNetwork, "_levels", counted(levels))
    monkeypatch.setattr(FlowNetwork, "_augmenting_path", counted(FlowNetwork._augmenting_path))
    for v in range(0, n, 40):
        W, _ = min_potential_pinned(H, force=[v])
        assert v in W
    assert expanded <= 2_000


def test_chained_release_matches_enumeration():
    # Long runs on one hypergraph, so every instance starts from the one
    # before it: pins are added, swapped (ban -> force, force -> ban) and
    # released, and each release must cancel the flow its arc carries above
    # the lowered capacity.  Every ask hits the one warm record of H.
    rng = random.Random(2024)
    for trial in range(24):
        n = rng.randint(3, 9)
        weights = [rng.choice((0, 0, rng.randint(1, 12))) for _ in range(n)]
        edges = [
            (rng.sample(range(n), rng.randint(1, 3)), rng.randint(1, 12))
            for _ in range(rng.randint(n, 3 * n))
        ]
        H = hypergraph(n, weights, edges)
        for mode in (None, LARGEST, SMALLEST):
            rec = min_potential._warm(H)
            force, ban = set(), set()
            for _ in range(40):
                free = [v for v in range(n) if v not in force and v not in ban]
                move = rng.randrange(6)
                if move == 0 and free:
                    force.add(rng.choice(free))
                elif move == 1 and free:
                    ban.add(rng.choice(free))
                elif move == 2 and ban:
                    v = rng.choice(sorted(ban))
                    ban.remove(v)
                    force.add(v)
                elif move == 3 and force:
                    v = rng.choice(sorted(force))
                    force.remove(v)
                    ban.add(v)
                elif move == 4 and force | ban:
                    v = rng.choice(sorted(force | ban))
                    force.discard(v)
                    ban.discard(v)
                elif move == 5:
                    v = rng.randrange(n)
                    force, ban = {v}, {(v + 1) % n}
                got = min_potential_pinned(H, sorted(force), sorted(ban), extremal=mode)
                assert got == _pinned_oracle(H, force, ban, mode), (trial, mode, force, ban)
                assert _record() is rec
                if force or ban:
                    assert (rec.forced, rec.banned) == (force, ban)


def test_unpinned_asks_release_the_pins_before_them(monkeypatch):
    # An unpinned ask is an instance like any other: after a chain of
    # scan-shaped instances (force v, ban its successor, mixed modes and
    # thresholds) it releases their pins and repairs the flow.  Every
    # unpinned entry point, in all three modes, with and without a cutoff,
    # must give enumeration's answer and the one it gives from an empty
    # memo, and run at most one flow.  A constrained ask whose cutoff the
    # deficit bound reaches gives that bound instead, with no flow.
    flows = 0
    kernel = FlowNetwork.max_flow

    def counted(self, s, t, limit=None, open_arcs=None):
        nonlocal flows
        flows += 1
        return kernel(self, s, t, limit, open_arcs)

    def empty_memo():
        monkeypatch.setattr(min_potential, "_memo", threading.local())

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    modes = (None, LARGEST, SMALLEST)
    rng = random.Random(4747)
    asked = repaired = 0
    for trial in range(24):
        fractional = trial % 3 == 2
        H = _fraction_hypergraph(rng, 8) if fractional else random_hypergraph(rng, max_n=8, max_edges=16)
        order = rng.sample(range(H.n), H.n)
        chain = []
        for i, v in enumerate(order):
            ban = [] if H.n == 1 else [order[(i + 1) % H.n]]
            mode = rng.choice(modes)
            below = rng.choice([None, *_thresholds(_pinned_oracle(H, [v], ban, mode)[1], fractional)])
            chain.append(([v], ban, mode, below))
        low = _pinned_oracle(H, (), (), None)[1]
        asks = [(min_potential_subset, (H,), _pinned_oracle(H, (), (), LARGEST))]
        for mode in modes:
            for below in (None, *_thresholds(low, fractional)):
                W, r = _pinned_cut_oracle(H, (), (), mode, below)
                asks.append((min_potential_pinned, (H, (), (), mode, below), (W, r)))
                settled = below is not None and _deficit_floor(H) >= below
                asks.append((min_potential_constrained, (H, 0, 0, mode, below), (None, _deficit_floor(H)) if settled else (W, low)))
        for ask, args, want in asks:
            empty_memo()
            assert ask(*args) == want, (trial, ask.__name__, args)
            empty_memo()
            for force, ban, mode, below in chain[:rng.randint(1, len(chain))]:
                min_potential_pinned(H, force, ban, mode, below)
            flows = 0
            assert ask(*args) == want, (trial, ask.__name__, args)
            assert flows <= 1
            asked += 1
            repaired += flows
    assert asked >= 750 and repaired >= 500


# A zero-weight vertex ties inside and outside a minimizer, so it lies in the
# union of the minimizers (LARGEST) and outside their intersection
# (SMALLEST); no arc of the network marks it.  Vertex 4 is isolated; vertex 2
# hangs off the minimizer {0, 1} through the hyperedge {1, 2, 3}, which never
# closes since 3 is heavy.  rho is -1 on {0, 1} with or without either of
# them.
ZERO_WEIGHT = hypergraph(5, [1, 1, 0, 5, 0], [((0, 1), 3), ((1, 2, 3), 1)])


def test_zero_weight_vertices_join_the_largest_minimizer():
    H = ZERO_WEIGHT
    best = min_potential_enum(H, extremal=LARGEST)
    assert best == (frozenset({0, 1, 2, 4}), -1)
    assert min_potential_constrained(H, extremal=LARGEST) == best
    assert min_potential_pinned(H, force=[0], ban=[3]) == best
    got = min_potential_pinned(H, force=[2], ban=[0])
    assert got == _pinned_oracle(H, [2], [0], LARGEST) == (frozenset({2, 4}), 0)
    # the smallest minimizer leaves both out
    assert min_potential_constrained(H, extremal=SMALLEST) == (frozenset({0, 1}), -1)


# -- the Dinic kernel against its form before the terminal lists -----------
#
# Kept as the reference: every phase scans all of head[t] in its BFS and all
# of head[s] in its blocking-flow search.


def _reference_levels(net, s, t):
    head, to, cap = net.head, net.to, net.cap
    level = [-1] * net.n
    level[t] = 0
    queue = [t]
    for u in queue:
        nxt = level[u] + 1
        for idx in head[u]:
            v = to[idx]
            if cap[idx ^ 1] and level[v] < 0:
                level[v] = nxt
                if v == s:
                    return level
                queue.append(v)
    return level


def _reference_max_flow(net, s, t):
    head, to, cap = net.head, net.to, net.cap
    total = 0
    while True:
        level = _reference_levels(net, s, t)
        if level[s] < 0:
            return total
        it = [0] * net.n
        path = []
        u = s
        while True:
            if u == t:
                pushed = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                total += pushed
                k = next(i for i, a in enumerate(path) if not cap[a])
                del path[k:]
                u = to[path[-1]] if path else s
                continue
            arcs = head[u]
            i, end = it[u], len(arcs)
            nxt = level[u] - 1
            while i < end:
                a = arcs[i]
                if cap[a] and level[to[a]] == nxt:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(a)
                u = to[a]
            elif path:
                level[u] = -1
                u = to[path.pop() ^ 1]
            else:
                break


def _two_arc_aux_network(H):
    """build_aux_network as it was before a pair edge became one arc pair:
    a pair edge {u, v} is an arc u->v and an arc v->u, each of capacity
    L w(e) and each with a reverse arc of capacity 0.  Kept as the reference
    for the one-pair layout, which must give every answer it gives."""
    scale = 2 * min_potential._denominator_scale(H)
    n = H.n
    weights = tuple(int(w * scale) for w in H.vertex_weights)
    edges = tuple((members, int(w * scale)) for members, w in H.edges)
    c = list(weights)
    pairs, nodes = [], []
    for members, w in edges:
        if len(members) > 2:
            nodes.append((members, w))
            continue
        for v in members:
            c[v] -= w // len(members)
        if len(members) == 2:
            pairs.append((*members, w // 2))
    edge_weight = sum(w for _, w in nodes)
    finite = sum(map(abs, c)) + 2 * sum(w for _, _, w in pairs) + edge_weight
    infinite = (finite + 1) << min_potential._HEADROOM
    net = FlowNetwork(2 + n + len(nodes))
    s, t = 0, 1
    vnode = tuple(range(2, 2 + n))
    source_arc = tuple(net.add_arc(s, vnode[v], max(x, 0)) for v, x in enumerate(c))
    sink_arc = tuple(net.add_arc(vnode[v], t, max(-x, 0)) for v, x in enumerate(c))
    for u, v, w in pairs:
        net.add_arc(vnode[u], vnode[v], w)
        net.add_arc(vnode[v], vnode[u], w)
    for enode, (members, w) in enumerate(nodes, 2 + n):
        net.add_arc(enode, t, w)
        for v in sorted(members):
            net.add_arc(vnode[v], enode, infinite)
    offset = sum(-x for x in c if x < 0) + edge_weight
    return min_potential.AuxNetwork(
        net, s, t, vnode, scale, offset, weights, edges, source_arc, sink_arc, finite, infinite
    )


def _same_flow_as_reference(net, s, t, kernel=FlowNetwork.max_flow):
    """Runs the kernel on net and the reference on a twin; both must add the
    same amount and leave the same residual capacities and the same nodes
    that reach t."""
    ref = _twin(net)
    expected = _reference_max_flow(ref, s, t)
    got = kernel(net, s, t)
    assert got == expected
    assert net.cap == ref.cap
    assert _reaching_t(net, t) == _reaching_t(ref, t)
    return got


def test_kernel_matches_the_reference_on_random_networks():
    # random arcs, so s has in-arcs, t has out-arcs, and arcs run in
    # parallel or carry no capacity; each flow then restarts warm from
    # raised arcs, as every constrained instance does
    rng = random.Random(5151)
    for _ in range(60):
        n = rng.randint(2, 120)
        net, _ = _random_network(rng, n, rng.randint(n, 5 * n))
        s, t = rng.sample(range(n), 2)
        _same_flow_as_reference(net, s, t)
        for _ in range(3):
            for idx in rng.sample(range(0, len(net.to), 2), min(4, len(net.to) // 2)):
                net.cap[idx] += rng.randint(1, 60)
            _same_flow_as_reference(net, s, t)


def _reaching_t(net, t):
    """The nodes that can reach t in net's residual graph, by a BFS from t
    over reversed arcs."""
    head, to, cap = net.head, net.to, net.cap
    seen = {t}
    queue = [t]
    for u in queue:
        for idx in head[u]:
            v = to[idx]
            if cap[idx ^ 1] and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def test_kernel_matches_the_reference_on_chained_instances(monkeypatch):
    # every flow of chained pinned sequences, the warm flows included, in all
    # three modes and on hypergraphs with zero-weight vertices.  A flow from
    # zero is Dinic's and leaves exactly the reference's residual capacities.
    # A repaired flow augments other paths and ends at another maximum flow,
    # so it is held to what every maximum flow from the same start shares:
    # the value added, the nodes that reach t and the nodes s reaches
    flows = repaired = 0
    run = FlowNetwork.max_flow

    def checked(self, s, t, limit=None, open_arcs=None):
        # no query here has a cutoff, so whatever limit a flow is given must
        # not stop it short of the reference's maximum
        nonlocal flows, repaired
        flows += 1
        if open_arcs is None:
            return _same_flow_as_reference(self, s, t, kernel=lambda net, s, t: run(net, s, t, limit))
        repaired += 1
        ref = _twin(self)
        expected = _reference_max_flow(ref, s, t)
        got = run(self, s, t, limit, open_arcs)
        assert got == expected
        assert _reaching_t(self, t) == _reaching_t(ref, t)
        assert self.source_side(s) == ref.source_side(s)
        return got

    monkeypatch.setattr(FlowNetwork, "max_flow", checked)
    rng = random.Random(6262)
    for _ in range(16):
        n = rng.randint(3, 12)
        weights = [rng.choice((0, rng.randint(1, 12), rng.randint(1, 12))) for _ in range(n)]
        edges = [
            (rng.sample(range(n), rng.randint(1, 3)), rng.randint(1, 12))
            for _ in range(rng.randint(n, 3 * n))
        ]
        H = hypergraph(n, weights, edges)
        for mode in (None, LARGEST, SMALLEST):
            order = rng.sample(range(n), n)
            for i, v in enumerate(order):
                got = min_potential_pinned(H, [v], [order[(i + 1) % n]], extremal=mode)
                assert got == _pinned_oracle(H, [v], [order[(i + 1) % n]], mode)
            for _ in range(10):
                picked = rng.sample(range(n), rng.randint(1, min(4, n)))
                k = rng.randint(0, len(picked))
                force, ban = picked[:k], picked[k:]
                assert min_potential_pinned(H, force, ban, extremal=mode) == _pinned_oracle(H, force, ban, mode)
    assert flows >= 16 * 3 * 10 and flows - repaired >= 16


def test_terminal_arcs_are_listed_once_per_flow(monkeypatch):
    # head[s] and head[t] are read once per max_flow call, when their open
    # arcs are listed, however many phases the flow takes
    rng = random.Random(77)
    phases = 0
    levels = FlowNetwork._levels

    def counted_levels(self, s, t, into_t):
        nonlocal phases
        phases += 1
        return levels(self, s, t, into_t)

    monkeypatch.setattr(FlowNetwork, "_levels", counted_levels)
    for _ in range(10):
        n = rng.randint(20, 80)
        net, _ = _random_network(rng, n, 4 * n)
        reads = [0] * n

        class CountingHead(list):
            def __getitem__(self, u):
                reads[u] += 1
                return list.__getitem__(self, u)

        net.head = CountingHead(net.head)
        net.max_flow(0, n - 1)
        assert reads[0] == reads[n - 1] == 1
    assert phases >= 30


def test_one_network_serves_every_mode(monkeypatch):
    # one plain network per hypergraph: a vertex's s->v and v->t arcs carry
    # the positive and the negative part of its scaled deficit (its weight
    # less half of each pair edge and all of each singleton), `infinite`
    # clears the finite capacities by the headroom, and the union and the intersection of
    # the minimizers both come off its max flow.  All three entry points in
    # all three modes match enumeration, zero-weight vertices included, and
    # a mode change on the pins just solved reads that flow and runs none.
    flows = 0
    kernel = FlowNetwork.max_flow

    def counted(self, s, t, limit=None, open_arcs=None):
        nonlocal flows
        flows += 1
        return kernel(self, s, t, limit, open_arcs)

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    modes = (None, LARGEST, SMALLEST)
    rng = random.Random(3131)
    reads = 0
    for _ in range(40):
        n = rng.randint(1, 8)
        weights = [Fraction(rng.choice((0, 0, rng.randint(1, 12))), rng.choice((1, 1, 2))) for _ in range(n)]
        edges = [
            (rng.sample(range(n), rng.randint(1, min(3, n))), Fraction(rng.randint(1, 12), rng.choice((1, 2))))
            for _ in range(rng.randint(0, 3 * n))
        ]
        H = hypergraph(n, weights, edges)
        aux = build_aux_network(H)
        cap = aux.flow.cap
        assert aux.scale == 2 * lcm(*(Fraction(w).denominator for w in weights), *(w.denominator for _, w in edges))
        c = [w * aux.scale for w in H.vertex_weights]
        finite = 0  # the pair arcs' and the edge nodes' capacities
        for members, w in H.edges:
            w *= aux.scale
            if len(members) > 2:
                finite += w
                continue
            for v in members:
                c[v] -= w / len(members)
            if len(members) == 2:
                finite += w
        assert [cap[a] for a in aux.source_arc] == [max(x, 0) for x in c]
        assert [cap[a] for a in aux.sink_arc] == [max(-x, 0) for x in c]
        assert aux.finite == finite + sum(map(abs, c))
        assert aux.infinite == (aux.finite + 1) << min_potential._HEADROOM
        assert min_potential_subset(H) == _pinned_oracle(H, (), (), None)
        for mode in rng.sample(modes, 3):
            for m1, m2 in itertools.product(range(3), repeat=2):
                if m1 <= n - m2:
                    got = min_potential_constrained(H, m1, m2, mode)
                    if mode is None:
                        # the value is exact, the set one of the window's minimizers
                        W, val = got
                        assert val == min_potential_enum(H, m1, m2)[1] == rho_hyper(H, W)
                        assert m1 <= len(W) <= n - m2
                    else:
                        assert got == min_potential_enum(H, m1, m2, mode)
        for _ in range(8):
            picked = rng.sample(range(n), rng.randint(0, min(3, n)))
            k = rng.randint(0, len(picked))
            force, ban = picked[:k], picked[k:]
            first, *rest = rng.sample(modes, 3)
            assert min_potential_pinned(H, force, ban, extremal=first) == _pinned_oracle(H, force, ban, first)
            before = flows
            for mode in rest:
                assert min_potential_pinned(H, force, ban, extremal=mode) == _pinned_oracle(H, force, ban, mode)
            assert flows == before
            reads += bool(picked)
    assert reads >= 150


def _check_feasible(H, aux, value):
    """aux, H's network, holds a flow of `value`: no residual is negative
    and every node but s and t passes on what it takes in.  Raising or
    releasing a pin changes only a forward arc, so the flow on arc a is the
    fresh network's residual of its reverse arc less the current one: a
    terminal or edge-node arc's reverse starts at 0, and a pair edge's
    reverse arc, the arc the other way, at its capacity."""
    net = aux.flow
    cap, to = net.cap, net.to
    fresh = build_aux_network(H).flow.cap
    assert len(fresh) == len(cap)
    assert min(cap) >= 0
    balance = [0] * net.n
    for a in range(0, len(to), 2):
        f = cap[a ^ 1] - fresh[a ^ 1]
        balance[to[a ^ 1]] -= f
        balance[to[a]] += f
    assert balance[aux.source] == -value and balance[aux.sink] == value
    assert not any(balance[2:])


def test_warm_flow_is_a_maximum_flow():
    # The warm flow is Dinic's from zero on the fresh network, with no
    # greedy start.  It is feasible, its value is the record's root value,
    # and every unpinned and pinned answer matches enumeration: int and
    # Fraction weights, zero-weight vertices, hyperedges of one to three
    # members
    rng = random.Random(8118)
    modes = (None, LARGEST, SMALLEST)
    warm_total = 0
    for trial in range(60):
        H = _fraction_hypergraph(rng, 8) if trial % 2 else random_hypergraph(rng, max_n=8, max_edges=16)
        aux = build_aux_network(H)
        value = aux.flow.max_flow(aux.source, aux.sink)
        _check_feasible(H, aux, value)
        warm_total += value
        fresh = build_aux_network(H)
        assert value == max_flow(fresh)[0]
        assert min_potential._warm(H).root_value == value
        assert min_potential_subset(H) == _pinned_oracle(H, (), (), None)
        for mode in modes:
            assert min_potential_constrained(H, extremal=mode)[1] == _pinned_oracle(H, (), (), mode)[1]
            if mode is not None:
                assert min_potential_constrained(H, extremal=mode) == min_potential_enum(H, extremal=mode)
        for _ in range(6):
            picked = rng.sample(range(H.n), rng.randint(0, min(3, H.n)))
            k = rng.randint(0, len(picked))
            mode = rng.choice(modes)
            got = min_potential_pinned(H, picked[:k], picked[k:], extremal=mode)
            assert got == _pinned_oracle(H, picked[:k], picked[k:], mode)
    assert warm_total > 0


def _cut_capacity(aux, X):
    """The capacity of the cut with the vertices of X and t on the sink
    side, read off the fresh network's arcs, both arcs of each pair: a pair
    edge's arc pair carries its capacity each way.  An edge node sits on the
    sink side exactly when all its members do, which is its cheaper side."""
    net = aux.flow
    sink_side = {aux.sink} | {aux.vertex_node[v] for v in X}
    for enode in range(2 + len(aux.vertex_node), net.n):
        if all(net.to[a] in sink_side for a in net.head[enode] if a & 1):
            sink_side.add(enode)
    return sum(
        net.cap[a]
        for a in range(len(net.to))
        if net.to[a ^ 1] not in sink_side and net.to[a] in sink_side
    )


def test_cut_is_the_scaled_potential_plus_the_offset():
    # A pair edge is an arc each way and a singleton folds into its vertex,
    # so on hypergraphs of such edges the network has one node per vertex
    # and every subset X's cut is rho(X) * scale + offset, the empty set and
    # the whole set included: int and Fraction weights, zero-weight
    # vertices, parallel pairs.  With edges of three members too, each keeps
    # a node, the identity holds with the node on its cheaper side, and the
    # window and pinned answers match enumeration
    rng = random.Random(2727)
    checked = triples = 0
    for trial in range(80):
        n = rng.randint(1, 7)
        big = trial % 4 == 3
        fractional = trial % 2 == 1
        weight = (lambda: Fraction(rng.randint(0, 12), rng.choice((1, 2, 3)))) if fractional else (lambda: rng.randint(0, 12))
        weights = [weight() for _ in range(n)]
        edges = [
            (rng.sample(range(n), rng.randint(1, min(3 if big else 2, n))), weight() or 1)
            for _ in range(rng.randint(0, 3 * n))
        ]
        H = hypergraph(n, weights, edges)
        aux = build_aux_network(H)
        nodes = sum(len(members) > 2 for members, _ in H.edges)
        assert aux.flow.n == 2 + n + nodes
        triples += nodes
        for X in itertools.chain.from_iterable(itertools.combinations(range(n), k) for k in range(n + 1)):
            assert _cut_capacity(aux, set(X)) == rho_hyper(H, X) * aux.scale + aux.offset
            checked += 1
        if big:
            for mode in (LARGEST, SMALLEST):
                for m1, m2 in ((0, 0), (1, 0), (2, 1)):
                    if m1 <= n - m2:
                        assert min_potential_constrained(H, m1, m2, mode) == min_potential_enum(H, m1, m2, mode)
            for _ in range(10):
                picked = rng.sample(range(n), rng.randint(1, min(3, n)))
                k = rng.randint(0, len(picked))
                mode = rng.choice((None, LARGEST, SMALLEST))
                got = min_potential_pinned(H, picked[:k], picked[k:], extremal=mode)
                assert got == _pinned_oracle(H, picked[:k], picked[k:], mode)
    assert checked >= 2_000 and triples >= 20


def test_released_pins_shift_every_cut(monkeypatch):
    # A released pin keeps its flow: both of the vertex's terminal arcs rise
    # by the excess its arc carries, so the flow stays feasible, its value
    # is unchanged, and every cut rises by the record's shift.  Long chains
    # of pinned instances, scan-shaped and random, in mixed modes and with
    # mixed cutoffs: after each one the network holds a feasible flow of the
    # record's value and the answer is enumeration's.  With the headroom
    # shrunk to one bit, `infinite` is 2 * finite + 2, a few releases use it
    # up, and the record is rebuilt in place with the same answers
    resets = 0
    reset = min_potential._Warm.reset

    def counted(self):
        nonlocal resets
        resets += hasattr(self, "aux")
        reset(self)

    monkeypatch.setattr(min_potential._Warm, "reset", counted)
    modes = (None, LARGEST, SMALLEST)
    for headroom in (min_potential._HEADROOM, 1):
        monkeypatch.setattr(min_potential, "_HEADROOM", headroom)
        rng = random.Random(2828)
        instances = shifted = 0
        resets = 0
        for trial in range(40):
            fractional = trial % 3 == 2
            H = _fraction_hypergraph(rng, 8) if fractional else random_hypergraph(rng, max_n=8, max_edges=16)
            rec = min_potential._warm(H)
            order = rng.sample(range(H.n), H.n)
            for i in range(3 * H.n):
                if i % 2:
                    picked = rng.sample(range(H.n), rng.randint(0, min(3, H.n)))
                    k = rng.randint(0, len(picked))
                    force, ban = picked[:k], picked[k:]
                else:
                    v = order[i // 2 % H.n]
                    force, ban = [v], [] if H.n == 1 else [order[(i // 2 + 1) % H.n]]
                mode = rng.choice(modes)
                below = rng.choice([None, *_thresholds(_pinned_oracle(H, force, ban, mode)[1], fractional)])
                before = rec.shift
                got = min_potential_pinned(H, force, ban, mode, below)
                assert got == _pinned_cut_oracle(H, force, ban, mode, below), (trial, force, ban, mode, below)
                assert _record() is rec
                _check_feasible(H, rec.aux, rec.value)
                assert rec.aux.finite + rec.shift < rec.aux.infinite
                shifted += rec.shift > before
                instances += 1
        assert instances >= 500 and shifted >= 200
        assert resets >= 40 if headroom == 1 else resets == 0


def _parallel_pairs(rng, max_n):
    """Int weights with pair edges repeated as separate edges (which
    hypergraph() would merge), singletons and triples among them."""
    n = rng.randint(2, max_n)
    edges = []
    for _ in range(rng.randint(n, 3 * n)):
        members = frozenset(rng.sample(range(n), rng.choice((1, 2, 2, 2, 3)) if n > 2 else rng.randint(1, 2)))
        edges += [(members, rng.randint(1, 12))] * rng.choice((1, 1, 2, 3))
    return WeightedHypergraph(n, tuple(rng.randint(0, 12) for _ in range(n)), tuple(edges))


def test_one_arc_pair_matches_the_two_arc_network(monkeypatch):
    # A pair edge is one arc pair with residual L w(e) each way.  With net
    # flow f from u to v its residuals are w - f and w + f, the sums the
    # two-arc layout offers, so every residual reachability set is the
    # same: both networks have the same cuts, the same warm value and the
    # same SMALLEST and LARGEST sides, and give the same answers to the
    # same chained asks, pinned ones in every mode with cutoffs and the
    # releases between them, and window ones with and without a cutoff.
    # int and Fraction weights, singletons, triples, parallel pairs
    rng = random.Random(2929)
    modes = (None, LARGEST, SMALLEST)
    pair_arcs = asks = shifted = 0
    for trial in range(60):
        shape = trial % 3
        fractional = shape == 1
        if shape == 0:
            H = random_hypergraph(rng, max_n=8, max_edges=16)
        elif shape == 1:
            H = _fraction_hypergraph(rng, 8)
        else:
            H = _parallel_pairs(rng, 7)
        n = H.n
        old, new = _two_arc_aux_network(H), build_aux_network(H)
        pairs = sum(len(members) == 2 for members, _ in H.edges)
        assert len(old.flow.to) - len(new.flow.to) == 2 * pairs
        pair_arcs += pairs
        for field in ("vertex_node", "scale", "offset", "weights", "edges", "source_arc", "sink_arc", "finite", "infinite"):
            assert getattr(old, field) == getattr(new, field), field
        for X in itertools.chain.from_iterable(itertools.combinations(range(n), k) for k in range(n + 1)):
            assert _cut_capacity(old, set(X)) == _cut_capacity(new, set(X))
        assert old.flow.max_flow(0, 1) == new.flow.max_flow(0, 1)
        for mode in modes:
            assert old.sink_side(mode) == new.sink_side(mode)

        script = []
        order = rng.sample(range(n), n)
        for i in range(2 * n + 4):
            if i % 4 == 3:
                m1, m2 = rng.choice([(a, b) for a, b in itertools.product(range(3), repeat=2) if a <= n - b])
                mode = rng.choice(modes)
                low = min_potential_enum(H, m1, m2, mode)[1]
                script.append(("window", m1, m2, mode, rng.choice([None, *_thresholds(low, fractional)])))
                continue
            if i % 2:
                picked = rng.sample(range(n), rng.randint(0, min(3, n)))
                k = rng.randint(0, len(picked))
                force, ban = picked[:k], picked[k:]
            else:
                v = order[i // 2 % n]
                force, ban = [v], [] if n == 1 else [order[(i // 2 + 1) % n]]
            mode = rng.choice(modes)
            low = _pinned_oracle(H, force, ban, mode)[1]
            script.append(("pinned", force, ban, mode, rng.choice([None, *_thresholds(low, fractional)])))
        answers = []
        for builder in (_two_arc_aux_network, build_aux_network):
            monkeypatch.setattr(min_potential, "build_aux_network", builder)
            min_potential._memo.record = None
            got = []
            for kind, *args in script:
                if kind == "window":
                    got.append(min_potential_constrained(H, *args))
                    continue
                before = _record().shift if _record() is not None else 0
                got.append(min_potential_pinned(H, *args))
                shifted += builder is build_aux_network and _record().shift > before
            answers.append(got)
        assert answers[0] == answers[1]
        for (kind, *args), answer in zip(script, answers[1]):
            if kind == "pinned":
                assert answer == _pinned_cut_oracle(H, *args)
            elif args[2] is not None and args[3] is None:
                assert answer == min_potential_enum(H, *args[:3])
        asks += len(script)
    assert pair_arcs >= 250 and asks >= 750 and shifted >= 300, (pair_arcs, asks, shifted)
