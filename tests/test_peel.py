"""The degree <= 2 peel's offline split against the interleaved search it
replaced.

`_reference_peel` is the peel as it was when it searched for a split after
every deletion, kept here as the reference: interleaved breadth-first
searches from the deleted vertex's neighbours (`_splits`), stopping at the
first deletion that disconnects the live graph.  With `stop_at_split` false
it runs to its other stops, which shows what the offline version deletes
and then undoes.

`_reference_lift` is the lift as it was when it validated every level of
the peel; `Peeled.lift` now only replays the records, and the solver
validates the result once, on the input.  The lift tests check that the
two agree on every core coloring, valid or not, and that a wrong replay
reaches the driver as a Diagnostic of the core's step.

The last tests bound the peel's classification work and the memory of its
class table, and check the rules' contract: a vertex with three or more
neighbours is classified by its tag alone.
"""

import random
import tracemalloc
from collections import deque
from heapq import heappop, heappush

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
    Graph,
    find,
    induced_subgraph,
    normalize,
    validate_coloring,
)
from nbcolor.oracle import brute_nb_color
from nbcolor.peel import Peeled, _Ranks, peel
from nbcolor.potential import rho_m, rho_s
from nbcolor.solver import _MULTI_PEEL, _SIMPLE_PEEL, Diagnostic, color_multigraph, color_simple


def _splits(nbr, starts) -> bool:
    """Do `starts` lie in two or more components of the live graph?  One
    breadth-first search per start, interleaved one vertex at a time; a
    search that reaches another's vertex absorbs it."""
    k = len(starts)
    owner = {s: i for i, s in enumerate(starts)}
    boss = list(range(k))
    frontier = [deque([s]) for s in starts]
    apart = k

    def find(i):
        while boss[i] != i:
            boss[i] = boss[boss[i]]
            i = boss[i]
        return i

    while True:
        for i in range(k):
            if boss[i] != i:
                continue
            todo = frontier[i]
            if not todo:
                return True
            for y in nbr[todo.popleft()]:
                j = owner.get(y)
                if j is None:
                    owner[y] = i
                    todo.append(y)
                    continue
                j = find(j)
                if j != i:
                    boss[j] = i
                    todo.extend(frontier[j])
                    frontier[j] = deque()
                    apart -= 1
                    if apart == 1:
                        return False


def _reference_peel(G, spec, rho, brute_threshold, note, stop_at_split=True):
    n = G.n
    rules = spec.rules
    tag_weight, edge_weight = spec.weights.tag, spec.weights.edge
    kinds = [tuple(G.kind_of(v, u) for u in G.adj[v]) for v in range(n)]
    tags = list(G.precolor)
    heaps = [[v for v in range(n) if rule.test(tags[v], kinds[v])] for rule in rules]
    if not any(heaps):
        return None
    nbr = [dict(zip(G.adj[v], kinds[v])) for v in range(n)]
    alive = [True] * n
    live = n
    ranks = _Ranks(n) if note is not None else None
    run = Peeled(G, tags, alive)
    while True:
        for rule, heap in zip(rules, heaps):
            while heap and not (alive[heap[0]] and rule.test(tags[heap[0]], tuple(nbr[heap[0]].values()))):
                heappop(heap)
            if heap:
                break
        else:
            break
        v = heappop(heap)
        nb = nbr[v]
        w = next(iter(nb), None)
        if rule.action == "ip" and any(tags[u] == IP for u in nb):
            run.failure = (rule.step, "adjacent independent-side precolored pair")
            return run
        if ranks is not None:
            note(len(run.records), rule.note.format(v=ranks.rank(v), w=None if w is None else ranks.rank(w)))
        retag, new_tag = [], None
        if rule.action == "ip":
            lift = I_SIDE
            retag, new_tag = [u for u in sorted(nb) if tags[u] == UNCOLORED], FP
        elif rule.action == "deg2":
            lift = "deg2"
        elif nb.get(w) == MULTI and tags[v] == FP:
            if tags[w] == FP:
                run.failure = (rule.step, "parallel pair inside the forest-tagged set")
                return run
            lift = F_SIDE
            if tags[w] == UNCOLORED:
                retag, new_tag = [w], IP
        elif nb.get(w) in (MULTI, GADGET):
            lift = "opp"
        else:
            lift = F_SIDE
        run.records.append((v, rule.step, lift, nb, retag))
        alive[v] = False
        live -= 1
        if ranks is not None:
            ranks.drop(v)
        rho -= tag_weight[tags[v]]
        for u, kind in nb.items():
            rho += edge_weight[kind]
            del nbr[u][v]
        for u in retag:
            rho += tag_weight[new_tag] - tag_weight[UNCOLORED]
            tags[u] = new_tag
        for u in nb:
            kinds_u = tuple(nbr[u].values())
            for r, h in zip(rules, heaps):
                if r.test(tags[u], kinds_u):
                    heappush(h, u)
        if live <= brute_threshold or rho < spec.entry_floor:
            break
        if stop_at_split and len(nb) >= 2 and _splits(nbr, list(nb)):
            break
    return run


def _bead_graph(rng, heavy):
    """A connected graph: a chain of beads (K4s, 5-wheels and cycles) joined
    by bridges or short paths, grown by chains, pendant trees, pendant
    cycles and heavy leaves, with random i/f tags.  Some adjacent i pairs and
    f-tagged heavy pairs make the peel fail, before or after a split."""
    edges = []
    count = 0
    beads = []
    for _ in range(rng.randint(1, 5)):
        shape = rng.choice(("k4", "wheel", "cycle", "cycle"))
        if shape == "k4":
            size, es = 4, [(a, b) for a in range(4) for b in range(a + 1, 4)]
        elif shape == "wheel":
            size, es = 6, [(i, i % 5 + 1) for i in range(1, 6)] + [(0, i) for i in range(1, 6)]
        else:
            size = rng.randint(3, 6)
            es = [(i, (i + 1) % size) for i in range(size)]
        edges += [(a + count, b + count, SINGLE) for a, b in es]
        if beads:
            k = rng.randint(0, 3)
            path = [rng.choice(beads[-1])] + list(range(count + size, count + size + k)) + [count]
            edges += [(a, b, SINGLE) for a, b in zip(path, path[1:])]
            size += k
        beads.append(range(count, count + size))
        count += size
    for _ in range(rng.randint(0, 8)):
        x = rng.randrange(count)
        r = rng.random()
        if r < 0.25:
            # a chain, sometimes with one heavy link
            k = rng.randint(1, 4)
            path = [x] + list(range(count, count + k)) + [rng.choice([v for v in range(count) if v != x])]
            kinds = [SINGLE] * (k + 1)
            if rng.random() < 0.4:
                kinds[rng.randrange(k + 1)] = heavy
            edges += [(a, b, kind) for a, b, kind in zip(path, path[1:], kinds)]
            count += k
        elif r < 0.45:
            size = rng.randint(1, 5)
            edges.append((x, count, SINGLE))
            edges += [(rng.randrange(count, v), v, SINGLE) for v in range(count + 1, count + size)]
            count += size
        elif r < 0.6:
            size = rng.randint(3, 5)
            edges.append((x, count, SINGLE))
            edges += [(count + i, count + (i + 1) % size, SINGLE) for i in range(size)]
            count += size
        elif r < 0.8:
            edges += [(x, count, SINGLE), (count, count + 1, heavy)]
            count += 2
        else:
            edges.append((x, count, heavy))
            count += 1
    tags = [UNCOLORED] * count
    rate = rng.choice((0.0, 0.0, 0.05, 0.15))
    for v in range(count):
        if rng.random() < rate:
            tags[v] = rng.choice((FP, IP))
    for _ in range(rng.choice((0, 0, 0, 1))):
        pairs = [(a, b) for a, b, kind in edges if kind == MULTI]
        if pairs and rng.random() < 0.5:
            a, b = rng.choice(pairs)
            tags[a] = tags[b] = FP
        else:
            a, b, _ = rng.choice(edges)
            tags[a] = tags[b] = IP
    return normalize(count, edges, tags)


def _peel_with_lines(peeler, G, spec, rho, threshold, traced):
    lines = []
    note = (lambda i, line: lines.append((i, line))) if traced else None
    return peeler(G, spec, rho, threshold, note), lines


def test_offline_split_matches_the_interleaved_search():
    rng = random.Random(1717)
    cases = dict.fromkeys(("split", "undone retag", "undone isolated"), 0)
    for trial in range(3000):
        driver = trial % 2
        spec, rho, heavy = ((_MULTI_PEEL, rho_m, MULTI), (_SIMPLE_PEEL, rho_s, GADGET))[driver]
        G = _bead_graph(rng, heavy)
        r = rho(G, range(G.n))
        threshold = rng.choice((0, 1, 3, 3, 8))
        traced = trial % 5 != 4
        got, got_lines = _peel_with_lines(peel, G, spec, r, threshold, traced)
        want, want_lines = _peel_with_lines(_reference_peel, G, spec, r, threshold, traced)
        if want is None:
            assert got is None
            continue
        assert got.records == want.records, trial
        assert got.tags == want.tags, trial
        assert got.alive == want.alive, trial
        assert got.failure == want.failure, trial
        assert got_lines == want_lines, trial
        assert [i for i, _ in got_lines] == list(range(len(got_lines)))

        full = _reference_peel(G, spec, r, threshold, None, stop_at_split=False)
        undone = full.records[len(want.records) :]
        cases["split"] += bool(undone)
        cases["undone retag"] += any(rec[4] for rec in undone)
        cases["undone isolated"] += any(not rec[3] for rec in undone)
        if want.failure is not None:
            cases["kept: " + want.failure[1]] = cases.get("kept: " + want.failure[1], 0) + 1
        elif full.failure is not None:
            cases["dropped: " + full.failure[1]] = cases.get("dropped: " + full.failure[1], 0) + 1
    # every kind of stop, both failures kept and both dropped
    assert len(cases) == 7 and min(cases.values()) >= 10, cases


def _reference_lift(run, core, table, c_core):
    """The lift that validated every level: the core's coloring, then the
    records deepest first, each deleted vertex checked against its
    neighbours at deletion time (its tag, an I neighbour while in I, an F
    neighbour across a parallel pair or gadget while in F, and two plain F
    neighbours already joined in a union-find over the F forest).  The core
    is validated once; after any failed check every level is rebuilt and
    validated in full, so a failure comes back as the (step, message) of
    the first level that one validation per level would reject.  A deleted
    vertex's tag at its deletion is its final tag in `run.tags`, since a
    retag only touches vertices still live."""
    n = run.source.n
    tags = list(run.tags)
    color = [None] * n
    for i, orig in enumerate(table):
        color[orig] = c_core.assignment[i]
    parent = list(range(n))
    for a, b, kind in core.edges:
        if kind == SINGLE and c_core.assignment[a] == c_core.assignment[b] == F_SIDE:
            parent[find(parent, table[a])] = find(parent, table[b])
    exact = validate_coloring(core, c_core) is not None
    present = list(run.alive)
    for v, step, lift, nb, retag in reversed(run.records):
        if lift == "opp":
            side = F_SIDE if color[next(iter(nb))] == I_SIDE else I_SIDE
        elif lift == "deg2":
            side = I_SIDE if all(color[u] == F_SIDE for u in nb) else F_SIDE
        else:
            side = lift
        color[v] = side
        present[v] = True
        tag_v = tags[v]
        for u in retag:
            tags[u] = UNCOLORED
        if not exact:
            exact = (tag_v == FP and side != F_SIDE) or (tag_v == IP and side != I_SIDE)
            for u, kind in nb.items():
                if exact:
                    break
                if color[u] != side:
                    continue
                if side == I_SIDE or kind != SINGLE:
                    exact = True
                else:
                    ru, rv = find(parent, u), find(parent, v)
                    exact = ru == rv
                    parent[ru] = rv
        if exact:
            level, ids = induced_subgraph(Graph(n, run.source.edges, tuple(tags)), [x for x in range(n) if present[x]])
            bad = validate_coloring(level, Coloring(tuple(color[x] for x in ids)))
            if bad is not None:
                return step, f"lifted coloring violates {bad.rule} at {bad.witness}"
    return Coloring(tuple(color))


def test_replay_lift_matches_the_validating_lift():
    # the replay is valid on the input exactly when every level of the peel
    # is, and then it is the coloring the validating lift returns
    rng = random.Random(3131)
    cases = {"valid": 0, "invalid": 0}
    for trial in range(2000):
        driver = trial % 2
        spec, rho, heavy = ((_MULTI_PEEL, rho_m, MULTI), (_SIMPLE_PEEL, rho_s, GADGET))[driver]
        G = _bead_graph(rng, heavy)
        run = peel(G, spec, rho(G, range(G.n)), rng.choice((0, 1, 3, 3, 8)), None)
        if run is None or run.failure is not None:
            continue
        core, table = induced_subgraph(G, run.keep)
        core = Graph(core.n, core.edges, tuple(run.tags[v] for v in table))
        if not 0 < core.n <= 16:
            continue
        c = brute_nb_color(core, core.n)
        if c is None:
            continue
        flips = set(rng.sample(range(core.n), min(rng.randint(1, 3), core.n)))
        flipped = Coloring(tuple((F_SIDE if x == I_SIDE else I_SIDE) if i in flips else x for i, x in enumerate(c.assignment)))
        for c_core in (c, flipped):
            want = _reference_lift(run, core, table, c_core)
            got = run.lift(table, c_core)
            if isinstance(want, Coloring):
                assert got == want, trial
                assert validate_coloring(G, got) is None, trial
                cases["valid"] += 1
            else:
                assert validate_coloring(G, got) is not None, (trial, want)
                cases["invalid"] += 1
    assert min(cases.values()) >= 50, cases


def test_a_wrong_replay_is_a_diagnostic_of_the_core_step(monkeypatch):
    # plant one wrong side in the first replay a solve makes: an F vertex
    # with an I neighbour moves to I, and the level reports its core's step
    replay = Peeled.lift
    runs = []

    def planted(run, table, c_core):
        lifted = list(replay(run, table, c_core).assignment)
        if not runs:
            runs.append(run)
            G = run.source
            v = next(
                rec[0]
                for rec in reversed(run.records)
                if lifted[rec[0]] == F_SIDE and any(lifted[u] == I_SIDE for u in G.adj[rec[0]])
            )
            lifted[v] = I_SIDE
        return Coloring(tuple(lifted))

    monkeypatch.setattr(Peeled, "lift", planted)
    # a Petersen graph (multigraph) and a 10-vertex graph of simple potential
    # 0, each with a chain of 20 inner vertices: the peel takes 8 of them, the
    # first by a degree-2 rule and the rest as leaves, so some deleted F
    # vertex has an I neighbour whatever the core's coloring
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    dense10 = [(0, 7), (0, 8), (0, 9), (1, 2), (1, 3), (1, 5), (1, 9), (2, 4), (2, 6)]
    dense10 += [(2, 7), (3, 4), (3, 6), (4, 5), (5, 6), (7, 8), (8, 9)]
    chain = [1, *range(10, 30), 6]
    for color, core in ((color_multigraph, petersen), (color_simple, dense10)):
        runs.clear()
        singles = core + list(zip(chain, chain[1:]))
        out = color(normalize(30, [(a, b, SINGLE) for a, b in singles]))
        assert len(runs) == 1, out
        assert isinstance(out, Diagnostic) and out.step == runs[0].records[-1][1], out
        assert out.message.startswith("lifted coloring violates edge-inside-I"), out


def _tree_and_chain_graph(rng, n, heavy):
    """A Petersen graph with 20 subdivided chains between its vertices, one
    in four with a heavy link, and a random pendant tree up to n vertices.
    Some tree vertices are forest-tagged and some leaves independent-tagged,
    so no deletion before the trees are gone splits the graph."""
    core = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    core += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges = [(a, b, SINGLE) for a, b in core]
    count = 10
    for _ in range(20):
        a, b = rng.sample(range(10), 2)
        k = rng.randint(5, 40)
        path = [a] + list(range(count, count + k)) + [b]
        kinds = [SINGLE] * (k + 1)
        if rng.random() < 0.25:
            kinds[rng.randrange(k + 1)] = heavy
        edges += [(x, y, kind) for x, y, kind in zip(path, path[1:], kinds)]
        count += k
    tree = range(count, n)
    edges += [(rng.randrange(v), v, SINGLE) for v in tree]
    degree = [0] * n
    for a, b, _ in edges:
        degree[a] += 1
        degree[b] += 1
    tags = [UNCOLORED] * n
    for v in tree:
        r = rng.random()
        if r < 0.03:
            tags[v] = FP
        elif r < 0.06 and degree[v] == 1:
            tags[v] = IP
    return normalize(n, edges, tags)


def test_peel_tests_each_key_once_per_rule():
    # a vertex's class depends only on its tag and its edge kinds, so each
    # distinct (tag, kinds) key costs at most one call of each rule's test
    rng = random.Random(2222)
    for spec, rho, heavy in ((_MULTI_PEEL, rho_m, MULTI), (_SIMPLE_PEEL, rho_s, GADGET)):
        G = _tree_and_chain_graph(rng, 2_000, heavy)
        calls = {}

        def counted(test):
            def wrapper(tag, kinds):
                calls[tag, kinds] = calls.get((tag, kinds), 0) + 1
                return test(tag, kinds)

            return wrapper

        rules = tuple(rule._replace(test=counted(rule.test)) for rule in spec.rules)
        run = peel(G, spec._replace(rules=rules), rho(G, range(G.n)), 3, None)
        assert run.failure is None and len(run.records) >= 1_500
        assert max(calls.values()) <= len(rules), max(calls.items(), key=lambda kv: kv[1])


def _hub_graph(leaves):
    """A triangle with a pendant hub of `leaves` leaves."""
    singles = [(0, 1), (1, 2), (2, 0), (0, 3)] + [(3, 4 + k) for k in range(leaves)]
    return normalize(4 + leaves, [(a, b, SINGLE) for a, b in singles])


def test_peel_memory_stays_flat_around_a_hub():
    # each deletion next to a hub leaves it fewer neighbours; keying it by
    # its tuple of kinds would hold d^2/2 kinds for d leaves (64 MB of
    # pointers here)
    leaves = 4_000
    G = _hub_graph(leaves)
    tracemalloc.start()
    try:
        run = peel(G, _MULTI_PEEL, rho_m(G, range(G.n)), 3, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(run.records) == leaves + 1
    assert peak < 8_000_000, peak


def test_peel_hands_no_test_the_kinds_of_a_hub():
    # a deletion next to a hub reclassifies it from its tag alone, in O(1)
    leaves = 4_000
    G = _hub_graph(leaves)
    for spec, rho in ((_MULTI_PEEL, rho_m), (_SIMPLE_PEEL, rho_s)):
        longest, untold = 0, 0

        def measured(test):
            def wrapper(tag, kinds):
                nonlocal longest, untold
                if kinds is None:
                    untold += 1
                else:
                    longest = max(longest, len(kinds))
                return test(tag, kinds)

            return wrapper

        rules = tuple(rule._replace(test=measured(rule.test)) for rule in spec.rules)
        run = peel(G, spec._replace(rules=rules), rho(G, range(G.n)), 3, None)
        assert run.failure is None and len(run.records) >= leaves
        assert longest <= 2 and untold >= 1, (longest, untold)


def test_rules_read_no_kinds_of_a_hub():
    # every rule gives a vertex with three or more neighbours the answer
    # its tag alone gives, whatever the kinds of its edges
    rng = random.Random(3333)
    kinds_of_hubs = [tuple(rng.choice((SINGLE, MULTI, GADGET)) for _ in range(rng.randint(3, 6))) for _ in range(300)]
    for spec in (_MULTI_PEEL, _SIMPLE_PEEL):
        for rule in spec.rules:
            for tag in (UNCOLORED, FP, IP):
                expected = rule.test(tag, None)
                assert all(rule.test(tag, kinds) == expected for kinds in kinds_of_hubs), (rule.step, tag)
