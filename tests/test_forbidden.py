"""Embedding search, the obstruction catalog, and linkage certificates."""

import gc
import hashlib
import importlib.util
import itertools
import json
import random
import sys
import threading
from pathlib import Path

import pytest

from nbcolor import forbidden
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
    search_plan,
    verify_member,
    witness_cycle,
)
from nbcolor.graph_core import FP, GADGET, IP, MULTI, SINGLE, UNCOLORED, Graph, graph, normalize, write_nbg


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


def test_catalog_load_refuses_members_above_the_bound(tmp_path):
    # a 3,000-vertex path member once loaded and then exhausted its own
    # automorphism search one frame per vertex; the manifest's bound, itself
    # capped, now stops it before any search runs
    root = tmp_path / "cat"
    save_catalog(default_catalog(), root)
    manifest = json.loads((root / "manifest.json").read_text())
    text = write_nbg(graph(3_000, singles=[(i, i + 1) for i in range(2_999)]))
    (root / "path.nbg").write_text(text)
    member = {"name": "path", "file": "path.nbg", "role": "derived", "witness_cycle": None,
              "sha256": hashlib.sha256(text.encode()).hexdigest()}
    for bound, members in ((manifest["vertex_bound"], manifest["members"] + [member]),
                           (forbidden.MEMBER_VERTEX_CAP + 1, manifest["members"])):
        (root / "manifest.json").write_text(json.dumps({"vertex_bound": bound, "members": members}))
        with pytest.raises(CatalogError, match="vertex_bound"):
            load_catalog(root)
    (root / "manifest.json").write_text(json.dumps({**manifest, "vertex_bound": forbidden.MEMBER_VERTEX_CAP}))
    assert load_catalog(root).names() == default_catalog().names()


def test_embedding_search_leaves_no_reference_cycles():
    k4, w5 = base_graph("k4"), base_graph("w5")
    cat = default_catalog()
    rim_cut = w5.without_edge(1, 2)
    gc.collect()
    gc.disable()
    try:
        assert find_embedding(k4, k4) is not None
        assert find_embedding(k4, w5) is None
        # planned searches: the link tables and the screen's member plans
        assert are_linked(rim_cut, 1, 2, cat) is not None
        assert are_linked(cycle(6), 0, 3, cat) is None
        assert find_forbidden_subgraph(w5, cat) is not None
        assert find_forbidden_subgraph(cycle(6), cat) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- link tables: one search per automorphism orbit of oriented edges -------


def _oriented_edges(H):
    """are_linked's order before the orbit skip: each edge, then reversed."""
    return [ends for v, w, _ in H.edges for ends in ((v, w), (w, v))]


def _random_host(rng):
    n = rng.randrange(6, 13)
    p = rng.uniform(0.25, 0.75)
    heavy = rng.choice((SINGLE, MULTI, GADGET))
    raw = [
        (u, v, heavy if rng.random() < 0.3 else SINGLE)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return normalize(n, raw)


def _full_loop(catalog):
    """are_linked without the orbit skip: every member, every edge, both
    orientations, each a search of the member minus that edge.  The
    patterns and their plans are made once per catalog."""
    members = []
    for e in sorted(catalog.entries, key=lambda e: e.graph.n):
        cuts = []
        for v, w, _ in e.graph.edges:
            patt = e.graph.without_edge(v, w)
            for ends in ((v, w), (w, v)):
                cuts.append(((v, w), ends, patt, search_plan(patt, ends)))
        members.append((e.name, cuts))

    def linked(G, s, t):
        for name, cuts in members:
            for edge, (pv, pw), patt, plan in cuts:
                m = find_embedding(patt, G, {pv: s, pw: t}, plan)
                if m is not None:
                    return LinkWitness(name, edge, m)
        return None

    return linked


def _greedy_order(pattern, fixed):
    """The matching order rule as the unplanned search wrote it out on every
    call: the anchored vertices, then the most placed neighbours, then the
    highest degree, then the smallest id."""
    order = list(fixed)
    placed = set(order)
    while len(order) < pattern.n:
        rest = [p for p in range(pattern.n) if p not in placed]
        p = max(rest, key=lambda q: (sum(1 for r in pattern.adj[q] if r in placed),
                                     len(pattern.adj[q]), -q))
        order.append(p)
        placed.add(p)
    return order


def _reference_embedding(pattern, host, anchor=None):
    """The search before plans existed, kept as the reference: it derives
    the order on every call and checks adjacency edge record by record."""
    if pattern.n > host.n:
        return None
    anchor = dict(anchor or {})
    if len(set(anchor.values())) != len(anchor):
        return None
    for p, h in anchor.items():
        if len(pattern.adj[p]) > len(host.adj[h]):
            return None
    fixed = sorted(anchor)
    order = _greedy_order(pattern, fixed)
    mapping = dict(anchor)
    used = set(anchor.values())
    for p, q in itertools.combinations(fixed, 2):
        if pattern.kind_of(p, q) is not None and host.kind_of(anchor[p], anchor[q]) is None:
            return None

    def extend(i):
        if i == len(order):
            return True
        p = order[i]
        req = [q for q in pattern.adj[p] if q in mapping]
        if req:
            pivot = min(req, key=lambda q: len(host.adj[mapping[q]]))
            cands = host.adj[mapping[pivot]]
        else:
            cands = range(host.n)
        for h in cands:
            if h in used or len(host.adj[h]) < len(pattern.adj[p]):
                continue
            if any(host.kind_of(mapping[q], h) is None for q in req):
                continue
            mapping[p] = h
            used.add(h)
            if extend(i + 1):
                return True
            del mapping[p]
            used.discard(h)
        return False

    try:
        found = extend(len(fixed))
    finally:
        del extend
    return dict(mapping) if found else None


def test_search_plans_follow_the_greedy_rule():
    for entry in default_catalog().entries:
        H = entry.graph
        assert entry.plan == search_plan(H)
        cases = [(H, ())] + [(H.without_edge(*sorted(ends)), ends) for ends in _oriented_edges(H)]
        for patt, ends in cases:
            plan = search_plan(patt, ends)
            assert list(plan.order) == _greedy_order(patt, sorted(ends))
            assert plan.anchored == tuple(sorted(ends))
            for i, p in enumerate(plan.order):
                assert plan.placed[i] == tuple(q for q in patt.adj[p] if q in plan.order[:i])
            assert plan.degree == tuple(len(a) for a in patt.adj)
        for link in entry.links:
            assert link.plan == search_plan(link.pattern, link.ends)


def test_planned_search_matches_the_reference():
    # same first embedding, mapping included, for the screen's and the link
    # tables' plans, and for the unplanned call
    rng = random.Random(31)
    found = 0
    for _ in range(150):
        G = _random_host(rng)
        for entry in default_catalog().entries:
            want = _reference_embedding(entry.graph, G)
            assert find_embedding(entry.graph, G, plan=entry.plan) == want
            assert find_embedding(entry.graph, G) == want
            found += want is not None
            for link in entry.links:
                s, t = rng.sample(range(G.n), 2)
                anchor = dict(zip(link.ends, (s, t)))
                want = _reference_embedding(link.pattern, G, anchor)
                assert find_embedding(link.pattern, G, anchor, link.plan) == want
                found += want is not None
    assert found >= 500


def test_link_table_sizes():
    cat = default_catalog()
    assert tuple(len(e.links) for e in cat.entries) == (1, 3, 6, 5, 6, 9)
    for e in cat.entries:
        H = e.graph
        for link in e.links:
            assert link.edge == tuple(sorted(link.ends))
            assert link.pattern == H.without_edge(*link.edge)


def _is_automorphism(H, sigma):
    edges = {frozenset((v, w)) for v, w, _ in H.edges}
    return (
        sorted(sigma) == sorted(sigma.values()) == list(range(H.n))
        and {frozenset(sigma[x] for x in e) for e in edges} == edges
    )


def test_skipped_edges_are_images_of_earlier_kept_ones():
    for entry in default_catalog().entries:
        H = entry.graph
        oriented = _oriented_edges(H)
        kept = [link.ends for link in entry.links]
        assert kept == [ends for ends in oriented if ends in kept]  # today's order
        for i, (pv, pw) in enumerate(oriented):
            earlier = [q for q in oriented[:i] if q in kept]
            images = []
            for qv, qw in earlier:
                # a map of H into itself sending the earlier edge onto this one
                sigma = find_embedding(H, H, {qv: pv, qw: pw})
                if sigma is not None:
                    assert _is_automorphism(H, sigma)
                    images.append((qv, qw))
            if (pv, pw) in kept:
                assert images == [], (entry.name, (pv, pw))
            else:
                assert images, (entry.name, (pv, pw))


def test_unlinked_pair_searches_each_orbit_once(monkeypatch):
    cat = default_catalog()
    G = cycle(6)
    G.adj  # noqa: B018 - the host's views, built outside the count
    calls = {"embed": 0, "graph": 0}
    search = forbidden.find_embedding

    def counted_search(*args, **kwargs):
        calls["embed"] += 1
        return search(*args, **kwargs)

    made = Graph.__post_init__

    def counted_graph(self):
        calls["graph"] += 1
        made(self)

    monkeypatch.setattr(forbidden, "find_embedding", counted_search)
    monkeypatch.setattr(Graph, "__post_init__", counted_graph)
    assert are_linked(G, 0, 3, cat) is None
    # 30 = 1 + 3 + 6 + 5 + 6 + 9; the full loop makes 144 searches and 72 copies
    assert calls == {"embed": 30, "graph": 0}


def test_are_linked_matches_the_full_loop():
    rng = random.Random(909)
    catalogs = [(cat, _full_loop(cat)) for cat in (default_catalog(), default_catalog().restrict(("k4", "m7")))]
    linked = unlinked = 0
    for _ in range(300):
        G = _random_host(rng)
        for s, t in itertools.permutations(range(G.n), 2):
            for cat, full_loop in catalogs:
                want = full_loop(G, s, t)
                assert are_linked(G, s, t, cat) == want, (G, s, t, cat.names())
                if want is None:
                    unlinked += 1
                else:
                    linked += 1
    assert linked >= 1000 and unlinked >= 1000


def test_link_tables_survive_round_trip_and_restrict(tmp_path):
    cat = default_catalog()
    save_catalog(cat, tmp_path / "cat")
    back = load_catalog(tmp_path / "cat")
    small = cat.restrict(("k4", "m7"))
    for a, b in zip(cat.entries, back.entries):
        assert a.links == b.links and a.plan == b.plan
    assert [e.links for e in small.entries] == [cat.member(n).links for n in ("k4", "m7")]
    rng = random.Random(4)
    for _ in range(40):
        G = _random_host(rng)
        s, t = rng.sample(range(G.n), 2)
        assert are_linked(G, s, t, back) == are_linked(G, s, t, cat)
        assert are_linked(G, s, t, small) == are_linked(G, s, t, back.restrict(("k4", "m7")))


def test_plan_must_match_the_anchor():
    entry = default_catalog().member("w5")
    link = entry.links[0]
    with pytest.raises(ValueError):
        find_embedding(link.pattern, entry.graph, {0: 0}, link.plan)


# -- the screen's core and triangle filters -------------------------------


def _reference_screen(G, catalog):
    """find_forbidden_subgraph over the plain search above, which starts
    from every host vertex: kept as the reference."""
    for entry in catalog.screen_order:
        m = _reference_embedding(entry.graph, G)
        if m is not None:
            return entry.name, m
    return None


def _relabelled(rng, G):
    perm = rng.sample(range(G.n), G.n)
    tags = [None] * G.n
    for v in range(G.n):
        tags[perm[v]] = G.precolor[v]
    return normalize(G.n, [(perm[u], perm[v], k) for u, v, k in G.edges], tags)


def _random_cubic_host(rng):
    """A random simple cubic graph on 8-24 vertices by the pairing model,
    about a tenth of its edges then made parallel pairs or gadgets."""
    n = 2 * rng.randrange(4, 13)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i:i + 2])) for i in range(0, len(points), 2)}
        if len(pairs) == len(points) // 2 and all(u != v for u, v in pairs):
            break
    heavy = rng.choice((SINGLE, MULTI, GADGET))
    return normalize(n, [(u, v, heavy if rng.random() < 0.1 else SINGLE) for u, v in sorted(pairs)])


def _planted_host(rng):
    """A catalog member with pendant trees, pendant parallel pairs and a few
    random extra edges, so it embeds, often with more than one image."""
    M = base_graph(rng.choice(SEED_NAMES))
    edges = list(M.edges)
    n = M.n
    for _ in range(rng.randrange(0, 12)):
        x = rng.randrange(n)
        if rng.random() < 0.3:
            edges += [(x, n, SINGLE), (n, n + 1, MULTI)]
            n += 2
        else:
            edges.append((x, n, SINGLE))
            n += 1
    pairs = {(u, v) for u, v, _ in edges}
    for _ in range(rng.randrange(0, 4)):
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in pairs:
            pairs.add((u, v))
            edges.append((u, v, rng.choice((SINGLE, MULTI, GADGET))))
    tags = [rng.choice((UNCOLORED, UNCOLORED, FP, IP)) for _ in range(n)]
    return normalize(n, edges, tags)


def _sparse_host(rng):
    """A random graph of average degree about three to five, with forest
    and independent tags and parallel pairs."""
    n = rng.randrange(6, 20)
    p = rng.uniform(3, 5) / (n - 1)
    edges = [
        (u, v, MULTI if rng.random() < 0.15 else SINGLE)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    tags = [rng.choice((UNCOLORED, UNCOLORED, UNCOLORED, FP, IP)) for _ in range(n)]
    return normalize(n, edges, tags)


def test_pruned_screen_matches_the_plain_search():
    # the core and triangle filters skip only host vertices that lie in no
    # embedding, and candidates are still tried in increasing id order, so
    # the screen returns the same member and the same mapping
    rng = random.Random(1818)
    full = default_catalog()
    catalogs = (full, full.restrict(("k4", "m7")))
    worst = max(max(e.plan.triangles) for e in full.entries)
    hosts = dropped = outside = found = 0
    for k in range(1200):
        G = (_random_cubic_host, _planted_host, _sparse_host)[k % 3](rng)
        for H in (G, _relabelled(rng, G)):
            hosts += 1
            core = forbidden._host_core(H, 3)
            outside += len(core.vertices) < H.n
            dropped += min(core.triangles, default=worst) < worst
            for cat in catalogs:
                want = _reference_screen(H, cat)
                assert find_forbidden_subgraph(H, cat) == want, (H, cat.names())
            found += want is not None  # by K4 or m7
    assert hosts >= 2400
    assert dropped >= 200 and outside >= 200 and found >= 200, (dropped, outside, found)


def test_host_core_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2727)
    for k in range(150):
        G = (_random_cubic_host, _planted_host, _sparse_host)[k % 3](rng)
        g = nx.Graph()
        g.add_nodes_from(range(G.n))
        g.add_edges_from((u, v) for u, v, _ in G.edges)
        for d in (2, 3, 4):
            core = nx.k_core(g, d)
            tri = nx.triangles(core)
            got = forbidden._host_core(G, d)
            assert got.vertices == tuple(sorted(core))
            assert got.triangles == [tri.get(v, -1) for v in range(G.n)]
            assert forbidden._host_core(G, d) is got  # the memo serves a repeat


def _workloads():
    """The benchmark's graph generators, imported from their file."""
    name = "_bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _placements(monkeypatch, G, catalog):
    """Host vertices the screen places pattern vertices on, one entry per
    placement."""
    placed = []
    extend = forbidden._extend

    def counted(plan, host, mapping, used, i, every, core):
        if i > len(plan.anchored):
            placed.append(mapping[plan.order[i - 1]])
        return extend(plan, host, mapping, used, i, every, core)

    with monkeypatch.context() as patch:
        patch.setattr(forbidden, "_extend", counted)
        return find_forbidden_subgraph(G, catalog), placed


def test_screen_work_stays_in_the_core(monkeypatch):
    # The multigraph screen (K4 and m7) on a long sparse graph places
    # pattern vertices only inside its triangle-free Petersen core, so it
    # places none; without the filters it placed 733 times on 222 vertices.
    # On random cubic graphs, which hold O(1) triangles, the work does not
    # grow faster than n; without the filters it was 4n placements, one
    # start from every vertex per member.
    nx = pytest.importorskip("networkx")
    cat = default_catalog().restrict(("k4", "m7"))
    bench = _workloads()
    G = bench.long_sparse_graph(random.Random(1), 1000)
    g = nx.Graph()
    g.add_edges_from((u, v) for u, v, _ in G.edges)
    core = set(nx.k_core(g, 3))
    assert len(core) == 10
    hit, placed = _placements(monkeypatch, G, cat)
    assert hit is None and set(placed) <= core
    work = {}
    for n in (120, 480):
        hit, placed = _placements(monkeypatch, bench.cubic_graph(random.Random(2), n), cat)
        assert hit is None
        work[n] = len(placed)
    assert work[480] <= 4 * max(work[120], 1)
    assert work[480] < 480


def test_core_memo_shared_across_threads():
    # Threads screen alternating hosts through the one-entry core memo; each
    # must get its own host's answer, the one a serial run gives.  An equal
    # host that is another object is in the pool too.
    rng = random.Random(3636)
    hosts = [_planted_host(rng) for _ in range(3)] + [_random_cubic_host(rng)]
    hosts.append(normalize(hosts[0].n, hosts[0].edges, hosts[0].precolor))
    cat = default_catalog()
    expected = [_reference_screen(G, cat) for G in hosts]
    got = [[] for _ in range(8)]
    start = threading.Barrier(len(got))

    def work(t):
        start.wait()
        for k in random.Random(t).choices(range(len(hosts)), k=8 * len(hosts)):
            got[t].append((k, find_forbidden_subgraph(hosts[k], cat)))

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
        assert len(answers) == 8 * len(hosts)
        for k, answer in answers:
            assert answer == expected[k]
