"""Seeded input corpora for the three benchmark workloads.

Each generator takes a ``random.Random`` and returns a list of ``Instance``
records in a fixed order, so the same seed gives the same corpus.  Sizes and
the mix of instance kinds follow fixed schedules: only the structure of each
graph depends on the seed, which keeps the work per corpus nearly the same
from seed to seed.

Every instance carries the outcome class fixed at generation, from the
construction or from the brute-force oracle, and the checker compares the
solver's answer against it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from nbcolor.families import base_graph, gen_gk, gen_hk
from nbcolor.forbidden import default_catalog, find_forbidden_subgraph
from nbcolor.graph_core import MULTI, SINGLE, Graph, normalize
from nbcolor.min_potential import min_potential_pinned
from nbcolor.oracle import DEFAULT_THRESHOLD, brute_nb_color
from nbcolor.potential import hypergraph_for_rho_m, hypergraph_for_rho_s

MULTI_DRIVER = "multi"
SIMPLE_DRIVER = "simple"

COLORED = "colored"
LOW_POTENTIAL = "cert-low-potential"
FORBIDDEN = "cert-forbidden"
UNCOLORABLE = "uncolorable"  # expected only: no answer the drivers give can match it


@dataclass(frozen=True)
class Instance:
    name: str
    graph: Graph
    driver: str
    expect: str
    brute_threshold: int = DEFAULT_THRESHOLD


# -- building blocks ------------------------------------------------------


def relabel(rng: random.Random, G: Graph) -> Graph:
    """G under a uniformly random vertex permutation."""
    perm = list(range(G.n))
    rng.shuffle(perm)
    pre = [None] * G.n
    for v in range(G.n):
        pre[perm[v]] = G.precolor[v]
    return normalize(G.n, [(perm[u], perm[v], k) for u, v, k in G.edges], pre)


def cubic_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A uniformly random simple 3-regular graph on n (even) vertices, by the
    pairing model with rejection of loops and repeated pairs."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = sorted(points[i : i + 2])
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            return sorted(edges)


def cubic_graph(rng: random.Random, n: int) -> Graph:
    """A random connected cubic graph."""
    while True:
        G = normalize(n, [(u, v, SINGLE) for u, v in cubic_edges(rng, n)])
        if len(G.components()) == 1:
            return G


def _floor_holds(H: Graph, u: int, v: int, multi: bool) -> bool:
    """After adding weight on the pair uv, only subsets holding both ends can
    have lost potential; one pinned flow finds their minimum."""
    if multi:
        _, r = min_potential_pinned(hypergraph_for_rho_m(H), force=[u, v], extremal=None)
        return r >= -1
    _, r = min_potential_pinned(hypergraph_for_rho_s(H), force=[u, v], extremal=None)
    return r >= -4


def _short_degree3_cycle(G: Graph) -> bool:
    """Does the part of G made of degree-3 vertices hold a triangle or an
    induced 4-cycle?"""
    L = {v for v in range(G.n) if G.nsize(v) == 3}
    adj = {v: set(G.adj[v]) & L for v in L}
    for a in L:
        for b in adj[a]:
            if adj[a] & adj[b]:
                return True
    for a in L:
        for c in L:
            if c <= a or c in adj[a]:
                continue
            common = sorted(adj[a] & adj[c])
            for i, x in enumerate(common):
                if any(y not in adj[x] for y in common[i + 1 :]):
                    return True
    return False


def _pendant_tree(rng: random.Random, edges: list, start: int, size: int, attach: int) -> None:
    """Append a random tree on vertices start..start+size-1, hung from
    `attach` by one single edge."""
    edges.append((attach, start, SINGLE))
    for v in range(start + 1, start + size):
        edges.append((rng.randrange(start, v), v, SINGLE))


# -- cubic ----------------------------------------------------------------

CUBIC_SIZES = (100, 120, 140)


def cubic(rng: random.Random) -> list[Instance]:
    """Random connected cubic graphs, each solved by both drivers.  No vertex
    has degree two or less, so the peel never fires and the work is the entry
    screen and the per-level scan.  A connected cubic graph on more than four
    vertices holds no catalog member and meets both potential floors, so
    both drivers must color it."""
    out = []
    for n in CUBIC_SIZES:
        G = cubic_graph(rng, n)
        out.append(Instance(f"cubic{n}-multi", G, MULTI_DRIVER, COLORED))
        out.append(Instance(f"cubic{n}-simple", G, SIMPLE_DRIVER, COLORED))
    return out


# -- long-sparse ----------------------------------------------------------

LONG_SPARSE_SIZES = (600, 800, 1000)

_PETERSEN = [(i, (i + 1) % 5) for i in range(5)]
_PETERSEN += [(i, i + 5) for i in range(5)]
_PETERSEN += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]


def long_sparse_graph(rng: random.Random, n: int) -> Graph:
    """A Petersen core grown to n vertices by subdivided paths of three or
    more inner vertices, pendant trees, and a few pendant two-vertex paths
    whose far edge is a parallel pair.

    Each added piece raises the multigraph potential of every subset it
    joins by at least zero, so the minimum over nonempty subsets stays the
    Petersen core's 0 and the entry screen's first flow already settles it.
    The graph is triangle-free, so neither multigraph catalog member embeds.
    """
    edges = [(u, v, SINGLE) for u, v in _PETERSEN]
    count = 10
    pairs_left = 3 + rng.randrange(4)
    while count < n:
        room = n - count
        x = rng.randrange(count)
        if pairs_left and room >= 2 and rng.random() < 0.1:
            edges += [(x, count, SINGLE), (count, count + 1, MULTI)]
            count += 2
            pairs_left -= 1
        elif room >= 3 and rng.random() < 0.5:
            k = rng.randint(3, min(12, room))
            y = rng.choice([v for v in range(count) if v != x]) if count > 1 else x
            chain = [x] + list(range(count, count + k)) + [y]
            edges += [(a, b, SINGLE) for a, b in zip(chain, chain[1:])]
            count += k
        else:
            t = rng.randint(1, min(8, room))
            _pendant_tree(rng, edges, count, t, x)
            count += t
    return relabel(rng, normalize(n, edges))


def long_sparse(rng: random.Random) -> list[Instance]:
    """Large, mostly peelable multigraphs: the degree <= 2 peel removes
    everything but the ten-vertex core, which the brute-force base colors."""
    return [
        Instance(f"long{n}", long_sparse_graph(rng, n), MULTI_DRIVER, COLORED)
        for n in LONG_SPARSE_SIZES
    ]


# -- near-threshold -------------------------------------------------------

NEAR_SIZES = (10, 12, 14, 16, 18)
NEAR_BRUTE = 3
NEAR_SIMPLE = 90
NEAR_MULTI = 90


def _simple_dense(rng: random.Random, n: int, m: int, short_cycle: bool | None) -> Graph:
    """A random cubic graph densified to m edges by random single edges,
    each kept only while the simple potential floor holds and no catalog
    member embeds.  `short_cycle` asks for (True) or against (False) a
    triangle or induced 4-cycle among the degree-3 vertices."""
    cat = default_catalog()
    while True:
        G = cubic_graph(rng, n)
        for _ in range(200):
            if len(G.edges) >= m:
                break
            u, v = rng.sample(range(n), 2)
            if G.kind_of(u, v) is not None:
                continue
            H = G.with_edge(u, v, SINGLE)
            if _floor_holds(H, u, v, multi=False) and find_forbidden_subgraph(H, cat) is None:
                G = H
        if len(G.edges) == m and (short_cycle is None or _short_degree3_cycle(G) == short_cycle):
            return G


def _multi_swapped(rng: random.Random, n: int) -> Graph:
    """A random cubic graph in which a few edges were traded for parallel
    pairs elsewhere, each trade kept only while the multigraph potential
    floor holds and neither multigraph catalog member embeds."""
    cat = default_catalog().restrict(("k4", "m7"))
    G = cubic_graph(rng, n)
    for _ in range(6):
        drop, grow = rng.sample(G.edges, 2)
        if grow[2] != SINGLE:
            continue
        H = G.without_edge(drop[0], drop[1]).set_kind(grow[0], grow[1], MULTI)
        if _floor_holds(H, grow[0], grow[1], multi=True) and find_forbidden_subgraph(H, cat) is None:
            G = H
    return G


def _multi_bridged(rng: random.Random, n: int) -> Graph:
    """Two random connected cubic graphs, one edge of each subdivided, the
    two new vertices joined by a bridge.  Either side then has multigraph
    potential 1, the in-band value that sends the multigraph driver down its
    tight route.  A connected side holds no K4 once subdivided."""
    a = 4 + 2 * rng.randrange((n - 10) // 2 + 1)
    sides = (a, n - 2 - a)
    edges = []
    base = 0
    mids = []
    for size in sides:
        es = [(u + base, v + base) for u, v, _ in cubic_graph(rng, size).edges]
        u, v = es.pop(rng.randrange(len(es)))
        mid = base + size
        es += [(u, mid), (v, mid)]
        edges += [(x, y, SINGLE) for x, y in es]
        mids.append(mid)
        base = mid + 1
    edges.append((mids[0], mids[1], SINGLE))
    return relabel(rng, normalize(n, edges))


def _glued(rng: random.Random, name: str, n: int, multi_pairs: bool) -> Graph:
    """A catalog member with random pendant trees hung on it, up to n
    vertices.  Pendant trees raise the potential of every subset they join,
    so the floor holds and the driver must return the embedding."""
    M = base_graph(name)
    edges = list(M.edges)
    count = M.n
    while count < n:
        if multi_pairs and n - count >= 2 and rng.random() < 0.3:
            x = rng.randrange(count)
            edges += [(x, count, SINGLE), (count, count + 1, MULTI)]
            count += 2
            continue
        t = rng.randint(1, min(4, n - count))
        _pendant_tree(rng, edges, count, t, rng.randrange(count))
        count += t
    return relabel(rng, normalize(n, edges))


def _by_oracle(G: Graph) -> str:
    return COLORED if brute_nb_color(G) is not None else UNCOLORABLE


def near_threshold(rng: random.Random) -> list[Instance]:
    """Hundreds of small graphs near the potential floors, solved with a
    brute-force threshold of 3 so the deep reduction steps run, plus planted
    declines: gk/hk family members and catalog members with trees glued on.

    Simple graphs run through every (size, edge count) pair up to the floor.
    At 12 vertices and 20 edges the whole graph sits on the floor; half of
    those are drawn with a short cycle among the degree-3 vertices and half
    without, because the driver takes a different step for each.
    """
    out = []
    for i in range(NEAR_SIMPLE):
        n = NEAR_SIZES[i % len(NEAR_SIZES)]
        m = min((8 * n + 4) // 5, 3 * n // 2 + (i // len(NEAR_SIZES)) % 3)
        short = None
        if 5 * m == 8 * n + 4:
            short = (i // 15) % 2 == 0
        G = _simple_dense(rng, n, m, short)
        out.append(Instance(f"dense{n}.{m}-{i}", G, SIMPLE_DRIVER, _by_oracle(G), NEAR_BRUTE))
    for i in range(NEAR_MULTI):
        n = NEAR_SIZES[i % len(NEAR_SIZES)]
        kind = (i // len(NEAR_SIZES)) % 3
        if kind == 0:
            G, label = cubic_graph(rng, n), "cubic"
        elif kind == 1:
            G, label = _multi_swapped(rng, n), "swapped"
        else:
            G, label = _multi_bridged(rng, n), "bridged"
        out.append(Instance(f"{label}{n}-{i}", G, MULTI_DRIVER, _by_oracle(G), NEAR_BRUTE))
    for k in range(1, 8):
        out.append(Instance(f"gk{k}", relabel(rng, gen_gk(k)), MULTI_DRIVER, LOW_POTENTIAL, NEAR_BRUTE))
    for k in (1, 2):
        out.append(Instance(f"hk{k}", relabel(rng, gen_hk(k)), SIMPLE_DRIVER, LOW_POTENTIAL, NEAR_BRUTE))
    for name in ("k4", "w5", "m7", "j7", "j8", "j12"):
        for n in (14, 18):
            G = _glued(rng, name, n, multi_pairs=False)
            out.append(Instance(f"glued-{name}{n}", G, SIMPLE_DRIVER, FORBIDDEN, NEAR_BRUTE))
    for name in ("k4", "m7"):
        for n in (10, 14, 18):
            G = _glued(rng, name, n, multi_pairs=True)
            out.append(Instance(f"glued-{name}{n}-multi", G, MULTI_DRIVER, FORBIDDEN, NEAR_BRUTE))
    return out


WORKLOADS = {
    "cubic": cubic,
    "long-sparse": long_sparse,
    "near-threshold": near_threshold,
}
