"""The degree <= 2 peel shared by both coloring drivers.

A driver's reductions open with rules that delete one low-degree vertex and
color it last: multigraph steps 2a-2d and simple step 2.  Run as recursion,
every deletion costs a graph rebuild, a validation and a rescan of the whole
graph.  Here they run as one worklist loop (after Batagelj and Zaversnik's
cores decomposition) on a mutable adjacency, with one min-heap of candidates
per rule, and touch only the neighbours of each deleted vertex.

Each step deletes the smallest surviving id of the highest-priority rule
with a candidate, which is the vertex a recursive level would pick, since
deletions keep the relative order of ids.  It pushes a record (vertex, step,
lift, neighbours with edge kinds, tag, retagged neighbours) and stops once
the rest would open its level with a check of its own:

  * at most brute_threshold vertices left;
  * full-set potential below the entry floor (kept as an integer, updated
    on every deletion and tag change);
  * the deletion disconnected the graph.  Only a vertex with two or more
    distinct neighbours can do that, and interleaved searches from those
    neighbours settle it at about the cost of the smaller side.

Tag changes (forest tags around a deleted independent-tagged vertex, an
independent tag on the partner of a forest-tagged parallel pair) update the
potential and the candidate heaps of the retagged vertices.  The caller
colors the core and `Peeled.lift` replays the records in reverse.
"""

from __future__ import annotations

from collections import deque, namedtuple
from heapq import heappop, heappush

from .graph_core import (
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
)


class Rule(namedtuple("Rule", "action step note test")):
    """One peel rule.  `test(tag, kinds)` decides candidacy from a vertex's
    precolor tag and the tuple of edge kinds to its distinct neighbours.
    `action` is "ip" (an independent-tagged vertex: goes to I, its uncolored
    neighbours get forest tags), "leaf" (one neighbour at most) or "deg2"
    (two plain neighbours).  `step` names its diagnostics, `note` is its
    trace line."""

    __slots__ = ()


class Spec(namedtuple("Spec", "rules tag_weight edge_weight entry_floor")):
    """A driver's peel: its rules in priority order, the potential weights of
    tags and edge kinds, and the floor of the full-set potential."""

    __slots__ = ()


class _Ranks:
    """Fenwick tree over live vertices: rank(v) is v's id in the current
    level's numbering."""

    def __init__(self, n: int):
        tree = [0] + [1] * n
        for i in range(1, n + 1):
            j = i + (i & -i)
            if j <= n:
                tree[j] += tree[i]
        self.tree = tree

    def drop(self, v: int) -> None:
        i = v + 1
        while i < len(self.tree):
            self.tree[i] -= 1
            i += i & -i

    def rank(self, v: int) -> int:
        total, i = 0, v
        while i > 0:
            total += self.tree[i]
            i -= i & -i
        return total


def _splits(nbr: list[dict[int, str]], starts) -> bool:
    """Do `starts` lie in two or more components of the live graph?

    One breadth-first search per start, interleaved one vertex at a time; a
    search that reaches another's vertex absorbs it.  The answer is known
    once every search has merged (one component) or one runs out of
    frontier while others remain apart, so the work is about the number of
    starts times the smallest side."""
    k = len(starts)
    owner = {s: i for i, s in enumerate(starts)}
    boss = list(range(k))
    frontier = [deque([s]) for s in starts]
    apart = k

    def find(i: int) -> int:
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


class Peeled:
    """A finished peel.  `failure` is a (step, message) diagnostic; otherwise
    the core is `graph` (the input with its final tags) induced on `keep`,
    and `records` holds one entry per deleted vertex, in deletion order."""

    def __init__(self, source: Graph, tags: list[str], alive: list[bool]):
        self.source = source
        self.tags = tags
        self.alive = alive
        self.records: list[tuple] = []
        self.failure: tuple[str, str] | None = None

    @property
    def graph(self) -> Graph:
        return Graph(self.source.n, self.source.edges, tuple(self.tags))

    @property
    def keep(self) -> list[int]:
        return [v for v in range(self.source.n) if self.alive[v]]

    def lift(self, core: Graph, table, c_core: Coloring, validate, subgraph) -> Coloring | tuple[str, str]:
        """Lift the core's coloring through the records, deepest first, and
        return it or the (step, message) of the first level that fails.

        A record's level is the core plus every vertex deleted at or after it.
        Its coloring is valid there exactly when the level below was valid
        and the deleted vertex keeps its tag, has no I neighbour while in I,
        and while in F has no F neighbour across a parallel pair or gadget
        nor two plain F neighbours already joined in the F forest (a
        union-find over F, seeded with the core's F edges).  The level below
        carries the same tags or stronger ones, so these checks add up to
        validating every level.  The core itself is validated once, with
        `validate`; after any failed check every level is rebuilt with
        `subgraph` and validated in full, so the message names the level,
        rule and witness that one validation per level would.  Call it once:
        it rewinds `tags` to the input's."""
        n = self.source.n
        tags = self.tags
        color: list[str | None] = [None] * n
        for i, orig in enumerate(table):
            color[orig] = c_core.assignment[i]
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b, kind in core.edges:
            if kind == SINGLE and c_core.assignment[a] == c_core.assignment[b] == F_SIDE:
                parent[find(table[a])] = find(table[b])
        exact = validate(core, c_core) is not None
        present = list(self.alive)
        for v, step, lift, nb, tag_v, retag in reversed(self.records):
            if lift == "opp":
                side = F_SIDE if color[next(iter(nb))] == I_SIDE else I_SIDE
            elif lift == "deg2":
                side = I_SIDE if all(color[u] == F_SIDE for u in nb) else F_SIDE
            else:
                side = lift
            color[v] = side
            present[v] = True
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
                        ru, rv = find(u), find(v)
                        exact = ru == rv
                        parent[ru] = rv
            if exact:
                level, ids = subgraph(self.graph, [x for x in range(n) if present[x]])
                bad = validate(level, Coloring(tuple(color[x] for x in ids)))
                if bad is not None:
                    return step, f"lifted coloring violates {bad.rule} at {bad.witness}"
        return Coloring(tuple(color))


def peel(G: Graph, spec: Spec, rho: int, brute_threshold: int, note) -> Peeled | None:
    """Peel a connected graph whose full-set potential is `rho`, or return
    None when no rule applies.  `note(i, line)`, when given, receives the
    trace line of the i-th deletion in that level's vertex numbering."""
    n = G.n
    rules = spec.rules
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
            # v is forest-tagged: its partner must take the independent side
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

        run.records.append((v, rule.step, lift, nb, tags[v], retag))
        alive[v] = False
        live -= 1
        if ranks is not None:
            ranks.drop(v)
        rho -= spec.tag_weight[tags[v]]
        for u, kind in nb.items():
            rho += spec.edge_weight[kind]
            del nbr[u][v]
        for u in retag:
            rho += spec.tag_weight[new_tag] - spec.tag_weight[UNCOLORED]
            tags[u] = new_tag
        for u in nb:
            kinds_u = tuple(nbr[u].values())
            for r, h in zip(rules, heaps):
                if r.test(tags[u], kinds_u):
                    heappush(h, u)
        if live <= brute_threshold or rho < spec.entry_floor:
            break
        if len(nb) >= 2 and _splits(nbr, list(nb)):
            break

    return run
