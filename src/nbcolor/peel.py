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
  * the deletion disconnected the graph.  Which vertex goes next never
    depends on this stop, so the loop runs without it, and the first such
    deletion is found afterwards by adding the deleted vertices back in
    reverse order to a union-find over what is left (Tarjan, J. ACM 1975);
    the deletions after it are undone.

Only a vertex's first matching rule can ever pick it: while the vertex
also matches a later rule, the earlier rule has a candidate and is served
first.  So each vertex has one class, the index of its first matching rule
(or none), and sits in that rule's heap alone.  A rule's test reads only
the vertex's tag and, when it has at most two neighbours, the kinds of its
edges; a vertex with three or more is keyed by its tag alone.  So a peel
classifies at most 3 x 14 distinct keys, each once (three tags; no kinds,
one of three, one of nine pairs, or None), and a deletion reclassifies each
neighbour it touched once, in O(1) even next to a hub.

Tag changes (forest tags around a deleted independent-tagged vertex, an
independent tag on the partner of a forest-tagged parallel pair) update the
potential and the classes of the retagged vertices.  The potential's
tag credits and edge debits come from the driver's weights record
(potential.RHO_M or RHO_S), the same one the potential itself reads.  The
caller (the solver's level opening) colors the core and `Peeled.lift`
replays the records in reverse.
"""

from __future__ import annotations

from collections import namedtuple
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
    find,
)


class Rule(namedtuple("Rule", "action step note test")):
    """One peel rule.  `test(tag, kinds)` decides candidacy from a vertex's
    precolor tag and the tuple of edge kinds to its distinct neighbours,
    which is None when there are three or more: a test may read only the
    tag of such a vertex, and must give it the same answer for every kinds.
    `action` is "ip" (an independent-tagged vertex: goes to I, its uncolored
    neighbours get forest tags), "leaf" (one neighbour at most) or "deg2"
    (two plain neighbours).  `step` names its diagnostics, `note` is its
    trace line."""

    __slots__ = ()


class Spec(namedtuple("Spec", "rules weights entry_floor")):
    """A driver's peel: its rules in priority order, its potential's weights
    record (potential.RHO_M or RHO_S) and the floor of the full-set
    potential."""

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


class Peeled:
    """A finished peel.  `failure` is a (step, message) diagnostic; otherwise
    the core is the input induced on `keep`, with each kept vertex's final
    tag from `tags` (the caller induces it from the input, so no copy of the
    whole graph is made), and `records` holds one entry per deleted vertex,
    in deletion order."""

    def __init__(self, source: Graph, tags: list[str], alive: list[bool]):
        self.source = source
        self.tags = tags
        self.alive = alive
        self.records: list[tuple] = []
        self.failure: tuple[str, str] | None = None

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
        for a, b, kind in core.edges:
            if kind == SINGLE and c_core.assignment[a] == c_core.assignment[b] == F_SIDE:
                parent[find(parent, table[a])] = find(parent, table[b])
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
                        ru, rv = find(parent, u), find(parent, v)
                        exact = ru == rv
                        parent[ru] = rv
            if exact:
                level, ids = subgraph(Graph(n, self.source.edges, tuple(tags)), [x for x in range(n) if present[x]])
                bad = validate(level, Coloring(tuple(color[x] for x in ids)))
                if bad is not None:
                    return step, f"lifted coloring violates {bad.rule} at {bad.witness}"
        return Coloring(tuple(color))


def peel(G: Graph, spec: Spec, rho: int, brute_threshold: int, note) -> Peeled | None:
    """Peel a connected graph whose full-set potential is `rho`, or return
    None when no rule applies.  `note(i, line)`, when given, receives the
    trace line of the i-th deletion in that level's vertex numbering.

    `cls[v]` is v's class: the index of the first rule whose test v passes,
    or -1.  Rule i's heap holds every live vertex of class i, and a top is
    stale unless it is alive and still of class i.  The first rule with a
    live top is the first rule any live vertex passes, and the live vertices
    of class i are exactly those that pass it, so the deletion is the one a
    heap of every passing vertex per rule would make.

    No deletion depends on where the live graph splits, so the loop runs to
    its other stops first and `_first_split` then finds the split offline;
    the deletions after it are undone and their lines never reach `note`.
    The extra deletions cost no more than building `nbr`, `cls` and
    `heaps`, which every call pays for its whole graph, so no input gets a
    worse growth class.  Reclassifying a touched neighbour costs O(1), a
    hub's key being its tag alone, so one level's peel is linear up to the
    heaps' log, around a hub of d leaves too.  A graph that splits early is
    peeled past its split once per level, though: on a chain of 100 Petersen
    graphs joined by paths of 3 vertices (1,297 vertices) the 99 peels of
    one solve run 15,044 deletions and keep 295, at the same solve time
    (both versions are quadratic there from the per-level scans)."""
    n = G.n
    rules = spec.rules
    tests = [rule.test for rule in rules]
    actions = [rule.action for rule in rules]
    tag_weight, edge_weight = spec.weights.tag, spec.weights.edge
    # G.edges is sorted, so each vertex meets its neighbours in G.adj order
    nbr: list[dict[int, str]] = [{} for _ in range(n)]
    for u, v, kind in G.edges:
        nbr[u][v] = kind
        nbr[v][u] = kind
    tags = list(G.precolor)
    first: dict[tuple, int] = {}

    def classify(v: int) -> int:
        # the tests are pure in (tag, kinds), so each key's class is kept
        nb = nbr[v]
        key = (tags[v], tuple(nb.values()) if len(nb) < 3 else None)
        c = first.get(key)
        if c is None:
            c = first[key] = next((i for i, test in enumerate(tests) if test(*key)), -1)
        return c

    cls = [classify(v) for v in range(n)]
    heaps = [[v for v, c in enumerate(cls) if c == i] for i in range(len(rules))]  # sorted, so heaps
    if not any(heaps):
        return None

    alive = [True] * n
    live = n
    ranks = _Ranks(n) if note is not None else None
    lines: list[str] = []
    run = Peeled(G, tags, alive)
    record = run.records.append

    while True:
        for i, heap in enumerate(heaps):
            while heap and not (alive[heap[0]] and cls[heap[0]] == i):
                heappop(heap)
            if heap:
                break
        else:
            break
        v = heappop(heap)
        rule, action = rules[i], actions[i]
        nb = nbr[v]
        w = next(iter(nb), None)
        if action == "ip" and any(tags[u] == IP for u in nb):
            run.failure = (rule.step, "adjacent independent-side precolored pair")
            break
        if ranks is not None:
            lines.append(rule.note.format(v=ranks.rank(v), w=None if w is None else ranks.rank(w)))
        retag, new_tag = [], None
        if action == "ip":
            lift = I_SIDE
            retag, new_tag = [u for u in sorted(nb) if tags[u] == UNCOLORED], FP
        elif action == "deg2":
            lift = "deg2"
        elif nb.get(w) == MULTI and tags[v] == FP:
            # v is forest-tagged: its partner must take the independent side
            if tags[w] == FP:
                run.failure = (rule.step, "parallel pair inside the forest-tagged set")
                break
            lift = F_SIDE
            if tags[w] == UNCOLORED:
                retag, new_tag = [w], IP
        elif nb.get(w) in (MULTI, GADGET):
            lift = "opp"
        else:
            lift = F_SIDE

        record((v, rule.step, lift, nb, tags[v], retag))
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
            c = classify(u)
            if c != cls[u]:
                cls[u] = c
                if c >= 0:
                    heappush(heaps[c], u)
        if live <= brute_threshold or rho < spec.entry_floor:
            break

    k = _first_split(nbr, alive, run.records)
    if k is not None:
        # stop after deletion k: undo the later ones and drop any failure
        for v, _, _, _, _, retag in run.records[k + 1 :]:
            alive[v] = True
            for u in retag:
                tags[u] = UNCOLORED
        del run.records[k + 1 :]
        del lines[k + 1 :]
        run.failure = None
    for i, line in enumerate(lines):
        note(i, line)
    return run


def _first_split(nbr: list[dict[int, str]], alive: list[bool], records: list[tuple]) -> int | None:
    """The first deletion after which the live graph had two or more
    components, or None.  The deleted vertices go back in reverse order
    into a union-find over the final live graph (`nbr` restricted to
    `alive`); a record's neighbours are exactly the vertices live after its
    deletion, so this replays the component count backwards, one find per
    edge, O(m log n) at worst with path halving alone."""
    parent = list(range(len(nbr)))

    def join(v, others) -> int:
        merged = 0
        for u in others:
            ru, rv = find(parent, u), find(parent, v)
            if ru != rv:
                parent[ru] = rv
                merged += 1
        return merged

    comps = 0
    for v, live in enumerate(alive):
        if live:
            comps += 1 - join(v, nbr[v])
    first = None
    for i in range(len(records) - 1, -1, -1):
        if comps >= 2:
            first = i
        v, nb = records[i][0], records[i][3]
        comps += 1 - join(v, nb)
    return first
