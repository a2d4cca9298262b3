"""Exhaustive reference algorithms, trusted on small inputs only.

One iterative search (_colorings) serves the brute-force base, the
enumeration and the solver's structured endgame.  It walks a given vertex
order, trying at each vertex the sides its caller allows, in the caller's
order, and prunes as soon as an edge lands inside I, a multi or gadget lands
inside F, or a single edge closes a cycle inside F (detected by a rollback
union-find).  It keeps its place on an explicit list, so its stack depth
does not grow with the graph.  Everything else in the package is measured
against these routines.
"""

from __future__ import annotations

from fractions import Fraction

from .graph_core import (
    F_SIDE,
    FP,
    I_SIDE,
    IP,
    MULTI,
    SINGLE,
    Coloring,
    Graph,
)
from .min_potential import min_potential_constrained
from .potential import KindError, hypergraph_for_sparsity

DEFAULT_THRESHOLD = 22

_TAG_SIDES = {FP: (F_SIDE,), IP: (I_SIDE,)}


class OracleSizeError(ValueError):
    """Input too large for exhaustive search."""


def _search_order(G: Graph) -> list[int]:
    # BFS from a max-degree vertex of each component keeps constraints local
    seen = [False] * G.n
    order: list[int] = []
    starts = sorted(range(G.n), key=lambda v: (-len(G.adj[v]), v))
    for s in starts:
        if seen[s]:
            continue
        seen[s] = True
        queue = [s]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in G.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


def _colorings(G: Graph, order: list[int], sides):
    """Every valid coloring of G that gives each vertex v one of sides[v],
    depth first over `order` (which lists every vertex once), trying each
    vertex's sides in the order given.  Tags are not read: the caller's
    sides carry them."""
    n = G.n
    adj = [[(u, G.kind_of(v, u)) for u in G.adj[v]] for v in range(n)]
    color: list[str | None] = [None] * n

    parent = list(range(n))
    size = [1] * n
    trail: list[int] = []

    def find(x: int) -> int:
        # no path compression, so undo can restore the forest
        while parent[x] != x:
            x = parent[x]
        return x

    def undo(mark: int) -> None:
        while len(trail) > mark:
            ra = trail.pop()
            rb = parent[ra]
            size[rb] -= size[ra]
            parent[ra] = ra

    def place(v: int, side: str) -> bool:
        """Colors v, or leaves everything as it was on a conflict."""
        if side == I_SIDE:
            if any(color[u] == I_SIDE for u, _ in adj[v]):
                return False
        else:
            mark = len(trail)
            for u, kind in adj[v]:
                if color[u] != F_SIDE:
                    continue
                ra, rb = find(u), find(v)
                if kind != SINGLE or ra == rb:
                    undo(mark)
                    return False
                if size[ra] > size[rb]:
                    ra, rb = rb, ra
                parent[ra] = rb
                size[rb] += size[ra]
                trail.append(ra)
        color[v] = side
        return True

    if not order:
        yield Coloring(())
        return
    # the search's place: per depth, the sides still to try at its vertex,
    # and the union-find trail mark from before that vertex was placed
    tries = [iter(sides[order[0]])]
    marks = [0] * len(order)
    while tries:
        i = len(tries) - 1
        v = order[i]
        if color[v] is not None:  # back at v: take its side back
            color[v] = None
            undo(marks[i])
        marks[i] = len(trail)
        # any() stops at the first side that fits and leaves the rest to try
        if not any(place(v, side) for side in tries[i]):
            tries.pop()
        elif len(tries) == len(order):
            yield Coloring(tuple(color))
        else:
            tries.append(iter(sides[order[i + 1]]))


def _tagged_colorings(G: Graph, threshold: int):
    if G.n > threshold:
        raise OracleSizeError(f"{G.n} vertices exceeds the oracle threshold {threshold}")
    sides = [_TAG_SIDES.get(tag, (F_SIDE, I_SIDE)) for tag in G.precolor]
    return _colorings(G, _search_order(G), sides)


def brute_nb_color(G: Graph, threshold: int = DEFAULT_THRESHOLD) -> Coloring | None:
    """First valid coloring found, or None when there is none."""
    return next(_tagged_colorings(G, threshold), None)


def enumerate_nb_colorings(G: Graph, threshold: int = DEFAULT_THRESHOLD):
    """Yields every valid coloring; same size guard as brute_nb_color."""
    yield from _tagged_colorings(G, threshold)


def is_nb_critical(G: Graph, threshold: int = DEFAULT_THRESHOLD) -> bool:
    """Uncolorable, but colorable after weakening any one edge record
    (a multi demotes to a single, anything else is deleted)."""
    if brute_nb_color(G, threshold) is not None:
        return False
    # an isolated vertex never helps: G - v is then a proper subgraph that is
    # just as uncolorable, and edge deletions cannot reach it
    if any(G.nsize(v) == 0 for v in range(G.n)):
        return False
    for u, v, kind in G.edges:
        H = G.set_kind(u, v, SINGLE) if kind == MULTI else G.without_edge(u, v)
        if brute_nb_color(H, threshold) is None:
            return False
    return True


def check_sparse(G: Graph, a, b) -> tuple[bool, frozenset[int] | None]:
    """Does every nonempty W satisfy e(W) <= a |W| - b?  Multi records count
    as two edges.  Returns (True, None) or (False, witness subset).

    Small graphs are checked by direct enumeration, larger ones through the
    constrained minimum-potential search; the two routes are independent on
    purpose and the tests replay one against the other.
    """
    a, b = Fraction(a), Fraction(b)
    if G.n == 0:
        return True, None
    if G.n < 14:
        masks = []
        for u, v, kind in G.edges:
            masks.append((1 << u | 1 << v, 2 if kind == MULTI else 1))
        best_val = None
        best = None
        for bits in range(1, 1 << G.n):
            val = a * bits.bit_count()
            for mask, mult in masks:
                if bits & mask == mask:
                    val -= mult
            if best_val is None or val < best_val:
                best_val = val
                best = bits
        if best_val >= b:
            return True, None
        return False, frozenset(v for v in range(G.n) if best >> v & 1)
    H = hypergraph_for_sparsity(G, a)
    W, val = min_potential_constrained(H, m1=1, below=b)
    if val >= b:
        return True, None
    return False, W


def _k_colorable(G: Graph, k: int) -> bool:
    """Whether G has a proper k-coloring: a depth-first search over
    _search_order, on an explicit stack so that no input is too deep, that
    tries the colours at each position in increasing order and opens at
    most one new colour per position."""
    if G.has_gadget:
        raise KindError("chromatic checks do not accept gadget edges")
    order = _search_order(G)
    n = len(order)
    adj = G.adj
    color = [-1] * G.n
    used = [0] * (n + 1)  # colours in use before each position
    nxt = [0] * n  # the next colour to try at each position
    banned = [0] * n  # the colours of each position's placed neighbours
    i = 0
    while i >= 0:
        if i == n:
            return True
        c = nxt[i]
        limit = min(k, used[i] + 1)  # new colors enter in one fixed order
        while c < limit and banned[i] >> c & 1:
            c += 1
        if c == limit:
            color[order[i]] = -1
            i -= 1
            continue
        color[order[i]] = c
        nxt[i] = c + 1
        used[i + 1] = max(used[i], c + 1)
        i += 1
        if i < n:
            nxt[i] = 0
            banned[i] = 0
            for u in adj[order[i]]:
                if color[u] >= 0:
                    banned[i] |= 1 << color[u]
    return False


def is_4_critical(G: Graph) -> bool:
    """Chromatic number four, and every single edge deletion drops it to
    three.  Parallel edges would be ignored by proper colorings, so only
    simple graphs are accepted."""
    if G.has_multi or G.has_gadget:
        raise KindError("4-criticality is about simple graphs")
    if G.edges == ():
        return False
    if _k_colorable(G, 3):
        return False
    for u, v, _ in G.edges:
        if not _k_colorable(G.without_edge(u, v), 3):
            return False
    return True
