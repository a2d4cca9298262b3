"""Exhaustive reference algorithms, trusted on small inputs only.

The searcher walks vertices in a connectivity-friendly order assigning F or I,
pruning as soon as an edge lands inside I, a multi or gadget lands inside F,
or a single edge closes a cycle inside F (detected by a rollback union-find).
Everything else in the package is measured against these routines.
"""

from __future__ import annotations

from fractions import Fraction

from .graph_core import (
    FP,
    IP,
    MULTI,
    SINGLE,
    Coloring,
    Graph,
)
from .min_potential import min_potential_constrained
from .potential import KindError, hypergraph_for_sparsity

DEFAULT_THRESHOLD = 22

_F, _I = 0, 1
_SIDE_NAME = {_F: "F", _I: "I"}


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


def _colorings(G: Graph):
    n = G.n
    order = _search_order(G)
    adj = [[(u, G.kind_of(v, u)) for u in G.adj[v]] for v in range(n)]
    color: list[int | None] = [None] * n

    parent = list(range(n))
    size = [1] * n
    trail: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        if size[ra] > size[rb]:
            ra, rb = rb, ra
        parent[ra] = rb
        size[rb] += size[ra]
        trail.append(ra)
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            ra = trail.pop()
            rb = parent[ra]
            size[rb] -= size[ra]
            parent[ra] = ra

    def sides_for(v: int):
        tag = G.precolor[v]
        if tag == FP:
            return (_F,)
        if tag == IP:
            return (_I,)
        return (_F, _I)

    def place(v: int, side: int) -> int | None:
        """Returns a union-find trail mark on success, None on conflict."""
        mark = len(trail)
        if side == _I:
            for u, _ in adj[v]:
                if color[u] == _I:
                    return None
            return mark
        for u, kind in adj[v]:
            if color[u] != _F:
                continue
            if kind != SINGLE or not union(u, v):
                undo(mark)
                return None
        return mark

    def dfs(i: int):
        if i == len(order):
            yield Coloring(tuple(_SIDE_NAME[c] for c in color))
            return
        v = order[i]
        for side in sides_for(v):
            mark = place(v, side)
            if mark is None:
                continue
            color[v] = side
            yield from dfs(i + 1)
            color[v] = None
            undo(mark)

    try:
        yield from dfs(0)
    finally:
        del dfs  # the generator function refers to itself; drop the cycle once done


def brute_nb_color(G: Graph, threshold: int = DEFAULT_THRESHOLD) -> Coloring | None:
    """First valid coloring found, or None when there is none."""
    if G.n > threshold:
        raise OracleSizeError(f"{G.n} vertices exceeds the oracle threshold {threshold}")
    return next(_colorings(G), None)


def enumerate_nb_colorings(G: Graph, threshold: int = DEFAULT_THRESHOLD):
    """Yields every valid coloring; same size guard as brute_nb_color."""
    if G.n > threshold:
        raise OracleSizeError(f"{G.n} vertices exceeds the oracle threshold {threshold}")
    yield from _colorings(G)


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
    if G.has_gadget:
        raise KindError("chromatic checks do not accept gadget edges")
    order = _search_order(G)
    color = [-1] * G.n
    adj = G.adj

    def dfs(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        banned = 0
        for u in adj[v]:
            if color[u] >= 0:
                banned |= 1 << color[u]
        limit = min(k, used + 1)  # new colors enter in one fixed order
        for c in range(limit):
            if banned >> c & 1:
                continue
            color[v] = c
            if dfs(i + 1, max(used, c + 1)):
                return True
            color[v] = -1
        return False

    return dfs(0, 0)


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
