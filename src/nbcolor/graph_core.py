"""Graph model shared by every other module.

Vertices are 0..n-1.  An edge record is (u, v, kind) with u < v and at most one
record per unordered pair.  Kinds:

  single  ordinary edge
  multi   a parallel pair (multiplicity exactly two, it behaves as a 2-circuit)
  gadget  compact stand-in for the widget that forces exactly one endpoint
          into the independent side

Vertices may carry a precolor tag: "f" (must go to the forest side), "i" (must
go to the independent side) or "none".  A coloring splits V into I and F; it is
valid when I is independent, no multi or gadget lies inside F, F induces a
forest over single edges, and precolor tags are respected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

SINGLE = "single"
MULTI = "multi"
GADGET = "gadget"
KINDS = (SINGLE, MULTI, GADGET)

UNCOLORED = "none"
FP = "f"
IP = "i"
PRECOLORS = (UNCOLORED, FP, IP)


class GraphError(ValueError):
    """Malformed graph data (bad ids, loops, conflicting records)."""


class ContractionRejected(GraphError):
    """Simple-mode contraction hit an outside vertex with two or more edges
    (or a gadget) into the contracted subset."""

    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex} has multiple edges into the contracted subset")
        self.vertex = vertex


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int, str], ...]
    precolor: tuple[str, ...]

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("negative vertex count")
        if len(self.precolor) != self.n:
            raise GraphError("precolor length does not match vertex count")
        for tag in self.precolor:
            if tag not in PRECOLORS:
                raise GraphError(f"unknown precolor tag {tag!r}")
        seen = set()
        prev = None
        for u, v, kind in self.edges:
            if not (0 <= u < v < self.n):
                raise GraphError(f"bad edge endpoints ({u}, {v}) for n={self.n}")
            if kind not in KINDS:
                raise GraphError(f"unknown edge kind {kind!r}")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge record on pair ({u}, {v})")
            seen.add((u, v))
            if prev is not None and (u, v) < prev:
                raise GraphError("edge records not sorted")
            prev = (u, v)

    # -- derived views ----------------------------------------------------

    @cached_property
    def _kind(self) -> dict[tuple[int, int], str]:
        return {(u, v): kind for u, v, kind in self.edges}

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        nbr: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        return tuple(tuple(sorted(x)) for x in nbr)

    def kind_of(self, u: int, v: int) -> str | None:
        if u > v:
            u, v = v, u
        return self._kind.get((u, v))

    def degree(self, v: int) -> int:
        """Edge count at v: multi counts two, gadget counts one."""
        d = 0
        for w in self.adj[v]:
            d += 2 if self.kind_of(v, w) == MULTI else 1
        return d

    def nsize(self, v: int) -> int:
        """Number of distinct neighbors."""
        return len(self.adj[v])

    @cached_property
    def has_multi(self) -> bool:
        return any(k == MULTI for _, _, k in self.edges)

    @cached_property
    def has_gadget(self) -> bool:
        return any(k == GADGET for _, _, k in self.edges)

    @cached_property
    def up_set(self) -> frozenset[int]:
        return frozenset(v for v in range(self.n) if self.precolor[v] == UNCOLORED)

    @cached_property
    def fp_set(self) -> frozenset[int]:
        return frozenset(v for v in range(self.n) if self.precolor[v] == FP)

    @cached_property
    def ip_set(self) -> frozenset[int]:
        return frozenset(v for v in range(self.n) if self.precolor[v] == IP)

    def edges_inside(self, W) -> list[tuple[int, int, str]]:
        W = set(W)
        return [(u, v, k) for u, v, k in self.edges if u in W and v in W]

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists (all edge kinds connect)."""
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            stack = [s]
            while stack:
                x = stack.pop()
                for y in self.adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
                        stack.append(y)
            out.append(sorted(comp))
        return out

    # -- pure "mutators" --------------------------------------------------

    def with_precolor(self, v: int, tag: str) -> "Graph":
        if tag not in PRECOLORS:
            raise GraphError(f"unknown precolor tag {tag!r}")
        pre = list(self.precolor)
        pre[v] = tag
        return Graph(self.n, self.edges, tuple(pre))

    def with_edge(self, u: int, v: int, kind: str) -> "Graph":
        """Add an edge record; merging with an existing record follows the
        normalize collapse rules."""
        if u == v:
            raise GraphError("loop")
        if u > v:
            u, v = v, u
        old = self._kind.get((u, v))
        if old is None:
            new_kind = kind
        else:
            new_kind = _merge_kinds(old, kind, (u, v))
        rec = [(a, b, k) for a, b, k in self.edges if (a, b) != (u, v)]
        rec.append((u, v, new_kind))
        rec.sort()
        return Graph(self.n, tuple(rec), self.precolor)

    def set_kind(self, u: int, v: int, kind: str) -> "Graph":
        if u > v:
            u, v = v, u
        if (u, v) not in self._kind:
            raise GraphError(f"no edge on pair ({u}, {v})")
        rec = tuple((a, b, kind if (a, b) == (u, v) else k) for a, b, k in self.edges)
        return Graph(self.n, rec, self.precolor)

    def without_edge(self, u: int, v: int) -> "Graph":
        if u > v:
            u, v = v, u
        if (u, v) not in self._kind:
            raise GraphError(f"no edge on pair ({u}, {v})")
        rec = tuple((a, b, k) for a, b, k in self.edges if (a, b) != (u, v))
        return Graph(self.n, rec, self.precolor)

    def add_vertices(self, count: int, tags=()) -> "Graph":
        tags = tuple(tags) if tags else (UNCOLORED,) * count
        if len(tags) != count:
            raise GraphError("tag count mismatch")
        return Graph(self.n + count, self.edges, self.precolor + tags)


def graph(n, singles=(), multis=(), gadgets=(), fp=(), ip=()) -> Graph:
    """Convenience constructor used all over the tests and generators."""
    raw = [(u, v, SINGLE) for u, v in singles]
    raw += [(u, v, MULTI) for u, v in multis]
    raw += [(u, v, GADGET) for u, v in gadgets]
    pre = [UNCOLORED] * n
    for v in fp:
        pre[v] = FP
    for v in ip:
        pre[v] = IP
    return normalize(n, raw, pre)


def _merge_kinds(a: str, b: str, pair) -> str:
    if GADGET in (a, b):
        if a == b == GADGET:
            return GADGET
        raise GraphError(f"pair {pair} carries both a gadget and another kind")
    # single+single, single+multi, multi+multi all collapse to a parallel pair
    return MULTI


def normalize(n: int, raw_edges, precolor=None) -> Graph:
    """Collapse duplicate records into canonical form.

    Two or more singles on a pair, or a single plus a multi, become one multi
    (multiplicity is capped at two).  A pair carrying a gadget together with
    any other kind is rejected, as are loops and out-of-range ids.
    """
    if precolor is None:
        precolor = [UNCOLORED] * n
    merged: dict[tuple[int, int], str] = {}
    for u, v, kind in raw_edges:
        if kind not in KINDS:
            raise GraphError(f"unknown edge kind {kind!r}")
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        if u > v:
            u, v = v, u
        if not (0 <= u and v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if (u, v) in merged:
            merged[(u, v)] = _merge_kinds(merged[(u, v)], kind, (u, v))
        else:
            merged[(u, v)] = kind
    rec = tuple(sorted((u, v, k) for (u, v), k in merged.items()))
    return Graph(n, rec, tuple(precolor))


# -- colorings ------------------------------------------------------------

I_SIDE = "I"
F_SIDE = "F"


@dataclass(frozen=True)
class Coloring:
    assignment: tuple[str, ...]

    def __post_init__(self):
        for side in self.assignment:
            if side not in (I_SIDE, F_SIDE):
                raise GraphError(f"bad color {side!r}")

    @cached_property
    def i_set(self) -> frozenset[int]:
        return frozenset(v for v, s in enumerate(self.assignment) if s == I_SIDE)

    @cached_property
    def f_set(self) -> frozenset[int]:
        return frozenset(v for v, s in enumerate(self.assignment) if s == F_SIDE)

    def side(self, v: int) -> str:
        return self.assignment[v]


def coloring_from_i_set(n: int, i_set) -> Coloring:
    i_set = set(i_set)
    return Coloring(tuple(I_SIDE if v in i_set else F_SIDE for v in range(n)))


@dataclass(frozen=True)
class Violation:
    rule: str
    witness: object


def find(parent, x):
    """The root of x in the union-find forest `parent` (a list or dict from
    each element to its parent, roots to themselves), halving x's path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def validate_coloring(G: Graph, c: Coloring) -> Violation | None:
    """None when valid, else the first violated rule with a witness.

    Rule order: independent side hit by an edge; multi or gadget inside F;
    cycle inside F over single edges; precolor tag ignored.
    """
    if len(c.assignment) != G.n:
        raise GraphError("coloring length does not match vertex count")
    side = c.assignment
    parent = list(range(G.n))
    # one pass: an I-I edge is the first rule, so it returns at once; the
    # first multi or gadget edge inside F and the first single edge closing
    # a cycle in the F forest wait for the end of the pass
    circuit = closing = None
    for u, v, kind in G.edges:
        if side[u] != side[v]:
            continue
        if side[u] == I_SIDE:
            return Violation("edge-inside-I", (u, v))
        if kind != SINGLE:
            if circuit is None:
                circuit = (u, v)
        elif closing is None:
            ru, rv = find(parent, u), find(parent, v)
            if ru == rv:
                closing = (u, v)
            parent[ru] = rv
    if circuit is not None:
        return Violation("circuit-inside-F", circuit)
    if closing is not None:
        return Violation("cycle-inside-F", _find_f_cycle(G, c, *closing))
    for v in range(G.n):
        if G.precolor[v] == FP and side[v] != F_SIDE:
            return Violation("precolor-ignored", v)
        if G.precolor[v] == IP and side[v] != I_SIDE:
            return Violation("precolor-ignored", v)
    return None


def _find_f_cycle(G: Graph, c: Coloring, u: int, v: int) -> list[int]:
    # path from u to v in the already-acyclic part, plus the closing edge uv
    ok = lambda x: c.assignment[x] == F_SIDE
    prev = {u: None}
    queue = [u]
    for x in queue:
        if x == v:
            break
        for y in G.adj[x]:
            if y in prev or not ok(y) or G.kind_of(x, y) != SINGLE:
                continue
            if (x, y) in ((u, v), (v, u)):
                continue
            prev[y] = x
            queue.append(y)
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return path


# -- subgraphs and contraction -------------------------------------------


def induced_subgraph(G: Graph, W) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on W with vertices re-indexed; returns (graph, id table) where
    table[new_id] is the original id."""
    table = tuple(sorted(set(W)))
    pos = {orig: i for i, orig in enumerate(table)}
    rec = tuple(sorted((pos[u], pos[v], k) for u, v, k in G.edges if u in pos and v in pos))
    pre = tuple(G.precolor[orig] for orig in table)
    return Graph(len(table), rec, pre), table


def induced_cycles(G: Graph, allowed, lengths=(3, 5)):
    """Induced cycles of each length in `lengths` (3, 5 or both) with every
    vertex in `allowed`.

    Triangles come first, as (u, v, w) with u < v < w in edge-record order;
    then five-cycles, each once as (a, b, c, d, e) with a its smallest vertex
    and b < e, in order of a.  Any edge record counts as adjacency."""
    if 3 in lengths:
        for u, v, _ in G.edges:
            if u in allowed and v in allowed:
                for w in G.adj[u]:
                    if w > v and w in allowed and G.kind_of(v, w) is not None:
                        yield (u, v, w)
    if 5 not in lengths:
        return
    for a in sorted(allowed):
        for b in G.adj[a]:
            if b <= a or b not in allowed:
                continue
            for c in G.adj[b]:
                if c <= a or c not in allowed or G.kind_of(a, c):
                    continue
                for d in G.adj[c]:
                    if d <= a or d in (a, b) or d not in allowed or G.kind_of(a, d) or G.kind_of(b, d):
                        continue
                    for e in G.adj[d]:
                        if e <= b or e in (a, b, c) or e not in allowed:
                            continue
                        if G.kind_of(b, e) or G.kind_of(c, e):
                            continue
                        if G.kind_of(a, e):
                            yield (a, b, c, d, e)


@dataclass(frozen=True)
class LiftMap:
    """Recipe for turning a coloring of the contracted graph back into a
    coloring of the original one."""

    n_original: int
    outer_ids: tuple[int, ...]          # contracted id -> original id, specials excluded
    inner_ids: tuple[int, ...]          # the contracted-away subset, sorted
    inner_assignment: tuple[str, ...]   # its fixed coloring, aligned with inner_ids
    wi_id: int | None                   # contracted id of the I-side special, if kept
    wf_id: int | None

    def lift(self, c_prime: Coloring) -> Coloring:
        out = [None] * self.n_original
        for new_id, orig in enumerate(self.outer_ids):
            out[orig] = c_prime.assignment[new_id]
        for pos, orig in enumerate(self.inner_ids):
            out[orig] = self.inner_assignment[pos]
        if any(s is None for s in out):
            raise GraphError("lift left a vertex unassigned")
        return Coloring(tuple(out))


def contract_colored_subset(G: Graph, W, cW: Coloring, mode: str = "multi") -> tuple[Graph, LiftMap]:
    """Replace G[W] (already colored by cW) with two precolored specials.

    Outside vertices keep their edges among themselves; every edge into the
    I part of W is redirected to a special tagged "i", every edge into the F
    part to a special tagged "f".  In multigraph mode the created multiplicity
    is capped at two; in simple mode an outside vertex with two or more edges
    (or any gadget) into W raises ContractionRejected.  Specials that end up
    isolated are dropped.
    """
    if mode not in ("multi", "simple"):
        raise GraphError(f"unknown contraction mode {mode!r}")
    inner = tuple(sorted(set(W)))
    if len(cW.assignment) != len(inner):
        raise GraphError("subset coloring length mismatch")
    inner_pos = {orig: i for i, orig in enumerate(inner)}
    if not inner or len(inner) >= G.n:
        raise GraphError("contracted subset must be proper and nonempty")

    outer = tuple(v for v in range(G.n) if v not in inner_pos)
    outer_pos = {orig: i for i, orig in enumerate(outer)}
    k = len(outer)

    rec: list[tuple[int, int, str]] = []
    to_i: dict[int, int] = {}  # outer id -> multiplicity of edges into I part
    to_f: dict[int, int] = {}
    for u, v, kind in G.edges:
        ui, vi = u in inner_pos, v in inner_pos
        if not ui and not vi:
            a, b = outer_pos[u], outer_pos[v]
            rec.append((min(a, b), max(a, b), kind))
            continue
        if ui and vi:
            continue
        out_v, in_v = (v, u) if ui else (u, v)
        if mode == "simple":
            if kind == GADGET or out_v in to_i or out_v in to_f:
                raise ContractionRejected(out_v)
            bucket = to_i if cW.assignment[inner_pos[in_v]] == I_SIDE else to_f
            bucket[out_v] = 1
        else:
            if kind == GADGET:
                raise GraphError("gadget edge into a multigraph-mode contraction")
            mult = 2 if kind == MULTI else 1
            bucket = to_i if cW.assignment[inner_pos[in_v]] == I_SIDE else to_f
            bucket[out_v] = bucket.get(out_v, 0) + mult

    keep_wi = bool(to_i)
    keep_wf = bool(to_f)
    wi_id = k if keep_wi else None
    wf_id = (k + (1 if keep_wi else 0)) if keep_wf else None
    for out_v, mult in to_i.items():
        a = outer_pos[out_v]
        rec.append((a, wi_id, MULTI if mult >= 2 else SINGLE))
    for out_v, mult in to_f.items():
        a = outer_pos[out_v]
        rec.append((a, wf_id, MULTI if mult >= 2 else SINGLE))

    pre = [G.precolor[v] for v in outer]
    if keep_wi:
        pre.append(IP)
    if keep_wf:
        pre.append(FP)
    n_prime = k + (1 if keep_wi else 0) + (1 if keep_wf else 0)
    Gp = Graph(n_prime, tuple(sorted(rec)), tuple(pre))
    lift = LiftMap(
        n_original=G.n,
        outer_ids=outer,
        inner_ids=inner,
        inner_assignment=cW.assignment,
        wi_id=wi_id,
        wf_id=wf_id,
    )
    return Gp, lift


# -- .nbg file format -----------------------------------------------------

_KIND_BY_LETTER = {"e": SINGLE, "m": MULTI, "g": GADGET}
_LETTER_BY_KIND = {v: k for k, v in _KIND_BY_LETTER.items()}


def parse_nbg(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Directives: "n <count>", "v <id> f|i", "e <u> <v>", "m <u> <v>",
    "g <u> <v>".  "#" starts a comment.  The n line is optional; without it
    the vertex count is max id + 1.  Duplicate edge records collapse exactly
    like normalize.
    """
    n_declared = None
    pre_tags: dict[int, str] = {}
    raw: list[tuple[int, int, str]] = []
    max_id = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        try:
            if head == "n":
                if len(parts) != 2:
                    raise GraphError("n takes one argument")
                if n_declared is not None:
                    raise GraphError("duplicate n line")
                n_declared = int(parts[1])
            elif head == "v":
                if len(parts) != 3 or parts[2] not in (FP, IP):
                    raise GraphError("v takes an id and a tag f or i")
                v = int(parts[1])
                if v in pre_tags and pre_tags[v] != parts[2]:
                    raise GraphError(f"vertex {v} tagged twice with different tags")
                pre_tags[v] = parts[2]
                max_id = max(max_id, v)
            elif head in _KIND_BY_LETTER:
                if len(parts) != 3:
                    raise GraphError(f"{head} takes two ids")
                u, v = int(parts[1]), int(parts[2])
                raw.append((u, v, _KIND_BY_LETTER[head]))
                max_id = max(max_id, u, v)
            else:
                raise GraphError(f"unknown directive {head!r}")
        except ValueError as exc:
            if isinstance(exc, GraphError):
                raise GraphError(f"line {lineno}: {exc}") from None
            raise GraphError(f"line {lineno}: bad integer in {line!r}") from None
    n = n_declared if n_declared is not None else max_id + 1
    if max_id >= n:
        raise GraphError(f"vertex id {max_id} out of range for n={n}")
    pre = [UNCOLORED] * n
    for v, tag in pre_tags.items():
        pre[v] = tag
    return normalize(n, raw, pre)


def write_nbg(G: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(f"n {G.n}")
    for v in range(G.n):
        if G.precolor[v] != UNCOLORED:
            lines.append(f"v {v} {G.precolor[v]}")
    for u, v, kind in G.edges:
        lines.append(f"{_LETTER_BY_KIND[kind]} {u} {v}")
    return "\n".join(lines) + "\n"


def load_nbg(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_nbg(fh.read())


def save_nbg(G: Graph, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_nbg(G, comment))
