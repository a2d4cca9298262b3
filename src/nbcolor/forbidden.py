"""Forbidden structures: catalog, membership checks, containment, linkedness.

A catalog member is either one of the four base graphs or a critical graph
carrying a witness cycle: an induced cycle of length three or five whose
vertices all have degree three, such that consecutive outside-attachment
vertices are pairwise linked once the cycle is removed.  Two vertices are
linked when some member, minus one of its edges, embeds with the removed
edge's endpoints landing on them; a valid coloring then either puts both into
I or joins them through the forest.

Subgraph containment is backtracking with degree and adjacency pruning.
Any host edge record counts as adjacency: a parallel pair or a widget edge
constrains colorings at least as hard as the single edge the pattern asks
for.  The matching order depends only on the pattern and on which of its
vertices are anchored, so it is fixed once, as a SearchPlan, and the search
follows the plan it is given or derives the same one.

An unanchored search (the containment screen) also skips every host vertex
that lies in no embedding, by two linear-time filters: the k-core peel
(Batagelj & Zaversnik, arXiv:cs/0310049) and triangle counts (Chiba &
Nishizeki, SIAM J. Comput. 1985).  Let the pattern have minimum degree d.
An embedding's image, with the host edges the pattern's edges map to, is a
subgraph of minimum degree at least d, so it lies in the host's d-core, the
largest such subgraph.  A pattern vertex in t triangles maps to a host
vertex in at least t triangles of that image, distinct since the map is
injective, and so in at least t triangles inside the core.  So the search
places a pattern vertex only on a core vertex with at least as many core
triangles, and starts from the core alone.  It still tries candidates in
increasing id order and skips only vertices no embedding uses, so it finds
the same first mapping.  The host's core and triangle counts cost
O(m * max degree) and are kept for the latest host and d, which every member
of one screen shares (the seed members all have minimum degree three).
Anchored searches (are_linked) run without the filters.

The linked-pair test searches each member's oriented edges in a fixed order
(members by size, then the edge list, each edge (v, w) then (w, v)), and its
answer is the first hit.  It skips every oriented edge (pv, pw) that an
automorphism σ of the member maps an earlier one (qv, qw) onto.  That skip
never changes the answer: if the member minus (pv, pw) embeds by φ with
pv -> s and pw -> t, then φ∘σ embeds the member minus (qv, qw), because σ
carries that edge set onto the other, with qv -> s and qw -> t.  So the
skipped edge succeeds only where an earlier one already has, and the first
hit, found by the same plan, is the same LinkWitness.  The six seed members
need 30 searches this way instead of 144, and no member copy per call.

Each CatalogEntry builds its plans when it is made (by build_catalog,
load_catalog, or directly; restrict reuses the entries): one unanchored
plan for the containment screen, and a link table holding, for each kept
oriented edge, the member minus that edge and its anchored plan.  The
automorphisms come from exhausting the member's own search into itself,
which takes milliseconds.  A table filled on first use instead would make
the first solve that needs it do more work than every later one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from pathlib import Path

from .families import base_graph
from .graph_core import Graph, induced_cycles, induced_subgraph, parse_nbg, write_nbg
from .min_potential import min_potential_constrained
from .oracle import DEFAULT_THRESHOLD, is_nb_critical
from .potential import hypergraph_for_rho_s

BASE_NAMES = ("k4", "w5", "j7", "j12")
SEED_NAMES = ("k4", "w5", "m7", "j7", "j8", "j12")
MEMBER_VERTEX_CAP = 22
MEMBER_POTENTIAL_FLOOR = -4


class CatalogError(ValueError):
    """Catalog construction or loading failed."""


# -- embedding search -----------------------------------------------------


@dataclass(frozen=True)
class SearchPlan:
    """A pattern's matching order for one set of anchored vertices.

    `order` lists the anchored vertices, sorted, and then the rest, each
    time the one with the most placed neighbours, then the highest degree,
    then the smallest id.  `placed[i]` holds the pattern neighbours of
    `order[i]` placed before it, in adjacency order; `degree[p]` is p's
    pattern degree and `triangles[p]` the number of pattern triangles at p;
    `anchored_edges` are the pattern edges between two anchored vertices.

    An unanchored search places p only on a host vertex with at least
    `degree[p]` neighbours that lies in the host's min(degree)-core and in at
    least `triangles[p]` triangles inside it: the image of an embedding is a
    subgraph of that minimum degree, so it lies in the core, and p's
    triangles map to distinct triangles at p's image inside it.
    """

    anchored: tuple[int, ...]
    order: tuple[int, ...]
    placed: tuple[tuple[int, ...], ...]
    degree: tuple[int, ...]
    triangles: tuple[int, ...]
    anchored_edges: tuple[tuple[int, int], ...]


def search_plan(pattern: Graph, anchored=()) -> SearchPlan:
    """The plan find_embedding follows for `pattern` with the vertices
    `anchored` pinned."""
    adj = pattern.adj
    degree = tuple(len(a) for a in adj)
    nbrs = [set(a) for a in adj]
    fixed = tuple(sorted(anchored))
    order = list(fixed)
    rest = [p for p in range(pattern.n) if p not in fixed]
    placed_nbrs = [0] * pattern.n
    for p in fixed:
        for r in adj[p]:
            placed_nbrs[r] += 1
    while rest:
        p = max(rest, key=lambda q: (placed_nbrs[q], degree[q], -q))
        rest.remove(p)
        order.append(p)
        for r in adj[p]:
            placed_nbrs[r] += 1
    pos = {p: i for i, p in enumerate(order)}
    return SearchPlan(
        anchored=fixed,
        order=tuple(order),
        placed=tuple(tuple(q for q in adj[p] if pos[q] < i) for i, p in enumerate(order)),
        degree=degree,
        triangles=tuple(sum(len(nbrs[p] & nbrs[q]) for q in adj[p]) // 2 for p in range(pattern.n)),
        anchored_edges=tuple((p, q) for p, q in combinations(fixed, 2) if pattern.kind_of(p, q) is not None),
    )


def find_embedding(pattern: Graph, host: Graph, anchor: dict[int, int] | None = None,
                   plan: SearchPlan | None = None):
    """Injective edge-preserving map pattern -> host, or None.

    anchor pins pattern vertices to host vertices.  Pattern edges between
    already-mapped vertices must exist in the host (kind does not matter);
    extra host edges are fine, the search is not induced.  `plan`, if
    given, is `search_plan(pattern, anchor)` made in advance; the search and
    its answer are the same as without it.
    """
    if pattern.n > host.n:
        return None
    anchor = dict(anchor or {})
    if len(set(anchor.values())) != len(anchor):
        return None
    for p, h in anchor.items():
        if len(pattern.adj[p]) > len(host.adj[h]):
            return None
    if plan is None:
        plan = search_plan(pattern, anchor)
    elif plan.anchored != tuple(sorted(anchor)):
        raise ValueError("the plan pins other pattern vertices than the anchor")
    for p, q in plan.anchored_edges:
        if host.kind_of(anchor[p], anchor[q]) is None:
            return None
    mapping = anchor  # the caller's anchor was copied above; the search extends it
    core = None if anchor else _host_core(host, min(plan.degree, default=0))
    if _extend(plan, host, mapping, set(anchor.values()), len(plan.anchored), None, core):
        return mapping
    return None


@dataclass(frozen=True)
class _HostCore:
    """A host's d-core and the triangles inside it: `vertices` lists the
    core in increasing order, and `triangles[h]` counts the triangles of
    the core at h, or is -1 for h outside the core."""

    vertices: tuple[int, ...]
    triangles: list[int]


# one slot holding the latest host, its d and its core, replaced whole:
# every member of one screen asks for the same one
_last_core: list[tuple] = [(None, None, None)]


def _host_core(host: Graph, d: int) -> _HostCore:
    """The d-core of `host` by the peel of Batagelj & Zaversnik, and the
    triangles inside it, one set intersection per core edge."""
    last_host, last_d, core = _last_core[0]
    if last_host is host and last_d == d:
        return core
    adj = host.adj
    left = [len(a) for a in adj]
    out = [k < d for k in left]
    stack = [v for v in range(host.n) if out[v]]
    while stack:
        for u in adj[stack.pop()]:
            if not out[u]:
                left[u] -= 1
                if left[u] < d:
                    out[u] = True
                    stack.append(u)
    inner = [set() if out[v] else {u for u in a if not out[u]} for v, a in enumerate(adj)]
    # each core edge uv lies in |N(u) & N(v)| core triangles, and each
    # triangle at v is counted by both of its edges at v
    twice = [0] * host.n
    for u, v, _ in host.edges:
        if not (out[u] or out[v]):
            shared = len(inner[u] & inner[v])
            twice[u] += shared
            twice[v] += shared
    core = _HostCore(
        tuple(v for v in range(host.n) if not out[v]),
        [-1 if o else k // 2 for o, k in zip(out, twice)],
    )
    _last_core[0] = (host, d, core)
    return core


def _extend(plan: SearchPlan, host: Graph, mapping: dict, used: set, i: int, every,
            core: _HostCore | None) -> bool:
    """Place plan.order[i:] by backtracking.  Stops at the first complete
    mapping, or, with `every` a list, appends a copy of each one to it and
    exhausts the search.  With `core`, the host's core for the pattern's
    minimum degree, a vertex is placed only inside it and on a host vertex
    with at least its pattern triangles there."""
    if i == len(plan.order):
        if every is None:
            return True
        every.append(dict(mapping))
        return False
    p = plan.order[i]
    hadj = host.adj
    # the host neighbourhoods p's image must lie in; candidates come from
    # the smallest, and since each is sorted, the images are tried in
    # increasing order whichever it is
    nbrs = [hadj[mapping[q]] for q in plan.placed[i]]
    if nbrs:
        cands = min(nbrs, key=len)
    else:
        cands = range(host.n) if core is None else core.vertices
    need = plan.degree[p]
    tri = plan.triangles[p]
    room = None if core is None else core.triangles
    for h in cands:
        if h in used or len(hadj[h]) < need or (room is not None and room[h] < tri):
            continue
        for nb in nbrs:
            if h not in nb:
                break
        else:
            mapping[p] = h
            used.add(h)
            if _extend(plan, host, mapping, used, i + 1, every, core):
                return True
            del mapping[p]
            used.discard(h)
    return False


def _isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    if sorted(len(x) for x in a.adj) != sorted(len(x) for x in b.adj):
        return False
    return find_embedding(a, b) is not None


# -- catalog --------------------------------------------------------------


@dataclass(frozen=True)
class Link:
    """One oriented member edge searched by are_linked: the member minus
    `edge`, with `ends` pinned to (s, t)."""

    edge: tuple[int, int]
    ends: tuple[int, int]
    pattern: Graph
    plan: SearchPlan


def _link_table(H: Graph, plan: SearchPlan) -> tuple[Link, ...]:
    """The oriented edges of H in are_linked's order, each kept only when no
    earlier one maps onto it under an automorphism of H."""
    # every automorphism, by exhausting H's unanchored search into itself:
    # an injective edge-preserving map of H into itself is a bijection onto
    # the same number of edges
    auts: list[dict[int, int]] = []
    _extend(plan, H, {}, set(), 0, auts, None)
    covered: set[tuple[int, int]] = set()
    links = []
    for v, w, _ in H.edges:
        pattern = None
        for a, b in ((v, w), (w, v)):
            if (a, b) in covered:
                continue
            covered.update((sigma[a], sigma[b]) for sigma in auts)
            if pattern is None:
                pattern = H.without_edge(v, w)
            links.append(Link((v, w), (a, b), pattern, search_plan(pattern, (a, b))))
    return tuple(links)


@dataclass(frozen=True)
class CatalogEntry:
    """A member with its search plans, made with the entry: `plan` for the
    unanchored screen and `links` for are_linked."""

    name: str
    graph: Graph
    role: str  # "base" or "derived"
    witness_cycle: tuple[int, ...] | None
    plan: SearchPlan = field(init=False, repr=False, compare=False)
    links: tuple[Link, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        plan = search_plan(self.graph)
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "links", _link_table(self.graph, plan))


@dataclass(frozen=True)
class Catalog:
    entries: tuple[CatalogEntry, ...]
    vertex_bound: int
    # the members in are_linked's order (by size) and in the screen's (by
    # size, then edge count); both sorts are stable
    link_order: tuple[CatalogEntry, ...] = field(init=False, repr=False, compare=False)
    screen_order: tuple[CatalogEntry, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "link_order", tuple(sorted(self.entries, key=lambda e: e.graph.n)))
        object.__setattr__(
            self, "screen_order", tuple(sorted(self.entries, key=lambda e: (e.graph.n, len(e.graph.edges))))
        )

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def member(self, name: str) -> CatalogEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def restrict(self, names) -> "Catalog":
        names = set(names)
        return Catalog(tuple(e for e in self.entries if e.name in names), self.vertex_bound)


@dataclass(frozen=True)
class LinkWitness:
    member: str
    removed_edge: tuple[int, int]
    mapping: dict[int, int]


def are_linked(G: Graph, s: int, t: int, catalog: "Catalog | None" = None) -> LinkWitness | None:
    """Is a member minus one edge embeddable with that edge's ends on s, t?
    The first such member and oriented edge in catalog order (by member
    size, then edge list, each edge in both orientations)."""
    if s == t:
        raise ValueError("a vertex is not linked with itself")
    cat = catalog if catalog is not None else default_catalog()
    for entry in cat.link_order:
        for link in entry.links:
            pv, pw = link.ends
            m = find_embedding(link.pattern, G, {pv: s, pw: t}, link.plan)
            if m is not None:
                return LinkWitness(entry.name, link.edge, m)
    return None


def witness_cycle(cand: Graph, catalog: "Catalog") -> tuple[int, ...] | None:
    """First induced 3- or 5-cycle of degree-three vertices that certifies
    membership, if any."""
    deg3 = {v for v in range(cand.n) if len(cand.adj[v]) == 3}
    for cycle in induced_cycles(cand, deg3):
        k = len(cycle)
        cyc = set(cycle)
        zs = []
        ok = True
        for x in cycle:
            outside = [u for u in cand.adj[x] if u not in cyc]
            if len(outside) != 1:
                ok = False
                break
            zs.append(outside[0])
        if not ok:
            continue
        rest = [v for v in range(cand.n) if v not in cyc]
        sub, table = induced_subgraph(cand, rest)
        pos = {orig: i for i, orig in enumerate(table)}
        good = True
        for j in range(k):
            z1, z2 = zs[j], zs[(j + 1) % k]
            if z1 == z2:
                continue
            if are_linked(sub, pos[z1], pos[z2], catalog) is None:
                good = False
                break
        if good:
            return cycle
    return None


def verify_member(cand: Graph, catalog: "Catalog | None" = None) -> bool:
    """Full membership check: base graph up to isomorphism, or a critical
    graph within the size and potential bounds carrying a witness cycle."""
    if cand.has_multi or cand.has_gadget:
        return False
    if any(tag != "none" for tag in cand.precolor):
        return False
    for name in BASE_NAMES:
        if _isomorphic(cand, base_graph(name)):
            return True
    if cand.n > MEMBER_VERTEX_CAP or cand.n > DEFAULT_THRESHOLD:
        return False
    _, floor = min_potential_constrained(hypergraph_for_rho_s(cand), m1=1, below=MEMBER_POTENTIAL_FLOOR)
    if floor < MEMBER_POTENTIAL_FLOOR:
        return False
    if not is_nb_critical(cand):
        return False
    cat = catalog if catalog is not None else default_catalog()
    return witness_cycle(cand, cat) is not None


def build_catalog(bound: int = 12) -> Catalog:
    """Verify and collect every seed member with at most `bound` vertices.
    A seed that fails its own verification is a hard error."""
    entries: list[CatalogEntry] = []
    for name in SEED_NAMES:
        G = base_graph(name)
        if G.n > bound:
            continue
        partial = Catalog(tuple(entries), bound)
        if name in BASE_NAMES:
            if not verify_member(G, partial):
                raise CatalogError(f"seed {name} failed base verification")
            entries.append(CatalogEntry(name, G, "base", None))
        else:
            if not verify_member(G, partial):
                raise CatalogError(f"seed {name} failed verification")
            cyc = witness_cycle(G, partial)
            entries.append(CatalogEntry(name, G, "derived", cyc))
    return Catalog(tuple(entries), bound)


@lru_cache(maxsize=1)
def default_catalog() -> Catalog:
    return build_catalog(12)


def find_forbidden_subgraph(G: Graph, catalog: "Catalog | None" = None):
    """Smallest member embeddable into G, as (name, mapping), else None."""
    cat = catalog if catalog is not None else default_catalog()
    for entry in cat.screen_order:
        m = find_embedding(entry.graph, G, plan=entry.plan)
        if m is not None:
            return entry.name, m
    return None


# -- persistence ----------------------------------------------------------


def save_catalog(cat: Catalog, dirpath) -> None:
    root = Path(dirpath)
    root.mkdir(parents=True, exist_ok=True)
    members = []
    for e in cat.entries:
        fname = f"{e.name}.nbg"
        text = write_nbg(e.graph, comment=f"catalog member {e.name} ({e.role})")
        (root / fname).write_text(text, encoding="utf-8")
        members.append(
            {
                "name": e.name,
                "file": fname,
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "role": e.role,
                "witness_cycle": list(e.witness_cycle) if e.witness_cycle else None,
            }
        )
    manifest = {"vertex_bound": cat.vertex_bound, "members": members}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def load_catalog(dirpath) -> Catalog:
    """The catalog saved under `dirpath`.  Every member file must match its
    hash and have at most the manifest's vertex_bound vertices, which may
    not exceed MEMBER_VERTEX_CAP, so a member's own automorphism search
    (_link_table) stays as shallow as any seed's."""
    root = Path(dirpath)
    try:
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CatalogError(f"no manifest.json under {root}") from None
    bound = int(manifest["vertex_bound"])
    if bound > MEMBER_VERTEX_CAP:
        raise CatalogError(f"vertex_bound {bound} exceeds the member cap {MEMBER_VERTEX_CAP}")
    entries = []
    for rec in manifest["members"]:
        text = (root / rec["file"]).read_text(encoding="utf-8")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != rec["sha256"]:
            raise CatalogError(f"hash mismatch for {rec['file']}")
        G = parse_nbg(text)
        if G.n > bound:
            raise CatalogError(f"{rec['file']} has {G.n} vertices, above the vertex_bound {bound}")
        cyc = tuple(rec["witness_cycle"]) if rec.get("witness_cycle") else None
        entries.append(CatalogEntry(rec["name"], G, rec["role"], cyc))
    return Catalog(tuple(entries), bound)
