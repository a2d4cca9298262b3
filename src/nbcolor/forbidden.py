"""Forbidden structures: catalog, membership checks, containment, linkedness.

A catalog member is either one of the four base graphs or a critical graph
carrying a witness cycle: an induced cycle of length three or five whose
vertices all have degree three, such that consecutive outside-attachment
vertices are pairwise linked once the cycle is removed.  Two vertices are
linked when some member, minus one of its edges, embeds with the removed
edge's endpoints landing on them; a valid coloring then either puts both into
I or joins them through the forest.

Subgraph containment is plain backtracking with degree and adjacency pruning.
Any host edge record counts as adjacency: a parallel pair or a widget edge
constrains colorings at least as hard as the single edge the pattern asks
for.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from pathlib import Path

from .families import base_graph
from .graph_core import Graph, induced_subgraph, parse_nbg, write_nbg
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


def find_embedding(pattern: Graph, host: Graph, anchor: dict[int, int] | None = None):
    """Injective edge-preserving map pattern -> host, or None.

    anchor pins pattern vertices to host vertices.  Pattern edges between
    already-mapped vertices must exist in the host (kind does not matter);
    extra host edges are fine, the search is not induced.
    """
    if pattern.n > host.n:
        return None
    anchor = dict(anchor or {})
    if len(set(anchor.values())) != len(anchor):
        return None
    for p, h in anchor.items():
        if len(pattern.adj[p]) > len(host.adj[h]):
            return None

    fixed = sorted(anchor)
    order: list[int] = list(fixed)
    placed = set(order)
    while len(order) < pattern.n:
        rest = [p for p in range(pattern.n) if p not in placed]
        # prefer vertices with many placed neighbors, then high degree
        p = max(rest, key=lambda q: (sum(1 for r in pattern.adj[q] if r in placed),
                                     len(pattern.adj[q]), -q))
        order.append(p)
        placed.add(p)

    mapping = dict(anchor)
    used = set(anchor.values())
    for p, q in combinations(fixed, 2):
        if pattern.kind_of(p, q) is not None and host.kind_of(anchor[p], anchor[q]) is None:
            return None

    def extend(i: int) -> bool:
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
        del extend  # the closure refers to itself; drop the cycle with the search
    return dict(mapping) if found else None


def _isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    if sorted(len(x) for x in a.adj) != sorted(len(x) for x in b.adj):
        return False
    return find_embedding(a, b) is not None


# -- catalog --------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    graph: Graph
    role: str  # "base" or "derived"
    witness_cycle: tuple[int, ...] | None


@dataclass(frozen=True)
class Catalog:
    entries: tuple[CatalogEntry, ...]
    vertex_bound: int

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
    """Is a member minus one edge embeddable with that edge's ends on s, t?"""
    if s == t:
        raise ValueError("a vertex is not linked with itself")
    cat = catalog if catalog is not None else default_catalog()
    for entry in sorted(cat.entries, key=lambda e: e.graph.n):
        H = entry.graph
        for v, w, _ in H.edges:
            patt = H.without_edge(v, w)
            for pv, pw in ((v, w), (w, v)):
                m = find_embedding(patt, G, {pv: s, pw: t})
                if m is not None:
                    return LinkWitness(entry.name, (v, w), m)
    return None


def _induced_cycles(G: Graph):
    """Induced cycles of length 3 and 5 whose vertices all have degree 3."""
    deg3 = [v for v in range(G.n) if len(G.adj[v]) == 3]
    d3 = set(deg3)
    for u, v, _ in G.edges:
        if u in d3 and v in d3:
            for w in G.adj[u]:
                if w > v and w in d3 and G.kind_of(v, w) is not None:
                    yield (u, v, w)
    # five-cycles: DFS for paths a-b-c-d-e-a with canonical start and no chords
    for a in deg3:
        for b in G.adj[a]:
            if b <= a or b not in d3:
                continue
            for c in G.adj[b]:
                if c <= a or c == a or c not in d3 or G.kind_of(a, c):
                    continue
                for d in G.adj[c]:
                    if d <= a or d in (a, b) or d not in d3 or G.kind_of(a, d) or G.kind_of(b, d):
                        continue
                    for e in G.adj[d]:
                        if e <= b or e in (a, b, c) or e not in d3:
                            continue
                        if G.kind_of(b, e) or G.kind_of(c, e):
                            continue
                        if G.kind_of(a, e):
                            yield (a, b, c, d, e)


def witness_cycle(cand: Graph, catalog: "Catalog") -> tuple[int, ...] | None:
    """First induced 3- or 5-cycle that certifies membership, if any."""
    for cycle in _induced_cycles(cand):
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
    _, floor = min_potential_constrained(hypergraph_for_rho_s(cand), m1=1)
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
    for entry in sorted(cat.entries, key=lambda e: (e.graph.n, len(e.graph.edges))):
        m = find_embedding(entry.graph, G)
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
    root = Path(dirpath)
    try:
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CatalogError(f"no manifest.json under {root}") from None
    entries = []
    for rec in manifest["members"]:
        text = (root / rec["file"]).read_text(encoding="utf-8")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != rec["sha256"]:
            raise CatalogError(f"hash mismatch for {rec['file']}")
        cyc = tuple(rec["witness_cycle"]) if rec.get("witness_cycle") else None
        entries.append(CatalogEntry(rec["name"], parse_nbg(text), rec["role"], cyc))
    return Catalog(tuple(entries), int(manifest["vertex_bound"]))
