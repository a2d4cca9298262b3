"""Coloring drivers for multigraphs and simple graphs.

color_multigraph and color_simple check their graph's kind and then share
one entry (_drive): the empty graph, the potential floor over all nonempty
subsets, the forbidden structures, and a worker that either produces a
validated coloring or reports why it cannot:

  Colored            a coloring that passed validate_coloring
  CertLowPotential   a nonempty subset whose potential beats the hypothesis floor
  CertForbidden      an embedded catalog member
  Diagnostic         a structural dead end with the step that hit it

The potential screen asks only whether some nonempty subset beats the
floor, so min_potential stops its search at the floor (`below`): at most
one max flow per screen, and the same subset as the exact minimum whenever
the screen fires.  Both floors are negative, so min_potential first tries
the deficit certificate (potential.deficits): half the sum of the negative
deficits is a lower bound on every subset's potential, and when it reaches
the floor the screen is settled without a network or a flow.  A cubic
graph is settled so under either potential.  The query runs first on a
kernel of the hypergraph (potential.screen_kernel): a vertex whose credit pays for all its edges
goes, and so does one whose credit pays for each of its two edges, which
become one edge of their combined weight less that credit.  Neither rule
changes the nonempty minimum where it is negative, and both floors are,
so the kernel fires exactly when the whole graph does; the rules are the
weight count that makes the degree <= 2 configurations reducible, run to
exhaustion as in a cores peel.  A long sparse graph's kernel is its small
core (20 vertices for the benchmark's 1,000-vertex graphs), a cycle's is
empty and runs no flow, and a graph with minimum degree 3 is its own.  The
kernel reads G.edges and the weights record itself, so the whole
hypergraph is built only when no vertex reduces or when the kernel fires,
for the exact certificate; a long sparse graph never builds it (_drive).

Workers assume the screened invariants (potential floor on every nonempty
subset, no catalog member) and re-establish them for every recursive call by
construction; a breach at any point turns into a Diagnostic, never a wrong
answer.  Every lifted coloring is validated at its level, and the driver
validates the final coloring once more against its own input (step "final").

Both workers open a level the same way (_open), with its checks in a fixed
order: empty graph, full-set potential against the floor ("entry"), the
brute-force base, the split into components, then the peel; the kinds
differ only in the potential's weights record and the peel rules (a Spec).
The degree <= 2 rules (multigraph steps 2a-2d, simple step 2) do not
recurse.  They run as one worklist peel (peel.py) on a mutable adjacency.
Each vertex sits in the min-heap of its first matching rule, the only rule
that can pick it; a deletion reclassifies each neighbour it touched, and
each distinct tag and tuple of edge kinds is tested once per peel (a vertex
with three or more neighbours is keyed by its tag alone, since no rule
reads its kinds).  Each step deletes the smallest id of the highest-
priority rule, the vertex one recursive level per deletion would pick.  The
peel stops where that level's opening checks would fire: at most
brute_threshold vertices left, the full-set potential (kept as an integer)
below the floor, or a deletion that disconnected the graph (found after the
loop by a reverse union-find over the deletions, which undoes those after
it).  The worker then runs once on the core, one level per deletion deeper,
and the peel records replay in reverse to lift its coloring.  The replay
validates the core once and then each deleted vertex against its neighbours
at deletion time (independent side, parallel pairs and gadgets, a
union-find over the F forest, its tag); since a level's tags are never
stronger than the level below's, these checks are exactly one full
validation per level. Trace lines and diagnostics are the ones the
recursion would produce.  The reductions after the peel still recurse, one
worker frame per step.  A peel stops at its first split, and _open then
recurses into a worker per component, whose own _open recurses into its
peeled core, so the stack grows by a few frames per split level.  The
benchmark corpora, and cubic graphs, prisms and Moebius ladders of up to 400
vertices, stay within 36 Python frames below the driver call, but a chain of
250 Petersen graphs joined by 3-vertex paths splits at every block and
raises RecursionError in either driver (ROADMAP item 1).  Apart from the
workers' own recursion, no stack depth grows with the input: the structured
endgame's tree split is a loop and its exhaustive search is the oracle's
iterative one, so a structured level of 5,006 vertices colors within the
default limit.  The drivers leave the
interpreter's recursion limit alone.

The per-level subset scan (_scan) is exact in the band and a certified floor
above it: one max-flow per vertex, forcing v inside and banning its
successor in a cyclic order, since every proper nonempty subset has such a
boundary pair in any cyclic order.  The order is a depth-first preorder of
the level's graph, so the forced and the banned vertex are nearly always
neighbours.  None of these flows starts from zero: min_potential solves the
level's hypergraph once without constraints, on a network with one node
per vertex and an arc each way per edge, and each forced and banned
instance starts from the previous instance's max flow, releasing the two
pins it drops and raising the two it adds, which gives the same subsets a
flow from zero would.  A release moves no flow: it raises the released
vertex's two terminal arcs by the flow its pinned arc carries beyond
capacity, which shifts every cut alike, so it costs O(1).  On a graph that
neither splits nor peels, the level-0 scan gets the entry screen's
hypergraph object back (potential memoises its latest build), so it reuses
the screen's warm network and its first instance
starts from the warm flow, the only flow the screen runs; a screen that the
deficit certificate settled built no network, and the scan's first instance
builds it and runs the warm flow.  The sweep asks
each pair once, under LARGEST, with the band's top plus one as the cutoff
(`below`), so a pair above the band stops its flow as soon as the flow's
value proves it, and a pair whose value lies in the band runs its flow to
the maximum and reads its value and witness off it.  So every in-band
answer is the largest, then lexicographically smallest, window minimizer.
Above the band the scan returns the band's top plus one, and callers only
compare it to the band.

The simple worker's step 3 acts only on a window set of potential at most
0, and one linear pass over the level's hypergraph often proves there is
none (_deficit_bound).  It reads the deficits c(v) = 2w(v) - deg_w(v) of
potential.deficits, whose identity 2 rho(X) = sum_{v in X} c(v) + w(dX)
also settles the entry screens.  A level is connected once _open is done,
so every proper nonempty X has a boundary edge and 2 rho(X) is at least
the sum of the negative c(v) plus the least edge debit; when that is
positive every window set has rho >= 1, and step 3 cannot act.  Such a
level (every cubic one: c(v) = 1 throughout) skips the scan at step 3 and
runs it at step 5, only when step 4 has not returned.  It is the scan step
3 would have run, from the same warm flow, since step 4 runs no flow before
it returns or falls through, and its in-band witness is canonical, so no
answer and no trace line changes; a level where the bound fails scans at
step 3, as before.  Step 4 lists the level's induced triangles alone; the
five-cycles are listed at step 6, the only step that reads them.  The
multigraph worker has no such pass: there a bridge already gives rho = 1,
inside its band.

Completeness of the simple driver is relative to the supplied catalog: a
cycle whose attachment pairs are all linked through catalog members is
reported as a Diagnostic rather than resolved, since the full forbidden
family is not constructively enumerable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .forbidden import Catalog, are_linked, default_catalog, find_forbidden_subgraph
from .graph_core import (
    FP,
    GADGET,
    IP,
    MULTI,
    SINGLE,
    UNCOLORED,
    Coloring,
    ContractionRejected,
    F_SIDE,
    Graph,
    GraphError,
    I_SIDE,
    contract_colored_subset,
    find,
    induced_cycles,
    induced_subgraph,
    normalize,
    validate_coloring,
)
from .min_potential import LARGEST, min_potential_constrained, min_potential_pinned
from .oracle import DEFAULT_THRESHOLD, _colorings, brute_nb_color
from .peel import Rule, Spec, peel
from .potential import (
    RHO_M,
    RHO_S,
    KindError,
    deficits,
    hypergraph_for_rho_m,
    hypergraph_for_rho_s,
    rho_m,
    rho_s,
    screen_kernel,
)

MULTI_FLOOR = -1
SIMPLE_FLOOR = -4
_MULTI_BAND = 1   # tight subsets up to this value are actionable in-band
_SIMPLE_BAND = 3


# -- outcomes --------------------------------------------------------------


@dataclass(frozen=True)
class Colored:
    coloring: Coloring


@dataclass(frozen=True)
class CertLowPotential:
    subset: frozenset[int]
    rho: int
    threshold: int


@dataclass(frozen=True)
class CertForbidden:
    name: str
    mapping: dict[int, int]


@dataclass(frozen=True)
class Diagnostic:
    step: str
    message: str


Outcome = Colored | CertLowPotential | CertForbidden | Diagnostic


@dataclass(frozen=True)
class Blocked:
    """Why a cycle extension cannot be completed."""

    reason: str


@dataclass
class _Ctx:
    catalog: Catalog
    brute_threshold: int
    trace: list[str] | None

    def note(self, depth: int, msg: str) -> None:
        if self.trace is not None:
            self.trace.append(f"{'  ' * depth}{msg}")


# -- small graph surgery helpers ------------------------------------------


def _delete(G: Graph, drop) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph without `drop`, plus the old-to-new id map."""
    drop = set(drop)
    keep = [v for v in range(G.n) if v not in drop]
    sub, table = induced_subgraph(G, keep)
    return sub, {orig: i for i, orig in enumerate(table)}


def _identify(G: Graph, drop, a: int, b: int) -> tuple[Graph, dict[int, int]]:
    """Delete `drop`, then merge the survivors a and b into one vertex; they
    must be distinct non-neighbors with equal precolor tags.  Parallel
    collisions collapse by the normalize rules.  The map sends every
    surviving old id (a and b included) to its new id."""
    sub, m1 = _delete(G, drop)
    keep, merge = sorted((m1[a], m1[b]))
    if keep == merge:
        raise GraphError("cannot identify a vertex with itself")
    if sub.kind_of(keep, merge) is not None:
        raise GraphError("cannot identify adjacent vertices")
    if sub.precolor[keep] != sub.precolor[merge]:
        raise GraphError("cannot identify differently tagged vertices")
    idmap = {}
    for v in range(sub.n):
        if v != merge:
            idmap[v] = v - (1 if v > merge else 0)
    raw = []
    for u, v, kind in sub.edges:
        u2 = keep if u == merge else u
        v2 = keep if v == merge else v
        raw.append((idmap[u2], idmap[v2], kind))
    pre = [sub.precolor[v] for v in range(sub.n) if v != merge]
    child = normalize(sub.n - 1, raw, pre)
    idmap[merge] = idmap[keep]
    return child, {o: idmap[i] for o, i in m1.items()}


def _lift_deleted(G: Graph, c_child: Coloring, idmap: dict[int, int], extra: dict[int, str]) -> Coloring:
    out = []
    for u in range(G.n):
        if u in extra:
            out.append(extra[u])
        else:
            out.append(c_child.assignment[idmap[u]])
    return Coloring(tuple(out))


def _opp(side: str) -> str:
    return F_SIDE if side == I_SIDE else I_SIDE


def _ok(G: Graph, col: Coloring, step: str) -> Outcome:
    bad = validate_coloring(G, col)
    if bad is not None:
        return Diagnostic(step, f"lifted coloring violates {bad.rule} at {bad.witness}")
    return Colored(col)


def _measure(G: Graph) -> int:
    return G.n + len(G.edges)


# -- the per-level subset scan --------------------------------------------


def _exact_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise AssertionError(f"non-integral potential {x}")
    return int(x)


def _sweep_order(H, n: int) -> list[int]:
    """The vertices in depth-first preorder over H's edges, all pairs as in
    a graph potential's hypergraph, smallest neighbour first, restarting at
    the smallest unvisited vertex.  Each adjacency list is sorted once,
    largest first, so the stack pops the smallest neighbour next."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for members, _ in H.edges:
        u, v = members
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort(reverse=True)
    seen = [False] * n
    order = []
    for root in range(n):
        stack = [root]
        while stack:
            u = stack.pop()
            if not seen[u]:
                seen[u] = True
                order.append(u)
                stack += adj[u]
    return order


def _scan(H, n: int, band_top: int) -> tuple[int, frozenset[int] | None]:
    """The minimum of rho over subsets with 2 <= |X| <= n-1 when it lies in
    the band, and otherwise a floor above the band.

    The boundary-pair sweep: the vertices in a cyclic order, and for each v
    one flow forcing v and banning its successor.  Every proper nonempty
    subset contains some v whose successor it misses, so every subset of the
    window is open to one of the n flows, whatever the order.  The order is
    depth-first (_sweep_order), so nearly every banned vertex is a neighbour
    of the forced one, and each flow starts from the one before it
    (min_potential chains them), releasing the two pins it drops in O(1)
    by raising each released vertex's terminal arcs, and augments only
    what those two pins change.

    Each pair is asked once, under LARGEST, with band_top + 1 as its cutoff,
    so the flow of a pair above the band stops once its value proves that,
    and the pair enters as the floor band_top + 1.  A pair in the band runs
    its flow to its maximum and gets its value and its witness, the union of
    its minimizers, off that one flow.  A singleton winner enters as the
    bound val+1: by the largest-cardinality tie-break no larger set of its
    family ties it.

    Returns (m, W): an in-band witness (m <= band_top, W its exact minimum
    set, the largest, then lexicographically smallest, window minimizer) or
    (m, None) with m a certified floor above the band.  Above the band m is
    band_top + 1, a lower bound on the window minimum: callers only compare
    it to the band.  The multigraph worker scans every level at its step 3;
    the simple worker scans at step 3 unless _deficit_bound rules out every
    window set of potential <= 0, and then at step 5, and only when step 4
    has not returned.  Singleton potentials
    keep the bound val+1 out of every band this module uses (the peel
    removes every independent-tagged vertex, the only kind of potential 0,
    before a level scans).  So an in-band answer is the same for every
    cyclic order: each largest window minimizer X lies in some flow's
    family, whose LARGEST set contains X at the same value and so is X.  A
    vertex of potential 0 would put its singleton's bound 1 in band and make
    the answer depend on the order, so it is refused with ValueError.
    """
    if any(w == 0 for w in H.vertex_weights):
        raise ValueError("the level scan needs every vertex potential nonzero")
    if n < 3:
        return band_top + 1, None
    order = _sweep_order(H, n)
    results: list[tuple[int, frozenset[int] | None]] = []
    for i, v in enumerate(order):
        u = order[(i + 1) % n]
        W, r = min_potential_pinned(H, force=[v], ban=[u], extremal=LARGEST, below=band_top + 1)
        val = _exact_int(r)
        results.append((val, W) if W is None or len(W) >= 2 else (val + 1, None))
    m = min(val for val, _ in results)
    if m > band_top:
        return m, None
    surfaced = [(val, W) for val, W in results if W is not None and val == m]
    if not surfaced:
        return m, None
    best = min(surfaced, key=lambda t: (-len(t[1]), tuple(sorted(t[1]))))
    return m, best[1]


def _deficit_bound(H) -> bool:
    """Whether one linear pass proves rho(X) >= 1 for every proper nonempty
    X of H, the hypergraph of a graph potential (pair edges, int weights) on
    a connected graph.

    A proper nonempty X of a connected graph has a boundary edge, so by the
    deficit identity (potential.deficits) 2 rho(X) is at least the sum of
    the negative deficits plus the least edge debit; when that is positive,
    the integer rho(X) is at least 1."""
    least = min((w for _, w in H.edges), default=0)
    return sum(x for x in deficits(H) if x < 0) + least > 0


def _closure(G: Graph, W, absorbs: str, room: int) -> frozenset[int]:
    """Grow W, while it has fewer than `room` vertices, by the smallest
    outside vertex with an `absorbs` edge (a parallel pair or a gadget) or
    two plain edges into W.  Each absorption strictly lowers the potential:
    the edges' debit exceeds any vertex credit."""
    W = set(W)
    grown = True
    while grown and len(W) < room:
        grown = False
        for u in range(G.n):
            if u in W:
                continue
            if sum(2 if G.kind_of(u, x) == absorbs else 1 for x in G.adj[u] if x in W) >= 2:
                W.add(u)
                grown = True
                break
    return frozenset(W)


# -- public extension operations ------------------------------------------


def tree_split(T: Graph, s_in, s_out) -> frozenset[int]:
    """Independent set S of a tree whose non-leaves all have degree three,
    with S_in inside S, S_out outside it, and every component of T - S
    containing at most one leaf of T.  Requires |S_out| odd.  The tree is
    cut down one cherry at a time in a loop, so no input is too deep."""
    adj = {v: set(T.adj[v]) for v in range(T.n)}
    if len(T.edges) != T.n - 1 or len(T.components()) != 1:
        raise ValueError("tree_split expects a tree")
    return frozenset(_tree_split_adj(adj, set(s_in), set(s_out)))


def _tree_split_adj(adj: dict, s_in: set, s_out: set) -> set:
    """tree_split on an adjacency dict of sets, consuming adj, s_in and
    s_out.  Each step takes the smallest non-leaf with exactly two leaf
    neighbours (a cherry) and removes its two leaves, and with them itself
    when both go into S, until at most three leaves are left.

    The cherries wait in a heap of vertex ids, checked when popped, so a
    tree of n vertices costs O(n log n).  A vertex's cherry status reads
    only its own neighbours and which of them are leaves, and a step
    changes those for three vertices at most: v itself, which becomes a
    leaf or goes, the neighbour x it keeps when it becomes a leaf, and the
    two ends a, b of the edge that replaces x when v and x go.  The step
    pushes x, or a and b, so every cherry is in the heap, and the least
    entry that passes the check is the smallest cherry."""
    leaves = {v for v, nb in adj.items() if len(nb) <= 1}
    for v, nb in adj.items():
        if v not in leaves and len(nb) != 3:
            raise ValueError("non-leaf vertices must have degree three")
    if (s_in | s_out) != leaves or (s_in & s_out):
        raise ValueError("leaf partition does not match the leaves")
    if len(s_out) % 2 == 0:
        raise ValueError("the outside part must have odd size")
    # each step keeps the tree's shape and the parity of s_out, so the
    # checks above hold for every smaller tree too
    S: set = set()

    def cherry(v) -> bool:
        return v in adj and v not in leaves and sum(1 for u in adj[v] if u in leaves) == 2

    heap = [v for v in adj if cherry(v)]
    heapq.heapify(heap)
    while len(leaves) > 3:
        # a tree with four or more leaves and no degree-two vertex has a cherry
        v = heapq.heappop(heap)
        if not cherry(v):
            continue
        w1, w2 = sorted(u for u in adj[v] if u in leaves)
        both_out = (w1 in s_out) + (w2 in s_out)
        del adj[w1], adj[w2]
        leaves -= {w1, w2}
        adj[v] -= {w1, w2}
        if both_out == 2:
            leaves.add(v)
            s_in.add(v)
            s_out -= {w1, w2}
            heapq.heappush(heap, next(iter(adj[v])))
        elif both_out == 1:
            out_leaf = w1 if w1 in s_out else w2
            in_leaf = w2 if out_leaf == w1 else w1
            leaves.add(v)
            s_in.discard(in_leaf)
            s_out.discard(out_leaf)
            s_out.add(v)
            S.add(in_leaf)
            heapq.heappush(heap, next(iter(adj[v])))
        else:
            # both leaves forced inside: drop them with v, and suppress v's
            # third neighbour x, which was interior and loses only v
            (x,) = adj.pop(v)
            a, b = adj.pop(x) - {v}
            adj[a] = (adj[a] - {x}) | {b}
            adj[b] = (adj[b] - {x}) | {a}
            s_in -= {w1, w2}
            S |= {w1, w2}
            heapq.heappush(heap, a)
            heapq.heappush(heap, b)
    if len(leaves) == 2:
        S |= s_in
    elif len(leaves) == 3:
        S |= {next(v for v, nb in adj.items() if len(nb) == 3)} if len(s_out) == 3 else s_in
    return S


def extend_to_forest(G: Graph, partial: dict[int, str], components) -> Coloring | None:
    """Extend a coloring of everything outside `components` over the trees.

    Every tree vertex must have three plain neighbors in G.  A tree extends
    when it has an odd number of edges to F-colored vertices, or a leaf whose
    outside neighbors are both colored I; otherwise the whole call returns
    None.  The construction keeps at most one F-edge per F-component of each
    tree, so gluing onto the fixed F-part never closes a cycle."""
    assign = dict(partial)
    for comp in components:
        comp = sorted(comp)
        if not _extend_tree(G, assign, comp):
            return None
    return Coloring(tuple(assign[v] for v in range(G.n)))


def _extend_tree(G: Graph, assign: dict[int, str], comp: list[int]) -> bool:
    cset = set(comp)
    ext: dict[int, list[int]] = {}
    tadj: dict[int, list[int]] = {}
    for v in comp:
        if G.nsize(v) != 3 or any(G.kind_of(v, u) != SINGLE for u in G.adj[v]):
            raise ValueError("tree vertices must have three plain neighbors")
        ext[v] = [u for u in G.adj[v] if u not in cset]
        tadj[v] = [u for u in G.adj[v] if u in cset]
    if len(comp) == 1:
        v = comp[0]
        f_ext = sum(1 for u in ext[v] if assign[u] == F_SIDE)
        if f_ext == 3:
            assign[v] = I_SIDE
        elif f_ext == 0:
            assign[v] = F_SIDE
        elif f_ext == 1:
            assign[v] = F_SIDE
        else:
            return False
        return True

    aux = {v: set(tadj[v]) for v in comp}
    s_in: set = set()
    s_out: set = set()
    flex: list[int] = []
    for v in comp:
        sides = [assign[u] for u in ext[v]]
        if len(tadj[v]) == 2:
            if sides[0] == I_SIDE:
                # forced into F: suppress from the auxiliary tree
                a, b = sorted(aux[v])
                aux[a].discard(v)
                aux[b].discard(v)
                aux[a].add(b)
                aux[b].add(a)
                del aux[v]
            else:
                # pendant marker for the outside F-edge; negative ids keep the
                # auxiliary vertex set totally ordered
                stub = -(v + 1)
                aux[v].add(stub)
                aux[stub] = {v}
                s_out.add(stub)
        elif len(tadj[v]) == 1:
            f_ext = sides.count(F_SIDE)
            if f_ext == 2:
                s_in.add(v)
            elif f_ext == 1:
                s_out.add(v)
            else:
                flex.append(v)
    if len(s_out) % 2 == 0:
        if not flex:
            return False
        s_out.add(flex[0])
        s_in.update(flex[1:])
    else:
        s_in.update(flex)
    S = _tree_split_adj(aux, s_in, s_out)
    flexset = set(flex)
    for v in comp:
        if v in S and v not in flexset:
            assign[v] = I_SIDE
        else:
            assign[v] = F_SIDE
    return True


def extend_over_induced_cycle(G: Graph, C, partial: dict[int, str]) -> Coloring | Blocked:
    """Color an induced cycle of degree-three vertices given the rest.

    partial covers every vertex off the cycle.  Blocked reasons: every
    attachment sits in I ("all-attachments-I"), or the cycle is odd with all
    attachments in one F-component ("odd-single-F-component")."""
    C = list(C)
    k = len(C)
    cset = set(C)
    if k < 3:
        raise ValueError("a cycle needs at least three vertices")
    zs = []
    for i, x in enumerate(C):
        if G.nsize(x) != 3:
            raise ValueError(f"cycle vertex {x} does not have three neighbors")
        for j, y in enumerate(C):
            if abs(i - j) not in (0, 1, k - 1) and G.kind_of(x, y) is not None:
                raise ValueError("cycle has a chord")
        out = [u for u in G.adj[x] if u not in cset]
        if len(out) != 1:
            raise ValueError(f"cycle vertex {x} needs exactly one outside neighbor")
        zs.append(out[0])
    sides = [partial[z] for z in zs]
    assign = dict(partial)

    if I_SIDE in sides and F_SIDE in sides:
        # rotate so the last attachment is I and the first is F
        shift = None
        for j in range(k):
            if sides[j] == I_SIDE and sides[(j + 1) % k] == F_SIDE:
                shift = (j + 1) % k
                break
        C2 = C[shift:] + C[:shift]
        z2 = zs[shift:] + zs[:shift]
        picked = {C2[0]}
        assign[C2[0]] = I_SIDE
        for j in range(1, k):
            x = C2[j]
            if C2[j - 1] not in picked and assign[z2[j]] != I_SIDE:
                picked.add(x)
                assign[x] = I_SIDE
            else:
                assign[x] = F_SIDE
        return Coloring(tuple(assign[v] for v in range(G.n)))

    if F_SIDE not in sides:
        return Blocked("all-attachments-I")

    # every attachment is in F
    if k % 2 == 0:
        for j, x in enumerate(C):
            assign[x] = I_SIDE if j % 2 == 0 else F_SIDE
        return Coloring(tuple(assign[v] for v in range(G.n)))

    comp = _f_components(G, assign, cset)
    shift = None
    for j in range(k):
        if comp[zs[j]] != comp[zs[(j + 1) % k]]:
            shift = (j + 2) % k  # those two become positions k-1 and k
            break
    if shift is None:
        return Blocked("odd-single-F-component")
    C2 = C[shift:] + C[:shift]
    for j, x in enumerate(C2):
        if j % 2 == 0 and j <= k - 3:
            assign[x] = I_SIDE
        else:
            assign[x] = F_SIDE
    return Coloring(tuple(assign[v] for v in range(G.n)))


def _f_components(G: Graph, assign: dict[int, str], skip: set) -> dict[int, int]:
    """Component id per F-colored vertex outside `skip`, over plain edges."""
    comp: dict[int, int] = {}
    next_id = 0
    for s in range(G.n):
        if s in skip or assign.get(s) != F_SIDE or s in comp:
            continue
        comp[s] = next_id
        stack = [s]
        while stack:
            x = stack.pop()
            for y in G.adj[x]:
                if y in skip or y in comp:
                    continue
                if assign.get(y) == F_SIDE and G.kind_of(x, y) == SINGLE:
                    comp[y] = next_id
                    stack.append(y)
        next_id += 1
    return comp


@dataclass(frozen=True)
class CycleLift:
    """Recolors the removed cycle on top of a child coloring."""

    parent: Graph
    cycle: tuple[int, ...]
    table: tuple[int, ...]  # child id -> parent id

    def lift(self, c_child: Coloring) -> Coloring:
        partial = {self.table[i]: side for i, side in enumerate(c_child.assignment)}
        out = extend_over_induced_cycle(self.parent, self.cycle, partial)
        if isinstance(out, Blocked):
            raise GraphError(f"cycle lift blocked: {out.reason}")
        return out


def reduce_cycle_gadget(G: Graph, C, z1: int, z2: int) -> tuple[Graph, CycleLift]:
    """Remove an induced cycle of degree-three vertices and tie its two
    attachment vertices together: an existing gadget stays, a plain edge is
    upgraded to a gadget, non-adjacent attachments get a plain edge.  The lift
    recolors the cycle with extend_over_induced_cycle; the tie guarantees the
    attachments never end up all-I or single-F-component, so it cannot
    block."""
    if z1 == z2:
        raise ValueError("attachment vertices must be distinct")
    cset = set(C)
    if z1 in cset or z2 in cset:
        raise ValueError("attachment vertices must lie off the cycle")
    rest = [v for v in range(G.n) if v not in cset]
    sub, table = induced_subgraph(G, rest)
    pos = {orig: i for i, orig in enumerate(table)}
    kind = G.kind_of(z1, z2)
    if kind == MULTI:
        raise GraphError("attachment pair carries a parallel pair")
    if kind == GADGET:
        child = sub
    elif kind == SINGLE:
        child = sub.set_kind(pos[z1], pos[z2], GADGET)
    else:
        child = sub.with_edge(pos[z1], pos[z2], SINGLE)
    return child, CycleLift(G, tuple(C), table)


def helper_extend(G1: Graph, v: int) -> Coloring:
    """Coloring of a connected graph with at most one cycle (length four or
    more) plus an attached vertex v, with the independent side inside N(v).
    Tries independent neighbor subsets largest-first and validates."""
    if G1.nsize(v) > 4:
        raise ValueError("the attached vertex takes at most four neighbors")
    base, idmap = _delete(G1, {v})
    if len(base.components()) != 1:
        raise ValueError("the base graph must be connected")
    extra = len(base.edges) - (base.n - 1)
    if extra > 1:
        raise ValueError("the base graph may have at most one cycle")
    if extra == 1:
        cyc = _any_cycle(base)
        if len(cyc) < 4:
            raise ValueError("the base cycle must have length at least four")
        on_c = {orig for orig in G1.adj[v] if idmap.get(orig) in set(cyc)}
        if not on_c:
            raise ValueError("some neighbor of v must lie on the cycle")
    nbrs = sorted(G1.adj[v])
    for size in range(len(nbrs), -1, -1):
        for S in combinations(nbrs, size):
            if any(G1.kind_of(a, b) is not None for a, b in combinations(S, 2)):
                continue
            sset = set(S)
            col = Coloring(
                tuple(I_SIDE if u in sset else F_SIDE for u in range(G1.n))
            )
            if validate_coloring(G1, col) is None:
                return col
    raise GraphError("no helper coloring exists; the preconditions cannot hold")


def _any_cycle(G: Graph) -> list[int]:
    """One cycle of a connected graph with exactly one, by DFS."""
    parent: dict[int, int | None] = {0: None}
    stack = [(0, None)]
    while stack:
        x, p = stack.pop()
        for y in G.adj[x]:
            if y == p:
                continue
            if y in parent:
                return _close_cycle(parent, x, y)
            parent[y] = x
            stack.append((y, x))
    raise GraphError("no cycle found")


def _close_cycle(parent: dict, x: int, y: int) -> list[int] | None:
    """The cycle a non-tree edge xy closes through the search tree `parent`
    (root mapped to None), or None when the two tree paths share no vertex."""
    px = [x]
    while px[-1] is not None:
        px.append(parent[px[-1]])
    px.pop()
    py = [y]
    while py[-1] is not None:
        py.append(parent[py[-1]])
    py.pop()
    sy = set(py)
    cut = next((u for u in px if u in sy), None)
    if cut is None:
        return None
    return px[: px.index(cut) + 1] + list(reversed(py[: py.index(cut)]))


# -- discharging -----------------------------------------------------------


@dataclass(frozen=True)
class DischargeReport:
    """Vertex strata and charge bookkeeping for the simple endgame.

    L holds the plain degree-three uncolored vertices; B the rest.  Strata on
    B split by effective degree (gadgets count twice), precolor, and gadget
    incidence.  ineq_lhs is ell + e'(B) + 3e''(B) + 2|B5| + 2|B5eg| + 3|B3f|
    + 4|Bstar|; the cap is 4.  A forest-side F-tagged vertex of effective
    degree four carries final charge five on its own, so its presence clears
    ineq_ok too."""

    L: frozenset[int]
    B: frozenset[int]
    b4: frozenset[int]
    b4_eg: frozenset[int]
    b5: frozenset[int]
    b5_eg: frozenset[int]
    b3_f: frozenset[int]
    b4_f: frozenset[int]
    b_star: frozenset[int]
    ell: int
    e_prime_b: int
    e_dprime_b: int
    ch: tuple[Fraction, ...]
    ch_star: tuple[Fraction, ...]
    b_tilde: frozenset[int]
    ineq_lhs: int
    ineq_ok: bool
    structured: bool


def _dprime(G: Graph, v: int) -> int:
    d = 0
    for u in G.adj[v]:
        d += 2 if G.kind_of(v, u) == GADGET else 1
    return d


def discharge_classify(G: Graph) -> DischargeReport:
    """Classify vertices for the endgame and run the single discharging rule.

    Preconditions: a simple graph (gadgets allowed), no independent-side
    precolored vertices, every vertex with at least three neighbors, and the
    degree-three part inducing a forest."""
    if G.has_multi:
        raise KindError("discharging applies to simple graphs")
    if G.ip_set:
        raise ValueError("independent-side precolored vertices must be gone")
    n = G.n
    for v in range(n):
        if G.nsize(v) < 3:
            raise ValueError("minimum degree three required")
    dp = [_dprime(G, v) for v in range(n)]
    gadgeted = [any(G.kind_of(v, u) == GADGET for u in G.adj[v]) for v in range(n)]
    L = frozenset(
        v for v in range(n) if G.precolor[v] == UNCOLORED and not gadgeted[v] and dp[v] == 3
    )
    B = frozenset(range(n)) - L

    # forest check and component count over G[L]
    parent = {v: v for v in L}
    ell = len(L)
    for u, v, kind in G.edges:
        if u in L and v in L:
            ru, rv = find(parent, u), find(parent, v)
            if ru == rv:
                raise ValueError("the degree-three part must induce a forest")
            parent[ru] = rv
            ell -= 1

    e_prime = sum(1 for u, v, k in G.edges if u in B and v in B and k != GADGET)
    e_dprime = sum(1 for u, v, k in G.edges if u in B and v in B and k == GADGET)

    b4 = frozenset(v for v in B if G.precolor[v] == UNCOLORED and dp[v] == 4 and not gadgeted[v])
    b4_eg = frozenset(v for v in B if G.precolor[v] == UNCOLORED and dp[v] == 4 and gadgeted[v])
    b5 = frozenset(v for v in B if G.precolor[v] == UNCOLORED and dp[v] == 5 and not gadgeted[v])
    b5_eg = frozenset(v for v in B if G.precolor[v] == UNCOLORED and dp[v] == 5 and gadgeted[v])
    b3_f = frozenset(v for v in B if G.precolor[v] == FP and dp[v] == 3)
    b4_f = frozenset(v for v in B if G.precolor[v] == FP and dp[v] >= 4)
    b_star = frozenset(v for v in B if G.precolor[v] == UNCOLORED and dp[v] >= 6)

    # charges from rho_s: half a single edge's debit per edge end (dp counts
    # a gadget end twice), less the vertex's tag credit
    half = Fraction(1, 2)
    edge_end = Fraction(RHO_S.edge[SINGLE], 2)
    ch = [edge_end * dp[v] - RHO_S.tag[G.precolor[v]] for v in range(n)]
    ch_star = list(ch)
    for v in B:
        for u in G.adj[v]:
            if u in L:
                ch_star[v] -= half
                ch_star[u] += half
        for u in G.adj[v]:
            if u in B:
                # gadgets receive a full unit from each endpoint, edges a half
                ch_star[v] -= (2 * half) if G.kind_of(v, u) == GADGET else half

    # each gadget keeps the part of its debit that its two ends do not take
    gadget_charge = RHO_S.edge[GADGET] - 2 * RHO_S.edge[SINGLE]
    total = sum(ch, Fraction(0)) + gadget_charge * e_dprime
    if total != -rho_s(G, range(n)):
        raise AssertionError("discharge bookkeeping lost charge")

    lhs = ell + e_prime + 3 * e_dprime + 2 * len(b5) + 2 * len(b5_eg) + 3 * len(b3_f) + 4 * len(b_star)
    return DischargeReport(
        L=L,
        B=B,
        b4=b4,
        b4_eg=b4_eg,
        b5=b5,
        b5_eg=b5_eg,
        b3_f=b3_f,
        b4_f=b4_f,
        b_star=b_star,
        ell=ell,
        e_prime_b=e_prime,
        e_dprime_b=e_dprime,
        ch=tuple(ch),
        ch_star=tuple(ch_star),
        b_tilde=frozenset(
            w for u, v, k in G.edges if u in B and v in B and k != GADGET for w in (u, v)
        ),
        ineq_lhs=lhs,
        ineq_ok=(lhs <= 4 and not b4_f),
        structured=(B == b4),
    )


# -- the structured endgame ------------------------------------------------


def _l_components(G: Graph, Lset) -> list[list[int]]:
    seen = set()
    out = []
    for s in sorted(Lset):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            x = stack.pop()
            for y in G.adj[x]:
                if y in Lset and y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        out.append(sorted(comp))
    return out


def _candidate_fb(G: Graph, report: DischargeReport):
    """Forest-side subsets of B worth trying, cheapest first.

    The pool holds every vertex that carries a constraint: endpoints of plain
    B-edges, gadget endpoints, and F-tagged vertices.  Each candidate must
    cover every plain B-edge, take exactly one endpoint of each gadget,
    include every F-tagged vertex, and stay acyclic inside.  Up to two
    unconstrained B-vertices join as helpers."""
    B = report.B
    fps = frozenset(v for v in B if G.precolor[v] == FP)
    gadget_ends = frozenset(
        w for u, v, k in G.edges if k == GADGET and u in B and v in B for w in (u, v)
    )
    pool = sorted(report.b_tilde | gadget_ends | fps)
    rest = sorted(B - set(pool))
    plain_edges = [
        (u, v) for u, v, k in G.edges if u in B and v in B and k != GADGET
    ]
    gadget_edges = [
        (u, v) for u, v, k in G.edges if u in B and v in B and k == GADGET
    ]
    for size in range(len(pool) + 1):
        for ft in combinations(pool, size):
            fset = set(ft)
            if not fps <= fset:
                continue
            if any(u not in fset and v not in fset for u, v in plain_edges):
                continue
            if any(((u in fset) + (v in fset)) != 1 for u, v in gadget_edges):
                continue
            if _has_cycle_inside(plain_edges, fset):
                continue
            for hsize in range(3):
                for H in combinations(rest, hsize):
                    yield frozenset(ft) | frozenset(H)


def _has_cycle_inside(edges, inside: set) -> bool:
    parent = {v: v for v in inside}
    for u, v in edges:
        if u in inside and v in inside:
            ru, rv = find(parent, u), find(parent, v)
            if ru == rv:
                return True
            parent[ru] = rv
    return False


def _endgame_engine(G: Graph, Lset, F_B: frozenset[int]) -> Coloring | None:
    """Exact search for an assignment of L with the B split fixed, run on
    the oracle's search: every vertex outside L first, each on its side of
    the split, then depth first over the trees of G[L], each L vertex trying
    I before F.  The first part never backtracks: _candidate_fb puts an end
    of every plain B-edge and exactly one end of every gadget into F_B and
    keeps F_B acyclic, so F_B enters the search's union-find as the forest
    components of G[B] on that side.  Returns the first coloring, or None."""
    order = [v for v in range(G.n) if v not in Lset]
    for comp in _l_components(G, Lset):
        stack = [comp[0]]
        seen = {comp[0]}
        while stack:
            x = stack.pop()
            order.append(x)
            for y in sorted(G.adj[x], reverse=True):
                if y in Lset and y not in seen:
                    seen.add(y)
                    stack.append(y)
    sides = [
        (I_SIDE, F_SIDE) if v in Lset else (F_SIDE,) if v in F_B else (I_SIDE,)
        for v in range(G.n)
    ]
    return next(_colorings(G, order, sides), None)


def _endgame_run(G: Graph, report: DischargeReport, ctx: _Ctx, step: str) -> Outcome:
    """Sweep the forest-side candidates for B.  Each is extended over the
    trees of G[L] by the tree-split lemma and, failing that, searched
    exhaustively by _endgame_engine; a coloring from either is validated
    before it is returned.  Past the candidates come brute force on small
    graphs, a forbidden-subgraph certificate, then a Diagnostic."""
    Lset = report.L
    comps = _l_components(G, Lset)
    for F_B in _candidate_fb(G, report):
        partial = {
            v: (F_SIDE if v in F_B else I_SIDE) for v in range(G.n) if v not in Lset
        }
        col = extend_to_forest(G, partial, comps)
        if col is not None and validate_coloring(G, col) is None:
            return Colored(col)
        col = _endgame_engine(G, Lset, F_B)
        if col is not None and validate_coloring(G, col) is None:
            return Colored(col)
    if G.n <= ctx.brute_threshold:
        c = brute_nb_color(G, ctx.brute_threshold)
        if c is not None:
            return Colored(c)
    hit = find_forbidden_subgraph(G, ctx.catalog)
    if hit is not None:
        return CertForbidden(hit[0], hit[1])
    return Diagnostic(step, "endgame candidates exhausted")


def finish_structured(
    G: Graph,
    report: DischargeReport,
    *,
    brute_threshold: int = DEFAULT_THRESHOLD,
    catalog: Catalog | None = None,
) -> Outcome:
    """Color a graph whose vertices are all uncolored with the degree-three
    part a forest and the rest plain degree-four.  With no edges inside the
    degree-four part the split is immediate; otherwise forest-side candidate
    subsets are swept with the exact engine behind them, and exhaustion falls
    back to brute force, then a forbidden-subgraph certificate, then a
    diagnostic."""
    ctx = _Ctx(catalog if catalog is not None else default_catalog(), brute_threshold, None)
    if not report.structured:
        return Diagnostic("10", "vertex strata do not match the structured frame")
    if not report.ineq_ok:
        return Diagnostic("10", "discharging inequality fails")
    if report.e_prime_b == 0:
        col = Coloring(
            tuple(F_SIDE if v in report.L else I_SIDE for v in range(G.n))
        )
        return _ok(G, col, "10")
    return _endgame_run(G, report, ctx, "10")


# -- the multigraph worker -------------------------------------------------


def _multi_worker(G: Graph, ctx: _Ctx, depth: int) -> Outcome:
    # steps 2a-2d run in the level opening's peel
    out = _open(G, ctx, depth, rho_m, _MULTI_PEEL, _multi_worker)
    if out is not None:
        return out
    n = G.n

    # steps 3 and 4: the tight-subset scan
    H = hypergraph_for_rho_m(G)
    m, W = _scan(H, n, _MULTI_BAND)
    if W is None and m <= _MULTI_BAND:
        return Diagnostic("3", "in-band scan floor without an actionable witness")
    if W is not None:
        return _multi_tight_route(G, ctx, depth, W)

    # step 5a: a forest-tagged vertex with two plain neighbors
    for v in range(n):
        if G.precolor[v] != FP or G.nsize(v) != 2 or G.degree(v) != 2:
            continue
        w, x = G.adj[v]
        if G.kind_of(w, x) is not None:
            return Diagnostic("5a", "tight triangle the scan should have caught")
        ctx.note(depth, f"5a v={v}")
        sub, idmap = _delete(G, {v})
        child = sub.with_edge(idmap[w], idmap[x], SINGLE)
        out = _recurse(G, child, ctx, depth, _multi_worker)
        if not isinstance(out, Colored):
            return out
        return _ok(G, _lift_deleted(G, out.coloring, idmap, {v: F_SIDE}), "5a")

    # step 5b: no other precolored vertex can survive to this point
    if G.fp_set:
        return Diagnostic("5b", "forest-tagged vertex of degree three or more")

    # step 5c: parallel pairs in a nearly 3-regular graph
    multis = [(u, v) for u, v, k in G.edges if k == MULTI]
    if multis:
        for a, b in multis:
            v = None
            if G.degree(a) == 3:
                v = a
            elif G.degree(b) == 3:
                v = b
            if v is None:
                continue
            x = b if v == a else a
            singles = [u for u in G.adj[v] if u != x]
            if len(singles) != 1:
                return Diagnostic("5c", "unexpected shape at a parallel pair")
            w = singles[0]
            ctx.note(depth, f"5c v={v} multi={x} single={w}")
            sub, idmap = _delete(G, {v})
            child = sub.with_precolor(idmap[w], FP) if sub.precolor[idmap[w]] == UNCOLORED else sub
            out = _recurse(G, child, ctx, depth, _multi_worker)
            if not isinstance(out, Colored):
                return out
            xside = out.coloring.assignment[idmap[x]]
            return _ok(G, _lift_deleted(G, out.coloring, idmap, {v: _opp(xside)}), "5c")
        return Diagnostic("5c", "every parallel pair has both endpoints above degree three")

    # step 5d: triangles
    out = _multi_triangles(G, ctx, depth)
    if out is not None:
        return out

    # step 6: split a degree-three vertex
    return _multi_finish(G, ctx, depth)


def _recurse(parent: Graph, child: Graph, ctx: _Ctx, depth: int, worker) -> Outcome:
    if _measure(child) >= _measure(parent):
        raise AssertionError("recursion without progress")
    return worker(child, ctx, depth + 1)


def _multi_tight_route(G: Graph, ctx: _Ctx, depth: int, W) -> Outcome:
    W2 = _closure(G, W, MULTI, G.n - 1)
    r = rho_m(G, W2)
    if r < MULTI_FLOOR:
        return Diagnostic("3", f"subset potential {r} breaches the floor")
    ctx.note(depth, f"tight W={sorted(W2)} rho={r}")
    if r == 1:
        # pin a boundary vertex of W to the forest side
        pin = next(v for v in sorted(W2) if any(u not in W2 for u in G.adj[v]))
        return _contract_route(G, W2, pin, ctx, depth, "4", "multi", _multi_worker)
    return _contract_route(G, W2, None, ctx, depth, "3", "multi", _multi_worker)


def _contract_route(G: Graph, W, pin, ctx: _Ctx, depth: int, step: str, mode: str, worker) -> Outcome:
    """Color G[W] (with `pin` forest-tagged when uncolored), contract W by
    that coloring, color the contracted graph and lift."""
    inner = sorted(W)
    sub, table = induced_subgraph(G, inner)
    if pin is not None:
        i = table.index(pin)
        if sub.precolor[i] == UNCOLORED:
            sub = sub.with_precolor(i, FP)
    out = _recurse(G, sub, ctx, depth, worker)
    if not isinstance(out, Colored):
        return _unwrap_inner(out, step)
    try:
        Gp, lift = contract_colored_subset(G, inner, out.coloring, mode)
    except ContractionRejected as exc:
        return Diagnostic(step, f"outside vertex {exc.vertex} still holds two edges into the subset")
    out = _recurse(G, Gp, ctx, depth, worker)
    if not isinstance(out, Colored):
        return _unwrap_inner(out, step)
    return _ok(G, lift.lift(out.coloring), step)


def _unwrap_inner(out: Outcome, step: str) -> Outcome:
    if isinstance(out, Diagnostic):
        return out
    return Diagnostic(step, f"subset recursion returned {type(out).__name__}")


def _multi_triangles(G: Graph, ctx: _Ctx, depth: int) -> Outcome | None:
    n = G.n
    tri_edges: dict[tuple[int, int], list[int]] = {}
    for u, v, _ in G.edges:
        common = [w for w in G.adj[u] if G.kind_of(v, w) is not None]
        if common:
            tri_edges[(u, v)] = sorted(common)
    if not tri_edges:
        return None
    degs = [G.degree(v) for v in range(n)]
    if sum(1 for d in degs if d == 4) > 1 or any(d >= 5 for d in degs):
        return Diagnostic("5d", "graph is not nearly 3-regular")

    # two triangles over one edge: delete the edge pair, merge the off-corners
    for (u1, u2), common in sorted(tri_edges.items()):
        if len(common) < 2:
            continue
        v, y = common[0], common[1]
        if G.kind_of(v, y) is not None:
            return Diagnostic("5d", "four mutually adjacent vertices survived the screen")
        ctx.note(depth, f"5d shared edge={u1},{u2} corners={v},{y}")
        child, idmap = _identify(G, {u1, u2}, v, y)
        out = _recurse(G, child, ctx, depth, _multi_worker)
        if not isinstance(out, Colored):
            return out
        out = _lift_pair(G, out.coloring, idmap, u1, u2)
        return out if out is not None else Diagnostic("5d", "no corner assignment over the shared edge lifts")

    # lone triangles: prefer all degree-three ones, try both labelings
    triangles = sorted(
        {tuple(sorted((u, v, w))) for (u, v), ws in tri_edges.items() for w in ws}
    )
    attempts: list[tuple[int, int, int, int]] = []
    for tri in sorted(triangles, key=lambda t: (any(degs[x] == 4 for x in t), t)):
        d4 = [t for t in tri if degs[t] == 4]
        if d4:
            apex_choices = [d4[0]]
        else:
            apex_choices = list(tri)
        for v in apex_choices:
            p, q = sorted(t for t in tri if t != v)
            offs = {}
            for t in (p, q):
                out_nb = [u for u in G.adj[t] if u not in tri]
                if len(out_nb) != 1:
                    return Diagnostic("5d", "triangle corner without a single outside leg")
                offs[t] = out_nb[0]
            if offs[p] == offs[q]:
                return Diagnostic("5d", "shared corner the edge pass should have caught")
            for x in (p, q):
                w = q if x == p else p
                y = offs[x]
                if degs[y] != 3:
                    continue
                if G.kind_of(w, y) is not None:
                    continue
                attempts.append((v, w, x, y))
    last: Outcome | None = None
    for v, w, x, y in attempts[:3]:
        ctx.note(depth, f"5d lone v={v} w={w} x={x} y={y}")
        child, idmap = _identify(G, {v, x}, w, y)
        out = _recurse(G, child, ctx, depth, _multi_worker)
        if isinstance(out, Colored):
            out = _lift_pair(G, out.coloring, idmap, v, x)
            if out is not None:
                return out
            out = Diagnostic("5d", "no apex assignment over the lone triangle lifts")
        last = out
    return last if last is not None else Diagnostic("5d", "no usable lone triangle labeling")


def _lift_pair(G: Graph, c_child: Coloring, idmap: dict[int, int], a: int, b: int) -> Colored | None:
    """The first lift, over the four side pairs of the deleted a and b, that
    validates."""
    for s1 in (F_SIDE, I_SIDE):
        for s2 in (F_SIDE, I_SIDE):
            col = _lift_deleted(G, c_child, idmap, {a: s1, b: s2})
            if validate_coloring(G, col) is None:
                return Colored(col)
    return None


def _multi_finish(G: Graph, ctx: _Ctx, depth: int) -> Outcome:
    n = G.n
    v = next((u for u in range(n) if G.degree(u) == 3), None)
    if v is None:
        return Diagnostic("6", "no degree-three vertex to split")
    if G.nsize(v) != 3:
        return Diagnostic("6", "parallel pair survived to the finish")
    w, x, y = sorted(G.adj[v])
    if G.kind_of(w, x) is not None:
        return Diagnostic("6", "triangle survived to the finish")
    ctx.note(depth, f"6 v={v} merge={w},{x} spare={y}")
    child, idmap = _identify(G, {v}, w, x)
    out = _recurse(G, child, ctx, depth, _multi_worker)
    if not isinstance(out, Colored):
        return out
    sigma = out.coloring.assignment[idmap[w]]
    yside = out.coloring.assignment[idmap[y]]
    vside = I_SIDE if (sigma == F_SIDE and yside == F_SIDE) else F_SIDE
    return _ok(G, _lift_deleted(G, out.coloring, idmap, {v: vside}), "6")


# -- the simple worker -----------------------------------------------------


def _simple_worker(G: Graph, ctx: _Ctx, depth: int) -> Outcome:
    # step 2 (independent-tagged, degree at most one, plain degree two) runs
    # in the level opening's peel
    out = _open(G, ctx, depth, rho_s, _SIMPLE_PEEL, _simple_worker)
    if out is not None:
        return out
    n = G.n

    # step 3: the scan, with window sets of potential <= 0 consumed here.
    # When the deficit bound rules those out, the scan waits for step 5,
    # the only step left that reads it
    H = hypergraph_for_rho_s(G)
    eager = not _deficit_bound(H)
    if eager:
        m, W = _scan(H, n, _SIMPLE_BAND)
        if W is None and m <= _SIMPLE_BAND:
            return Diagnostic("3", "in-band scan floor without an actionable witness")
        if m <= 0:
            out = _simple_tight_route(G, H, ctx, depth, W, "3")
            if out is not None:
                return out
            W = None

    # step 4: short cycles in the degree-three part
    Lset = frozenset(
        v
        for v in range(n)
        if G.precolor[v] == UNCOLORED
        and G.nsize(v) == 3
        and all(G.kind_of(v, u) == SINGLE for u in G.adj[v])
    )
    c3 = min(induced_cycles(G, Lset, (3,)), default=None)
    if c3 is not None:
        zs = _attachments(G, c3)
        if len(set(zs)) == 1:
            return Diagnostic("4", "triangle attachments collapse to one vertex")
        out = _cycle_device_route(G, ctx, depth, c3, [(0, 1), (1, 2), (2, 0)], "4")
        return out if out is not None else Diagnostic("4", "every triangle attachment pair is linked")
    c4 = _first_induced_c4(G, Lset)
    if c4 is not None:
        return _cycle_pin_route(G, ctx, depth, c4, "4")

    # step 5: the remaining in-band witnesses, scanning here when step 3
    # did not
    if not eager:
        m, W = _scan(H, n, _SIMPLE_BAND)
        if W is None and m <= _SIMPLE_BAND:
            return Diagnostic("3", "in-band scan floor without an actionable witness")
    if W is not None:
        out = _simple_tight_route(G, H, ctx, depth, W, "5")
        if out is not None:
            return out

    # step 6: five-cycles in the degree-three part
    c5 = min(induced_cycles(G, Lset, (5,)), default=None)
    if c5 is not None:
        pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        out = _cycle_device_route(G, ctx, depth, c5, pairs, "6")
        return out if out is not None else Diagnostic("6", "every five-cycle attachment pair is linked")

    # step 7: residual degree-two vertices
    out = _simple_degree_two(G, ctx, depth)
    if out is not None:
        return out

    # step 8: longer cycles in the degree-three part
    cyc = _shortest_l_cycle(G, Lset)
    if cyc is not None:
        k = len(cyc)
        if k < 6:
            return Diagnostic("8", "short cycle survived the dedicated steps")
        if k % 2 == 0:
            return _cycle_pin_route(G, ctx, depth, cyc, "8")
        pairs = [(j, (j + 1) % k) for j in range(k)]
        out = _cycle_device_route(G, ctx, depth, cyc, pairs, "8")
        return out if out is not None else Diagnostic("8", "every cycle attachment pair is linked")

    # steps 9 and 10: discharging and the structured endgame
    try:
        report = discharge_classify(G)
    except (ValueError, KindError) as exc:
        return Diagnostic("9", f"classification preconditions failed: {exc}")
    if not report.ineq_ok:
        return Diagnostic("9", f"discharging inequality fails at {report.ineq_lhs}")
    if report.structured:
        ctx.note(depth, "10 structured endgame")
        return finish_structured(
            G, report, brute_threshold=ctx.brute_threshold, catalog=ctx.catalog
        )
    ctx.note(depth, "9 strata endgame")
    if report.b3_f:
        out = _eliminate_b3f(G, report)
        if out is not None:
            return out
    return _endgame_run(G, report, ctx, "9")


def _simple_tight_route(G: Graph, H, ctx: _Ctx, depth: int, W, step: str) -> Outcome | None:
    n = G.n
    W2 = _closure(G, W, GADGET, n - 2)
    if len(W2) == n - 1:
        # the size bound for contraction asks for two outside vertices
        W3, r3 = min_potential_constrained(H, m1=2, m2=2, extremal=LARGEST, below=_SIMPLE_BAND + 1)
        if _exact_int(r3) > _SIMPLE_BAND:
            ctx.note(depth, f"{step} tight set fills the graph, smaller sets are clean")
            return None
        W2 = _closure(G, W3, GADGET, n - 2)
        if len(W2) >= n - 1:
            return Diagnostic(step, "tight subset cannot leave two vertices outside")
    r = rho_s(G, W2)
    if r < SIMPLE_FLOOR:
        return Diagnostic(step, f"subset potential {r} breaches the floor")
    ctx.note(depth, f"{step} tight W={sorted(W2)} rho={r}")
    return _contract_route(G, W2, None, ctx, depth, step, "simple", _simple_worker)


def _attachments(G: Graph, C) -> list[int]:
    cset = set(C)
    zs = []
    for x in C:
        out = [u for u in G.adj[x] if u not in cset]
        if len(out) != 1:
            raise AssertionError("cycle vertex without a single outside leg")
        zs.append(out[0])
    return zs


def _cycle_device_route(G, ctx, depth, C, pairs, step) -> Outcome | None:
    zs = _attachments(G, C)
    sub, pos = _delete(G, C)
    for a, b in pairs:
        za, zb = zs[a], zs[b]
        if za == zb:
            continue
        if are_linked(sub, pos[za], pos[zb], ctx.catalog) is not None:
            continue
        ctx.note(depth, f"{step} cycle={list(C)} tie={za},{zb}")
        child, lift = reduce_cycle_gadget(G, C, za, zb)
        out = _recurse(G, child, ctx, depth, _simple_worker)
        if not isinstance(out, Colored):
            return _unwrap_inner(out, step)
        return _ok(G, lift.lift(out.coloring), step)
    return None


def _cycle_pin_route(G, ctx, depth, C, step) -> Outcome:
    z1 = _attachments(G, C)[0]
    sub, pos = _delete(G, C)
    child = sub.with_precolor(pos[z1], FP) if sub.precolor[pos[z1]] == UNCOLORED else sub
    ctx.note(depth, f"{step} cycle={list(C)} pin={z1}")
    out = _recurse(G, child, ctx, depth, _simple_worker)
    if not isinstance(out, Colored):
        return _unwrap_inner(out, step)
    partial = {orig: out.coloring.assignment[i] for orig, i in pos.items()}
    col = extend_over_induced_cycle(G, C, partial)
    if isinstance(col, Blocked):
        return Diagnostic(step, f"cycle extension blocked: {col.reason}")
    return _ok(G, col, step)


def _first_induced_c4(G: Graph, Lset):
    """The least canonical induced 4-cycle a-x-c-y inside Lset, or None.

    Walks a -> x -> c over Lset-neighbours, so it costs O(|Lset| * deg^2),
    not a check of every pair (a, c).  A cycle's least vertex a is an end of
    one of its two diagonals, whose other end c is larger, so the cycle is
    found when a is the outer vertex.  The first a that finds a cycle is
    therefore the least vertex of each cycle it finds, and of the answer."""
    adj, kind_of = G.adj, G.kind_of
    for a in sorted(Lset):
        ends: dict[int, list[int]] = {}
        for x in adj[a]:
            if x in Lset:
                for c in adj[x]:
                    if c > a and c in Lset and kind_of(a, c) is None:
                        ends.setdefault(c, []).append(x)
        best = None
        for c, common in ends.items():
            for i, x in enumerate(common):
                for y in common[i + 1 :]:
                    if kind_of(x, y) is None:
                        cyc = _canon_cycle((a, x, c, y))
                        if best is None or cyc < best:
                            best = cyc
        if best is not None:
            return best
    return None


def _canon_cycle(cyc) -> tuple[int, ...]:
    cyc = list(cyc)
    k = len(cyc)
    i = cyc.index(min(cyc))
    r = cyc[i:] + cyc[:i]
    alt = [r[0]] + list(reversed(r[1:]))
    return min(tuple(r), tuple(alt))


def _shortest_l_cycle(G: Graph, Lset):
    # a breadth-first search over a forest meets no non-tree edge
    if not _has_cycle_inside(((u, v) for u, v, _ in G.edges), Lset):
        return None
    adjL = {v: [u for u in G.adj[v] if u in Lset] for v in Lset}
    best: tuple[int, ...] | None = None
    for s in sorted(Lset):
        parent: dict[int, int | None] = {s: None}
        queue = [s]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for y in adjL[x]:
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y and parent[y] != x:
                    cyc = _close_cycle(parent, x, y)
                    if cyc is None:
                        continue
                    if len(cyc) >= 3 and (best is None or len(cyc) < len(best)):
                        best = _canon_cycle(cyc)
        if best is not None and len(best) == 3:
            break
    return best


def _simple_degree_two(G: Graph, ctx: _Ctx, depth: int) -> Outcome | None:
    n = G.n
    for v in range(n):
        if G.nsize(v) != 2:
            continue
        u1, u2 = G.adj[v]
        kinds = (G.kind_of(v, u1), G.kind_of(v, u2))
        gadget_count = kinds.count(GADGET)
        if G.precolor[v] == UNCOLORED:
            if gadget_count == 0:
                continue  # handled at step 2
            if gadget_count == 2:
                return Diagnostic("7", "two gadgets share an endpoint")
            w1 = u1 if kinds[0] == GADGET else u2
            w2 = u2 if w1 == u1 else u1
            ctx.note(depth, f"7 case1 v={v}")
            sub, idmap = _delete(G, {v})
            child = sub.with_precolor(idmap[w2], FP) if sub.precolor[idmap[w2]] == UNCOLORED else sub
            out = _recurse(G, child, ctx, depth, _simple_worker)
            if not isinstance(out, Colored):
                return out
            w1side = out.coloring.assignment[idmap[w1]]
            return _ok(G, _lift_deleted(G, out.coloring, idmap, {v: _opp(w1side)}), "7")
        if G.precolor[v] != FP:
            continue
        if gadget_count:
            return Diagnostic("7", "forest-tagged gadget end survived the scan")
        if G.precolor[u1] != UNCOLORED or G.precolor[u2] != UNCOLORED:
            return Diagnostic("7", "tight precolored pair survived the scan")
        w1, w2 = sorted((u1, u2))
        between = G.kind_of(w1, w2)
        sub, idmap = _delete(G, {v})
        if between is not None:
            ctx.note(depth, f"7 case2 v={v}")
            child = sub.set_kind(idmap[w1], idmap[w2], GADGET) if between == SINGLE else sub
        else:
            linked = are_linked(sub, idmap[w1], idmap[w2], ctx.catalog)
            if linked is not None:
                return Diagnostic("7", "neighbors of a tagged degree-two vertex are linked")
            ctx.note(depth, f"7 case3 v={v}")
            child = sub.with_edge(idmap[w1], idmap[w2], SINGLE)
        out = _recurse(G, child, ctx, depth, _simple_worker)
        if not isinstance(out, Colored):
            return out
        return _ok(G, _lift_deleted(G, out.coloring, idmap, {v: F_SIDE}), "7")
    return None


def _eliminate_b3f(G: Graph, report: DischargeReport) -> Outcome | None:
    """The single tagged degree-three vertex trades places with the middle of
    its neighbors' tree paths."""
    if len(report.b3_f) != 1 or report.e_prime_b or report.e_dprime_b or report.ell != 1:
        return None
    (w,) = report.b3_f
    nbrs = sorted(G.adj[w])
    if any(u not in report.L for u in nbrs):
        return None
    paths = []
    for a, b in combinations(nbrs, 2):
        p = _tree_path(G, report.L, a, b)
        if p is None:
            return None
        paths.append(set(p))
    meet = paths[0] & paths[1] & paths[2]
    if len(meet) != 1:
        return None
    (x,) = meet
    i_set = (set(report.B) | {x}) - {w}
    col = Coloring(tuple(I_SIDE if v in i_set else F_SIDE for v in range(G.n)))
    if validate_coloring(G, col) is None:
        return Colored(col)
    return None


def _tree_path(G: Graph, Lset, a: int, b: int):
    parent = {a: None}
    stack = [a]
    while stack:
        x = stack.pop()
        if x == b:
            break
        for y in G.adj[x]:
            if y in Lset and y not in parent:
                parent[y] = x
                stack.append(y)
    if b not in parent:
        return None
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path


# -- the level opening and the degree <= 2 peel ------------------------------


def _two_plain(tag: str, kinds: tuple) -> bool:
    return tag == UNCOLORED and kinds == (SINGLE, SINGLE)


_MULTI_PEEL = Spec(
    rules=(
        Rule("ip", "2a", "2a v={v}", lambda tag, kinds: tag == IP),
        Rule("leaf", "2b", "2b v={v}", lambda tag, kinds: kinds in ((), (SINGLE,))),
        Rule("leaf", "2c", "2c v={v} w={w}", lambda tag, kinds: kinds == (MULTI,)),
        Rule("deg2", "2d", "2d v={v}", _two_plain),
    ),
    weights=RHO_M,
    entry_floor=MULTI_FLOOR,
)

_SIMPLE_PEEL = Spec(
    rules=(
        Rule("ip", "2", "2 ip v={v}", lambda tag, kinds: tag == IP),
        # a tagged gadget end forms a tight pair for the scan
        Rule("leaf", "2", "2 d1 v={v}", lambda tag, kinds: kinds in ((SINGLE,), (MULTI,)) or (kinds == (GADGET,) and tag == UNCOLORED)),
        Rule("deg2", "2", "2 d2 v={v}", _two_plain),
    ),
    weights=RHO_S,
    entry_floor=SIMPLE_FLOOR,
)


def _open(G: Graph, ctx: _Ctx, depth: int, rho, spec: Spec, worker) -> Outcome | None:
    """Open a worker level: the empty graph, the full-set potential `rho`
    against the floor ("entry"), the brute-force base, the split into
    components, then the degree <= 2 peel, whose core `worker` colors one
    level per deletion deeper.  Returns None when the level stays open for
    the worker's own steps.  `rho` is the public potential function the
    worker looked up (spec.weights holds the same weights); it and the
    rebuilds and validations go through this module's names, so wrappers
    installed on them see every call."""
    n = G.n
    if n == 0:
        return Colored(Coloring(()))
    r = rho(G, range(n))
    if r < spec.entry_floor:
        return Diagnostic("entry", "full-set potential below the floor")
    if n <= ctx.brute_threshold:
        c = brute_nb_color(G, ctx.brute_threshold)
        if c is None:
            return Diagnostic("base", "exhaustive search found no coloring")
        ctx.note(depth, f"base n={n}")
        return Colored(c)

    comps = G.components()
    if len(comps) > 1:
        assign: list[str | None] = [None] * n
        for comp in comps:
            sub, table = induced_subgraph(G, comp)
            out = worker(sub, ctx, depth + 1)
            if not isinstance(out, Colored):
                return out
            for i, orig in enumerate(table):
                assign[orig] = out.coloring.assignment[i]
        return _ok(G, Coloring(tuple(assign)), "1")

    note = None if ctx.trace is None else (lambda i, line: ctx.note(depth + i, line))
    run = peel(G, spec, r, ctx.brute_threshold, note)
    if run is None:
        return None
    if run.failure is not None:
        return Diagnostic(*run.failure)
    core, table = induced_subgraph(G, run.keep)
    core = Graph(core.n, core.edges, tuple(run.tags[v] for v in table))
    out = worker(core, ctx, depth + len(run.records))
    if not isinstance(out, Colored):
        return out
    lifted = run.lift(core, table, out.coloring, validate_coloring, induced_subgraph)
    return Colored(lifted) if isinstance(lifted, Coloring) else Diagnostic(*lifted)


# -- public drivers --------------------------------------------------------


def color_multigraph(
    G: Graph,
    *,
    brute_threshold: int = DEFAULT_THRESHOLD,
    trace: list[str] | None = None,
) -> Outcome:
    """Decide the multigraph coloring problem under the potential floor -1.

    Screens the potential over all nonempty subsets, then the two multigraph
    forbidden structures, then runs the reduction worker."""
    if G.has_gadget:
        raise KindError("the multigraph driver does not accept gadget edges")
    ctx = _Ctx(default_catalog().restrict(("k4", "m7")), brute_threshold, trace)
    return _drive(G, ctx, hypergraph_for_rho_m, _MULTI_PEEL, _multi_worker)


def color_simple(
    G: Graph,
    catalog: Catalog | None = None,
    *,
    brute_threshold: int = DEFAULT_THRESHOLD,
    trace: list[str] | None = None,
) -> Outcome:
    """Decide the simple-graph coloring problem under the potential floor -4,
    relative to the supplied forbidden-structure catalog."""
    if G.has_multi:
        raise KindError("the simple driver does not accept parallel pairs")
    ctx = _Ctx(catalog if catalog is not None else default_catalog(), brute_threshold, trace)
    return _drive(G, ctx, hypergraph_for_rho_s, _SIMPLE_PEEL, _simple_worker)


def _drive(G: Graph, ctx: _Ctx, hyper, spec: Spec, worker) -> Outcome:
    """The empty graph, the potential screen over all nonempty subsets of
    H = `hyper(G)`, the catalog screen, the worker, and a final validation
    of a coloring against the driver's own input (step "final").  `spec` is
    the worker's peel, whose weights record and floor the screen reads.

    The screen first asks the kernel K = screen_kernel(G, spec.weights),
    read off G.edges: H less every vertex whose credit pays for all its
    edges, or for each of its two edges, which then become one.  Below 0
    the nonempty minimum of K is H's, and the floor is negative, so K fires
    exactly when H does.  H itself is built in two cases only.  When no
    vertex reduces, the kernel is None and the screen runs on H, which
    potential memoises, so the level-0 scan of a graph that neither splits
    nor peels gets the same H and warm flow back.  When K fires (it has
    fewer vertices than G), H's query gives the exact certificate.  The H
    skipped otherwise would never serve a scan.  The first vertex the
    kernel deletes still has all its edges in G, so it is an uncolored leaf
    on a plain edge, an uncolored vertex on two plain edges, or isolated.
    The first two are level-0 peel candidates (multigraph 2b and 2d, simple
    d1 and d2), and an isolated vertex splits a graph of two or more
    vertices and leaves a single vertex to the base (at a brute threshold
    of 1 or more).  So level 0 peels, splits or ends in the base, and no
    scan asks for G's hypergraph.  An empty K fires on nothing and runs no
    flow.  Each screen passes the floor as `below`.  min_potential then
    settles it with no network when the deficit bound of K reaches the
    floor (a cubic graph, or a long sparse graph whose kernel is the
    Petersen graph), and otherwise runs the warm flow alone.  Either way the screen is one
    min_potential_constrained call, and a settled one leaves the warm
    record to the level-0 scan.  When r beats the floor, W is the exact
    query's set; otherwise W is None and r only a bound at least the floor
    (min_potential module docstring)."""
    if G.n == 0:
        return Colored(Coloring(()))
    floor = spec.entry_floor
    K = screen_kernel(G, spec.weights) or hyper(G)
    if K.n:
        W, r = min_potential_constrained(K, m1=1, m2=0, extremal=LARGEST, below=floor)
        if r < floor:
            if K.n < G.n:
                W, r = min_potential_constrained(hyper(G), m1=1, m2=0, extremal=LARGEST, below=floor)
            return CertLowPotential(W, _exact_int(r), floor)
    hit = find_forbidden_subgraph(G, ctx.catalog)
    if hit is not None:
        return CertForbidden(hit[0], hit[1])
    out = worker(G, ctx, 0)
    if isinstance(out, Colored):
        bad = validate_coloring(G, out.coloring)
        if bad is not None:
            return Diagnostic("final", f"coloring violates {bad.rule} at {bad.witness}")
    return out
