"""Minimum-potential subsets via max-flow.

The reduction is a cut function on the vertices (Goldberg, *Finding a
maximum density subgraph*, UCB/CSD-84-171, 1984), read off the deficit
identity of potential.deficits.  Clear the weights' denominators by L, so
that every weight is an integer, and put c(v) = 2L w(v) - the sum of
L w(e) over the pair edges e at v - the sum of 2L w(e) over the singleton
edges {v}.  A pair edge {u, v} inside X is debited 2L w(e) by 2L rho(X),
and c charges half of that to each end, so summing c over X charges it in
full, and charges a pair edge that X cuts L w(e), which rho does not debit;
a singleton inside X is charged in full by c alone.  So 2L rho(X) =
sum_{v in X} c(v) + the sum of L w(e) over the pair edges X cuts - the sum
of 2L w(e) over the larger edges inside X.

The network has a source s, a sink t and one node per vertex.  Every
vertex v has arcs s->v of capacity max(c(v), 0) and v->t of capacity
max(-c(v), 0), so exactly one of them is cut, and the one cut costs
c(v) + max(-c(v), 0) when v lies on the sink side and max(-c(v), 0) when it
does not.  Every pair edge {u, v} is one arc pair, an arc u->v whose
reverse arc v->u starts with the same capacity L w(e) (every other reverse
arc starts at 0), so the cut charges L w(e) when the edge crosses, either
way.  Only an edge f of three or more members keeps a node of its own,
with an arc f->t of capacity 2L w(f) and an infinite arc v->f from each
member v: f can sit on the sink side, uncut, only when all its members do.
So a minimum s-t cut picks the subset X of vertices on its sink side, and
its weight is rho(X) * scale + offset, with scale = 2L and offset = the
sum of the max(-c(v), 0) plus the sum of the 2L w(f): a max-flow
computation finds a minimizer of rho.  No node stands for a pair or a
singleton edge, so the graph potentials' networks have n + 2 nodes.

The arc pair is exactly two opposite arcs of capacity L w(e), each with a
reverse of capacity 0, merged into one.  Under net flow f from u to v the
two arcs leave residual L w(e) - f from u to v and L w(e) + f back,
counting each arc's reverse, and so does the pair.  So every residual
graph has the same reachability under either layout, and with it every
max-flow value, cut and LARGEST or SMALLEST set; only the augmenting paths
differ, since one path through the pair cancels flow and pushes new flow
in one step.  The sum of the finite capacities counts the pair's capacity
each way, 2L w(e), as it counted the two arcs.

All arithmetic is integer.  The hypergraphs of the two graph potentials
carry int weights (L = 1, scale 2); a hypergraph with Fraction weights has
its denominators cleared once, when its network is built.  A Fraction is
built only for the value handed back to the caller.

The nodes that can reach t in the residual graph of any maximum flow form
the smallest sink side of a minimum cut, and the nodes s cannot reach form
the largest one; minimum cuts form a lattice, and these two are its bottom
and top (Picard & Queyranne, Math. Prog. Study 13, 1980).  Every minimizer
of rho is the vertex part of some minimum cut, and every minimum cut's
vertex part is a minimizer, so the two node sets give the intersection and
the union of all minimizers: the unique SMALLEST and LARGEST sets.  So one
plain network and one max flow serve every mode.

Membership constraints are terminal arcs.  Banning v raises its s->v arc by
the network's infinite capacity, so v stays on the source side; forcing v
raises its v->t arc, so v stays on the sink side.  Infinite exceeds every
finite cut (below), so no minimum cut crosses a raised arc, and over the
subsets that honour the constraints the cut weight is the unconstrained
one: a raised arc is never cut, and an edge node through a banned vertex
stays on the source side and is cut, as it is whenever its edge is not
inside the set.

Warm start (Gallo, Grigoriadis & Tarjan, SIAM J. Comput. 1989): each thread
keeps one record, for the latest hypergraph it solved on: its network, the
value of its unconstrained max flow (the warm flow), the pins and value of
the flow the network holds now, and the shift, the amount by which released
pins have raised every cut.  Every ask is one instance on that network, and
an unpinned one is no exception: on a fresh record it reads the warm flow,
and after pinned instances it releases their pins like any other instance.
An instance changes the flow in place, and the next one starts from the
flow it leaves.  Raising the arcs it adds keeps the flow feasible.
Releasing an arc the previous instance raised lowers its capacity by
infinite, and its flow may then exceed the capacity by some r > 0.  The
release moves no flow: it raises both of v's terminal arcs by r (Kohli &
Torr, IEEE TPAMI 2007), so the released arc carries exactly its capacity
and the other has r to spare, and the flow is feasible again, with the
same value.  Every cut crosses exactly one of v's terminal arcs, so every
cut rises by r, and the minimizers are unchanged.  The record adds r to its
shift, so a release costs O(1) whatever the flow through v.  Every other
capacity only rose, and augmenting the flow until no path is left gives a
max flow of the new instance, whose cut of X is rho(X) * scale + offset +
shift.  The value of the warm flow is read before any shift.

Infinite is (F + 1) << _HEADROOM, F the sum of the finite capacities at
build time.  A shift adds to each cut, and the cut of the forced set, which
honours every pin, is at most F + shift; so while F + shift < infinite, a
minimum cut crosses no raised arc and no flow reaches infinite.  An instance
whose releases would bring F + shift to infinite discards the network and
rebuilds its record in place: a fresh network, its warm flow, and no pins,
from which the instance raises its own.  The headroom is 2^24 times the
finite capacities, and a release adds at most the flow through one vertex,
so the rebuild is a guard: on the benchmark's workloads the shift stays
below a millionth of the headroom.

potential hands back the same hypergraph object for repeated builds on one
graph, so a driver's entry screen and the first level scan of a graph that
does not peel share one record, and the scan's first instance starts from
the screen's last flow; when the deficit certificate (below) settles the
screen, the scan's first instance builds the record.  An instance on the
pins of a maximal flow runs none: its set, in any mode, is read off the
network.  Nothing read from the flow depends on which max flow it is, as
below, so every W and value is the one a flow from zero would give.  An
instance empties its thread's memo while it changes the network, so one cut
short (an exception, an interrupt) leaves no record that disagrees with its
network, and the next ask builds the network afresh.

The warm flow is Dinic's algorithm from zero, with no greedy start.  Where
every deficit is nonnegative, as on a cubic level under either potential
(c = 0 under rho_m, 1 under rho_s) and on the Petersen core a long sparse
graph's entry kernel leaves, no arc into t has capacity, so the warm flow
is 0 and Dinic stops after one search from t.  Dinic measures its level
graph from the sink (the distance labels of Goldberg & Tarjan, J. ACM 1988):
each phase labels nodes by their residual distance d to t, and the
blocking-flow search follows only arcs u->v with d(v) = d(u) - 1.  Every
path it finds has d(s) arcs, a shortest s-t path, and a blocking flow raises
d(s), so this is still Dinic and still ends at a maximum flow.  The open
terminal arcs, the residual arcs out of s and into t, are listed once per
call; an augmenting path never reopens one (below), so each phase only drops
the arcs the last one closed.  Augmenting the warm flow one path at a time
instead would be quadratic on a long cycle.  A bare FlowNetwork's flow from
zero is plain Dinic.

A pinned instance repairs the flow it starts from instead of running Dinic
over the whole network (compare Goldberg, Hed, Kaplan, Tarjan & Werneck, ESA
2011).  The record keeps open-arc sets, a superset of the terminal arcs with
residual capacity: the warm flow's open ones, listed when the first pinned
instance runs, plus every terminal arc an instance opens.  An instance opens
the s->u arcs of the vertices it bans and the v->t arcs of those it forces,
and a release opens the terminal arc it raises without pinning: v->t when
it releases a ban on v, s->v when it releases a force.  An augmenting path is
simple, so it never enters s or leaves t: it lowers the residual of its
first and last arcs and reopens no terminal arc, so the sets stay a
superset, and a search drops the arcs it finds closed.  Every augmenting
path starts on an open s-arc and ends on an open t-arc, so a breadth-first
search seeded from the sets finds one whenever one exists.  The flow is
augmented one path at a time, each path adding at least one unit of integer
capacity, until no path is left or the cutoff below is reached.  The search
runs from both ends and meets in the middle, labelling the nodes near the
arcs it starts from, not the whole network.  On the simple driver's networks
most source arcs stay open after the warm flow (on a cubic level, all of
them), so a set larger than the other side's and than _SEED_CAP is not
scanned once per path: the search runs from the other side alone, and meets
s or t by an O(1) check of each labelled node's own terminal arc.  The path
searches keep no labels between calls.

W is read off the residual graph of the max flow, from two node sets that
are the same for every maximum flow.  The nodes s reaches form the
smallest source side of a minimum cut, so their complement gives the union
of all minimizers; the nodes that reach t form the smallest sink side, the
intersection.  Under SMALLEST W is the intersection, read by one search
from t; under LARGEST and without a mode it is the union, read by one search
from s.

Cardinality windows m1 <= |W| <= n - m2 are searched best first over
branches (F, B), the subsets that contain F and miss B.  One flow solves a
branch; its extremal minimizer W ranks it by (rho, extremal cardinality,
sorted vertex tuple).  The root (empty, empty) is the unpinned instance.  The
open branch of least rank is taken next.  If its W lies in the window, W is
the answer.  Otherwise the branch splits on the side W breaks.  W too small:
one child per vertex u outside W and B, forcing u (a child reached twice is
solved once).  W too large: with u_1 < ... < u_k the vertices of W - F, child
i bans u_i and forces u_1 .. u_(i-1), so these children are disjoint.  A
branch forcing m1 vertices is never too small and one banning m2 never too
large, so no chain of splits is longer than m1 + m2.

This is exact, for three reasons.  The children cover every window set of
their parent: one larger than W holds a vertex outside W and B, one smaller
than W misses a vertex of W - F.  Restricting a branch never lowers its
minimum, so the first in-window W taken has the least rho of the window.
And under an extremal mode W is the canonical best set of its branch, since
minimizers form a lattice: under LARGEST W is their union.  Let X be the
enumeration's answer (least rho, then largest, then smallest tuple) and N
the open branch holding X when W is taken.  N ranks no lower than W, and its
minimum is at most rho(X) <= rho(W), so X is one of N's minimizers and lies
inside N's set W_N.  Then |W| <= |X| <= |W_N| <= |W| by the ranks, so
W_N = X, and W_N's tuple is no smaller than W's, so W = X.  SMALLEST is the
mirror image, with W the intersection of the minimizers.  Without a mode W
is still the union of the branch's minimizers, so the value is exact, but the
tuple tie-break sees only the branches taken: W is an in-window minimizer
that can differ from the enumeration's.

A caller that only compares the minimum to a threshold passes it as `below`,
and the search stops at the first branch it takes whose value is at least
`below`, returning no set and that value.  The value is a certified lower
bound on the window minimum: every window set not yet taken lies in some
open branch, whose value is at most its rho, and the branch taken has the
least value of all open ones.  The cutoff never changes an answer below the
threshold: if the window minimum is rho(X) < below, every branch taken up to
and including the answer ranks no higher than the answer, so its value is at
most rho(X) < below, and the search takes the same branches and returns the
same W as without the cutoff.

A nonpositive `below` is first tried against the deficit certificate,
which builds no network and runs no flow.  By the identity of
potential.deficits, 2 rho(X) >= N for every subset X, the empty one
included, where N is the sum of the negative deficits c(v) = 2w(v) - the
sum over the edges e at v of 2w(e)/|e|.  N is summed exactly (ints for
pair edges with int weights, Fractions otherwise), so N/2 is a lower bound
on the window minimum, whatever the window; when N/2 >= below the search
returns (None, N/2), which meets the contract below <= value <= the window
minimum.  N <= 0, so a positive cutoff never fires.  On a cubic graph every
c(v) is 0 under rho_m and 1 under rho_s, so both drivers' entry screens are
settled here.  A settled query leaves the memo alone: the next ask on H
builds the warm record itself.

Otherwise a screen for a nonempty set below a negative floor (both
drivers' floors are) runs the warm flow alone.  The root's value is the
unconstrained minimum.  If it is below the floor, the root's set is not
empty, since rho(empty set) = 0, so it lies in the window and is the
answer.  Otherwise the search stops at the root, before any set is read:
the root's rank is rho of its set, scaled, which is the warm value less
the offset.

A pinned instance takes `below` too, and its flow stops as soon as its value
reaches the cut of a set of potential `below`: ceil(below * scale) plus the
offset plus the record's shift.  Cut values are integers, and a Fraction threshold
need not lie on the scaled grid, hence the ceiling.  By weak duality the
value of any feasible flow is at most the minimum cut, so the instance's
minimum is then at least `below`, and the answer is exactly (None, below),
however far the flow got.  The same clamp applies whenever the minimum is at
least `below`, a flow read off or run to its maximum included, so the
answer depends on the hypergraph, the pins and `below` alone, never on the
flow the instance started from.  An instance whose minimum lies below the
threshold never reaches the target, so its flow runs to a maximum one and W
is the uncut one.  max_flow checks the target before each search and after
each augmenting path, and the record keeps the flow's value up to date:
neither a raise nor a release moves any flow.  A stopped flow is feasible,
which is all the release argument above needs, so the next instance starts
from it as from a maximum flow.  Its residual graph gives no minimizer,
though, so a set is read off the network only when its flow is maximal; an
instance on a stopped flow's own pins augments that flow further, and one
read off a maximal flow compares the same shifted target with its value.  The window search passes `below` to every branch's flow, and
a branch whose flow stops enters the heap at rank below * scale.  That rank
is no more than the branch's minimum, so the search still returns a lower
bound on the window minimum, and every branch taken up to an answer below
the threshold ranks below it, so such answers are unchanged.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm

from .potential import WeightedHypergraph, deficits

LARGEST = "largest"
SMALLEST = "smallest"
EXTREMAL_MODES = (None, LARGEST, SMALLEST)


@dataclass(eq=False)
class OpenArcs:
    """A superset of a network's open terminal arcs, kept by the caller
    across max_flow calls: the arcs out of s and the arcs into t that may
    still have residual capacity.  Whoever raises a terminal arc, or takes
    flow back off one, adds it.  `arc_from_s[x]` and `arc_to_t[x]` are node
    x's own arc from s and to t, or -1.  The repair search needs s to have
    no in-arcs, t no out-arcs, and each node at most one arc from s and one
    to t, as in the hypergraph networks."""

    out_of_s: set[int]
    into_t: set[int]
    arc_from_s: list[int]
    arc_to_t: list[int]


# a repair search seeds a side from its open-arc set when the set is no
# larger than this, or no larger than the other side's
_SEED_CAP = 32


class FlowNetwork:
    """Integer capacities.  A flow without open-arc sets, from zero or from
    any feasible flow, is Dinic's algorithm, with each phase's level graph
    measured as residual distance to the sink; a flow repaired from a
    caller's open-arc sets augments one path at a time.  Between calls the
    network holds its arcs alone, so no search state of one call can be
    read by the next."""

    def __init__(self, num_nodes: int):
        self.n = num_nodes
        self.head: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, cap: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def _levels(self, s: int, t: int, into_t: list[int]) -> list[int]:
        """Residual distances to t, by BFS from t over reversed arcs: arc idx
        in head[u] leads into u with residual capacity cap[idx ^ 1].  t's own
        arcs are `into_t`: the arcs of head[t] whose reverses, the arcs into
        t, still have residual capacity, in head order on a Dinic flow, so
        the labels are the ones a scan of head[t] gives.
        Stops once s is labelled, so only nodes nearer to t than s are
        complete.  If s stays unlabelled (-1) the labels are complete:
        exactly the nodes that can still reach t are labelled."""
        head, to, cap = self.head, self.to, self.cap
        level = [-1] * self.n
        level[t] = 0
        queue = []
        for idx in into_t:
            v = to[idx]
            if level[v] < 0:
                level[v] = 1
                if v == s:
                    return level
                queue.append(v)
        for u in queue:
            nxt = level[u] + 1
            for idx in head[u]:
                v = to[idx]
                if cap[idx ^ 1] and level[v] < 0:
                    level[v] = nxt
                    if v == s:
                        return level
                    queue.append(v)
        return level

    def max_flow(self, s: int, t: int, limit: int | None = None, open_arcs: OpenArcs | None = None) -> int:
        """Augments the current flow to a maximum one and returns the amount
        added.

        With `limit` set, the call stops as soon as it has added at least
        `limit`, checked before each search and after each augmenting path.
        A flow stopped there is feasible but need not be maximum.

        Without `open_arcs` this is Dinic's algorithm.  Each phase's
        blocking-flow search walks from s and takes an arc only to a node one
        level nearer t, so every path it augments is a shortest one.  It keeps
        its path on an explicit stack, so path length is not bounded by the
        interpreter's recursion limit.  The residual arcs out of s and into t
        are listed once per call, those with capacity left, and each phase
        drops the ones it saturated.  An augmenting path is simple, so it
        never enters s or leaves t: it only lowers these residuals, and an arc
        left off a list never reopens during the call.  Each phase therefore
        scans the same open arcs, in the same order, as a scan of head[s] and
        head[t] would.

        With `open_arcs` the flow is repaired instead: paths are found one at
        a time by `_augmenting_path`, seeded from the caller's sets, which the
        call keeps a superset of the open terminal arcs."""
        stop = float("inf") if limit is None else limit
        if open_arcs is not None:
            return self._repair(s, t, stop, open_arcs)
        head, to, cap = self.head, self.to, self.cap
        out_of_s, into_t = head[s], head[t]
        total = 0
        while total < stop:
            into_t = [idx for idx in into_t if cap[idx ^ 1]]
            level = self._levels(s, t, into_t)
            if level[s] < 0:
                return total
            out_of_s = [a for a in out_of_s if cap[a]]
            it = [0] * self.n
            path: list[int] = []  # arcs from s to u
            u = s
            while True:
                if u == t:
                    pushed = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    total += pushed
                    if total >= stop:
                        break
                    # resume from the tail of the first saturated arc
                    k = next(i for i, a in enumerate(path) if not cap[a])
                    del path[k:]
                    u = to[path[-1]] if path else s
                    continue
                arcs = head[u] if path else out_of_s  # u is s exactly when the path is empty
                i, end = it[u], len(arcs)
                nxt = level[u] - 1
                while i < end:
                    a = arcs[i]
                    if cap[a] and level[to[a]] == nxt:
                        break
                    i += 1
                it[u] = i
                if i < end:
                    path.append(a)
                    u = to[a]
                elif path:
                    level[u] = -1  # dead end: no arc leads here again this phase
                    u = to[path.pop() ^ 1]
                else:
                    break
        return total

    def _repair(self, s: int, t: int, stop, arcs: OpenArcs) -> int:
        """max_flow with open-arc sets: augment one path at a time, and drop
        a terminal arc from its set once a path saturates it."""
        cap = self.cap
        total = 0
        while total < stop:
            path = self._augmenting_path(s, t, arcs)
            if path is None:
                return total
            pushed = min(cap[a] for a in path)
            for a in path:
                cap[a] -= pushed
                cap[a ^ 1] += pushed
            total += pushed
            if not cap[path[0]]:
                arcs.out_of_s.discard(path[0])
            if not cap[path[-1]]:
                arcs.into_t.discard(path[-1])
        return total

    def _augmenting_path(self, s: int, t: int, arcs: OpenArcs) -> list[int] | None:
        """The arcs of an s-t path with residual capacity, or None if there
        is none.  Its labels are dropped on return.

        A breadth-first search forward from the open arcs out of s and
        backward from the open arcs into t, a whole level of the side with
        the smaller frontier at a time, until the two meet.  A side is seeded
        from its set when the set is small (_SEED_CAP) or the smaller of the
        two; the other side may then stay empty, and a node the search labels
        meets it by an O(1) check of its own terminal arc instead.  Seeding
        drops the closed arcs from the set.

        Exact: every s-t path starts on an open s-arc and ends on an open
        t-arc, its last node's own, and the sets hold them all.  A seeded
        side that runs out of nodes has labelled every node s reaches (or
        every node that reaches t), and checked each against t's arc (or
        s's) and the other side's labels, so no path is left."""
        head, to, cap = self.head, self.to, self.cap
        from_s, to_t = arcs.arc_from_s, arcs.arc_to_t
        out_s, in_t = arcs.out_of_s, arcs.into_t
        # node -> the arc it was reached by (fwd) or leaves by (bwd); s and t
        # are never labelled
        fwd = {s: -1, t: -1}
        bwd = {s: -1, t: -1}
        front = back = None
        if len(out_s) <= len(in_t) or len(out_s) <= _SEED_CAP:
            front, closed = [], []
            for a in out_s:
                if cap[a]:
                    v = to[a]
                    b = to_t[v]
                    if b >= 0 and cap[b]:
                        return [a, b]
                    fwd[v] = a
                    front.append(v)
                else:
                    closed.append(a)
            out_s.difference_update(closed)
            if not front:
                return None
        if front is None or len(in_t) <= _SEED_CAP:
            back, closed = [], []
            for a in in_t:
                if cap[a]:
                    u = to[a ^ 1]
                    bwd[u] = a
                    if u not in fwd:
                        b = from_s[u]
                        if b < 0 or not cap[b]:
                            back.append(u)
                            continue
                        fwd[u] = b
                    return self._join(fwd, bwd, u, s, t)
                else:
                    closed.append(a)
            in_t.difference_update(closed)
            if not back:
                return None
        while True:
            if back is None or (front is not None and len(front) <= len(back)):
                level = []
                for u in front:
                    for a in head[u]:
                        if cap[a]:
                            v = to[a]
                            if v not in fwd:
                                fwd[v] = a
                                if v not in bwd:
                                    b = to_t[v]
                                    if b < 0 or not cap[b]:
                                        level.append(v)
                                        continue
                                    bwd[v] = b
                                return self._join(fwd, bwd, v, s, t)
                if not level:
                    return None
                front = level
            else:
                level = []
                for u in back:
                    for r in head[u]:
                        if cap[r ^ 1]:
                            v = to[r]
                            if v not in bwd:
                                bwd[v] = r ^ 1
                                if v not in fwd:
                                    a = from_s[v]
                                    if a < 0 or not cap[a]:
                                        level.append(v)
                                        continue
                                    fwd[v] = a
                                return self._join(fwd, bwd, v, s, t)
                if not level:
                    return None
                back = level

    def _join(self, fwd: dict, bwd: dict, v: int, s: int, t: int) -> list[int]:
        """The path s -> v -> t through the arcs `fwd` and `bwd` record."""
        to = self.to
        path = []
        u = v
        while u != s:
            a = fwd[u]
            path.append(a)
            u = to[a ^ 1]
        path.reverse()
        u = v
        while u != t:
            a = bwd[u]
            path.append(a)
            u = to[a]
        return path

    def source_side(self, s: int) -> set[int]:
        """Nodes reachable from s in the residual graph; call after max_flow."""
        head, to, cap = self.head, self.to, self.cap
        seen = {s}
        queue = [s]
        for u in queue:
            for idx in head[u]:
                v = to[idx]
                if cap[idx] and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


# a raised pin adds `infinite` = (finite + 1) << _HEADROOM to its arc, so
# released pins may shift every cut by up to about that much before the
# warm record is rebuilt
_HEADROOM = 24


@dataclass(frozen=True)
class AuxNetwork:
    """The cut network for one hypergraph: the cut of a vertex set X, the
    sink side, is rho(X) * scale + offset.

    Weights are cleared of denominators by `scale`, and the capacities are
    those integers in every mode."""

    flow: FlowNetwork
    source: int
    sink: int
    vertex_node: tuple[int, ...]
    scale: int                      # twice the weights' denominator scale
    offset: int                     # the cut of the empty set
    weights: tuple[int, ...]        # vertex weights * scale
    edges: tuple[tuple[frozenset[int], int], ...]  # hyperedges, weight * scale
    source_arc: tuple[int, ...]     # s->v of each vertex, raised to ban v
    sink_arc: tuple[int, ...]       # v->t of each vertex, raised to force v
    finite: int                     # the sum of the finite capacities
    infinite: int                   # above every finite cut

    def rho_scaled(self, W) -> int:
        """rho(W) * scale."""
        return sum(self.weights[v] for v in W) - sum(w for members, w in self.edges if members <= W)

    def cut_target(self, below) -> int:
        """The least cut value of any set with rho >= below, before any
        release shifts the cuts: a flow that reaches it proves that every set
        the instance admits has rho >= below.  Cut values are integers, hence
        the ceiling."""
        return ceil(below * self.scale) + self.offset

    def sink_side(self, extremal: str | None) -> frozenset[int]:
        """Vertices on a sink side of a minimum cut, after a max flow: under
        SMALLEST the smallest one (the intersection of the minimizers), read
        by one search from t, and otherwise the largest one (their union),
        read by one search from s."""
        if extremal == SMALLEST:
            net, t = self.flow, self.sink
            reach = net._levels(self.source, t, [r for r in net.head[t] if net.cap[r ^ 1]])
            return frozenset(v for v, node in enumerate(self.vertex_node) if reach[node] >= 0)
        reach = self.flow.source_side(self.source)
        return frozenset(v for v, node in enumerate(self.vertex_node) if node not in reach)


def _denominator_scale(H: WeightedHypergraph) -> int:
    dens = [w.denominator for w in H.vertex_weights]
    dens += [w.denominator for _, w in H.edges]
    return lcm(*dens) if dens else 1


def build_aux_network(H: WeightedHypergraph) -> AuxNetwork:
    """H's network before any flow; no terminal arc is raised.  A pair edge
    is one arc pair with its capacity each way, a singleton folds into its
    vertex's deficit, and only an edge of three or more members gets a node
    (module docstring)."""
    scale = 2 * _denominator_scale(H)
    n = H.n
    weights = tuple(int(w * scale) for w in H.vertex_weights)
    edges = tuple((members, int(w * scale)) for members, w in H.edges)
    c = list(weights)  # the deficits, scaled
    pairs, nodes = [], []
    for members, w in edges:
        if len(members) > 2:
            nodes.append((members, w))
            continue
        for v in members:
            c[v] -= w // len(members)  # w is even, since scale is
        if len(members) == 2:
            pairs.append((*members, w // 2))
    edge_weight = sum(w for _, w in nodes)
    finite = sum(map(abs, c)) + 2 * sum(w for _, _, w in pairs) + edge_weight
    infinite = (finite + 1) << _HEADROOM
    net = FlowNetwork(2 + n + len(nodes))
    s, t = 0, 1
    vnode = tuple(range(2, 2 + n))
    source_arc = tuple(net.add_arc(s, vnode[v], max(x, 0)) for v, x in enumerate(c))
    sink_arc = tuple(net.add_arc(vnode[v], t, max(-x, 0)) for v, x in enumerate(c))
    for u, v, w in pairs:
        a = net.add_arc(vnode[u], vnode[v], w)
        net.cap[a ^ 1] = w  # the reverse arc is the arc v->u
    for enode, (members, w) in enumerate(nodes, 2 + n):
        net.add_arc(enode, t, w)
        for v in sorted(members):
            net.add_arc(vnode[v], enode, infinite)
    offset = sum(-x for x in c if x < 0) + edge_weight
    return AuxNetwork(net, s, t, vnode, scale, offset, weights, edges, source_arc, sink_arc, finite, infinite)


def max_flow(aux: AuxNetwork) -> tuple[int, set[int]]:
    """Runs the flow and returns (scaled cut value, source-side node set)."""
    value = aux.flow.max_flow(aux.source, aux.sink)
    return value, aux.flow.source_side(aux.source)


class _Warm:
    """A thread's warm record for H.  `root_value` is the warm flow's value;
    `forced`, `banned` and `value` describe the flow aux.flow holds,
    `maximal` is False when it stopped at a cutoff, and `shift` is what the
    released pins have added to every cut."""

    def __init__(self, H: WeightedHypergraph):
        self.H = H
        self.reset()

    def reset(self) -> None:
        """A fresh network for H and its warm flow, Dinic's from zero, with
        no pins."""
        self.aux = aux = build_aux_network(self.H)
        self.root_value = self.value = aux.flow.max_flow(aux.source, aux.sink)
        self.open_arcs: OpenArcs | None = None  # built by the first pinned instance
        self.forced = self.banned = frozenset()
        self.maximal = True
        self.shift = 0


# `record`: this thread's _Warm, keyed by H's identity
_memo = threading.local()


def _warm(H: WeightedHypergraph) -> _Warm:
    """This thread's warm record for H, built anew unless it already is
    H's."""
    rec = getattr(_memo, "record", None)
    if rec is None or rec.H is not H:
        rec = _memo.record = _Warm(H)
    return rec


def _open_arcs(aux: AuxNetwork) -> OpenArcs:
    """The open terminal arcs of aux's current flow, and each node's own
    terminal arcs."""
    net = aux.flow
    cap, to = net.cap, net.to
    out_of_s, into_t = net.head[aux.source], [r ^ 1 for r in net.head[aux.sink]]
    from_s, to_t = [-1] * net.n, [-1] * net.n
    for a in out_of_s:
        from_s[to[a]] = a
    for a in into_t:
        to_t[to[a ^ 1]] = a
    return OpenArcs({a for a in out_of_s if cap[a]}, {a for a in into_t if cap[a]}, from_s, to_t)


def _release(cap: list[int], a: int, b: int, opened: set[int], inf: int) -> int:
    """Lower pinned arc a's capacity by `inf`.  If its flow then exceeds the
    capacity by r > 0, raise a and its vertex's other terminal arc b by r,
    add b to `opened`, and return r, which every cut has risen by."""
    cap[a] -= inf
    excess = -cap[a]
    if excess <= 0:
        return 0
    cap[a] = 0
    cap[b] += excess
    opened.add(b)
    return excess


def _solve_device(rec: _Warm, banned, forced, extremal, below=None) -> frozenset[int] | None:
    """One flow instance on `rec`'s network with the vertices of `banned`
    kept out and those of `forced` kept in.  Returns the minimizer W of mode
    `extremal`, or None when `below` is set and the instance's minimum is at
    least `below`.

    The pins of a maximal current flow, the warm flow's empty pins
    included, are read off the network.  Any other instance changes the
    flow in place: releases the pins it drops by raising both terminal arcs
    of each by the excess its arc carries, which shifts every cut by that
    much and moves no flow, rebuilds the record when the shift would use up
    the headroom of `infinite`, raises the arcs of the pins it adds, adds
    every terminal arc it opens to the record's open-arc sets, and repairs
    the flow by path searches seeded from them, stopping once the value
    reaches `below`'s shifted cut.  The memo is empty until `rec` is up to
    date again.  See the module docstring."""
    aux = rec.aux
    if rec.maximal and forced == rec.forced and banned == rec.banned:
        stopped = below is not None and rec.value >= aux.cut_target(below) + rec.shift
        return None if stopped else aux.sink_side(extremal)
    _memo.record = None
    if rec.open_arcs is None:
        rec.open_arcs = _open_arcs(aux)
    cap, inf, arcs, shift = aux.flow.cap, aux.infinite, rec.open_arcs, rec.shift
    for v in rec.forced - forced:
        shift += _release(cap, aux.sink_arc[v], aux.source_arc[v], arcs.out_of_s, inf)
    for v in rec.banned - banned:
        shift += _release(cap, aux.source_arc[v], aux.sink_arc[v], arcs.into_t, inf)
    if aux.finite + shift >= inf:
        # a finite cut could reach `infinite`: start again from no pins
        rec.reset()
        aux = rec.aux
        rec.open_arcs = arcs = _open_arcs(aux)
        cap, inf, shift = aux.flow.cap, aux.infinite, 0
    for v in banned - rec.banned:
        cap[aux.source_arc[v]] += inf
        arcs.out_of_s.add(aux.source_arc[v])
    for v in forced - rec.forced:
        cap[aux.sink_arc[v]] += inf
        arcs.into_t.add(aux.sink_arc[v])
    # no flow reaches `infinite`: the set of the forced vertices has a finite cut
    target = inf if below is None else aux.cut_target(below) + shift
    value = rec.value + aux.flow.max_flow(aux.source, aux.sink, target - rec.value, arcs)
    stopped = value >= target
    rec.forced, rec.banned, rec.value, rec.maximal, rec.shift = forced, banned, value, not stopped, shift
    _memo.record = rec
    if stopped:
        return None
    W = aux.sink_side(extremal)
    if forced and not (forced <= W):
        raise AssertionError("forcing device failed to pin its subset")
    return W


def _rank_key(aux: AuxNetwork, W: frozenset[int], extremal):
    r = aux.rho_scaled(W)
    if extremal == LARGEST:
        return (r, -len(W), tuple(sorted(W)))
    if extremal == SMALLEST:
        return (r, len(W), tuple(sorted(W)))
    return (r, 0, tuple(sorted(W)))


def _answer(aux: AuxNetwork, W: frozenset[int]) -> tuple[frozenset[int], Fraction]:
    return W, Fraction(aux.rho_scaled(W), aux.scale)


def min_potential_subset(H: WeightedHypergraph) -> tuple[frozenset[int], Fraction]:
    """Unconstrained minimizer of rho over all subsets (the empty set counts)."""
    rec = _warm(H)
    return _answer(rec.aux, _solve_device(rec, frozenset(), frozenset(), None))


def min_potential_constrained(
    H: WeightedHypergraph,
    m1: int = 0,
    m2: int = 0,
    extremal: str | None = None,
    below: int | Fraction | None = None,
) -> tuple[frozenset[int] | None, Fraction]:
    """Minimize rho over subsets with m1 <= |W| <= n - m2.

    Under LARGEST or SMALLEST, ties on rho go to the extremal cardinality,
    then to the lexicographically smallest vertex tuple over every subset in
    the window: W is min_potential_enum's.  With no mode the value is exact
    and W is one of the window's minimizers.

    With `below` set, a caller that only asks whether some window set has
    rho < below gets the same (W, rho) when one does, and otherwise
    (None, v) with below <= v <= the window minimum: a nonpositive `below`
    at or under the deficit bound returns that bound before any network is
    built, the search stops at the first branch whose value reaches
    `below`, and each branch's flow stops once it proves the branch's
    minimum reaches `below` (module docstring).
    """
    n = H.n
    if extremal not in EXTREMAL_MODES:
        raise ValueError(f"unknown extremal mode {extremal!r}")
    if m1 < 0 or m2 < 0 or m1 > n - m2:
        raise ValueError(f"no subset satisfies {m1} <= |W| <= {n} - {m2}")
    if below is not None and below <= 0:
        # the deficit certificate: no network, no flow (module docstring)
        bound = Fraction(sum(x for x in deficits(H) if x < 0), 2)
        if bound >= below:
            return None, bound

    # best first over branches (forced, banned); see the module docstring
    rec = _warm(H)
    aux = rec.aux
    cut_rank = None if below is None else below * aux.scale
    # the root's value, rho of its set times scale, decides a cutoff there
    # before any set is read
    root = rec.root_value - aux.offset
    if below is not None and root >= cut_rank:
        return None, Fraction(root, aux.scale)
    W = _solve_device(rec, frozenset(), frozenset(), extremal)
    heap = [(_rank_key(aux, W, extremal), frozenset(), frozenset())]
    seen = set()
    while True:
        key, forced, banned = heapq.heappop(heap)
        if below is not None and key[0] >= cut_rank:
            return None, Fraction(key[0], aux.scale)
        W = frozenset(key[2])
        if m1 <= len(W) <= n - m2:
            return _answer(aux, W)
        if len(W) < m1:
            kids = [(forced | {u}, banned) for u in range(n) if u not in W and u not in banned]
        else:
            free = sorted(W - forced)
            kids = [(forced.union(free[:i]), banned | {u}) for i, u in enumerate(free)]
        for kid in kids:
            if kid in seen:
                continue
            seen.add(kid)
            W_kid = _solve_device(rec, kid[1], kid[0], extremal, below)
            kid_key = (cut_rank, 0, ()) if W_kid is None else _rank_key(aux, W_kid, extremal)
            heapq.heappush(heap, (kid_key, *kid))


def min_potential_pinned(
    H: WeightedHypergraph,
    force=(),
    ban=(),
    extremal: str | None = LARGEST,
    below: int | Fraction | None = None,
) -> tuple[frozenset[int] | None, Fraction]:
    """Minimize rho over subsets that contain every vertex of `force` and
    avoid every vertex of `ban`.  One flow instance, warm-started from the
    latest instance's flow on H; membership constraints are exact (infinite
    terminal arcs).

    With `below` set, a pinned minimum below it comes back as without the
    cutoff, and any other as exactly (None, Fraction(below)): the flow stops
    once its value proves the minimum is at least `below` (module
    docstring)."""
    fset = frozenset(force)
    bset = frozenset(ban)
    if extremal not in EXTREMAL_MODES:
        raise ValueError(f"unknown extremal mode {extremal!r}")
    if fset & bset:
        raise ValueError(f"force and ban overlap on {sorted(fset & bset)}")
    for v in fset | bset:
        if not 0 <= v < H.n:
            raise ValueError(f"vertex {v} out of range")
    rec = _warm(H)
    W = _solve_device(rec, bset, fset, extremal, below)
    if W is None:
        return None, Fraction(below)
    return _answer(rec.aux, W)


# -- reference implementation by enumeration ------------------------------


def min_potential_enum(
    H: WeightedHypergraph,
    m1: int = 0,
    m2: int = 0,
    extremal: str | None = None,
) -> tuple[frozenset[int], Fraction]:
    """Authoritative but exponential: walk all subsets.  Ties on rho go to
    the extremal cardinality, then to the lexicographically smallest tuple
    over every qualifying subset (not just surfaced candidates)."""
    n = H.n
    if m1 < 0 or m2 < 0 or m1 > n - m2:
        raise ValueError(f"no subset satisfies {m1} <= |W| <= {n} - {m2}")
    L = _denominator_scale(H)
    wv = [int(H.vertex_weights[v] * L) for v in range(n)]
    masks = []
    for members, w in H.edges:
        mask = 0
        for v in members:
            mask |= 1 << v
        masks.append((mask, int(w * L)))
    best_key = None
    best = None
    for bits in range(1 << n):
        size = bits.bit_count()
        if size < m1 or size > n - m2:
            continue
        total = 0
        for v in range(n):
            if bits >> v & 1:
                total += wv[v]
        for mask, w in masks:
            if bits & mask == mask:
                total -= w
        if extremal == LARGEST:
            second = -size
        elif extremal == SMALLEST:
            second = size
        else:
            second = 0
        members = tuple(v for v in range(n) if bits >> v & 1)
        key = (total, second, members)
        if best_key is None or key < best_key:
            best_key, best = key, members
    return frozenset(best), Fraction(best_key[0], L)
