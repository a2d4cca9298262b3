"""Independent checks of the drivers' answers.

The checker reads only the input graph's plain data (vertex count, edge
records, precolor tags) and the canonical outcome record; it calls nothing
in nbcolor.  Potentials, floors and the coloring rules are restated here from
their definitions:

  rho_m(W) = 3 |W uncolored| + |W forest-tagged| - 2 e(W), a parallel pair
             counting as two edges; the multigraph floor is -1
  rho_s(W) = 8 |W uncolored| + 3 |W forest-tagged| - 5 e'(W) - 11 e''(W),
             e'' the gadget edges; the simple floor is -4

A coloring is valid when I is independent, no parallel pair or gadget lies
inside F, the single edges inside F form a forest, and every precolor tag is
kept.
"""

from __future__ import annotations

import hashlib
import json

FLOOR = {"multi": -1, "simple": -4}
# the members each driver screens for
MEMBERS = {
    "multi": ("k4", "m7"),
    "simple": ("k4", "w5", "m7", "j7", "j8", "j12"),
}

OK = "ok"
FAILED = "failed"  # no answer: a diagnostic, an exception, an uncertified decline
WRONG = "wrong"    # an answer the checker rejects


def digest(records) -> str:
    """SHA-256 of the canonical JSON lines of a sequence of outcome records."""
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def coloring_problem(G, i_set, f_set) -> str | None:
    """The first broken coloring rule, or None."""
    n = G.n
    if sorted(list(i_set) + list(f_set)) != list(range(n)):
        return "I and F do not partition the vertices"
    side = {v: "I" for v in i_set}
    side.update({v: "F" for v in f_set})
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, kind in G.edges:
        if side[u] == "I" and side[v] == "I":
            return f"edge {u}-{v} inside I"
        if side[u] == "F" and side[v] == "F":
            if kind != "single":
                return f"{kind} edge {u}-{v} inside F"
            ru, rv = root(u), root(v)
            if ru == rv:
                return f"edge {u}-{v} closes a cycle inside F"
            parent[ru] = rv
    for v, tag in enumerate(G.precolor):
        if tag == "f" and side[v] != "F":
            return f"forest-tagged vertex {v} placed in I"
        if tag == "i" and side[v] != "I":
            return f"independent-tagged vertex {v} placed in F"
    return None


def potential(G, driver: str, W) -> int:
    W = set(W)
    if driver == "multi":
        credit = {"none": 3, "f": 1, "i": 0}
        debit = {"single": 2, "multi": 4}
    else:
        credit = {"none": 8, "f": 3, "i": 0}
        debit = {"single": 5, "gadget": 11}
    total = sum(credit[G.precolor[v]] for v in W)
    for u, v, kind in G.edges:
        if u in W and v in W:
            total -= debit[kind]
    return total


def low_potential_problem(G, driver: str, rec) -> str | None:
    subset = rec["subset"]
    if not subset or len(set(subset)) != len(subset) or not all(0 <= v < G.n for v in subset):
        return "certificate subset is empty, repeats a vertex or leaves the graph"
    if rec["threshold"] != FLOOR[driver]:
        return f"threshold {rec['threshold']} is not the {driver} floor {FLOOR[driver]}"
    rho = potential(G, driver, subset)
    if rho != rec["rho"]:
        return f"certificate claims rho {rec['rho']}, recomputed {rho}"
    if rho >= rec["threshold"]:
        return f"rho {rho} does not beat the floor {rec['threshold']}"
    return None


def embedding_problem(G, driver: str, rec, members) -> str | None:
    """`members` maps a catalog name to its graph."""
    name = rec["name"]
    if name not in MEMBERS[driver]:
        return f"{name!r} is not a member the {driver} driver screens for"
    P = members[name]
    mapping = dict(rec["mapping"])
    if len(mapping) != len(rec["mapping"]) or sorted(mapping) != list(range(P.n)):
        return "mapping does not cover each member vertex once"
    images = list(mapping.values())
    if len(set(images)) != len(images) or not all(0 <= h < G.n for h in images):
        return "mapping is not an injection into the graph"
    host = {(min(u, v), max(u, v)) for u, v, _ in G.edges}
    for p, q, _ in P.edges:
        a, b = mapping[p], mapping[q]
        if (min(a, b), max(a, b)) not in host:
            return f"member edge {p}-{q} lands on the non-edge {a}-{b}"
    return None


def check(G, driver: str, expect: str, rec, members) -> tuple[str, str]:
    """Judge one canonical outcome record against its input and the class
    fixed at generation.  Returns (verdict, reason)."""
    status = rec["status"]
    if status in ("diagnostic", "exception"):
        return FAILED, f"{status}: {rec.get('step', '')} {rec.get('message', '')}".strip()
    if status == "colored":
        bad = coloring_problem(G, rec["I"], rec["F"])
    elif status == "cert-low-potential":
        bad = low_potential_problem(G, driver, rec)
    elif status == "cert-forbidden":
        bad = embedding_problem(G, driver, rec, members)
    else:
        bad = f"unknown status {status!r}"
    if bad is not None:
        return WRONG, bad
    if status != expect:
        return WRONG, f"answered {status}, generation fixed {expect}"
    return OK, ""
