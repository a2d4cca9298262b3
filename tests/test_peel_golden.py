"""Golden differential test of the two coloring drivers and their workers.

A seeded corpus of 150 instances exercises every degree <= 2 peel rule
(multigraph steps 2a-2d, simple step 2 in its ip/d1/d2 forms), random i/f
precolor tags, peels that stop at the brute-force threshold, peels that split
the graph into components midway, and the entry, 2a and 2c diagnostics.  The
diagnostics need inputs the drivers' entry screen would refuse, so part of
the corpus calls the workers directly, at depth 0.

For each instance the SHA-256 of its canonical outcome record plus its full
trace must equal the value in ``peel_golden.json``: a changed answer,
certificate, diagnostic message or trace line shows up here.  Regenerate the
fixture only on a commit whose answers are the reference:

    PYTHONPATH=src python3 tests/test_peel_golden.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from nbcolor import solver
from nbcolor.forbidden import default_catalog
from nbcolor.graph_core import FP, GADGET, IP, MULTI, SINGLE, UNCOLORED, Graph, normalize

FIXTURE = Path(__file__).with_name("peel_golden.json")
SEED = 4
COUNT = 150
THRESHOLDS = (3, 8, 22)


def _cubic(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random connected simple cubic graph on n (even) vertices."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = sorted(points[i : i + 2])
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            seen, stack = {0}, [0]
            while stack:
                x = stack.pop()
                for a, b in edges:
                    y = b if a == x else a if b == x else None
                    if y is not None and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == n:
                return sorted(edges)


def _instance_graph(rng: random.Random, driver: str, screened: bool) -> Graph:
    """A small core (a cubic graph or a cycle, one or two of them joined by a
    path) grown by subdivided chains, pendant trees and pendant heavy leaves
    (a parallel pair for the multigraph driver, a gadget for the simple one),
    with random i/f tags, under a random relabeling.  Inputs for a worker
    (`screened` false) get more tags, and some heavy leaves tagged "f" at
    both ends, which the entry screen would refuse."""
    heavy = MULTI if driver == "multi" else GADGET
    edges: list[tuple[int, int, str]] = []
    count = 0
    cores = []
    for _ in range(1 if rng.random() < 0.7 else 2):
        if rng.random() < 0.6:
            size = rng.choice((4, 6, 8, 10))
            es = _cubic(rng, size)
        else:
            size = rng.randint(3, 9)
            es = [(i, (i + 1) % size) for i in range(size)]
        edges += [(u + count, v + count, SINGLE) for u, v in es]
        cores.append(range(count, count + size))
        count += size
    if len(cores) == 2:
        # a path between the two cores: peeling its inner vertices splits them
        k = rng.randint(1, 4)
        chain = [rng.choice(cores[0])] + list(range(count, count + k)) + [rng.choice(cores[1])]
        edges += [(a, b, SINGLE) for a, b in zip(chain, chain[1:])]
        count += k
    forced = {}
    target = count + rng.randint(4, 40)
    while count < target:
        x = rng.randrange(count)
        r = rng.random()
        if r < 0.3:
            k = rng.randint(1, 6)
            y = rng.choice([v for v in range(count) if v != x])
            chain = [x] + list(range(count, count + k)) + [y]
            edges += [(a, b, SINGLE) for a, b in zip(chain, chain[1:])]
            count += k
        elif r < 0.45:
            edges += [(x, count, SINGLE), (count, count + 1, heavy)]
            count += 2
        elif r < 0.55:
            edges.append((x, count, heavy))
            if not screened and rng.random() < 0.6:
                forced[x] = forced[count] = FP  # a forest-tagged heavy pair
            count += 1
        else:
            size = rng.randint(1, 5)
            edges.append((x, count, SINGLE))
            for v in range(count + 1, count + size):
                edges.append((rng.randrange(count, v), v, SINGLE))
            count += size
    tag_rate = rng.choice((0.0, 0.05, 0.15) if screened else (0.05, 0.15, 0.3))
    pre = [UNCOLORED] * count
    for v in range(count):
        if rng.random() < tag_rate:
            pre[v] = rng.choice((FP, IP))
    for v, tag in forced.items():
        pre[v] = tag
    perm = list(range(count))
    rng.shuffle(perm)
    tags = [UNCOLORED] * count
    for v in range(count):
        tags[perm[v]] = pre[v]
    return normalize(count, [(perm[u], perm[v], k) for u, v, k in edges], tags)


def corpus():
    """(name, driver, call, graph, brute threshold) records in a fixed order.
    `call` is "driver" for the public entry point and "worker" for a direct
    worker call at depth 0."""
    rng = random.Random(SEED)
    out = []
    for i in range(COUNT):
        driver = ("multi", "simple")[i % 2]
        call = "worker" if i % 5 >= 3 else "driver"
        G = _instance_graph(rng, driver, call == "driver")
        threshold = THRESHOLDS[(i // 2) % len(THRESHOLDS)]
        if call == "worker" and rng.random() < 0.5:
            # Workers once took a scan floor and vertex groups drawn here.  The
            # draws stay so that later instances, and their hashes, do not move.
            rng.choice((-1, 0, 2, 4))
            rng.sample(range(G.n), min(G.n, rng.randint(1, 4)))
        out.append((f"{i:03d}-{driver}-{call}", driver, call, G, threshold))
    return out


def outcome_record(out) -> dict:
    if isinstance(out, solver.Colored):
        return {"status": "colored", "I": sorted(out.coloring.i_set), "F": sorted(out.coloring.f_set)}
    if isinstance(out, solver.CertLowPotential):
        return {"status": "low", "subset": sorted(out.subset), "rho": out.rho, "threshold": out.threshold}
    if isinstance(out, solver.CertForbidden):
        return {"status": "forbidden", "name": out.name, "mapping": sorted(out.mapping.items())}
    return {"status": "diagnostic", "step": out.step, "message": out.message}


def solve(driver, call, G, threshold):
    trace: list[str] = []
    if call == "driver":
        fn = solver.color_multigraph if driver == "multi" else solver.color_simple
        out = fn(G, brute_threshold=threshold, trace=trace)
    else:
        cat = default_catalog()
        if driver == "multi":
            ctx = solver._Ctx(cat.restrict(("k4", "m7")), threshold, trace)
            out = solver._run(solver._multi_worker, G, ctx)
        else:
            ctx = solver._Ctx(cat, threshold, trace)
            out = solver._run(solver._simple_worker, G, ctx)
    return outcome_record(out), trace


def digest(record, trace) -> str:
    blob = json.dumps({"outcome": record, "trace": trace}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _results():
    for name, driver, call, G, threshold in corpus():
        record, trace = solve(driver, call, G, threshold)
        yield name, record, trace


def test_answers_and_traces_match_the_golden_hashes():
    golden = json.loads(FIXTURE.read_text())["sha256"]
    assert len(golden) == COUNT
    steps, outcomes, diags = set(), set(), set()
    mismatched = []
    for name, record, trace in _results():
        if digest(record, trace) != golden[name]:
            mismatched.append(name)
        steps.update(" ".join(line.split()[:2]) if line.lstrip().startswith("2 ") else line.split()[0]
                     for line in trace)
        outcomes.add(record["status"])
        if record["status"] == "diagnostic":
            diags.add(record["step"])
    assert mismatched == []
    # the corpus keeps covering what it was built to cover
    assert {"2a", "2b", "2c", "2d", "2 ip", "2 d1", "2 d2", "base"} <= steps
    assert {"colored", "low", "diagnostic"} <= outcomes
    assert {"entry", "2a", "2c"} <= diags


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    hashes = {name: digest(record, trace) for name, record, trace in _results()}
    FIXTURE.write_text(json.dumps({"seed": SEED, "sha256": hashes}, indent=1, sort_keys=True) + "\n")
