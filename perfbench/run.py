"""Benchmark of the two coloring drivers on seeded workloads.

    python3 perfbench/run.py --workload cubic --seed 1 --seconds 30 --trace 0

Run from the repository root.  The benchmark imports nbcolor from ``src/``,
generates the workload's corpus from the seed, and then solves the whole
corpus again and again, one input at a time in this one process (a closed
loop with one client), until the next pass would overrun ``--seconds``.
Every answer goes through the independent checker in ``checker.py``.

Solve times are scaled to a fixed reference speed: a short pure-Python
reference loop is timed between the solves of a pass, for a share of the
pass's time, and every time of the pass is multiplied by REFERENCE_S over
the loop's mean time.  This keeps the drift in speed of a shared host out of
the comparison between two commits; the report line carries the unscaled
figures as well.  Set-up runs in a
child interpreter, which times the reference loop itself once it is done.
The per-layer times of a traced run are not scaled.

``attempted`` in the result line is the number of inputs in the corpus and
``failed`` the number of them whose answer the checker counts as a failure.
Every pass solves every input again and must give byte-identical answers, so
both counts depend only on the seed, not on how many passes fit in the run.

Standard output gets two JSON lines: a report (environment, corpus digest,
error rate, failures, unscaled times, and in a traced run the deterministic
counts), then the result line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured without wrappers; with
``--trace 1`` they are the per-layer ones of ``tracer.py``, from a run that
alternates plain and traced passes, at least two of each kind; the traced
passes' deterministic counts must repeat exactly.

Exit status: 0 when every answer passed the checker, 1 when one did not or
the traced counts did not repeat, 2 when nbcolor's sources are missing.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Mean time of _reference_loop() on a 2-core x86-64 host under Python 3.11.7.
# Shared hosts drift in speed by 10-30 % over seconds to minutes, and a fixed
# pure-Python loop slows with them, so every reported time is scaled by
# REFERENCE_S over the loop's mean time measured among the solves.
REFERENCE_S = 0.001
SHORT_REFERENCE = 3
LONG_REFERENCE = 31
SETUP_RUNS = 7
# The child times the import and the first catalog build, and only then
# times the reference loop on its own core.
SETUP_CHILD = """
import time
t = time.perf_counter()
import nbcolor.cli
from nbcolor.forbidden import default_catalog
default_catalog()
t = time.perf_counter() - t
import random
{loop}
refs = []
for _ in range({count}):
    r = time.perf_counter()
    _reference_loop()
    refs.append(time.perf_counter() - r)
print(t, sum(refs) / len(refs))
"""


def _reference_loop() -> None:
    rng = random.Random(7)
    adj = [[] for _ in range(200)]
    for _ in range(600):
        u, v = rng.randrange(200), rng.randrange(200)
        adj[u].append(v)
        adj[v].append(u)
    for _ in range(4):
        seen = {0}
        stack = [0]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        adj = [sorted(a) for a in adj]


def reference(count: int) -> list[float]:
    """Seconds for each of `count` runs of a fixed pure-Python workload of
    the same kind as the solver's: list and set traffic, a graph search,
    sorting."""
    runs = []
    for _ in range(count):
        t0 = time.perf_counter()
        _reference_loop()
        runs.append(time.perf_counter() - t0)
    return runs


def git_commit() -> str:
    """HEAD's commit id, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import the CLI and build the
    default catalog, over SETUP_RUNS runs after one warm-up run: (scaled by
    the child's own reference time, unscaled)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = SETUP_CHILD.format(loop=inspect.getsource(_reference_loop), count=LONG_REFERENCE)
    times, raw = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if i:
            t, ref = map(float, done.stdout.split())
            raw.append(t)
            times.append(t * REFERENCE_S / ref)
    return statistics.median(times), statistics.median(raw)


def outcome_record(out) -> dict:
    """Canonical JSON-ready form of one driver outcome, or of the exception
    the driver raised."""
    from nbcolor.solver import CertForbidden, CertLowPotential, Colored, Diagnostic

    if isinstance(out, Colored):
        return {"status": "colored", "I": sorted(out.coloring.i_set), "F": sorted(out.coloring.f_set)}
    if isinstance(out, CertLowPotential):
        return {
            "status": "cert-low-potential",
            "subset": sorted(out.subset),
            "rho": out.rho,
            "threshold": out.threshold,
        }
    if isinstance(out, CertForbidden):
        return {"status": "cert-forbidden", "name": out.name, "mapping": sorted([p, h] for p, h in out.mapping.items())}
    if isinstance(out, Diagnostic):
        return {"status": "diagnostic", "step": out.step, "message": out.message}
    return {"status": "exception", "message": f"{type(out).__name__}: {out}"}


def solve_pass(corpus, drivers, trace=None):
    """Solve every instance once.  Returns per-instance seconds, raw and
    scaled to reference speed, and the outcome records.

    Each solve gets a fresh copy of its input graph, so views that a Graph
    caches on first use are computed inside the timed call, as they are for
    a caller with a new graph."""
    from nbcolor.graph_core import Graph

    times, records = [], []
    refs = reference(LONG_REFERENCE)
    for inst in corpus:
        fn = drivers[inst.driver]
        G = Graph(inst.graph.n, inst.graph.edges, inst.graph.precolor)
        t0 = time.perf_counter()
        try:
            if trace is None:
                out = fn(G, brute_threshold=inst.brute_threshold)
            else:
                out = trace.solve(inst.driver, fn, G, brute_threshold=inst.brute_threshold)
        except Exception as exc:  # RecursionError included: a failed solve, not a crash
            out = exc
        t = time.perf_counter() - t0
        times.append(t)
        records.append(outcome_record(out))
        # sample the host's speed about as often as the solves take time
        refs += reference(SHORT_REFERENCE if t < 0.05 else LONG_REFERENCE)
    factor = REFERENCE_S / statistics.fmean(refs)
    return times, [t * factor for t in times], records


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nbcolor" / "__init__.py").is_file():
        print(f"perfbench: no nbcolor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checker
    import tracer
    import workloads
    from nbcolor.families import base_graph
    from nbcolor.forbidden import default_catalog
    from nbcolor.solver import color_multigraph, color_simple

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s, setup_raw = measure_setup()
    default_catalog()  # built before any wrapper exists, so its own flows stay out of the counts
    t0 = time.perf_counter()
    corpus = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    gen_s = time.perf_counter() - t0

    drivers = {"multi": color_multigraph, "simple": color_simple}
    members = {name: base_graph(name) for name in checker.MEMBERS["simple"]}
    plain, traced = [], []  # (raw times, scaled times[, trace]) per pass
    verdicts = None
    first_digest = None
    correct = True
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        # a traced run alternates plain and traced passes, so the overhead
        # compares passes made under the same conditions
        if args.trace == 1 and len(plain) > len(traced):
            trace = tracer.LayerTrace()
            with tracer.installed(trace):
                times, scaled_times, records = solve_pass(corpus, drivers, trace)
            traced.append((times, scaled_times, trace))
        else:
            times, scaled_times, records = solve_pass(corpus, drivers)
            plain.append((times, scaled_times))
        if verdicts is None:
            verdicts = [
                checker.check(inst.graph, inst.driver, inst.expect, rec, members)
                for inst, rec in zip(corpus, records)
            ]
            first_digest = checker.digest(records)
            for inst, (verdict, reason) in zip(corpus, verdicts):
                if verdict != checker.OK:
                    problems.append(f"{inst.name}: {verdict}: {reason}")
        elif checker.digest(records) != first_digest:
            correct = False
            problems.append("answers changed between passes")
        now = time.perf_counter()
        owe_traced = args.trace == 1 and (len(traced) < 2 or len(plain) > len(traced))
        if not owe_traced and now - start + (now - pass_start) > args.seconds:
            break
    correct = correct and not any(v == checker.WRONG for v, _ in verdicts)
    attempted = len(corpus)
    failed = sum(v == checker.FAILED for v, _ in verdicts)

    walls = [sum(ts) for _, ts in plain]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "platform": platform.platform(),
        },
        "gen_s": gen_s,
        "instances": len(corpus),
        "plain_passes": len(plain),
        "traced_passes": len(traced),
        "digest": first_digest,
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "expected": dict(sorted(Counter(i.expect for i in corpus).items())),
        "problems": problems[:20],
    }
    if args.trace == 0:
        per = [statistics.median(ts) for ts in zip(*(s for _, s in plain))]
        per_raw = [statistics.median(ts) for ts in zip(*(r for r, _ in plain))]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "solve_s.p50": (statistics.median(per), "s"),
            "solve_s.p90": (percentile(per, 90), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report["unscaled"] = {
            "setup_s": setup_raw,
            "wall_s": statistics.median(sum(r) for r, _ in plain),
            "solve_s.p50": statistics.median(per_raw),
            "solve_s.p90": percentile(per_raw, 90),
        }
    else:
        counts = [t.deterministic() for _, _, t in traced]
        if any(c != counts[0] for c in counts[1:]):
            correct = False
            report["problems"].append("traced counts differ between passes")
        metrics = _median_metrics([t.metrics() for _, _, t in traced])
        metrics["trace.wall_s"] = (statistics.median(sum(r) for r, _, _ in traced), "s")
        traced_scaled = statistics.median(sum(s) for _, s, _ in traced)
        metrics["trace.overhead"] = (traced_scaled / statistics.median(walls), "ratio")
        report["counts_sha256"] = checker.digest([counts[0]])
        report["counts"] = counts[0]
    print(json.dumps(report))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _median_metrics(runs):
    """Per metric, the median over passes; counts are equal in every pass."""
    return {name: (statistics.median(r[name][0] for r in runs), unit) for name, (_, unit) in runs[0].items()}


if __name__ == "__main__":
    sys.exit(main())
