"""Tests of the benchmark's checker, tracer and corpora."""

import random

import pytest

import checker
import tracer
import workloads
from nbcolor import forbidden, graph_core, min_potential, solver
from nbcolor.families import base_graph, gen_gk
from nbcolor.graph_core import graph
from nbcolor.oracle import brute_nb_color
from run import outcome_record

MEMBERS = {name: base_graph(name) for name in checker.MEMBERS["simple"]}


def judge(G, driver, expect, rec):
    return checker.check(G, driver, expect, rec, MEMBERS)[0]


def test_checker_accepts_and_rejects_colorings():
    G = graph(6, singles=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2)], fp=[3])
    c = brute_nb_color(G)
    rec = {"status": "colored", "I": sorted(c.i_set), "F": sorted(c.f_set)}
    assert judge(G, "multi", "colored", rec) == checker.OK
    everything_f = {"status": "colored", "I": [], "F": list(range(6))}
    assert judge(G, "multi", "colored", everything_f) == checker.WRONG  # F holds a cycle
    tag_ignored = {"status": "colored", "I": [1, 3, 5], "F": [0, 2, 4]}
    assert judge(G, "multi", "colored", tag_ignored) == checker.WRONG
    adjacent_i = {"status": "colored", "I": [0, 1, 4], "F": [2, 3, 5]}
    assert judge(G, "multi", "colored", adjacent_i) == checker.WRONG
    assert judge(G, "multi", "cert-low-potential", rec) == checker.WRONG  # class mismatch


def test_checker_rejects_altered_low_potential_subset():
    G = gen_gk(2)
    rec = outcome_record(solver.color_multigraph(G))
    assert rec["status"] == "cert-low-potential"
    assert judge(G, "multi", "cert-low-potential", rec) == checker.OK
    for altered in (rec["subset"][1:], rec["subset"][:-1], []):
        assert judge(G, "multi", "cert-low-potential", dict(rec, subset=altered)) == checker.WRONG
    assert judge(G, "multi", "cert-low-potential", dict(rec, rho=rec["rho"] - 1)) == checker.WRONG
    assert judge(G, "multi", "cert-low-potential", dict(rec, threshold=-4)) == checker.WRONG


def test_checker_rejects_wrong_embedding():
    rng = random.Random(5)
    G = workloads._glued(rng, "k4", 12, multi_pairs=False)
    rec = outcome_record(solver.color_simple(G))
    assert rec["status"] == "cert-forbidden"
    assert judge(G, "simple", "cert-forbidden", rec) == checker.OK
    pairs = rec["mapping"]
    host_edges = {(u, v) for u, v, _ in G.edges}
    images = {h for _, h in pairs}
    outside = next(
        h for h in range(G.n)
        if h not in images and (min(h, pairs[0][1]), max(h, pairs[0][1])) not in host_edges
    )
    moved = [[pairs[0][0], outside]] + pairs[1:]
    assert judge(G, "simple", "cert-forbidden", dict(rec, mapping=moved)) == checker.WRONG
    collided = [[pairs[0][0], pairs[1][1]]] + pairs[1:]
    assert judge(G, "simple", "cert-forbidden", dict(rec, mapping=collided)) == checker.WRONG
    assert judge(G, "simple", "cert-forbidden", dict(rec, mapping=pairs[1:])) == checker.WRONG
    assert judge(G, "simple", "cert-forbidden", dict(rec, name="w5")) == checker.WRONG
    assert judge(G, "multi", "cert-forbidden", dict(rec, name="j7")) == checker.WRONG


def test_checker_counts_declines_without_answer_as_failures():
    G = gen_gk(1)
    diag = {"status": "diagnostic", "step": "4", "message": "every triangle attachment pair is linked"}
    assert judge(G, "multi", "uncolorable", diag) == checker.FAILED
    exc = outcome_record(RecursionError("maximum recursion depth exceeded"))
    assert judge(G, "multi", "colored", exc) == checker.FAILED


def _wrapped_objects():
    owners = [solver, forbidden, min_potential.FlowNetwork, graph_core.Graph]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_traced_run_restores_every_wrapped_object():
    before = _wrapped_objects()
    rng = random.Random(3)
    corpus = workloads.near_threshold(rng)[:40:4]
    trace = tracer.LayerTrace()
    with tracer.installed(trace):
        assert solver.min_potential_pinned is not min_potential.min_potential_pinned
        for inst in corpus:
            fn = solver.color_multigraph if inst.driver == "multi" else solver.color_simple
            trace.solve(inst.driver, fn, inst.graph, brute_threshold=inst.brute_threshold)
    assert trace.counts["mp.screen.calls"] == len(corpus)
    after = _wrapped_objects()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert solver.min_potential_pinned is min_potential.min_potential_pinned
    assert solver.validate_coloring is graph_core.validate_coloring


def test_wrappers_are_removed_when_the_block_raises():
    before = _wrapped_objects()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(tracer.LayerTrace()):
            1 / 0
    after = _wrapped_objects()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_repeat_for_the_same_input():
    G = workloads.cubic_graph(random.Random(8), 24)
    runs = []
    for _ in range(2):
        trace = tracer.LayerTrace()
        with tracer.installed(trace):
            trace.solve("simple", solver.color_simple, G)
            trace.solve("multi", solver.color_multigraph, G)
        runs.append(trace.deterministic())
    assert runs[0] == runs[1]
    assert runs[0]["mp.pinned.flows"] > 0


def test_corpora_depend_only_on_the_seed():
    a = workloads.long_sparse(random.Random(4))
    b = workloads.long_sparse(random.Random(4))
    c = workloads.long_sparse(random.Random(5))
    assert [i.graph for i in a] == [i.graph for i in b]
    assert [i.graph for i in a] != [i.graph for i in c]
    assert [i.graph.n for i in a] == list(workloads.LONG_SPARSE_SIZES)
