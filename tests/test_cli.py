"""Command-line interface: payloads, exit codes, and determinism."""

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nbcolor.cli import main
from nbcolor.families import base_graph, gen_gk
from nbcolor.forbidden import default_catalog, save_catalog
from nbcolor.graph_core import graph, load_nbg, parse_nbg, save_nbg

OK, USAGE, WITNESS = 0, 1, 2


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("NBCOLOR_CATALOG", raising=False)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, name, G, comment=None):
    path = tmp_path / name
    save_nbg(G, path, comment=comment)
    return str(path)


def test_color_brute_forest(tmp_path, capsys):
    path = write_graph(tmp_path, "p4.nbg", graph(4, singles=[(0, 1), (1, 2), (2, 3)]))
    code, out, _ = run(capsys, "color", "--mode", "brute", path)
    assert code == OK
    payload = json.loads(out)
    assert payload["status"] == "colored"
    assert sorted(payload["I"] + payload["F"]) == [0, 1, 2, 3]


def test_color_multi_low_potential(tmp_path, capsys):
    path = write_graph(tmp_path, "g3.nbg", gen_gk(3))
    code, out, _ = run(capsys, "color", "--mode", "multi", path)
    assert code == WITNESS
    payload = json.loads(out)
    assert payload["status"] == "cert-low-potential"
    assert payload["rho"] == -2 and payload["threshold"] == -1
    assert payload["subset"]


def test_potential_all(tmp_path, capsys):
    path = write_graph(tmp_path, "w5.nbg", base_graph("w5"))
    code, out, _ = run(capsys, "potential", "--kind", "s", "--set", "all", path)
    assert code == OK
    assert out.strip() == "-2"
    code, out, _ = run(capsys, "potential", "--kind", "m", "--set", "0,1,2", path)
    assert code == OK
    assert out.strip() == str(9 - 2 * len(base_graph("w5").edges_inside({0, 1, 2})))


def test_minpot(tmp_path, capsys):
    path = write_graph(tmp_path, "w5.nbg", base_graph("w5"))
    code, out, _ = run(
        capsys, "minpot", "--kind", "s", "--extremal", "largest", path
    )
    assert code == OK
    payload = json.loads(out)
    assert payload == {"W": [0, 1, 2, 3, 4, 5], "rho": "-2"}


def test_check_sparse(tmp_path, capsys):
    path = write_graph(tmp_path, "tri.nbg", graph(3, singles=[(0, 1), (1, 2), (0, 2)]))
    code, out, _ = run(capsys, "check", "sparse", "--a", "3/2", "--b", "1", path)
    assert code == OK and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "check", "sparse", "--a", "1", "--b", "1", path)
    assert code == WITNESS
    payload = json.loads(out)
    assert payload["ok"] is False and payload["witness"]


@pytest.mark.parametrize("a, b", [("1/0", "1"), ("1", "2/0"), ("x", "1"), ("1", "")])
def test_check_sparse_rejects_a_bad_fraction(tmp_path, capsys, a, b):
    # a zero denominator or a malformed number is a usage error, not a
    # traceback, and the input is never read
    path = write_graph(tmp_path, "tri.nbg", graph(3, singles=[(0, 1), (1, 2), (0, 2)]))
    code, out, err = run(capsys, "check", "sparse", "--a", a, "--b", b, path)
    assert code == USAGE and out == ""
    assert ("--a" if a != "1" else "--b") in err and "Traceback" not in err


def test_check_critical(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.nbg", base_graph("k4"))
    code, out, _ = run(capsys, "check", "critical", path)
    assert code == OK and json.loads(out)["ok"] is True
    c5 = write_graph(tmp_path, "c5.nbg", graph(5, singles=[(i, (i + 1) % 5) for i in range(5)]))
    code, out, _ = run(capsys, "check", "critical", c5)
    assert code == WITNESS and json.loads(out)["ok"] is False
    code, out, _ = run(capsys, "check", "4critical", path)
    assert code == OK and json.loads(out)["ok"] is True
    k222 = write_graph(tmp_path, "k222.nbg", base_graph("k222"))
    code, out, _ = run(capsys, "check", "4critical", k222)
    assert code == WITNESS and json.loads(out)["ok"] is False


def test_auto_mode_picks_driver(tmp_path, capsys):
    # parallel pairs present: the multigraph floor of -1 applies
    path = write_graph(tmp_path, "g1.nbg", gen_gk(1))
    code, out, _ = run(capsys, "color", path)
    assert code == WITNESS
    assert json.loads(out)["threshold"] == -1
    # all-plain input goes through the simple-graph driver
    path = write_graph(tmp_path, "w5.nbg", base_graph("w5"))
    code, out, _ = run(capsys, "color", path)
    assert code == WITNESS
    assert json.loads(out)["status"] == "cert-forbidden"


def test_mixed_kinds_rejected(tmp_path, capsys):
    raw = tmp_path / "mixed.nbg"
    raw.write_text("n 4\ne 0 1\nm 1 2\ng 2 3\n")
    code, out, err = run(capsys, "color", str(raw))
    assert code == USAGE
    assert "parallel pairs and gadget" in err


def test_colored_output_is_deterministic(tmp_path, capsys):
    G = graph(6, singles=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)])
    path = write_graph(tmp_path, "ring.nbg", G)
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "color", "--mode", "simple", path)
        assert code == OK
        runs.append(out)
    assert runs[0] == runs[1]


def test_trace_included(tmp_path, capsys):
    path = write_graph(tmp_path, "p4.nbg", graph(4, singles=[(0, 1), (1, 2), (2, 3)]))
    code, out, _ = run(capsys, "color", "--mode", "simple", "--trace", path)
    assert code == OK
    payload = json.loads(out)
    assert isinstance(payload["trace"], list)


def test_gen_round_trip(tmp_path, capsys):
    out_path = tmp_path / "g3.nbg"
    code, _, _ = run(capsys, "gen", "gk", "--k", "3", "-o", str(out_path))
    assert code == OK
    G = load_nbg(out_path)
    H = gen_gk(3)
    assert G.n == H.n and G.edges == H.edges
    code, out, _ = run(capsys, "gen", "base", "--name", "w5")
    assert code == OK
    W = parse_nbg(out)
    assert W.n == 6 and W.edges == base_graph("w5").edges


def test_linked(tmp_path, capsys):
    c6 = write_graph(tmp_path, "c6.nbg", graph(6, singles=[(i, (i + 1) % 6) for i in range(6)]))
    code, out, _ = run(capsys, "linked", "--s", "0", "--t", "3", c6)
    assert code == OK and json.loads(out) == {"linked": False}
    nearly = write_graph(tmp_path, "k4e.nbg", base_graph("k4").without_edge(0, 1))
    code, out, _ = run(capsys, "linked", "--s", "0", "--t", "1", nearly)
    assert code == WITNESS
    payload = json.loads(out)
    assert payload["linked"] is True and payload["member"] == "k4"


@pytest.mark.parametrize(
    "s, t, mapping",
    [
        (2, 7, [[0, 5], [1, 2], [2, 7], [3, 0], [4, 3], [5, 6]]),
        (7, 2, [[0, 5], [1, 7], [2, 2], [3, 6], [4, 3], [5, 0]]),
    ],
)
def test_linked_witness_past_the_first_orbit(tmp_path, capsys, s, t, mapping):
    # W5 minus its rim edge (1, 2), relabelled, plus two vertices and three
    # edges.  No k4 link and neither of w5's two spoke orbits fits the cut's
    # ends, so the witness comes from w5's third orbit, the rim edges; the
    # payload is the one searching every oriented edge gives
    relabel = {0: 5, 1: 2, 2: 7, 3: 0, 4: 3, 5: 6}
    rim_cut = base_graph("w5").without_edge(1, 2)
    host = graph(8, singles=[(relabel[u], relabel[v]) for u, v, _ in rim_cut.edges] + [(1, 4), (4, 5), (0, 1)])
    path = write_graph(tmp_path, "w5rim.nbg", host)
    code, out, _ = run(capsys, "linked", "--s", str(s), "--t", str(t), path)
    assert code == WITNESS
    assert json.loads(out) == {"linked": True, "member": "w5", "removed_edge": [1, 2], "mapping": mapping}


def test_forbidden(tmp_path, capsys):
    w5 = write_graph(tmp_path, "w5.nbg", base_graph("w5"))
    code, out, _ = run(capsys, "forbidden", w5)
    assert code == WITNESS
    payload = json.loads(out)
    assert payload["found"] is True and payload["name"] == "w5"
    c5 = write_graph(tmp_path, "c5.nbg", graph(5, singles=[(i, (i + 1) % 5) for i in range(5)]))
    code, out, _ = run(capsys, "forbidden", c5)
    assert code == OK and json.loads(out) == {"found": False}


def test_catalog_resolution(tmp_path, capsys, monkeypatch):
    # a catalog without k4 stops the k4 report
    save_catalog(default_catalog().restrict(("w5",)), tmp_path / "cat")
    k4 = write_graph(tmp_path, "k4.nbg", base_graph("k4"))
    code, out, _ = run(capsys, "forbidden", "--catalog", str(tmp_path / "cat"), k4)
    assert code == OK and json.loads(out) == {"found": False}
    monkeypatch.setenv("NBCOLOR_CATALOG", str(tmp_path / "cat"))
    code, out, _ = run(capsys, "forbidden", k4)
    assert code == OK and json.loads(out) == {"found": False}


def test_batch(tmp_path, capsys):
    d = tmp_path / "graphs"
    d.mkdir()
    from nbcolor.families import base_names

    for name in base_names():
        save_nbg(base_graph(name), d / f"{name}.nbg")
    code, out, _ = run(capsys, "batch", "--mode", "brute", str(d))
    assert code == OK
    reports = json.loads(out)
    assert [r["input"] for r in reports] == sorted(f"{n}.nbg" for n in base_names())
    for r in reports:
        assert r["kind"] == "not-near-bipartite"
        assert r["digest"].startswith("sha256:")
        assert r["command"] == "color --mode brute"
        assert isinstance(r["wall_time"], float)


def test_batch_parallel_matches_serial(tmp_path, capsys):
    d = tmp_path / "graphs"
    d.mkdir()
    save_nbg(base_graph("k4"), d / "a.nbg")
    save_nbg(graph(3, singles=[(0, 1), (1, 2)]), d / "b.nbg")
    save_nbg(gen_gk(1), d / "c.nbg")
    (d / "broken.nbg").write_text("n 2\ne 0 5\n")
    results = []
    for jobs in ("1", "3"):
        code, out, _ = run(capsys, "batch", "--jobs", jobs, str(d))
        assert code == OK
        reports = json.loads(out)
        for r in reports:
            r.pop("wall_time")
        results.append(reports)
    assert results[0] == results[1]
    by_name = {r["input"]: r for r in results[0]}
    assert by_name["broken.nbg"]["kind"] == "error"
    assert by_name["a.nbg"]["kind"] == "cert-forbidden"
    assert by_name["b.nbg"]["kind"] == "colored"
    assert by_name["c.nbg"]["kind"] == "cert-low-potential"


def test_batch_caps_the_worker_count(tmp_path, capsys, monkeypatch):
    # a stub executor stands in for the process pool: it records its worker
    # count and solves in this process, so no process is started
    built = []

    class Recording:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    d = tmp_path / "graphs"
    d.mkdir()
    for k in range(4):
        save_nbg(graph(k + 2, singles=[(v, v + 1) for v in range(k + 1)]), d / f"p{k}.nbg")
    results = []
    for jobs in ("64", "1"):
        code, out, _ = run(capsys, "batch", "--mode", "brute", "--jobs", jobs, str(d))
        assert code == OK
        reports = json.loads(out)
        for r in reports:
            r.pop("wall_time")
        results.append(reports)
    assert built == [4]
    assert results[0] == results[1] and len(results[0]) == 4
    one = tmp_path / "one"
    one.mkdir()
    save_nbg(graph(2, singles=[(0, 1)]), one / "p.nbg")
    code, out, _ = run(capsys, "batch", "--mode", "brute", "--jobs", "64", str(one))
    assert code == OK and len(json.loads(out)) == 1
    assert built == [4]


def test_cli_import_loads_no_process_machinery():
    # the process pool behind batch --jobs is imported only when a batch
    # runs in parallel, so every other command starts without it
    import nbcolor

    src = str(Path(nbcolor.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, nbcolor.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_usage_errors_exit_one(tmp_path, capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == USAGE
    code, _, err = run(capsys, "color", str(tmp_path / "missing.nbg"))
    assert code == USAGE and err
    code, _, err = run(capsys, "color", "--mode", "sideways", "x")
    assert code == USAGE
    path = write_graph(tmp_path, "k4.nbg", base_graph("k4"))
    code, _, err = run(capsys, "potential", "--kind", "m", "--set", "0,9", path)
    assert code == USAGE and "out of range" in err


def test_exhausted_stack_is_an_error_not_a_traceback(tmp_path, capsys, monkeypatch):
    from nbcolor import cli

    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "color_multigraph", overflow)
    path = write_graph(tmp_path, "p3.nbg", graph(3, singles=[(0, 1), (1, 2)]))
    code, out, err = run(capsys, "color", "--mode", "multi", path)
    assert code == USAGE and out == ""
    assert "recursion depth" in err and "Traceback" not in err
    code, out, _ = run(capsys, "batch", "--mode", "multi", str(tmp_path))
    assert code == OK
    (report,) = json.loads(out)
    assert report["kind"] == "error" and "recursion depth" in report["outcome"]["message"]


def test_batch_reports_an_unreadable_entry(tmp_path, capsys):
    d = tmp_path / "graphs"
    d.mkdir()
    save_nbg(graph(3, singles=[(0, 1), (1, 2)]), d / "b.nbg")
    code, out, _ = run(capsys, "batch", str(d))
    assert code == OK
    (alone,) = json.loads(out)
    (d / "x.nbg").mkdir()
    code, out, _ = run(capsys, "batch", str(d))
    assert code == OK
    by_name = {r["input"]: r for r in json.loads(out)}
    assert sorted(by_name) == ["b.nbg", "x.nbg"]
    for r in (alone, by_name["b.nbg"]):
        r.pop("wall_time")
    assert by_name["b.nbg"] == alone
    bad = by_name["x.nbg"]
    assert bad["kind"] == "error" and bad["outcome"]["status"] == "error"
    assert bad["digest"] is None


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_batch_rejects_jobs_below_one(tmp_path, capsys, jobs):
    code, out, err = run(capsys, "batch", "--jobs", jobs, str(tmp_path))
    assert code == USAGE and out == ""
    assert "--jobs" in err
