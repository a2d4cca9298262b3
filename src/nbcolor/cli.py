"""Command line surface for the package.

Subcommands map one-to-one onto library entry points: `potential` and
`minpot` onto the potential module and the flow solver, `check` onto the
brute-force oracles, `color` onto the two recursive algorithms, `gen` onto
the graph generators, `linked` and `forbidden` onto the catalog machinery,
and `batch` onto a directory sweep that emits one report per file.

Conventions shared by every subcommand: results go to standard output as
JSON (except `potential`, which prints a bare integer, and `gen`, which
writes graph text), diagnostics go to standard error, and the exit code is
0 for a coloring or a passing check, 2 for any certificate or witness, and
1 for usage, input, or solver-gave-up errors.  Output bytes are a pure
function of the input file and flags except for the wall-time field of
batch reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from functools import partial

from .families import base_graph, base_names, gen_gk, gen_hk
from .forbidden import (
    Catalog,
    CatalogError,
    are_linked,
    default_catalog,
    find_forbidden_subgraph,
    load_catalog,
)
from .graph_core import Graph, GraphError, load_nbg, parse_nbg, save_nbg, write_nbg
from .min_potential import min_potential_constrained
from .oracle import (
    DEFAULT_THRESHOLD,
    OracleSizeError,
    brute_nb_color,
    check_sparse,
    is_4_critical,
    is_nb_critical,
)
from .potential import KindError, hypergraph_for_rho_m, hypergraph_for_rho_s, rho_m, rho_s
from .solver import (
    CertForbidden,
    CertLowPotential,
    Colored,
    Diagnostic,
    color_multigraph,
    color_simple,
)

OK = 0
USAGE = 1
WITNESS = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which this tool reserves
    # for witness outcomes; remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def _emit(obj) -> None:
    print(json.dumps(obj))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from exc


def _fail(message: str) -> int:
    print(f"nbcolor: {message}", file=sys.stderr)
    return USAGE


def _resolve_catalog(path: str | None) -> Catalog:
    if path is None:
        path = os.environ.get("NBCOLOR_CATALOG")
    if path is None:
        return default_catalog()
    return load_catalog(path)


def _parse_subset(spec: str, n: int) -> frozenset[int]:
    if spec == "all":
        return frozenset(range(n))
    try:
        ids = [int(part) for part in spec.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"bad vertex list {spec!r}") from None
    for v in ids:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for {n} vertices")
    return frozenset(ids)


def _mapping_pairs(mapping: dict[int, int]) -> list[list[int]]:
    return [[p, h] for p, h in sorted(mapping.items())]


def _pick_mode(G: Graph, mode: str) -> str:
    if mode != "auto":
        return mode
    return "multi" if G.has_multi else "simple"


def _color_payload(G: Graph, mode: str, catalog: Catalog, threshold: int, want_trace: bool):
    """Run one coloring job.  Returns (payload, exit_code)."""
    mode = _pick_mode(G, mode)
    if mode in ("multi", "simple") and G.has_multi and G.has_gadget:
        raise GraphError("graphs mixing parallel pairs and gadget edges are not supported")
    if mode == "brute":
        c = brute_nb_color(G, threshold=threshold)
        if c is None:
            return {"status": "not-near-bipartite"}, WITNESS
        return {"status": "colored", "I": sorted(c.i_set), "F": sorted(c.f_set)}, OK
    trace: list[str] | None = [] if want_trace else None
    if mode == "multi":
        out = color_multigraph(G, brute_threshold=threshold, trace=trace)
    else:
        out = color_simple(G, catalog, brute_threshold=threshold, trace=trace)
    if isinstance(out, Colored):
        payload = {
            "status": "colored",
            "I": sorted(out.coloring.i_set),
            "F": sorted(out.coloring.f_set),
        }
        code = OK
    elif isinstance(out, CertLowPotential):
        payload = {
            "status": "cert-low-potential",
            "subset": sorted(out.subset),
            "rho": out.rho,
            "threshold": out.threshold,
        }
        code = WITNESS
    elif isinstance(out, CertForbidden):
        payload = {
            "status": "cert-forbidden",
            "name": out.name,
            "mapping": _mapping_pairs(out.mapping),
        }
        code = WITNESS
    else:
        assert isinstance(out, Diagnostic)
        payload = {"status": "error", "step": out.step, "message": out.message}
        code = USAGE
    if trace is not None:
        payload["trace"] = trace
    return payload, code


# -- subcommand handlers --------------------------------------------------


def _cmd_potential(args) -> int:
    G = load_nbg(args.input)
    W = _parse_subset(args.subset, G.n)
    value = rho_m(G, W) if args.kind == "m" else rho_s(G, W)
    print(value)
    return OK


def _cmd_minpot(args) -> int:
    G = load_nbg(args.input)
    H = hypergraph_for_rho_m(G) if args.kind == "m" else hypergraph_for_rho_s(G)
    W, r = min_potential_constrained(H, args.min_size, args.max_co_size, args.extremal)
    _emit({"W": sorted(W), "rho": str(r)})
    return OK


def _cmd_check(args) -> int:
    G = load_nbg(args.input)
    if args.what == "sparse":
        ok, witness = check_sparse(G, args.a, args.b)
        if ok:
            _emit({"check": "sparse", "ok": True})
            return OK
        _emit({"check": "sparse", "ok": False, "witness": sorted(witness)})
        return WITNESS
    if args.what == "critical":
        ok = is_nb_critical(G)
    else:
        ok = is_4_critical(G)
    _emit({"check": args.what, "ok": ok})
    return OK if ok else WITNESS


def _cmd_color(args) -> int:
    G = load_nbg(args.input)
    catalog = _resolve_catalog(args.catalog)
    payload, code = _color_payload(G, args.mode, catalog, args.brute_threshold, args.trace)
    _emit(payload)
    if payload["status"] == "error":
        print(f"nbcolor: solver gave up at step {payload['step']}: {payload['message']}", file=sys.stderr)
    return code


def _cmd_gen(args) -> int:
    if args.family == "gk":
        G = gen_gk(args.k)
        comment = f"gk k={args.k}"
    elif args.family == "hk":
        G = gen_hk(args.k)
        comment = f"hk k={args.k}"
    else:
        G = base_graph(args.name)
        comment = f"base {args.name}"
    if args.output is not None:
        save_nbg(G, args.output, comment=comment)
    else:
        sys.stdout.write(write_nbg(G, comment=comment))
    return OK


def _cmd_linked(args) -> int:
    G = load_nbg(args.input)
    catalog = _resolve_catalog(args.catalog)
    w = are_linked(G, args.s, args.t, catalog)
    if w is None:
        _emit({"linked": False})
        return OK
    _emit(
        {
            "linked": True,
            "member": w.member,
            "removed_edge": sorted(w.removed_edge),
            "mapping": _mapping_pairs(w.mapping),
        }
    )
    return WITNESS


def _cmd_forbidden(args) -> int:
    G = load_nbg(args.input)
    catalog = _resolve_catalog(args.catalog)
    hit = find_forbidden_subgraph(G, catalog)
    if hit is None:
        _emit({"found": False})
        return OK
    _emit({"found": True, "name": hit[0], "mapping": _mapping_pairs(hit[1])})
    return WITNESS


def _batch_one(path: str, args, catalog: Catalog) -> dict:
    name = os.path.basename(path)
    report = {"command": f"color --mode {args.mode}", "input": name, "digest": None}
    start = time.monotonic()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        report["digest"] = "sha256:" + hashlib.sha256(data).hexdigest()
        G = parse_nbg(data.decode("utf-8"))
        payload, _code = _color_payload(G, args.mode, catalog, args.brute_threshold, args.trace)
    except (GraphError, KindError, OracleSizeError, ValueError, OSError, RecursionError) as exc:
        payload = {"status": "error", "message": str(exc)}
    report["kind"] = payload["status"]
    report["outcome"] = payload
    report["wall_time"] = round(time.monotonic() - start, 6)
    return report


def _cmd_batch(args) -> int:
    if not os.path.isdir(args.dir):
        return _fail(f"not a directory: {args.dir}")
    catalog = _resolve_catalog(args.catalog)
    files = sorted(
        os.path.join(args.dir, name)
        for name in os.listdir(args.dir)
        if name.endswith(".nbg")
    )
    solve = partial(_batch_one, args=args, catalog=catalog)
    workers = min(args.jobs, len(files))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(solve, files))
    else:
        reports = [solve(p) for p in files]
    _emit(reports)
    return OK


# -- argument grammar -----------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="nbcolor", description="near-bipartite colorings of sparse graphs")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("potential", help="evaluate a potential on a vertex subset")
    sp.add_argument("--kind", choices=("m", "s"), required=True)
    sp.add_argument("--set", dest="subset", required=True, help="comma-separated ids or 'all'")
    sp.add_argument("input")
    sp.set_defaults(func=_cmd_potential)

    mp = sub.add_parser("minpot", help="minimum-potential subset by max-flow")
    mp.add_argument("--kind", choices=("m", "s"), required=True)
    mp.add_argument("--min-size", type=int, default=0)
    mp.add_argument("--max-co-size", type=int, default=0)
    mp.add_argument("--extremal", choices=("largest", "smallest"), default=None)
    mp.add_argument("input")
    mp.set_defaults(func=_cmd_minpot)

    cp = sub.add_parser("check", help="brute-force checks on small graphs")
    csub = cp.add_subparsers(dest="what", required=True)
    cs = csub.add_parser("sparse", help="density check over all nonempty subsets")
    cs.add_argument("--a", type=_fraction, required=True, help="slope, 'p/q' or decimal")
    cs.add_argument("--b", type=_fraction, required=True, help="offset, 'p/q' or decimal")
    cs.add_argument("input")
    cs.set_defaults(func=_cmd_check)
    cc = csub.add_parser("critical", help="nb-criticality by enumeration")
    cc.add_argument("input")
    cc.set_defaults(func=_cmd_check)
    c4 = csub.add_parser("4critical", help="4-criticality by enumeration")
    c4.add_argument("input")
    c4.set_defaults(func=_cmd_check)

    col = sub.add_parser("color", help="find a coloring or a certificate")
    col.add_argument("--mode", choices=("auto", "multi", "simple", "brute"), default="auto")
    col.add_argument("--catalog", help="forbidden-structure catalog directory")
    col.add_argument("--brute-threshold", type=int, default=DEFAULT_THRESHOLD)
    col.add_argument("--trace", action="store_true", help="include the step log in the output")
    col.add_argument("input")
    col.set_defaults(func=_cmd_color)

    gp = sub.add_parser("gen", help="write a named graph as graph text")
    gsub = gp.add_subparsers(dest="family", required=True)
    gg = gsub.add_parser("gk", help="multigraph sharpness family")
    gg.add_argument("--k", type=int, required=True)
    gg.add_argument("-o", "--output")
    gg.set_defaults(func=_cmd_gen)
    gh = gsub.add_parser("hk", help="simple-graph sharpness family")
    gh.add_argument("--k", type=int, required=True)
    gh.add_argument("-o", "--output")
    gh.set_defaults(func=_cmd_gen)
    gb = gsub.add_parser("base", help="one of the named small graphs")
    gb.add_argument("--name", choices=base_names(), required=True)
    gb.add_argument("-o", "--output")
    gb.set_defaults(func=_cmd_gen)

    lp = sub.add_parser("linked", help="test whether an edge sits on a near-forbidden structure")
    lp.add_argument("--s", type=int, required=True)
    lp.add_argument("--t", type=int, required=True)
    lp.add_argument("--catalog")
    lp.add_argument("input")
    lp.set_defaults(func=_cmd_linked)

    fb = sub.add_parser("forbidden", help="search for a catalog member inside the input")
    fb.add_argument("--catalog")
    fb.add_argument("input")
    fb.set_defaults(func=_cmd_forbidden)

    bp = sub.add_parser("batch", help="color every .nbg file in a directory")
    bp.add_argument("--mode", choices=("auto", "multi", "simple", "brute"), default="auto")
    bp.add_argument("--jobs", type=_positive_int, default=1)
    bp.add_argument("--catalog")
    bp.add_argument("--brute-threshold", type=int, default=DEFAULT_THRESHOLD)
    bp.add_argument("--trace", action="store_true")
    bp.add_argument("dir")
    bp.set_defaults(func=_cmd_batch)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, KindError, CatalogError, OracleSizeError) as exc:
        return _fail(str(exc))
    except ValueError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))
    except RecursionError as exc:
        return _fail(f"input too deep for the solver: {exc}")


if __name__ == "__main__":
    sys.exit(main())
