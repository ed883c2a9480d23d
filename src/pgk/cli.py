"""Command-line front end.

Exit codes: 0 ok, 1 semantic negative (non-isomorphic / inconsistent),
2 parse error, 3 I/O error, 4 pipeline diagnostic, 5 size cap exceeded.
All output is deterministic; configuration is flags only.
"""

from __future__ import annotations

import argparse
import sys

from . import graph_core  # relabel is called through it: the traced bench wraps it
from .ccg_detection import mark_ccg_enhanced, mark_ccg_power
from .errors import (
    CayleyTableError,
    GraphFormatError,
    GroupSpecError,
    PipelineError,
    SizeCapError,
)
from .graph_core import (
    ColoredDiGraph,
    ColoredGraph,
    brute_force_color_iso,
    format_graph,
    load_graph,
)
from .group_core import parse_group_spec
from .nilpotent_iso import graph_iso_nilpotent
from .powergraph_build import (
    directed_power_graph,
    enhanced_power_graph,
    power_graph,
)
from .reconstruction import (
    cdpow_from_r1,
    check_dpow,
    epow_from_dpow,
    format_r4,
    pow_from_dpow,
    r1_from_r2,
    r2_from_r3,
    r3_from_r4,
    r4_from_marked_graph,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_PIPELINE = 4
EXIT_CAP = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgk",
        description="Power graphs of finite groups: generation, CCG "
        "detection, directed-power-graph reconstruction, and nilpotent "
        "isomorphism testing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a graph from a group spec")
    p.add_argument("spec", help="group spec, e.g. Z6, Q8xZ3, file:PATH")
    p.add_argument("--kind", required=True, choices=["pow", "epow", "dpow", "cdpow"])
    p.add_argument("--out", required=True)

    p = sub.add_parser("detect", help="mark a CCG-set in a graph file")
    p.add_argument("input")
    p.add_argument("--kind", required=True, choices=["pow", "epow"])

    p = sub.add_parser("reconstruct", help="rebuild the directed power graph")
    p.add_argument("input")
    p.add_argument("--kind", required=True, choices=["pow", "epow"])
    p.add_argument("--out", required=True)
    p.add_argument(
        "--emit-stage",
        choices=["r4", "r3", "r2", "r1", "cdpow", "dpow"],
        default="dpow",
    )

    p = sub.add_parser("iso", help="nilpotent isomorphism test on two files")
    p.add_argument("input1")
    p.add_argument("input2")
    p.add_argument("--kind", required=True, choices=["pow", "epow", "dpow"])

    p = sub.add_parser("verify", help="round-trip consistency check")
    p.add_argument("input")
    p.add_argument("--kind", required=True, choices=["pow", "epow"])
    p.add_argument("--cap", type=int, default=graph_core.ISO_CAP_DEFAULT)
    return parser


def _generate(args) -> int:
    G = parse_group_spec(args.spec)
    # deterministic labels: sort elements by (order, index)
    by_order = sorted(range(G.order), key=G.element_orders.__getitem__)
    perm = sorted(range(G.order), key=by_order.__getitem__)  # its inverse
    build = {"pow": power_graph, "epow": enhanced_power_graph}.get(
        args.kind, directed_power_graph
    )
    graph = graph_core.relabel(build(G), perm)
    with open(args.out, "w", encoding="utf-8") as fh:
        format_graph(graph, with_colors=args.kind == "cdpow", out=fh)
    return EXIT_OK


def _read(kind, *paths) -> list:
    """Each file's graph, all parsed before any of the wrong shape is
    refused: kind dpow reads digraphs, the others undirected graphs, read
    with every color 1."""
    graphs = [load_graph(path) for path in paths]
    shape = "a directed" if kind == "dpow" else "an undirected"
    for path, graph in zip(paths, graphs):
        if isinstance(graph, ColoredDiGraph) != (kind == "dpow"):
            raise GraphFormatError(f"{path}: kind {kind} expects {shape} graph file")
    if kind == "dpow":
        return graphs
    return [ColoredGraph._from_masks(g.n, (1,) * g.n, g.masks) for g in graphs]


def _stages(graph, kind) -> dict:
    """Every stage's output on graph by name, from the CCG marking to the
    checked CDPow ("dpow" too: it is the CDPow written without colors).
    Each runs, so no stage is printed or written unless reconstruction
    accepts graph.  The stages are looked up in this module when they run."""
    mark = mark_ccg_power if kind == "pow" else mark_ccg_enhanced
    out = {"marking": mark(graph)}
    out["r4"] = r4_from_marked_graph(graph, out["marking"])
    out["r3"] = r3_from_r4(out["r4"])
    out["r2"] = r2_from_r3(out["r3"])
    out["r1"] = r1_from_r2(out["r2"])
    out["cdpow"] = out["dpow"] = check_dpow(graph, cdpow_from_r1(out["r1"]), kind)
    return out


def _detect(args) -> int:
    [graph] = _read(args.kind, args.input)
    for v in _stages(graph, args.kind)["marking"].cc_vertices:
        print(f"{v} {graph.degree(v) + 1}")
    return EXIT_OK


def _reconstruct(args) -> int:
    [graph] = _read(args.kind, args.input)
    stage = _stages(graph, args.kind)[args.emit_stage]
    with open(args.out, "w", encoding="utf-8") as fh:
        if args.emit_stage == "r4":  # R4 is a record, written without a graph
            fh.write(format_r4(stage))
        else:
            format_graph(stage, with_colors=args.emit_stage != "dpow", out=fh)
    return EXIT_OK


def _iso(args) -> int:
    g1, g2 = _read(args.kind, args.input1, args.input2)
    if graph_iso_nilpotent(g1, g2, args.kind):
        print("isomorphic")
        return EXIT_OK
    print("non-isomorphic")
    return EXIT_NEGATIVE


def _verify(args) -> int:
    [graph] = _read(args.kind, args.input)
    dpow = _stages(graph, args.kind)["dpow"]
    back = (pow_from_dpow if args.kind == "pow" else epow_from_dpow)(dpow)
    mapping = brute_force_color_iso(graph, back, cap=args.cap)
    if mapping is None:
        print("inconsistent: reconstruction does not match the input")
        return EXIT_NEGATIVE
    print(f"consistent: round-trip isomorphism found on {graph.n} vertices")
    return EXIT_OK


_HANDLERS = {
    "generate": _generate,
    "detect": _detect,
    "reconstruct": _reconstruct,
    "iso": _iso,
    "verify": _verify,
}

# the exit code of each error a command may raise, first match wins
_EXIT_CODES = {
    GroupSpecError: EXIT_PARSE,
    CayleyTableError: EXIT_PARSE,
    GraphFormatError: EXIT_PARSE,
    SizeCapError: EXIT_CAP,
    PipelineError: EXIT_PIPELINE,
    OSError: EXIT_IO,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
