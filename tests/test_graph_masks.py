"""Golden tests: graph I/O, the three builders, relabeling and CDPow
expansion, which read and write the stored bitmasks, agree exactly with
the edge-tuple references in helpers; and no CLI path builds the edge or
arc views."""

import pytest
from hypothesis import given, settings, strategies as st

from pgk import graph_core
from pgk.cli import main
from pgk.errors import GraphFormatError
from pgk.graph_core import (
    ColoredDiGraph,
    ColoredGraph,
    bits,
    format_graph,
    parse_graph,
    relabel,
)
from pgk.group_core import cyclic_group
from pgk.powergraph_build import (
    directed_power_graph,
    enhanced_power_graph,
    power_graph,
)
from pgk.reconstruction import cdpow_from_r1
from pgk.reductions import reduce_r1

from helpers import (
    make_rng,
    reference_bits,
    reference_cdpow_from_r1,
    reference_directed_power_graph,
    reference_enhanced_power_graph,
    reference_format_graph,
    reference_parse_graph,
    reference_power_graph,
    reference_relabel,
    small_digraphs,
    small_graphs,
)


def assert_matches_references(X, perm) -> None:
    directed = isinstance(X, ColoredDiGraph)
    for with_colors in (True, False):
        text = format_graph(X, with_colors=with_colors)
        assert text == reference_format_graph(X, with_colors=with_colors)
        assert parse_graph(text) == reference_parse_graph(text)
    for m in X.out_masks if directed else X.masks:
        assert bits(m) == reference_bits(m)
    assert type(X)(X.n, X.colors, X.arcs if directed else X.edges) == X
    assert relabel(X, perm) == reference_relabel(X, perm)


def test_catalog_matches_references(catalog):
    rng = make_rng(11)
    for name, G in catalog:
        built = (power_graph(G), enhanced_power_graph(G), directed_power_graph(G))
        references = (
            reference_power_graph(G),
            reference_enhanced_power_graph(G),
            reference_directed_power_graph(G),
        )
        assert built == references, name
        for X in built:
            perm = list(range(X.n))
            rng.shuffle(perm)
            assert_matches_references(X, perm)
        r1 = reduce_r1(built[2]).graph
        assert cdpow_from_r1(r1) == reference_cdpow_from_r1(r1), name


@settings(max_examples=300, deadline=None)
@given(small_graphs(12, max_color=3), st.randoms(use_true_random=False))
def test_arbitrary_graphs_match_references(X, rng):
    perm = list(range(X.n))
    rng.shuffle(perm)
    assert_matches_references(X, perm)


@settings(max_examples=300, deadline=None)
@given(small_digraphs(12), st.randoms(use_true_random=False))
def test_arbitrary_digraphs_match_references(D, rng):
    perm = list(range(D.n))
    rng.shuffle(perm)
    assert_matches_references(D, perm)
    assert cdpow_from_r1(D) == reference_cdpow_from_r1(D)


@pytest.mark.parametrize("n", [0, 1])
def test_tiny_graphs_match_references(n):
    for X in (
        ColoredGraph(n, (1,) * n, frozenset()),
        ColoredDiGraph(n, (2,) * n, frozenset((v, v) for v in range(n))),
    ):
        assert_matches_references(X, list(range(n)))


HEADERS = ["graph 3", "digraph 3", "graph 12", "graph", "graph -1", "graph x",
           "graph 3 3", "tree 3", "  digraph\t3  "]
COLOR_LINES = ["nocolors", "colors 1 2 3", "colors 1 2", "colors 0 1 1",
               "colors a b c", "nocolors 1", "colours 1 1 1", "colors 1 1 1 1"]
EDGE_LINES = ["0 1", "1 0", "1 2", "2 1", "0 2", "0 0", "2 2", "  0\t1 ", "0 1",
              "+1 2", "01 2", "1_0 11", "0 3", "3 0", "-1 0", "0 -1", "0", "0 1 2",
              "a b", "0 x", "1.0 2", "0 11", "١ 2", ""]
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " ", "\n\n"]


@st.composite
def graph_texts(draw):
    """Texts built from well-formed and malformed header, colors and edge
    lines, joined by any of str.splitlines' line boundaries."""
    lines = [draw(st.sampled_from(HEADERS)), draw(st.sampled_from(COLOR_LINES))]
    lines += draw(st.lists(st.sampled_from(EDGE_LINES), max_size=8))
    k = len(lines)
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=k, max_size=k))
    return "".join(ln + sep for ln, sep in zip(lines, seps))


def parse_outcome(parse, text):
    try:
        return parse(text)
    except GraphFormatError:
        return GraphFormatError


@settings(max_examples=1000, deadline=None)
@given(graph_texts(), st.sampled_from([1, 3, 1 << 16]))
def test_malformed_texts_accepted_and_rejected_as_by_reference(text, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_core, "_CHUNK", chunk)
        assert parse_outcome(parse_graph, text) == parse_outcome(
            reference_parse_graph, text
        )


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_long_text_read_in_chunks(newline):
    X = power_graph(cyclic_group(240))
    text = format_graph(X).replace("\n", newline)
    assert len(text) > 2 * graph_core._CHUNK
    assert parse_graph(text) == X
    broken = text + "0 1 2" + newline
    with pytest.raises(GraphFormatError, match="bad edge line"):
        parse_graph(broken)


def test_cli_builds_no_edge_or_arc_view(tmp_path, monkeypatch, s3_file):
    def refuse(self):
        raise AssertionError("an edge or arc tuple view was built")

    monkeypatch.setattr(ColoredGraph, "edges", property(refuse), raising=False)
    monkeypatch.setattr(ColoredDiGraph, "arcs", property(refuse), raising=False)
    nilpotent = ["Z12", "Q8xZ3", "D4"]
    for spec in nilpotent + [f"file:{s3_file}"]:
        name = spec.rsplit("/", 1)[-1]
        kinds = ("pow", "epow", "dpow", "cdpow")
        path = {k: str(tmp_path / f"{name}.{k}") for k in kinds}
        for kind, out in path.items():
            assert main(["generate", spec, "--kind", kind, "--out", out]) == 0
        for kind in ("pow", "epow"):
            for stage in ("r4", "r3", "r2", "r1", "cdpow", "dpow"):
                out = str(tmp_path / f"{name}.{kind}.{stage}")
                argv = ["reconstruct", path[kind], "--kind", kind, "--out", out]
                assert main(argv + ["--emit-stage", stage]) == 0
            assert main(["verify", path[kind], "--kind", kind]) == 0
        if spec in nilpotent:
            assert main(["iso", path["dpow"], path["cdpow"], "--kind", "dpow"]) == 0
