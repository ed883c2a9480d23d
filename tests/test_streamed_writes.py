"""Graph files are written as they are formed: format_graph given a file
writes the header, then one vertex's row at a time, and the writes join
to the text it returns without one; the CLI writes each file that way."""

import io

import pytest
from hypothesis import example, given, settings, strategies as st

from pgk import cli
from pgk.graph_core import ColoredDiGraph, ColoredGraph, format_graph, load_graph, relabel
from pgk.group_core import elementary_abelian_group, parse_group_spec
from pgk.powergraph_build import (
    directed_power_graph,
    enhanced_power_graph,
    power_graph,
)
from pgk.reconstruction import cdpow_from_r1
from pgk.reductions import reduce_r1

from helpers import (
    make_rng,
    random_relabel,
    reference_format_graph,
    save_graph,
    small_graphs,
)


class Recorder(io.StringIO):
    """A text file that keeps each string written into it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return super().write(s)


def streamed(X, with_colors=True) -> list[str]:
    out = Recorder()
    assert format_graph(X, with_colors=with_colors, out=out) is None
    return out.writes


def assert_one_row_per_write(X, writes) -> None:
    """The first write is the header and colors line; each later one is
    every line of one vertex's row, in vertex order."""
    assert writes[0].count("\n") == 2
    assert writes[0].startswith("digraph " if isinstance(X, ColoredDiGraph) else "graph ")
    heads = []
    for chunk in writes[1:]:
        lines = chunk.splitlines()
        assert chunk.endswith("\n") and lines
        heads.append(int(lines[0].split()[0]))
        assert all(ln.split()[0] == lines[0].split()[0] for ln in lines)
    assert heads == sorted(set(heads))


def graphs_of(G):
    dpow = directed_power_graph(G)
    return [power_graph(G), enhanced_power_graph(G), dpow, cdpow_from_r1(reduce_r1(dpow).graph)]


def test_streamed_writes_join_to_the_returned_text(catalog):
    rng = make_rng(26)
    for name, G in catalog:
        for X in graphs_of(G):
            for Y in (X, random_relabel(X, rng)):
                for with_colors in (True, False):
                    writes = streamed(Y, with_colors)
                    assert "".join(writes) == format_graph(Y, with_colors), name
                    assert_one_row_per_write(Y, writes)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("with_colors", [True, False])
def test_streamed_writes_on_zero_and_one_vertex(n, with_colors):
    for X in (
        ColoredGraph(n, (1,) * n, frozenset()),
        ColoredDiGraph(n, (1,) * n, frozenset()),
        ColoredDiGraph(n, (1,) * n, frozenset((v, v) for v in range(n))),
    ):
        writes = streamed(X, with_colors)
        assert "".join(writes) == format_graph(X, with_colors)
        assert_one_row_per_write(X, writes)


@st.composite
def twin_blowups(draw):
    """A small graph with each vertex blown up into a clique of 1-4 closed
    twins of its color, then randomly relabelled."""
    X = draw(small_graphs(max_n=6, max_color=2))
    sizes = draw(st.lists(st.integers(1, 4), min_size=X.n, max_size=X.n))
    blown = [v for v, size in enumerate(sizes) for _ in range(size)]
    edges = frozenset(
        (a, b)
        for b, v in enumerate(blown)
        for a, u in enumerate(blown[:b])
        if u == v or X.has_edge(u, v)
    )
    Y = ColoredGraph(len(blown), tuple(X.colors[v] for v in blown), edges)
    return relabel(Y, draw(st.permutations(range(Y.n))))


def star(n):
    return ColoredGraph(n, (1,) * n, frozenset((0, v) for v in range(1, n)))


def perfect_matching(k):
    return ColoredGraph(2 * k, (1,) * 2 * k, frozenset((2 * v, 2 * v + 1) for v in range(k)))


@st.composite
def sparse_graphs(draw):
    """A star, a perfect matching or Pow(ElemAb(2, k)), randomly
    relabelled: from three vertices on, a star's and a Pow's closed
    neighborhoods are all distinct, and a matching's come in pairs."""
    X = draw(
        st.integers(0, 40).map(star)
        | st.integers(0, 20).map(perfect_matching)
        | st.integers(1, 7).map(lambda k: power_graph(elementary_abelian_group(2, k)))
    )
    return relabel(X, draw(st.permutations(range(X.n))))


@settings(max_examples=300, deadline=None)
@given(twin_blowups() | sparse_graphs())
@example(star(0))
@example(star(1))
def test_twin_heavy_and_sparse_graphs_written_as_by_reference(X):
    for with_colors in (True, False):
        expected = reference_format_graph(X, with_colors)
        writes = streamed(X, with_colors)
        assert format_graph(X, with_colors) == expected
        assert "".join(writes) == expected
        assert_one_row_per_write(X, writes)


@pytest.fixture
def recorded(monkeypatch):
    """The writes of every file the CLI opens from now on, by path; each
    file is written to disk as well."""
    files = {}

    class Tee(Recorder):
        def __init__(self, path):
            super().__init__()
            self.path = path

        def close(self):
            if not self.closed:
                with open(self.path, "w", encoding="utf-8") as fh:
                    fh.write(self.getvalue())
                files[str(self.path)] = self.writes
            super().close()

    def fake_open(path, mode="r", encoding=None):
        assert (mode, encoding) == ("w", "utf-8")
        return Tee(path)

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    return files


@pytest.mark.parametrize("kind", ["pow", "epow", "dpow", "cdpow"])
def test_generate_writes_one_row_at_a_time(tmp_path, recorded, kind):
    out = tmp_path / "out.graph"
    for spec in ("Q8xZ3", "D6", "Z12", "ElemAb(2,4)"):
        assert cli.main(["generate", spec, "--kind", kind, "--out", str(out)]) == 0
        X, writes = load_graph(out), recorded[str(out)]
        assert writes == streamed(X, with_colors=kind == "cdpow"), spec
        assert_one_row_per_write(X, writes)


@pytest.mark.parametrize("stage", ["r4", "r3", "r2", "r1", "cdpow", "dpow"])
@pytest.mark.parametrize("kind", ["pow", "epow"])
def test_reconstruct_writes_one_row_at_a_time(tmp_path, recorded, kind, stage):
    src, out = tmp_path / "in.graph", tmp_path / "out.graph"
    build = power_graph if kind == "pow" else enhanced_power_graph
    for spec in ("Q8xZ3", "D6", "Z12"):
        X = random_relabel(build(parse_group_spec(spec)), make_rng(7))
        save_graph(X, src, with_colors=False)
        argv = ["reconstruct", str(src), "--kind", kind, "--out", str(out)]
        assert cli.main(argv + ["--emit-stage", stage]) == 0
        writes = recorded[str(out)]
        if stage == "r4":  # R4's text is formed whole, then written once
            assert writes == [out.read_text()], spec
        else:
            written = load_graph(out)
            assert writes == streamed(written, with_colors=stage != "dpow"), spec
            assert_one_row_per_write(written, writes)
