import ast
import io
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pgk import cli, graph_core, group_core
from pgk.ccg_detection import mark_ccg_enhanced, mark_ccg_power
from pgk.cli import main
from pgk.graph_core import format_graph, load_graph
from pgk.group_core import (
    cyclic_group,
    dihedral_group,
    direct_product,
    parse_group_spec,
    quaternion_group,
)
from pgk.powergraph_build import (
    directed_power_graph,
    enhanced_power_graph,
    power_graph,
)
from pgk.reconstruction import (
    cdpow_from_r1,
    r1_from_r2,
    r2_from_r3,
    r3_from_r4,
    r4_from_marked_graph,
)

from helpers import (
    dicyclic_group,
    make_rng,
    r4_bipartite,
    s3_cayley_text,
    save_graph,
    small_digraphs,
    small_graphs,
)


def run(*argv):
    return main(list(argv))


@pytest.fixture
def s3_spec(tmp_path):
    path = tmp_path / "s3.cayley"
    path.write_text(s3_cayley_text(), encoding="utf-8")
    return f"file:{path}"


class TestGenerate:
    def test_z1_dpow(self, tmp_path):
        out = tmp_path / "z1.graph"
        assert run("generate", "Z1", "--kind", "dpow", "--out", str(out)) == 0
        assert out.read_text() == "digraph 1\nnocolors\n0 0\n"

    def test_z6_pow_has_13_edges(self, tmp_path):
        out = tmp_path / "z6.graph"
        assert run("generate", "Z6", "--kind", "pow", "--out", str(out)) == 0
        text = out.read_text()
        assert text.startswith("graph 6\nnocolors\n")
        assert len(load_graph(out).edges) == 13

    def test_q8_cdpow_colors_line(self, tmp_path):
        out = tmp_path / "q8.graph"
        assert run("generate", "Q8", "--kind", "cdpow", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "digraph 8"
        assert lines[1] == "colors 1 2 4 4 4 4 4 4"

    def test_epow_kind(self, tmp_path, s3_spec):
        out = tmp_path / "s3.graph"
        assert run("generate", s3_spec, "--kind", "epow", "--out", str(out)) == 0
        assert len(load_graph(out).edges) == 6

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.graph", tmp_path / "b.graph"
        run("generate", "Z2xZ6", "--kind", "cdpow", "--out", str(out1))
        run("generate", "Z2xZ6", "--kind", "cdpow", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_parse_error_exit_2(self, tmp_path):
        assert run("generate", "Zx", "--kind", "pow", "--out", str(tmp_path / "o")) == 2

    def test_spec_parameter_past_int_digit_limit_exit_2(self, tmp_path):
        spec = "Z" + "9" * 5000
        assert run("generate", spec, "--kind", "pow", "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("order", ["-1", "0", "x"])
    def test_order_line_below_one_exit_2(self, tmp_path, capsys, monkeypatch, order):
        path = tmp_path / "bad.txt"
        path.write_text(f"{order}\n")
        # refused before any factor is built
        monkeypatch.setattr(group_core, "dihedral_group", None)
        out = str(tmp_path / "o")
        for spec in (f"file:{path}", f"D1000xfile:{path}"):
            assert run("generate", spec, "--kind", "pow", "--out", out) == 2
            assert f"{path}: bad order line '{order}'" in capsys.readouterr().err

    def test_short_table_row_exit_2(self, tmp_path, capsys):
        path = tmp_path / "short.txt"
        path.write_text("3\n0 1 2\n1 2\n2 0 1\n")
        out = str(tmp_path / "o")
        assert run("generate", f"file:{path}", "--kind", "pow", "--out", out) == 2
        assert f"{path}: row has 2 entries, expected 3" in capsys.readouterr().err

    def test_io_error_exit_3(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "o.graph"
        assert run("generate", "Z4", "--kind", "pow", "--out", str(missing_dir)) == 3

    def test_output_reparses(self, tmp_path):
        out = tmp_path / "d.graph"
        run("generate", "Z12", "--kind", "cdpow", "--out", str(out))
        D = load_graph(out)
        assert Counter(D.colors) == Counter(
            directed_power_graph(cyclic_group(12)).colors
        )


class TestDetect:
    def test_klein_four_pow(self, tmp_path, capsys):
        G = direct_product(cyclic_group(2), cyclic_group(2))
        path = tmp_path / "v4.graph"
        save_graph(power_graph(G), path, with_colors=False)
        assert run("detect", str(path), "--kind", "pow") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(ln.split()[1] == "2" for ln in lines)

    def test_clique_case(self, tmp_path, capsys):
        path = tmp_path / "z8.graph"
        save_graph(power_graph(cyclic_group(8)), path, with_colors=False)
        assert run("detect", str(path), "--kind", "pow") == 0
        assert capsys.readouterr().out.strip() == "0 8"

    def test_epow_s3(self, tmp_path, capsys, s3):
        path = tmp_path / "s3e.graph"
        save_graph(enhanced_power_graph(s3), path, with_colors=False)
        assert run("detect", str(path), "--kind", "epow") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sorted(ln.split()[1] for ln in lines) == ["2", "2", "2", "3"]

    def test_malformed_file_exit_2(self, tmp_path):
        path = tmp_path / "junk.graph"
        path.write_text("not a graph\n")
        assert run("detect", str(path), "--kind", "pow") == 2

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "trigraph 3\nnocolors\n",
            "graph x\nnocolors\n",
            "graph 2\ncolors 1\n",
            "graph 2\ncolors 1 0\n",
            "graph 2\nnocolors\n0 5",
            "graph 2\nnocolors\n0 0",
            "graph 2\nnocolors\n0 1 2",
            "digraph 2\ncolors 1 a\n",
            "digraph 2\nnocolors\n2 0",
            "graph 20000\nnocolors\n",
            f"digraph {10**12}\nnocolors\n",
        ],
    )
    def test_malformed_graph_text_exit_2(self, tmp_path, text):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        assert run("detect", str(path), "--kind", "pow") == 2

    def test_directed_input_exit_2(self, tmp_path):
        path = tmp_path / "d.graph"
        save_graph(directed_power_graph(cyclic_group(4)), path)
        assert run("detect", str(path), "--kind", "pow") == 2

    def test_no_universal_vertex_exit_4(self, tmp_path):
        path = tmp_path / "c5.graph"
        path.write_text("graph 5\nnocolors\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        assert run("detect", str(path), "--kind", "pow") == 4

    def test_missing_file_exit_3(self, tmp_path):
        assert run("detect", str(tmp_path / "none.graph"), "--kind", "pow") == 3


class TestReconstruct:
    def test_pow_z6_default_stage(self, tmp_path):
        src, out = tmp_path / "z6.graph", tmp_path / "z6.dpow"
        save_graph(power_graph(cyclic_group(6)), src, with_colors=False)
        assert run("reconstruct", str(src), "--kind", "pow", "--out", str(out)) == 0
        D = load_graph(out)
        assert D.n == 6
        assert set(D.colors) == {1}  # dpow stage drops colors
        assert len(D.undirected_shadow().edges) == 13

    def test_emit_r3_path_for_z8(self, tmp_path):
        src, out = tmp_path / "z8.graph", tmp_path / "z8.r3"
        save_graph(power_graph(cyclic_group(8)), src, with_colors=False)
        assert run(
            "reconstruct", str(src), "--kind", "pow",
            "--out", str(out), "--emit-stage", "r3",
        ) == 0
        X = load_graph(out)
        assert X.n == 4
        assert sorted(X.colors) == [1, 2, 4, 8]
        assert sorted(X.degree(v) for v in range(4)) == [1, 1, 2, 2]

    def test_emit_r4_klein_four_epow(self, tmp_path):
        G = direct_product(cyclic_group(2), cyclic_group(2))
        src, out = tmp_path / "v4.graph", tmp_path / "v4.r4"
        save_graph(enhanced_power_graph(G), src, with_colors=False)
        assert run(
            "reconstruct", str(src), "--kind", "epow",
            "--out", str(out), "--emit-stage", "r4",
        ) == 0
        X = load_graph(out)
        assert X.n == 6
        assert sorted(X.colors) == [1, 1, 1, 2, 2, 2]
        assert len(X.edges) == 6

    def test_emit_cdpow_keeps_colors(self, tmp_path):
        src, out = tmp_path / "z12.graph", tmp_path / "z12.cdpow"
        save_graph(power_graph(cyclic_group(12)), src, with_colors=False)
        assert run(
            "reconstruct", str(src), "--kind", "pow",
            "--out", str(out), "--emit-stage", "cdpow",
        ) == 0
        D = load_graph(out)
        assert Counter(D.colors) == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}

    @pytest.mark.parametrize("kind", ["pow", "epow"])
    @pytest.mark.parametrize("stage", ["r4", "r3", "r2", "r1", "cdpow", "dpow"])
    def test_every_stage_matches_library(self, tmp_path, kind, stage):
        # Dic4 stores every R4 pair, ElemAb(2,4) none
        groups = {
            "Z2xZ6": direct_product(cyclic_group(2), cyclic_group(6)),
            "Dic4": dicyclic_group(4),
            "ElemAb(2,4)": parse_group_spec("ElemAb(2,4)"),
        }
        build = power_graph if kind == "pow" else enhanced_power_graph
        src, out = tmp_path / "in.graph", tmp_path / "out.graph"
        for name, G in groups.items():
            save_graph(build(G), src, with_colors=False)
            assert run(
                "reconstruct", str(src), "--kind", kind,
                "--out", str(out), "--emit-stage", stage,
            ) == 0, name
            graph = load_graph(src)
            marker = mark_ccg_power if kind == "pow" else mark_ccg_enhanced
            r4 = r4_from_marked_graph(graph, marker(graph))
            r3 = r3_from_r4(r4)
            r2 = r2_from_r3(r3)
            r1 = r1_from_r2(r2)
            cdpow = cdpow_from_r1(r1)
            expected = {
                "r4": r4_bipartite(r4), "r3": r3, "r2": r2, "r1": r1,
                "cdpow": cdpow, "dpow": cdpow,
            }[stage]
            assert out.read_text() == format_graph(
                expected, with_colors=stage != "dpow"
            ), name

    def test_pipeline_error_exit_4(self, tmp_path):
        src = tmp_path / "c5.graph"
        src.write_text("graph 5\nnocolors\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        out = tmp_path / "o.graph"
        assert run("reconstruct", str(src), "--kind", "pow", "--out", str(out)) == 4


    def test_malformed_intersection_exit_4(self, tmp_path):
        # detection passes, but an R4 intersection color fails to divide
        # both CCG colors; gluing must report it, not crash
        src = tmp_path / "g7.graph"
        src.write_text(
            "graph 7\nnocolors\n"
            + "".join(f"0 {v}\n" for v in range(1, 7))
            + "1 3\n1 4\n1 5\n1 6\n2 4\n2 5\n2 6\n3 6\n4 5\n4 6\n5 6\n"
        )
        out = tmp_path / "o.graph"
        assert run("reconstruct", str(src), "--kind", "pow", "--out", str(out)) == 4


    @pytest.mark.parametrize("command", ["reconstruct", "verify"])
    def test_wrong_vertex_count_exit_4(self, tmp_path, command):
        # the pipeline runs through, but rebuilds only 5 vertices
        src = tmp_path / "g6.graph"
        src.write_text(
            "graph 6\nnocolors\n"
            + "".join(f"0 {v}\n" for v in range(1, 6))
            + "1 3\n1 5\n2 4\n3 4\n"
        )
        extra = ["--out", str(tmp_path / "o.graph")] if command == "reconstruct" else []
        assert run(command, str(src), "--kind", "pow", *extra) == 4

    @pytest.mark.parametrize("command", ["reconstruct", "detect", "verify"])
    def test_wheel_w6_epow_exit_4(self, tmp_path, command):
        # N[1] = {0, 1, 2, 4} is no clique, so it is no cyclic subgroup
        src = tmp_path / "w6.graph"
        src.write_text(
            "graph 7\nnocolors\n"
            + "".join(f"0 {v}\n" for v in range(1, 7))
            + "1 2\n1 4\n2 6\n3 5\n3 6\n4 5\n"
        )
        extra = ["--out", str(tmp_path / "o.graph")] if command == "reconstruct" else []
        assert run(command, str(src), "--kind", "epow", *extra) == 4

    @pytest.mark.parametrize("kind", ["pow", "epow"])
    @pytest.mark.parametrize("command", ["reconstruct", "detect", "verify"])
    def test_three_vertex_path_exit_4(self, tmp_path, capsys, command, kind):
        # rebuilt as two elements of order 2 beside the identity, but a
        # group of order 3 has 3 elements x with x^3 = 1 (Frobenius's count)
        src = tmp_path / "p3.graph"
        src.write_text("graph 3\nnocolors\n0 1\n0 2\n")
        out = tmp_path / "o.graph"
        extra = ["--out", str(out)] if command == "reconstruct" else []
        assert run(command, str(src), "--kind", kind, *extra) == 4
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1 elements x with x^3 = 1, not a multiple of 3" in captured.err

    def test_disjoint_pair_refusal_true_of_either_kind(self, tmp_path, capsys):
        # two isolated vertices, both CC under --kind epow (pow refuses
        # first, for want of a universal vertex): R4 refuses the pair
        src = tmp_path / "k2bar.graph"
        src.write_text("graph 2\nnocolors\n")
        assert run("detect", str(src), "--kind", "epow") == 4
        assert capsys.readouterr().err == (
            "error: not a power graph or an enhanced power graph: "
            "CC vertices 0 and 1 have disjoint closed neighborhoods\n"
        )


class TestFormatCalls:
    """Every graph file is written by one call to pgk.cli.format_graph (the
    traced bench's format span wraps that attribute); R4 by format_r4."""

    @staticmethod
    def counted(monkeypatch) -> Counter:
        calls = Counter()
        for name in ("format_graph", "format_r4"):
            def counting(*args, _name=name, _real=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, counting)
        return calls

    @pytest.mark.parametrize("kind", ["pow", "epow", "dpow", "cdpow"])
    def test_generate_formats_once(self, tmp_path, monkeypatch, kind):
        calls = self.counted(monkeypatch)
        out = tmp_path / "q8z3.graph"
        assert run("generate", "Q8xZ3", "--kind", kind, "--out", str(out)) == 0
        assert calls == Counter(format_graph=1)

    @pytest.mark.parametrize("stage", ["r4", "r3", "r2", "r1", "cdpow", "dpow"])
    @pytest.mark.parametrize("kind", ["pow", "epow"])
    def test_reconstruct_formats_once(self, tmp_path, monkeypatch, kind, stage):
        src, out = tmp_path / "in.graph", tmp_path / "out.graph"
        build = power_graph if kind == "pow" else enhanced_power_graph
        save_graph(build(quaternion_group()), src, with_colors=False)
        calls = self.counted(monkeypatch)
        argv = ["reconstruct", str(src), "--kind", kind, "--out", str(out)]
        assert run(*argv, "--emit-stage", stage) == 0
        expected = "format_r4" if stage == "r4" else "format_graph"
        assert calls == Counter({expected: 1})


def outcomes(tmp_path, path):
    """Exit code, stdout and written bytes of every command that reads
    path as a power graph."""
    out = tmp_path / "out"
    argvs = [["detect", path], ["verify", path], ["iso", path, path]]
    argvs += [["reconstruct", path, "--out", str(out), "--emit-stage", stage]
              for stage in ("r4", "r3", "r2", "r1", "cdpow", "dpow")]
    seen = []
    for argv in argvs:
        out.unlink(missing_ok=True)
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = main(argv + ["--kind", "pow"])
        written = out.read_bytes() if out.exists() else None
        seen.append((argv[0], code, stdout.getvalue(), written))
    return seen


class TestColoredUndirectedInput:
    """An undirected input's colors line is ignored: element-order and
    random colors give what nocolors gives, under every command."""

    @pytest.mark.parametrize(
        "spec", ["Z12", "Q8xZ3", "D6", "Z2xZ6", "Q8xZ15", "D45xZ7", "Z360"]
    )
    def test_colors_line_ignored(self, tmp_path, spec):
        plain = tmp_path / "plain.graph"
        assert run("generate", spec, "--kind", "pow", "--out", str(plain)) == 0
        header, _, edges = plain.read_text().split("\n", 2)
        orders = sorted(parse_group_spec(spec).element_orders)  # as generate labels
        rng = make_rng(len(orders))
        expected = outcomes(tmp_path, str(plain))
        for colors in (orders, [rng.randint(1, 12) for _ in orders]):
            colored = tmp_path / "colored.graph"
            line = "colors " + " ".join(map(str, colors))
            colored.write_text(f"{header}\n{line}\n{edges}")
            assert outcomes(tmp_path, str(colored)) == expected


class TestNonUtf8Input:
    """A byte that is not UTF-8 is a parse error that names the file and
    the byte's offset in it, under every command that reads a file."""

    @pytest.mark.parametrize("command", ["detect", "reconstruct", "iso", "verify"])
    def test_graph_file_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.graph"
        text = format_graph(power_graph(cyclic_group(12)), with_colors=False).encode()
        at = len(text) - 4
        path.write_bytes(text[:at] + b"\xff" + text[at:])
        files = [str(path)] * (2 if command == "iso" else 1)
        extra = ["--out", str(tmp_path / "o")] if command == "reconstruct" else []
        assert run(command, *files, "--kind", "pow", *extra) == 2
        assert f"{path}: byte {at} is not UTF-8" in capsys.readouterr().err

    # the order line is read first, from the file's first block; the rows
    # after it, from later blocks
    @pytest.mark.parametrize("at", [1, 20_000])
    def test_cayley_table_file_exit_2(self, tmp_path, capsys, at):
        path = tmp_path / "bad.cayley"
        rows = cyclic_group(100).table
        text = ("100\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)).encode()
        assert len(text) > at
        path.write_bytes(text[:at] + "é".encode() + b"\xff" + text[at:])
        out = str(tmp_path / "o")
        assert run("generate", f"file:{path}", "--kind", "pow", "--out", out) == 2
        assert f"{path}: byte {at + 2} is not UTF-8" in capsys.readouterr().err


def run_on_files(tmp_path, command, files, kind):
    """Exit code of command on the graph files, with --out for reconstruct."""
    extra = ["--out", str(tmp_path / "o")] if command == "reconstruct" else []
    return run(command, *map(str, files), "--kind", kind, *extra)


# (command, number of graph files it reads, position of the bad one)
FILE_POSITIONS = [
    ("detect", 1, 0),
    ("reconstruct", 1, 0),
    ("verify", 1, 0),
    ("iso", 2, 0),
    ("iso", 2, 1),
]


class TestGraphFileRefusals:
    """A graph file that does not parse, or that has the wrong shape for
    --kind, exits 2 with a message that names it, whichever argument it
    is."""

    @pytest.fixture
    def good(self, tmp_path):
        path = tmp_path / "good.graph"
        save_graph(power_graph(cyclic_group(6)), path, with_colors=False)
        return path

    @pytest.mark.parametrize("command, count, at", FILE_POSITIONS)
    @pytest.mark.parametrize(
        "text, message",
        [
            ("graph 3\nnocolors\n0 x\n", "bad edge line: '0 x'"),
            ("grph 3\nnocolors\n", "bad header line: 'grph 3'"),
            ("", "empty graph file"),
            ("graph 2\n", "missing colors line"),
        ],
        ids=["edge", "header", "empty", "colors"],
    )
    def test_malformed_file_named(
        self, tmp_path, capsys, good, command, count, at, text, message
    ):
        bad = tmp_path / "bad.graph"
        bad.write_text(text)
        files = [good] * count
        files[at] = bad
        assert run_on_files(tmp_path, command, files, "pow") == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("command, count, at", FILE_POSITIONS)
    @pytest.mark.parametrize("kind", ["pow", "epow"])
    def test_directed_file_named(self, tmp_path, capsys, good, command, count, at, kind):
        bad = tmp_path / "z6.dpow"
        save_graph(directed_power_graph(cyclic_group(6)), bad, with_colors=False)
        files = [good] * count
        files[at] = bad
        assert run_on_files(tmp_path, command, files, kind) == 2
        message = f"{bad}: kind {kind} expects an undirected graph file"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("at", [0, 1])
    def test_undirected_file_named_under_dpow(self, tmp_path, capsys, good, at):
        other = tmp_path / "z6.dpow"
        save_graph(directed_power_graph(cyclic_group(6)), other, with_colors=False)
        files = [other, other]
        files[at] = good
        assert run_on_files(tmp_path, "iso", files, "dpow") == 2
        message = f"{good}: kind dpow expects a directed graph file"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_every_file_parsed_before_a_shape_is_refused(self, tmp_path, good):
        # a missing second file is an I/O error (3), not the first file's
        # shape refusal (2)
        assert run_on_files(tmp_path, "iso", [good, tmp_path / "missing"], "dpow") == 3


def test_graph_files_read_in_one_function():
    """Every load_graph call in the CLI is in one function, the one that
    checks the shape each --kind reads."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    owners = {
        getattr(node, "name", None)
        for node in tree.body
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and "load_graph" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
    }
    assert len(owners) == 1 and None not in owners, owners


class TestIso:
    def _write(self, tmp_path, name, graph, with_colors=False):
        path = tmp_path / name
        save_graph(graph, path, with_colors=with_colors)
        return str(path)

    def test_footnote_pair(self, tmp_path):
        from pgk.group_core import elementary_abelian_group, heisenberg_group

        a = self._write(
            tmp_path, "a.graph", power_graph(elementary_abelian_group(3, 3))
        )
        b = self._write(tmp_path, "b.graph", power_graph(heisenberg_group(3)))
        assert run("iso", a, b, "--kind", "pow") == 0

    def test_non_isomorphic_dpow(self, tmp_path, capsys):
        a = self._write(
            tmp_path, "a.graph", directed_power_graph(cyclic_group(12)), True
        )
        b = self._write(
            tmp_path,
            "b.graph",
            directed_power_graph(direct_product(cyclic_group(2), cyclic_group(6))),
            True,
        )
        assert run("iso", a, b, "--kind", "dpow") == 1
        assert capsys.readouterr().out.strip() == "non-isomorphic"

    def test_identical_files(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.graph", power_graph(cyclic_group(12)))
        assert run("iso", a, a, "--kind", "pow") == 0
        assert capsys.readouterr().out.strip() == "isomorphic"

    def test_kind_mismatch_exit_2(self, tmp_path):
        a = self._write(tmp_path, "a.graph", power_graph(cyclic_group(4)))
        assert run("iso", a, a, "--kind", "dpow") == 2

    def test_non_nilpotent_shape_exit_4(self, tmp_path, s3):
        a = self._write(tmp_path, "a.graph", directed_power_graph(s3), True)
        assert run("iso", a, a, "--kind", "dpow") == 4

    @pytest.mark.parametrize("at", [1, 2])
    def test_non_nilpotent_shape_names_its_input(self, tmp_path, capsys, at):
        # D3 lifts to a directed power graph, but its Sylow parts multiply to 12
        d3, z6 = tmp_path / "d3.pow", tmp_path / "z6.pow"
        assert run("generate", "D3", "--kind", "pow", "--out", str(d3)) == 0
        assert run("generate", "Z6", "--kind", "pow", "--out", str(z6)) == 0
        files = [z6, z6]
        files[at - 1] = d3
        capsys.readouterr()
        assert run("iso", *map(str, files), "--kind", "pow") == 4
        assert capsys.readouterr().err == (
            f"error: input {at}: input not recognized as the directed power graph "
            "of a nilpotent group: per-prime component sizes multiply to 12, not 6\n"
        )

    @pytest.mark.parametrize("sizes, at", [((1, 0), 2), ((0, 1), 1), ((0, 0), 1)])
    def test_empty_dpow_refused_naming_its_input(self, tmp_path, capsys, sizes, at):
        # refused by position, as the undirected kinds refuse "graph 0"
        texts = {0: "digraph 0\nnocolors\n", 1: "digraph 1\nnocolors\n0 0\n"}
        files = []
        for i, size in enumerate(sizes):
            files.append(tmp_path / f"d{i}.txt")
            files[-1].write_text(texts[size])
        assert run("iso", *map(str, files), "--kind", "dpow") == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: input {at}: empty graph\n")

    def test_dpow_files_with_different_arc_counts(self, tmp_path, capsys):
        # dropping "5 0" moves vertex 5's out-degree from 6 to 5, a color
        # no Sylow part holds, so only the color multisets differ
        z6, cut = tmp_path / "z6.txt", tmp_path / "z6_cut.txt"
        assert run("generate", "Z6", "--kind", "dpow", "--out", str(z6)) == 0
        lines = z6.read_text().splitlines(keepends=True)
        cut.write_text("".join(ln for ln in lines if ln != "5 0\n"))
        assert len(lines) == len(cut.read_text().splitlines()) + 1
        capsys.readouterr()
        assert run("iso", str(z6), str(cut), "--kind", "dpow") == 1
        assert capsys.readouterr().out.strip() == "non-isomorphic"

    @pytest.mark.parametrize(
        "order, arcs, message",
        [
            (18, [(3, 15), (3, 17)], "arcs (3, 17) and (17, 1) but no arc (3, 1)"),
            (2, [(0, 1), (1, 1)], "vertex 1 has none"),
        ],
    )
    def test_flipped_dpow_no_preorder_exit_4(
        self, tmp_path, capsys, order, arcs, message
    ):
        # each flipped copy keeps every invariant the verdict reads, so it
        # was once called isomorphic to a relabelled original
        D = directed_power_graph(cyclic_group(order))
        masks = list(D.out_masks)
        for u, v in arcs:
            masks[u] ^= 1 << v
        bad = type(D)._from_masks(D.n, D.colors, masks)
        a = self._write(tmp_path, "a.graph", bad)
        relabelled = graph_core.relabel(D, list(range(order))[::-1])
        b = self._write(tmp_path, "b.graph", relabelled)
        for first, second in ((a, b), (b, a)):
            assert run("iso", first, second, "--kind", "dpow") == 4
            out, err = capsys.readouterr()
            assert out == "" and message in err

    @pytest.mark.parametrize(
        "kind, bad_text, good",
        [
            # Z2 plus arc 0 -> 1 less 1's loop: its lift finds no loop at 1
            ("dpow", "digraph 2\nnocolors\n0 0\n0 1\n1 0\n", directed_power_graph),
            # the 5-cycle is neither a power graph nor an enhanced one
            ("pow", "graph 5\nnocolors\n0 1\n0 4\n1 2\n2 3\n3 4\n", power_graph),
            ("epow", "graph 5\nnocolors\n0 1\n0 4\n1 2\n2 3\n3 4\n", enhanced_power_graph),
        ],
        ids=["dpow", "pow", "epow"],
    )
    def test_lift_refusal_names_the_input(self, tmp_path, capsys, kind, bad_text, good):
        bad = tmp_path / "bad.graph"
        bad.write_text(bad_text)
        n = int(bad_text.split()[1])
        other = self._write(tmp_path, "good.graph", good(cyclic_group(n)))
        reasons = set()
        for i, files in ((1, (bad, other)), (2, (other, bad))):
            assert run("iso", *map(str, files), "--kind", kind) == 4
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: input {i}: ")
            reasons.add(err.removeprefix(f"error: input {i}: "))
        assert len(reasons) == 1


class TestVerify:
    def test_pow_z12_consistent(self, tmp_path):
        path = tmp_path / "z12.graph"
        save_graph(power_graph(cyclic_group(12)), path, with_colors=False)
        assert run("verify", str(path), "--kind", "pow") == 0

    def test_epow_s3_consistent(self, tmp_path, s3):
        path = tmp_path / "s3.graph"
        save_graph(enhanced_power_graph(s3), path, with_colors=False)
        assert run("verify", str(path), "--kind", "epow") == 0

    def test_non_power_graph_diagnosed(self, tmp_path):
        path = tmp_path / "c5.graph"
        path.write_text("graph 5\nnocolors\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        assert run("verify", str(path), "--kind", "pow") == 4

    def test_cap_exit_5(self, tmp_path):
        path = tmp_path / "z12.graph"
        save_graph(power_graph(cyclic_group(12)), path, with_colors=False)
        assert run("verify", str(path), "--kind", "pow", "--cap", "5") == 5

    def test_default_cap_is_the_oracle_default(self, tmp_path, monkeypatch):
        path = tmp_path / "z12.graph"
        save_graph(power_graph(cyclic_group(12)), path, with_colors=False)
        assert run("verify", str(path), "--kind", "pow") == 0
        monkeypatch.setattr(graph_core, "ISO_CAP_DEFAULT", 5)
        assert run("verify", str(path), "--kind", "pow") == 5


DOCUMENTED_EXIT_CODES = {0, 1, 2, 4, 5}  # 3 is an I/O error
TOTALITY_GROUPS = [
    cyclic_group(6),
    cyclic_group(8),
    direct_product(cyclic_group(2), cyclic_group(2)),
    direct_product(cyclic_group(2), cyclic_group(4)),
    quaternion_group(),
    dihedral_group(4),
]


@st.composite
def cli_inputs(draw):
    """A random graph or digraph on at most 9 vertices, or the Pow, EPow or
    DPow of a small group with 1-3 of its edges or arcs flipped."""
    if draw(st.booleans()):
        return draw(small_graphs(9) | small_digraphs(9))
    G = draw(st.sampled_from(TOTALITY_GROUPS))
    builders = [power_graph, enhanced_power_graph, directed_power_graph]
    build = draw(st.sampled_from(builders))
    X, n = build(G), G.order
    directed = build is directed_power_graph
    flips = set()
    for _ in range(draw(st.integers(1, 3))):
        u = draw(st.integers(0, n - 1))
        v = (u + draw(st.integers(0 if directed else 1, n - 1))) % n
        flips.add((u, v) if directed else (min(u, v), max(u, v)))
    pairs = X.arcs if directed else X.edges
    return type(X)(n, X.colors, pairs ^ flips)


@pytest.fixture(scope="module")
def totality_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("totality")


@settings(max_examples=60, deadline=None)
@given(cli_inputs(), cli_inputs(), st.booleans())
def test_every_call_returns_a_documented_exit_code(totality_dir, X, Y, with_colors):
    a, b, out = (str(totality_dir / name) for name in ("a", "b", "out"))
    save_graph(X, a, with_colors)
    save_graph(Y, b, with_colors)
    kinds = ("pow", "epow")
    stages = ("r4", "r3", "r2", "r1", "cdpow", "dpow")
    argvs = [["detect", a, "--kind", k] for k in kinds]
    argvs += [
        ["reconstruct", a, "--kind", k, "--out", out, "--emit-stage", stage]
        for k in kinds
        for stage in stages
    ]
    argvs += [["iso", a, b, "--kind", k] for k in kinds + ("dpow",)]
    argvs += [["verify", a, "--kind", k] for k in kinds]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes = {tuple(argv): main(argv) for argv in argvs}
    for argv, code in codes.items():
        assert code in DOCUMENTED_EXIT_CODES, argv
    # detect and every emitted stage answer only where reconstruction does;
    # verify fails exactly as reconstruction does, else gives its verdict
    for k in kinds:
        rebuilt = codes["reconstruct", a, "--kind", k, "--out", out, "--emit-stage", "dpow"]
        for argv, code in codes.items():
            if argv[0] in ("detect", "reconstruct") and argv[3] == k and code == 0:
                assert rebuilt == 0, argv
        verified = codes["verify", a, "--kind", k]
        assert verified in ((0, 1) if rebuilt == 0 else (rebuilt,)), k
