"""Golden tests: graph I/O, the three builders, relabeling and CDPow
expansion, which read and write the stored bitmasks, agree exactly with
the edge-tuple references in helpers; and no CLI path builds the edge or
arc views."""

from functools import reduce

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
    reach,
    relabel,
    scatter,
    transpose,
)
from pgk.group_core import (
    cyclic_group,
    direct_product,
    elementary_abelian_group,
    parse_group_spec,
    quaternion_group,
)
from pgk.powergraph_build import (
    directed_power_graph,
    enhanced_power_graph,
    power_graph,
)
from pgk.reconstruction import cdpow_from_r1
from pgk.reductions import reduce_r1

from helpers import (
    family_groups,
    make_rng,
    random_relabel,
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


@pytest.mark.parametrize(
    "X",
    [
        ColoredGraph(0, (), frozenset()),
        ColoredGraph(1, (5,), frozenset()),
        ColoredDiGraph(0, (), frozenset()),
        ColoredDiGraph(1, (3,), frozenset()),
        ColoredDiGraph(1, (2,), frozenset({(0, 0)})),
    ],
)
def test_relabel_on_zero_and_one_vertex(X):
    perm = list(range(X.n))
    assert relabel(X, perm) == reference_relabel(X, perm) == X
    with pytest.raises(ValueError, match="permutation"):
        relabel(X, [X.n])


@pytest.mark.parametrize("spec", ["Z720", "D45xZ7", "ElemAb(2,8)"])
def test_relabel_moves_equal_rows_as_the_reference_does(spec):
    # a group's graph has one distinct row per cyclic subgroup, or fewer
    G = parse_group_spec(spec)
    rng = make_rng(26)
    for build in (power_graph, enhanced_power_graph, directed_power_graph):
        X = random_relabel(build(G), rng)
        perm = rng.sample(range(X.n), X.n)
        assert relabel(X, perm) == reference_relabel(X, perm), build.__name__


def test_relabel_with_every_row_distinct():
    rng = make_rng(27)
    n = 90
    edges = frozenset((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5)
    X = ColoredGraph(n, tuple(rng.randint(1, 4) for _ in range(n)), edges)
    D = ColoredDiGraph(n, X.colors, edges | {(v, u) for u, v in edges if u % 3})
    for Y in (X, D):
        masks = Y.out_masks if Y is D else Y.masks
        assert len(set(masks)) == n
        perm = rng.sample(range(n), n)
        assert relabel(Y, perm) == reference_relabel(Y, perm)


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
@given(graph_texts())
def test_malformed_texts_accepted_and_rejected_as_by_reference(text):
    assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse_graph, text)


def flipped(line: str) -> str:
    return " ".join(reversed(line.split()))


DPOWS = [
    directed_power_graph(G)
    for G in (
        cyclic_group(12),
        cyclic_group(16),
        quaternion_group(),
        direct_product(cyclic_group(2), cyclic_group(6)),
    )
]


@st.composite
def relabelled_dpows(draw):
    """A relabelled DPow of a small group: its twins write equal rows."""
    X = draw(st.sampled_from(DPOWS))
    return relabel(X, draw(st.permutations(range(X.n))))


@st.composite
def written_texts(draw):
    """format_graph's text of a graph, a digraph or a relabelled DPow,
    some with their lines shuffled, some lines duplicated, some lines
    ended by \\r\\n, or one line missing an id.  An undirected text also
    has some lines written "v u", some edges written both ways and, now
    and then, a "v v" line."""
    X = draw(small_graphs(12) | small_digraphs(12) | relabelled_dpows())
    header, colors, *arcs = format_graph(X, draw(st.booleans())).splitlines()
    rng = draw(st.randoms(use_true_random=False))
    if isinstance(X, ColoredGraph):
        arcs = [flipped(ln) if rng.random() < 0.3 else ln for ln in arcs]
        arcs += [flipped(ln) for ln in arcs if rng.random() < 0.2]
        if draw(st.integers(0, 9)) == 0:
            v = rng.randrange(X.n)
            arcs.insert(rng.randrange(len(arcs) + 1), f"{v} {v}")
    if draw(st.booleans()):
        rng.shuffle(arcs)
    if arcs and draw(st.booleans()):
        for ln in rng.choices(arcs, k=4):
            arcs.insert(rng.randrange(len(arcs) + 1), ln)
    if arcs and draw(st.integers(0, 9)) == 0:
        i = rng.randrange(len(arcs))
        arcs[i] = arcs[i].replace(rng.choice(arcs[i].split()), "", 1)
    crlf = draw(st.booleans())
    ends = ["\r\n" if crlf and rng.random() < 0.2 else "\n" for _ in arcs]
    return f"{header}\n{colors}\n" + "".join(map(str.__add__, arcs, ends))


@settings(max_examples=500, deadline=None)
@given(written_texts())
def test_written_texts_read_as_by_reference(text):
    assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse_graph, text)


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(["", "digraph 3\nnocolors\n", "graph 13\nnocolors\n"]),
    st.text(st.sampled_from("01 2\n\r\x0b\x85a")),
)
def test_texts_of_few_characters_read_as_by_reference(header, body):
    # ids with leading zeros, heads that begin longer ids, stray spaces,
    # and every kind of line boundary, at random
    assert_read_as_by_reference(header + body)


def test_runs_reader_leaves_masks_alone_when_it_declines():
    # a run with an odd line or id is read line by line, as by the reference
    for edges in ("0 1\n1 2\n2 01\n", "0 1\n2 3\n", "0 1\n 2\n", "0 1\n2 1"):
        text = "digraph 3\nnocolors\n" + edges
        assert parse_outcome(parse_graph, text) == parse_outcome(
            reference_parse_graph, text
        )
    D = parse_graph("digraph 3\nnocolors\n0 1\n0 2\n0 1\n2 0\n0 1\n")
    assert D.out_masks == (0b110, 0, 0b001)


def test_runs_reader_declines_a_row_read_before_under_a_bad_head():
    head = "digraph 3\nnocolors\n"
    # the row "1 2" is read under head 0 first, then under 01 (head 1)
    D = parse_graph(head + "0 1\n0 2\n01 1\n01 2\n")
    assert D.out_masks == (0b110, 0b110, 0)
    with pytest.raises(GraphFormatError, match=r"bad arc \(3, 1\) for n=3"):
        parse_graph(head + "0 1\n0 2\n3 1\n3 2\n")
    for edges in ("1 1\n1 2\n01 1\n01 2\n", "0 1\n0 2\n1 1\n1 2\n\n01 1\n01 2\n"):
        assert parse_graph(head + edges) == reference_parse_graph(head + edges)


def rows_by_head(text: str):
    """format_graph's text as (header lines, {head: that head's lines})."""
    header, colors, *arcs = text.splitlines()
    rows: dict[str, list[str]] = {}
    for ln in arcs:
        rows.setdefault(ln.split()[0], []).append(ln)
    return [header, colors], rows


def assert_read_as_by_reference(text: str) -> None:
    assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse_graph, text)


WIDE = "digraph 13\nnocolors\n"  # the ids 10, 11 and 12 begin with the head 1


@pytest.mark.parametrize(
    "body",
    [
        # a one-token line that extends the head, alone or inside a guessed run
        "1 5\n12\n",
        "1 5\n1 6\n12\n2 3\n",
        "0 1\n1 5\n12\n2 3\n",
        "0 1\n0 2\n10\n1 2\n",
        # "u " with an empty tail
        "0 \n",
        "0 1\n0 \n1 2\n",
        "0 1\n0 2\n0 \n",
        "0 \n0 1\n1 2\n",
        # a guessed run holding a line of another head, well formed or not
        "0 1\n0 2\n3 1\n0 3\n1 2\n",
        "0 1\n0 2\n2\n1 2\n",
        "0 1\n0 2\n3 1 2\n1 2\n",
        "0 1\n0 11\n01 2\n1 2\n",
        # v + 1 with no row: v's run is the rest of the text, or it is not
        "0 1\n0 2\n2 1\n",
        "0 1\n0 2\n2 1\n2 3\n",
        "11 1\n11 2\n",
        "12 1\n12 2\n13 1\n",
        "12 1\n12 2\n12 13\n",
        # a last run with no final "\n"
        "0 1\n0 2",
        "0 1\n0 2\n1 0\n1 2",
        "0 1\n1 0\n1",
        "0 1\n1 0\n1 ",
    ],
)
def test_guessed_runs_read_as_by_reference(body):
    for header in (WIDE, "graph 13\nnocolors\n"):
        assert_read_as_by_reference(header + body)


@pytest.mark.parametrize("char", ["\r", "\x0b", "\x85", "\r\n"])
def test_line_boundaries_inside_a_run_read_as_by_reference(char):
    X = directed_power_graph(cyclic_group(12))
    text = format_graph(X)
    body_start = text.index("\n", text.index("\n") + 1) + 1
    rng = make_rng(5)
    for i in sorted(rng.sample(range(body_start, len(text)), 40)):
        # inside an id, after a head, before or instead of a "\n"
        for respelled in (text[:i] + char + text[i:], text[:i] + char + text[i + 1 :]):
            assert_read_as_by_reference(respelled)


@pytest.mark.parametrize("kind", [power_graph, directed_power_graph])
def test_rows_in_interleaved_order_read_as_by_reference(kind):
    # heads 0, 2, 4, ..., then 1, 3, 5, ...: no run is followed by v + 1's
    X = kind(direct_product(quaternion_group(), cyclic_group(3)))
    top, rows = rows_by_head(format_graph(X))
    order = sorted(rows, key=lambda head: (int(head) % 2, int(head)))
    text = "\n".join(top + [ln for head in order for ln in rows[head]]) + "\n"
    assert parse_graph(text) == X


@st.composite
def texts_without_some_rows(draw):
    """format_graph's text of a graph, a digraph or a relabelled DPow, with
    the rows of some heads dropped, and now and then no final "\n"."""
    X = draw(small_graphs(12) | small_digraphs(12) | relabelled_dpows())
    top, rows = rows_by_head(format_graph(X, draw(st.booleans())))
    kept = [head for head in rows if draw(st.booleans())]
    text = "\n".join(top + [ln for head in kept for ln in rows[head]]) + "\n"
    return text[:-1] if draw(st.integers(0, 4)) == 0 else text


@settings(max_examples=500, deadline=None)
@given(texts_without_some_rows())
def test_texts_without_some_rows_read_as_by_reference(text):
    assert_read_as_by_reference(text)


def reduce_calls(monkeypatch) -> list[None]:
    """One entry per reduce call parse_graph makes from now on."""
    calls = []

    def counting(*args):
        calls.append(None)
        return reduce(*args)

    monkeypatch.setattr(graph_core, "reduce", counting)
    return calls


def written_rows(X) -> set[int]:
    """The distinct non-empty rows format_graph writes for X."""
    if isinstance(X, ColoredDiGraph):
        return set(X.out_masks) - {0}
    return {m & -(2 << u) for u, m in enumerate(X.masks)} - {0}


@pytest.mark.parametrize(
    "X",
    [
        power_graph(cyclic_group(240)),
        directed_power_graph(cyclic_group(240)),
        random_relabel(
            directed_power_graph(direct_product(quaternion_group(), cyclic_group(15))),
            make_rng(3),
        ),
        enhanced_power_graph(elementary_abelian_group(2, 6)),
        # relabelled, so that v + 1 often has no row in mid-text
        random_relabel(
            power_graph(direct_product(quaternion_group(), cyclic_group(15))),
            make_rng(4),
        ),
        random_relabel(enhanced_power_graph(elementary_abelian_group(3, 3)), make_rng(5)),
    ],
    ids=[
        "pow-Z240",
        "dpow-Z240",
        "dpow-Q8xZ15-relabelled",
        "epow-ElemAb(2,6)",
        "pow-Q8xZ15-relabelled",
        "epow-ElemAb(3,3)-relabelled",
    ],
)
def test_written_runs_taken_whole(monkeypatch, X):
    text = format_graph(X)
    read = lines_read_one_at_a_time(monkeypatch)
    calls = reduce_calls(monkeypatch)
    assert parse_graph(text) == X
    assert read == []
    assert len(calls) == len(written_rows(X))


@pytest.mark.parametrize(
    "build", [power_graph, directed_power_graph], ids=["pow", "dpow"]
)
@pytest.mark.parametrize(
    "respell",
    [lambda text: text.replace("\n", " \n"), lambda text: text.replace("\n", "\r\n")],
    ids=["trailing-space", "crlf"],
)
def test_respelled_rows_guessed_once_each(monkeypatch, build, respell):
    # every line of each run is declined: the run is read line by line
    # once, not guessed again at each of its lines
    X = build(cyclic_group(240))
    text = respell(format_graph(X))
    assert parse_graph(text) == reference_parse_graph(text) == X
    calls = reduce_calls(monkeypatch)
    assert parse_graph(text) == X
    rows = {ln.split()[0] for ln in text.splitlines()[2:]}
    assert 0 < len(calls) <= len(rows)


@pytest.mark.parametrize("where", ["heads", "tails", "both"])
def test_leading_zeros_read_as_by_reference(monkeypatch, where):
    # no line is written: heads with a leading zero are read a run of
    # equal first words at a time, tails with one after a declined guess
    X = power_graph(cyclic_group(240))
    top, rows = rows_by_head(format_graph(X))
    arcs = [ln.split() for head in rows for ln in rows[head]]
    zero = {"heads": (1, 0), "tails": (0, 1), "both": (1, 1)}[where]
    lines = ["0" * zero[0] + u + " " + "0" * zero[1] + w for u, w in arcs]
    # and a one-word line amid the run of a zero-led head
    lines.insert(3, lines[2].split()[0])
    text = "\n".join(top + lines) + "\n"
    assert parse_outcome(parse_graph, text) == GraphFormatError
    del lines[3]
    text = "\n".join(top + lines) + "\n"
    read = lines_read_one_at_a_time(monkeypatch)
    assert parse_graph(text) == reference_parse_graph(text) == X
    assert sorted(read) == sorted(lines)


def test_lines_with_no_written_head_read_alone(monkeypatch):
    # a blank line and a tab-spelled line between two runs go to the
    # per-line reader, and no other line does
    X = power_graph(cyclic_group(240))
    header, colors, *lines = format_graph(X).splitlines()
    i = next(i for i in range(len(lines) // 2, len(lines))
             if lines[i].split()[0] != lines[i - 1].split()[0])
    odd = ["", lines[i].replace(" ", "\t")]
    text = "\n".join([header, colors, *lines[:i], *odd, *lines[i + 1 :]]) + "\n"
    read = lines_read_one_at_a_time(monkeypatch)
    assert parse_graph(text) == X
    assert read == odd


def test_twin_rows_reduced_once(monkeypatch):
    X = directed_power_graph(cyclic_group(240))
    text = format_graph(X)
    calls = []

    def counting(*args):
        calls.append(None)
        return reduce(*args)

    monkeypatch.setattr(graph_core, "reduce", counting)
    assert parse_graph(text) == X
    # one reduction per cyclic subgroup: Z240 has one per divisor of 240
    assert len(calls) == len(set(X.out_masks)) == 20


def assert_written_as_by_reference(X, name="") -> None:
    for with_colors in (True, False):
        assert format_graph(X, with_colors) == reference_format_graph(X, with_colors), name


def test_twin_rows_written_as_by_reference(catalog):
    # relabelled DPows and CDPows: a cyclic subgroup's generators, whose
    # out-rows are equal, sit at scattered ids
    rng = make_rng(23)
    for name, G in catalog + family_groups():
        D = directed_power_graph(G)
        for X in (D, cdpow_from_r1(reduce_r1(D).graph)):
            assert_written_as_by_reference(random_relabel(X, rng), name)


@pytest.mark.parametrize(
    "out_masks",
    [
        (0, 0, 0),
        (0b110, 0, 0b110, 0, 0b110),
        (0, 0b1, 0, 0b1),
        (0b11, 0b11, 0b11),
        (0b1000, 0, 0b1000, 0b1111),
    ],
)
def test_repeated_and_empty_rows_written_as_by_reference(out_masks):
    n = len(out_masks)
    D = ColoredDiGraph._from_masks(n, tuple(range(1, n + 1)), out_masks)
    assert_written_as_by_reference(D)


@st.composite
def digraphs_of_few_rows(draw):
    """Digraphs whose out-rows are drawn from at most three masks and the
    empty one, so rows repeat and empty rows fall among them."""
    n = draw(st.integers(1, 12))
    shared = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    masks = draw(st.lists(st.sampled_from([0, *shared]), min_size=n, max_size=n))
    return ColoredDiGraph._from_masks(n, (1,) * n, masks)


@settings(max_examples=300, deadline=None)
@given(digraphs_of_few_rows())
def test_digraphs_of_few_rows_written_as_by_reference(D):
    assert_written_as_by_reference(D)


def test_twin_rows_selected_once(monkeypatch):
    X = directed_power_graph(cyclic_group(240))
    expected = reference_format_graph(X)
    calls = []

    def counting(*args):
        calls.append(None)
        return bits(*args)

    monkeypatch.setattr(graph_core, "bits", counting)
    assert format_graph(X) == expected
    # one selection per cyclic subgroup: Z240 has one per divisor of 240
    assert len(calls) == len(set(X.out_masks)) == 20


@pytest.mark.parametrize("build", [power_graph, enhanced_power_graph])
def test_closed_twin_rows_selected_once(monkeypatch, build):
    # relabelled, so that the first of a cyclic subgroup's generators is
    # not the smallest in the group's own numbering
    X = random_relabel(build(direct_product(quaternion_group(), cyclic_group(30))), make_rng(27))
    expected = reference_format_graph(X)
    calls = []

    def counting(*args):
        calls.append(None)
        return bits(*args)

    monkeypatch.setattr(graph_core, "bits", counting)
    assert format_graph(X) == expected
    assert len(calls) == len(set(X.masks)) < X.n


def lines_read_one_at_a_time(monkeypatch) -> list[str]:
    """The lines parse_graph passes to its per-line reader from now on."""
    read = []
    read_lines = graph_core._read_lines

    def recording(lines, *args):
        lines = list(lines)
        read.extend(lines)
        read_lines(lines, *args)

    monkeypatch.setattr(graph_core, "_read_lines", recording)
    return read


@pytest.mark.parametrize(
    "build", [power_graph, directed_power_graph], ids=["pow", "dpow"]
)
def test_written_graph_read_line_by_line_only_where_needed(monkeypatch, build):
    X = build(cyclic_group(240))
    text = format_graph(X)
    read = lines_read_one_at_a_time(monkeypatch)
    assert parse_graph(text) == X
    assert read == []
    # a line ended by \r\n, and only that line, goes to the per-line reader
    lines = text.splitlines()
    respelled = (2, len(lines) // 2, len(lines) - 1)  # edge lines only
    ends = ["\r\n" if i in respelled else "\n" for i in range(len(lines))]
    read.clear()
    assert parse_graph("".join(map(str.__add__, lines, ends))) == X
    assert read == [lines[i] for i in respelled]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_long_text_read_in_chunks(newline):
    X = power_graph(cyclic_group(240))
    text = format_graph(X).replace("\n", newline)
    assert len(text) > 150_000
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


@settings(max_examples=200, deadline=None)
@given(small_graphs(12))
def test_reach_is_the_connected_component(X):
    for v in range(X.n):
        component, todo = {v}, [v]
        while todo:
            fresh = set(bits(X.masks[todo.pop()])) - component
            component |= fresh
            todo += fresh
        assert set(bits(reach(X.masks, v))) == component


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**70), st.integers(0, 5), st.data())
def test_bits_picks_the_items_at_the_set_bits(mask, extra, data):
    # items as long as the mask's highest bit or longer; mask 0 picks none
    items = data.draw(st.lists(st.integers() | st.text(max_size=2),
                               min_size=mask.bit_length() + extra,
                               max_size=mask.bit_length() + extra))
    assert bits(mask, items) == [items[i] for i in reference_bits(mask)]
    assert bits(mask, tuple(items)) == bits(mask, items)
    assert bits(mask) == reference_bits(mask)
    assert bits(0, items) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=8))
def test_transpose_reverses_each_arc(masks):
    n = len(masks)
    masks = [m & (1 << n) - 1 for m in masks]
    expected = [0] * n
    for u in range(n):
        for v in range(n):
            if masks[u] >> v & 1:
                expected[v] |= 1 << u
    assert transpose(masks) == expected


@st.composite
def rectangles(draw):
    """k >= 1 rows of a given width: relabel transposes a graph's k
    distinct rows of width n, and then n rows of width k."""
    width = draw(st.integers(1, 70))
    return width, draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=70))


@settings(max_examples=300, deadline=None)
@given(rectangles())
def test_transpose_of_a_rectangle_reverses_each_arc(case):
    width, masks = case
    expected = [0] * width
    for u, m in enumerate(masks):
        for v in range(width):
            if m >> v & 1:
                expected[v] |= 1 << u
    assert transpose(masks, width) == expected
    assert transpose(expected, len(masks)) == masks


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), max_size=6))
def test_scatter_ors_each_value_into_its_members(pairs):
    expected = [0] * 8
    for members, value in pairs:
        for u in range(8):
            if members >> u & 1:
                expected[u] |= value
    assert scatter(pairs, 8) == expected
