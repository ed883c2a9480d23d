import itertools

import pytest

from pgk.errors import GraphFormatError, SizeCapError
from pgk.graph_core import (
    ColoredDiGraph,
    ColoredGraph,
    brute_force_color_iso,
    closed_twin_partition_directed,
    closed_twin_partition_undirected,
    format_graph,
    induced_subgraph,
    parse_graph,
    relabel,
    strong_product,
)
from pgk.graph_core import load_graph
from pgk.group_core import (
    MAX_GROUP_ORDER,
    cyclic_group,
    direct_product,
    elementary_abelian_group,
    heisenberg_group,
)
from pgk.powergraph_build import directed_power_graph, power_graph

from helpers import closed_neighborhood, make_rng, random_relabel, save_graph


def complete_graph(n):
    return ColoredGraph(
        n, (1,) * n, frozenset((u, v) for u in range(n) for v in range(u + 1, n))
    )


class TestTwinPartitions:
    def test_complete_graph_single_class(self):
        partition = closed_twin_partition_undirected(complete_graph(4))
        assert partition.classes == ((0, 1, 2, 3),)

    def test_pow_z6_classes(self):
        partition = closed_twin_partition_undirected(power_graph(cyclic_group(6)))
        assert partition.classes == ((0, 1, 5), (2, 4), (3,))

    def test_edgeless_graph_singletons(self):
        X = ColoredGraph(3, (1, 1, 1), frozenset())
        assert closed_twin_partition_undirected(X).classes == ((0,), (1,), (2,))

    def test_cdpow_z4_classes(self):
        partition = closed_twin_partition_directed(
            directed_power_graph(cyclic_group(4))
        )
        assert partition.classes == ((0,), (1, 3), (2,))

    def test_cdpow_z1_singleton(self):
        partition = closed_twin_partition_directed(
            directed_power_graph(cyclic_group(1))
        )
        assert partition.classes == ((0,),)

    def test_cdpow_klein_four_singletons(self):
        G = direct_product(cyclic_group(2), cyclic_group(2))
        partition = closed_twin_partition_directed(directed_power_graph(G))
        assert partition.classes == ((0,), (1,), (2,), (3,))

    def test_classes_are_maximal(self):
        # merging two classes always produces a non-twin pair
        X = power_graph(cyclic_group(12))
        partition = closed_twin_partition_undirected(X)
        for c1, c2 in itertools.combinations(partition.classes, 2):
            assert any(
                closed_neighborhood(X, u) != closed_neighborhood(X, v)
                for u in c1
                for v in c2
            )

    def test_partition_covers_vertices(self):
        X = power_graph(cyclic_group(18))
        partition = closed_twin_partition_undirected(X)
        members = [v for cls in partition.classes for v in cls]
        assert sorted(members) == list(range(X.n))


class TestInducedSubgraph:
    def test_full_vertex_set_is_identity(self):
        X = power_graph(cyclic_group(6))
        sub, mapping = induced_subgraph(X, range(X.n))
        assert sub == X
        assert mapping == tuple(range(X.n))

    def test_pow_z6_neighborhood_of_two(self):
        X = power_graph(cyclic_group(6))
        sub, mapping = induced_subgraph(X, closed_neighborhood(X, 2))
        assert mapping == (0, 1, 2, 4, 5)
        assert sub.n == 5
        # 13 edges of the full graph minus the three incident to vertex 3
        assert len(sub.edges) == 10

    def test_empty_set(self):
        X = power_graph(cyclic_group(6))
        sub, mapping = induced_subgraph(X, set())
        assert sub.n == 0 and mapping == ()

    def test_out_of_range_vertex(self):
        X = power_graph(cyclic_group(3))
        with pytest.raises(ValueError):
            induced_subgraph(X, {0, 9})


class TestStrongProduct:
    def test_matches_directed_power_graph_of_product(self):
        P = strong_product(
            directed_power_graph(cyclic_group(2)),
            directed_power_graph(cyclic_group(3)),
        )
        D = directed_power_graph(cyclic_group(6))
        assert brute_force_color_iso(P, D) is not None

    def test_single_loopless_vertex_is_identity_on_loopless_factor(self):
        X = ColoredDiGraph(3, (1, 1, 1), frozenset({(0, 1), (1, 2)}))
        K1 = ColoredDiGraph(1, (1,), frozenset())
        assert strong_product(X, K1) == X

    def test_k2_times_k2(self):
        K2 = ColoredDiGraph(2, (1, 1), frozenset({(0, 1), (1, 0)}))
        P = strong_product(K2, K2)
        assert P.n == 4
        assert len(P.arcs) == 12

    def test_arc_count_against_clause_oracle(self):
        X = directed_power_graph(cyclic_group(4))
        Y = directed_power_graph(cyclic_group(3))
        P = strong_product(X, Y)
        expected = set()
        for u in range(X.n):
            for up in range(Y.n):
                for v in range(X.n):
                    for vp in range(Y.n):
                        if (u, up) == (v, vp):
                            if X.has_arc(u, u) and Y.has_arc(up, up):
                                expected.add((u * Y.n + up, u * Y.n + up))
                            continue
                        if (
                            (u == v and Y.has_arc(up, vp))
                            or (up == vp and X.has_arc(u, v))
                            or (X.has_arc(u, v) and Y.has_arc(up, vp))
                        ):
                            expected.add((u * Y.n + up, v * Y.n + vp))
        assert P.arcs == frozenset(expected)

    def test_colors_multiply(self):
        X = directed_power_graph(cyclic_group(2))
        Y = directed_power_graph(cyclic_group(3))
        P = strong_product(X, Y)
        assert sorted(P.colors) == [1, 2, 3, 3, 6, 6]


class TestBruteForceColorIso:
    def test_identity_mapping(self):
        X = power_graph(cyclic_group(8))
        assert brute_force_color_iso(X, X) == list(range(8))

    def test_footnote_pair_of_power_graphs(self):
        X = power_graph(elementary_abelian_group(3, 3))
        Y = power_graph(heisenberg_group(3))
        assert brute_force_color_iso(X, Y) is not None

    def test_path_vs_triangle(self):
        P3 = ColoredGraph(3, (1, 1, 1), frozenset({(0, 1), (1, 2)}))
        K3 = ColoredGraph(3, (1, 1, 1), frozenset({(0, 1), (0, 2), (1, 2)}))
        assert brute_force_color_iso(P3, K3) is None

    def test_color_mismatch(self):
        X = ColoredGraph(2, (1, 2), frozenset({(0, 1)}))
        Y = ColoredGraph(2, (1, 3), frozenset({(0, 1)}))
        assert brute_force_color_iso(X, Y) is None

    def test_cap_exceeded(self):
        X = power_graph(cyclic_group(31))
        with pytest.raises(SizeCapError):
            brute_force_color_iso(X, X)

    def test_kind_mismatch(self):
        X = ColoredGraph(1, (1,), frozenset())
        D = ColoredDiGraph(1, (1,), frozenset())
        with pytest.raises(ValueError):
            brute_force_color_iso(X, D)

    def test_symmetry(self):
        rng = make_rng(7)
        X = directed_power_graph(cyclic_group(12))
        Y = random_relabel(X, rng)
        Z = directed_power_graph(direct_product(cyclic_group(2), cyclic_group(6)))
        assert (brute_force_color_iso(X, Y) is None) == (
            brute_force_color_iso(Y, X) is None
        )
        assert (brute_force_color_iso(X, Z) is None) == (
            brute_force_color_iso(Z, X) is None
        )

    def test_found_mapping_is_valid(self):
        rng = make_rng(3)
        X = directed_power_graph(cyclic_group(9))
        Y = random_relabel(X, rng)
        mapping = brute_force_color_iso(X, Y)
        assert mapping is not None
        assert relabel(X, mapping) == Y


class TestRelabel:
    def test_round_trip(self):
        X = directed_power_graph(cyclic_group(6))
        perm = [3, 1, 5, 0, 2, 4]
        inverse = [perm.index(i) for i in range(6)]
        assert relabel(relabel(X, perm), inverse) == X

    def test_rejects_non_permutation(self):
        X = power_graph(cyclic_group(3))
        with pytest.raises(ValueError):
            relabel(X, [0, 0, 1])


class TestSerialization:
    def test_digraph_round_trip(self):
        D = directed_power_graph(cyclic_group(6))
        assert parse_graph(format_graph(D)) == D

    def test_graph_round_trip_without_colors(self):
        X = power_graph(cyclic_group(6))
        assert parse_graph(format_graph(X, with_colors=False)) == X

    def test_format_is_deterministic(self):
        D = directed_power_graph(cyclic_group(12))
        assert format_graph(D) == format_graph(D)

    def test_exact_text(self):
        X = ColoredGraph(3, (1, 2, 4), frozenset({(0, 1), (1, 2)}))
        assert format_graph(X) == "graph 3\ncolors 1 2 4\n0 1\n1 2\n"

    def test_file_round_trip(self, tmp_path):
        D = directed_power_graph(cyclic_group(8))
        path = tmp_path / "d.graph"
        save_graph(D, path)
        assert load_graph(path) == D

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
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(GraphFormatError):
            parse_graph(text)

    @pytest.mark.parametrize("head", ["graph", "digraph"])
    @pytest.mark.parametrize("n", [MAX_GROUP_ORDER + 1, 20000, 10**12])
    def test_vertex_count_over_cap_refused(self, monkeypatch, head, n):
        # refused before any mask is built: the mask constructor is gone
        monkeypatch.setattr(ColoredGraph, "_from_masks", None)
        monkeypatch.setattr(ColoredDiGraph, "_from_masks", None)
        with pytest.raises(GraphFormatError, match="exceeds maximum"):
            parse_graph(f"{head} {n}\nnocolors\n")

    def test_vertex_count_at_cap_accepted(self):
        X = parse_graph(f"graph {MAX_GROUP_ORDER}\nnocolors\n")
        assert X.n == MAX_GROUP_ORDER

    def test_self_loop_allowed_in_digraph(self):
        D = parse_graph("digraph 1\nnocolors\n0 0\n")
        assert D.arcs == frozenset({(0, 0)})


class TestValidation:
    def test_color_length_mismatch(self):
        with pytest.raises(ValueError):
            ColoredGraph(2, (1,), frozenset())

    def test_nonpositive_color(self):
        with pytest.raises(ValueError):
            ColoredGraph(1, (0,), frozenset())

    def test_bad_edge(self):
        with pytest.raises(ValueError):
            ColoredGraph(2, (1, 1), frozenset({(1, 0)}))

    def test_bad_arc(self):
        with pytest.raises(ValueError):
            ColoredDiGraph(2, (1, 1), frozenset({(0, 2)}))
