from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from pgk.errors import PipelineError
from pgk.graph_core import (
    ColoredDiGraph,
    ColoredGraph,
    brute_force_color_iso,
    relabel,
)
from pgk.group_core import (
    cyclic_group,
    direct_product,
    quaternion_group,
)
from pgk.numtheory import divisors, euler_phi
from pgk.powergraph_build import directed_power_graph
from pgk.reconstruction import r3_from_r4
from pgk.reductions import reduce_r1, reduce_r2, reduce_r3

from helpers import (
    ccg_ground_truth,
    ccg_vertices_in_r3,
    closed_out_neighborhood,
    color_iso,
    descendants,
    hasse_divisor_graph,
    intersection_color,
    neighbors,
    pair_colors,
    r4_bipartite,
    r4_graph,
    reachability,
    reduce_r4,
    verify_r2_structure,
)


def r1_of(G):
    return reduce_r1(directed_power_graph(G)).graph


def r2_of(G):
    return reduce_r2(r1_of(G))


def r3_of(G):
    return reduce_r3(r2_of(G))


class TestReduceR1:
    def test_trivial_group(self):
        r1 = r1_of(cyclic_group(1))
        assert r1.n == 1
        assert r1.arcs == frozenset({(0, 0)})

    def test_z12_one_class_per_divisor(self):
        r1 = r1_of(cyclic_group(12))
        assert r1.n == 6
        assert sorted(r1.colors) == [1, 2, 3, 4, 6, 12]

    def test_q8(self):
        r1 = r1_of(quaternion_group())
        assert r1.n == 5
        assert sorted(r1.colors) == [1, 2, 4, 4, 4]

    def test_class_map_sizes(self):
        from pgk.numtheory import euler_phi

        red = reduce_r1(directed_power_graph(cyclic_group(12)))
        for cls in red.classes:
            color = red.graph.colors[red.classes.index(cls)]
            assert len(cls) == euler_phi(color)
        assert sorted(v for cls in red.classes for v in cls) == list(range(12))

    def test_rejects_wrong_class_size(self):
        # one vertex of color 3: its twin class has size 1, not phi(3) = 2
        bad = ColoredDiGraph(1, (3,), frozenset({(0, 0)}))
        with pytest.raises(PipelineError, match="twin class"):
            reduce_r1(bad)


@st.composite
def twin_blowups(draw):
    """A digraph on up to five twin classes of distinct colors, each of
    euler_phi(color) members that reach each other and, unless drawn
    otherwise, carry no loops; relabelled at random, so that a class's
    members need not be consecutive."""
    colors = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12]),
                           min_size=1, max_size=5, unique=True))
    k = len(colors)
    quotient = [[draw(st.booleans()) for _ in range(k)] for _ in range(k)]
    looped = draw(st.booleans())
    owner = [i for i, c in enumerate(colors) for _ in range(euler_phi(c))]
    n = len(owner)
    arcs = frozenset(
        (u, v)
        for u in range(n)
        for v in range(n)
        if (owner[u] != owner[v] and quotient[owner[u]][owner[v]])
        or (owner[u] == owner[v] and (u != v or looped and quotient[owner[u]][owner[u]]))
    )
    D = ColoredDiGraph(n, tuple(colors[i] for i in owner), arcs)
    return relabel(D, draw(st.permutations(range(n))))


class TestReduceR1Classes:
    @settings(max_examples=300, deadline=None)
    @given(twin_blowups())
    def test_class_arcs_are_member_arcs(self, D):
        # the case the loop on a class with twins is for: no member of a
        # twin class needs a loop of its own for the class to have one
        red = reduce_r1(D)
        out = D.out_masks
        for i, cls in enumerate(red.classes):
            assert red.graph.colors[i] == D.colors[cls[0]]
            for j, other in enumerate(red.classes):
                members = sum(1 << v for v in other)
                assert red.graph.has_arc(i, j) == any(out[u] & members for u in cls)


class TestReduceR2:
    def test_z12_hasse_covers(self):
        r2 = r2_of(cyclic_group(12))
        assert len(r2.arcs) == 7
        assert all(u != v for u, v in r2.arcs)

    def test_prime_cyclic_single_arc(self):
        r2 = r2_of(cyclic_group(5))
        assert len(r2.arcs) == 1
        ((u, v),) = r2.arcs
        assert (r2.colors[u], r2.colors[v]) == (5, 1)

    def test_q8(self):
        r2 = r2_of(quaternion_group())
        ratios = sorted(
            (r2.colors[u], r2.colors[v]) for u, v in r2.arcs
        )
        assert ratios == [(2, 1), (4, 2), (4, 2), (4, 2)]


class TestReduceR3:
    def test_z12_matches_divisor_hasse_diagram(self):
        assert color_iso(r3_of(cyclic_group(12)), hasse_divisor_graph(12))

    def test_prime_cyclic_single_edge(self):
        r3 = r3_of(cyclic_group(7))
        assert len(r3.edges) == 1

    def test_q8_tree(self):
        r3 = r3_of(quaternion_group())
        assert r3.n == 5
        assert len(r3.edges) == 4
        # star of three color-4 leaves on the color-2 vertex, plus color-1 pendant
        two = r3.colors.index(2)
        assert r3.degree(two) == 4


class TestDescendants:
    def test_top_of_z12_reaches_all(self):
        r3 = r3_of(cyclic_group(12))
        top = r3.colors.index(12)
        assert descendants(r3, top) == set(range(r3.n))

    def test_color_one_vertex_reaches_itself(self):
        r3 = r3_of(cyclic_group(12))
        one = r3.colors.index(1)
        assert descendants(r3, one) == {one}

    def test_q8_color_four_chain(self):
        r3 = r3_of(quaternion_group())
        four = r3.colors.index(4)
        reached = descendants(r3, four)
        assert sorted(r3.colors[v] for v in reached) == [1, 2, 4]


class TestReachability:
    def test_is_reflexive(self):
        X = ColoredDiGraph(3, (1, 1, 1), frozenset({(0, 1), (1, 2)}))
        assert reachability(X) == [{0, 1, 2}, {1, 2}, {2}]

    def test_follows_cycles(self):
        X = ColoredDiGraph(3, (1, 1, 1), frozenset({(0, 1), (1, 0), (2, 2)}))
        assert reachability(X) == [{0, 1}, {0, 1}, {2}]


class TestReduceR4:
    def test_klein_four(self):
        G = direct_product(cyclic_group(2), cyclic_group(2))
        r4 = reduce_r4(r3_of(G))
        assert r4.ccg_colors == (2, 2, 2)
        assert all(c == 1 for c in pair_colors(r4).values())
        bip = r4_bipartite(r4)
        assert bip.n == 6
        assert len(bip.edges) == 6

    def test_cyclic_single_ccg_vertex(self):
        r4 = reduce_r4(r3_of(cyclic_group(12)))
        assert r4.m == 1
        assert r4.ccg_colors == (12,)
        assert pair_colors(r4) == {}

    def test_q8(self):
        r4 = reduce_r4(r3_of(quaternion_group()))
        assert r4.ccg_colors == (4, 4, 4)
        assert sorted(pair_colors(r4).values()) == [2, 2, 2]

    def test_ccg_vertices_are_color_maximal(self):
        r3 = r3_of(quaternion_group())
        ccg = ccg_vertices_in_r3(r3)
        assert [r3.colors[v] for v in ccg] == [4, 4, 4]
        for v in ccg:
            assert all(r3.colors[w] < r3.colors[v] for w in neighbors(r3, v))

    def test_rejects_ambiguous_maximum(self):
        # two color-2 vertices below both color-4 CCG vertices
        X = ColoredGraph(
            5,
            (4, 4, 2, 2, 1),
            frozenset({(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)}),
        )
        with pytest.raises(PipelineError, match="maximum color"):
            reduce_r4(X)


class TestHasseDivisorGraph:
    """r3_from_r4 on one CCG vertex of color n glues the divisor Hasse
    diagram of n; the definitional oracle is helpers.hasse_divisor_graph."""

    @staticmethod
    def lattice(n):
        return r3_from_r4(r4_graph((n,), {}))

    def test_one(self):
        H = self.lattice(1)
        assert H.n == 1 and H.colors == (1,) and not H.edges

    def test_twelve(self):
        H = self.lattice(12)
        assert H.n == 6
        assert len(H.edges) == 7
        assert H.colors == (1, 2, 3, 4, 6, 12)

    def test_prime_power_is_path(self):
        H = self.lattice(8)
        assert sorted(H.degree(v) for v in range(H.n)) == [1, 1, 2, 2]

    def test_edges_are_prime_ratios(self):
        from pgk.numtheory import is_prime

        H = self.lattice(36)
        for u, v in H.edges:
            a, b = sorted((H.colors[u], H.colors[v]))
            assert b % a == 0 and is_prime(b // a)

    def test_equals_oracle_up_to_1000(self):
        bad = [n for n in range(1, 1001) if self.lattice(n) != hasse_divisor_graph(n)]
        assert bad == []


class TestVerifyR2Structure:
    def test_catalog_r2_graphs_pass(self, catalog):
        for name, G in catalog:
            report = verify_r2_structure(r2_of(G))
            assert report.ok, (name, report.violations)

    def test_non_prime_ratio_violation(self):
        X = ColoredDiGraph(2, (6, 6), frozenset({(0, 1)}))
        report = verify_r2_structure(X)
        assert not report.prime_color_ratios
        assert any("prime" in v for v in report.violations)

    def test_cycle_violation(self):
        X = ColoredDiGraph(2, (2, 1), frozenset({(0, 1), (1, 0)}))
        report = verify_r2_structure(X)
        assert not report.acyclic
        assert any("cycle" in v for v in report.violations)


class TestLemmaEquivalences:
    PAIRS = [
        ("Z12", "Z4xZ3", True),
        ("Z12", "Z2xZ6", False),
        ("Z8", "Z2xZ4", False),
    ]

    @pytest.mark.parametrize("name1,name2,expected", PAIRS)
    def test_iso_preserved_across_reductions(self, catalog, name1, name2, expected):
        groups = dict(catalog)
        G, H = groups[name1], groups[name2]
        d1, d2 = directed_power_graph(G), directed_power_graph(H)
        r1a, r1b = reduce_r1(d1).graph, reduce_r1(d2).graph
        r2a, r2b = reduce_r2(r1a), reduce_r2(r1b)
        r3a, r3b = reduce_r3(r2a), reduce_r3(r2b)
        assert color_iso(d1, d2) == expected
        assert color_iso(r1a, r1b) == expected
        assert color_iso(r2a, r2b) == expected
        assert color_iso(r3a, r3b) == expected


class TestTreeTheorem:
    def test_p_group_r3_is_tree(self, p_groups):
        for name, G in p_groups:
            r3 = r3_of(G)
            assert len(r3.edges) == r3.n - 1, name
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for w in neighbors(r3, u):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert len(seen) == r3.n, name


class TestDescendantStructure:
    def test_ccg_descendants_match_divisor_diagram(self, catalog):
        # induced subgraph on descendants of a CCG vertex is the divisor
        # Hasse diagram of its color
        from pgk.graph_core import induced_subgraph

        for name, G in catalog:
            if G.order > 24:
                continue
            r3 = r3_of(G)
            for g in ccg_vertices_in_r3(r3):
                des = descendants(r3, g)
                sub, _ = induced_subgraph(r3, des)
                assert sorted(sub.colors) == divisors(r3.colors[g]), name
                assert color_iso(sub, hasse_divisor_graph(r3.colors[g])), name

    def test_descendants_equal_r1_closed_out_neighborhood(self, catalog):
        # observation: Des(u) in R3 matches the closed out-neighborhood in R1
        for name, G in catalog[:12] + catalog[-9:]:
            r1 = reduce_r1(directed_power_graph(G)).graph
            r2 = reduce_r2(r1)
            r3 = reduce_r3(r2)
            for u in range(r3.n):
                assert descendants(r3, u) == set(closed_out_neighborhood(r1, u)), name

    def test_claim_38_divisibility(self, catalog):
        for name, G in catalog:
            r4 = reduce_r4(r3_of(G))
            for i in range(r4.m):
                for j in range(r4.m):
                    for s in range(r4.m):
                        if len({i, j, s}) < 3:
                            continue
                        g = gcd(
                            intersection_color(r4, i, j), intersection_color(r4, s, j)
                        )
                        assert intersection_color(r4, i, s) % g == 0, name

    def test_r2_sources_are_cc_generator_classes(self, catalog):
        for name, G in catalog:
            red = reduce_r1(directed_power_graph(G))
            r2 = reduce_r2(red.graph)
            sources = {v for v in range(r2.n) if r2.in_degree(v) == 0}
            truth = ccg_ground_truth(G)
            source_members = set().union(*(set(red.classes[v]) for v in sources))
            assert truth <= source_members, name
            # one source per maximal cyclic subgroup
            assert len(sources) == len(truth), name
