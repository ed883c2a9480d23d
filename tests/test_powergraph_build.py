from math import gcd

import pytest

from pgk.graph_core import brute_force_color_iso, strong_product
from pgk.group_core import cyclic_group, direct_product, quaternion_group
from pgk.numtheory import is_prime_power
from pgk.powergraph_build import (
    directed_power_graph,
    enhanced_power_graph,
    power_graph,
)

from helpers import ccg_ground_truth, cyclic_subgroup


class TestDirectedPowerGraph:
    def test_trivial_group(self):
        D = directed_power_graph(cyclic_group(1))
        assert D.n == 1
        assert D.arcs == frozenset({(0, 0)})

    def test_z4_arc_count(self):
        assert len(directed_power_graph(cyclic_group(4)).arcs) == 11

    def test_klein_four_arcs(self):
        G = direct_product(cyclic_group(2), cyclic_group(2))
        D = directed_power_graph(G)
        loops = {(v, v) for v in range(4)}
        into_identity = {(v, 0) for v in range(1, 4)}
        assert D.arcs == frozenset(loops | into_identity)

    def test_colors_are_out_degrees_and_orders(self, catalog):
        for name, G in catalog:
            D = directed_power_graph(G)
            for v in range(D.n):
                assert D.colors[v] == D.out_degree(v) == G.element_orders[v], name

    def test_definition_oracle(self):
        G = quaternion_group()
        D = directed_power_graph(G)
        expected = {
            (x, y)
            for x in range(G.order)
            for y in cyclic_subgroup(G, x).members
        }
        assert D.arcs == frozenset(expected)


class TestPowerGraph:
    def test_z6_edge_count(self):
        assert len(power_graph(cyclic_group(6)).edges) == 13

    def test_z8_complete(self):
        assert power_graph(cyclic_group(8)).is_complete()

    def test_klein_four_star(self):
        G = direct_product(cyclic_group(2), cyclic_group(2))
        assert power_graph(G).edges == frozenset({(0, 1), (0, 2), (0, 3)})

    def test_uncolored(self):
        assert set(power_graph(cyclic_group(6)).colors) == {1}

    def test_definition_oracle(self, s3):
        X = power_graph(s3)
        for u in range(s3.order):
            for v in range(u + 1, s3.order):
                expected = (
                    v in cyclic_subgroup(s3, u).members
                    or u in cyclic_subgroup(s3, v).members
                )
                assert X.has_edge(u, v) == expected


class TestEnhancedPowerGraph:
    def test_cyclic_complete(self):
        for n in (2, 5, 12):
            assert enhanced_power_graph(cyclic_group(n)).is_complete()

    def test_s3_edges(self, s3):
        # identity joined to all five others, and the two order-3
        # elements joined to each other: six edges
        X = enhanced_power_graph(s3)
        assert len(X.edges) == 6
        order3 = [v for v in range(6) if s3.element_orders[v] == 3]
        assert X.has_edge(*order3)
        assert all(X.has_edge(0, v) for v in range(1, 6))

    def test_klein_four_star(self):
        G = direct_product(cyclic_group(2), cyclic_group(2))
        assert enhanced_power_graph(G).edges == frozenset({(0, 1), (0, 2), (0, 3)})

    def test_definition_oracle(self):
        G = quaternion_group()
        X = enhanced_power_graph(G)
        members = [cyclic_subgroup(G, z).members for z in range(G.order)]
        for u in range(G.order):
            for v in range(u + 1, G.order):
                expected = any(u in m and v in m for m in members)
                assert X.has_edge(u, v) == expected


class TestCrossGraphInvariants:
    def test_power_edges_are_enhanced_edges(self, catalog):
        for name, G in catalog:
            assert power_graph(G).edges <= enhanced_power_graph(G).edges, name

    def test_shadow_of_directed_is_power_graph(self, catalog):
        for name, G in catalog:
            shadow = directed_power_graph(G).undirected_shadow()
            assert shadow.edges == power_graph(G).edges, name

    def test_complete_iff_cyclic_prime_power(self, catalog):
        for name, G in catalog:
            if G.order > 24:
                continue
            cyclic = max(G.element_orders) == G.order
            expected = G.order == 1 or (
                cyclic and is_prime_power(G.order) is not None
            )
            assert power_graph(G).is_complete() == expected, name

    def test_cc_generator_degree_is_order_minus_one(self, catalog):
        for name, G in catalog:
            Gamma = power_graph(G)
            for g in ccg_ground_truth(G):
                assert Gamma.degree(g) + 1 == G.element_orders[g], (name, g)


class TestStrongProductLaw:
    @pytest.mark.parametrize("n1,n2", [(2, 3), (4, 3), (8, 9)])
    def test_coprime_cyclic_products(self, n1, n2):
        assert gcd(n1, n2) == 1
        P = strong_product(
            directed_power_graph(cyclic_group(n1)),
            directed_power_graph(cyclic_group(n2)),
        )
        D = directed_power_graph(direct_product(cyclic_group(n1), cyclic_group(n2)))
        assert brute_force_color_iso(P, D, cap=100) is not None

    def test_q8_z3(self):
        P = strong_product(
            directed_power_graph(quaternion_group()),
            directed_power_graph(cyclic_group(3)),
        )
        D = directed_power_graph(
            direct_product(quaternion_group(), cyclic_group(3))
        )
        assert brute_force_color_iso(P, D) is not None
