from collections import Counter

import pytest

from pgk.errors import PipelineError
from pgk.graph_core import ColoredDiGraph, ColoredGraph, brute_force_color_iso
from pgk.group_core import (
    cyclic_group,
    direct_product,
    elementary_abelian_group,
    heisenberg_group,
    quaternion_group,
)
from pgk.nilpotent_iso import (
    canonical_tree_code,
    dpow_iso_nilpotent,
    graph_iso_nilpotent,
    p_component,
)
from pgk.powergraph_build import enhanced_power_graph, power_graph
from pgk.powergraph_build import directed_power_graph
from pgk.reductions import reduce_r1, reduce_r2, reduce_r3

from helpers import is_abelian, is_nilpotent, make_rng, random_relabel


def r3_of_digraph(D):
    return reduce_r3(reduce_r2(reduce_r1(D).graph))


class TestPComponent:
    def test_z12_two_component(self):
        sub = p_component(directed_power_graph(cyclic_group(12)), 2)
        assert sub.n == 4
        assert Counter(sub.colors) == {1: 1, 2: 1, 4: 2}

    def test_p_group_is_whole_graph(self):
        D = directed_power_graph(cyclic_group(8))
        assert p_component(D, 2) == D

    def test_prime_not_dividing_order(self):
        sub = p_component(directed_power_graph(cyclic_group(12)), 5)
        assert sub.n == 1
        assert sub.colors == (1,)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            p_component(directed_power_graph(cyclic_group(12)), 4)


class TestCanonicalTreeCode:
    def test_single_vertex(self):
        T = ColoredGraph(1, (1,), frozenset())
        assert canonical_tree_code(T) == "(1:)"

    def test_z4_vs_klein_four_differ(self):
        G = direct_product(cyclic_group(2), cyclic_group(2))
        t1 = r3_of_digraph(directed_power_graph(cyclic_group(4)))
        t2 = r3_of_digraph(directed_power_graph(G))
        assert canonical_tree_code(t1) != canonical_tree_code(t2)

    def test_elemab_27_equals_heisenberg(self):
        # both have 13 maximal cyclic subgroups of order 3 meeting at the
        # identity, so the reduced trees are identical 13-leaf stars
        t1 = r3_of_digraph(directed_power_graph(elementary_abelian_group(3, 3)))
        t2 = r3_of_digraph(directed_power_graph(heisenberg_group(3)))
        assert canonical_tree_code(t1) == canonical_tree_code(t2)

    def test_z9_vs_z3_squared_differ(self):
        t1 = r3_of_digraph(directed_power_graph(cyclic_group(9)))
        t2 = r3_of_digraph(
            directed_power_graph(elementary_abelian_group(3, 2))
        )
        assert canonical_tree_code(t1) != canonical_tree_code(t2)

    def test_label_invariance(self):
        rng = make_rng(5)
        T = r3_of_digraph(directed_power_graph(quaternion_group()))
        assert canonical_tree_code(T) == canonical_tree_code(random_relabel(T, rng))

    def test_rejects_non_tree(self):
        triangle = ColoredGraph(
            3, (1, 2, 2), frozenset({(0, 1), (0, 2), (1, 2)})
        )
        with pytest.raises(PipelineError, match="tree"):
            canonical_tree_code(triangle)

    def test_rejects_missing_root(self):
        T = ColoredGraph(2, (2, 4), frozenset({(0, 1)}))
        with pytest.raises(PipelineError, match="color-1"):
            canonical_tree_code(T)

    def test_rejects_two_roots(self):
        T = ColoredGraph(2, (1, 1), frozenset({(0, 1)}))
        with pytest.raises(PipelineError, match="color-1"):
            canonical_tree_code(T)

    def test_rejects_empty(self):
        with pytest.raises(PipelineError):
            canonical_tree_code(ColoredGraph(0, (), frozenset()))


class TestDpowIsoNilpotent:
    def test_relabeled_copy(self):
        rng = make_rng(9)
        D = directed_power_graph(cyclic_group(12))
        assert dpow_iso_nilpotent(D, random_relabel(D, rng))

    def test_z12_vs_z2_z6(self):
        D1 = directed_power_graph(cyclic_group(12))
        D2 = directed_power_graph(direct_product(cyclic_group(2), cyclic_group(6)))
        assert not dpow_iso_nilpotent(D1, D2)

    def test_z12_vs_z4_z3(self):
        D1 = directed_power_graph(cyclic_group(12))
        D2 = directed_power_graph(direct_product(cyclic_group(4), cyclic_group(3)))
        assert dpow_iso_nilpotent(D1, D2)

    def test_z9_vs_z3_squared(self):
        D1 = directed_power_graph(cyclic_group(9))
        D2 = directed_power_graph(elementary_abelian_group(3, 2))
        assert not dpow_iso_nilpotent(D1, D2)

    def test_size_mismatch(self):
        D1 = directed_power_graph(cyclic_group(6))
        D2 = directed_power_graph(cyclic_group(8))
        assert not dpow_iso_nilpotent(D1, D2)

    def test_rejects_non_nilpotent_shape(self, s3):
        D = directed_power_graph(s3)
        with pytest.raises(PipelineError, match="nilpotent"):
            dpow_iso_nilpotent(D, D)

    def test_agrees_with_componentwise_oracle(self):
        # the per-prime verdicts multiply out to the overall verdict
        pairs = [
            (cyclic_group(12), direct_product(cyclic_group(4), cyclic_group(3))),
            (cyclic_group(12), direct_product(cyclic_group(2), cyclic_group(6))),
            (cyclic_group(24), cyclic_group(24)),
        ]
        for G, H in pairs:
            D1, D2 = directed_power_graph(G), directed_power_graph(H)
            expected = all(
                brute_force_color_iso(p_component(D1, p), p_component(D2, p))
                is not None
                for p in (2, 3)
            )
            assert dpow_iso_nilpotent(D1, D2) == expected


class TestGraphIsoNilpotent:
    def test_footnote_pair(self):
        X1 = power_graph(elementary_abelian_group(3, 3))
        X2 = power_graph(heisenberg_group(3))
        assert graph_iso_nilpotent(X1, X2, "pow")
        # ... although the underlying groups are not isomorphic
        assert is_abelian(elementary_abelian_group(3, 3))
        assert not is_abelian(heisenberg_group(3))
        assert is_nilpotent(heisenberg_group(3))

    def test_epow_identity(self):
        X = enhanced_power_graph(cyclic_group(6))
        assert graph_iso_nilpotent(X, X, "epow")

    def test_z8_vs_z2_z4(self):
        X1 = power_graph(cyclic_group(8))
        X2 = power_graph(direct_product(cyclic_group(2), cyclic_group(4)))
        assert not graph_iso_nilpotent(X1, X2, "pow")

    def test_dpow_kind_recolors_by_out_degree(self):
        rng = make_rng(2)
        D = directed_power_graph(cyclic_group(12))
        uncolored1 = ColoredDiGraph(D.n, (1,) * D.n, D.arcs)
        uncolored2 = random_relabel(uncolored1, rng)
        assert graph_iso_nilpotent(uncolored1, uncolored2, "dpow")

    def test_dpow_kind_rejects_loopless_vertex(self):
        D = ColoredDiGraph(2, (1, 1), frozenset({(0, 0), (0, 1)}))
        with pytest.raises(PipelineError, match="self-loop"):
            graph_iso_nilpotent(D, D, "dpow")

    def test_rejects_unknown_kind(self):
        X = power_graph(cyclic_group(4))
        with pytest.raises(ValueError):
            graph_iso_nilpotent(X, X, "undirected")

    def test_label_invariance(self):
        rng = make_rng(11)
        X1 = power_graph(cyclic_group(16))
        X2 = power_graph(direct_product(cyclic_group(4), cyclic_group(4)))
        base = graph_iso_nilpotent(X1, X2, "pow")
        for _ in range(3):
            shuffled = random_relabel(X1, rng)
            assert graph_iso_nilpotent(shuffled, X2, "pow") == base
