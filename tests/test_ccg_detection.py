from collections import Counter

import pytest
from hypothesis import given, settings

from pgk.ccg_detection import (
    CC,
    IDENTITY,
    NC,
    UNLABELED,
    _cyclic_power_graph_profile,
    mark_ccg_enhanced,
    mark_ccg_power,
)
from pgk.errors import PipelineError
from pgk.graph_core import ColoredGraph, closed_twin_partition_undirected
from pgk.group_core import cyclic_group, direct_product, parse_group_spec
from pgk.powergraph_build import enhanced_power_graph, power_graph

from helpers import (
    NeighborhoodPartition,
    ccg_ground_truth,
    check_prime_power_gamma_v,
    check_twin_structure,
    class_of,
    closed_neighborhood,
    gamma_v,
    identity_vertex,
    make_rng,
    maximal_cyclic_subgroups,
    random_relabel,
    reference_mark_ccg_power,
    reference_twin_profile,
    small_graphs,
    twin_profile,
)


def complete_graph(n):
    return ColoredGraph(
        n, (1,) * n, frozenset((u, v) for u in range(n) for v in range(u + 1, n))
    )


def cycle_graph(n):
    return ColoredGraph(
        n, (1,) * n, frozenset((min(v, (v + 1) % n), max(v, (v + 1) % n)) for v in range(n))
    )


class TestTwinProfile:
    def test_complete_graph(self):
        profile = twin_profile(complete_graph(5))
        assert profile.class_sizes == (5,)
        assert profile.dominating_class_size == 5

    def test_pow_z12(self):
        profile = twin_profile(power_graph(cyclic_group(12)))
        assert profile.class_sizes == (1, 2, 2, 2, 5)
        assert profile.dominating_class_size == 5

    def test_pow_klein_four(self):
        G = direct_product(cyclic_group(2), cyclic_group(2))
        profile = twin_profile(power_graph(G))
        assert profile.class_sizes == (1, 1, 1, 1)
        assert profile.dominating_class_size == 1


class TestCyclicPowerGraphProfile:
    """Pow(Z_d)'s twin profile comes from the divisors of d, not from a
    built graph."""

    def test_generator_neighborhood_of_z12(self):
        Gamma = power_graph(cyclic_group(12))
        sub, _ = gamma_v(Gamma, 1)  # generator: whole graph
        assert twin_profile(sub) == _cyclic_power_graph_profile(12)

    def test_complete_graph_is_not_z6_profile(self):
        assert twin_profile(complete_graph(6)) != _cyclic_power_graph_profile(6)

    def test_equals_profile_of_built_graph(self):
        for d in range(2, 101):
            built = power_graph(cyclic_group(d))
            assert _cyclic_power_graph_profile(d) == twin_profile(built), d
            assert twin_profile(built) == reference_twin_profile(built), d


def golden_inputs(catalog):
    """(name, graph) pairs: the catalog's power graphs and three larger
    ones, each in generated and in shuffled vertex order."""
    groups = list(catalog) + [
        (spec, parse_group_spec(spec)) for spec in ("Q8xZ15", "Q8xZ21", "Z2xZ2xZ45")
    ]
    rng = make_rng(3)
    for name, G in groups:
        Gamma = power_graph(G)
        yield name, Gamma
        yield f"{name} shuffled", random_relabel(Gamma, rng)


def marking_or_error(mark, Gamma):
    try:
        return mark(Gamma)
    except PipelineError as exc:
        return str(exc)


class TestGoldenMarkCcgPower:
    """The bitmask detector against the reference that builds an induced
    subgraph and a twin partition per candidate."""

    def test_groups(self, catalog):
        for name, Gamma in golden_inputs(catalog):
            assert mark_ccg_power(Gamma) == reference_mark_ccg_power(Gamma), name

    @settings(max_examples=400, deadline=None)
    @given(small_graphs(12, max_color=3))
    def test_arbitrary_graphs(self, Gamma):
        # detection reads adjacency only: a colored input is marked as
        # the reference marks its uncolored copy
        uncolored = ColoredGraph._from_masks(Gamma.n, (1,) * Gamma.n, Gamma.masks)
        assert marking_or_error(mark_ccg_power, Gamma) == marking_or_error(
            reference_mark_ccg_power, uncolored
        )


class TestMarkCcgPower:
    def test_clique_case(self):
        marking = mark_ccg_power(power_graph(cyclic_group(8)))
        assert marking.labels == (CC,) + (NC,) * 7
        assert marking.cc_vertices == (0,)
        assert identity_vertex(marking) is None

    def test_klein_four(self):
        G = direct_product(cyclic_group(2), cyclic_group(2))
        marking = mark_ccg_power(power_graph(G))
        assert marking.labels[0] == IDENTITY
        assert marking.cc_vertices == (1, 2, 3)

    def test_z6_single_cc_in_universal_class(self):
        marking = mark_ccg_power(power_graph(cyclic_group(6)))
        assert len(marking.cc_vertices) == 1
        assert marking.cc_vertices[0] in {1, 5}  # the generators of Z6
        assert identity_vertex(marking) == 0

    def test_processing_order_is_degree_descending(self):
        Gamma = power_graph(cyclic_group(12))
        marking = mark_ccg_power(Gamma)
        degrees = [Gamma.degree(v) for v in marking.processing_order]
        assert degrees == sorted(degrees, reverse=True)
        assert identity_vertex(marking) not in marking.processing_order

    def test_no_unlabeled_remains(self, catalog):
        for name, G in catalog:
            marking = mark_ccg_power(power_graph(G))
            assert UNLABELED not in marking.labels, name

    def test_rejects_empty_graph(self):
        with pytest.raises(PipelineError):
            mark_ccg_power(ColoredGraph(0, (), frozenset()))

    def test_rejects_graph_without_universal_vertex(self):
        with pytest.raises(PipelineError, match="universal"):
            mark_ccg_power(cycle_graph(5))


class TestMarkCcgEnhanced:
    def test_s3(self, s3):
        Gamma = enhanced_power_graph(s3)
        marking = mark_ccg_enhanced(Gamma)
        assert len(marking.cc_vertices) == 4
        degrees = sorted(Gamma.degree(v) for v in marking.cc_vertices)
        assert degrees == [1, 1, 1, 2]

    def test_cyclic_single_cc(self):
        for n in (2, 6, 12):
            marking = mark_ccg_enhanced(enhanced_power_graph(cyclic_group(n)))
            assert marking.cc_vertices == (0,)

    def test_klein_four(self):
        G = direct_product(cyclic_group(2), cyclic_group(2))
        marking = mark_ccg_enhanced(enhanced_power_graph(G))
        assert marking.cc_vertices == (1, 2, 3)

    def test_rejects_empty_graph(self):
        with pytest.raises(PipelineError):
            mark_ccg_enhanced(ColoredGraph(0, (), frozenset()))


class TestDetectionSoundness:
    @pytest.mark.parametrize("kind", ["pow", "epow"])
    def test_against_ground_truth(self, catalog, kind):
        for name, G in catalog:
            if kind == "pow":
                Gamma = power_graph(G)
                marking = mark_ccg_power(Gamma)
            else:
                Gamma = enhanced_power_graph(G)
                marking = mark_ccg_enhanced(Gamma)
            subs = maximal_cyclic_subgroups(G)
            cc = marking.cc_vertices
            assert len(cc) == len(subs), name
            if kind == "pow":
                # in a power graph deg+1 of a CC vertex is the subgroup order
                assert Counter(Gamma.degree(v) + 1 for v in cc) == Counter(
                    s.order for s in subs
                ), name
            # each CC vertex is a closed twin of a ground-truth generator
            partition = closed_twin_partition_undirected(Gamma)
            truth = ccg_ground_truth(G)
            for v in cc:
                assert any(u in truth for u in class_of(partition)[v]), (name, v)


class TestNeighborhoodPartition:
    def test_partitions_closed_neighborhood(self):
        G = cyclic_group(12)
        Gamma = power_graph(G)
        for v in range(G.order):
            part = NeighborhoodPartition.from_orders(Gamma, G.element_orders, v)
            union = part.higher | part.equal | part.lower
            assert union == closed_neighborhood(Gamma, v)
            assert not (part.higher & part.equal)
            assert not (part.equal & part.lower)
            assert v in part.equal


class TestTwinStructureSuite:
    def test_cc_generator_twin_classes(self, catalog):
        for name, G in catalog:
            assert check_twin_structure(G) == [], name

    def test_prime_power_gamma_v_divisibility(self, catalog):
        for name, G in catalog:
            assert check_prime_power_gamma_v(G) == [], name
