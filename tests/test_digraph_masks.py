"""Golden tests: the digraph stages that read ColoredDiGraph's out/in
bitmasks agree exactly with the frozenset-table references in helpers."""

import graphlib

import pytest
from hypothesis import given, settings

from pgk.graph_core import (
    ColoredDiGraph,
    closed_twin_partition_directed,
    induced_subgraph,
)
from pgk.powergraph_build import directed_power_graph
from pgk.reconstruction import epow_from_dpow
from pgk.reductions import reduce_r1, reduce_r2

from helpers import (
    closed_out_neighborhood,
    make_rng,
    random_relabel,
    reachability,
    reference_epow_from_dpow,
    reference_induced_subgraph,
    reference_out_in,
    reference_reachability,
    reference_reduce_r2,
    reference_twin_partition_directed,
    small_digraphs,
    verify_r2_structure,
)


def is_acyclic(D: ColoredDiGraph) -> bool:
    sorter = graphlib.TopologicalSorter({v: () for v in range(D.n)})
    for u, v in D.arcs:
        sorter.add(v, u)
    try:
        sorter.prepare()
    except graphlib.CycleError:
        return False
    return True


def assert_matches_references(D: ColoredDiGraph, subset) -> None:
    out, inn = reference_out_in(D)
    for v in range(D.n):
        assert closed_out_neighborhood(D, v) == out[v] | {v}
        assert (D.out_degree(v), D.in_degree(v)) == (len(out[v]), len(inn[v]))
    assert closed_twin_partition_directed(D) == reference_twin_partition_directed(D)
    assert reduce_r2(D) == reference_reduce_r2(D)
    assert reachability(D) == reference_reachability(D)
    assert verify_r2_structure(D).acyclic == is_acyclic(D)
    assert induced_subgraph(D, subset) == reference_induced_subgraph(D, subset)
    shadow = D.undirected_shadow()
    assert induced_subgraph(shadow, subset) == reference_induced_subgraph(
        shadow, subset
    )
    assert epow_from_dpow(D) == reference_epow_from_dpow(D)


@settings(max_examples=400, deadline=None)
@given(small_digraphs(10))
def test_arbitrary_digraphs_match_references(D):
    assert_matches_references(D, range(0, D.n, 2))
    # its forward arcs alone: acyclic, with longer transitive chains
    dag = ColoredDiGraph(D.n, D.colors, frozenset((u, v) for u, v in D.arcs if u < v))
    assert_matches_references(dag, range(1, D.n, 3))


def test_catalog_directed_power_graphs_match_references(catalog):
    rng = make_rng(5)
    for name, G in catalog:
        D = directed_power_graph(G)
        for X in (D, random_relabel(D, rng)):
            subset = [v for v in range(X.n) if X.colors[v] % 2]
            assert_matches_references(X, subset)
            r1 = reduce_r1(X).graph
            assert reduce_r2(r1) == reference_reduce_r2(r1), name
            assert reachability(r1) == reference_reachability(r1), name


@pytest.mark.parametrize("n", [0, 1])
def test_tiny_digraphs_match_references(n):
    for arcs in ({(v, v) for v in range(n)}, set()):
        assert_matches_references(
            ColoredDiGraph(n, (1,) * n, frozenset(arcs)), range(n)
        )
