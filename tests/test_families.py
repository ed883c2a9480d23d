"""Non-abelian families built from their generators: dicyclic groups,
whose maximal cyclic subgroups all share the central involution,
metacyclic, permutation and matrix groups.  Reconstruction from Pow and
EPow is checked on each against the group's own directed power graph,
and the nilpotent isomorphism test on every pair of nilpotent groups of
order 16 and of order 27 against brute force."""

from itertools import combinations_with_replacement

import pytest

from pgk.ccg_detection import mark_ccg_enhanced, mark_ccg_power
from pgk.cli import main
from pgk.graph_core import brute_force_color_iso
from pgk.group_core import (
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    heisenberg_group,
    quaternion_group,
)
from pgk.nilpotent_iso import graph_iso_nilpotent
from pgk.powergraph_build import directed_power_graph, enhanced_power_graph, power_graph
from pgk.reconstruction import (
    dpow_from_enhanced_graph,
    dpow_from_power_graph,
    r4_from_marked_graph,
)

from helpers import (
    dicyclic_group,
    family_groups,
    is_abelian,
    is_nilpotent,
    make_rng,
    metacyclic_group,
    pair_colors,
    random_relabel,
    save_graph,
)

FAMILIES = family_groups()
NAMES = [name for name, _ in FAMILIES]
BUILDERS = {"dpow": directed_power_graph, "pow": power_graph, "epow": enhanced_power_graph}
LIFTS = {"pow": dpow_from_power_graph, "epow": dpow_from_enhanced_graph}

# order, nilpotent and the number of involutions, from each group's definition
SHAPES = {
    "Dic3": (12, False, 1), "Q16": (16, True, 1), "Dic5": (20, False, 1),
    "Dic6": (24, False, 1), "Q32": (32, True, 1), "SD16": (16, True, 5),
    "M16": (16, True, 3), "Z9⋊Z3": (27, True, 0), "Z7⋊Z3": (21, False, 0),
    "F20": (20, False, 5), "F42": (42, False, 7), "Z3⋊Z8": (24, False, 1),
    "A4": (12, False, 3), "S4": (24, False, 9), "A5": (60, False, 15),
    "S5": (120, False, 25), "SL(2,3)": (24, False, 1), "GL(2,3)": (48, False, 13),
}

Z, X = cyclic_group, direct_product
ORDER_16 = [
    Z(16), X(Z(2), Z(8)), X(Z(4), Z(4)), X(X(Z(2), Z(2)), Z(4)),
    elementary_abelian_group(2, 4), metacyclic_group(8, 2, 5), dihedral_group(8),
    dicyclic_group(4), metacyclic_group(8, 2, 3), X(Z(2), dihedral_group(4)),
    X(Z(2), quaternion_group()), metacyclic_group(4, 4, 3),
]
ORDER_27 = [
    Z(27), X(Z(3), Z(9)), elementary_abelian_group(3, 3), heisenberg_group(3),
    metacyclic_group(9, 3, 4),
]


@pytest.mark.parametrize("name, G", FAMILIES, ids=NAMES)
def test_builders_give_the_named_groups(name, G):
    assert not is_abelian(G)
    assert (G.order, is_nilpotent(G), G.element_orders.count(2)) == SHAPES[name]


@pytest.mark.parametrize("kind", sorted(LIFTS))
@pytest.mark.parametrize("name, G", FAMILIES, ids=NAMES)
def test_reconstruction_gives_the_directed_power_graph(name, G, kind):
    graph = random_relabel(BUILDERS[kind](G), make_rng(G.order))
    D = LIFTS[kind](graph)
    assert brute_force_color_iso(D, directed_power_graph(G), cap=G.order) is not None


@pytest.mark.parametrize("k", [3, 4, 5, 6, 8])
@pytest.mark.parametrize("kind", sorted(LIFTS))
def test_dicyclic_r4_pairs_all_have_color_2(k, kind):
    # <a> and the k subgroups <b·a^i> are the maximal cyclic subgroups,
    # and any two meet in <a^k>
    graph = BUILDERS[kind](dicyclic_group(k))
    mark = mark_ccg_power if kind == "pow" else mark_ccg_enhanced
    r4 = r4_from_marked_graph(graph, mark(graph))
    assert r4.m == k + 1
    assert len(pair_colors(r4)) == r4.m * (r4.m - 1) // 2
    assert set(pair_colors(r4).values()) == {2}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("groups", [ORDER_16, ORDER_27], ids=["order16", "order27"])
def test_iso_agrees_with_brute_force_on_nilpotent_pairs(groups, kind):
    assert all(map(is_nilpotent, groups))
    rng = make_rng(len(groups))
    for (i, G), (j, H) in combinations_with_replacement(enumerate(groups), 2):
        X1, X2 = BUILDERS[kind](G), random_relabel(BUILDERS[kind](H), rng)
        truth = brute_force_color_iso(X1, X2) is not None
        assert graph_iso_nilpotent(X1, X2, kind) == truth, (i, j)


@pytest.mark.parametrize(
    "name, G", [pytest.param(*f, id=f[0]) for f in FAMILIES if not SHAPES[f[0]][1]]
)
def test_non_nilpotent_iso_exit_4(tmp_path, name, G):
    rng = make_rng(G.order)
    a, b = str(tmp_path / "a.graph"), str(tmp_path / "b.graph")
    for kind, build in BUILDERS.items():
        save_graph(build(G), a, with_colors=False)
        save_graph(random_relabel(build(G), rng), b, with_colors=False)
        assert main(["iso", a, b, "--kind", kind]) == 4, kind
