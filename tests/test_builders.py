from __future__ import annotations

import pytest

from ample.algebra import multiplication_table
from ample.builders import (
    GraphSpec,
    acyclic_graph_groupoid,
    action_groupoid,
    cyclic_group,
    group_groupoid,
    pair_groupoid,
    single_edge_graph,
    trivial_groupoid,
)
from ample.groupoid import validate_groupoid
from ample.morita import GroupoidFunctor, is_essential_equivalence

from conftest import F2, Q


# -- pair groupoids -------------------------------------------------------------


def test_pair_groupoid_sizes():
    assert len(trivial_groupoid().arrows) == 1
    p2 = pair_groupoid(2)
    assert len(p2.arrows) == 4 and len(p2.objects) == 2
    assert validate_groupoid(p2).ok
    with pytest.raises(ValueError):
        pair_groupoid(0)


def test_p3_table_is_3x3_matrix_units():
    p3 = pair_groupoid(3)
    table = multiplication_table(p3, Q)
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                for l in range(1, 4):
                    got = table.cells[(f"({i},{j})", f"({k},{l})")]
                    assert got == (f"({i},{l})" if j == k else None)


# -- group groupoids --------------------------------------------------------------


def test_trivial_group_groupoid():
    elems, table = cyclic_group(1)
    g = group_groupoid(elems, table)
    assert len(g.objects) == 1 and len(g.arrows) == 1
    assert validate_groupoid(g).ok


def test_z2_group_algebra_structure(z2):
    assert validate_groupoid(z2).ok
    table = multiplication_table(z2, Q)
    assert table.cells[("g", "g")] == "e"


def test_z3_has_three_dimensional_algebra(z3):
    assert len(z3.arrows) == 3
    table = multiplication_table(z3, F2)
    assert table.cells[("g", "g")] == "g2"
    assert table.cells[("g", "g2")] == "e"


def test_non_group_table_rejected():
    with pytest.raises(ValueError):
        group_groupoid(("a", "b"), {("a", "a"): "a", ("a", "b"): "b",
                                    ("b", "a"): "b", ("b", "b"): "b"})  # no inverse for b


def table_of(elements, rows):
    return {(a, b): rows[i][j] for i, a in enumerate(elements) for j, b in enumerate(elements)}


@pytest.mark.parametrize("elements, table, problem", [
    (("a", "a"), {("a", "a"): "a"}, "duplicate element names"),
    (("a", "b"), {("a", "a"): "a"}, "product (a,b) missing or unknown"),
    (("a", "b"), table_of("ab", ["aa", "aa"]), "no identity element"),
    (("a", "b"), table_of("ab", ["ab", "bb"]), "element b has no inverse"),
    # Z/3 with a·a set to a: every law holds but associativity
    (("e", "a", "b"), table_of("eab", ["eab", "aae", "bea"]), "associativity fails at (a,a,b)"),
])
def test_group_table_failures_name_the_first_law(elements, table, problem):
    with pytest.raises(ValueError) as group_error:
        group_groupoid(elements, table)
    with pytest.raises(ValueError) as action_error:
        action_groupoid(elements, table, ["x"], {(g, "x"): "x" for g in elements})
    assert str(group_error.value) == str(action_error.value) == f"not a group table: {problem}"


def test_inverses_come_from_the_group_table(z3):
    elems, table = cyclic_group(3)
    action = {(g, str(x)): str((x + elems.index(g)) % 3) for g in elems for x in range(3)}
    rotations = action_groupoid(elems, table, ["0", "1", "2"], action)
    assert z3.inverse == {"e": "e", "g": "g2", "g2": "g"}
    assert rotations.inverse["(g,0)"] == "(g2,1)"
    assert validate_groupoid(rotations).ok


# -- action groupoids ----------------------------------------------------------------


def test_trivial_group_action_gives_discrete_groupoid():
    elems, table = cyclic_group(1)
    g = action_groupoid(elems, table, ["x", "y"], {("e", "x"): "x", ("e", "y"): "y"})
    assert len(g.objects) == 2 and len(g.arrows) == 2
    assert validate_groupoid(g).ok


def test_translation_action_is_equivalent_to_p2(z2_action):
    assert validate_groupoid(z2_action).ok
    assert len(z2_action.arrows) == 4
    p2 = pair_groupoid(2)
    # explicit isomorphism: e->1, g->2 on objects; arrow (h,x) -> (h.x, x)
    obj_map = {"e": "1", "g": "2"}
    relabel = {"e": "1", "g": "2"}
    elems, table = cyclic_group(2)
    arr_map = {}
    for h in elems:
        for x in elems:
            arr_map[f"({h},{x})"] = f"({relabel[table[(h, x)]]},{relabel[x]})"
    functor = GroupoidFunctor(z2_action, p2, obj_map, arr_map)
    assert is_essential_equivalence(functor).ok
    # and back
    inverse_obj = {v: k for k, v in obj_map.items()}
    inverse_arr = {v: k for k, v in arr_map.items()}
    back = GroupoidFunctor(p2, z2_action, inverse_obj, inverse_arr)
    assert is_essential_equivalence(back).ok


def test_z2_trivial_action_on_two_points_splits():
    elems, table = cyclic_group(2)
    action = {(h, x): x for h in elems for x in ("x", "y")}
    g = action_groupoid(elems, table, ["x", "y"], action)
    assert validate_groupoid(g).ok
    assert len(g.arrows) == 4
    comps = g.connected_components()
    assert comps == (("x",), ("y",))
    # each component carries a copy of the two-element group
    assert len(g.hom_set("x", "x")) == 2


def test_invalid_action_rejected():
    elems, table = cyclic_group(2)
    bad = {("e", "x"): "x", ("g", "x"): "x", ("e", "y"): "y", ("g", "y"): "x"}
    with pytest.raises(ValueError, match=r"^not an action: compatibility fails at \(g,g,y\)$"):
        action_groupoid(elems, table, ["x", "y"], bad)


# -- graph groupoids -------------------------------------------------------------------


def test_single_vertex_graph():
    g = acyclic_graph_groupoid(GraphSpec(("v",), ()))
    assert len(g.objects) == 1 and len(g.arrows) == 1
    assert validate_groupoid(g).ok


def test_single_edge_graph_gives_m2(edge_groupoid):
    assert validate_groupoid(edge_groupoid).ok
    assert len(edge_groupoid.objects) == 2
    assert len(edge_groupoid.arrows) == 4
    # canonical boundary-path order: the sink itself, then the length-1 path
    assert edge_groupoid.objects == ("w", "v-e0-w")
    # the algebra is the 2x2 matrix-unit table under that ordering
    table = multiplication_table(edge_groupoid, Q)
    paths = edge_groupoid.objects
    for p in paths:
        for q in paths:
            for r in paths:
                for s in paths:
                    got = table.cells[(f"({p},{q})", f"({r},{s})")]
                    assert got == (f"({p},{s})" if q == r else None)


def test_two_disjoint_edges_give_two_blocks():
    spec = GraphSpec(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
    g = acyclic_graph_groupoid(spec)
    assert validate_groupoid(g).ok
    comps = g.connected_components()
    assert len(comps) == 2
    assert all(len(c) == 2 for c in comps)
    # arrows never cross sinks
    table = multiplication_table(g, Q)
    for (a, b), cell in table.cells.items():
        if cell is not None:
            assert validate_groupoid(g).ok  # structure stays inside blocks
    sinks = {"b", "d"}
    for p in g.objects:
        for q in g.objects:
            crossing = (f"({p},{q})" in g.arrows) and (
                (p in ("b", "a-e0-b")) != (q in ("b", "a-e0-b"))
            )
            assert not crossing


def test_matrix_block_sizes_match_boundary_path_counts():
    # a fork: two paths into one sink plus a second sink with one path
    spec = GraphSpec(("u", "v", "w", "s"), (("u", "w"), ("v", "w"), ("u", "s")))
    g = acyclic_graph_groupoid(spec)
    assert validate_groupoid(g).ok
    comps = g.connected_components()
    sizes = sorted(len(c) for c in comps)
    # sink w receives paths {w, u-w, v-w}; sink s receives {s, u-s}
    assert sizes == [2, 3]
    assert len(g.arrows) == 2 * 2 + 3 * 3
    # the algebra is a direct sum of matrix algebras: per sink block the
    # table is the matrix-unit recurrence, across blocks every product is 0
    table = multiplication_table(g, Q)
    for comp in comps:
        for p in comp:
            for q in comp:
                for r in comp:
                    for s_ in comp:
                        got = table.cells[(f"({p},{q})", f"({r},{s_})")]
                        assert got == (f"({p},{s_})" if q == r else None)
    for a in g.arrows:
        for b in g.arrows:
            in_same = any(
                g.src[a] in comp and g.src[b] in comp for comp in comps
            )
            if not in_same:
                assert table.cells[(a, b)] is None


def test_graph_tables_come_sink_by_sink():
    # sinks in vertex order; per sink its boundary paths by (length, edges),
    # and the pair-groupoid tables on them in (p, q, r) order
    spec = GraphSpec(("u", "v", "w", "s", "x"), (("u", "w"), ("v", "w"), ("u", "s")))
    g = acyclic_graph_groupoid(spec)
    assert g.objects == ("w", "u-e0-w", "v-e1-w", "s", "u-e2-s", "x")
    blocks = (g.objects[:3], g.objects[3:5], g.objects[5:])
    assert g.arrows == tuple(f"({p},{q})" for b in blocks for p in b for q in b)
    assert len(g.arrows) == 14 and (g.arrows[0], g.arrows[-1]) == ("(w,w)", "(x,x)")
    assert list(g.src.items()) == [(f"({p},{q})", q) for b in blocks for p in b for q in b]
    assert list(g.unit.items()) == [(p, f"({p},{p})") for p in g.objects]
    assert list(g.compose.items()) == [
        ((f"({p},{q})", f"({q},{r})"), f"({p},{r})") for b in blocks for p in b for q in b for r in b
    ]
    assert list(g.inverse.items()) == [(f"({p},{q})", f"({q},{p})") for b in blocks for p in b for q in b]
    assert validate_groupoid(g).ok


def test_empty_graph_gives_the_empty_groupoid():
    g = acyclic_graph_groupoid(GraphSpec((), ()))
    assert (g.objects, g.arrows, dict(g.compose)) == ((), (), {})
    assert validate_groupoid(g).ok


def test_cycle_is_rejected_with_diagnostic():
    spec = GraphSpec(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(ValueError, match="cycle"):
        acyclic_graph_groupoid(spec)


def test_graph_spec_validates_references():
    with pytest.raises(ValueError):
        GraphSpec(("a",), (("a", "zz"),))
    with pytest.raises(ValueError):
        GraphSpec(("a", "a"), ())


def test_single_edge_graph_fixture():
    spec = single_edge_graph()
    assert spec.vertices == ("v", "w")
    assert spec.edges == (("v", "w"),)
