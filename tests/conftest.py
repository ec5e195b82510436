from __future__ import annotations

import pytest

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
from ample.rings import INTEGERS, RATIONALS, modular

Q = RATIONALS
Z = INTEGERS
F2 = modular(2)
F5 = modular(5)

ALL_RINGS = (Q, Z, F2, F5)
FIELDS = (Q, F2, F5)


@pytest.fixture(scope="session")
def point():
    return trivial_groupoid()


@pytest.fixture(scope="session")
def p2():
    return pair_groupoid(2)


@pytest.fixture(scope="session")
def p3():
    return pair_groupoid(3)


@pytest.fixture(scope="session")
def z2():
    elems, table = cyclic_group(2)
    return group_groupoid(elems, table)


@pytest.fixture(scope="session")
def z3():
    elems, table = cyclic_group(3)
    return group_groupoid(elems, table)


@pytest.fixture(scope="session")
def z2_action():
    elems, table = cyclic_group(2)
    return action_groupoid(elems, table, list(elems), dict(table))


@pytest.fixture(scope="session")
def edge_groupoid():
    return acyclic_graph_groupoid(single_edge_graph())


@pytest.fixture(scope="session")
def two_component_groupoid():
    """The graph u -> w plus an isolated vertex v: components {v} and
    {w, u-e0-w}, so stalk and module ranks differ between components."""
    return acyclic_graph_groupoid(GraphSpec(("u", "v", "w"), (("u", "w"),)))


@pytest.fixture(scope="session")
def small_groupoids(p2, z2, z3, z2_action, edge_groupoid):
    """The five standing examples, all with at most 8 arrows."""
    return (p2, z2, z3, z2_action, edge_groupoid)
