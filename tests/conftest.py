from __future__ import annotations

import random

import pytest

from ample.algebra import algebra_element
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
from ample.groupoid import FiniteGroupoid
from ample.rings import INTEGERS, RATIONALS, Ring, Scalar, modular

Q = RATIONALS
Z = INTEGERS
F2 = modular(2)
F5 = modular(5)

ALL_RINGS = (Q, Z, F2, F5)
FIELDS = (Q, F2, F5)


def random_scalar(ring: Ring, rng: random.Random) -> Scalar:
    if ring.kind == "mod":
        return ring.coerce(rng.randrange(ring.modulus))
    return ring.coerce(rng.randint(-4, 4))


def random_vector(ring: Ring, n: int, rng: random.Random) -> tuple[Scalar, ...]:
    return tuple(random_scalar(ring, rng) for _ in range(n))


def random_algebra_element(g: FiniteGroupoid, ring: Ring, rng: random.Random):
    support_size = rng.randint(0, min(4, len(g.arrows)))
    coeffs = {}
    for _ in range(support_size):
        coeffs[g.arrows[rng.randrange(len(g.arrows))]] = random_scalar(ring, rng)
    return algebra_element(g, ring, coeffs)


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
