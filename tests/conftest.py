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
from ample.gmodule import GModule, GModuleHom
from ample.groupoid import Bisection, FiniteGroupoid, ObjectId, object_subset
from ample.gsheaf import GSheaf, GSheafMor
from ample.rings import INTEGERS, RATIONALS, Matrix, Ring, Scalar, modular

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


def small_vector(ring: Ring, n: int, rng: random.Random) -> tuple[Scalar, ...]:
    """n scalars drawn as ``gmodule.random_hom`` draws its coefficients:
    uniform over Z/m, in -3..3 over Q and Z."""
    if ring.kind == "mod":
        return tuple(ring.coerce(rng.randrange(ring.modulus)) for _ in range(n))
    return tuple(ring.coerce(rng.randint(-3, 3)) for _ in range(n))


def random_algebra_element(g: FiniteGroupoid, ring: Ring, rng: random.Random):
    support_size = rng.randint(0, min(4, len(g.arrows)))
    coeffs = {}
    for _ in range(support_size):
        coeffs[g.arrows[rng.randrange(len(g.arrows))]] = random_scalar(ring, rng)
    return algebra_element(g, ring, coeffs)


def bumped_matrix(m: Matrix, i: int, j: int) -> Matrix:
    """m with one added to the entry at (i, j)."""
    rows = [list(r) for r in m.entries]
    rows[i][j] += 1
    return Matrix.from_rows(m.ring, rows, m.cols)


def split_units_module(p2: FiniteGroupoid) -> GModule:
    """Not a module, and without a germ sheaf: rank 2 over Fp:5 on pair(2),
    unit actions diag(1,0) and diag(0,1), and the identity on (1,2) and
    (2,1), which moves the first stalk off itself."""
    one = Matrix.identity(F5, 2)
    units = {"(1,1)": Matrix.from_rows(F5, [[1, 0], [0, 0]]), "(2,2)": Matrix.from_rows(F5, [[0, 0], [0, 1]])}
    return GModule(p2, F5, 2, {"(1,2)": one, "(2,1)": one, **units})


def identity_hom(m: GModule) -> GModuleHom:
    return GModuleHom(m, m, Matrix.identity(m.ring, m.rank))


def zero_hom(m: GModule, n: GModule) -> GModuleHom:
    return GModuleHom(m, n, Matrix.zeros(m.ring, m.rank, n.rank))


def identity_sheaf_mor(e: GSheaf) -> GSheafMor:
    return GSheafMor(e, e, {x: Matrix.identity(e.ring, e.stalk_rank[x]) for x in e.groupoid.objects})


def zero_sheaf_mor(e: GSheaf, f: GSheaf) -> GSheafMor:
    return GSheafMor(
        e, f, {x: Matrix.zeros(e.ring, e.stalk_rank[x], f.stalk_rank[x]) for x in e.groupoid.objects}
    )


def source_objects(g: FiniteGroupoid, u: Bisection) -> tuple[ObjectId, ...]:
    """The compact open set U^{-1}U, i.e. the source objects of U."""
    return object_subset(g, (g.src[a] for a in u))


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
