"""Convolution and the structure table against the coerce-per-term oracle.

``convolve`` sums products natively and reduces once per composite, and
``multiplication_table`` convolves only the composable pairs and reads each
cell from the product's one key.  ``reference_kernels`` keeps the versions
they replaced; products must agree in their coefficients, in the order of
their keys and in the types of their values, and tables cell by cell in
row-major order.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

import reference_kernels as ref
from ample.algebra import AlgebraElement, algebra_element, convolve, multiplication_table
from ample.builders import GraphSpec, acyclic_graph_groupoid, action_groupoid, cyclic_group, pair_groupoid
from ample.groupoid import FiniteGroupoid
from ample.rings import modular
from conftest import ALL_RINGS, F5, Q, Z, random_algebra_element, random_scalar

Z4 = modular(4)
RINGS = (Q, Z, F5, Z4)


def _action(k: int) -> FiniteGroupoid:
    elements, table = cyclic_group(k)
    return action_groupoid(elements, table, list(elements), dict(table))


def _random_graph(rng: random.Random) -> GraphSpec:
    """An acyclic graph on 2-5 vertices: edges only run up the vertex order."""
    n = rng.randint(2, 5)
    vertices = tuple(f"v{i}" for i in range(n))
    edges = tuple(
        (vertices[i], vertices[j])
        for i in range(n)
        for j in range(i + 1, n)
        for _ in range(rng.choice((0, 0, 1, 2)))
    )
    return GraphSpec(vertices, edges)


def _same(new: AlgebraElement, old: AlgebraElement) -> None:
    assert new.coeffs == old.coeffs
    assert list(new.coeffs) == list(old.coeffs)
    assert [type(c) for c in new.coeffs.values()] == [type(c) for c in old.coeffs.values()]
    assert new.support == ref.support(old)


def _wide_element(g: FiniteGroupoid, ring, rng: random.Random) -> AlgebraElement:
    """Up to eight arrows, so that several terms land on one composite."""
    chosen = rng.sample(g.arrows, rng.randint(0, min(8, len(g.arrows))))
    return algebra_element(g, ring, {a: random_scalar(ring, rng) for a in chosen})


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_convolve_matches_reference_on_random_elements(ring, small_groupoids, p3):
    rng = random.Random(17)
    dropped = 0
    for g in (*small_groupoids, p3, _action(3)):
        for _ in range(60):
            draw = rng.choice((random_algebra_element, _wide_element))
            f1, f2 = draw(g, ring, rng), draw(g, ring, rng)
            new, old = convolve(f1, f2), ref.convolve(f1, f2)
            _same(new, old)
            composites = {g.compose[(a, b)] for a in f1.coeffs for b in f2.coeffs if g.composable(a, b)}
            dropped += len(composites) - len(old.coeffs)
    # Terms cancel over every ring here, and over Z/4 products such as 2·2 vanish.
    assert dropped > 0


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_convolve_matches_reference_on_unnormalised_elements(ring, p3):
    # Built directly, out of declaration order, with integers over Q and
    # values outside [0, m) over Z/m: the constructor accepts them.
    rng = random.Random(5)
    for _ in range(200):
        chosen = rng.sample(p3.arrows, rng.randint(1, 6))
        f1 = AlgebraElement(p3, ring, {a: rng.choice((-7, -2, 3, 6, 9)) for a in reversed(chosen)})
        f2 = AlgebraElement(p3, ring, {a: rng.choice((-5, 2, 4, 10)) for a in chosen})
        _same(convolve(f1, f2), ref.convolve(f1, f2))
        _same(convolve(f2, f1), ref.convolve(f2, f1))


def test_convolution_values_are_canonical(p2):
    unit = p2.unit["1"]
    over_q = convolve(AlgebraElement(p2, Q, {unit: 2}), AlgebraElement(p2, Q, {unit: 3}))
    assert over_q.coeffs == {unit: 6} and type(over_q.coeffs[unit]) is Fraction
    half = AlgebraElement(p2, Q, {unit: Fraction(1, 2)})
    assert convolve(half, AlgebraElement(p2, Q, {unit: 2})).coeffs == {unit: 1}
    two = AlgebraElement(p2, Z4, {unit: 2})
    assert convolve(two, two).is_zero  # 2·2 vanishes mod 4 and is dropped
    unreduced = convolve(AlgebraElement(p2, Z4, {unit: 7}), AlgebraElement(p2, Z4, {unit: -1}))
    assert unreduced.coeffs == {unit: 1}


def test_support_is_in_declaration_order(p3):
    f = AlgebraElement(p3, Q, {a: Fraction(1) for a in reversed(p3.arrows[::2])})
    assert f.support == ref.support(f) == p3.arrows[::2]


def _table_cases() -> dict[str, FiniteGroupoid]:
    rng = random.Random(11)
    graphs: dict[str, FiniteGroupoid] = {}
    while len(graphs) < 12:
        spec = _random_graph(rng)
        g = acyclic_graph_groupoid(spec)
        if len(g.arrows) <= 64:  # the table's size guard
            graphs[f"graph{len(graphs)}"] = g
    return {
        **{f"pair{n}": pair_groupoid(n) for n in range(2, 9)},
        **{f"z{k}-action": _action(k) for k in range(2, 9)},
        **graphs,
    }


TABLE_CASES = _table_cases()


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
@pytest.mark.parametrize("ring", (Q, Z4), ids=lambda r: r.name)
def test_table_matches_reference_on_families(name, ring):
    g = TABLE_CASES[name]
    cells = multiplication_table(g, ring).cells
    expected = ref.table_cells(g, ring)
    assert list(cells.items()) == list(expected.items())


def test_table_matches_reference_on_every_fixture(
    point, p2, p3, z2, z3, z2_action, edge_groupoid, two_component_groupoid
):
    for g in (point, p2, p3, z2, z3, z2_action, edge_groupoid, two_component_groupoid):
        for ring in (*ALL_RINGS, Z4):
            cells = multiplication_table(g, ring).cells
            assert list(cells.items()) == list(ref.table_cells(g, ring).items())
