"""The coordinate-projector routes against the reference kernels.

A coordinate projector is a square matrix over the denominator 1 whose row
i is either zero or row i of the identity.  ``image_basis`` returns its
nonzero rows with no elimination, ``coordinates`` in a basis of unit rows
reads columns, and ``sheafify`` of a module whose unit actions are all
projectors reads each transport off a block of the action.
``reference_kernels`` eliminates and expresses row by row with none of
these routes; every result must equal its own, on projectors, on matrices
that nearly are, and on the modules built from them.
"""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_kernels as ref
from ample import equivalence, rings
from ample.builders import pair_groupoid, random_module, random_sheaf
from ample.equivalence import epsilon, gamma_c, sheafify
from ample.gmodule import GModule
from ample.gsheaf import GSheaf
from ample.rings import (
    INTEGERS,
    RATIONALS,
    Matrix,
    UnsupportedRingError,
    block_diagonal,
    coordinates,
    image_basis,
    modular,
    projector_rows,
)
from ample.validation import Failure
from test_hom_reduction import GROUPOIDS, groupoids  # noqa: F401 (the fixture of named groupoids)
from test_kernel_oracle import DIMS, SETTINGS, assert_same_matrix, matrices

RINGS = (RATIONALS, INTEGERS, modular(2), modular(5))


def kept_rows(a):
    """``projector_rows`` by its definition, on the entries: the nonzero
    rows when every row i is zero or row i of the identity, else None."""
    n = a.rows
    if n != a.cols:
        return None
    if not all(not any(row) or row == ref.unit_vec(a.ring, n, i) for i, row in enumerate(a.entries)):
        return None
    return tuple(i for i, row in enumerate(a.entries) if any(row))


@st.composite
def projectors(draw, ring, n):
    kept = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return Matrix.from_rows(ring, [[int(i == j and i in kept) for j in range(n)] for i in range(n)], n)


@st.composite
def near_projectors(draw, ring, n):
    """A projector of size n >= 1 with one entry set: a stray 1 off the
    diagonal, a 2 or a -1 on it, over Q a non-integer entry, or 0."""
    rows = [list(row) for row in draw(projectors(ring, n)).entries]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    values = [0, 1, 2, -1] + ([Fraction(1, 2), Fraction(3, 2)] if ring.kind == "Q" else [])
    rows[i][j] = draw(st.sampled_from(values))
    return Matrix.from_rows(ring, rows, n)


def empty_shapes(ring):
    return [Matrix.zeros(ring, r, c) for r, c in ((0, 0), (0, 3), (3, 0))]


# -- image_basis and coordinates ---------------------------------------------------------


@SETTINGS
@given(ring=st.sampled_from(RINGS), data=st.data())
def test_image_basis_of_projectors_and_near_projectors_matches_the_reference(ring, data):
    n = data.draw(DIMS)
    cases = [data.draw(projectors(ring, n)), *empty_shapes(ring)]
    if n:
        cases += [data.draw(near_projectors(ring, n)) for _ in range(3)]
    for a in cases:
        assert projector_rows(a) == kept_rows(a)
        assert_same_matrix(ring, image_basis(a), ref.image_basis(a))


def _stray(ring, m, data):
    """``m`` with one entry set to a nonzero scalar, at a drawn place."""
    if not m.rows or not m.cols:
        return m
    rows = [list(row) for row in m.entries]
    i, j = data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.cols - 1))
    rows[i][j] = data.draw(st.sampled_from([1, 2, -1] + ([Fraction(1, 3)] if ring.kind == "Q" else [])))
    return Matrix.from_rows(ring, rows, m.cols)


@SETTINGS
@given(ring=st.sampled_from(RINGS), data=st.data())
def test_coordinates_in_unit_rows_match_the_reference(ring, data):
    """Bases of unit rows (a projector's image basis, also with a trailing
    zero row), and the image bases of near-projectors; rows inside the row
    space, anywhere, and inside with one stray entry."""
    n, k = data.draw(DIMS), data.draw(DIMS)
    a = data.draw(projectors(ring, n))
    bases = [image_basis(a)]
    bases.append(Matrix(ring, bases[0].rows + 1, n, bases[0].entries + ((ring.zero,) * n,)))
    if n:
        bases.append(image_basis(data.draw(near_projectors(ring, n))))
    for basis in bases:
        inside = ref.matmul(data.draw(matrices(ring, k, basis.rows)), basis)
        for m in (inside, data.draw(matrices(ring, k, n)), _stray(ring, inside, data), Matrix.zeros(ring, 0, n)):
            got, want = coordinates(basis, m), ref.coordinates(basis, m)
            if want is None:
                assert got is None
            else:
                assert_same_matrix(ring, got, want)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_coordinates_in_unit_rows_of_empty_shapes(ring):
    for basis in (Matrix.zeros(ring, 0, 0), Matrix.zeros(ring, 0, 2), Matrix.identity(ring, 2).row_slice(1, 2)):
        for k in range(3):
            for m in (Matrix.zeros(ring, k, basis.cols), Matrix.from_rows(ring, [[1] * basis.cols] * k, basis.cols)):
                got, want = coordinates(basis, m), ref.coordinates(basis, m)
                assert (got is None) == (want is None)
                if want is not None:
                    assert_same_matrix(ring, got, want)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_coordinates_in_unit_rows_out_of_order_or_scaled(ring):
    """Unit rows in decreasing order are a basis like any other; a repeated
    unit row, and over Q unit rows over a denominator, are no echelon basis
    of a field, so ``coordinates`` only promises that a C it returns solves
    C @ basis = m, and over Z it reduces against the rows in turn."""
    e0, e1 = Matrix.identity(ring, 2).entries
    half = Fraction(1, 2)
    bases = [Matrix(ring, 2, 2, (e1, e0)), Matrix(ring, 2, 2, (e0, e0)), Matrix(ring, 2, 2, (e1, e1))]
    if ring.kind == "Q":
        bases.append(Matrix.from_rows(ring, [[half, 0], [0, half]]))
    ms = [Matrix.from_rows(ring, [row], 2) for row in ([1, 0], [0, 1], [1, 1], [0, 0], [2, 3])]
    for basis in bases:
        for m in ms:
            got, want = coordinates(basis, m), ref.coordinates(basis, m)
            if got is not None:
                assert ref.matmul(got, basis) == m
            if basis.entries[0] != basis.entries[1] and ring.kind != "Q" or ring.kind == "Z":
                assert (got is None) == (want is None)
                if want is not None:
                    assert_same_matrix(ring, got, want)


def test_a_composite_modulus_still_raises_on_a_projector():
    ring = modular(6)
    p = Matrix.from_rows(ring, [[1, 0], [0, 0]])
    assert projector_rows(p) == (0,)
    with pytest.raises(UnsupportedRingError):
        image_basis(p)
    with pytest.raises(UnsupportedRingError):
        coordinates(p.row_slice(0, 1), p)
    g = pair_groupoid(1)
    with pytest.raises(UnsupportedRingError):
        sheafify(GModule(g, ring, 2, {"(1,1)": p}))


# -- sheafify --------------------------------------------------------------------------


def assert_sheafify_matches(m):
    """``sheafify(m)`` equals the reference: the same stalk bases and
    transports, or the same "germ sheaf" failure with the same witness."""
    try:
        want = ref.sheafify(m)
    except ValueError as exc:
        assert equivalence._germ_sheaf(m) == Failure("germ sheaf", str(exc))
        return None
    got = sheafify(m)
    assert list(got.sheaf.stalk_rank.items()) == list(want.sheaf.stalk_rank.items())
    for x, basis in want.stalk_basis.items():
        assert_same_matrix(m.ring, got.stalk_basis[x], basis)
    for a, transport in want.sheaf.transport.items():
        assert_same_matrix(m.ring, got.sheaf.transport[a], transport)
    return got


def _sheaves(g, ring):
    return [random_sheaf(g, ring, max_rank, seed) for max_rank in (0, 1, 2, 3) for seed in range(2)]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("name", GROUPOIDS)
def test_sheafify_of_section_modules_matches_the_reference(groupoids, name, ring):
    for e in _sheaves(groupoids[name], ring):
        m = gamma_c(e)
        assert all(projector_rows(m.unit_action(x)) is not None for x in e.groupoid.objects)
        assert assert_sheafify_matches(m) is not None


def _with_entry(a, i, j, value):
    rows = [list(row) for row in a.entries]
    rows[i][j] = a.ring.coerce(value)
    return Matrix.from_rows(a.ring, rows, a.cols)


def _split_units(e, rng):
    """The section module of ``e`` with each unit action cut down to a
    coordinate projector that drops a random set of its block's rows."""
    m, g = gamma_c(e), e.groupoid
    action = dict(m.action)
    for x in g.objects:
        unit = m.unit_action(x)
        for i in projector_rows(unit):
            if rng.random() < 0.4:
                unit = _with_entry(unit, i, i, 0)
        action[g.unit[x]] = unit
    return GModule(g, e.ring, m.rank, action)


def _padded(e, extra):
    """The section module of ``e`` plus ``extra`` rows that every arrow,
    and so every unit, sends to zero: rows outside every stalk."""
    m = gamma_c(e)
    zero = Matrix.zeros(e.ring, extra, extra)
    action = {a: block_diagonal(e.ring, [m.action[a], zero]) for a in e.groupoid.arrows}
    return GModule(e.groupoid, e.ring, m.rank + extra, action)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("name", ("point", "p2", "p3", "z2", "z2_action", "edge_groupoid", "two_component_groupoid"))
def test_perturbed_projector_modules_match_the_reference(groupoids, name, ring):
    """An entry off the source block in a row kept at the destination makes
    no germ sheaf, with the reference's witness; an entry in a row that no
    unit action keeps changes no transport."""
    g, rng = groupoids[name], random.Random(7)
    arrows = [a for a in g.arrows if a not in g.unit.values()]
    for e in _sheaves(g, ring):
        for m in (gamma_c(e), _split_units(e, rng), _padded(e, 2)):
            kept = {x: projector_rows(m.unit_action(x)) for x in g.objects}
            base = assert_sheafify_matches(m)
            for a in arrows:
                off = [j for j in range(m.rank) if j not in kept[g.src[a]]]
                if kept[g.dst[a]] and off:
                    broken = _with_entry(m.action[a], rng.choice(kept[g.dst[a]]), rng.choice(off), 1)
                    assert assert_sheafify_matches(GModule(g, ring, m.rank, {**m.action, a: broken})) is None
        m = _padded(e, 2)
        base = assert_sheafify_matches(m)
        for a in arrows:
            stray = _with_entry(m.action[a], rng.choice((m.rank - 2, m.rank - 1)), rng.randrange(m.rank), 1)
            got = assert_sheafify_matches(GModule(g, ring, m.rank, {**m.action, a: stray}))
            assert got.sheaf.transport == base.sheaf.transport


# -- which route runs ------------------------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Calls of ``rings.row_echelon`` and ``Matrix.__matmul__``, by name."""
    calls = Counter()
    echelon, matmul = rings.row_echelon, Matrix.__matmul__

    def counted_echelon(a):
        calls["row_echelon"] += 1
        return echelon(a)

    def counted_matmul(a, b):
        calls["matmul"] += 1
        return matmul(a, b)

    monkeypatch.setattr(rings, "row_echelon", counted_echelon)
    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    return calls


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_projector_modules_sheafify_with_no_product_or_elimination(groupoids, counted, ring):
    for name in GROUPOIDS:
        g = groupoids[name]
        for e in _sheaves(g, ring):
            assert all(e.transport[g.unit[x]].is_identity for x in g.objects)
            m = gamma_c(e)
            counted.clear()
            sheafify(m)
            assert counted == {}, name
    point = groupoids["point"]
    for seed in range(4):
        m = random_module(point, ring, 3, seed)
        counted.clear()
        sheafify(m)
        assert counted == {}


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_random_modules_still_eliminate(counted, ring):
    """A random change of basis hides the blocks of a section module, so
    its unit actions are no projectors unless the change only permutes and
    signs coordinates (seed 2 draws one over Q, Z and Fp:2)."""
    g, general = pair_groupoid(3), 0
    for seed in range(6):
        m = random_module(g, ring, 3, seed)
        assert_sheafify_matches(m)
        counted.clear()
        sheafify(m)
        if any(projector_rows(m.unit_action(x)) is None for x in g.objects):
            general += 1
            assert counted["row_echelon"] > 0 and counted["matmul"] > 0
    assert general >= 5


def test_unit_transport_2_is_no_projector(counted, point):
    """Its section module takes the general route, and its counit fails
    over Z and passes over Fp:5 as before."""
    for ring, ok in ((INTEGERS, False), (modular(5), True)):
        e = GSheaf(point, ring, {"1": 1}, {"(1,1)": Matrix.from_rows(ring, [[2]])})
        assert projector_rows(gamma_c(e).unit_action("1")) is None
        counted.clear()
        assert epsilon(e).ok is ok
        assert counted["row_echelon"] > 0


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_projector_modules_test_each_unit_action_once(groupoids, monkeypatch, ring):
    """``sheafify`` tests each unit action for a projector once and builds
    the stalk bases from the kept rows, with no second test in
    ``image_basis``; the tests above hold the bases to the reference."""
    calls = []
    real = rings.projector_rows
    counted = lambda a: calls.append(a) or real(a)  # noqa: E731
    monkeypatch.setattr(rings, "projector_rows", counted)
    monkeypatch.setattr(equivalence, "projector_rows", counted)
    rng = random.Random(3)
    for name in GROUPOIDS:
        g = groupoids[name]
        for e in _sheaves(g, ring):
            for m in (gamma_c(e), _split_units(e, rng), _padded(e, 2)):
                calls.clear()
                equivalence._germ_sheaf(m)  # the bases come first, so a broken module counts too
                assert len(calls) == len(g.objects), name
