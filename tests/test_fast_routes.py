"""The identity routes of products and elimination, and the batched stalk
coordinates, against their references.

``A @ B`` returns the other operand when one side is the identity, and
``row_echelon`` returns an identity as its own reduced form and transform;
``reference_kernels`` multiplies and eliminates without either shortcut.
``rings.coordinates`` reads a whole matrix of coordinates off the pivot
columns of a reduced basis and checks them with one product (over Z it
divides row by row); the reference expresses one row at a time.
``sheafify``, ``sh_mor``, ``eta_matrix`` and the isotropy frame call it,
and must agree with their per-row references entry for entry.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_kernels as ref
from ample import rings
from ample.equivalence import eta_matrix, sh_mor, sheafify
from ample.gmodule import GModule, GModuleHom, hom_space_basis, random_hom, regular_module
from ample.rings import (
    INTEGERS,
    RATIONALS,
    Matrix,
    coordinates,
    image_basis,
    matrix_inverse,
    modular,
    row_echelon,
)
from test_hom_reduction import (
    GROUPOIDS as HOM_GROUPOIDS,
    PAIR5_MODULES,
    PAIR5_RANK_CAP,
    extra_modules,
    groupoids,  # the fixture of named groupoids
    modules_for,
)
from test_kernel_oracle import (
    DIMS,
    SETTINGS,
    _near_identities,
    assert_same_matrix,
    hard_q_matrices,
    matrices,
    scalars,
)

RINGS = (RATIONALS, INTEGERS, modular(2), modular(5))


def identity_like(ring, n, rng):
    """Square matrices of size n that equal the identity or nearly do, each
    built with ``Matrix(...)``, so none is the shared identity object."""
    built = Matrix(ring, n, n, tuple(tuple(r) for r in Matrix.identity(ring, n).entries))
    assert built is not Matrix.identity(ring, n)
    return [built] + _near_identities(ring, n, rng)[1:]


# -- identity operands -----------------------------------------------------------------


@SETTINGS
@given(ring=st.sampled_from(RINGS), data=st.data())
def test_identity_operands_return_the_other_operand(ring, data):
    n, k = data.draw(DIMS), data.draw(DIMS)
    other_right = data.draw(matrices(ring, n, k))
    other_left = data.draw(matrices(ring, k, n))
    for square in identity_like(ring, n, random.Random(data.draw(st.integers(0, 99)))):
        right, left = square @ other_right, other_left @ square
        assert_same_matrix(ring, right, ref.matmul(square, other_right))
        assert_same_matrix(ring, left, ref.matmul(other_left, square))
        if ref.is_identity(square):  # either operand, when both are identities
            assert right is other_right or ref.is_identity(other_right)
            assert left is other_left or ref.is_identity(other_left)
    # non-square shapes that hold an identity block are not identities
    wide = Matrix(ring, n, n + 1, tuple(r + (ring.zero,) for r in Matrix.identity(ring, n).entries))
    tall = Matrix.identity(ring, n + 1).column_slice(0, n)
    for a, b in ((wide, data.draw(matrices(ring, n + 1, k))), (tall, other_right)):
        assert not a.is_identity
        assert_same_matrix(ring, a @ b, ref.matmul(a, b))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_empty_identity_products_keep_their_shapes(ring):
    empty = Matrix(ring, 0, 0, ())
    assert empty.is_identity
    for k in range(3):
        right = Matrix.zeros(ring, 0, k)
        left = Matrix.zeros(ring, k, 0)
        assert empty @ right == right == ref.matmul(empty, right)
        assert left @ empty == left == ref.matmul(left, empty)
        assert (left @ right) == ref.matmul(left, right) == Matrix.zeros(ring, k, k)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_identity_products_still_check_ring_and_shape(ring):
    other = modular(3) if ring != modular(3) else modular(7)
    with pytest.raises(ValueError, match="ring mismatch"):
        Matrix.identity(ring, 2) @ Matrix.identity(other, 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        Matrix.identity(ring, 2) @ Matrix.zeros(ring, 3, 1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        Matrix.zeros(ring, 1, 3) @ Matrix.identity(ring, 2)


# -- identity eliminations --------------------------------------------------------------


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_identity_echelon_inverse_and_image_match_reference(ring):
    for n in range(6):
        for seed in range(4):
            for a in identity_like(ring, n, random.Random(seed)):
                got, want = row_echelon(a), ref.row_echelon(a)
                assert got.pivots == want.pivots
                assert_same_matrix(ring, got.reduced, want.reduced)
                assert_same_matrix(ring, got.transform, want.transform)
                if ref.is_identity(a):
                    assert got.reduced is a and got.transform is a
                inverse, want_inverse = matrix_inverse(a), ref.matrix_inverse(a)
                assert (inverse is None) == (want_inverse is None)
                if inverse is not None:
                    assert_same_matrix(ring, inverse, want_inverse)
                assert_same_matrix(ring, image_basis(a), ref.image_basis(a))


def test_identity_echelon_still_rejects_a_composite_modulus():
    with pytest.raises(rings.UnsupportedRingError):
        row_echelon(Matrix.identity(modular(6), 2))


# -- batched coordinates ----------------------------------------------------------------


def _echelon_bases(ring, a, data):
    """The bases ``coordinates`` takes for the row space of ``a``: its basis
    (reduced over a field, in Hermite form over Z) and the same with a
    trailing zero row; over Z also echelon bases that are not in Hermite
    form: rows rescaled by nonzero integers (a sublattice), and each row
    plus a multiple of the next (the same lattice)."""
    basis = image_basis(a)
    out = [basis, Matrix(ring, basis.rows + 1, basis.cols, basis.entries + ((ring.zero,) * basis.cols,))]
    if not ring.is_field:
        nonzero = scalars(ring).filter(bool)
        out.append(Matrix(ring, basis.rows, basis.cols, tuple(
            ref.vec_scale(ring, data.draw(nonzero), row) for row in basis.entries
        )))
        rows = list(basis.entries)
        for i in range(len(rows) - 1):
            rows[i] = ref.vec_add(ring, rows[i], ref.vec_scale(ring, data.draw(scalars(ring)), rows[i + 1]))
        out.append(Matrix(ring, basis.rows, basis.cols, tuple(rows)))
    return out


@SETTINGS
@given(ring=st.sampled_from(RINGS), data=st.data())
def test_coordinates_match_the_per_row_reference(ring, data):
    r, c, k = data.draw(DIMS), data.draw(DIMS), data.draw(DIMS)
    a = data.draw(matrices(ring, r, c))
    inside = ref.matmul(data.draw(matrices(ring, k, r)), a)
    anywhere = data.draw(matrices(ring, k, c))
    mixed = Matrix(ring, 2 * k, c, inside.entries + anywhere.entries)
    for basis in _echelon_bases(ring, a, data):
        for m in (inside, anywhere, mixed, Matrix.zeros(ring, 0, c)):
            got, want = coordinates(basis, m), ref.coordinates(basis, m)
            if want is None:
                assert got is None
            else:
                assert_same_matrix(ring, got, want)
                assert ref.matmul(got, basis) == m


@SETTINGS
@given(data=st.data())
def test_q_coordinates_match_the_per_row_reference_on_hard_denominators(data):
    """The Q check compares integer numerators across different common
    denominators; large coprime ones make every scale factor matter."""
    r, c, k = data.draw(DIMS), data.draw(DIMS), data.draw(DIMS)
    a = data.draw(hard_q_matrices(r, c))
    inside = ref.matmul(data.draw(hard_q_matrices(k, r)), a)
    anywhere = data.draw(hard_q_matrices(k, c))
    for basis in _echelon_bases(RATIONALS, a, data):
        for m in (inside, anywhere):
            got, want = coordinates(basis, m), ref.coordinates(basis, m)
            if want is None:
                assert got is None
            else:
                assert_same_matrix(RATIONALS, got, want)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_coordinates_reject_a_foreign_ring_or_width(ring):
    basis = Matrix.identity(ring, 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        coordinates(basis, Matrix.zeros(ring, 1, 3))
    other = modular(3) if ring != modular(3) else modular(7)
    with pytest.raises(ValueError, match="ring mismatch"):
        coordinates(basis, Matrix.zeros(other, 1, 2))


# -- the callers, against their per-row loops ------------------------------------------------


def _modules(groupoids, name, ring):
    g = groupoids[name]
    if name == "pair5" and ring.name in ("Q", "Z"):
        return modules_for(g, ring, cap=PAIR5_RANK_CAP, limit=PAIR5_MODULES)
    return modules_for(g, ring, extra_modules(name, g, ring))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("name", HOM_GROUPOIDS)
def test_sheafify_eta_and_frame_match_the_per_row_loops(groupoids, name, ring):
    mods = _modules(groupoids, name, ring)
    assert mods
    for m in mods:
        sh, want = sheafify(m), ref.sheafify(m)
        assert sh.sheaf.stalk_rank == want.sheaf.stalk_rank
        for x, basis in want.stalk_basis.items():
            assert_same_matrix(ring, sh.stalk_basis[x], basis)
        for a, transport in want.sheaf.transport.items():
            assert_same_matrix(ring, sh.sheaf.transport[a], transport)
        assert_same_matrix(ring, eta_matrix(sh), ref.eta_matrix(sh))
        frame, want_frame = m.isotropy_frame, ref.isotropy_frame(m)
        assert frame.dims == want_frame.dims
        for x, loops in want_frame.loops.items():
            assert len(frame.loops[x]) == len(loops)
            for got_loop, want_loop in zip(frame.loops[x], loops):
                assert_same_matrix(ring, got_loop, want_loop)
        for part in ("lift", "drop"):
            for y, matrix in getattr(want_frame, part).items():
                assert_same_matrix(ring, getattr(frame, part)[y], matrix)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("name", ("point", "p2", "z2", "z2_action", "edge_groupoid", "s3_points"))
def test_sh_mor_matches_the_per_row_loop(groupoids, name, ring):
    """On intertwiners drawn from the hom spaces, on the identity, and on a
    matrix that intertwines nothing."""
    mods = _modules(groupoids, name, ring)[:3]
    rng = random.Random(5)
    for m1 in mods:
        for m2 in mods:
            sh1, sh2 = sheafify(m1), sheafify(m2)
            homs = [random_hom(m1, m2, rng)] + [GModuleHom(m1, m2, b) for b in hom_space_basis(m1, m2)[:2]]
            homs.append(GModuleHom(m1, m2, Matrix.from_rows(
                ring, [[rng.randint(-2, 2) for _ in range(m2.rank)] for _ in range(m1.rank)], m2.rank
            )))
            if m1 is m2:
                homs.append(GModuleHom(m1, m1, Matrix.identity(ring, m1.rank)))
            for f in homs:
                got, want = sh_mor(f, sh1, sh2), ref.sh_mor(f, sh1, sh2)
                assert (got.source, got.target) == (want.source, want.target)
                for x, matrix in want.maps.items():
                    assert_same_matrix(ring, got.maps[x], matrix)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_sheafify_rejects_an_action_that_leaves_the_stalks_like_the_reference(p2, ring):
    """The regular module of pair(2) with the arrow (1,2) acting as the
    identity: its first stalk basis row leaves the next stalk."""
    m = regular_module(p2, ring)
    broken = GModule(p2, ring, m.rank, {**m.action, "(1,2)": Matrix.identity(ring, m.rank)})
    with pytest.raises(ValueError) as got:
        sheafify(broken)
    with pytest.raises(ValueError) as want:
        ref.sheafify(broken)
    assert str(got.value) == str(want.value)
    assert "does not preserve stalk lattices" in str(got.value)


# -- products held as they come ---------------------------------------------------------


def _assert_reference_product(a, b):
    """``a @ b`` is a fresh matrix holding the form and entries of
    ``Matrix.from_ints`` of the reference integer product."""
    (left, d), (right, e) = a.q_form, b.q_form
    want = Matrix.from_ints(a.ring, ref.products(left, right, b.cols, a.ring.modulus), b.cols, d * e)
    got = a @ b
    assert got is not a and got is not b
    assert got.q_form == want.q_form and got.entries == want.entries
    assert_same_matrix(a.ring, got, ref.matmul(a, b))


@pytest.mark.parametrize("ring", [modular(2), modular(5), modular(6), modular(65537)], ids=lambda r: r.name)
def test_modular_products_are_held_as_the_reference_computes_them(ring):
    """Over Z/m a product's entries are reduced and over 1, so it is held as
    it comes; each packing width and a composite modulus are covered."""
    rng = random.Random(ring.modulus)
    for n, k, m in ((1, 1, 1), (2, 3, 4), (4, 4, 4), (5, 2, 3), (3, 0, 2), (0, 3, 2)):
        for _ in range(5):
            a = Matrix.from_ints(ring, [[rng.randrange(-9, 99) for _ in range(k)] for _ in range(n)], k)
            b = Matrix.from_ints(ring, [[rng.randrange(-9, 99) for _ in range(m)] for _ in range(k)], m)
            if not (ref.is_identity(a) or ref.is_identity(b)):  # those return the other operand
                _assert_reference_product(a, b)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_near_identity_operands_take_the_arithmetic_route(ring):
    """A non-square matrix whose top rows are the identity's, an inner
    dimension of 0, and over Q the identity's numerators over 2 are no
    identities: their products are computed and equal the reference.  The
    0×0 matrix is the identity of size 0, so it returns the other operand."""
    rng = random.Random(7)
    wide = Matrix.identity(ring, 3).row_slice(0, 2)  # 2×3, the identity's top rows
    top = Matrix.from_ints(ring, [[1, 0], [0, 1], [rng.randrange(5), 3]], 2)  # 3×2, identity on top
    b3 = Matrix.from_ints(ring, [[rng.randrange(-5, 5) for _ in range(3)] for _ in range(3)], 3)
    b2 = Matrix.from_ints(ring, [[rng.randrange(-5, 5) for _ in range(3)] for _ in range(2)], 3)
    for a, b in ((wide, b3), (top, b2), (b3.row_slice(0, 2), Matrix.zeros(ring, 3, 0)),
                 (Matrix.zeros(ring, 2, 0), Matrix.zeros(ring, 0, 3))):
        _assert_reference_product(a, b)
    if ring.kind == "Q":
        half = Matrix.identity(ring, 3).scaled(Fraction(1, 2))
        assert half.q_form == (Matrix.identity(ring, 3).q_form[0], 2)
        _assert_reference_product(half, b3)
        _assert_reference_product(b3, half)
    empty = Matrix.zeros(ring, 0, 0)
    for other in (Matrix.zeros(ring, 0, 3), Matrix.zeros(ring, 0, 0)):
        assert empty @ other is other and other == Matrix.from_ints(ring, ref.products((), (), other.cols), other.cols)
    assert Matrix.zeros(ring, 2, 0) @ empty == ref.matmul(Matrix.zeros(ring, 2, 0), empty)
