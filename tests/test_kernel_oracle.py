"""The per-kind native kernels of ``ample.rings`` against the generic-ring oracle.

``reference_kernels`` routes every scalar operation through ``Ring.coerce``;
the library's kernels use native ``int``/``Fraction`` arithmetic.  Results
must agree entry for entry, and entries must stay canonical: ``Fraction``
over Q, ``int`` over Z, ``int`` in ``[0, m)`` over Z/m.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from ample import gmodule, gsheaf, rings
from ample.builders import random_invertible, random_module, random_sheaf
from ample.equivalence import block_offsets, epsilon, eta_matrix, gamma_c, sheafify
from ample.rings import (
    INTEGERS,
    RATIONALS,
    Matrix,
    coordinates,
    image_basis,
    intertwiner_constraints,
    kernel_basis,
    matrix_inverse,
    flatten_rows,
    modular,
    row_echelon,
    unflatten_rows,
)
from conftest import random_algebra_element, random_vector
from test_hom_reduction import (
    GROUPOIDS as HOM_GROUPOIDS,
    PAIR5_MODULES,
    PAIR5_RANK_CAP,
    extra_modules,
    groupoids,  # the fixture of named groupoids
    modules_for,
)

ELIMINATION_RINGS = (RATIONALS, INTEGERS, modular(2), modular(5), modular(1000003))
ALL_RINGS = ELIMINATION_RINGS + (modular(6),)
DIMS = st.integers(0, 5)
SETTINGS = settings(max_examples=150, deadline=None)


def scalars(ring):
    small = st.integers(-7, 7)
    if ring.kind == "Q":
        return st.one_of(
            st.just(0), small, st.fractions(min_value=-7, max_value=7, max_denominator=6)
        )
    if ring.modulus is not None and ring.modulus > 100:
        return st.one_of(st.just(0), small, st.integers(-(10**7), 10**7))
    return st.one_of(st.just(0), small)


@st.composite
def matrices(draw, ring, rows, cols):
    """A random matrix; about a third are products through a thin inner
    dimension, so rank deficiency is common over every ring."""
    if rows and cols and draw(st.integers(0, 2)) == 0:
        inner = draw(st.integers(0, min(rows, cols)))
        left = draw(matrices(ring, rows, inner))
        right = draw(matrices(ring, inner, cols))
        return ref.matmul(left, right)
    data = [[draw(scalars(ring)) for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(ring, data, cols=cols)


def assert_canonical(ring, values):
    for x in values:
        if ring.kind == "Q":
            assert type(x) is Fraction, (ring.name, x)
        else:
            assert type(x) is int, (ring.name, x)
            if ring.modulus is not None:
                assert 0 <= x < ring.modulus, (ring.name, x)


def assert_same_matrix(ring, got, want):
    assert got == want
    for row in got.entries:
        assert_canonical(ring, row)


@SETTINGS
@given(ring=st.sampled_from(ALL_RINGS), data=st.data())
def test_matmul_matches_reference(ring, data):
    r, k, c = data.draw(DIMS), data.draw(DIMS), data.draw(DIMS)
    a = data.draw(matrices(ring, r, k))
    b = data.draw(matrices(ring, k, c))
    assert_same_matrix(ring, a @ b, ref.matmul(a, b))


@SETTINGS
@given(ring=st.sampled_from(ALL_RINGS), data=st.data())
def test_vector_ops_match_reference(ring, data):
    """Matrix sums, differences, scalings and negation, row by row against
    the reference row operations."""
    r, c = data.draw(DIMS), data.draw(DIMS)
    a = data.draw(matrices(ring, r, c))
    b = data.draw(matrices(ring, r, c))
    scalar = data.draw(scalars(ring))
    pairs = tuple(zip(a.entries, b.entries))
    for got, want in (
        (a + b, tuple(ref.vec_add(ring, x, y) for x, y in pairs)),
        (a - b, tuple(ref.vec_sub(ring, x, y) for x, y in pairs)),
        (a.scaled(scalar), tuple(ref.vec_scale(ring, scalar, x) for x in a.entries)),
        (-a, tuple(ref.vec_scale(ring, -1, x) for x in a.entries)),
    ):
        assert_same_matrix(ring, got, Matrix(ring, r, c, want))


@SETTINGS
@given(ring=st.sampled_from(ELIMINATION_RINGS), data=st.data())
def test_row_echelon_matches_reference(ring, data):
    a = data.draw(matrices(ring, data.draw(DIMS), data.draw(DIMS)))
    got, want = row_echelon(a), ref.row_echelon(a)
    assert got.pivots == want.pivots
    assert_same_matrix(ring, got.reduced, want.reduced)
    assert_same_matrix(ring, got.transform, want.transform)
    assert_same_matrix(ring, got.transform @ a, got.reduced)


@SETTINGS
@given(ring=st.sampled_from(ELIMINATION_RINGS), data=st.data())
def test_kernel_and_image_match_reference(ring, data):
    r, c = data.draw(DIMS), data.draw(DIMS)
    a = data.draw(matrices(ring, r, c))
    assert_same_matrix(ring, kernel_basis(a), ref.kernel_basis(a))
    assert_same_matrix(ring, image_basis(a), ref.image_basis(a))


@SETTINGS
@given(ring=st.sampled_from(ELIMINATION_RINGS), data=st.data())
def test_matrix_inverse_matches_reference(ring, data):
    n = data.draw(DIMS)
    a = data.draw(matrices(ring, n, n))
    got, want = matrix_inverse(a), ref.matrix_inverse(a)
    if want is None:
        assert got is None
    else:
        assert_same_matrix(ring, got, want)
        assert (a @ got).is_identity


# -- Q with hard denominators --------------------------------------------------
#
# The Q kernels scale rows and columns to integers over common denominators
# and divide by gcds as they go.  Large coprime denominators make those lcms
# and gcds do real work; zero rows and columns and thin products exercise the
# zero and rank-deficient paths.


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


HARD_PRIMES = (2, 3, 7, 97, 7919) + tuple(n for n in range(999_000, 10**6) if _is_prime(n))
HARD_SCALARS = st.one_of(
    st.just(0),
    st.integers(-(10**9), 10**9),
    st.builds(Fraction, st.integers(-(10**9), 10**9), st.sampled_from(HARD_PRIMES)),
)


@st.composite
def hard_q_matrices(draw, rows, cols):
    """A Q matrix over large coprime denominators: about a third are products
    through a thin inner dimension, and some rows and columns are zeroed."""
    if rows and cols and draw(st.integers(0, 2)) == 0:
        inner = draw(st.integers(0, min(rows, cols) - 1))
        left = draw(hard_q_matrices(rows, inner))
        right = draw(hard_q_matrices(inner, cols))
        return ref.matmul(left, right)
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    data = [
        [0 if i in zero_rows or j in zero_cols else draw(HARD_SCALARS) for j in range(cols)]
        for i in range(rows)
    ]
    return Matrix.from_rows(RATIONALS, data, cols=cols)


def hard_q_vectors(n):
    return st.lists(HARD_SCALARS, min_size=n, max_size=n).map(lambda v: ref.vec(RATIONALS, v))


@SETTINGS
@given(data=st.data())
def test_q_products_match_reference_on_hard_denominators(data):
    r, k, c = data.draw(DIMS), data.draw(DIMS), data.draw(DIMS)
    a = data.draw(hard_q_matrices(r, k))
    b = data.draw(hard_q_matrices(k, c))
    assert_same_matrix(RATIONALS, a @ b, ref.matmul(a, b))


@SETTINGS
@given(data=st.data())
def test_q_elimination_matches_reference_on_hard_denominators(data):
    r, c = data.draw(DIMS), data.draw(DIMS)
    a = data.draw(hard_q_matrices(r, c))
    got, want = row_echelon(a), ref.row_echelon(a)
    assert got.pivots == want.pivots
    assert_same_matrix(RATIONALS, got.reduced, want.reduced)
    assert_same_matrix(RATIONALS, got.transform, want.transform)
    assert_same_matrix(RATIONALS, kernel_basis(a), ref.kernel_basis(a))


@SETTINGS
@given(data=st.data())
def test_q_inverse_matches_reference_on_hard_denominators(data):
    n = data.draw(DIMS)
    a = data.draw(hard_q_matrices(n, n))
    got, want = matrix_inverse(a), ref.matrix_inverse(a)
    if want is None:
        assert got is None
    else:
        assert_same_matrix(RATIONALS, got, want)
        assert (a @ got).is_identity


def common_denominator_form(entries):
    """The integer numerators of ``entries`` over the lcm of their denominators."""
    d = math.lcm(*(x.denominator for row in entries for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in entries), d


def assert_normalised(form):
    nums, d = form
    assert d > 0 and math.gcd(d, *(x for row in nums for x in row)) == 1
    assert all(type(x) is int for row in nums for x in row)


@SETTINGS
@given(data=st.data())
def test_q_form_is_the_normalised_common_denominator_form(data):
    """Built from entries or by a kernel, a Q matrix's integer form is its
    entries over the lcm of their denominators, with no common factor left."""
    r, k, c = data.draw(DIMS), data.draw(DIMS), data.draw(DIMS)
    a = data.draw(hard_q_matrices(r, k))
    b = data.draw(hard_q_matrices(k, c))
    for m in (a, b, a @ b, image_basis(a), kernel_basis(a), a.scaled(Fraction(3, 10))):
        assert_normalised(m.q_form)
        assert m.q_form == common_denominator_form(m.entries)


@SETTINGS
@given(data=st.data())
def test_q_warm_matrix_matches_reference_in_every_kernel(data):
    """One matrix, its integer forms built by its first product, reused as
    left and right operand, as elimination input and, echelonized, as a
    basis: every result has the reference values and types, and the cached
    forms still describe the matrix afterwards."""
    r, c, k = data.draw(DIMS), data.draw(DIMS), data.draw(DIMS)
    a = data.draw(hard_q_matrices(r, c))
    lefts = [data.draw(hard_q_matrices(k, r)) for _ in range(2)]
    rights = [data.draw(hard_q_matrices(c, k)) for _ in range(2)]
    u = data.draw(hard_q_vectors(r))
    for _ in range(2):
        for b in rights:
            assert_same_matrix(RATIONALS, a @ b, ref.matmul(a, b))
        for b in lefts:
            assert_same_matrix(RATIONALS, b @ a, ref.matmul(b, a))
        ech, want = row_echelon(a), ref.row_echelon(a)
        assert ech.pivots == want.pivots
        assert_same_matrix(RATIONALS, ech.reduced, want.reduced)
        assert_same_matrix(RATIONALS, ech.transform, want.transform)
    basis = image_basis(a)
    targets = [
        Matrix.from_rows(RATIONALS, [u], r) @ a,
        Matrix.from_rows(RATIONALS, [data.draw(hard_q_vectors(c))], c),
    ]
    for _ in range(2):
        for target in targets:
            got, want = coordinates(basis, target), ref.coordinates(basis, target)
            if want is None:
                assert got is None
            else:
                assert_same_matrix(RATIONALS, got, want)
    for m in (a, basis):
        assert_normalised(m.q_form)
        assert m.q_form == common_denominator_form(m.entries)


@SETTINGS
@given(ring=st.sampled_from((RATIONALS, INTEGERS, modular(5), modular(4))), data=st.data())
def test_q_fraction_built_and_kernel_built_matrices_agree(ring, data):
    """Over Q a matrix a kernel built holds only its integer form, one built
    from entries holds only the entries; off Q the form is the entries tuple
    itself over 1, held under both names by a kernel result and derived
    with no copy by a constructed matrix.  Equal values agree in equality,
    hash, repr and reports, whichever form each side holds or derives
    first."""
    r, c = data.draw(DIMS), data.draw(DIMS)
    q = ring is RATIONALS
    a = data.draw(hard_q_matrices(r, c) if q else matrices(ring, r, c))
    kernel_built = (a + a).scaled(Fraction(1, 2)) if q else (a + a) - a
    fresh = Matrix(ring, r, c, a.entries)
    assert "q_form" not in vars(fresh)
    if q:
        assert "entries" not in vars(kernel_built)
    else:
        for m in (kernel_built, fresh):
            assert m.q_form[1] == 1 and m.entries is m.q_form[0]
    assert kernel_built == fresh and fresh == kernel_built
    assert hash(kernel_built) == hash(fresh)
    assert repr(kernel_built) == repr(fresh) and kernel_built.to_json() == fresh.to_json()
    if r and c:
        bump = Fraction(1, 7) if q else 1
        corner = [[bump if i == j == 0 else 0 for j in range(c)] for i in range(r)]
        bumped = kernel_built + Matrix.from_rows(ring, corner)
        assert bumped != fresh and fresh != bumped


def test_q_form_is_built_once_per_matrix(monkeypatch):
    """A matrix built from entries derives its integer form on first use and
    keeps it; a kernel result is born with its form."""
    built = []
    real = rings._q_form
    monkeypatch.setattr(rings, "_q_form", lambda entries: built.append(entries) or real(entries))
    q = lambda *rows: Matrix.from_rows(RATIONALS, rows)
    a = q([Fraction(1, 3), 2, 0], [0, Fraction(-5, 7), 1])
    b = q([1, 0], [Fraction(1, 2), 3], [0, Fraction(2, 9)])
    c = q([Fraction(4, 5), 0, 1, 2], [1, 1, 0, 0], [0, 0, Fraction(1, 6), 1])
    ab = a @ b
    assert len(built) == 2
    a @ c  # a's form is kept
    assert len(built) == 3
    c.column_slice(0, 3) @ b  # the slice is a kernel result, b's form is kept
    ab.entries  # reading entries derives them, not the form
    ab @ ab.scaled(2) - ab
    row_echelon(a)
    assert len(built) == 3
    basis = image_basis(b)
    coordinates(basis, Matrix.from_rows(RATIONALS, [b.row(1)]))  # the target's form only
    assert len(built) == 4


# (m, n, w): with every entry m - 1 and inner dimension n, every entry of
# the product is the slot bound n·(m-1)², and w bytes are the smallest slot
# of 1, 2, 4 and 8 that holds it (0: none does, the per-entry path)
SLOT_BOUNDARIES = [
    (2, 255, 1),
    (2, 256, 2),
    (5, 15, 1),  # 240
    (5, 16, 2),  # 256
    (17, 255, 2),  # 65280
    (17, 256, 4),  # 65536
    (257, 3, 4),
    (2147483647, 4, 8),  # 2^64 - 2^35 + 16
    (2147483647, 5, 0),
    (4, 28, 1),  # 252
    (4, 29, 2),
    (6, 10, 1),  # 250
    (6, 11, 2),
]


def assert_matches_products(a, b):
    """``a @ b`` and the reference ``matmul`` both equal the per-entry
    product oracle."""
    want = Matrix(a.ring, a.rows, b.cols, ref.products(a.entries, b.entries, b.cols, a.ring.modulus))
    assert_same_matrix(a.ring, a @ b, want)
    assert ref.matmul(a, b) == want


@pytest.mark.parametrize("m,n,w", SLOT_BOUNDARIES)
def test_packed_products_at_the_slot_bound(m, n, w):
    ring = modular(m)
    top = lambda r, c: Matrix.from_rows(ring, [[m - 1] * c for _ in range(r)], c)
    packed = rings._pack_rows(top(n, 3).q_form[0], m)
    assert (packed[0] if packed else 0) == w
    assert_matches_products(top(2, n), top(n, 3))
    rng = random.Random(m * 1000 + n)
    # random entries, m - 1 in the corners, and a zero row on either side
    a = [[rng.randrange(m) for _ in range(n)] for _ in range(3)] + [[0] * n]
    b = [[rng.randrange(m) for _ in range(4)] for _ in range(n)]
    a[0][0] = a[0][-1] = b[0][0] = b[-1][-1] = m - 1
    b[n // 2] = [0] * 4
    assert_matches_products(Matrix.from_rows(ring, a, n), Matrix.from_rows(ring, b, 4))


@pytest.mark.parametrize("m", [2, 5, 6, 257, 2147483647, 2**61 - 1])
def test_packed_products_of_empty_and_zero_operands(m):
    ring = modular(m)
    full = lambda r, c: Matrix.from_rows(ring, [[(i + j) % m for j in range(c)] for i in range(r)], c)
    for r, n, c in [(0, 3, 2), (2, 3, 0), (2, 0, 3), (0, 0, 0), (0, 3, 0), (3, 2, 4)]:
        assert_matches_products(full(r, n), full(n, c))
        assert_matches_products(Matrix.zeros(ring, r, n), full(n, c))
        assert_matches_products(full(r, n), Matrix.zeros(ring, n, c))


def test_right_operands_are_packed_once(monkeypatch):
    """A matrix packs its rows on first use as a right operand over Z/m and
    keeps them for every later product and ``coordinates`` check; Q and Z
    products and identity operands pack nothing."""
    packed = []
    real = rings._pack_rows
    monkeypatch.setattr(rings, "_pack_rows", lambda rows, m: packed.append(rows) or real(rows, m))
    f5 = modular(5)
    basis = image_basis(Matrix.from_rows(f5, [[1, 2, 0, 4], [0, 1, 3, 3], [1, 3, 3, 2]]))
    a = Matrix.from_rows(f5, [[1, 4], [2, 0], [3, 3]])
    b = Matrix.from_rows(f5, [[0, 1], [4, 4]])
    target = a @ basis
    a @ basis
    b @ basis
    assert coordinates(basis, target) == a
    assert packed == [basis.q_form[0]]
    identity = Matrix.identity(f5, 2)
    assert identity @ b is b and b @ identity is b and a @ identity is a
    assert packed == [basis.q_form[0]]
    for ring in (RATIONALS, INTEGERS):
        x = Matrix.from_rows(ring, [[1, 2], [3, -4]])
        y = Matrix.from_rows(ring, [[1, 0, 2], [1, 1, 0]])
        x @ y
        x @ y
        coordinates(image_basis(y), x @ y)
        assert "_packs" not in vars(y)
    assert packed == [basis.q_form[0]]


def test_q_kernels_build_no_fraction_until_entries_are_read(monkeypatch):
    """Over Q a kernel result holds integers only: products, sums, equality,
    the identity test, elimination, coordinates and inverses on such
    operands build no ``Fraction``; reading the entries builds each nonzero
    one once."""
    q = lambda *rows: Matrix.from_rows(RATIONALS, rows).scaled(1)
    a = q([Fraction(1, 3), 2, 0], [0, Fraction(-5, 7), 1], [1, 1, Fraction(1, 2)])
    b = q([1, 0, Fraction(2, 9)], [Fraction(1, 2), 3, 0], [0, Fraction(2, 9), 0])
    plane = q([1, 2, 0], [0, 1, 3])
    inside = q([Fraction(2, 3), Fraction(4, 3), 0], [5, 11, 3])
    outside = q([1, 0, 0])
    assert RATIONALS.zero == 0  # the shared zero exists before the count starts
    built = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    product = a @ b
    total, difference = a + b, a - b
    assert product != total and total == b + a and hash(total) == hash(b + a)
    assert difference != a and not difference.is_identity
    row_echelon(product)
    basis = image_basis(plane)
    assert coordinates(basis, inside) is not None
    assert coordinates(basis, outside) is None
    inverse = matrix_inverse(a)
    assert inverse is not None and (a @ inverse).is_identity
    assert built == []

    entries = product.entries
    assert product.entries is entries
    assert len(built) == sum(1 for row in entries for x in row if x) > 0


@pytest.mark.parametrize("groupoid", ("p3", "z2_action"))
def test_q_hom_bases_and_epsilon_build_no_fraction_on_kernel_built_inputs(
    groupoid, request, monkeypatch
):
    """Over Q the hom bases, a random hom and ε read and build the integer
    form only: on modules and sheaves whose matrices kernels built (the
    builders conjugate by products), none of them builds a ``Fraction``."""
    g = request.getfixturevalue(groupoid)
    m1, m2 = (random_module(g, RATIONALS, 3, seed) for seed in (1, 2))
    e, f = (random_sheaf(g, RATIONALS, 2, seed) for seed in (5, 7))
    assert min(m1.rank, m2.rank, e.total_rank, f.total_rank) > 0
    assert RATIONALS.zero == 0  # the shared zero exists before the count starts
    built = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    basis = gmodule.hom_space_basis(m1, m2)
    sheaf_basis = gsheaf.sheaf_hom_basis(e, f)
    hom = gmodule.random_hom(m1, m2, random.Random(3))
    certificate = epsilon(e)
    assert built == []
    assert basis and sheaf_basis and certificate.ok and gmodule.validate_hom(hom).ok


ROW_OP_RINGS = (RATIONALS, INTEGERS, modular(2), modular(5))


@pytest.mark.parametrize("ring", ROW_OP_RINGS + (modular(17),), ids=lambda r: r.name)
def test_random_invertible_matches_reference(ring):
    """Same draws, same matrix: the native row operations change no value.
    The inverse handed back with it, built from the reversed operations, is
    the reference inverse of the matrix."""
    for n in range(8):
        for seed in range(8):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got, got_inverse = random_invertible(ring, n, rng)
            want = ref.random_invertible(ring, n, ref_rng)
            assert_same_matrix(ring, got, want)
            assert rng.getstate() == ref_rng.getstate()
            assert_same_matrix(ring, got_inverse, ref.matrix_inverse(want))


def _near_identities(ring, n, rng):
    """The identity of size n, then copies with one stray off-diagonal entry
    and with one wrong diagonal entry, at seeded positions."""
    rows = [list(r) for r in Matrix.identity(ring, n).entries]
    out = [rows]
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        stray = [list(r) for r in rows]
        stray[i][j] = ring.coerce(rng.choice([1, -1]))
        out.append(stray)
    if n >= 1:
        i = rng.randrange(n)
        for wrong in {ring.zero, ring.coerce(2), ring.coerce(-1)} - {ring.one}:
            bad = [list(r) for r in rows]
            bad[i][i] = wrong
            out.append(bad)
    return [Matrix(ring, n, n, tuple(map(tuple, r))) for r in out]


@pytest.mark.parametrize("ring", ROW_OP_RINGS, ids=lambda r: r.name)
def test_is_identity_matches_reference(ring):
    for n in range(6):
        for seed in range(8):
            rng = random.Random(seed)
            cases = _near_identities(ring, n, rng) + [
                Matrix.zeros(ring, n, n),
                Matrix.identity(ring, n + 1).column_slice(0, n),
                Matrix(ring, n, n + 1, tuple(r + (ring.zero,) for r in Matrix.identity(ring, n).entries)),
                random_invertible(ring, n, rng)[0],
            ]
            for m in cases:
                assert m.is_identity == ref.is_identity(m), (m.rows, m.cols, m.entries)
    assert Matrix(ring, 0, 0, ()).is_identity


@pytest.mark.parametrize("ring", ROW_OP_RINGS, ids=lambda r: r.name)
def test_sheaf_morphism_inverse_matches_reference(ring, p2, monkeypatch):
    """``GSheafMor.inverse`` is the componentwise reference inverse, or None
    when a component is singular or not square, and it is computed once."""
    eliminations = []
    real_inverse = gsheaf.matrix_inverse
    monkeypatch.setattr(
        gsheaf, "matrix_inverse", lambda a: eliminations.append(a) or real_inverse(a)
    )
    for n in range(6):
        for seed in range(8):
            rng = random.Random(seed)
            e = gsheaf.constant_sheaf(p2, ring, n)
            f = gsheaf.constant_sheaf(p2, ring, n + seed % 2)  # odd seeds: not square
            maps = {}
            for x in p2.objects:
                if rng.randrange(3):
                    maps[x] = random_invertible(ring, n, rng)[0] if e == f else Matrix.zeros(ring, n, n + 1)
                else:
                    maps[x] = Matrix.from_rows(
                        ring, [random_vector(ring, f.stalk_rank[x], rng) for _ in range(n)], f.stalk_rank[x]
                    )
            phi = gsheaf.GSheafMor(e, f, maps)
            eliminations.clear()
            got = phi.inverse
            want = {x: ref.matrix_inverse(maps[x]) for x in p2.objects}
            if any(w is None for w in want.values()):
                assert got is None
            else:
                assert (got.source, got.target) == (f, e)
                for x in p2.objects:
                    assert_same_matrix(ring, got.maps[x], want[x])
            done = len(eliminations)
            assert 1 <= done <= len(p2.objects)
            assert phi.inverse is got
            assert len(eliminations) == done


@pytest.mark.parametrize("ring", ROW_OP_RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("groupoid", ("p2", "z2", "z2_action", "edge_groupoid"))
def test_section_action_matches_reference(ring, groupoid, request):
    """The stalkwise action on a section, against the library's matrix route:
    the section's row vector times the sum of the scaled action matrices of
    Γ_c(E), all in ``Matrix`` products and sums."""
    g = request.getfixturevalue(groupoid)
    rng = random.Random(17)
    for seed in range(6):
        e = random_sheaf(g, ring, 2, seed)
        m = gamma_c(e)
        offsets = block_offsets(e)
        v = random_vector(ring, e.total_rank, rng)
        s = ref.Section(e, {x: v[offsets[x]: offsets[x] + e.stalk_rank[x]] for x in g.objects})
        f = random_algebra_element(g, ring, rng)
        action = Matrix.zeros(ring, m.rank, m.rank)
        for a, c in f.coeffs.items():
            action = action + m.action[a].scaled(c)
        got = (Matrix.from_rows(ring, [v], m.rank) @ action).entries[0]
        want = ref.section_action(s, f)
        assert got == tuple(c for x in g.objects for c in want.values[x])
        assert_canonical(ring, got)


# two_component_groupoid draws different stalk ranks on its two components
SHEAF_GROUPOIDS = ("p2", "z2", "z2_action", "edge_groupoid", "two_component_groupoid")


@pytest.mark.parametrize(
    "ring", (RATIONALS, INTEGERS, modular(2), modular(5)), ids=lambda r: r.name
)
@pytest.mark.parametrize("groupoid", SHEAF_GROUPOIDS)
@pytest.mark.parametrize("seeds", ((1, 2), (3, 4), (5, 6)))
def test_hom_space_constraints_match_reference(ring, groupoid, seeds, request, monkeypatch):
    """The native grid fill builds the same canonical constraint matrices.

    ``hom_space_basis`` solves on base stalks, so the module grid is built
    by calling the builder directly on every arrow's pair of actions, the
    system ``ref.hom_constraint`` fills.  ``sheaf_hom_basis`` eliminates one
    system per component with isotropy: the one-block grid of the base
    isotropy transports, as the evaluating oracle builds it."""
    g = request.getfixturevalue(groupoid)
    m1, m2 = (random_module(g, ring, 2, s) for s in seeds)
    pairs = [(m1.action[a], m2.action[a]) for a in g.arrows]
    got = intertwiner_constraints(ring, m1.rank, m2.rank, pairs)
    assert_same_matrix(ring, got, ref.hom_constraint(m1, m2))

    seen = []

    def capture(constraint):
        seen.append(constraint)
        return kernel_basis(constraint)

    monkeypatch.setattr(gmodule, "kernel_basis", capture)
    e, f = (random_sheaf(g, ring, 2, s) for s in seeds)
    gsheaf.sheaf_hom_basis(e, f)
    want = []
    for base in (comp[0] for comp in g.isotropy_plan.components if e.total_rank * f.total_rank):
        equations = [
            (e.transport[k], 0, 0, f.transport[k]) for k in g.hom_set(base, base) if k != g.unit[base]
        ]
        if equations:
            block = (e.stalk_rank[base], f.stalk_rank[base])
            want.append(ref.intertwiner_constraints(ring, [block], equations))
    assert len(seen) == len(want)
    for got, w in zip(seen, want):
        assert_same_matrix(ring, got, w)


@SETTINGS
@given(ring=st.sampled_from(ELIMINATION_RINGS), data=st.data())
def test_intertwiner_constraints_match_evaluation(ring, data):
    """The grid is the one read off by evaluating every pair on each unit
    unknown, and ``flatten_rows`` and ``unflatten_rows`` join and cut blocks
    of unequal shapes as ``split_blocks`` cuts a flat vector."""
    small = st.integers(0, 3)
    rows, cols = data.draw(small), data.draw(small)
    pairs = [
        (data.draw(matrices(ring, rows, rows)), data.draw(matrices(ring, cols, cols)))
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    got = intertwiner_constraints(ring, rows, cols, pairs)
    want = ref.intertwiner_constraints(ring, [(rows, cols)], [(l, 0, 0, r) for l, r in pairs])
    assert_same_matrix(ring, got, want)

    blocks = data.draw(st.lists(st.tuples(small, small), min_size=1, max_size=3))
    total = sum(r * c for r, c in blocks)
    flat = ref.vec(ring, data.draw(st.lists(scalars(ring), min_size=total, max_size=total)))
    parts = ref.split_blocks(ring, blocks, flat)
    assert [(x.rows, x.cols) for x in parts] == blocks
    assert tuple(v for x in parts for row in x.entries for v in row) == flat
    joined = flatten_rows(ring, total, [parts, parts[::-1]])
    assert joined.row(0) == flat
    for got, want in zip(unflatten_rows(joined, blocks)[0], parts):
        assert_same_matrix(ring, got, want)


def test_intertwiner_constraints_reject_an_equation_that_misfits_its_blocks():
    one = Matrix.identity(RATIONALS, 1)
    with pytest.raises(ValueError, match="does not fit"):
        intertwiner_constraints(RATIONALS, 1, 2, [(one, one)])


@pytest.mark.parametrize("ring", ROW_OP_RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("groupoid", SHEAF_GROUPOIDS)
def test_sheaf_hom_basis_and_draw_match_reference(ring, groupoid, request):
    """Same basis as the old per-object grid, and the same random morphism
    and RNG state as the old inline coefficient draw."""
    g = request.getfixturevalue(groupoid)
    for seeds in ((1, 2), (3, 4), (5, 6), (7, 7)):
        e, f = (random_sheaf(g, ring, 2, s) for s in seeds)
        basis = gsheaf.sheaf_hom_basis(e, f)
        assert basis == ref.sheaf_hom_basis(e, f)
        for comp in basis:
            for m in comp.values():
                for row in m.entries:
                    assert_canonical(ring, row)
        rng, ref_rng = random.Random(seeds[0]), random.Random(seeds[0])
        assert gsheaf.random_sheaf_hom(e, f, rng) == ref.random_sheaf_hom(e, f, ref_rng)
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("ring", ROW_OP_RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("name", HOM_GROUPOIDS)
def test_eta_matrix_matches_reference(groupoids, name, ring):
    """Rows read off the unit actions give the matrix that pushing each
    basis vector through ``germ_at`` gives, on the hom-reduction modules."""
    g = groupoids[name]
    if name == "pair5" and ring.name in ("Q", "Z"):
        mods = modules_for(g, ring, cap=PAIR5_RANK_CAP, limit=PAIR5_MODULES)
    else:
        mods = modules_for(g, ring, extra_modules(name, g, ring))
    assert mods
    for m in mods:
        sh = sheafify(m)
        assert_same_matrix(ring, eta_matrix(sh), ref.eta_matrix(sh))
