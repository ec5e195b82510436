"""The one-block routes against the dense paths and the reference kernels.

``rings.assemble`` given one block keeps ``(r, c, block)`` on its result,
and three readers use it: ``read_block`` returns the kept block itself for
exactly its own rows and columns, ``projector_rows`` answers with no scan for
an identity block on the diagonal, and a product whose right operand keeps a
block multiplies only the block's rows.  Each must give what the same matrix
gives with no kept block, form for form.  The section module's actions are
such matrices, so ``sheafify`` reads its sheaf's own transports back.
"""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

import reference_kernels as ref
from ample import equivalence, rings
from ample.builders import pair_groupoid, random_sheaf
from ample.equivalence import eta_matrix, gamma_c, sheafify
from ample.rings import INTEGERS, RATIONALS, Matrix, assemble, modular, projector_rows, read_block
from test_hom_reduction import GROUPOIDS, groupoids  # noqa: F401 (the fixture of named groupoids)
from test_kernel_oracle import assert_same_matrix
from test_projector_routes import kept_rows

RINGS = (RATIONALS, INTEGERS, modular(2), modular(5), modular(65537))


def dense(m):
    """``m`` with no kept block: a matrix of the same entries, built anew."""
    return Matrix(m.ring, m.rows, m.cols, m.entries)


def scalar(ring, rng):
    """Zero a quarter of the time; over Q otherwise a fraction of 60-100 bit
    numerator and denominator."""
    if rng.random() < 0.25:
        return 0
    if ring.kind == "Q":
        sign = rng.choice((1, -1))
        return Fraction(sign * rng.getrandbits(rng.randint(60, 100)), rng.getrandbits(rng.randint(60, 100)) | 1)
    return rng.randrange(-9, 10) if ring.modulus is None else rng.randrange(ring.modulus)


def drawn(ring, rows, cols, rng):
    return Matrix.from_rows(ring, [[scalar(ring, rng) for _ in range(cols)] for _ in range(rows)], cols)


def blocks(ring, rows, cols, rng):
    """Blocks to place in a rows×cols matrix: drawn, identity and zero
    blocks at each corner, empty blocks (0×k and k×0), and full-size ones."""
    found = []
    for br, bc in ((2, 3), (3, 2), (2, 2)):
        for b in (drawn(ring, br, bc, rng), Matrix.zeros(ring, br, bc)):
            found += [(r, c, b) for r in (0, rows - br) for c in (0, cols - bc)]
    eye = Matrix.identity(ring, 2)
    found += [(r, c, eye) for r in (0, rows - 2) for c in (0, cols - 2)]
    for br, bc in ((0, 3), (3, 0), (0, 0)):
        found += [(r, c, Matrix.zeros(ring, br, bc)) for r in (0, rows - br) for c in (0, cols - bc)]
    found += [(0, 0, drawn(ring, rows, cols, rng)), (0, 0, Matrix.zeros(ring, rows, cols))]
    return found


def placed(ring, rows, cols, r, c, b):
    """The rows×cols matrix of ``b`` at (r, c), by its definition."""
    grid = [[0] * cols for _ in range(rows)]
    for i, row in enumerate(b.entries):
        grid[r + i][c:c + b.cols] = row
    return Matrix.from_rows(ring, grid, cols)


def read(a, rows, cols):
    """``read_block`` by its definition, on the entries."""
    if any(a.entries[i][j] for i in rows for j in range(a.cols) if j not in cols):
        return None
    return Matrix.from_rows(a.ring, [[a.entries[i][j] for j in cols] for i in rows], len(cols))


# -- products ------------------------------------------------------------------------


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_products_with_a_kept_block_match_the_reference(ring):
    rng = random.Random(11)
    for rows, cols in ((5, 6), (6, 5), (4, 4)):
        for r, c, b in blocks(ring, rows, cols, rng):
            a = assemble(ring, rows, cols, [(r, c, b)])
            assert a._block == (r, c, b)
            assert_same_matrix(ring, a, placed(ring, rows, cols, r, c, b))
            for n in (0, 1, 3):
                left = drawn(ring, n, rows, rng)
                assert_same_matrix(ring, left @ a, ref.matmul(left, dense(a)))
            if ring.modulus is not None:
                assert "_packs" not in vars(a)  # the block route packs the block, not the whole matrix


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_an_identity_operand_still_returns_the_other(ring):
    rng = random.Random(5)
    for n in (0, 1, 3):
        a = assemble(ring, n, n, [(0, 0, Matrix.identity(ring, n))])
        left = drawn(ring, 2, n, rng)
        assert left @ a is left
        right = assemble(ring, n, 4, [(0, 1, drawn(ring, n, 2, rng))])
        assert Matrix.identity(ring, n) @ right is right


# -- read_block and projector_rows ------------------------------------------------------


def read_cases(rows, cols, r, c, b):
    """Row and column ranges around a block at (r, c): its own, shifted
    each way, narrowed, widened, out of order, and as lists."""
    own_rows, own_cols = range(r, r + b.rows), range(c, c + b.cols)
    row_sets = [own_rows, tuple(own_rows), list(own_rows), range(max(r - 1, 0), min(r - 1 + b.rows, rows)),
                range(r + 1, min(r + 1 + b.rows, rows)), range(rows)]
    col_sets = [own_cols, tuple(own_cols), range(max(c - 1, 0), max(c - 1, 0) + b.cols),
                range(c + 1, min(c + 1 + b.cols, cols)), own_cols[1:], range(cols), tuple(own_cols)[::-1],
                [j for j in range(cols) if j % 2 == 0]]
    return [(rs, cs) for rs in row_sets for cs in col_sets]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_read_block_of_a_kept_block_matches_the_scan(ring):
    rng = random.Random(7)
    for rows, cols in ((5, 6), (4, 4)):
        for r, c, b in blocks(ring, rows, cols, rng) + [(1, 2, Matrix.identity(ring, 2).scaled(2))]:
            a = assemble(ring, rows, cols, [(r, c, b)])
            assert read_block(a, range(r, r + b.rows), range(c, c + b.cols)) is b
            for rs, cs in read_cases(rows, cols, r, c, b):
                got, scanned, want = read_block(a, rs, cs), read_block(dense(a), rs, cs), read(a, rs, cs)
                for found in (got, scanned):
                    assert (found is None) == (want is None), (r, c, b, rs, cs)
                    if want is not None:
                        assert_same_matrix(ring, found, want)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_projector_rows_of_a_kept_block_matches_the_scan(ring):
    eye, two, diag = Matrix.identity(ring, 2), Matrix.identity(ring, 2).scaled(2), Matrix.from_rows(ring, [[1, 0], [0, 0]])
    cases = [(4, 4, r, c, b) for b in (eye, two, diag) for r, c in ((0, 0), (1, 1), (2, 2), (0, 2), (2, 1))]
    cases += [(4, 5, 1, 1, eye), (5, 4, 0, 0, eye), (3, 3, 1, 2, Matrix.zeros(ring, 0, 0)), (3, 3, 0, 0, eye.row_slice(0, 1))]
    for rows, cols, r, c, b in cases:
        a = assemble(ring, rows, cols, [(r, c, b)])
        want = kept_rows(dense(a))
        assert projector_rows(a) == projector_rows(dense(a)) == want, (rows, cols, r, c, b)
        if ring.supports_elimination:
            assert_same_matrix(ring, rings.image_basis(a), ref.image_basis(dense(a)))
    assert projector_rows(assemble(ring, 4, 4, [(1, 1, eye)])) == (1, 2)


# -- equality ---------------------------------------------------------------------------


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_a_matrix_equals_itself_without_reading_its_form(ring):
    m = Matrix(ring, 2, 2, Matrix.from_rows(ring, [[1, 2], [3, 4]]).entries)
    assert m == m and not m != m
    assert "q_form" not in vars(m)
    assert m.__eq__("not a matrix") is NotImplemented and m != "not a matrix"
    assert m == Matrix.from_rows(ring, [[1, 2], [3, 4]])


# -- the section module -------------------------------------------------------------------


@pytest.mark.parametrize("ring", (RATIONALS, INTEGERS, modular(2), modular(5)), ids=lambda r: r.name)
def test_sheafify_of_a_section_module_returns_the_sheafs_own_transports(groupoids, ring):
    for name in GROUPOIDS:
        g = groupoids[name]
        for max_rank in (0, 1, 2):
            for seed in range(2):
                e = random_sheaf(g, ring, max_rank, seed)
                assert all(e.transport[g.unit[x]].is_identity for x in g.objects)
                sh = sheafify(gamma_c(e))
                assert sh.sheaf.stalk_rank == e.stalk_rank
                assert all(sh.sheaf.transport[a] is e.transport[a] for a in g.arrows), name


def test_each_unit_action_is_tested_and_read_back_once(monkeypatch):
    """A projector's stalk basis is the image basis it keeps, so
    ``eta_matrix`` reads each unit back once and the isotropy frame reuses
    both the basis and the coordinates."""
    calls = Counter()

    def counted(name):
        real = getattr(rings, name)
        return lambda *args: calls.update([name]) or real(*args)

    projector = counted("projector_rows")
    monkeypatch.setattr(rings, "projector_rows", projector)
    monkeypatch.setattr(equivalence, "projector_rows", projector)
    monkeypatch.setattr(rings, "_coordinates", counted("_coordinates"))
    g = pair_groupoid(3)
    for seed in range(4):
        m = gamma_c(random_sheaf(g, RATIONALS, 2, seed))
        calls.clear()
        eta_matrix(sheafify(m))
        m.isotropy_frame
        assert calls == {"projector_rows": 3, "_coordinates": 3}
