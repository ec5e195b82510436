from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ample.rings import (
    INTEGERS,
    RATIONALS,
    Matrix,
    Ring,
    UnsupportedRingError,
    coordinates,
    image_basis,
    kernel_basis,
    matrix_inverse,
    modular,
    rank,
    ring_from_name,
    row_echelon,
)

import reference_kernels as ref
from ample import rings
from conftest import ALL_RINGS, FIELDS, F2, F5, Q, Z
from reference_kernels import vec_mat


def random_matrix(ring, rows, cols, rng):
    if ring.kind == "mod":
        data = [[rng.randrange(ring.modulus) for _ in range(cols)] for _ in range(rows)]
    else:
        data = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(ring, data, cols=cols)


# -- ring names and arithmetic ----------------------------------------------


def test_ring_names_round_trip():
    assert ring_from_name("Q") is RATIONALS
    assert ring_from_name("Z") is INTEGERS
    assert ring_from_name("Fp:5") == modular(5)
    assert ring_from_name("Zmod:6") == modular(6)
    assert ring_from_name("F5") == modular(5)  # accepted shorthand
    assert modular(5).name == "Fp:5"
    assert modular(6).name == "Zmod:6"


def test_rings_are_shared_per_modulus_and_equal_rings_hash_alike():
    assert modular(5) is modular(5)
    assert ring_from_name("Fp:5") is modular(5) is ring_from_name("F5")
    assert ring_from_name("Zmod:6") is modular(6)
    fresh = Ring("mod", 5)
    assert fresh is not modular(5) and fresh == modular(5) and hash(fresh) == hash(modular(5))
    assert hash(Ring("Q")) == hash(RATIONALS) and Ring("Q") != Ring("Z")
    m = Matrix.from_rows(modular(5), [[1, 2], [3, 4]])
    assert Matrix.from_rows(fresh, [[1, 2], [3, 4]]) == m
    assert (Matrix.identity(fresh, 2) @ m).entries == ((1, 2), (3, 4))
    assert (m + Matrix.zeros(fresh, 2, 2)).entries == m.entries


TRAIT_RINGS = ["Q", "Z", "Fp:2", "Fp:5", "Fp:2147483647", "Zmod:4", "Zmod:6"]


@pytest.mark.parametrize("name", TRAIT_RINGS)
def test_ring_traits_match_the_formulas_and_leave_repr_and_equality_alone(name):
    ring = ring_from_name(name)
    assert ring.is_field == ref.is_field(ring)
    assert ring.supports_elimination == ref.supports_elimination(ring)
    assert vars(ring)["is_field"] is ring.is_field  # kept as plain attributes
    assert vars(ring)["supports_elimination"] is ring.supports_elimination
    assert ring.name == name
    assert repr(ring) == f"Ring(kind={ring.kind!r}, modulus={ring.modulus!r})"
    fresh = Ring(ring.kind, ring.modulus)
    assert fresh == ring and hash(fresh) == hash(ring) and repr(fresh) == repr(ring)
    assert fresh.is_field == ring.is_field and fresh.supports_elimination == ring.supports_elimination
    for other in map(ring_from_name, TRAIT_RINGS):
        if other is not ring:
            assert ring != other and ring != Ring(other.kind, other.modulus)


def test_ring_traits_are_decided_at_construction(monkeypatch):
    tested = []
    real = rings._is_prime
    monkeypatch.setattr(rings, "_is_prime", lambda m: tested.append(m) or real(m))
    ring = Ring("mod", 7)
    assert tested == [7]
    assert {"_hash", "is_field", "supports_elimination", "zero", "one", "name"} <= vars(ring).keys()
    assert ring.is_field and ring.supports_elimination and ring.name == "Fp:7" and (ring.zero, ring.one) == (0, 1)
    assert tested == [7]  # reading a trait tests no primality
    assert not Ring("mod", 9).supports_elimination and tested == [7, 9]
    with pytest.raises(AttributeError, match="has no attribute 'is_prime'"):
        ring.is_prime


def test_a_modulus_beyond_the_exact_primality_test_is_refused():
    bound = 3317044064679887385961981  # a strong pseudoprime to every base up to 41
    for m in (bound, bound + 142):  # then a prime
        with pytest.raises(ValueError, match=f"modulus {m} is too large for the exact primality test"):
            Ring("mod", m)
        with pytest.raises(ValueError, match=str(m)):
            ring_from_name(f"Zmod:{m}")
    for p in (2, 3, 41):  # a small prime factor decides at any size
        assert not modular(p * bound).is_field and ring_from_name(f"Zmod:{p * bound}").name == f"Zmod:{p * bound}"


# Carmichael numbers (211·421·631 has no factor among the bases), then
# strong pseudoprimes to every prime base up to 7 and up to 31
PSEUDOPRIMES = (561, 41041, 825265, 56052361, 3215031751, 3825123056546413051)


def test_miller_rabin_agrees_with_trial_division():
    for m in (*range(20001), *PSEUDOPRIMES):
        assert rings._is_prime(m) == ref.is_prime(m), m
    assert not any(map(rings._is_prime, PSEUDOPRIMES))


def test_a_61_bit_prime_modulus_is_a_field_in_under_a_second():
    rings._is_prime.cache_clear()
    start = time.perf_counter()
    assert modular(2**61 - 1).is_field and Ring("mod", 2**61 - 1).is_field
    assert ring_from_name("Fp:2305843009213693951") is modular(2**61 - 1)
    assert not Ring("mod", 2**61 + 1).is_field  # 3 divides it
    assert time.perf_counter() - start < 1.0


def test_unpickled_rings_hash_in_the_loading_process():
    """A ring pickled under one hash seed and loaded under another is found
    by dict lookup, and so is a matrix over it in a set."""
    head = "import pickle, sys; from ample.rings import RATIONALS, Matrix, modular; "
    dump = head + "sys.stdout.buffer.write(pickle.dumps((RATIONALS, Matrix.from_rows(RATIONALS, [[1, 2]]), modular(5))))"
    load = head + (
        "q, m, f = pickle.loads(sys.stdin.buffer.read()); "
        "print({RATIONALS: 1}.get(q), {modular(5): 1}.get(f), m in {Matrix.from_rows(RATIONALS, [[1, 2]])})"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rings.__file__).parents[1])}
    run = lambda code, seed, data=None: subprocess.run(
        [sys.executable, "-c", code], input=data, env={**env, "PYTHONHASHSEED": seed}, capture_output=True, check=True
    ).stdout
    assert run(load, "2", run(dump, "1")).split() == [b"1", b"1", b"True"]


def test_ring_name_rejects_bad_input():
    with pytest.raises(ValueError):
        ring_from_name("Fp:6")
    with pytest.raises(ValueError):
        ring_from_name("F6")
    with pytest.raises(ValueError):
        ring_from_name("R")
    with pytest.raises(ValueError):
        ring_from_name("Zmod:0")
    with pytest.raises(ValueError):
        ring_from_name("Zmod:1")  # the zero ring, where 1 = 0
    with pytest.raises(ValueError):
        Ring("mod", 1)


def test_coerce_rejects_floats():
    for ring in ALL_RINGS:
        with pytest.raises(ValueError):
            ring.coerce(0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_ring_laws(a, b, c):
    for ring in ALL_RINGS:
        x, y, z = ring.coerce(a), ring.coerce(b), ring.coerce(c)
        assert ring.add(x, y) == ring.add(y, x)
        assert ring.mul(x, y) == ring.mul(y, x)
        assert ring.mul(x, ring.add(y, z)) == ring.add(ring.mul(x, y), ring.mul(x, z))
        assert ring.add(x, ring.neg(x)) == ring.zero
        assert ring.mul(x, ring.one) == x


def test_field_inverses():
    for ring in FIELDS:
        for raw in (1, 2, 3, -7):
            a = ring.coerce(raw)
            if ring.is_zero(a):
                continue
            assert ring.mul(a, ring.inv(a)) == ring.one


def test_scalar_json_round_trip():
    assert Q.scalar_to_json(Fraction(3, 2)) == "3/2"
    assert Q.scalar_to_json(Fraction(4, 2)) == 2
    assert Q.scalar_from_json("3/2") == Fraction(3, 2)
    assert Z.scalar_from_json(7) == 7
    with pytest.raises(ValueError):
        Q.scalar_from_json("1/0")


def test_rational_literal_with_an_empty_denominator_is_rejected():
    with pytest.raises(ValueError, match="bad rational literal '3/'"):
        Q.scalar_from_json("3/")


# -- matrix construction ------------------------------------------------------


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_from_rows_rejects_ragged_rows(ring):
    with pytest.raises(ValueError):
        Matrix.from_rows(ring, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix.from_rows(ring, [[1], [2, 3]])


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_from_rows_rejects_rows_that_do_not_match_cols(ring):
    with pytest.raises(ValueError):
        Matrix.from_rows(ring, [[1, 2], [3, 4]], cols=3)
    with pytest.raises(ValueError):
        Matrix.from_rows(ring, [[1, 2]], cols=1)


def test_from_rows_keeps_the_declared_width_of_an_empty_matrix():
    m = Matrix.from_rows(Q, [], cols=3)
    assert (m.rows, m.cols) == (0, 3)


# -- matrix product -----------------------------------------------------------


def test_one_by_one_product_over_z():
    a = Matrix.from_rows(Z, [[2]])
    b = Matrix.from_rows(Z, [[3]])
    assert (a @ b) == Matrix.from_rows(Z, [[6]])


def test_identity_is_neutral_over_f5():
    rng = random.Random(3)
    a = random_matrix(F5, 3, 3, rng)
    assert Matrix.identity(F5, 3) @ a == a
    assert a @ Matrix.identity(F5, 3) == a


def test_product_matches_entrywise_dot_products_over_f2():
    # independent oracle: every entry computed as an explicit dot product
    rng = random.Random(11)
    for _ in range(20):
        a = random_matrix(F2, 4, 4, rng)
        b = random_matrix(F2, 4, 4, rng)
        got = a @ b
        for i in range(4):
            for j in range(4):
                expected = sum(a.entries[i][k] * b.entries[k][j] for k in range(4)) % 2
                assert got.entries[i][j] == expected


def test_product_shape_and_ring_mismatch():
    a = Matrix.from_rows(Q, [[1, 2]])
    b = Matrix.from_rows(Q, [[1, 2]])
    with pytest.raises(ValueError):
        a @ b
    c = Matrix.from_rows(Z, [[1], [2]])
    with pytest.raises(ValueError):
        a @ c


def test_zero_dimension_products():
    a = Matrix.zeros(Q, 1, 0)
    b = Matrix.zeros(Q, 0, 3)
    assert (a @ b) == Matrix.zeros(Q, 1, 3)


# -- kernels -------------------------------------------------------------------


def test_kernel_of_identity_is_empty_over_q():
    assert kernel_basis(Matrix.identity(Q, 3)).rows == 0


def test_kernel_of_zero_matrix_over_f2():
    k = kernel_basis(Matrix.zeros(F2, 2, 2))
    assert k.rows == 2
    assert rank(k) == 2


def test_kernel_of_rank_one_matrix_matches_exhaustive_scan_over_f5():
    rng = random.Random(5)
    row = [rng.randrange(1, 5) for _ in range(3)]
    a = Matrix.from_rows(F5, [row, [2 * x % 5 for x in row], [3 * x % 5 for x in row]])
    assert rank(a) == 1
    k = kernel_basis(a)
    assert k.rows == 2
    # oracle: scan all 125 vectors of F5^3 for null vectors
    null_vectors = {
        v for v in product(range(5), repeat=3) if not any(vec_mat(v, a))
    }
    assert len(null_vectors) == 5 ** 2
    for basis_row in k.entries:
        assert basis_row in null_vectors
    # basis spans: every combination of the two rows lands in the scan set
    for c1 in range(5):
        for c2 in range(5):
            combo = tuple(
                (c1 * k.entries[0][i] + c2 * k.entries[1][i]) % 5 for i in range(3)
            )
            assert combo in null_vectors


def test_kernel_rows_annihilate_for_every_ring():
    rng = random.Random(23)
    for ring in (Q, Z, F2, F5):
        for _ in range(20):
            a = random_matrix(ring, rng.randint(1, 4), rng.randint(1, 4), rng)
            k = kernel_basis(a)
            for row in k.entries:
                assert not any(vec_mat(row, a))


def test_rank_nullity_over_each_field():
    rng = random.Random(99)
    for ring in FIELDS:
        for _ in range(100):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = random_matrix(ring, rows, cols, rng)
            assert kernel_basis(a).rows + rank(a) == rows


def test_integer_kernel_is_a_primitive_lattice():
    a = Matrix.from_rows(Z, [[2], [1]])
    k = kernel_basis(a)
    assert k.rows == 1
    v = k.entries[0]
    assert 2 * v[0] + v[1] == 0
    # primitive: content 1, so it generates the full kernel lattice
    from math import gcd

    assert gcd(v[0], v[1]) == 1


def test_hermite_normal_form_properties():
    # canonical row Hermite form: transform unimodular, strictly increasing
    # positive pivots, entries above a pivot reduced into [0, pivot),
    # zero rows at the bottom
    rng = random.Random(77)
    for _ in range(50):
        a = random_matrix(Z, rng.randint(1, 5), rng.randint(1, 5), rng)
        ech = row_echelon(a)
        assert ech.transform @ a == ech.reduced
        assert matrix_inverse(ech.transform) is not None
        pivots = list(ech.pivots)
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for i, c in enumerate(pivots):
            pivot = ech.reduced.entries[i][c]
            assert pivot > 0
            assert all(ech.reduced.entries[k][c] == 0 for k in range(i + 1, a.rows))
            assert all(0 <= ech.reduced.entries[k][c] < pivot for k in range(i))
            assert all(ech.reduced.entries[i][j] == 0 for j in range(c))
        for k in range(len(pivots), a.rows):
            assert all(x == 0 for x in ech.reduced.entries[k])


def test_rref_properties_over_fields():
    rng = random.Random(78)
    for ring in FIELDS:
        for _ in range(30):
            a = random_matrix(ring, rng.randint(1, 5), rng.randint(1, 5), rng)
            ech = row_echelon(a)
            assert ech.transform @ a == ech.reduced
            for i, c in enumerate(ech.pivots):
                assert ech.reduced.entries[i][c] == ring.one
                assert all(
                    ech.reduced.entries[k][c] == ring.zero
                    for k in range(a.rows)
                    if k != i
                )


def test_hermite_reduction_is_fraction_free():
    a = Matrix.from_rows(Z, [[4, 2], [6, 8]])
    ech = row_echelon(a)
    for row in ech.reduced.entries + ech.transform.entries:
        for x in row:
            assert isinstance(x, int)
    # unimodular transform: invertible over Z
    assert matrix_inverse(ech.transform) is not None


# -- images ---------------------------------------------------------------------


def test_image_of_identity_is_full():
    b = image_basis(Matrix.identity(Q, 3))
    assert b == Matrix.identity(Q, 3)


def test_image_of_zero_matrix_is_empty():
    assert image_basis(Matrix.zeros(F2, 3, 2)).rows == 0


def test_image_of_idempotent_diag():
    a = Matrix.from_rows(Q, [[1, 0], [0, 0]])
    b = image_basis(a)
    # oracle: the row space of diag(1,0) is spanned by (1,0) alone
    assert b == Matrix.from_rows(Q, [[1, 0]])


def test_image_lattice_over_z():
    a = Matrix.from_rows(Z, [[2, 0], [0, 3]])
    b = image_basis(a)
    assert b == Matrix.from_rows(Z, [[2, 0], [0, 3]])


# -- coordinates and inversion -----------------------------------------------------


def test_coordinates_detect_divisibility_failure_over_z():
    basis = Matrix.from_rows(Z, [[2]])
    assert coordinates(basis, Matrix.from_rows(Z, [[1]])) is None
    assert coordinates(basis, Matrix.from_rows(Z, [[4]])) == Matrix.from_rows(Z, [[2]])


def test_matrix_inverse_over_fields_and_z():
    a = Matrix.from_rows(Q, [[1, 2], [0, 1]])
    inv = matrix_inverse(a)
    assert inv is not None and a @ inv == Matrix.identity(Q, 2)
    u = Matrix.from_rows(Z, [[1, 1], [1, 2]])  # determinant 1
    inv_u = matrix_inverse(u)
    assert inv_u is not None and u @ inv_u == Matrix.identity(Z, 2)
    non_unimodular = Matrix.from_rows(Z, [[2, 0], [0, 1]])
    assert matrix_inverse(non_unimodular) is None
    singular = Matrix.from_rows(Q, [[1, 1], [1, 1]])
    assert matrix_inverse(singular) is None


# -- composite moduli and determinism ------------------------------------------------


def test_composite_modulus_supports_arithmetic_only():
    z6 = modular(6)
    a = Matrix.from_rows(z6, [[2, 3], [4, 5]])
    assert (a + a).entries[0][0] == 4
    assert (a @ a).ring == z6
    for op in (kernel_basis, image_basis, rank):
        with pytest.raises(UnsupportedRingError):
            op(a)
    with pytest.raises(UnsupportedRingError):
        coordinates(a, a)


def test_operations_are_deterministic():
    rng1, rng2 = random.Random(42), random.Random(42)
    a1 = random_matrix(Q, 4, 3, rng1)
    a2 = random_matrix(Q, 4, 3, rng2)
    assert a1 == a2
    assert repr(kernel_basis(a1)) == repr(kernel_basis(a2))
    assert repr(image_basis(a1)) == repr(image_basis(a2))
