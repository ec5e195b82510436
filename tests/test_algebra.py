from __future__ import annotations

import random
from itertools import chain, combinations

import pytest

from ample import algebra
from ample.algebra import (
    algebra_element,
    char_fn,
    char_of_objects,
    convolve,
    corner_algebra,
    identity_element,
    local_unit,
    multiplication_table,
    zero_element,
)
from ample.builders import pair_groupoid
from ample.groupoid import Bisection, SizeGuardError, bisection_product, enumerate_bisections
from ample.validation import Failure

from conftest import ALL_RINGS, F2, F5, Q, Z, random_algebra_element


def all_subsets(items):
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def convolve_reference(f1, f2):
    """Independent oracle: the fiberwise sum over {h : src h = src g} of
    f1(g h^-1) f2(h), evaluated arrow by arrow."""
    g, ring = f1.groupoid, f1.ring
    coeffs = {}
    for target in g.arrows:
        acc = ring.zero
        for h in g.arrows:
            if g.src[h] != g.src[target]:
                continue
            h_inv = g.inverse[h]
            if not g.composable(target, h_inv):
                continue
            gh_inv = g.compose[(target, h_inv)]
            acc = ring.add(acc, ring.mul(f1.coefficient(gh_inv), f2.coefficient(h)))
        coeffs[target] = acc
    return algebra_element(g, ring, coeffs)


# -- characteristic functions -------------------------------------------------


def test_char_of_empty_bisection_is_zero(p2):
    assert char_fn(p2, Bisection.of(p2, []), Q).is_zero


def test_char_of_units_is_identity(p2):
    one = identity_element(p2, F5)
    rng = random.Random(4)
    for _ in range(50):
        f = random_algebra_element(p2, F5, rng)
        assert convolve(f, one) == f
        assert convolve(one, f) == f


def test_char_singleton_support(p2):
    f = char_fn(p2, Bisection.of(p2, ["(1,2)"]), Q)
    assert f.support == ("(1,2)",)
    assert f.coefficient("(1,2)") == 1


# -- convolution ----------------------------------------------------------------


def test_char_products_follow_bisection_products(small_groupoids):
    for g in small_groupoids:
        bis = enumerate_bisections(g)
        for ring in (Q, F2):
            for u in bis:
                for v in bis:
                    lhs = convolve(char_fn(g, u, ring), char_fn(g, v, ring))
                    rhs = char_fn(g, bisection_product(g, u, v), ring)
                    assert lhs == rhs


def test_single_composable_pair(p2):
    f = char_fn(p2, Bisection.of(p2, ["(1,2)"]), Q)
    h = char_fn(p2, Bisection.of(p2, ["(2,1)"]), Q)
    assert convolve(f, h) == char_fn(p2, Bisection.of(p2, ["(1,1)"]), Q)


def test_convolution_matches_fiberwise_oracle(small_groupoids):
    rng = random.Random(17)
    for g in small_groupoids:
        for ring in (Q, F5, Z):
            for _ in range(20):
                f1 = random_algebra_element(g, ring, rng)
                f2 = random_algebra_element(g, ring, rng)
                assert convolve(f1, f2) == convolve_reference(f1, f2)


def test_convolution_rejects_mismatches(p2, z2):
    with pytest.raises(ValueError):
        convolve(zero_element(p2, Q), zero_element(z2, Q))
    with pytest.raises(ValueError):
        convolve(zero_element(p2, Q), zero_element(p2, F2))


def test_associativity_on_random_triples(p2, z2):
    rng = random.Random(31)
    for g in (p2, z2):
        for ring in ALL_RINGS:
            for _ in range(500):
                f1 = random_algebra_element(g, ring, rng)
                f2 = random_algebra_element(g, ring, rng)
                f3 = random_algebra_element(g, ring, rng)
                assert convolve(convolve(f1, f2), f3) == convolve(f1, convolve(f2, f3))


def test_bilinearity(p2):
    rng = random.Random(41)
    for _ in range(50):
        f1 = random_algebra_element(p2, Q, rng)
        f2 = random_algebra_element(p2, Q, rng)
        f3 = random_algebra_element(p2, Q, rng)
        c = rng.randint(-3, 3)
        assert convolve(f1 + f2, f3) == convolve(f1, f3) + convolve(f2, f3)
        assert convolve(f1, f2 + f3) == convolve(f1, f2) + convolve(f1, f3)
        assert convolve(f1.scaled(c), f2) == convolve(f1, f2).scaled(c)
        assert convolve(f1, f2.scaled(c)) == convolve(f1, f2).scaled(c)


# -- local units ------------------------------------------------------------------


def test_local_unit_examples(p2):
    f = char_fn(p2, Bisection.of(p2, ["(1,2)"]), Q)
    assert local_unit(p2, [f]) == ("1", "2")
    e = char_fn(p2, Bisection.of(p2, ["(1,1)"]), Q)
    assert local_unit(p2, [e]) == ("1",)
    assert local_unit(p2, [zero_element(p2, Q)]) == ()


def test_local_unit_contract_on_random_elements(small_groupoids):
    rng = random.Random(53)
    for g in small_groupoids:
        for _ in range(200):
            f = random_algebra_element(g, F5, rng)
            u = local_unit(g, [f])
            chi = char_of_objects(g, u, F5)
            assert convolve(convolve(chi, f), chi) == f


def test_local_unit_covers_spanning_set(small_groupoids):
    for g in small_groupoids:
        for u in enumerate_bisections(g):
            f = char_fn(g, u, Q)
            points = local_unit(g, [f])
            chi = char_of_objects(g, points, Q)
            assert convolve(convolve(chi, f), chi) == f


def test_local_unit_requires_nonempty_list(p2):
    with pytest.raises(ValueError):
        local_unit(p2, [])


# -- corners ------------------------------------------------------------------------


def test_corner_at_everything_is_identity(p2):
    report = corner_algebra(p2, p2.objects, Q)
    assert report.ok
    corner = report.value
    assert corner.subgroupoid == p2
    assert len(corner.subgroupoid.arrows) == 4


def test_corner_at_one_object_is_scalar(p2):
    report = corner_algebra(p2, ["1"], Q)
    assert report.ok
    corner = report.value
    assert corner.subgroupoid.arrows == ("(1,1)",)
    # compression of each arrow singleton: only (1,1) survives
    for a in p2.arrows:
        cut = corner.compress(char_fn(p2, Bisection.of(p2, [a]), Q))
        if a == "(1,1)":
            assert cut.support == ("(1,1)",)
        else:
            assert cut.is_zero


def test_corner_embedding_round_trip(p2):
    corner = corner_algebra(p2, ["1"], Q).value
    inner = identity_element(corner.subgroupoid, Q)
    assert corner.compress(corner.embed(inner)) == inner


def test_corners_for_every_object_subset(small_groupoids):
    for g in small_groupoids:
        if len(g.objects) > 3:
            continue
        for subset in all_subsets(g.objects):
            assert corner_algebra(g, subset, Q).ok


def test_corner_support_fails_when_the_subgroupoid_drops_arrows(p2, monkeypatch):
    # restricting to one object fewer than asked loses the arrows at "2"
    real = algebra.restrict_groupoid
    monkeypatch.setattr(algebra, "restrict_groupoid", lambda g, objs: real(g, objs[:-1]))
    report = corner_algebra(p2, p2.objects, Q)
    assert not report.ok
    assert report.first() == Failure("corner support", "chi_U*chi_[(1,2)]*chi_U leaks outside G_U")
    assert report.value.subgroupoid.arrows == ("(1,1)",)


def test_corner_compression_fails_when_the_cut_is_scaled(p2, monkeypatch):
    # a corner unit of 2 chi_U cuts every arrow singleton to four times itself
    real = algebra.char_of_objects
    monkeypatch.setattr(algebra, "char_of_objects", lambda g, points, ring: real(g, points, ring).scaled(2))
    report = corner_algebra(p2, p2.objects, Q)
    assert [str(f) for f in report.failures] == [
        f"corner compression: chi_U*chi_[{a}]*chi_U is not as cut" for a in p2.arrows
    ]


def test_corner_table_fails_when_subgroupoid_products_disagree(p2, monkeypatch):
    # convolution on the subgroupoid alone doubles every coefficient
    real = algebra.convolve
    monkeypatch.setattr(
        algebra, "convolve", lambda f1, f2: real(f1, f2).scaled(2 if f1.groupoid != p2 else 1)
    )
    report = corner_algebra(p2, ["1"], Q)
    assert report.failures == (Failure("corner table", "products of [(1,1)],[(1,1)] disagree"),)


# -- structure tables ---------------------------------------------------------------


def test_trivial_table(point):
    table = multiplication_table(point, Q)
    assert table.cells[("(1,1)", "(1,1)")] == "(1,1)"


def test_p2_table_is_matrix_units(p2):
    table = multiplication_table(p2, Q)
    # oracle: E_ij E_kl = delta_jk E_il
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    got = table.cells[(f"({i},{j})", f"({k},{l})")]
                    expected = f"({i},{l})" if j == k else None
                    assert got == expected


def test_z2_table_is_group_multiplication(z2):
    table = multiplication_table(z2, F2)
    assert table.cells[("g", "g")] == "e"
    assert table.cells[("e", "g")] == "g"
    assert table.cells[("g", "e")] == "g"
    assert table.cells[("e", "e")] == "e"


def test_table_guard():
    g = pair_groupoid(9)  # 81 arrows
    with pytest.raises(SizeGuardError):
        multiplication_table(g, Q)


def test_table_is_deterministic(p2):
    a = multiplication_table(p2, Q).cells
    b = multiplication_table(p2, Q).cells
    assert list(a.items()) == list(b.items())
    assert list(a) == [(x, y) for x in p2.arrows for y in p2.arrows]  # row-major
