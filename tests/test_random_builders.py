"""The seeded builders against the reference builders they replaced.

``random_sheaf`` and ``random_module`` draw their parts once and take one
product per arrow; ``reference_kernels`` keeps the builders that multiplied
every transport and every action out in full and inverted each twist by an
elimination.  Both consume the same random bits, so every drawn matrix must
be equal entry for entry.
"""
from __future__ import annotations

import random
import time
from collections import Counter

import pytest

import reference_kernels as ref
from ample import equivalence, gmodule, gsheaf, rings
from ample.builders import (
    GraphSpec,
    _below,
    acyclic_graph_groupoid,
    action_groupoid,
    cyclic_group,
    pair_groupoid,
    random_invertible,
    random_module,
    random_sheaf,
    single_edge_graph,
    trivial_groupoid,
)
from ample.gmodule import validate_module
from ample.rings import Matrix, modular, ring_from_name
from conftest import F2, F5, Q, Z
from test_kernel_oracle import assert_same_matrix

ORACLE_RINGS = (Q, Z, F2, F5, modular(17))
GROUPOIDS = {
    **{f"pair{n}": pair_groupoid(n) for n in range(1, 5)},
    "point": trivial_groupoid(),
    "edge": acyclic_graph_groupoid(single_edge_graph()),
    # two sinks with 3 and 2 boundary paths and an isolated vertex
    "two-sink": acyclic_graph_groupoid(
        GraphSpec(("u", "v", "w", "s", "x"), (("u", "w"), ("v", "w"), ("u", "s")))
    ),
}


def _groupoid(name, z2_action):
    return z2_action if name == "z2-action" else GROUPOIDS[name]


@pytest.mark.parametrize("name", [*GROUPOIDS, "z2-action"])
@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: r.name)
def test_random_sheaf_and_module_match_the_reference(ring, name, z2_action):
    g = _groupoid(name, z2_action)
    for max_rank in (1, 2, 3):
        for seed in range(20):
            got, want = random_sheaf(g, ring, max_rank, seed), ref.random_sheaf(g, ring, max_rank, seed)
            assert list(got.stalk_rank.items()) == list(want.stalk_rank.items())
            assert list(got.transport) == list(want.transport)
            for a in g.arrows:
                assert_same_matrix(ring, got.transport[a], want.transport[a])
            got, want = random_module(g, ring, max_rank, seed), ref.random_module(g, ring, max_rank, seed)
            assert got.rank == want.rank and list(got.action) == list(want.action)
            for a in g.arrows:
                assert_same_matrix(ring, got.action[a], want.action[a])


def test_below_draws_what_randrange_and_choice_draw():
    for n in range(1, 301):
        items = [f"item{k}" for k in range(n)]
        for seed in (0, n):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert [_below(rng, n) for _ in range(4)] == [ref_rng.randrange(n) for _ in range(4)]
            assert rng.getstate() == ref_rng.getstate()
            assert [items[_below(rng, n)] for _ in range(4)] == [ref_rng.choice(items) for _ in range(4)]
            assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("p", [65537, 1000003])
def test_random_invertible_matches_the_reference_over_large_primes(p):
    """A unit is drawn as 1 + below(p - 1), on the bits the reference's
    choice from the list of all p - 1 units takes."""
    ring = modular(p)
    for n in (1, 2, 3):
        for seed in range(3):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got, got_inverse = random_invertible(ring, n, rng)
            want = ref.random_invertible(ring, n, ref_rng)
            assert_same_matrix(ring, got, want)
            assert rng.getstate() == ref_rng.getstate()
            assert_same_matrix(ring, got_inverse, rings.matrix_inverse(want))


def test_random_modules_over_a_31_bit_prime_take_well_under_a_second():
    ring, g = ring_from_name("Fp:2147483647"), pair_groupoid(2)
    for seed in range(3):
        start = time.perf_counter()
        assert validate_module(random_module(g, ring, 2, seed)).ok
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("ring", (Q, Z, F5), ids=lambda r: r.name)
@pytest.mark.parametrize("name", ["pair4", "z2-action"])
def test_builders_take_one_product_per_arrow_and_no_elimination(ring, name, z2_action, monkeypatch):
    g = _groupoid(name, z2_action)
    calls = Counter()

    def counted(label, real):
        return lambda *args: calls.update([label]) or real(*args)

    monkeypatch.setattr(Matrix, "__matmul__", counted("product", Matrix.__matmul__))
    for module in (rings, gsheaf, gmodule, equivalence):
        for label in ("row_echelon", "matrix_inverse"):
            if hasattr(module, label):
                monkeypatch.setattr(module, label, counted(label, getattr(module, label)))
    products = 0
    for max_rank in (1, 2, 3):
        for seed in range(5):
            calls.clear()
            random_sheaf(g, ring, max_rank, seed)
            assert set(calls) <= {"product"} and calls["product"] <= len(g.arrows)
            products += calls["product"]
            calls.clear()
            random_module(g, ring, max_rank, seed)
            assert set(calls) <= {"product"} and calls["product"] <= len(g.arrows) + 2 * len(g.objects)
            products += calls["product"]
    assert products  # the counter sees the builders' products


@pytest.mark.parametrize("ring", [Q, Z, F2, F5, modular(65537), modular(2305843009213693951)], ids=lambda r: r.name)
def test_inline_draws_match_the_closure_builder(ring):
    """``random_invertible`` draws inline, on the bits and ``getrandbits``
    widths of ``_below``: the matrix, its inverse and the generator state
    after the draw equal those of the builder that called ``_below`` and a
    row-operation closure per step."""
    for n in range(8):
        for seed in range(8):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got, got_inverse = random_invertible(ring, n, rng)
            want, want_inverse = ref.random_invertible_with_closures(ring, n, ref_rng)
            assert_same_matrix(ring, got, want)
            assert_same_matrix(ring, got_inverse, want_inverse)
            assert rng.getstate() == ref_rng.getstate()


def test_random_invertible_over_q_matches_the_reference():
    """Over Q each row of the transposed inverse is held over its own power
    of two; the matrix, its inverse and the generator state after the draw
    are those of the reference builder and its elimination."""
    for n in range(1, 9):
        for seed in range(30):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got, got_inverse = random_invertible(Q, n, rng)
            want = ref.random_invertible(Q, n, ref_rng)
            assert_same_matrix(Q, got, want)
            assert_same_matrix(Q, got_inverse, ref.matrix_inverse(want))
            assert rng.getstate() == ref_rng.getstate()


def _two_orbits():
    """Z/2 acting on a, b, c by swapping a and b: the components {a, b},
    with trivial isotropy, and {c}, with isotropy Z/2, whose regular copies
    take their rows in an order that is not the identity."""
    elements, table = cyclic_group(2)
    action = {("e", x): x for x in "abc"} | {("g", "a"): "b", ("g", "b"): "a", ("g", "c"): "c"}
    return action_groupoid(elements, table, tuple("abc"), action)


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: r.name)
def test_draws_on_a_kept_and_a_fresh_groupoid_match_the_reference(ring):
    """The sampling shape is derived once per groupoid and its row orders
    once per component and (c, r): draws at several ranks on one groupoid
    object, which keeps them, and on a fresh equal one, which derives them
    anew, equal the reference builders'."""
    kept, fresh = _two_orbits(), _two_orbits()
    assert fresh == kept and fresh is not kept and len(kept.connected_components()) == 2
    for g in (kept, fresh, kept):
        for max_rank in (0, 1, 2, 3, 5):
            for seed in range(6):
                got, want = random_sheaf(g, ring, max_rank, seed), ref.random_sheaf(g, ring, max_rank, seed)
                assert list(got.stalk_rank.items()) == list(want.stalk_rank.items())
                for a in g.arrows:
                    assert_same_matrix(ring, got.transport[a], want.transport[a])
                got, want = random_module(g, ring, max_rank, seed), ref.random_module(g, ring, max_rank, seed)
                assert got.rank == want.rank
                for a in g.arrows:
                    assert_same_matrix(ring, got.action[a], want.action[a])
    assert "_sampling_shape" in fresh.__dict__
