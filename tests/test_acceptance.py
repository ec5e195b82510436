"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints a single summary line so a verbose run reads as a
checklist.  The standing examples are the pair groupoid on two objects, the
cyclic groups of orders two and three as one-object groupoids, the
translation action groupoid of the two-element group, and the groupoid of
the single-edge graph; each has at most eight arrows.
"""
from __future__ import annotations

import random

import pytest

from ample.algebra import char_fn, char_of_objects, convolve, corner_algebra, multiplication_table
from ample.builders import random_module, random_sheaf
from ample.cli import run_command
from ample.equivalence import check_naturality, epsilon, eta
from ample.gmodule import random_hom, regular_module
from ample.groupoid import (
    bisection_inverse,
    bisection_product,
    enumerate_bisections,
    is_bisection,
)
from ample.morita import (
    GroupoidFunctor,
    MoritaSpan,
    identity_functor,
    module_transport,
    round_trip,
    verify_morita,
)
from ample.rings import matrix_inverse

from conftest import ALL_RINGS, F2, F5, Q, Z, random_algebra_element, small_vector, source_objects
from reference_kernels import act, germ_at, germ_transport

RINGS = (F2, F5, Q, Z)


def test_criterion_1_inverse_semigroup_laws(small_groupoids):
    checked = 0
    for g in small_groupoids:
        assert len(g.arrows) <= 8
        bis = enumerate_bisections(g)
        for u in bis:
            for v in bis:
                assert is_bisection(g, bisection_product(g, u, v).arrows)
                for w in bis:
                    left = bisection_product(g, bisection_product(g, u, v), w)
                    right = bisection_product(g, u, bisection_product(g, v, w))
                    assert left == right
                    checked += 1
        for u in bis:
            assert bisection_product(g, bisection_product(g, u, bisection_inverse(g, u)), u) == u
        idempotents = [u for u in bis if bisection_product(g, u, u) == u]
        for e in idempotents:
            for f in idempotents:
                assert bisection_product(g, e, f) == bisection_product(g, f, e)
    print(f"\ncriterion 1 (inverse semigroup laws): PASS ({checked} triples)")


def test_criterion_2_char_fn_products(small_groupoids):
    checked = 0
    for g in small_groupoids:
        bis = enumerate_bisections(g)
        for ring in (Q, F2):
            for u in bis:
                for v in bis:
                    lhs = convolve(char_fn(g, u, ring), char_fn(g, v, ring))
                    rhs = char_fn(g, bisection_product(g, u, v), ring)
                    assert lhs == rhs
                    checked += 1
    print(f"\ncriterion 2 (chi_U * chi_V = chi_UV): PASS ({checked} pairs)")


def test_criterion_3_local_units_and_corners(small_groupoids):
    rng = random.Random(2024)
    for g in small_groupoids:
        for _ in range(200):
            f = random_algebra_element(g, F5, rng)
            from ample.algebra import local_unit

            u = local_unit(g, [f])
            chi = char_of_objects(g, u, F5)
            assert convolve(convolve(chi, f), chi) == f
    from itertools import chain, combinations

    corners = 0
    for g in small_groupoids:
        if len(g.objects) > 3:
            continue
        subsets = chain.from_iterable(combinations(g.objects, k) for k in range(len(g.objects) + 1))
        for subset in subsets:
            report = corner_algebra(g, subset, Q)
            assert report.ok
            corner = report.value
            # dimension: the corner's basis is the arrows staying inside U
            kept = set(subset)
            expected_dim = sum(1 for a in g.arrows if g.src[a] in kept and g.dst[a] in kept)
            assert len(corner.subgroupoid.arrows) == expected_dim
            corners += 1
    print(f"\ncriterion 3 (local units and corners): PASS ({corners} corners)")


def test_criterion_4_equivalence_theorem(small_groupoids):
    assert len(small_groupoids) >= 5
    eta_count = eps_count = 0
    for gi, g in enumerate(small_groupoids):
        for ri, ring in enumerate(RINGS):
            master = random.Random(1000 * gi + ri)
            for _ in range(20):
                m = random_module(g, ring, 3, seed=master.randrange(2**32))
                cert = eta(m)
                assert cert.ok, f"eta failed on {g.objects} over {ring.name}"
                eta_count += 1
            for _ in range(20):
                e = random_sheaf(g, ring, 3, seed=master.randrange(2**32))
                assert all(e.stalk_rank[x] <= 3 for x in g.objects)
                cert = epsilon(e)
                assert cert.ok, f"epsilon failed on {g.objects} over {ring.name}"
                eps_count += 1
    squares = 0
    for gi, g in enumerate(small_groupoids):
        per_groupoid = 0
        for ri, ring in enumerate(RINGS):
            rng = random.Random(7000 + 1000 * gi + ri)
            for _ in range(5):
                m1 = random_module(g, ring, 2, seed=rng.randrange(2**32))
                m2 = random_module(g, ring, 2, seed=rng.randrange(2**32))
                hom = random_hom(m1, m2, rng)
                assert check_naturality(hom).ok
                per_groupoid += 1
        assert per_groupoid >= 20
        squares += per_groupoid
    print(
        f"\ncriterion 4 (equivalence theorem): PASS ({eta_count} eta, {eps_count} epsilon,"
        f" {squares} naturality squares)"
    )


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_criterion_5_transport_well_defined(small_groupoids, ring):
    rng = random.Random(99)
    checked = 0
    for g in small_groupoids:
        m = random_module(g, ring, 2, seed=123)
        bis = enumerate_bisections(g)
        for a in g.arrows:
            for u in bis:
                if a not in u:
                    continue
                chi = char_fn(g, u, ring)
                for _ in range(10):
                    v = small_vector(ring, m.rank, rng)
                    canonical = germ_transport(germ_at(m, v, g.dst[a]), a)
                    alternative = germ_at(m, act(m, v, chi), g.src[a])
                    assert canonical == alternative
                    checked += 1
    print(f"\ncriterion 5 (transport well-definedness, {ring.name}): PASS ({checked} comparisons)")


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_criterion_6_vanishing_outside_sources(small_groupoids, ring):
    rng = random.Random(100)
    checked = 0
    for g in small_groupoids:
        m = random_module(g, ring, 2, seed=321)
        for u in enumerate_bisections(g):
            chi = char_fn(g, u, ring)
            covered = set(source_objects(g, u))
            outside = [x for x in g.objects if x not in covered]
            for _ in range(10):
                v = small_vector(ring, m.rank, rng)
                moved = act(m, v, chi)
                for x in outside:
                    assert germ_at(m, moved, x).is_zero
                    checked += 1
    print(f"\ncriterion 6 (germ vanishing outside U^-1 U, {ring.name}): PASS ({checked} germs)")


def test_criterion_7_matrix_algebra_sanity(p2, edge_groupoid):
    table = multiplication_table(p2, Q)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    expected = f"({i},{l})" if j == k else None
                    assert table.cells[(f"({i},{j})", f"({k},{l})")] == expected

    # single-edge graph groupoid: the same table under the canonical
    # boundary-path ordering
    paths = edge_groupoid.objects
    assert paths == ("w", "v-e0-w")
    graph_table = multiplication_table(edge_groupoid, Q)
    relabel = {paths[0]: "1", paths[1]: "2"}
    for p in paths:
        for q in paths:
            for r in paths:
                for s in paths:
                    got = graph_table.cells[(f"({p},{q})", f"({r},{s})")]
                    mirrored = table.cells[
                        (f"({relabel[p]},{relabel[q]})", f"({relabel[r]},{relabel[s]})")
                    ]
                    if mirrored is None:
                        assert got is None
                    else:
                        assert got == f"({p},{s})"

    cert = eta(regular_module(p2, Q))
    assert cert.ok
    assert cert.value.iso.rows == cert.value.iso.cols == 4
    assert matrix_inverse(cert.value.iso) is not None
    print("\ncriterion 7 (matrix algebra sanity): PASS")


def test_criterion_8_morita_corollary(point, p2, z2_action, z2):
    incl_p2 = GroupoidFunctor(point, p2, {"1": "1"}, {"(1,1)": "(1,1)"})
    incl_act = GroupoidFunctor(point, z2_action, {"1": "e"}, {"(1,1)": "(e,e)"})
    spans = (
        MoritaSpan(point, incl_p2, identity_functor(point)),
        MoritaSpan(point, incl_act, identity_functor(point)),
    )
    for span in spans:
        for ring in (Q, F5):
            report = verify_morita(span, ring, samples=10, seed=17)
            assert report.ok and not report.rejected
            assert all(s.round_trip_ok for s in report.samples)

    transported = module_transport(spans[0], regular_module(p2, Q))
    assert transported.rank == 2
    cert = round_trip(spans[0], regular_module(p2, Q))
    assert cert.ok and matrix_inverse(cert.value.iso.matrix) is not None

    collapse = GroupoidFunctor(z2, point, {"*": "1"}, {"e": "(1,1)", "g": "(1,1)"})
    broken = MoritaSpan(z2, collapse, identity_functor(z2))
    rejected = verify_morita(broken, Q, samples=2, seed=17)
    assert rejected.rejected and not rejected.ok
    print("\ncriterion 8 (Morita corollary): PASS")


def test_criterion_9_cli_determinism(tmp_path):
    code, _ = run_command(["examples", "--dir", str(tmp_path)])
    assert code == 0
    commands = (
        ["table", str(tmp_path / "p2.json")],
        ["equivalence", "--groupoid", str(tmp_path / "p2.json"), "--ring", "F5",
         "--seed", "7", "--samples", "5"],
        ["equivalence", "--groupoid", str(tmp_path / "z3.json"), "--ring", "Q",
         "--seed", "7", "--samples", "3", "--out", "json"],
        ["morita", "--span", str(tmp_path / "span-p2-point.json"), "--ring", "Q",
         "--samples", "3", "--seed", "9"],
        ["morita", "--span", str(tmp_path / "span-z2action-point.json"), "--ring", "F5",
         "--samples", "3", "--seed", "9", "--out", "json"],
    )
    for argv in commands:
        first = run_command(argv)
        second = run_command(argv)
        assert first[0] == 0, first[1]
        assert first == second
    print("\ncriterion 9 (CLI determinism): PASS")
