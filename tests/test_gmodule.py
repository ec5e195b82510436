from __future__ import annotations

import random

import pytest

from ample.algebra import char_fn, convolve, identity_element, multiplication_table, zero_element
from ample.builders import random_module
from ample.gmodule import (
    GModule,
    GModuleHom,
    act,
    direct_sum,
    hom_space_basis,
    hom_space_dim,
    identity_hom,
    random_hom,
    regular_module,
    validate_hom,
    validate_module,
    zero_hom,
)
from ample.groupoid import Bisection
from ample.rings import Matrix, unit_vec, vec, vec_scale

from conftest import ALL_RINGS, F2, F5, Q, Z, random_algebra_element


# -- the action --------------------------------------------------------------


def test_identity_acts_trivially(p2):
    m = regular_module(p2, Q)
    rng = random.Random(1)
    for _ in range(10):
        v = vec(Q, [rng.randint(-3, 3) for _ in range(4)])
        assert act(m, v, identity_element(p2, Q)) == v


def test_zero_acts_as_zero(p2):
    m = regular_module(p2, Q)
    v = vec(Q, [1, 2, 3, 4])
    assert act(m, v, zero_element(p2, Q)) == vec(Q, [0, 0, 0, 0])


def test_regular_action_matches_structure_constants(p2):
    # oracle: acting on a basis arrow by an arrow singleton reproduces the
    # structure-constant table entry
    m = regular_module(p2, Q)
    table = multiplication_table(p2, Q)
    for i, a in enumerate(p2.arrows):
        for b in p2.arrows:
            moved = act(m, unit_vec(Q, 4, i), char_fn(p2, Bisection.of(p2, [b]), Q))
            cell = table.cells[(a, b)]
            if cell is None:
                assert moved == vec(Q, [0, 0, 0, 0])
            else:
                assert moved == unit_vec(Q, 4, p2.arrow_index[cell])


def test_act_checks_dimensions(p2):
    m = regular_module(p2, Q)
    with pytest.raises(ValueError):
        act(m, (1, 2), identity_element(p2, Q))
    with pytest.raises(ValueError):
        act(m, (1, 2, 3, 4), identity_element(p2, F2))


def test_action_respects_convolution(small_groupoids):
    rng = random.Random(8)
    for g in small_groupoids:
        m = random_module(g, F5, 2, seed=77)
        for _ in range(200):
            v = vec(F5, [rng.randrange(5) for _ in range(m.rank)])
            f1 = random_algebra_element(g, F5, rng)
            f2 = random_algebra_element(g, F5, rng)
            assert act(m, v, convolve(f1, f2)) == act(m, act(m, v, f1), f2)


def test_unitarity_witnessed_by_full_unit_set(small_groupoids):
    rng = random.Random(9)
    for g in small_groupoids:
        m = random_module(g, Q, 2, seed=5)
        for _ in range(20):
            v = vec(Q, [rng.randint(-3, 3) for _ in range(m.rank)])
            assert act(m, v, identity_element(g, Q)) == v


def test_scalar_compatibility(p2):
    m = regular_module(p2, Q)
    rng = random.Random(10)
    for _ in range(30):
        v = vec(Q, [rng.randint(-3, 3) for _ in range(4)])
        f = random_algebra_element(p2, Q, rng)
        c = rng.randint(-3, 3)
        assert act(m, vec_scale(Q, c, v), f) == vec_scale(Q, c, act(m, v, f))


# -- validation ----------------------------------------------------------------


def test_rank_zero_module_passes(p2):
    m = GModule(p2, Q, 0, {a: Matrix.zeros(Q, 0, 0) for a in p2.arrows})
    assert validate_module(m).ok


def test_z2_regular_module_over_f2(z2):
    m = regular_module(z2, F2)
    assert m.action["e"] == Matrix.identity(F2, 2)
    assert m.action["g"] == Matrix.from_rows(F2, [[0, 1], [1, 0]])
    assert validate_module(m).ok


def test_regular_modules_pass_everywhere(small_groupoids):
    for g in small_groupoids:
        for ring in ALL_RINGS:
            assert validate_module(regular_module(g, ring)).ok


def test_unsupported_action_fails_support_law(p2):
    m = regular_module(p2, Q)
    tampered = dict(m.action)
    tampered["(1,2)"] = Matrix.identity(Q, 4)  # not framed by the endpoint units
    broken = GModule(p2, Q, 4, tampered)
    report = validate_module(broken)
    assert not report.ok
    assert report.first().law == "factorisation"
    assert report.first().witness == "A['(1,2)'] != A['(1,1)'] A['(1,1)'] A['(1,2)']"


def test_broken_units_fail(p2):
    m = regular_module(p2, Q)
    tampered = dict(m.action)
    tampered[p2.unit["1"]] = Matrix.identity(Q, 4)
    broken = GModule(p2, Q, 4, tampered)
    report = validate_module(broken)
    assert not report.ok
    assert report.first().law == "unit completeness"
    assert "unit orthogonality" in {f.law for f in report.failures}


# -- homomorphisms -----------------------------------------------------------------


def test_identity_and_zero_homs_pass(p2):
    m = regular_module(p2, Q)
    assert validate_hom(identity_hom(m)).ok
    assert validate_hom(zero_hom(m, m)).ok


def test_character_mismatch_fails(z2):
    plus = GModule(z2, Q, 1, {"e": Matrix.from_rows(Q, [[1]]), "g": Matrix.from_rows(Q, [[1]])})
    minus = GModule(z2, Q, 1, {"e": Matrix.from_rows(Q, [[1]]), "g": Matrix.from_rows(Q, [[-1]])})
    assert validate_module(plus).ok and validate_module(minus).ok
    hom = GModuleHom(plus, minus, Matrix.from_rows(Q, [[1]]))
    report = validate_hom(hom)
    assert not report.ok
    assert report.first().law == "intertwining"
    assert "g" in report.first().witness


def test_hom_shape_mismatch_raises(p2, z2):
    m = regular_module(p2, Q)
    with pytest.raises(ValueError):
        GModuleHom(m, m, Matrix.zeros(Q, 2, 4))
    with pytest.raises(ValueError):
        GModuleHom(m, regular_module(z2, Q), Matrix.zeros(Q, 4, 2))


def test_hom_space_of_regular_module_is_the_algebra(p2, z2):
    # End of the right regular module is the algebra acting on the left
    assert hom_space_dim(regular_module(p2, Q), regular_module(p2, Q)) == 4
    assert hom_space_dim(regular_module(z2, Q), regular_module(z2, Q)) == 2


def test_hom_space_members_intertwine(small_groupoids):
    rng = random.Random(12)
    for g in small_groupoids:
        m1 = random_module(g, Q, 2, seed=21)
        m2 = random_module(g, Q, 2, seed=22)
        for basis_matrix in hom_space_basis(m1, m2):
            assert validate_hom(GModuleHom(m1, m2, basis_matrix)).ok
        assert validate_hom(random_hom(m1, m2, rng)).ok


@pytest.mark.parametrize("hom_space", [hom_space_basis, hom_space_dim])
def test_hom_space_of_rank_zero_module_checks_compatibility_first(hom_space, p2, point):
    # a rank-0 module has a trivial hom space only against modules it is
    # comparable with: another groupoid or ring is a ValueError, in either order
    empty = GModule(p2, Q, 0, {a: Matrix.zeros(Q, 0, 0) for a in p2.arrows})
    one = GModule(point, Q, 1, {a: Matrix.identity(Q, 1) for a in point.arrows})
    one_f5 = GModule(p2, F5, 1, {a: Matrix.identity(F5, 1) for a in p2.arrows})
    for m1, m2 in ((empty, one), (one, empty), (empty, one_f5)):
        with pytest.raises(ValueError):
            hom_space(m1, m2)
    assert hom_space(empty, regular_module(p2, Q)) in ([], 0)


# -- generators ----------------------------------------------------------------------


def test_random_module_is_deterministic(p2):
    assert random_module(p2, F5, 3, seed=4) == random_module(p2, F5, 3, seed=4)
    assert random_module(p2, F5, 3, seed=4) != random_module(p2, F5, 3, seed=5)


def test_random_module_zero_rank(p2):
    m = random_module(p2, Q, 0, seed=1)
    assert m.rank == 0
    assert validate_module(m).ok


def test_random_modules_validate(p2):
    for seed in range(20):
        m = random_module(p2, F5, 2, seed=seed)
        assert validate_module(m).ok


def test_random_modules_validate_over_z(z3):
    for seed in range(10):
        m = random_module(z3, Z, 2, seed=seed)
        assert validate_module(m).ok


def test_composite_modulus_modules_validate_but_do_not_sheafify(p2):
    from ample.equivalence import sheafify
    from ample.rings import UnsupportedRingError, modular

    z6 = modular(6)
    m = regular_module(p2, z6)
    assert validate_module(m).ok  # arithmetic-only rings still support the axioms
    with pytest.raises(UnsupportedRingError):
        sheafify(m)


def test_direct_sum_is_valid(p2):
    m1 = random_module(p2, Q, 1, seed=31)
    m2 = random_module(p2, Q, 2, seed=32)
    total = direct_sum(m1, m2)
    assert total.rank == m1.rank + m2.rank
    assert validate_module(total).ok
