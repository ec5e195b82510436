from __future__ import annotations

import random
from itertools import product

import pytest

from ample.algebra import char_fn, convolve, identity_element, multiplication_table, zero_element
from ample.builders import (
    GraphSpec,
    acyclic_graph_groupoid,
    action_groupoid,
    cyclic_group,
    group_groupoid,
    pair_groupoid,
    random_module,
    symmetric_group,
)
from ample.equivalence import eta
from ample.gmodule import (
    GModule,
    GModuleHom,
    direct_sum,
    hom_space_basis,
    hom_space_dim,
    is_isomorphism,
    random_hom,
    regular_module,
    validate_hom,
    validate_module,
)
from ample.groupoid import Bisection
from ample.rings import Matrix

from conftest import ALL_RINGS, F2, F5, Q, Z, identity_hom, random_algebra_element, zero_hom
from reference_kernels import act, unit_vec, vec, vec_scale


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


def test_isomorphism_needs_an_invertible_matrix(p2):
    m = regular_module(p2, Q)
    assert is_isomorphism(identity_hom(m)).ok
    report = is_isomorphism(zero_hom(m, m))
    assert [str(f) for f in report.failures] == ["invertibility: singular matrix"]


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


def test_hom_over_another_ring_raises(p2):
    m = regular_module(p2, F5)
    with pytest.raises(ValueError, match=r"^ring mismatch in hom matrix: Q vs Fp:5$"):
        GModuleHom(m, m, Matrix.identity(Q, m.rank))


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda m, p2: GModule(p2, F5, 4, {a: x for a, x in m.action.items() if a != "(2,2)"}),
            "action must assign a matrix to exactly the arrow set",
            id="action-keys-missing",
        ),
        pytest.param(
            lambda m, p2: GModule(p2, F5, 4, {**m.action, "(3,3)": Matrix.identity(F5, 4)}),
            "action must assign a matrix to exactly the arrow set",
            id="action-keys-extra",
        ),
        pytest.param(
            lambda m, p2: GModule(p2, F5, 4, {**m.action, "(1,2)": Matrix.identity(Q, 4)}),
            "ring mismatch in action matrix of '(1,2)'",
            id="action-ring",
        ),
        pytest.param(
            lambda m, p2: GModule(p2, F5, 3, m.action),
            "action matrix of '(1,1)' is not 3x3",
            id="action-shape",
        ),
        pytest.param(
            lambda m, p2: GModule(p2, F5, 4, {**m.action, "(2,1)": Matrix.zeros(F5, 4, 3)}),
            "action matrix of '(2,1)' is not 4x4",
            id="action-columns",
        ),
    ],
)
def test_module_rejections_name_the_fault(p2, build, message):
    with pytest.raises(ValueError) as info:
        build(regular_module(p2, F5), p2)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda m, p2, z2: GModuleHom(m, regular_module(z2, F5), Matrix.zeros(F5, 4, 2)),
            "homomorphism endpoints live over different groupoids",
            id="hom-groupoids",
        ),
        pytest.param(
            lambda m, p2, z2: GModuleHom(m, regular_module(p2, Q), Matrix.zeros(F5, 4, 4)),
            "homomorphism endpoints live over different rings",
            id="hom-rings",
        ),
        pytest.param(
            lambda m, p2, z2: GModuleHom(m, m, Matrix.zeros(F5, 2, 4)),
            "hom matrix must be 4x4, got 2x4",
            id="hom-rows",
        ),
        pytest.param(
            lambda m, p2, z2: GModuleHom(m, m, Matrix.zeros(F5, 4, 2)),
            "hom matrix must be 4x4, got 4x2",
            id="hom-columns",
        ),
    ],
)
def test_hom_rejections_name_the_fault(p2, z2, build, message):
    with pytest.raises(ValueError) as info:
        build(regular_module(p2, F5), p2, z2)
    assert str(info.value) == message


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


def test_an_isotropy_frame_names_its_broken_invariant(p2, monkeypatch):
    """The rows of a unit action lie in the span of its image basis; were
    ``coordinates`` to find them outside it, the frame raises an error that
    names the invariant instead of carrying on."""
    from ample import gmodule

    monkeypatch.setattr(gmodule, "coordinates", lambda basis, m: None)
    with pytest.raises(RuntimeError, match="invariant broken: the rows of the unit action at '1'"):
        regular_module(p2, F5).isotropy_frame


# -- a Yoneda oracle for hom dimensions -----------------------------------------


def _projective(g, ring, x) -> GModule:
    """P_x: the summand of the regular module spanned by the arrows that end
    at x, closed under the action since a·b ends where a does."""
    regular = regular_module(g, ring)
    keep = [i for i, a in enumerate(g.arrows) if g.dst[a] == x]
    action = {
        b: Matrix.from_ints(ring, [[m.q_form[0][i][j] for j in keep] for i in keep], len(keep))
        for b, m in regular.action.items()
    }
    return GModule(g, ring, len(keep), action)


def _yoneda_groupoids():
    z4, z4_table = cyclic_group(4)
    z2, z2_table = cyclic_group(2)
    parity = {(g, x): x if k % 2 == 0 else "qp"[x == "q"] for k, g in enumerate(z4) for x in "pq"}
    two_sinks = GraphSpec(("u", "v", "w", "s", "x"), (("u", "w"), ("v", "w"), ("u", "s")))
    return {
        "pair(3)": pair_groupoid(3),
        "z2 action": action_groupoid(z2, z2_table, list(z2), dict(z2_table)),
        "S_3": group_groupoid(*symmetric_group(3)),
        "two-sink graph": acyclic_graph_groupoid(two_sinks),
        "Z/4 on two points through Z/2": action_groupoid(z4, z4_table, ["p", "q"], parity),
    }


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("name", list(_yoneda_groupoids()))
def test_hom_dimensions_between_representables_count_arrows(name, ring):
    # Hom(P_x, P_y) is the free module on the arrows x -> y, the Yoneda lemma
    g = _yoneda_groupoids()[name]
    projectives = {x: _projective(g, ring, x) for x in g.objects}
    for x, p in projectives.items():
        assert validate_module(p).ok and eta(p).ok
    for (x, px), (y, py) in product(projectives.items(), repeat=2):
        assert hom_space_dim(px, py) == len(g.hom_set(x, y)), (x, y)
