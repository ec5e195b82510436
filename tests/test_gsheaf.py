from __future__ import annotations

import random

import pytest

from ample.builders import random_sheaf
from ample.gsheaf import (
    GSheaf,
    GSheafMor,
    compose_sheaf_mors,
    constant_sheaf,
    direct_sum_sheaf,
    is_sheaf_isomorphism,
    random_sheaf_hom,
    sheaf_hom_basis,
    validate_sheaf,
    validate_sheaf_morphism,
)
from ample.rings import Matrix

from conftest import F5, Q, Z, identity_sheaf_mor, zero_sheaf_mor
from reference_kernels import apply_transport, vec


# -- validation ---------------------------------------------------------------


def test_zero_sheaf_passes(p2):
    e = GSheaf(p2, Q, {"1": 0, "2": 0}, {a: Matrix.zeros(Q, 0, 0) for a in p2.arrows})
    assert validate_sheaf(e).ok


def test_constant_sheaf_passes(small_groupoids):
    for g in small_groupoids:
        for rank in (0, 1, 2):
            assert validate_sheaf(constant_sheaf(g, Q, rank)).ok


def test_broken_composition_is_witnessed(p2):
    e = constant_sheaf(p2, Q, 1)
    tampered = dict(e.transport)
    tampered["(1,2)"] = Matrix.from_rows(Q, [[2]])
    broken = GSheaf(p2, Q, e.stalk_rank, tampered)
    report = validate_sheaf(broken)
    assert not report.ok
    assert [(f.law, f.witness) for f in report.failures] == [
        ("factorisation", "B['(2,2)'] != B['(2,1)'] B['(1,1)'] B['(1,2)']"),
        ("tree inverse", "B['(1,2)'] B['(2,1)'] != B['(1,1)']"),
    ]


def test_shape_mismatch_raises(p2):
    with pytest.raises(ValueError):
        GSheaf(p2, Q, {"1": 1, "2": 2}, {a: Matrix.identity(Q, 1) for a in p2.arrows})


def _ones(g, ring=F5, **changed):
    """The rank-1 identity transports on every arrow of g, with ``changed``
    keys replaced (a value of None drops the key)."""
    transport = {a: Matrix.identity(ring, 1) for a in g.arrows}
    transport.update(changed)
    return {a: m for a, m in transport.items() if m is not None}


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda g: GSheaf(g, F5, {"1": 1}, _ones(g)),
            "stalk ranks must cover exactly the object set",
            id="stalk-keys-missing",
        ),
        pytest.param(
            lambda g: GSheaf(g, F5, {"1": 1, "2": 1, "3": 1}, _ones(g)),
            "stalk ranks must cover exactly the object set",
            id="stalk-keys-extra",
        ),
        pytest.param(
            lambda g: GSheaf(g, F5, {"1": 1, "2": -1}, _ones(g)),
            "stalk ranks must be non-negative",
            id="negative-rank",
        ),
        pytest.param(
            lambda g: GSheaf(g, F5, {"1": 1, "2": 1}, _ones(g, **{"(2,2)": None})),
            "transport must assign a matrix to exactly the arrow set",
            id="transport-keys-missing",
        ),
        pytest.param(
            lambda g: GSheaf(g, F5, {"1": 1, "2": 1}, _ones(g, **{"(3,3)": Matrix.identity(F5, 1)})),
            "transport must assign a matrix to exactly the arrow set",
            id="transport-keys-extra",
        ),
        pytest.param(
            lambda g: GSheaf(g, F5, {"1": 1, "2": 1}, _ones(g, **{"(1,2)": Matrix.identity(Q, 1)})),
            "ring mismatch in transport of '(1,2)'",
            id="transport-ring",
        ),
        pytest.param(
            lambda g: GSheaf(g, F5, {"1": 1, "2": 2}, _ones(g)),
            "transport of '(1,2)' must be 1x2",
            id="transport-shape",
        ),
    ],
)
def test_sheaf_rejections_name_the_fault(p2, build, message):
    with pytest.raises(ValueError) as info:
        build(p2)
    assert str(info.value) == message


# -- transports ------------------------------------------------------------------


def test_unit_transport_is_identity(p2):
    e = random_sheaf(p2, F5, 3, seed=2)
    for x in p2.objects:
        n = e.stalk_rank[x]
        v = vec(F5, range(n))
        assert apply_transport(e, v, p2.unit[x]) == v


def test_transport_inverse_round_trip(p2):
    e = random_sheaf(p2, F5, 3, seed=3)
    rng = random.Random(0)
    for a in p2.arrows:
        v = vec(F5, [rng.randrange(5) for _ in range(e.stalk_rank[p2.dst[a]])])
        back = apply_transport(e, apply_transport(e, v, a), p2.inverse[a])
        assert back == v


def test_constant_sheaf_transport_is_trivial(p2):
    e = constant_sheaf(p2, Q, 2)
    for a in p2.arrows:
        assert apply_transport(e, vec(Q, [3, 4]), a) == vec(Q, [3, 4])


def test_transport_stalk_mismatch(p2):
    e = constant_sheaf(p2, Q, 2)
    with pytest.raises(ValueError):
        apply_transport(e, vec(Q, [1]), "(1,2)")
    with pytest.raises(ValueError):
        apply_transport(e, vec(Q, [1, 2]), "missing")


# -- morphisms ----------------------------------------------------------------------


def test_identity_and_zero_morphisms_pass(p2):
    e = random_sheaf(p2, F5, 2, seed=5)
    f = random_sheaf(p2, F5, 2, seed=6)
    assert validate_sheaf_morphism(identity_sheaf_mor(e)).ok
    assert validate_sheaf_morphism(zero_sheaf_mor(e, f)).ok


def test_sheaf_isomorphism_needs_invertible_components(p2):
    e = constant_sheaf(p2, Q, 1)
    assert is_sheaf_isomorphism(identity_sheaf_mor(e)).ok
    report = is_sheaf_isomorphism(zero_sheaf_mor(e, e))
    assert [str(f) for f in report.failures] == ["invertibility: component at '1'"]


def test_equivariance_failure_witnessed(p2):
    e = constant_sheaf(p2, Q, 1)
    phi = GSheafMor(e, e, {"1": Matrix.from_rows(Q, [[1]]), "2": Matrix.from_rows(Q, [[2]])})
    report = validate_sheaf_morphism(phi)
    assert not report.ok
    assert report.first().law == "equivariance"
    assert "(1,2)" in report.first().witness


def test_morphism_composition_and_inverse(p2):
    e = random_sheaf(p2, Q, 2, seed=9)
    ident = identity_sheaf_mor(e)
    assert compose_sheaf_mors(ident, ident) == ident
    assert ident.inverse == ident
    assert zero_sheaf_mor(e, e).inverse is None or e.total_rank == 0


def test_morphism_over_another_ring_raises(p2):
    e = constant_sheaf(p2, F5, 2)
    maps = {x: Matrix.identity(F5, 2) for x in p2.objects}
    maps[p2.objects[1]] = Matrix.identity(Q, 2)
    with pytest.raises(ValueError, match=r"^ring mismatch in component at '2': Q vs Fp:5$"):
        GSheafMor(e, e, maps)


def _identities(ring, ranks):
    return {x: Matrix.identity(ring, n) for x, n in ranks.items()}


def _constant(g, ring=F5, rank=1):
    return constant_sheaf(g, ring, rank)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda p2, z2: GSheafMor(_constant(p2), _constant(z2), _identities(F5, {"*": 1})),
            "sheaf morphism endpoints live over different groupoids",
            id="groupoids",
        ),
        pytest.param(
            lambda p2, z2: GSheafMor(_constant(p2), _constant(p2, Q), _identities(F5, {"1": 1, "2": 1})),
            "sheaf morphism endpoints live over different rings",
            id="rings",
        ),
        pytest.param(
            lambda p2, z2: GSheafMor(_constant(p2), _constant(p2), _identities(F5, {"1": 1})),
            "morphism must assign a matrix to exactly the object set",
            id="map-keys-missing",
        ),
        pytest.param(
            lambda p2, z2: GSheafMor(_constant(p2), _constant(p2), _identities(F5, {"1": 1, "2": 1, "3": 1})),
            "morphism must assign a matrix to exactly the object set",
            id="map-keys-extra",
        ),
        pytest.param(
            lambda p2, z2: GSheafMor(
                _constant(p2), _constant(p2), {"1": Matrix.identity(Q, 1), **_identities(F5, {"2": 1})}
            ),
            "ring mismatch in component at '1': Q vs Fp:5",
            id="component-ring",
        ),
        pytest.param(
            lambda p2, z2: GSheafMor(_constant(p2), _constant(p2, rank=2), _identities(F5, {"1": 1, "2": 1})),
            "component at '1' must be 1x2",
            id="component-shape",
        ),
    ],
)
def test_sheaf_morphism_rejections_name_the_fault(p2, z2, build, message):
    with pytest.raises(ValueError) as info:
        build(p2, z2)
    assert str(info.value) == message


def test_sheaf_hom_space_members_are_equivariant(p2, z2):
    rng = random.Random(1)
    for g in (p2, z2):
        e = random_sheaf(g, Q, 2, seed=11)
        f = random_sheaf(g, Q, 2, seed=12)
        for comp in sheaf_hom_basis(e, f):
            assert validate_sheaf_morphism(GSheafMor(e, f, comp)).ok
        assert validate_sheaf_morphism(random_sheaf_hom(e, f, rng)).ok


def test_constant_sheaf_hom_space_dimension(p2):
    # equivariant endomorphisms of the rank-1 constant sheaf over a connected
    # groupoid are the scalars
    e = constant_sheaf(p2, Q, 1)
    assert len(sheaf_hom_basis(e, e)) == 1


# -- direct sums ---------------------------------------------------------------------


def test_constant_sheaf_splits_as_direct_sum(p2):
    a, b = 1, 2
    total = direct_sum_sheaf(constant_sheaf(p2, Q, a), constant_sheaf(p2, Q, b))
    expected = constant_sheaf(p2, Q, a + b)
    assert total.stalk_rank == expected.stalk_rank
    assert validate_sheaf(total).ok
    for arrow in p2.arrows:
        assert total.transport[arrow] == expected.transport[arrow]


def test_direct_sum_of_random_sheaves(p2):
    e = random_sheaf(p2, F5, 2, seed=13)
    f = random_sheaf(p2, F5, 2, seed=14)
    total = direct_sum_sheaf(e, f)
    assert validate_sheaf(total).ok
    for x in p2.objects:
        assert total.stalk_rank[x] == e.stalk_rank[x] + f.stalk_rank[x]


# -- random sheaves ---------------------------------------------------------------------


def test_random_sheaf_is_deterministic(p2):
    assert random_sheaf(p2, F5, 3, seed=1) == random_sheaf(p2, F5, 3, seed=1)
    assert random_sheaf(p2, F5, 3, seed=1) != random_sheaf(p2, F5, 3, seed=2)


def test_random_sheaf_zero_rank(p2):
    e = random_sheaf(p2, Q, 0, seed=1)
    assert e.total_rank == 0
    assert validate_sheaf(e).ok


def test_random_sheaves_validate(p2):
    for seed in range(20):
        assert validate_sheaf(random_sheaf(p2, F5, 3, seed=seed)).ok


def test_random_sheaves_validate_everywhere(small_groupoids):
    for g in small_groupoids:
        for ring in (Q, Z, F5):
            for seed in range(5):
                e = random_sheaf(g, ring, 3, seed=seed)
                assert validate_sheaf(e).ok
                ranks = {e.stalk_rank[x] for x in g.objects}
                components = g.connected_components()
                if len(components) == 1:
                    assert len(ranks) == 1  # constant on a connected groupoid


def test_random_sheaf_hits_nontrivial_isotropy(z2):
    # over a group groupoid some seeds must produce a non-identity transport
    nontrivial = any(
        not random_sheaf(z2, F5, 3, seed=s).transport["g"].is_identity
        for s in range(10)
        if random_sheaf(z2, F5, 3, seed=s).stalk_rank["*"] > 0
    )
    assert nontrivial
