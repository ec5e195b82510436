from __future__ import annotations

import random
from itertools import product

import pytest

from ample import equivalence
from ample.algebra import char_fn
from ample.builders import random_module, random_sheaf
from ample.equivalence import (
    Sheafification,
    check_naturality,
    epsilon,
    eta,
    eta_matrix,
    gamma_c,
    gamma_c_mor,
    sh_mor,
    sheafify,
)
from ample.gmodule import (
    GModule,
    GModuleHom,
    random_hom,
    regular_module,
    validate_hom,
    validate_module,
)
from ample.groupoid import (
    Bisection,
    FiniteGroupoid,
    enumerate_bisections,
)
from ample.gsheaf import (
    GSheaf,
    constant_sheaf,
    random_sheaf_hom,
    validate_sheaf,
    validate_sheaf_morphism,
)
from ample.rings import Matrix, UnsupportedRingError, matrix_inverse, modular
from ample.validation import Failure

from conftest import (
    ALL_RINGS,
    F2,
    F5,
    Q,
    Z,
    identity_hom,
    identity_sheaf_mor,
    random_algebra_element,
    small_vector,
    source_objects,
    split_units_module,
    zero_hom,
    zero_sheaf_mor,
)
from reference_kernels import (
    Section,
    act,
    germ_at,
    germ_coords,
    germ_transport,
    is_unit_arrow,
    representative,
    section_action,
    unit_vec,
    vec_mat,
)


def section_to_vector(s: Section) -> tuple:
    """The stalk values of ``s``, one block per object in object order."""
    return tuple(v for x in s.sheaf.groupoid.objects for v in s.values[x])


def rand_section(e, rng):
    return Section(e, {x: small_vector(e.ring, e.stalk_rank[x], rng) for x in e.groupoid.objects})


# -- the sections functor ------------------------------------------------------


def test_sections_of_constant_sheaf_over_point(point):
    m = gamma_c(constant_sheaf(point, Q, 1))
    assert m.rank == 1
    assert m.action["(1,1)"] == Matrix.from_rows(Q, [[1]])


def test_sections_of_constant_sheaf_over_p2_are_matrix_units(p2):
    m = gamma_c(constant_sheaf(p2, Q, 1))
    assert m.rank == 2
    # oracle: the action of (i,j) is the matrix unit E_ij
    for i in (1, 2):
        for j in (1, 2):
            expected = [[0, 0], [0, 0]]
            expected[i - 1][j - 1] = 1
            assert m.action[f"({i},{j})"] == Matrix.from_rows(Q, expected)
    assert validate_module(m).ok


def test_sections_module_always_validates(small_groupoids):
    for g in small_groupoids:
        for seed in range(5):
            e = random_sheaf(g, F5, 3, seed=seed)
            assert validate_module(gamma_c(e)).ok


def test_bisection_action_on_sections(small_groupoids):
    # the action of chi_U on a section: transported value where U provides an
    # arrow, zero outside the source objects of U
    rng = random.Random(6)
    for g in small_groupoids:
        e = random_sheaf(g, F5, 2, seed=44)
        for u in enumerate_bisections(g):
            chi = char_fn(g, u, F5)
            s = rand_section(e, rng)
            moved = section_action(s, chi)
            covered = set(source_objects(g, u))
            for a in u:
                assert moved.values[g.src[a]] == vec_mat(s.values[g.dst[a]], e.transport[a])
            for x in g.objects:
                if x not in covered:
                    assert not any(moved.values[x])


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_section_action_agrees_with_module_action(small_groupoids, ring):
    # dual route: the stalkwise formula against the block-matrix action
    rng = random.Random(7)
    for g in small_groupoids:
        e = random_sheaf(g, ring, 2, seed=45)
        m = gamma_c(e)
        for _ in range(20):
            s = rand_section(e, rng)
            f = random_algebra_element(g, ring, rng)
            via_sections = section_to_vector(section_action(s, f))
            via_module = act(m, section_to_vector(s), f)
            assert via_sections == via_module


def test_gamma_c_mor_identity_zero_and_composition(p2):
    e = random_sheaf(p2, Q, 2, seed=47)
    f = random_sheaf(p2, Q, 2, seed=48)
    assert gamma_c_mor(identity_sheaf_mor(e)).matrix == Matrix.identity(Q, gamma_c(e).rank)
    assert gamma_c_mor(zero_sheaf_mor(e, f)).matrix.is_zero
    rng = random.Random(9)
    for _ in range(10):
        phi = random_sheaf_hom(e, f, rng)
        psi = random_sheaf_hom(f, e, rng)
        from ample.gsheaf import compose_sheaf_mors

        lhs = gamma_c_mor(compose_sheaf_mors(phi, psi))
        rhs_matrix = gamma_c_mor(phi).matrix @ gamma_c_mor(psi).matrix
        assert lhs.matrix == rhs_matrix
        assert validate_hom(gamma_c_mor(phi)).ok


# -- germs ---------------------------------------------------------------------


def test_zero_germ(p2):
    m = regular_module(p2, Q)
    assert germ_at(m, (0, 0, 0, 0), "1").is_zero


def test_germ_example_in_regular_module(p2):
    m = regular_module(p2, Q)
    v = unit_vec(Q, 4, p2.arrow_index["(1,1)"])
    assert not germ_at(m, v, "1").is_zero
    assert germ_at(m, v, "2").is_zero


def test_germ_equality_ignores_representative(p2):
    m = regular_module(p2, Q)
    v1 = unit_vec(Q, 4, p2.arrow_index["(1,1)"])
    v2 = tuple(
        a + b
        for a, b in zip(v1, unit_vec(Q, 4, p2.arrow_index["(1,2)"]))
    )
    # v1 and v2 differ by an arrow with source 2, invisible at object 1
    assert germ_at(m, v1, "1") == germ_at(m, v2, "1")
    assert germ_at(m, v1, "2") != germ_at(m, v2, "2")


def test_vanishing_outside_bisection_sources(small_groupoids):
    # exhaustively: if x is outside the source objects of U, the germ of
    # m chi_U at x is zero
    rng = random.Random(10)
    for g in small_groupoids:
        m = random_module(g, F5, 2, seed=50)
        for u in enumerate_bisections(g):
            chi = char_fn(g, u, F5)
            covered = set(source_objects(g, u))
            for _ in range(5):
                v = small_vector(F5, m.rank, rng)
                moved = act(m, v, chi)
                for x in g.objects:
                    if x not in covered:
                        assert germ_at(m, moved, x).is_zero


def test_germ_unchanged_by_any_neighborhood_cut(small_groupoids):
    # the restriction maps of the germ construction collapse at finite scale:
    # cutting by the characteristic function of any object subset containing
    # x leaves the germ at x unchanged, exhaustively over subsets
    from itertools import chain, combinations

    from ample.algebra import char_of_objects

    rng = random.Random(27)
    for g in small_groupoids:
        m = random_module(g, F5, 2, seed=64)
        subsets = chain.from_iterable(
            combinations(g.objects, k) for k in range(len(g.objects) + 1)
        )
        for subset in subsets:
            chi = char_of_objects(g, subset, F5)
            for x in subset:
                for _ in range(5):
                    v = small_vector(F5, m.rank, rng)
                    assert germ_at(m, v, x) == germ_at(m, act(m, v, chi), x)


def test_germ_transport_along_units_is_identity(small_groupoids):
    rng = random.Random(11)
    for g in small_groupoids:
        m = random_module(g, Q, 2, seed=51)
        for x in g.objects:
            v = small_vector(Q, m.rank, rng)
            germ = germ_at(m, v, x)
            assert germ_transport(germ, g.unit[x]) == germ


def test_germ_transport_composes(small_groupoids):
    rng = random.Random(12)
    for g in small_groupoids:
        m = random_module(g, F5, 2, seed=52)
        for a, b in g.composable_pairs():
            # first along a (landing at src a = dst b), then along b
            v = small_vector(F5, m.rank, rng)
            germ = germ_at(m, v, g.dst[a])
            two_steps = germ_transport(germ_transport(germ, a), b)
            one_step = germ_transport(germ, g.compose[(a, b)])
            assert two_steps == one_step


def test_germ_transport_is_linear(p2):
    m = random_module(p2, Q, 2, seed=53)
    rng = random.Random(13)
    for a in p2.arrows:
        v1 = small_vector(Q, m.rank, rng)
        v2 = small_vector(Q, m.rank, rng)
        c = rng.randint(-3, 3)
        combo = tuple(c * x + y for x, y in zip(v1, v2))
        lhs = germ_transport(germ_at(m, combo, p2.dst[a]), a)
        rhs1 = germ_transport(germ_at(m, v1, p2.dst[a]), a)
        rhs2 = germ_transport(germ_at(m, v2, p2.dst[a]), a)
        assert lhs.normal_form == tuple(c * x + y for x, y in zip(rhs1.normal_form, rhs2.normal_form))


def test_germ_transport_agrees_with_every_covering_bisection(small_groupoids):
    # the canonical singleton choice is compared against every compact open
    # bisection containing the arrow
    rng = random.Random(14)
    for g in small_groupoids:
        m = random_module(g, F5, 2, seed=54)
        bis = enumerate_bisections(g)
        for a in g.arrows:
            covering = [u for u in bis if a in u]
            assert Bisection.of(g, [a]) in covering
            for u in covering:
                chi = char_fn(g, u, F5)
                for _ in range(10):
                    v = small_vector(F5, m.rank, rng)
                    canonical = germ_transport(germ_at(m, v, g.dst[a]), a)
                    alternative = germ_at(m, act(m, v, chi), g.src[a])
                    assert canonical == alternative


def test_germ_transport_base_mismatch(p2):
    m = regular_module(p2, Q)
    germ = germ_at(m, (1, 0, 0, 0), "1")
    assert p2.dst["(2,1)"] == "2"
    with pytest.raises(ValueError):
        germ_transport(germ, "(2,1)")


# -- sheafification -----------------------------------------------------------------


def test_sheafify_zero_module(p2):
    m = GModule(p2, Q, 0, {a: Matrix.zeros(Q, 0, 0) for a in p2.arrows})
    sh = sheafify(m)
    assert sh.sheaf.total_rank == 0
    assert validate_sheaf(sh.sheaf).ok


def test_sheafify_regular_p2(p2):
    sh = sheafify(regular_module(p2, Q))
    assert [sh.sheaf.stalk_rank[x] for x in p2.objects] == [2, 2]
    assert validate_sheaf(sh.sheaf).ok
    for a in p2.arrows:
        assert matrix_inverse(sh.sheaf.transport[a]) is not None


def test_sheafify_trivial_rank_one(point):
    m = GModule(point, Q, 1, {"(1,1)": Matrix.identity(Q, 1)})
    sh = sheafify(m)
    assert sh.sheaf.stalk_rank["1"] == 1


def test_sheafify_random_modules(small_groupoids):
    for g in small_groupoids:
        for ring in (Q, Z, F5):
            for seed in (3, 4):
                m = random_module(g, ring, 2, seed=seed)
                sh = sheafify(m)
                assert validate_sheaf(sh.sheaf).ok
                total = sum(sh.sheaf.stalk_rank[x] for x in g.objects)
                assert total == m.rank


def test_sheafified_transports_satisfy_functor_laws(p2):
    # the germ sheaf of a module is literally a contravariant functor datum:
    # objects to stalks, arrows to linear maps, composition contravariant
    m = random_module(p2, Q, 2, seed=55)
    sh = sheafify(m)
    assert validate_sheaf(sh.sheaf).ok  # unit, composition, invertibility laws


def test_coords_round_trip(p2):
    m = random_module(p2, Q, 3, seed=56)
    sh = sheafify(m)
    rng = random.Random(15)
    for x in p2.objects:
        c = small_vector(Q, sh.sheaf.stalk_rank[x], rng)
        rep = representative(sh, c, x)
        assert germ_coords(sh, rep, x) == c


def test_sh_mor_identity_and_zero(p2):
    m = random_module(p2, Q, 2, seed=57)
    n = random_module(p2, Q, 2, seed=58)
    ident = sh_mor(identity_hom(m))
    for x in p2.objects:
        assert ident.maps[x].is_identity
    zero = sh_mor(zero_hom(m, n))
    for x in p2.objects:
        assert zero.maps[x].is_zero
    assert validate_sheaf_morphism(ident).ok
    assert validate_sheaf_morphism(zero).ok


def test_sh_mor_functoriality(z2):
    rng = random.Random(16)
    for seed in range(5):
        m1 = random_module(z2, F2, 2, seed=seed)
        m2 = random_module(z2, F2, 2, seed=seed + 100)
        m3 = random_module(z2, F2, 2, seed=seed + 200)
        f = random_hom(m1, m2, rng)
        g = random_hom(m2, m3, rng)
        from ample.gsheaf import compose_sheaf_mors

        sh1, sh2, sh3 = sheafify(m1), sheafify(m2), sheafify(m3)
        lhs = sh_mor(GModuleHom(m1, m3, f.matrix @ g.matrix), sh1, sh3)
        rhs = compose_sheaf_mors(sh_mor(f, sh1, sh2), sh_mor(g, sh2, sh3))
        assert lhs == rhs


# -- eta -----------------------------------------------------------------------------


def test_eta_on_trivial_rank_one(point):
    m = GModule(point, Q, 1, {"(1,1)": Matrix.identity(Q, 1)})
    cert = eta(m)
    assert cert.ok
    assert cert.value.iso == Matrix.from_rows(Q, [[1]])


def test_eta_on_regular_p2_is_rank_4_iso(p2):
    cert = eta(regular_module(p2, Q))
    assert cert.ok
    assert cert.value.iso.rows == cert.value.iso.cols == 4
    assert matrix_inverse(cert.value.iso) is not None


def test_eta_certificates_over_f2_with_exhaustive_kernel_oracle(z2):
    for seed in range(20):
        m = random_module(z2, F2, 3, seed=seed)
        cert = eta(m)
        assert cert.ok
        h = cert.value.iso
        # independent oracle: scan all of F2^rank for kernel vectors
        for candidate in product(range(2), repeat=h.rows):
            if not any(vec_mat(candidate, h)):
                assert all(c == 0 for c in candidate)


def test_eta_over_every_ring(small_groupoids):
    for g in small_groupoids:
        for ring in (Q, Z, F2, F5):
            for seed in (0, 1):
                cert = eta(random_module(g, ring, 2, seed=seed))
                assert cert.ok


def test_eta_failure_on_incomplete_units(point):
    # a deficient unit action (idempotent but not the identity) collapses part
    # of the carrier into the kernel of the germ map
    broken = GModule(point, Q, 2, {"(1,1)": Matrix.from_rows(Q, [[1, 0], [0, 0]])})
    result = eta(broken)
    assert not result.ok
    assert result.first().law == "injective"


def test_sheafify_rejects_lattice_breaking_action(p2):
    # zeroing one unit makes another arrow's action leave the stalk images
    m = regular_module(p2, Q)
    tampered = dict(m.action)
    tampered[p2.unit["1"]] = Matrix.zeros(Q, 4, 4)
    broken = GModule(p2, Q, 4, tampered)
    with pytest.raises(ValueError):
        sheafify(broken)


# -- epsilon -------------------------------------------------------------------------


def test_epsilon_on_constant_sheaf_over_point(point):
    cert = epsilon(constant_sheaf(point, Q, 1))
    assert cert.ok
    assert cert.value.iso.maps["1"] == Matrix.identity(Q, 1)


def test_epsilon_on_constant_sheaf_over_p2(p2):
    cert = epsilon(constant_sheaf(p2, Q, 1))
    assert cert.ok
    for x in p2.objects:
        assert cert.value.iso.maps[x].rows == 1 and cert.value.iso.maps[x].cols == 1
        assert matrix_inverse(cert.value.iso.maps[x]) is not None
    assert validate_sheaf_morphism(cert.value.iso).ok


def test_epsilon_on_random_sheaves(p2):
    for seed in range(20):
        e = random_sheaf(p2, F5, 3, seed=seed)
        cert = epsilon(e)
        assert cert.ok
        for x in p2.objects:
            assert cert.value.iso.maps[x].rows == e.stalk_rank[x]


def test_epsilon_over_every_ring(small_groupoids):
    for g in small_groupoids:
        for ring in (Q, Z, F2, F5):
            for seed in (0, 1):
                cert = epsilon(random_sheaf(g, ring, 2, seed=seed))
                assert cert.ok


# -- naturality -------------------------------------------------------------------------


def test_naturality_of_identity_and_zero(p2):
    m = random_module(p2, Q, 2, seed=60)
    n = random_module(p2, Q, 2, seed=61)
    assert check_naturality(identity_hom(m)).ok
    assert check_naturality(zero_hom(m, n)).ok


def test_naturality_on_random_module_homs(p2, z2):
    rng = random.Random(18)
    count = 0
    for g in (p2, z2):
        for _ in range(25):
            m1 = random_module(g, Q, 2, seed=rng.randrange(2**32))
            m2 = random_module(g, Q, 2, seed=rng.randrange(2**32))
            hom = random_hom(m1, m2, rng)
            assert check_naturality(hom).ok
            count += 1
    assert count == 50


def test_naturality_on_random_sheaf_morphisms(p2):
    rng = random.Random(19)
    for _ in range(10):
        e = random_sheaf(p2, Q, 2, seed=rng.randrange(2**32))
        f = random_sheaf(p2, Q, 2, seed=rng.randrange(2**32))
        phi = random_sheaf_hom(e, f, rng)
        assert check_naturality(phi).ok


def test_naturality_rejects_wrong_input(p2):
    with pytest.raises(TypeError):
        check_naturality("nope")


# -- every certificate check can fail ---------------------------------------------------


def with_entry(a, i, j, value):
    rows = [list(r) for r in a.entries]
    rows[i][j] = value
    return Matrix.from_rows(a.ring, rows, cols=a.cols)


def test_eta_fails_only_module_hom(p2):
    # the section module of the constant sheaf plus one entry on a non-unit
    # arrow that the germ sheaf cannot see: eta is still the identity matrix
    # (injective, and the preimages hit the basis), but it stops intertwining
    m = gamma_c(constant_sheaf(p2, Q, 1))
    a = next(a for a in p2.arrows if not is_unit_arrow(p2, a))
    i = p2.objects.index(p2.src[a])
    broken = GModule(p2, Q, m.rank, {**m.action, a: with_entry(m.action[a], i, i, 1)})
    assert eta_matrix(sheafify(broken)) == Matrix.identity(Q, 2)
    result = eta(broken)
    assert not result.ok
    assert result.first().law == "module-hom"
    assert result.first().witness == f"intertwining fails at arrow {a!r}"


def test_eta_fails_only_surjective(point):
    # unit action 2: eta is [[2]], which intertwines and has no kernel, but
    # it sends the stalk basis row to twice the basis section
    result = eta(GModule(point, Q, 1, {"(1,1)": Matrix.from_rows(Q, [[2]])}))
    assert not result.ok
    assert result.first().law == "surjective"
    assert str(result.first()) == "surjective: partition preimages do not hit the basis"


def test_epsilon_fails_only_stalk_support(p2, monkeypatch):
    # gamma_c puts each unit transport in its own block, so no sheaf makes a
    # germ basis leak; a patched sheafify adds an entry in the next block
    real = equivalence.sheafify
    x = p2.objects[0]

    def leaky(m):
        sh = real(m)
        leaked = with_entry(sh.stalk_basis[x], 0, 1, 1)
        return Sheafification(sh.module, sh.sheaf, {**sh.stalk_basis, x: leaked})

    monkeypatch.setattr(equivalence, "sheafify", leaky)
    result = epsilon(constant_sheaf(p2, Q, 1))
    assert not result.ok
    assert result.first().law == "stalk-support"
    assert result.first().witness == f"germ basis at {x!r} leaks outside its block"


def test_epsilon_fails_only_stalkwise_bijective(point):
    # over Z the stalk basis of a unit transport 2 is its Hermite form [[2]]:
    # supported on its block and equivariant, but not invertible over Z
    e = GSheaf(point, Z, {"1": 1}, {"(1,1)": Matrix.from_rows(Z, [[2]])})
    result = epsilon(e)
    assert not result.ok
    assert result.first().law == "stalkwise-bijective"
    assert result.first().witness == "component at '1'"


# A family that sheafify rejects has no germ sheaf: the certificates report
# it under "germ sheaf" with sheafify's message instead of raising.
OFF_LATTICE = "action of {!r} does not preserve stalk lattices; is the module valid?"


def test_eta_reports_a_module_without_germ_sheaf(p2):
    result = eta(split_units_module(p2))
    assert not result.ok and result.value is None
    assert result.failures == (Failure("germ sheaf", OFF_LATTICE.format("(1,2)")),)


def test_eta_still_raises_on_a_composite_modulus(p2):
    ring = modular(4)
    m = GModule(p2, ring, 1, {a: Matrix.identity(ring, 1) for a in p2.arrows})
    with pytest.raises(UnsupportedRingError):
        eta(m)


def test_eta_square_reports_a_module_without_germ_sheaf(p2):
    result = check_naturality(identity_hom(split_units_module(p2)))
    assert result.failures == (Failure("germ sheaf", OFF_LATTICE.format("(1,2)")),)


def test_epsilon_reports_a_section_module_without_germ_sheaf(p2):
    # transport 0 at (1,1) empties the first stalk of the section module,
    # and the action of (2,1) takes the second stalk into that block
    one = lambda v: Matrix.from_rows(F5, [[v]])
    e = GSheaf(p2, F5, {"1": 1, "2": 1}, {"(1,1)": one(0), "(1,2)": one(1), "(2,1)": one(1), "(2,2)": one(1)})
    result = epsilon(e)
    assert not result.ok and result.value is None
    assert result.failures == (Failure("germ sheaf", OFF_LATTICE.format("(2,1)")),)


def test_epsilon_fails_only_equivariant(p2, monkeypatch):
    # stalk support makes the counit equivariant by construction; a patched
    # sheafify doubles one germ transport and leaves the stalk bases alone
    real = equivalence.sheafify
    a = next(a for a in p2.arrows if not is_unit_arrow(p2, a))

    def twisted(m):
        sh = real(m)
        e = sh.sheaf
        doubled = GSheaf(e.groupoid, e.ring, e.stalk_rank, {**e.transport, a: e.transport[a].scaled(2)})
        return Sheafification(sh.module, doubled, sh.stalk_basis)

    monkeypatch.setattr(equivalence, "sheafify", twisted)
    result = epsilon(constant_sheaf(p2, Q, 1))
    assert not result.ok
    assert result.first().law == "equivariant"
    assert result.first().witness == f"square fails at arrow {a!r}"


def test_naturality_fails_the_eta_square(p2):
    # unit idempotents that miss the third basis vector; the hom sends it into
    # the first stalk, which no germ of it can follow
    ones = {p2.unit[x]: with_entry(Matrix.zeros(Q, 3, 3), i, i, 1) for i, x in enumerate(p2.objects)}
    action = {a: ones.get(a, Matrix.zeros(Q, 3, 3)) for a in p2.arrows}
    m = GModule(p2, Q, 3, action)
    report = check_naturality(GModuleHom(m, m, with_entry(Matrix.zeros(Q, 3, 3), 2, 0, 1)))
    assert not report.ok
    assert report.subject == "naturality"
    assert str(report.first()) == "eta square: eta square does not commute"


def test_naturality_fails_the_epsilon_square(p2, monkeypatch):
    # both counits exist and the square commutes for every sheaf morphism, so
    # a patched sections functor, the block-diagonal matrix of the
    # components, doubles the morphism on one side of it
    phi = identity_sheaf_mor(constant_sheaf(p2, Q, 1))
    real = equivalence.block_diagonal
    monkeypatch.setattr(equivalence, "block_diagonal", lambda ring, blocks: real(ring, blocks).scaled(2))
    report = check_naturality(phi)
    assert not report.ok
    assert str(report.first()) == f"epsilon square: epsilon square fails at object {p2.objects[0]!r}"


def test_naturality_fails_without_an_epsilon_certificate(point):
    e = GSheaf(point, Z, {"1": 1}, {"(1,1)": Matrix.from_rows(Z, [[2]])})
    report = check_naturality(identity_sheaf_mor(e))
    assert not report.ok
    assert str(report.first()) == "epsilon square: source epsilon: stalkwise-bijective: component at '1'"


def test_naturality_names_the_failed_end(point):
    # a zero morphism from a sheaf whose counit fails into one whose counit
    # holds names the source; the other way round names the target
    bad = GSheaf(point, Z, {"1": 1}, {"(1,1)": Matrix.from_rows(Z, [[2]])})
    good = GSheaf(point, Z, {"1": 1}, {"(1,1)": Matrix.identity(Z, 1)})
    for source, target, end in ((bad, good, "source"), (good, bad, "target")):
        report = check_naturality(zero_sheaf_mor(source, target))
        witness = f"{end} epsilon: stalkwise-bijective: component at '1'"
        assert report.failures == (Failure("epsilon square", witness),)


def test_epsilon_square_keeps_the_germ_sheaf_witness(p2, monkeypatch):
    # the sheaf of test_epsilon_reports_a_section_module_without_germ_sheaf:
    # its identity square names epsilon's germ sheaf failure, computed once
    one = lambda v: Matrix.from_rows(F5, [[v]])
    e = GSheaf(p2, F5, {"1": 1, "2": 1}, {"(1,1)": one(0), "(1,2)": one(1), "(2,1)": one(1), "(2,2)": one(1)})
    calls = []
    real = equivalence.epsilon
    monkeypatch.setattr(equivalence, "epsilon", lambda s: calls.append(s) or real(s))
    report = check_naturality(identity_sheaf_mor(e))
    witness = "source epsilon: germ sheaf: " + OFF_LATTICE.format("(2,1)")
    assert report.failures == (Failure("epsilon square", witness),)
    assert calls == [e]


# -- round trips and basis independence ----------------------------------------------


def test_object_round_trips(small_groupoids):
    for g in small_groupoids:
        m = random_module(g, Q, 2, seed=70)
        assert eta(m).ok
        e = random_sheaf(g, Q, 2, seed=71)
        assert epsilon(e).ok


def test_eta_verdict_is_basis_independent(p2):
    # rebuild the pair groupoid with the object order reversed; the same
    # action data must yield the same verdict even though the certificate
    # matrices depend on the chosen stalk bases
    reversed_p2 = FiniteGroupoid(
        tuple(reversed(p2.objects)),
        p2.arrows,
        p2.src,
        p2.dst,
        p2.unit,
        p2.compose,
        p2.inverse,
    )
    m = regular_module(p2, Q)
    m_perm = GModule(reversed_p2, Q, m.rank, dict(m.action))
    cert_a, cert_b = eta(m), eta(m_perm)
    assert cert_a.ok and cert_b.ok
    assert validate_module(m_perm).ok
