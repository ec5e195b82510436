from __future__ import annotations

import dataclasses
import random

import pytest

import reference_kernels as ref
from ample import equivalence, morita
from ample.builders import (
    action_groupoid,
    cyclic_group,
    group_groupoid,
    pair_groupoid,
    random_module,
    random_sheaf,
    trivial_groupoid,
)
from ample.equivalence import Sheafification, gamma_c, sheafify
from ample.gmodule import (
    GModule,
    GModuleHom,
    direct_sum,
    hom_space_dim,
    is_isomorphism,
    regular_module,
    validate_hom,
    validate_module,
)
from ample.groupoid import validate_groupoid
from ample.gsheaf import (
    GSheaf,
    GSheafMor,
    compose_sheaf_mors,
    constant_sheaf,
    random_sheaf_hom,
    validate_sheaf,
    validate_sheaf_morphism,
)
from ample.morita import (
    GroupoidFunctor,
    MoritaSpan,
    anchors,
    counit_iso,
    identity_functor,
    is_essential_equivalence,
    module_transport,
    pullback_mor,
    pullback_quasi_inverse,
    pullback_sheaf,
    push_sheaf,
    qi_mor,
    round_trip,
    validate_functor,
    validate_span,
    verify_morita,
)
from ample.rings import Matrix, Ring, matrix_inverse, modular
from ample.validation import Failure

from conftest import F2, F5, Q, Z, bumped_matrix, identity_sheaf_mor, split_units_module


@pytest.fixture(scope="module")
def point_groupoid():
    return trivial_groupoid()


@pytest.fixture(scope="module")
def p2_local():
    return pair_groupoid(2)


@pytest.fixture(scope="module")
def inclusion(point_groupoid, p2_local):
    return GroupoidFunctor(point_groupoid, p2_local, {"1": "1"}, {"(1,1)": "(1,1)"})


@pytest.fixture(scope="module")
def p2_point_span(point_groupoid, inclusion):
    return MoritaSpan(point_groupoid, inclusion, identity_functor(point_groupoid))


@pytest.fixture(scope="module")
def action_point_span(point_groupoid):
    elems, table = cyclic_group(2)
    act_g = action_groupoid(elems, table, list(elems), dict(table))
    incl = GroupoidFunctor(point_groupoid, act_g, {"1": "e"}, {"(1,1)": "(e,e)"})
    return MoritaSpan(point_groupoid, incl, identity_functor(point_groupoid))


@pytest.fixture(scope="module")
def broken_span(point_groupoid):
    elems, table = cyclic_group(2)
    from ample.builders import group_groupoid

    z2 = group_groupoid(elems, table)
    collapse = GroupoidFunctor(z2, point_groupoid, {"*": "1"}, {"e": "(1,1)", "g": "(1,1)"})
    return MoritaSpan(z2, collapse, identity_functor(z2))


# -- functors ---------------------------------------------------------------------


def test_identity_functor_is_valid(p2_local):
    f = identity_functor(p2_local)
    assert validate_functor(f).ok
    assert is_essential_equivalence(f).ok


def test_functor_validation_catches_broken_units(p2_local, point_groupoid):
    bad = GroupoidFunctor(point_groupoid, p2_local, {"1": "1"}, {"(1,1)": "(1,2)"})
    report = validate_functor(bad)
    assert not report.ok


def test_point_inclusion_is_essential_equivalence(inclusion, point_groupoid, p2_local):
    report = is_essential_equivalence(inclusion)
    assert report.ok
    # oracle: every hom-set of the pair groupoid is a singleton, and so is
    # every hom-set of the point, so full faithfulness is forced; object "2"
    # is reachable through the arrow (1,2)
    assert len(p2_local.hom_set("2", "1")) == 1


def test_collapse_of_z2_fails_full_faithfulness(broken_span):
    report = is_essential_equivalence(broken_span.left)
    assert not report.ok
    assert any(f.law == "full faithfulness" for f in report.failures)


def test_unreachable_object_fails_essential_surjectivity():
    # include one point into the discrete groupoid on two objects: the second
    # object receives no arrow from the image
    from ample.groupoid import FiniteGroupoid, restrict_groupoid

    discrete = FiniteGroupoid(
        ("1", "2"),
        ("(1,1)", "(2,2)"),
        {"(1,1)": "1", "(2,2)": "2"},
        {"(1,1)": "1", "(2,2)": "2"},
        {"1": "(1,1)", "2": "(2,2)"},
        {("(1,1)", "(1,1)"): "(1,1)", ("(2,2)", "(2,2)"): "(2,2)"},
        {"(1,1)": "(1,1)", "(2,2)": "(2,2)"},
    )
    one_point = restrict_groupoid(discrete, ["1"])
    incl = GroupoidFunctor(one_point, discrete, {"1": "1"}, {"(1,1)": "(1,1)"})
    report = is_essential_equivalence(incl)
    assert not report.ok
    assert any(f.law == "essential surjectivity" for f in report.failures)


def test_span_requires_legs_from_apex(p2_local, point_groupoid, inclusion):
    with pytest.raises(ValueError):
        MoritaSpan(p2_local, inclusion, identity_functor(p2_local))


# -- pullbacks ----------------------------------------------------------------------


def test_pullback_along_identity_is_identity(p2_local):
    e = random_sheaf(p2_local, Q, 2, seed=1)
    assert pullback_sheaf(identity_functor(p2_local), e) == e


def test_pullback_of_constant_sheaf_is_constant(inclusion, point_groupoid, p2_local):
    e = constant_sheaf(p2_local, Q, 3)
    assert pullback_sheaf(inclusion, e) == constant_sheaf(point_groupoid, Q, 3)


def test_pullback_restricts_stalks(inclusion, p2_local):
    e = random_sheaf(p2_local, Q, 2, seed=2)
    pulled = pullback_sheaf(inclusion, e)
    assert pulled.stalk_rank["1"] == e.stalk_rank["1"]
    assert validate_sheaf(pulled).ok


def test_pullback_preserves_isomorphisms(inclusion, p2_local):
    # an invertible equivariant morphism pulls back to an invertible one
    e = random_sheaf(p2_local, Q, 2, seed=3)
    phi = identity_sheaf_mor(e)
    pulled = pullback_mor(inclusion, phi)
    assert validate_sheaf_morphism(pulled).ok
    assert pulled.inverse is not None


# -- quasi-inverse ---------------------------------------------------------------------


def test_anchors_are_deterministic(inclusion):
    sigma, alpha = anchors(inclusion)
    assert sigma == {"1": "1", "2": "1"}
    # the first arrow from F(1)=1 to 2 in declaration order is (2,1)
    assert alpha["1"] == "(1,1)"
    assert alpha["2"] == "(2,1)"


def test_quasi_inverse_along_identity(p2_local):
    e = random_sheaf(p2_local, Q, 2, seed=4)
    qi = pullback_quasi_inverse(identity_functor(p2_local), e).value
    assert validate_sheaf(qi.sheaf).ok
    assert validate_sheaf_morphism(qi.unit).ok
    assert qi.unit.inverse is not None


def test_quasi_inverse_of_point_sheaf_spreads_over_p2(inclusion, point_groupoid):
    e = constant_sheaf(point_groupoid, Q, 1)
    qi = pullback_quasi_inverse(inclusion, e).value
    assert qi.sheaf.groupoid == inclusion.target
    assert [qi.sheaf.stalk_rank[x] for x in inclusion.target.objects] == [1, 1]
    assert validate_sheaf(qi.sheaf).ok


def test_quasi_inverse_requires_essential_equivalence(broken_span, point_groupoid):
    e = constant_sheaf(broken_span.apex, Q, 1)
    with pytest.raises(ValueError):
        pullback_quasi_inverse(broken_span.left, e)


def test_quasi_inverse_round_trips_on_random_sheaves(inclusion, point_groupoid):
    for seed in range(10):
        e = random_sheaf(point_groupoid, Q, 3, seed=seed)
        report = pullback_quasi_inverse(inclusion, e)
        qi = report.value
        # unit: e is isomorphic to the pullback of the pushed sheaf
        assert report.ok and validate_sheaf_morphism(qi.unit).ok
        assert qi.unit.inverse is not None


def test_counit_on_target_sheaves(inclusion, p2_local):
    for seed in range(5):
        e = random_sheaf(p2_local, Q, 2, seed=seed)
        pushed = pullback_quasi_inverse(inclusion, pullback_sheaf(inclusion, e)).value.sheaf
        report = counit_iso(inclusion, e, pushed)
        iso = report.value
        assert report.ok and validate_sheaf_morphism(iso).ok
        assert iso.inverse is not None


def test_pullback_reflects_isomorphisms(inclusion, p2_local):
    # two sheaves whose pullbacks are isomorphic are already isomorphic,
    # transferred through the quasi-inverse and the counit; the second sheaf
    # is a coboundary twist of the first, so an isomorphism certainly exists
    from ample.builders import random_invertible
    from ample.gsheaf import GSheaf

    e = random_sheaf(p2_local, Q, 2, seed=21)
    rng = random.Random(23)
    twist, untwist = {}, {}
    for x in p2_local.objects:
        twist[x], untwist[x] = random_invertible(Q, e.stalk_rank[x], rng)
    f = GSheaf(
        p2_local,
        Q,
        dict(e.stalk_rank),
        {
            a: untwist[p2_local.dst[a]] @ e.transport[a] @ twist[p2_local.src[a]]
            for a in p2_local.arrows
        },
    )
    assert validate_sheaf(f).ok
    iso_direct = GSheafMor(e, f, {x: twist[x] for x in p2_local.objects})
    assert validate_sheaf_morphism(iso_direct).ok
    pe, pf = pullback_sheaf(inclusion, e), pullback_sheaf(inclusion, f)
    iso_apex = pullback_mor(inclusion, iso_direct)
    assert iso_apex.inverse is not None
    qi_e = pullback_quasi_inverse(inclusion, pe).value
    qi_f = pullback_quasi_inverse(inclusion, pf).value
    lifted = qi_mor(inclusion, iso_apex, qi_e.sheaf, qi_f.sheaf)
    ce = counit_iso(inclusion, e, qi_e.sheaf).value
    cf = counit_iso(inclusion, f, qi_f.sheaf).value
    ce_inv = ce.inverse
    transferred = compose_sheaf_mors(compose_sheaf_mors(ce_inv, lifted), cf)
    assert validate_sheaf_morphism(transferred).ok
    assert transferred.inverse is not None


# -- module transport --------------------------------------------------------------------


def test_identity_span_round_trip(p2_local):
    span = MoritaSpan(p2_local, identity_functor(p2_local), identity_functor(p2_local))
    m = regular_module(p2_local, Q)
    cert = round_trip(span, m)
    assert cert.ok
    assert validate_hom(cert.value.iso).ok
    assert matrix_inverse(cert.value.iso.matrix) is not None
    assert cert.value.transported.rank == m.rank


def test_regular_p2_module_transports_to_rank_2(p2_point_span, p2_local):
    m = regular_module(p2_local, Q)
    n = module_transport(p2_point_span, m)
    assert n.rank == 2
    assert validate_module(n).ok


def test_action_groupoid_transport_halves_dimension(action_point_span):
    g = action_point_span.left.target
    m = regular_module(g, Q)
    n = module_transport(action_point_span, m)
    assert m.rank == 4 and n.rank == 2


def test_rank_halving_for_equal_stalk_sheaves(p2_point_span, p2_local):
    for r in (1, 2, 3):
        m = gamma_c(constant_sheaf(p2_local, Q, r))
        n = module_transport(p2_point_span, m)
        assert m.rank == 2 * r and n.rank == r


def test_round_trips_both_directions(p2_point_span, p2_local, point_groupoid):
    for seed in (1, 2, 3):
        m = random_module(p2_local, Q, 2, seed=seed)
        cert = round_trip(p2_point_span, m)
        assert cert.ok and cert.value.iso.target.rank == m.rank
        n = random_module(point_groupoid, Q, 2, seed=seed)
        cert_back = round_trip(p2_point_span.reversed(), n)
        assert cert_back.ok and cert_back.value.iso.target.rank == n.rank


def test_round_trip_over_z_and_f5(p2_point_span, p2_local):
    for ring in (Z, F5):
        m = random_module(p2_local, ring, 2, seed=9)
        cert = round_trip(p2_point_span, m)
        assert cert.ok
        assert validate_hom(cert.value.iso).ok


# -- failed round trips: one injected fault per certified step -------------------------


def double_pushes_along(monkeypatch, leg, a):
    """Make every push along ``leg`` double its transport along ``a``."""
    real = morita.push_sheaf

    def push(f, e):
        pushed = real(f, e)
        if f is not leg:
            return pushed
        doubled = {**pushed.transport, a: pushed.transport[a].scaled(2)}
        return GSheaf(pushed.groupoid, e.ring, pushed.stalk_rank, doubled)

    monkeypatch.setattr(morita, "push_sheaf", push)


def test_round_trip_reports_a_failed_quasi_inverse_unit(monkeypatch, p2_point_span, p2_local):
    # the right leg is the identity of the point: a push along it that
    # doubles the unit transport no longer pulls back onto the apex sheaf
    m = random_module(p2_local, F5, 2, seed=9)
    transported = module_transport(p2_point_span, m).rank
    double_pushes_along(monkeypatch, p2_point_span.right, "(1,1)")
    cert = round_trip(p2_point_span, m)
    assert not cert.ok
    assert str(cert.first()) == "quasi-inverse unit: equivariance: square fails at arrow '(1,1)'"
    assert cert.value.transported.rank == transported


def test_round_trip_reports_a_pushed_sheaf_that_is_not_a_sheaf(monkeypatch, p2_point_span, point_groupoid):
    # reversed, the span pushes along the inclusion of the point into p2,
    # whose arrow (1,2) is outside the image: the unit never reads its
    # transport, so only the sheaf check of the pushed sheaf sees it doubled
    back = p2_point_span.reversed()
    n = random_module(point_groupoid, F5, 2, seed=9)
    assert round_trip(back, n).ok
    double_pushes_along(monkeypatch, back.right, "(1,2)")
    cert = round_trip(back, n)
    assert not cert.ok
    assert cert.first().law == "quasi-inverse sheaf"
    assert cert.first().witness.startswith("factorisation: ")
    assert {f.law for f in cert.failures} == {"quasi-inverse sheaf"}


def test_round_trip_reports_a_failed_epsilon(monkeypatch, p2_point_span, p2_local):
    # over Z a doubled germ basis leaves epsilon's component singular, so no
    # chain is left to build the intertwiner from
    m = random_module(p2_local, Z, 2, seed=9)
    transported = module_transport(p2_point_span, m).rank
    assert transported > 0
    real = equivalence.sheafify

    def doubled_basis(module):
        sh = real(module)
        return Sheafification(sh.module, sh.sheaf, {x: b.scaled(2) for x, b in sh.stalk_basis.items()})

    monkeypatch.setattr(equivalence, "sheafify", doubled_basis)
    cert = round_trip(p2_point_span, m)
    assert not cert.ok
    assert str(cert.first()) == "epsilon: stalkwise-bijective: component at '1'"
    assert cert.value.iso is None
    assert cert.value.transported.rank == transported


def test_round_trip_reports_a_failed_counit(monkeypatch, p2_point_span, p2_local):
    # the left pushes no longer match the sheaf the counit maps onto
    m = random_module(p2_local, F5, 2, seed=9)
    transported = module_transport(p2_point_span, m).rank
    double_pushes_along(monkeypatch, p2_point_span.left, "(1,2)")
    cert = round_trip(p2_point_span, m)
    assert not cert.ok
    assert str(cert.first()) == "counit: equivariance: square fails at arrow '(1,2)'"
    assert cert.value.transported.rank == transported


def test_round_trip_reports_a_failed_intertwiner(monkeypatch, p2_point_span, p2_local):
    m = random_module(p2_local, F5, 2, seed=9)
    real = morita.eta_matrix
    monkeypatch.setattr(morita, "eta_matrix", lambda sh: bumped_matrix(real(sh), 0, 0))
    cert = round_trip(p2_point_span, m)
    assert not cert.ok
    assert {f.law for f in cert.failures} == {"round-trip intertwiner"}
    assert cert.value.iso is not None and not is_isomorphism(cert.value.iso).ok
    assert cert.value.transported.rank == module_transport(p2_point_span, m).rank


def test_round_trip_reports_a_module_without_germ_sheaf(p2_point_span, p2_local):
    cert = round_trip(p2_point_span, split_units_module(p2_local))
    assert not cert.ok and cert.value is None
    assert [str(f) for f in cert.failures] == [
        "germ sheaf: action of '(1,2)' does not preserve stalk lattices; is the module valid?"
    ]


def test_round_trip_reports_an_epsilon_without_germ_sheaf():
    # sheafify accepts this Z/2-module: its germ sheaf has unit transport the
    # nilpotent [[0,1],[0,0]] and g the swap, which ε's section module fails
    elems, table = cyclic_group(2)
    z2 = group_groupoid(elems, table)
    m = GModule(z2, Q, 3, {
        "e": Matrix.from_rows(Q, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
        "g": Matrix.from_rows(Q, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
    })
    cert = round_trip(MoritaSpan(z2, identity_functor(z2), identity_functor(z2)), m)
    assert not cert.ok
    assert "epsilon: germ sheaf: action of 'g' does not preserve stalk lattices; is the module valid?" in [
        str(f) for f in cert.failures
    ]
    assert cert.value.iso is None and cert.value.transported.rank == 2


def test_transport_rejects_broken_span(broken_span):
    m = regular_module(broken_span.left.target, Q)
    with pytest.raises(ValueError):
        module_transport(broken_span, m)


def test_transport_is_deterministic(p2_point_span, p2_local):
    m = regular_module(p2_local, Q)
    assert module_transport(p2_point_span, m) == module_transport(p2_point_span, m)


def test_transport_additivity_up_to_permutation(p2_point_span, p2_local):
    m1 = random_module(p2_local, Q, 1, seed=30)
    m2 = random_module(p2_local, Q, 2, seed=34)
    assert m1.rank > 0 and m2.rank > 0
    n_sum = module_transport(p2_point_span, direct_sum(m1, m2))
    n1 = module_transport(p2_point_span, m1)
    n2 = module_transport(p2_point_span, m2)
    expected = direct_sum(n1, n2)
    assert n_sum.rank == expected.rank
    # the two section modules differ only by interleaving the per-object
    # blocks; build that permutation and check it intertwines
    target_g = p2_point_span.right.target
    sh1 = sheafify(m1).sheaf
    sh2 = sheafify(m2).sheaf
    sigma, _ = anchors(p2_point_span.left)
    ranks1 = {y: sh1.stalk_rank[p2_point_span.left.obj_map[sigma[y]]] for y in target_g.objects}
    ranks2 = {y: sh2.stalk_rank[p2_point_span.left.obj_map[sigma[y]]] for y in target_g.objects}
    perm_rows = []
    off1 = 0
    offsets1, offsets2 = {}, {}
    for y in target_g.objects:
        offsets1[y] = off1
        off1 += ranks1[y]
    off2 = 0
    for y in target_g.objects:
        offsets2[y] = off2
        off2 += ranks2[y]
    total1 = sum(ranks1.values())
    for y in target_g.objects:
        for i in range(ranks1[y]):
            row = [0] * expected.rank
            row[offsets1[y] + i] = 1
            perm_rows.append(row)
        for i in range(ranks2[y]):
            row = [0] * expected.rank
            row[total1 + offsets2[y] + i] = 1
            perm_rows.append(row)
    perm = Matrix.from_rows(Q, perm_rows, cols=expected.rank)
    hom = GModuleHom(n_sum, expected, perm)
    assert validate_hom(hom).ok
    assert matrix_inverse(perm) is not None


# -- the batch verifier ---------------------------------------------------------------------


def test_verify_identity_span(p2_local):
    span = MoritaSpan(p2_local, identity_functor(p2_local), identity_functor(p2_local))
    report = verify_morita(span, Q, samples=3, seed=5)
    assert report.ok
    assert not report.rejected


def test_verify_p2_point_span(p2_point_span):
    report = verify_morita(p2_point_span, Q, samples=5, seed=6)
    assert report.ok
    for sample in report.samples:
        assert sample.round_trip_ok
    for (_, _, a, b) in report.hom_dims:
        assert a == b


def test_verify_pair6_point_span_stays_polynomial():
    # Seed 3 draws left modules of ranks 6, 12 and 12 on pair(6).  The dense
    # hom system of two rank-12 modules is 144 x 5184; on the base stalks of
    # the isotropy reduction it is 2 x 2 with nothing to solve.
    point, pair = trivial_groupoid(), pair_groupoid(6)
    (p_obj,), (p_arrow,) = point.objects, point.arrows
    x = pair.objects[0]
    incl = GroupoidFunctor(point, pair, {p_obj: x}, {p_arrow: pair.unit[x]})
    report = verify_morita(MoritaSpan(point, incl, identity_functor(point)), F5, samples=3, seed=3)
    assert report.ok
    left = [s for s in report.samples if s.direction == "left->right"]
    assert [s.source_rank for s in left] == [6, 12, 12]
    # over the point, Hom between ranks r and s has dimension r * s
    ranks = [s.transported_rank for s in left]
    assert ranks == [1, 2, 2]
    assert report.hom_dims == tuple(
        (i, j, ranks[i] * ranks[j], ranks[i] * ranks[j]) for i in range(3) for j in range(3)
    )


def test_verify_rejects_broken_span(broken_span):
    report = verify_morita(broken_span, Q, samples=2, seed=7)
    assert report.rejected
    assert not report.ok
    assert report.samples == ()


def _without_entry(g, pair):
    return dataclasses.replace(g, compose={k: v for k, v in g.compose.items() if k != pair})


def test_verify_rejects_a_span_over_a_groupoid_without_a_plan(monkeypatch, point_groupoid, p2_local):
    # the leg itself is a fine functor, but drawing a module over its target
    # needs the target's isotropy plan: the span is rejected before any draw
    broken_p2 = _without_entry(p2_local, ("(2,1)", "(1,2)"))
    assert broken_p2.isotropy_plan is None
    leg = GroupoidFunctor(point_groupoid, broken_p2, {"1": "1"}, {"(1,1)": "(1,1)"})
    assert leg.equivalence_report.ok
    monkeypatch.setattr(morita, "random_module", lambda *args, **kwargs: pytest.fail("a module was drawn"))
    report = verify_morita(MoritaSpan(point_groupoid, leg, identity_functor(point_groupoid)), F5, samples=2, seed=0)
    assert report.rejected and report.samples == () and report.hom_dims == ()
    assert report.left_leg.failures == (
        Failure("groupoid", "target: composition totality: ('(2,1)','(1,2)') composable but undefined"),
    )
    assert report.right_leg.ok


def test_verify_names_a_broken_apex_on_both_legs(point_groupoid):
    # Z/2 without g*g, collapsed onto the point on the left: the groupoid
    # failure comes before the leg's own full faithfulness failure
    apex = _without_entry(group_groupoid(*cyclic_group(2)), ("g", "g"))
    collapse = GroupoidFunctor(apex, point_groupoid, {"*": "1"}, {"e": "(1,1)", "g": "(1,1)"})
    report = verify_morita(MoritaSpan(apex, collapse, identity_functor(apex)), F5, samples=1, seed=0)
    assert report.rejected and report.samples == ()
    source, target = (Failure("groupoid", f"{end}: {validate_groupoid(apex).first()}") for end in ("source", "target"))
    assert report.left_leg.failures[0] == source
    assert {f.law for f in report.left_leg.failures[1:]} == {"full faithfulness"}
    assert report.right_leg.failures == (source, target)


def test_verify_span_validation_details(p2_point_span, broken_span):
    assert validate_span(p2_point_span).ok
    bad = validate_span(broken_span)
    assert not bad.ok
    assert any("left leg" in f.law for f in bad.failures)


# -- the cached quasi-inverse data against the per-call scan --------------------------------


@pytest.fixture(scope="module")
def standing_legs(small_groupoids, two_component_groupoid, point_groupoid, p2_point_span, action_point_span):
    """The legs of the standing spans, both legs of pair(n) <-> point for
    n <= 5, the inversion automorphism of Z/3 (hom-sets of size 3), and the
    identity of a groupoid with two components (two anchor objects)."""
    legs = [identity_functor(g) for g in (*small_groupoids, two_component_groupoid)]
    legs += [p2_point_span.left, p2_point_span.right, action_point_span.left]
    (p_obj,), (p_arrow,) = point_groupoid.objects, point_groupoid.arrows
    for n in range(2, 6):
        pair = pair_groupoid(n)
        x = pair.objects[0]
        legs.append(GroupoidFunctor(point_groupoid, pair, {p_obj: x}, {p_arrow: pair.unit[x]}))
        legs.append(
            GroupoidFunctor(
                pair, point_groupoid, {y: p_obj for y in pair.objects}, {a: p_arrow for a in pair.arrows}
            )
        )
    z3 = group_groupoid(*cyclic_group(3))
    legs.append(GroupoidFunctor(z3, z3, {x: x for x in z3.objects}, dict(z3.inverse)))
    return legs


@pytest.mark.parametrize("ring", [Q, F5], ids=["Q", "Fp:5"])
def test_quasi_inverse_matches_the_scanning_reference(standing_legs, ring):
    rng = random.Random(43)
    for f in standing_legs:
        assert is_essential_equivalence(f).ok
        for _ in range(2):
            e1, e2 = (random_sheaf(f.source, ring, 2, seed=rng.randrange(2**32)) for _ in range(2))
            r1, r2 = pullback_quasi_inverse(f, e1), pullback_quasi_inverse(f, e2)
            assert r1.ok and r2.ok
            qi1, qi2 = r1.value, r2.value
            assert qi1 == ref.pullback_quasi_inverse(f, e1)
            assert qi2 == ref.pullback_quasi_inverse(f, e2)
            phi = random_sheaf_hom(e1, e2, rng)
            assert qi_mor(f, phi, qi1.sheaf, qi2.sheaf) == ref.qi_mor(f, phi, qi1.sheaf, qi2.sheaf)
            e = random_sheaf(f.target, ring, 2, seed=rng.randrange(2**32))
            pushed = pullback_quasi_inverse(f, pullback_sheaf(f, e)).value.sheaf
            counit = counit_iso(f, e, pushed)
            assert counit.ok and counit.value == ref.counit_iso(f, e, pushed)


@pytest.mark.parametrize("ring", [Q, F5], ids=["Q", "Fp:5"])
def test_push_sheaf_matches_the_per_arrow_conjugation(standing_legs, ring):
    rng = random.Random(47)
    for f in standing_legs:
        for _ in range(2):
            e = random_sheaf(f.source, ring, 2, seed=rng.randrange(2**32))
            pushed, want = push_sheaf(f, e), ref.push_sheaf(f, e)
            assert pushed == want
            assert list(pushed.stalk_rank) == list(want.stalk_rank)
            assert list(pushed.transport) == list(want.transport)


def test_push_sheaf_lifts_the_arrows_once_per_functor(monkeypatch, point_groupoid):
    """The arrow lift is built with the anchors, once per functor; later
    pushes read it and look up no composite."""
    calls = []
    real = morita.anchors
    monkeypatch.setattr(morita, "anchors", lambda f: calls.append(f) or real(f))
    pair = pair_groupoid(3)
    looked_up = []

    class CountingTable(dict):
        def __getitem__(self, key):
            looked_up.append(key)
            return super().__getitem__(key)

    counted = dataclasses.replace(pair, compose=CountingTable(pair.compose))
    (p_obj,), (p_arrow,) = point_groupoid.objects, point_groupoid.arrows
    legs = [GroupoidFunctor(point_groupoid, counted, {p_obj: x}, {p_arrow: counted.unit[x]}) for x in ("1", "2")]
    rng = random.Random(5)
    for f in legs:
        push_sheaf(f, random_sheaf(point_groupoid, F5, 2, seed=rng.randrange(2**32)))
        built = len(looked_up)
        assert built == 2 * len(pair.arrows)  # two composites per target arrow
        for _ in range(3):
            e = random_sheaf(point_groupoid, F5, 2, seed=rng.randrange(2**32))
            assert push_sheaf(f, e) == ref.push_sheaf(f, e)
        assert len(looked_up) == built + 3 * 2 * len(pair.arrows)  # the reference's own lookups only
        looked_up.clear()
    assert calls == legs


def test_equal_but_not_identical_rings_and_groupoids_are_accepted(point_groupoid):
    """Every guard that tests ``is`` first still falls back to ``==``."""
    ring, same_ring = Ring("mod", 5), modular(5)
    g, same_g = pair_groupoid(2), pair_groupoid(2)
    assert ring == same_ring and ring is not same_ring and g == same_g and g is not same_g
    e = random_sheaf(g, ring, 2, seed=3)
    f = GSheaf(same_g, same_ring, dict(e.stalk_rank), dict(e.transport))
    assert f == e and f is not e and f.groupoid is not e.groupoid and f.ring is not e.ring
    maps = {x: Matrix.identity(same_ring, n) for x, n in e.stalk_rank.items()}
    phi = GSheafMor(e, f, maps)
    psi = GSheafMor(GSheaf(same_g, same_ring, dict(f.stalk_rank), dict(f.transport)), e, maps)
    assert compose_sheaf_mors(phi, psi).maps == maps
    m1 = regular_module(g, ring)
    m2 = GModule(same_g, same_ring, m1.rank, {a: Matrix(same_ring, 4, 4, x.entries) for a, x in m1.action.items()})
    assert validate_hom(GModuleHom(m1, m2, Matrix.identity(same_ring, 4))).ok
    assert hom_space_dim(m1, m2) == hom_space_dim(m1, m1) == 4
    (p_obj,), (p_arrow,) = point_groupoid.objects, point_groupoid.arrows
    collapse = GroupoidFunctor(g, point_groupoid, {y: p_obj for y in g.objects}, {a: p_arrow for a in g.arrows})
    assert push_sheaf(collapse, f) == ref.push_sheaf(collapse, e)
    over_point = constant_sheaf(trivial_groupoid(), same_ring, 2)
    assert over_point.groupoid is not collapse.target
    assert pullback_sheaf(collapse, over_point) == constant_sheaf(g, ring, 2)


def test_quasi_inverse_and_reference_reject_the_same_leg(broken_span, point_groupoid):
    e = constant_sheaf(broken_span.apex, Q, 1)
    for build in (pullback_quasi_inverse, ref.pullback_quasi_inverse):
        with pytest.raises(ValueError, match="not an essential equivalence: full faithfulness"):
            build(broken_span.left, e)


def test_verify_morita_rejects_a_composite_modulus_at_the_first_sample(p2_point_span):
    with pytest.raises(ValueError, match="need a field or Z"):
        verify_morita(p2_point_span, modular(6), samples=1, seed=0)


def test_verify_morita_checks_and_anchors_each_leg_once(monkeypatch):
    calls = {"is_essential_equivalence": 0, "anchors": 0}
    for name in calls:
        real = getattr(morita, name)

        def counted(f, name=name, real=real):
            calls[name] += 1
            return real(f)

        monkeypatch.setattr(morita, name, counted)
    point, pair = trivial_groupoid(), pair_groupoid(3)
    x = pair.objects[0]
    incl = GroupoidFunctor(point, pair, {point.objects[0]: x}, {point.arrows[0]: pair.unit[x]})
    report = verify_morita(MoritaSpan(point, incl, identity_functor(point)), F5, samples=3, seed=1)
    assert report.ok and len(report.samples) == 6
    assert calls == {"is_essential_equivalence": 2, "anchors": 2}


@pytest.mark.parametrize("ring", [Q, Z, F5, F2], ids=lambda ring: ring.name)
def test_the_round_trip_closes_with_the_chain_of_sheaf_morphisms(ring, p2_point_span, action_point_span):
    point = trivial_groupoid()
    (p_obj,), (p_arrow,) = point.objects, point.arrows
    spans = [p2_point_span, action_point_span]
    for n in (1, 2, 3, 4):
        pair = pair_groupoid(n)
        x = pair.objects[0]
        spans.append(MoritaSpan(point, GroupoidFunctor(point, pair, {p_obj: x}, {p_arrow: pair.unit[x]}),
                                identity_functor(point)))
    for i, span in enumerate(spans):
        for way in (span, span.reversed()):
            for seed in range(2):
                m = random_module(way.left.target, ring, 2, seed=seed + 10 * i)
                cert = round_trip(way, m)
                assert cert.ok
                assert cert.value.iso.matrix == ref.round_trip_iso(way, m)


def test_round_trip_pushes_without_building_a_discarded_unit(monkeypatch, p2_point_span, p2_local):
    # one quasi-inverse (and its unit check) per round trip, along the right
    # leg; both left pushes are needed only as sheaves, so they are the two
    # push_sheaf calls besides the one inside the quasi-inverse
    calls = {"pullback_quasi_inverse": 0, "push_sheaf": 0}
    for name in calls:
        real = getattr(morita, name)

        def counted(f, e, name=name, real=real):
            calls[name] += 1
            return real(f, e)

        monkeypatch.setattr(morita, name, counted)
    m = random_module(p2_local, F5, 2, seed=9)
    cert = round_trip(p2_point_span, m)
    assert cert.ok and validate_hom(cert.value.iso).ok
    assert calls == {"pullback_quasi_inverse": 1, "push_sheaf": 3}

