from __future__ import annotations

from dataclasses import replace
from itertools import chain, combinations

import pytest

import reference_kernels as ref
from ample import groupoid
from ample.builders import GraphSpec, acyclic_graph_groupoid, pair_groupoid
from ample.gmodule import regular_module, validate_module
from ample.groupoid import (
    Bisection,
    FiniteGroupoid,
    SizeGuardError,
    bisection_inverse,
    bisection_product,
    enumerate_bisections,
    is_bisection,
    object_subset,
    restrict_groupoid,
    unit_bisection,
    validate_groupoid,
)
from ample.validation import Failure

from conftest import Q, source_objects


def all_subsets(items):
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def brute_force_bisections(g):
    # oracle: scan every arrow subset, test injectivity of both endpoint maps
    found = []
    for subset in all_subsets(g.arrows):
        if len({g.src[a] for a in subset}) == len(subset) and len(
            {g.dst[a] for a in subset}
        ) == len(subset):
            found.append(frozenset(subset))
    return found


# -- validation -----------------------------------------------------------------


def test_trivial_groupoid_passes(point):
    assert validate_groupoid(point).ok


def test_pair_groupoid_passes_and_matches_formula(p2):
    assert validate_groupoid(p2).ok
    # oracle: (i,j)(j,k) = (i,k) on all 8 composable pairs
    pairs = list(p2.composable_pairs())
    assert len(pairs) == 8
    for a, b in pairs:
        i = a.strip("()").split(",")[0]
        k = b.strip("()").split(",")[1]
        assert p2.compose[(a, b)] == f"({i},{k})"


def test_all_fixtures_pass(small_groupoids):
    for g in small_groupoids:
        assert validate_groupoid(g).ok


def test_broken_inverse_is_reported(p2):
    tampered = dict(p2.inverse)
    tampered["(1,2)"] = "(1,2)"
    broken = FiniteGroupoid(
        p2.objects, p2.arrows, p2.src, p2.dst, p2.unit, p2.compose, tampered
    )
    report = validate_groupoid(broken)
    assert not report.ok
    first = report.first()
    assert first.law == "inverse law"
    assert "(1,2)" in first.witness


def test_missing_composition_is_reported(p2):
    partial = {k: v for k, v in p2.compose.items() if k != (("(1,2)"), ("(2,1)"))}
    broken = FiniteGroupoid(p2.objects, p2.arrows, p2.src, p2.dst, p2.unit, partial, p2.inverse)
    report = validate_groupoid(broken)
    assert any(f.law == "composition totality" for f in report.failures)


def test_referential_errors_raise_at_construction(p2):
    with pytest.raises(ValueError):
        FiniteGroupoid(
            p2.objects, p2.arrows, {**p2.src, "(1,1)": "bogus"}, p2.dst, p2.unit, p2.compose, p2.inverse
        )
    with pytest.raises(ValueError):
        FiniteGroupoid(("1", "1"), (), {}, {}, {"1": "x"}, {}, {})


# -- indexed lookups and the isotropy plan ----------------------------------------


def index_examples(small_groupoids, point, p3):
    diamond = GraphSpec(("a", "b", "c", "d"), (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")))
    return (*small_groupoids, point, p3, pair_groupoid(5), acyclic_graph_groupoid(diamond))


def test_indexed_lookups_match_linear_scans(small_groupoids, point, p3):
    for g in index_examples(small_groupoids, point, p3):
        for x in g.objects:
            assert g.arrows_with_src(x) == tuple(a for a in g.arrows if g.src[a] == x)
            for y in g.objects:
                scan = tuple(a for a in g.arrows if g.src[a] == x and g.dst[a] == y)
                assert g.hom_set(x, y) == scan
        assert g.hom_set("no such object", g.objects[0]) == ()
        assert g.arrows_with_src("no such object") == ()


def test_isotropy_plan_factors_every_arrow(small_groupoids, point, p3):
    for g in index_examples(small_groupoids, point, p3):
        plan = g.isotropy_plan
        assert plan.components == g.connected_components()
        for comp in plan.components:
            base = comp[0]
            assert plan.tree[base] == g.unit[base]
            for y in comp:
                assert plan.tree[y] == g.hom_set(base, y)[0]
        for a in g.arrows:
            y, z = g.src[a], g.dst[a]
            base = g.src[plan.tree[y]]
            assert plan.loop[a] in g.hom_set(base, base)
            rebuilt = g.mul(plan.tree[z], g.mul(plan.loop[a], g.inverse[plan.tree[y]]))
            assert rebuilt == a


def test_invalid_groupoid_has_no_isotropy_plan(p2):
    tampered = dict(p2.inverse)
    tampered["(1,2)"] = "(1,2)"
    broken = FiniteGroupoid(
        p2.objects, p2.arrows, p2.src, p2.dst, p2.unit, p2.compose, tampered
    )
    assert broken.isotropy_plan is None


def test_validation_and_modules_derive_the_isotropy_plan_once(monkeypatch):
    # validate_groupoid reads the cached plan that module validation reads
    calls = []
    real = groupoid._associative_plan
    monkeypatch.setattr(groupoid, "_associative_plan", lambda g: calls.append(g) or real(g))
    g = pair_groupoid(3)
    assert validate_groupoid(g).ok
    assert validate_module(regular_module(g, Q)).ok and validate_groupoid(g).ok
    assert calls == [g]
    # a groupoid that breaks one law: its witnesses come with the missing
    # plan, so the triple scan runs once however often the laws are asked
    scans = []
    real_scan = groupoid._associativity_failures
    monkeypatch.setattr(groupoid, "_associativity_failures", lambda g: scans.append(g) or real_scan(g))
    broken = replace(g, inverse={**g.inverse, "(1,2)": "(1,2)"})
    calls.clear()
    assert broken.isotropy_plan is None
    report = validate_groupoid(broken)
    assert validate_groupoid(broken) == report
    assert report.failures == (Failure("inverse law", "g='(1,2)': inverse has wrong endpoints"),)
    assert validate_module(regular_module(broken, Q)).failures == (Failure("groupoid", str(report.first())),)
    assert calls == [broken] and scans == [broken]


# -- bisections --------------------------------------------------------------------


def test_empty_and_unit_sets_are_bisections(p2):
    assert is_bisection(p2, [])
    assert is_bisection(p2, [p2.unit[x] for x in p2.objects])


def test_repeated_target_is_not_a_bisection(p2):
    assert not is_bisection(p2, ["(1,1)", "(1,2)"])  # both end at 1


def test_a_compose_entry_naming_an_unknown_arrow_is_reported_first_in_order(p2):
    """The message names the first bad entry in ``compose`` order and its
    first unknown id: left, then right factor, then the product."""
    def build(bad):
        compose = dict(p2.compose)
        compose.update(bad)
        return FiniteGroupoid(p2.objects, p2.arrows, p2.src, p2.dst, p2.unit, compose, p2.inverse)

    first = next(iter(p2.compose))
    cases = [
        ({first: "zz"}, f"compose entry {(*first, 'zz')!r} references unknown arrow 'zz'"),
        ({("yy", "zz"): "(1,1)"}, "compose entry ('yy', 'zz', '(1,1)') references unknown arrow 'yy'"),
        ({("(1,1)", "zz"): "yy"}, "compose entry ('(1,1)', 'zz', 'yy') references unknown arrow 'zz'"),
        ({("(1,1)", "(1,1)"): "(1,1)", ("a", "b"): "c", ("d", "e"): "f"},
         "compose entry ('a', 'b', 'c') references unknown arrow 'a'"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError) as raised:
            build(bad)
        assert str(raised.value) == message


def test_unknown_arrow_id_raises(p2):
    with pytest.raises(ValueError):
        is_bisection(p2, ["nope"])


def test_single_pair_product(p2):
    u = Bisection.of(p2, ["(1,2)"])
    v = Bisection.of(p2, ["(2,1)"])
    assert bisection_product(p2, u, v).arrows == ("(1,1)",)


def test_product_with_source_units_is_identity(p2):
    for u in enumerate_bisections(p2):
        units = unit_bisection(p2, source_objects(p2, u))
        assert bisection_product(p2, u, units) == u


def test_product_with_empty_is_empty(p2):
    empty = Bisection.of(p2, [])
    for u in enumerate_bisections(p2):
        assert bisection_product(p2, u, empty) == empty


def test_inverse_of_empty_and_involution(p2):
    empty = Bisection.of(p2, [])
    assert bisection_inverse(p2, empty) == empty
    assert bisection_inverse(p2, Bisection.of(p2, ["(1,2)"])).arrows == ("(2,1)",)
    for u in enumerate_bisections(p2):
        assert bisection_inverse(p2, bisection_inverse(p2, u)) == u


def test_enumeration_counts(point, p2, z2):
    assert len(enumerate_bisections(point)) == 2
    assert len(enumerate_bisections(p2)) == 7
    assert len(enumerate_bisections(z2)) == 3


def test_enumeration_matches_brute_force(small_groupoids):
    for g in small_groupoids:
        got = {frozenset(u.arrows) for u in enumerate_bisections(g)}
        assert got == set(brute_force_bisections(g))


def test_enumeration_guard():
    g = pair_groupoid(5)  # 25 arrows
    with pytest.raises(SizeGuardError):
        enumerate_bisections(g)


def test_products_always_bisections(small_groupoids):
    for g in small_groupoids:
        for u in enumerate_bisections(g):
            for v in enumerate_bisections(g):
                w = bisection_product(g, u, v)
                assert is_bisection(g, w.arrows)


# -- inverse semigroup laws -----------------------------------------------------------


def test_inverse_semigroup_laws_exhaustively(small_groupoids):
    for g in small_groupoids:
        bis = enumerate_bisections(g)
        for u in bis:
            for v in bis:
                for w in bis:
                    left = bisection_product(g, bisection_product(g, u, v), w)
                    right = bisection_product(g, u, bisection_product(g, v, w))
                    assert left == right
        for u in bis:
            assert bisection_product(g, bisection_product(g, u, bisection_inverse(g, u)), u) == u
        idempotents = [u for u in bis if bisection_product(g, u, u) == u]
        for e in idempotents:
            # idempotent bisections are exactly unit subsets
            assert all(ref.is_unit_arrow(g, a) for a in e)
            for f in idempotents:
                assert bisection_product(g, e, f) == bisection_product(g, f, e)


def test_object_power_set_is_directed(p2):
    # the join of two compact open subsets is an upper bound for both
    subsets = list(all_subsets(p2.objects))
    for a in subsets:
        for b in subsets:
            join = object_subset(p2, set(a) | set(b))
            assert set(a) <= set(join) and set(b) <= set(join)


# -- restriction ------------------------------------------------------------------------


def test_restrict_to_everything_is_identity(p2):
    assert restrict_groupoid(p2, p2.objects) == p2


def test_restrict_to_empty(p2):
    empty = restrict_groupoid(p2, [])
    assert empty.objects == () and empty.arrows == ()
    assert validate_groupoid(empty).ok


def test_restrict_p2_to_one_object(p2, point):
    sub = restrict_groupoid(p2, ["1"])
    assert sub.objects == ("1",)
    assert sub.arrows == ("(1,1)",)
    assert validate_groupoid(sub).ok


def test_restriction_always_valid(small_groupoids):
    for g in small_groupoids:
        if len(g.objects) > 4:
            continue
        for subset in all_subsets(g.objects):
            assert validate_groupoid(restrict_groupoid(g, subset)).ok
