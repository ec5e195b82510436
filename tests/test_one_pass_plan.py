"""The one-pass isotropy plan and Light's associativity test against the
scans they replaced.

``FiniteGroupoid.isotropy_plan`` checks every groupoid law in one pass over
the composition table and each base isotropy group by Light's test, and
``builders._check_group`` tests associativity the same way.
``reference_kernels`` keeps the law scan followed by the |K|³ plan check
(``isotropy_plan``) and the group check with its triple scan
(``check_group``).  Plans, failure lists and error messages must agree, on
sound tables, under injected faults and on random tables.
"""
from __future__ import annotations

import random
from dataclasses import replace
from itertools import product
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_kernels as ref
from ample import groupoid
from ample.builders import _check_group, action_groupoid, cyclic_group, group_groupoid, symmetric_group
from ample.groupoid import FiniteGroupoid, is_associative, validate_groupoid
from ample.gsheaf import constant_sheaf, validate_sheaf
from ample.validation import Failure
from conftest import F5
from test_groupoid_associativity import ONE_CHECK_FAULTS, _associativity_only_faults, _parity_action
from test_groupoid_oracle import FAULTS, GROUPOIDS, _fault


def _points_action(n: int) -> FiniteGroupoid:
    """S_n acting on the points 1..n; the isotropy at each point is S_{n-1}."""
    names, table = symmetric_group(n)
    points = tuple(names[0])
    return action_groupoid(names, table, points, {(p, x): p[int(x) - 1] for p in names for x in points})


FIXTURES = {
    **GROUPOIDS,
    **{f"s{n}": group_groupoid(*symmetric_group(n)) for n in (1, 2, 3, 4)},
    **{f"s{n}-points": _points_action(n) for n in (2, 3, 4)},
}


def _outcome(f, *args):
    """What ``f(*args)`` returns, or the type and text of what it raises."""
    try:
        return "returns", f(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


# -- the plan ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_sound_fixtures_get_the_oracle_plan(name):
    g = FIXTURES[name]
    plan = replace(g).isotropy_plan
    assert plan is not None
    assert plan == ref.isotropy_plan(g)


@pytest.mark.parametrize("kind", FAULTS)
def test_injected_faults_give_the_oracle_plan_and_failures(kind):
    rng = random.Random(f"one pass {kind}")
    refused = 0
    for name in sorted(FIXTURES):
        for _ in range(4):
            g = _fault(FIXTURES[name], kind, rng)
            want = ref.isotropy_plan(g)
            assert replace(g).isotropy_plan == want, (name, kind)
            assert validate_groupoid(replace(g)).failures == ref.validate_groupoid(g).failures, (name, kind)
            refused += want is None
    assert refused >= 10


def test_stacked_faults_give_the_oracle_plan():
    rng = random.Random("stacked")
    refused = 0
    for name in sorted(FIXTURES):
        for _ in range(3):
            g = FIXTURES[name]
            for kind in rng.sample(FAULTS, 3):
                g = _fault(g, kind, rng)
            want = ref.isotropy_plan(g)
            assert replace(g).isotropy_plan == want, name
            refused += want is None
    assert refused >= 20


@pytest.mark.parametrize("k", [4, 6])
def test_associativity_only_faults_have_no_plan(k):
    faults = list(_associativity_only_faults(_parity_action(k)))
    assert faults
    for broken in faults:
        assert ref.isotropy_plan(broken) is None
        assert broken.isotropy_plan is None


@pytest.mark.parametrize("name", sorted(ONE_CHECK_FAULTS))
def test_each_plan_check_fault_has_no_plan(name):
    broken = ONE_CHECK_FAULTS[name][0]()
    assert ref.isotropy_plan(broken) is None
    assert broken.isotropy_plan is None


def _assert_oracle_refuses(broken: FiniteGroupoid, laws: set[str]) -> None:
    """No plan, as the oracle finds, with failures of exactly ``laws``."""
    want = ref.validate_groupoid(broken)
    assert {f.law for f in want.failures} == laws
    assert ref.isotropy_plan(broken) is None
    assert replace(broken).isotropy_plan is None
    assert validate_groupoid(replace(broken)).failures == want.failures


def test_a_stray_entry_and_a_gap_that_keep_the_count_are_refused():
    """One composable product dropped and one non-composable entry added:
    the count of entries is right, and the stray entry fits every loop."""
    g = FIXTURES["pair3"]
    compose = {k: v for k, v in g.compose.items() if k != ("(1,2)", "(2,3)")}
    compose[("(1,1)", "(2,1)")] = "(1,1)"
    assert len(compose) == len(g.compose)
    laws = {"composition totality", "composition domain", "associativity"}  # the gap leaves triples unbracketed
    _assert_oracle_refuses(replace(g, compose=compose), laws)


def test_a_unit_at_an_object_with_no_arrows_is_refused():
    """The unit of x is the unit of y, and x has no arrow of its own."""
    g = FiniteGroupoid(
        objects=("x", "y"), arrows=("u",), src={"u": "y"}, dst={"u": "y"},
        unit={"x": "u", "y": "u"}, compose={("u", "u"): "u"}, inverse={"u": "u"},
    )
    _assert_oracle_refuses(g, {"unit endpoints"})


def test_units_that_are_not_identities_are_refused():
    """Z/4 with the unit set to g2 and the inverse of a to g2·a⁻¹: every law
    holds but the unit law (loop multiplicativity fails as well)."""
    elements, table = cyclic_group(4)
    g = group_groupoid(elements, table)
    inverse = {a: table[("g2", g.inverse[a])] for a in elements}
    _assert_oracle_refuses(replace(g, unit={"*": "g2"}, inverse=inverse), {"unit law"})


def _with_key(g: FiniteGroupoid, key, value) -> FiniteGroupoid:
    return replace(g, compose={**g.compose, key: value})


@pytest.mark.parametrize("key", [("e",), ("e", "e", "e"), ("g", "g2", "e", "g")])
@pytest.mark.parametrize("break_unit", [False, True])
def test_a_compose_key_that_is_not_a_pair_raises_as_before(key, break_unit):
    g = FIXTURES["z3"]
    if break_unit:  # a law that fails before the composition table is read
        g = replace(g, unit={"*": "g"})
    for broken in (_with_key(g, key, "e"), replace(g, compose={key: "e", **g.compose})):
        got, want = _outcome(lambda: replace(broken).isotropy_plan), _outcome(ref.isotropy_plan, broken)
        assert got == want
        assert got[0] is ValueError
        assert _outcome(validate_groupoid, replace(broken)) == want


def test_a_string_key_that_unpacks_as_a_pair_is_a_failed_composition_key():
    """The key "ee" unpacks as ("e", "e"), so every scan passes, but the
    table has one entry too many for a plan: the report names the key."""
    g = _with_key(group_groupoid(*cyclic_group(3)), "ee", "e")
    assert ref.validate_groupoid(g).ok
    assert g.isotropy_plan is None
    assert validate_groupoid(g).failures == (Failure("composition key", "'ee' is not a pair of arrows"),)
    sheaf = validate_sheaf(constant_sheaf(g, F5, 1))
    assert sheaf.failures == (Failure("groupoid", "composition key: 'ee' is not a pair of arrows"),)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_a_groupoid_passes_exactly_when_it_has_a_plan(name):
    rng = random.Random(f"pass iff plan {name}")
    for g in (FIXTURES[name], *(_fault(FIXTURES[name], kind, rng) for kind in FAULTS)):
        assert validate_groupoid(replace(g)).ok == (g.isotropy_plan is not None)


def test_plans_are_derived_by_lights_test_on_the_base_isotropy_groups(monkeypatch):
    sizes = []
    real = groupoid.is_associative
    monkeypatch.setattr(groupoid, "is_associative", lambda k, table: sizes.append(len(k)) or real(k, table))
    for n in (3, 4):
        g = _points_action(n)
        assert replace(g).isotropy_plan is not None
        assert sizes == [factorial(n - 1)]  # one component, base "1", isotropy S_{n-1}
        sizes.clear()
    assert replace(GROUPOIDS["z6-parity"]).isotropy_plan is not None
    assert sizes == [3]  # Z/6 on two points through Z/2: one component, Z/3 at its base
    sizes.clear()
    assert replace(GROUPOIDS["graph-fork"]).isotropy_plan is not None
    assert sizes == [1, 1]  # two sinks, two components, trivial isotropy


# -- symmetric groups -----------------------------------------------------------------


def test_symmetric_group_tables():
    for n in range(1, 6):
        names, table = symmetric_group(n)
        assert len(names) == len(set(names)) == factorial(n)
        assert names[0] == "123456789"[:n] and list(names) == sorted(names)
        assert list(table) == list(product(names, repeat=2))  # declaration order
        for p, q in [(names[-1], names[len(names) // 2]), (names[1 % len(names)], names[-1])]:
            assert table[(p, q)] == "".join(p[int(i) - 1] for i in q)  # first q, then p
    assert symmetric_group(3)[1][("132", "213")] == "312"
    for n in (0, 10):
        with pytest.raises(ValueError, match="1 <= n <= 9"):
            symmetric_group(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_symmetric_groups_are_valid_groupoids(n):
    names, table = symmetric_group(n)
    g = group_groupoid(names, table)
    assert g.unit == {"*": names[0]}
    assert all(table[(a, g.inverse[a])] == names[0] for a in names)
    assert validate_groupoid(replace(g)).ok
    assert replace(g).isotropy_plan == ref.isotropy_plan(g)
    if n <= 4:
        assert _check_group(names, table) == ref.check_group(names, table)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_symmetric_groups_act_on_points(n):
    g = _points_action(n)
    assert len(g.arrows) == n * factorial(n)
    assert validate_groupoid(replace(g)).ok
    plan = replace(g).isotropy_plan
    assert plan.components == (tuple(str(i) for i in range(1, n + 1)),)
    assert len(g.hom_set("1", "1")) == factorial(n - 1)
    assert plan == ref.isotropy_plan(g)


# -- group tables --------------------------------------------------------------------


def _group_tables():
    yield cyclic_group(1)
    for n in (2, 3, 4, 6):
        yield cyclic_group(n)
    yield symmetric_group(3)


def _group_table_fault(elements: tuple, table: dict, rng: random.Random) -> tuple[tuple, dict]:
    table = dict(table)
    key = rng.choice(sorted(table))
    kind = rng.randrange(5)
    if kind == 0:  # one product changed to another element
        table[key] = rng.choice([c for c in elements if c != table[key]] or [table[key]])
    elif kind == 1:
        del table[key]
    elif kind == 2:
        table[key] = "?"
    elif kind == 3:  # the same table, listed in another order
        elements = tuple(rng.sample(elements, len(elements)))
    else:
        elements = (*elements, rng.choice(elements))
    return elements, table


def test_group_table_faults_give_the_oracle_messages():
    rng = random.Random("group tables")
    raised = set()
    for elements, table in _group_tables():
        for _ in range(30):
            broken = _group_table_fault(elements, table, rng)
            got, want = _outcome(_check_group, *broken), _outcome(ref.check_group, *broken)
            assert got == want, broken
            if want[0] is ValueError:
                raised.add(want[1].split(":")[1].split()[0])
    assert raised >= {"duplicate", "product", "associativity"}


# -- Light's test ------------------------------------------------------------------------


def _triple_scan(elements, table) -> bool:
    return all(table[(table[(a, b)], c)] == table[(a, table[(b, c)])] for a, b, c in product(elements, repeat=3))


# Associative products on 0..n-1: a group, bands, a semilattice, a null
# semigroup and a monogenic semigroup of index n and period 1.
SEMIGROUPS = {
    "cyclic": lambda n: lambda i, j: (i + j) % n,
    "left zero": lambda n: lambda i, j: i,
    "right zero": lambda n: lambda i, j: j,
    "min": lambda n: min,
    "null": lambda n: lambda i, j: 0,
    "capped powers": lambda n: lambda i, j: min(i + j + 1, n - 1),
}


@st.composite
def magmas(draw):
    """A table on 1..5 named elements: random, or an associative family with
    relabelled elements, in a drawn declaration order, perhaps with one
    product changed."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", *SEMIGROUPS]))
    if kind == "random":
        cells = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
        mul = {(i, j): cells[i * n + j] for i in range(n) for j in range(n)}
    else:
        f = SEMIGROUPS[kind](n)
        mul = {(i, j): f(i, j) for i in range(n) for j in range(n)}
    if draw(st.booleans()):
        mul[(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))] = draw(st.integers(0, n - 1))
    label = draw(st.permutations([f"m{i}" for i in range(n)]))
    order = draw(st.permutations(label))
    return tuple(order), {(label[i], label[j]): label[k] for (i, j), k in mul.items()}


@settings(max_examples=400, deadline=None)
@given(magmas())
@example((("e", "g", "g2"), {**cyclic_group(3)[1], ("g", "g"): "g"}))  # the CI's skewed Z/3
@example(cyclic_group(5))
def test_lights_verdict_is_the_triple_scans(magma):
    elements, table = magma
    assert is_associative(elements, table) == _triple_scan(elements, table)
    assert _outcome(_check_group, elements, table) == _outcome(ref.check_group, elements, table)


def test_lights_test_finds_the_skewed_z3_and_the_ci_table():
    elements, table = cyclic_group(3)
    assert is_associative(elements, table)
    skewed = {**table, ("g", "g"): "g"}  # unit and inverses intact
    assert not is_associative(elements, skewed)
    message = "not a group table: associativity fails at (g,g,g2)"
    assert _outcome(_check_group, elements, skewed) == (ValueError, message) == _outcome(ref.check_group, elements, skewed)
