"""The indexed groupoid scans against the all-pairs and all-subsets oracle.

``validate_groupoid`` and ``composable_pairs`` read the arrows ending at an
object from an index, and ``enumerate_bisections`` searches only extensions
with free endpoints.  ``reference_kernels`` keeps the scans they replaced;
failure lists, pair lists and bisection lists must agree in order, on sound
groupoids and under injected faults.
"""
from __future__ import annotations

import random
from dataclasses import replace

import pytest

import reference_kernels as ref
from ample.builders import (
    GraphSpec,
    acyclic_graph_groupoid,
    action_groupoid,
    cyclic_group,
    group_groupoid,
    pair_groupoid,
)
from ample.groupoid import FiniteGroupoid, enumerate_bisections, validate_groupoid


def _action(k: int) -> FiniteGroupoid:
    elements, table = cyclic_group(k)
    return action_groupoid(elements, table, list(elements), dict(table))


def _group(k: int) -> FiniteGroupoid:
    elements, table = cyclic_group(k)
    return group_groupoid(elements, table)


def _parity_action(k: int) -> FiniteGroupoid:
    """Z/k (k even) acting on two points through Z/2: isotropy Z/(k/2) at each."""
    elements, table = cyclic_group(k)
    points = ("even", "odd")
    action = {(g, x): points[(i + points.index(x)) % 2] for i, g in enumerate(elements) for x in points}
    return action_groupoid(elements, table, points, action)


GRAPHS = {
    "edge": GraphSpec(("u", "w"), (("u", "w"),)),
    "path": GraphSpec(("u", "v", "w"), (("u", "v"), ("v", "w"))),
    "fork": GraphSpec(("u", "v", "w"), (("u", "v"), ("u", "w"))),
    "diamond": GraphSpec(("s", "a", "b", "t"), (("s", "a"), ("s", "b"), ("a", "t"), ("b", "t"))),
    "isolated": GraphSpec(("u", "v", "w"), (("u", "w"),)),
}

GROUPOIDS = {
    **{f"pair{n}": pair_groupoid(n) for n in (1, 2, 3, 4, 5)},
    **{f"z{k}-action": _action(k) for k in (2, 3, 4, 5)},
    **{f"z{k}": _group(k) for k in (1, 2, 3, 5)},
    **{f"z{k}-parity": _parity_action(k) for k in (4, 6)},
    **{f"graph-{name}": acyclic_graph_groupoid(spec) for name, spec in GRAPHS.items()},
}


def _fault(g: FiniteGroupoid, kind: str, rng: random.Random) -> FiniteGroupoid:
    """``g`` with one defect of the given kind at a seeded site."""
    compose = dict(g.compose)
    keys = sorted(compose, key=repr)
    if not keys and kind in ("drop compose entry", "wrong endpoints", "broken associativity"):
        return g
    if kind == "drop compose entry":
        del compose[rng.choice(keys)]
        return replace(g, compose=compose)
    if kind == "non-composable entry":
        stray = [(a, b) for a in g.arrows for b in g.arrows if not g.composable(a, b)]
        if not stray:
            return g
        compose[rng.choice(stray)] = rng.choice(g.arrows)
        return replace(g, compose=compose)
    if kind == "stray entries around a gap":
        # Entries on non-composable pairs, added against declaration order,
        # and one missing composable entry, all with the same first arrow.
        a = rng.choice(g.arrows)
        stray = [b for b in reversed(g.arrows) if not g.composable(a, b)]
        if not stray:
            return g
        for b in stray:
            compose[(a, b)] = a
        del compose[(a, rng.choice([b for b in g.arrows if g.composable(a, b)]))]
        return replace(g, compose=compose)
    if kind == "wrong endpoints":
        key = rng.choice(keys)
        ab = compose[key]
        wrong = [c for c in g.arrows if (g.src[c], g.dst[c]) != (g.src[ab], g.dst[ab])]
        if not wrong:
            return g
        compose[key] = rng.choice(wrong)
        return replace(g, compose=compose)
    if kind == "broken unit":
        x = rng.choice(g.objects)
        unit = dict(g.unit)
        unit[x] = rng.choice([a for a in g.arrows if a != g.unit[x]] or [g.unit[x]])
        return replace(g, unit=unit)
    if kind == "broken inverse":
        a = rng.choice(g.arrows)
        inverse = dict(g.inverse)
        inverse[a] = rng.choice([b for b in g.arrows if b != g.inverse[a]] or [g.inverse[a]])
        return replace(g, inverse=inverse)
    if kind == "broken associativity":
        # Same endpoints, wrong arrow: only associativity (and perhaps the
        # unit and inverse laws) can notice.
        key = rng.choice(keys)
        ab = compose[key]
        same = [c for c in g.hom_set(g.src[ab], g.dst[ab]) if c != ab]
        if not same:
            return g
        compose[key] = rng.choice(same)
        return replace(g, compose=compose)
    raise AssertionError(kind)


FAULTS = (
    "drop compose entry",
    "non-composable entry",
    "stray entries around a gap",
    "wrong endpoints",
    "broken unit",
    "broken inverse",
    "broken associativity",
)


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_sound_groupoids_match_the_oracle(name):
    g = GROUPOIDS[name]
    assert validate_groupoid(g) == ref.validate_groupoid(g)
    assert validate_groupoid(g).ok
    assert list(g.composable_pairs()) == list(ref.composable_pairs(g))


@pytest.mark.parametrize("kind", FAULTS)
def test_injected_faults_give_the_oracle_failures_in_order(kind):
    rng = random.Random(kind)
    broken = 0
    for name in sorted(GROUPOIDS):
        for _ in range(4):
            g = _fault(GROUPOIDS[name], kind, rng)
            got, want = validate_groupoid(g), ref.validate_groupoid(g)
            assert got.failures == want.failures, (name, kind)
            assert list(g.composable_pairs()) == list(ref.composable_pairs(g))
            if g != GROUPOIDS[name]:
                assert not want.ok, (name, kind)
                broken += 1
    assert broken >= 10


def test_stacked_faults_give_the_oracle_failures_in_order():
    rng = random.Random(7)
    several = 0
    for name in sorted(GROUPOIDS):
        g = GROUPOIDS[name]
        for kind in rng.sample(FAULTS, 3):
            g = _fault(g, kind, rng)
        got, want = validate_groupoid(g), ref.validate_groupoid(g)
        assert got.failures == want.failures, name
        several += len({f.law for f in want.failures}) >= 2
    assert several >= 10


@pytest.mark.parametrize("name", sorted(n for n, g in GROUPOIDS.items() if len(g.arrows) <= 16))
def test_bisection_lists_match_the_subset_scan_in_order(name):
    g = GROUPOIDS[name]
    assert enumerate_bisections(g) == ref.enumerate_bisections(g)
