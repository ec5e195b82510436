"""Associativity checked on the isotropy plan, with the triple scan as fallback.

On a table that passes every other law, ``validate_groupoid`` checks the
base isotropy tables, the injectivity of a ↦ (dst a, loop a, src a) and
loop[ab] = loop[a]·loop[b] on composable pairs; only when one of these
fails does it scan the composable triples.  These tests count its lookups
on valid groupoids and hold its failures to the all-triples oracle on
tables where associativity is the only broken law.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import replace

import pytest

import reference_kernels as ref
from ample.builders import pair_groupoid
from ample.groupoid import FiniteGroupoid, validate_groupoid
from test_groupoid_oracle import _action, _parity_action


class CountingTable(Mapping):
    """A composition table that counts its lookups (``in``, ``get``,
    indexing and ``items`` all read through ``__getitem__``)."""

    def __init__(self, table: Mapping) -> None:
        self.table = table
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return self.table[key]

    def __iter__(self):
        return iter(self.table)

    def __len__(self) -> int:
        return len(self.table)


def _fast_checks(g: FiniteGroupoid) -> tuple[bool, bool, bool]:
    """The three plan checks, computed here from their definitions: base
    isotropy tables associative, a ↦ (dst a, loop a, src a) injective, loop
    multiplicative on composable pairs."""
    c = g.compose
    tree, bases = {}, []
    for comp in g.connected_components():
        bases.append(comp[0])
        for y in comp:
            tree[y] = g.hom_set(comp[0], y)[0]
    loop = {a: c[(g.inverse[tree[g.dst[a]]], c[(a, tree[g.src[a]])])] for a in g.arrows}
    groups = [g.hom_set(x, x) for x in bases]
    associative = all(c[(c[(k, l)], m)] == c[(k, c[(l, m)])] for K in groups for k in K for l in K for m in K)
    injective = len({(g.dst[a], loop[a], g.src[a]) for a in g.arrows}) == len(g.arrows)
    multiplicative = all(loop[c[(a, b)]] == c[(loop[a], loop[b])] for a, b in g.composable_pairs())
    return associative, injective, multiplicative


@pytest.mark.parametrize("g", [pair_groupoid(8), _action(8), _parity_action(8)],
                         ids=["pair8", "z8-action", "z8-parity"])
def test_valid_tables_cost_pairs_not_triples(g):
    pairs = list(g.composable_pairs())
    cubes = sum(len(g.hom_set(comp[0], comp[0])) ** 3 for comp in g.connected_components())
    triples = sum(1 for _, b in pairs for c in g.arrows if g.dst[c] == g.src[b])  # 8⁴ on pair(8)
    counted = replace(g, compose=CountingTable(g.compose))
    counted.compose.lookups = 0  # the constructor's integrity check reads the table too
    assert validate_groupoid(counted).ok
    lookups = counted.compose.lookups
    assert lookups <= 5 * (len(pairs) + cubes + len(g.arrows))
    assert lookups < triples


def _associativity_only_faults(g: FiniteGroupoid):
    """Every table that differs from g's in one product, keeps that product's
    endpoints and breaks no law but associativity."""
    for (a, b), ab in sorted(g.compose.items(), key=repr):
        for c in g.hom_set(g.src[ab], g.dst[ab]):
            if c == ab:
                continue
            broken = replace(g, compose={**g.compose, (a, b): c})
            if {f.law for f in ref.validate_groupoid(broken).failures} == {"associativity"}:
                yield broken


@pytest.mark.parametrize("k", [4, 6])
def test_associativity_only_faults_fall_back_to_the_oracle(k):
    tripped = set()
    faults = list(_associativity_only_faults(_parity_action(k)))
    assert faults
    for broken in faults:
        want = ref.validate_groupoid(broken)
        assert not want.ok
        assert validate_groupoid(broken).failures == want.failures
        assert broken.isotropy_plan is None
        tripped.add(_fast_checks(broken).index(False))
    if k == 6:  # Z/3 isotropy has room for a fault in each check
        assert tripped == {0, 1, 2}


def _times(f: FiniteGroupoid, elements: tuple, mul: dict, inverse: dict) -> FiniteGroupoid:
    """f × M for a one-object table M (unit elements[0]): arrows (a, k),
    composed and inverted componentwise."""
    arrows = tuple((a, k) for a in f.arrows for k in elements)
    return FiniteGroupoid(
        objects=f.objects,
        arrows=arrows,
        src={(a, k): f.src[a] for a, k in arrows},
        dst={(a, k): f.dst[a] for a, k in arrows},
        unit={x: (f.unit[x], elements[0]) for x in f.objects},
        compose={((a, k), (b, l)): (ab, mul[(k, l)]) for (a, b), ab in f.compose.items()
                 for k in elements for l in elements},
        inverse={(a, k): (f.inverse[a], inverse[k]) for a, k in arrows},
    )


def _cyclic_table(k: int) -> tuple[tuple, dict, dict]:
    elements = tuple(range(k))
    return elements, {(i, j): (i + j) % k for i in elements for j in elements}, {i: -i % k for i in elements}


def _fake_groupoid() -> FiniteGroupoid:
    """Two objects, one arrow each way and two loops at y, with every law but
    associativity: s·s = u_y, yet (t·t')·s = s while t·(t'·s) = u_y."""
    ends = {"ub": ("b", "b"), "uy": ("y", "y"), "t": ("b", "y"), "t'": ("y", "b"), "s": ("y", "y")}
    unit = {"b": "ub", "y": "uy"}
    compose = {(unit[z], a): a for a, (_, z) in ends.items()}
    compose.update({(a, unit[x]): a for a, (x, _) in ends.items()})
    compose.update({("t'", "t"): "ub", ("t", "t'"): "uy", ("s", "s"): "uy", ("s", "t"): "t", ("t'", "s"): "t'"})
    return FiniteGroupoid(
        objects=("b", "y"),
        arrows=tuple(ends),
        src={a: x for a, (x, _) in ends.items()},
        dst={a: z for a, (_, z) in ends.items()},
        unit=unit,
        compose=compose,
        inverse={"ub": "ub", "uy": "uy", "t": "t'", "t'": "t", "s": "s"},
    )


def _skewed_z3() -> tuple[tuple, dict, dict]:
    """Z/3 with 1·1 set to 1: unit and inverses intact, not associative."""
    elements, mul, inverse = _cyclic_table(3)
    return elements, {**mul, (1, 1): 1}, inverse


def _one_product_changed(g: FiniteGroupoid, pair: tuple, product) -> FiniteGroupoid:
    assert g.compose[pair] != product
    return replace(g, compose={**g.compose, pair: product})


# Tables with two objects and nontrivial isotropy that break associativity
# and no other law, each failing exactly one of the three plan checks.
ONE_CHECK_FAULTS = {
    # pair(2) × a skewed Z/3: the loops are exact, the base isotropy table is not
    "base isotropy table": (lambda: _times(pair_groupoid(2), *_skewed_z3()), 0),
    # s and u_y share their loop, so (y, k, y) has two preimages
    "injectivity": (lambda: _times(_fake_groupoid(), *_cyclic_table(2)), 1),
    # Z/6 on two points through Z/2, one product in the isotropy at "odd" changed
    "loop multiplicativity": (
        lambda: _one_product_changed(_parity_action(6), ("(g2,odd)", "(g2,odd)"), "(g2,odd)"), 2
    ),
}


@pytest.mark.parametrize("name", sorted(ONE_CHECK_FAULTS))
def test_each_plan_check_alone_catches_a_fault_and_falls_back(name):
    build, check = ONE_CHECK_FAULTS[name]
    broken = build()
    assert len(broken.objects) >= 2
    assert all(len(broken.hom_set(x, x)) >= 2 for x in broken.objects)
    want = ref.validate_groupoid(broken)
    assert {f.law for f in want.failures} == {"associativity"}
    assert validate_groupoid(broken).failures == want.failures
    assert broken.isotropy_plan is None
    assert [i for i, passed in enumerate(_fast_checks(broken)) if not passed] == [check]
