"""The stalk rule of ``sheafify`` and the unit-row test it shares with
``coordinates``.

``rings.unit_leads`` answers whether a basis is unit rows: over the
denominator 1, each row a single nonzero entry 1, each 1 right of the one
above.  ``sheafify`` reads the transport of an arrow whose two stalk bases
are unit rows off a block of its action, and takes a product and a
coordinate solve for every other arrow.  The mixed module below has one
stalk of each kind and no unit action that is a coordinate projector, so
both routes run in one module; each must give the reference's transports
and the reference's "germ sheaf" witness.
"""
from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import reference_kernels as ref
from ample import equivalence, rings
from ample.builders import pair_groupoid
from ample.equivalence import gamma_c, sheafify
from ample.gmodule import GModule, validate_module
from ample.gsheaf import constant_sheaf
from ample.rings import INTEGERS, RATIONALS, Matrix, image_basis, modular, projector_rows, unit_leads
from test_kernel_oracle import SETTINGS
from test_projector_routes import assert_sheafify_matches

RINGS = (RATIONALS, INTEGERS, modular(2), modular(5))


# -- unit_leads ------------------------------------------------------------------------


def leads_by_definition(basis):
    """``unit_leads`` on the entries: the column of each row's one nonzero
    entry when that entry is 1 and the columns increase, else None."""
    leads = []
    for row in basis.entries:
        nonzero = [j for j, x in enumerate(row) if x != 0]
        if len(nonzero) != 1 or row[nonzero[0]] != 1 or (leads and nonzero[0] <= leads[-1]):
            return None
        leads.append(nonzero[0])
    return tuple(leads)


CASES = {  # cols, entries, leads over Q
    "an empty basis": (3, [], ()),
    "no columns": (0, [], ()),
    "unit rows": (4, [[0, 1, 0, 0], [0, 0, 0, 1]], (1, 3)),
    "a zero row": (3, [[1, 0, 0], [0, 0, 0]], None),
    "an entry of 2": (3, [[0, 2, 0]], None),
    "an entry of -1": (3, [[0, -1, 0]], None),
    "a second nonzero entry": (3, [[1, 0, 1]], None),
    "a unit row over the denominator 2": (2, [[Fraction(1, 2), 0]], None),
    "a unit row beside a row over 2": (2, [[1, 0], [0, Fraction(1, 2)]], None),
    "equal leads": (3, [[0, 1, 0], [0, 1, 0]], None),
    "decreasing leads": (3, [[0, 0, 1], [1, 0, 0]], None),
}


def _rational(name):
    return any(isinstance(x, Fraction) for row in CASES[name][1] for x in row)


@pytest.mark.parametrize(
    "name, ring",
    [(name, ring) for name in sorted(CASES) for ring in RINGS if ring.kind == "Q" or not _rational(name)],
    ids=lambda v: getattr(v, "name", v),
)
def test_unit_leads_named_cases(name, ring):
    cols, entries, want = CASES[name]
    basis = Matrix.from_rows(ring, entries, cols)
    assert unit_leads(basis) == leads_by_definition(basis)
    if ring.kind in ("Q", "Z") or ring.modulus == 5:  # over Fp:2, 2 is 0 and -1 is 1
        assert unit_leads(basis) == want


@st.composite
def bases(draw, ring):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cells = [0, 1, 2, -1] + ([Fraction(1, 2)] if ring.kind == "Q" else [])
    if draw(st.booleans()) and cols:  # mostly unit rows, so both answers are common
        leads = sorted(draw(st.lists(st.integers(0, cols - 1), max_size=rows)))
        entries = [[int(j == lead) for j in range(cols)] for lead in leads]
        if entries and draw(st.booleans()):
            entries[draw(st.integers(0, len(entries) - 1))][draw(st.integers(0, cols - 1))] = draw(
                st.sampled_from(cells)
            )
        return Matrix.from_rows(ring, entries, cols)
    entries = [[draw(st.sampled_from(cells)) for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(ring, entries, cols)


@SETTINGS
@given(st.sampled_from(RINGS).flatmap(bases))
def test_unit_leads_is_its_definition(basis):
    assert unit_leads(basis) == leads_by_definition(basis)


# -- the mixed module ------------------------------------------------------------------


SHEAR = [[1, 0], [1, 1]]
SHEAR_INVERSE = [[1, 0], [-1, 1]]


def mixed_module(ring):
    """The section module of the rank-1 constant sheaf on pair(2), in the
    basis the shear [[1,0],[1,1]] makes: the unit action at "1" is
    [[1,0],[1,0]], with stalk basis the unit row [1 0], and the one at "2"
    is [[0,0],[-1,1]], whose stalk basis is no unit row."""
    m = gamma_c(constant_sheaf(pair_groupoid(2), ring, 1))
    p, q = Matrix.from_rows(ring, SHEAR), Matrix.from_rows(ring, SHEAR_INVERSE)
    return GModule(m.groupoid, ring, m.rank, {a: p @ action @ q for a, action in m.action.items()})


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_the_mixed_module_has_one_unit_row_stalk_and_no_projector(ring):
    m = mixed_module(ring)
    assert validate_module(m).ok
    assert all(projector_rows(m.unit_action(x)) is None for x in m.groupoid.objects)
    assert unit_leads(image_basis(m.unit_action("1"))) == (0,)
    assert unit_leads(image_basis(m.unit_action("2"))) is None


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_the_mixed_module_sheafifies_as_the_reference(ring):
    assert assert_sheafify_matches(mixed_module(ring)) is not None


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_an_arrow_between_unit_row_stalks_takes_no_product_or_solve(monkeypatch, ring):
    """Arrow (1,1) joins the unit-row stalk at "1" to itself and is read
    off its action; each of the other three arrows takes one product and
    one ``coordinates`` call."""
    m = mixed_module(ring)
    products, solves, reads = [], [], []
    matmul, coordinates, read_block = Matrix.__matmul__, equivalence.coordinates, equivalence.read_block
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(b) or matmul(a, b))
    monkeypatch.setattr(equivalence, "coordinates", lambda b, t: solves.append(t) or coordinates(b, t))
    monkeypatch.setattr(equivalence, "read_block", lambda a, r, c: reads.append((a, r, c)) or read_block(a, r, c))
    sheafify(m)
    assert reads == [(m.action["(1,1)"], (0,), (0,))]
    others = [m.action[a] for a in ("(1,2)", "(2,1)", "(2,2)")]
    assert len(products) == len(solves) == 3
    assert all(b is a for b, a in zip(products, others))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_an_off_lattice_entry_fails_at_the_references_first_arrow(ring):
    """One entry moved off the stalk lattices in the action of each
    non-unit arrow of the mixed module: the "germ sheaf" witness names
    that arrow, as the reference's does."""
    m = mixed_module(ring)
    for a in ("(1,2)", "(2,1)"):
        rows = [list(row) for row in m.action[a].entries]
        rows[0][1] = ring.add(rows[0][1], ring.one)
        broken = GModule(m.groupoid, ring, m.rank, {**m.action, a: Matrix.from_rows(ring, rows)})
        with pytest.raises(ValueError, match=re.escape(f"action of {a!r} does not preserve stalk lattices")):
            ref.sheafify(broken)
        assert assert_sheafify_matches(broken) is None


def _pair3_mixed(ring):
    """The section module of the rank-1 constant sheaf on pair(3) sheared on
    its first two coordinates: the stalks at "1" and "3" are unit rows, and
    the unit action at "1" is no projector."""
    m = gamma_c(constant_sheaf(pair_groupoid(3), ring, 1))
    p = Matrix.from_rows(ring, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    q = Matrix.from_rows(ring, [[1, 0, 0], [-1, 1, 0], [0, 0, 1]])
    return GModule(m.groupoid, ring, m.rank, {a: p @ action @ q for a, action in m.action.items()})


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_an_off_lattice_entry_on_a_read_arrow_fails_as_the_reference(ring):
    """Arrow (1,3) joins two unit-row stalks, so its transport is read off
    its action; an entry in the row kept at "1" off the column kept at "3"
    leaves the lattices, and the read reports it at (1,3), as the reference
    does at its first failing arrow."""
    m = _pair3_mixed(ring)
    assert validate_module(m).ok and projector_rows(m.unit_action("1")) is None
    assert unit_leads(image_basis(m.unit_action("1"))) == (0,)
    assert unit_leads(image_basis(m.unit_action("3"))) == (2,)
    assert assert_sheafify_matches(m) is not None
    rows = [list(row) for row in m.action["(1,3)"].entries]
    rows[0][1] = ring.one
    broken = GModule(m.groupoid, ring, m.rank, {**m.action, "(1,3)": Matrix.from_rows(ring, rows)})
    assert rings.read_block(broken.action["(1,3)"], (0,), (2,)) is None
    with pytest.raises(ValueError, match=r"action of '\(1,3\)' does not preserve stalk lattices"):
        ref.sheafify(broken)
    assert assert_sheafify_matches(broken) is None
