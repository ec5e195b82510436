"""Bulk reads of a document's composition table and matrices against the
per-entry reads they skip.

``_parse_groupoid`` builds a table of lists straight into a dict and lets
``FiniteGroupoid`` refuse ids that are no declared arrow; only a refused
table is read again by ``_compose_table``, which names its first bad entry.
``_parse_matrix`` hands a matrix of exact ``int`` cells to
``Matrix.from_ints``, and any other cell to the per-entry loop.  Tables,
matrices and messages must be those of the per-entry reads.
"""
from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ample import documents
from ample.documents import ParseError, _parse_matrix, parse_document
from ample.rings import Matrix, ring_from_name

RINGS = {name: ring_from_name(name) for name in ("Q", "Z", "Fp:5", "Zmod:6")}


# -- the composition table --------------------------------------------------------


def _groupoid(compose, objects=("x",)) -> dict:
    """One object x with loops e (the unit), a, b and c, and ``compose``."""
    arrows = ("e", "a", "b", "c")
    return {
        "kind": "groupoid",
        "objects": list(objects),
        "arrows": [{"id": a, "src": "x", "dst": "x"} for a in arrows],
        "units": {"x": "e"},
        "inv": {a: a for a in arrows},
        "compose": compose,
    }


def _outcome(payload: dict):
    """The parsed table, or the text of the parse error."""
    try:
        return dict(parse_document(json.dumps(payload)).value.compose)
    except ParseError as exc:
        return exc.describe()


def _per_entry_outcome(payload: dict):
    """``_outcome`` with the compose section read by ``_compose_table`` alone."""
    real = documents._all_of
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(documents, "_all_of", lambda kind, values: kind is not list and real(kind, values))
        return _outcome(payload)


TRIPLE = "compose entry must be a [g, h, gh] triple (hint: three arrow ids)"
ID = "(hint: ids are strings or integers)"
UNKNOWN = "(hint: declare the arrow in 'arrows')"

CASES = {
    "string ids": ([["e", "e", "e"], ["a", "b", "c"]], {("e", "e"): "e", ("a", "b"): "c"}),
    "a 3-character string": ([["e", "e", "e"], "abc"], f"<document>:#compose[1]: {TRIPLE}"),
    "a pair": ([["e", "e", "e"], ["a", "b"]], f"<document>:#compose[1]: {TRIPLE}"),
    "a 4-tuple": ([["e", "e", "e", "e"]], f"<document>:#compose[0]: {TRIPLE}"),
    "a true id": ([["e", True, "e"]], f"<document>:#compose[0]: expected an id string, got True {ID}"),
    "a float id": ([["e", "e", 1.0]], f"<document>:#compose[0]: expected an id string, got 1.0 {ID}"),
    "a list id": ([[[1], "e", "e"]], f"<document>:#compose[0]: expected an id string, got [1] {ID}"),
    "a list product": ([["e", "e", [1]]], f"<document>:#compose[0]: expected an id string, got [1] {ID}"),
    "a pair given twice": (
        [["e", "e", "a"], ["a", "b", "c"], ["e", "e", "e"]],
        "<document>:#compose[2]: pair ('e', 'e') is given twice (hint: give each pair one product)",
    ),
    "an unknown arrow in a product given again": (
        [["e", "e", "ghost"], ["e", "e", "e"]], f"<document>:#compose[0]: unknown arrow id 'ghost' {UNKNOWN}"
    ),
    "an unknown arrow after a valid entry": (
        [["e", "e", "e"], ["e", "ghost", "e"]], f"<document>:#compose[1]: unknown arrow id 'ghost' {UNKNOWN}"
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_bulk_compose_read_matches_the_per_entry_read(name):
    compose, want = CASES[name]
    payload = _groupoid(compose)
    assert _outcome(payload) == want
    assert _per_entry_outcome(payload) == want


def _z3(label) -> dict:
    """Z/3 on one object, each id i written as ``label(i)``."""
    return {
        "kind": "groupoid",
        "objects": [label(0)],
        "arrows": [{"id": label(a), "src": label(0), "dst": label(0)} for a in range(3)],
        "units": {"0": label(0)},
        "inv": {str(a): label(-a % 3) for a in range(3)},
        "compose": [[label(a), label(b), label((a + b) % 3)] for a in range(3) for b in range(3)],
    }


def test_integer_ids_are_read_as_their_strings():
    want = {(str(a), str(b)): str((a + b) % 3) for a in range(3) for b in range(3)}
    assert _outcome(_z3(int)) == _per_entry_outcome(_z3(int)) == want
    assert parse_document(json.dumps(_z3(int))).value == parse_document(json.dumps(_z3(str))).value


def test_duplicate_objects_are_reported_after_a_valid_table():
    payload = _groupoid([["e", "e", "e"], ["a", "b", "c"]], objects=("x", "x"))
    want = "<document>: duplicate object ids (hint: cross-check ids between the sections)"
    assert _outcome(payload) == _per_entry_outcome(payload) == want


IDS = st.sampled_from(["e", "a", "c", "ghost", "abc", 0, 1, True, 1.0, None, [1], ["e"], {"e": "e"}])
ENTRIES = st.one_of(
    st.lists(IDS, min_size=3, max_size=3),
    st.lists(IDS, min_size=2, max_size=4),
    st.sampled_from(["abc", "ea", 3, None]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(ENTRIES, max_size=5), st.booleans())
def test_random_tables_read_alike_both_ways(compose, duplicate):
    payload = _groupoid(compose, objects=("x", "x") if duplicate else ("x",))
    assert _outcome(payload) == _per_entry_outcome(payload)


# -- matrices ---------------------------------------------------------------------


def _per_entry(ring, value, rows, cols) -> Matrix:
    """The matrix that reading each cell with ``scalar_from_json`` gives."""
    return Matrix(ring, rows, cols, tuple(tuple(map(ring.scalar_from_json, row)) for row in value))


BIG = [2**60 + 7, -(2**77) - 3, 2**99 + 2**64 + 1, -(2**100) + 1]


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize(
    "value, rows, cols",
    [
        ([[1, 0], [0, 1]], 2, 2),
        ([[-1, 5, 6], [7, -12, 0]], 2, 3),
        ([BIG[:2], BIG[2:]], 2, 2),
        ([[5, -5, 6, 30], [-6, 11, 2**64, -(2**63)]], 2, 4),
        ([], 0, 3),
        ([[], [], []], 3, 0),
        ([], 0, 0),
    ],
)
def test_integer_matrices_equal_the_per_entry_parse(ring_name, value, rows, cols):
    ring = RINGS[ring_name]
    got, want = _parse_matrix(ring, value, rows, cols, "action.a"), _per_entry(ring, value, rows, cols)
    assert (got.ring, got.rows, got.cols) == (want.ring, want.rows, want.cols)
    assert got.q_form == want.q_form
    assert got.entries == want.entries
    assert [list(map(type, row)) for row in got.entries] == [list(map(type, row)) for row in want.entries]
    assert got == want


REFUSED = [
    (name, cell, f"inexact or boolean scalar {cell!r}") for name in sorted(RINGS) for cell in (True, 1.0)
] + [(name, "1/2", f"cannot coerce '1/2' into {name}") for name in ("Fp:5", "Z", "Zmod:6")]


@pytest.mark.parametrize("ring_name, cell, reason", REFUSED)
def test_other_cells_keep_their_positioned_messages(ring_name, cell, reason):
    with pytest.raises(ParseError) as err:
        _parse_matrix(RINGS[ring_name], [[3, -7], [2**70, cell]], 2, 2, "action.a")
    assert err.value.describe() == f"<document>:#action.a[1][1]: {reason} (hint: entries are exact scalars)"


def test_rational_strings_over_q_take_the_per_entry_loop():
    value = [[3, "-7/2"], [2**70, "1/2"]]
    got = _parse_matrix(RINGS["Q"], value, 2, 2, "action.a")
    assert got == _per_entry(RINGS["Q"], value, 2, 2)
    assert got.entries == ((3, Fraction(-7, 2)), (2**70, Fraction(1, 2)))
