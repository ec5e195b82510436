from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

import ample
from ample import equivalence, morita
from ample.builders import pair_groupoid
from ample.cli import _build_parser, run_command
from ample.documents import (
    ParseError,
    dump_payload,
    groupoid_payload,
    load_document,
    parse_document,
)
from ample.groupoid import validate_groupoid

from conftest import Q, bumped_matrix


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    code, text = run_command(["examples", "--dir", str(d)])
    assert code == 0
    return d


# -- parsing ----------------------------------------------------------------------


def test_minimal_trivial_groupoid_document():
    doc = parse_document(
        json.dumps(
            {
                "kind": "groupoid",
                "objects": ["x"],
                "arrows": [{"id": "e", "src": "x", "dst": "x"}],
                "units": {"x": "e"},
                "inv": {"e": "e"},
                "compose": [["e", "e", "e"]],
            }
        )
    )
    assert doc.kind == "groupoid"
    assert validate_groupoid(doc.value).ok


def test_p2_fixture_round_trip(corpus, p2):
    doc = load_document(str(corpus / "p2.json"))
    assert doc.value == p2
    # emission is stable
    assert dump_payload(groupoid_payload(doc.value)) == (corpus / "p2.json").read_text()


def test_referential_error_names_the_id():
    bad = {
        "kind": "groupoid",
        "objects": ["x"],
        "arrows": [{"id": "e", "src": "x", "dst": "x"}],
        "units": {"x": "e"},
        "inv": {"e": "e"},
        "compose": [["e", "ghost", "e"]],
    }
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(bad))
    assert "ghost" in str(err.value)
    assert err.value.path.startswith("compose")


ID_HINT = "(hint: ids are strings or integers)"
RECORD_HINT = '(hint: use {"id","src","dst"})'
TRIPLE_HINT = "(hint: three arrow ids)"


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("compose", [["e", "e", "e"], ["e", None, "e"]],
         "compose[1]: expected an id string, got None (hint: ids are strings or integers)"),
        ("compose", [["e", "e", 1.5]],
         "compose[0]: expected an id string, got 1.5 (hint: ids are strings or integers)"),
        ("compose", [[7, "e", "e"]], "compose[0]: unknown arrow id '7' (hint: declare the arrow in 'arrows')"),
        ("compose", [["e", "e", "e"], ["e", "ghost", "e"]],
         "compose[1]: unknown arrow id 'ghost' (hint: declare the arrow in 'arrows')"),
        ("compose", [{"g": "e", "h": "e", "gh": "e"}],
         f"compose[0]: compose entry must be a [g, h, gh] triple {TRIPLE_HINT}"),
        ("compose", [["e", "e"]], f"compose[0]: compose entry must be a [g, h, gh] triple {TRIPLE_HINT}"),
        ("compose", [["e", "e", "e", "e"]],
         f"compose[0]: compose entry must be a [g, h, gh] triple {TRIPLE_HINT}"),
        ("compose", [["e", ["e"], "e"]], f"compose[0]: expected an id string, got ['e'] {ID_HINT}"),
        ("compose", [["e", "e", "ghost"], ["e", "e"]],
         "compose[0]: unknown arrow id 'ghost' (hint: declare the arrow in 'arrows')"),
        ("objects", ["x", 1.5], f"objects[1]: expected an id string, got 1.5 {ID_HINT}"),
        ("objects", ["x", None], f"objects[1]: expected an id string, got None {ID_HINT}"),
        ("objects", ["x", True], f"objects[1]: expected an id string, got True {ID_HINT}"),
        ("objects", [["x"]], f"objects[0]: expected an id string, got ['x'] {ID_HINT}"),
        ("objects", ["x", None, 1.5], f"objects[1]: expected an id string, got None {ID_HINT}"),
        ("arrows", [{"id": "e", "src": "x", "dst": "x"}, ["f", "x", "x"]],
         f"arrows[1]: arrow entry must be an object {RECORD_HINT}"),
        ("arrows", [{"id": "e", "dst": "x"}], "arrows[0].src: missing field 'src' (hint: add a 'src' entry)"),
        ("arrows", [{"src": "x", "dst": "x"}], "arrows[0].id: missing field 'id' (hint: add a 'id' entry)"),
        ("arrows", [{"id": ["e"], "src": "x", "dst": "x"}],
         f"arrows[0].id: expected an id string, got ['e'] {ID_HINT}"),
        ("arrows", [{"id": "e", "src": "x", "dst": 2.0}, "f"],
         f"arrows[0].dst: expected an id string, got 2.0 {ID_HINT}"),
        ("units", {"x": None}, f"units.x: expected an id string, got None {ID_HINT}"),
        ("units", {"x": ["e"]}, f"units.x: expected an id string, got ['e'] {ID_HINT}"),
        ("inv", {"e": 1.5}, f"inv.e: expected an id string, got 1.5 {ID_HINT}"),
        ("inv", {"e": "e", "f": None, "g": []}, f"inv.f: expected an id string, got None {ID_HINT}"),
        ("objects", "x", "objects: objects must be a list (hint: list the object ids)"),
        ("arrows", {}, "arrows: arrows must be a list (hint: list {id, src, dst} records)"),
        ("units", ["x"], 'units: units must be a map object -> arrow (hint: e.g. {"1": "(1,1)"})'),
        ("inv", [], 'inv: inv must be a map arrow -> arrow (hint: e.g. {"(1,2)": "(2,1)"})'),
        ("compose", {}, "compose: compose must be a list of [g, h, gh] triples (hint: list the table)"),
    ],
)
def test_compose_entry_errors_name_the_entry(section, value, message):
    bad = {
        "kind": "groupoid",
        "objects": ["x"],
        "arrows": [{"id": "e", "src": "x", "dst": "x"}],
        "units": {"x": "e"},
        "inv": {"e": "e"},
        "compose": [["e", "e", "e"]],
        section: value,
    }
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(bad))
    assert str(err.value) == f"<document>:#{message}"


POINT = {
    "kind": "groupoid", "objects": ["x"], "arrows": [{"id": "e", "src": "x", "dst": "x"}],
    "units": {"x": "e"}, "inv": {"e": "e"}, "compose": [["e", "e", "e"]],
}
# One valid document of each kind that refers to others, over the point.
DOCUMENTS = {
    "module": {"kind": "module", "ring": "Fp:5", "rank": 1, "groupoid": POINT, "action": {"e": [[1]]}},
    "sheaf": {"kind": "sheaf", "ring": "Fp:5", "groupoid": POINT, "stalks": {"x": 1}, "transport": {"e": [[1]]}},
    "functor": {"kind": "functor", "source": POINT, "target": POINT, "objects": {"x": "x"}, "arrows": {"e": "e"}},
    "graph": {"kind": "graph", "vertices": ["a", "b"], "edges": [["a", "b"]]},
}
MISSING = object()
RING_HINT = '(hint: use "Q", "Z", "Fp:<p>" or "Zmod:<m>")'


@pytest.mark.parametrize(
    "kind, fields, message",
    [
        ("groupoid", {"units": MISSING}, "units: missing field 'units' (hint: add a 'units' entry)"),
        ("module", {"ring": MISSING}, "ring: missing field 'ring' (hint: add a 'ring' entry)"),
        ("module", {"ring": 5}, 'ring: ring must be a name string (hint: e.g. "Q", "Z", "Fp:5")'),
        ("module", {"ring": "R"}, f"ring: unknown ring name 'R' (expected Q, Z, Fp:<p> or Zmod:<m>) {RING_HINT}"),
        ("sheaf", {"ring": None}, 'ring: ring must be a name string (hint: e.g. "Q", "Z", "Fp:5")'),
        ("module", {"rank": -1}, "rank: rank must be a non-negative integer (hint: e.g. 4)"),
        ("module", {"rank": True}, "rank: rank must be a non-negative integer (hint: e.g. 4)"),
        ("module", {"rank": "1"}, "rank: rank must be a non-negative integer (hint: e.g. 4)"),
        ("module", {"action": MISSING}, "action: missing field 'action' (hint: add a 'action' entry)"),
        ("module", {"action": [[1]]}, "action: action must be a map arrow -> matrix (hint: one matrix per arrow)"),
        ("module", {"action": {"e": [[1]], "f": [[1]]}},
         "action.f: unknown arrow id 'f' (hint: declare it in the groupoid)"),
        ("module", {"action": {"e": [[1, 0]]}}, "action.e: matrix must be 1x1 (hint: check the declared ranks)"),
        ("module", {"action": {"e": [[1], [0]]}}, "action.e: matrix must be 1x1 (hint: check the declared ranks)"),
        ("module", {"action": {"e": [1]}}, "action.e: matrix must be a list of rows (hint: use [[...], [...]])"),
        ("module", {"action": {"e": [[1.5]]}},
         "action.e[0][0]: inexact or boolean scalar 1.5 (hint: entries are exact scalars)"),
        ("module", {"rank": 2, "action": {"e": [[1, 0], [0, "x"]]}},
         "action.e[1][1]: cannot coerce 'x' into Fp:5 (hint: entries are exact scalars)"),
        ("module", {"action": {}},
         "action: action must assign a matrix to exactly the arrow set (hint: give every arrow a rank x rank matrix)"),
        ("sheaf", {"stalks": MISSING}, "stalks: missing field 'stalks' (hint: add a 'stalks' entry)"),
        ("sheaf", {"stalks": [1]}, 'stalks: stalks must be a map object -> rank (hint: e.g. {"1": 2})'),
        ("sheaf", {"stalks": {"x": 1, "y": 1}}, "stalks.y: unknown object id 'y' (hint: declare it in the groupoid)"),
        ("sheaf", {"stalks": {"x": -1}}, "stalks.x: stalk rank must be a non-negative integer (hint: e.g. 2)"),
        ("sheaf", {"stalks": {"x": False}}, "stalks.x: stalk rank must be a non-negative integer (hint: e.g. 2)"),
        ("sheaf", {"transport": "e"},
         "transport: transport must be a map arrow -> matrix (hint: one matrix per arrow)"),
        ("sheaf", {"transport": {"f": [[1]]}}, "transport.f: unknown arrow id 'f' (hint: declare it in the groupoid)"),
        ("sheaf", {"stalks": {}},
         "transport.e: stalk ranks missing for the arrow's endpoints (hint: fill 'stalks')"),
        ("sheaf", {"transport": {"e": [[1], [1]]}}, "transport.e: matrix must be 1x1 (hint: check the declared ranks)"),
        ("sheaf", {"stalks": {"x": 2}}, "transport.e: matrix must be 2x2 (hint: check the declared ranks)"),
        ("sheaf", {"transport": {"e": [[None]]}},
         "transport.e[0][0]: cannot coerce None into Fp:5 (hint: entries are exact scalars)"),
        ("sheaf", {"groupoid": groupoid_payload(pair_groupoid(2)), "stalks": {"1": 1}, "transport": {"(1,1)": [[1]]}},
         "stalks: stalk ranks must cover exactly the object set (hint: give every object a rank)"),
        ("module", {"groupoid": 7},
         "groupoid: expected a file path or inline document at groupoid (hint: use a path or an object)"),
        ("functor", {"objects": MISSING}, "objects: missing field 'objects' (hint: add a 'objects' entry)"),
        ("functor", {"arrows": MISSING}, "arrows: missing field 'arrows' (hint: add a 'arrows' entry)"),
        ("functor", {"objects": ["x"]}, "objects: objects and arrows must be maps (hint: source id -> target id)"),
        ("functor", {"arrows": ["e"]}, "arrows: objects and arrows must be maps (hint: source id -> target id)"),
        ("functor", {"objects": {"x": None}}, f"objects.x: expected an id string, got None {ID_HINT}"),
        ("functor", {"arrows": {"e": 1.5}}, f"arrows.e: expected an id string, got 1.5 {ID_HINT}"),
        ("functor", {"objects": {"x": 1}},
         "objects: object map sends 'x' to unknown '1' (hint: cover the whole source with known targets)"),
        ("functor", {"objects": {}}, "objects: object map must cover exactly the source objects "
         "(hint: cover the whole source with known targets)"),
        ("functor", {"arrows": {"e": "f"}},
         "arrows: arrow map sends 'e' to unknown 'f' (hint: cover the whole source with known targets)"),
        ("functor", {"arrows": {}}, "arrows: arrow map must cover exactly the source arrows "
         "(hint: cover the whole source with known targets)"),
        ("graph", {"vertices": MISSING}, "vertices: missing field 'vertices' (hint: add a 'vertices' entry)"),
        ("graph", {"vertices": "ab"}, "vertices: vertices and edges must be lists (hint: see the graph schema)"),
        ("graph", {"edges": {}}, "edges: vertices and edges must be lists (hint: see the graph schema)"),
        ("graph", {"vertices": ["a", None, 1.5]}, f"vertices[1]: expected an id string, got None {ID_HINT}"),
        ("graph", {"vertices": ["a", "b", ["c"]]}, f"vertices[2]: expected an id string, got ['c'] {ID_HINT}"),
        ("graph", {"edges": [["a", "b"], ["a"]]}, "edges[1]: edge must be a [src, dst] pair (hint: two vertex ids)"),
        ("graph", {"edges": ["ab"]}, "edges[0]: edge must be a [src, dst] pair (hint: two vertex ids)"),
        ("graph", {"edges": [["a", 1.5]]}, f"edges[0]: expected an id string, got 1.5 {ID_HINT}"),
    ],
)
def test_section_errors_name_the_entry(kind, fields, message):
    payload = {**(POINT if kind == "groupoid" else DOCUMENTS[kind]), **fields}
    payload = {k: v for k, v in payload.items() if v is not MISSING}
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(payload))
    assert str(err.value) == f"<document>:#{message}"


def test_documents_over_integer_ids_are_stringified():
    target = {
        "kind": "groupoid", "objects": [1], "arrows": [{"id": 7, "src": 1, "dst": 1}],
        "units": {"1": 7}, "inv": {"7": 7}, "compose": [[7, 7, 7]],
    }
    functor = parse_document(json.dumps(
        {**DOCUMENTS["functor"], "target": target, "objects": {"x": 1}, "arrows": {"e": 7}}
    )).value
    assert functor.obj_map == {"x": "1"} and functor.arr_map == {"e": "7"}
    graph = parse_document(json.dumps({"kind": "graph", "vertices": [1, "b"], "edges": [[1, "b"]]})).value
    assert graph.vertices == ("1", "b") and graph.edges == (("1", "b"),)
    for kind, document in DOCUMENTS.items():
        assert parse_document(json.dumps(document)).kind == kind


def test_a_graph_edge_to_an_undeclared_vertex_is_named():
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps({**DOCUMENTS["graph"], "edges": [["a", "c"]]}))
    assert err.value.path == "edges"
    assert err.value.hint == "edges must reference declared vertices"


def test_sections_are_checked_in_order():
    # bad entries in several sections: the first section's is named
    bad = {
        "kind": "groupoid",
        "objects": ["x"],
        "arrows": [{"id": "e", "src": "x"}],
        "units": {"x": None},
        "inv": {"e": None},
        "compose": [["e", "ghost", "e"]],
    }
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(bad))
    assert err.value.path == "arrows[0].dst"
    del bad["arrows"][0]["src"]
    bad["arrows"][0]["dst"] = "x"
    bad["units"] = {"x": "e"}
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(bad))
    assert err.value.path == "arrows[0].src"


def test_unknown_compose_arrow_is_named_before_other_errors():
    # duplicate objects fail only in the groupoid constructor, after the table is read;
    # its errors carry no path
    bad = {
        "kind": "groupoid",
        "objects": ["x", "x"],
        "arrows": [{"id": "e", "src": "x", "dst": "x"}],
        "units": {"x": "e"},
        "inv": {"e": "e"},
        "compose": [["e", "e", "e"], ["e", "e", "ghost"]],
    }
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(bad))
    assert str(err.value) == "<document>:#compose[1]: unknown arrow id 'ghost' (hint: declare the arrow in 'arrows')"
    bad["compose"] = [["e", "e", "e"]]
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(bad))
    assert str(err.value) == "<document>: duplicate object ids (hint: cross-check ids between the sections)"
    bad["objects"] = ["x"]
    bad["units"] = {"x": "e", "y": "e"}
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(bad))
    assert str(err.value) == (
        "<document>: unit map must cover exactly the object set (hint: cross-check ids between the sections)"
    )


def test_integer_ids_are_stringified_in_every_section():
    doc = parse_document(
        json.dumps(
            {
                "kind": "groupoid",
                "objects": [1, "y"],
                "arrows": [
                    {"id": 10, "src": 1, "dst": 1},
                    {"id": "u", "src": "y", "dst": "y"},
                    {"id": 12, "src": 1, "dst": "y"},
                    {"id": 21, "src": "y", "dst": 1},
                ],
                "units": {"1": 10, "y": "u"},
                "inv": {"10": 10, "u": "u", "12": 21, "21": 12},
                "compose": [
                    [10, 10, 10], ["u", "u", "u"], [12, 10, 12], ["u", 12, 12],
                    [21, "u", 21], [10, 21, 21], [12, 21, "u"], [21, 12, 10],
                ],
            }
        )
    )
    g = doc.value
    assert g.objects == ("1", "y")
    assert g.arrows == ("10", "u", "12", "21")
    assert g.src == {"10": "1", "u": "y", "12": "1", "21": "y"}
    assert g.dst == {"10": "1", "u": "y", "12": "y", "21": "1"}
    assert g.unit == {"1": "10", "y": "u"}
    assert g.inverse == {"10": "10", "u": "u", "12": "21", "21": "12"}
    assert g.compose[("12", "10")] == "12" and g.compose[("21", "12")] == "10"
    assert all(type(a) is str for pair, c in g.compose.items() for a in (*pair, c))
    assert validate_groupoid(g).ok


def test_syntax_error_has_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_document("{\n  \"kind\": }")
    assert err.value.line == 2
    assert err.value.column is not None
    assert "hint" in str(err.value)


def test_unknown_kind_is_schema_error():
    with pytest.raises(ParseError) as err:
        parse_document('{"kind": "mystery"}')
    assert err.value.path == "kind"


def test_integer_ids_are_stringified():
    doc = parse_document(
        json.dumps(
            {
                "kind": "groupoid",
                "objects": [1],
                "arrows": [{"id": 7, "src": 1, "dst": 1}],
                "units": {"1": 7},
                "inv": {"7": 7},
                "compose": [[7, 7, 7]],
            }
        )
    )
    assert doc.value.objects == ("1",)
    assert doc.value.arrows == ("7",)


def test_module_and_sheaf_fixtures_parse(corpus):
    module_doc = load_document(str(corpus / "module-p2-regular.json"))
    assert module_doc.kind == "module"
    assert module_doc.value.rank == 4
    sheaf_doc = load_document(str(corpus / "sheaf-p2-constant.json"))
    assert sheaf_doc.kind == "sheaf"
    assert sheaf_doc.value.total_rank == 2


def test_span_fixture_parses_with_relative_references(corpus):
    doc = load_document(str(corpus / "span-p2-point.json"))
    assert doc.kind == "span"
    assert doc.value.apex.objects == ("1",)


def test_span_load_parses_each_referenced_file_once(corpus, monkeypatch):
    # the apex point.json is named by the span and as the source of both legs
    # (and as the right leg's target); p2.json is the left leg's target
    from ample import documents

    parsed = []
    real = documents._parse_groupoid
    monkeypatch.setattr(
        documents, "_parse_groupoid", lambda payload, base: parsed.append(payload) or real(payload, base)
    )
    doc = load_document(str(corpus / "span-p2-point.json"))
    assert sorted(len(p["objects"]) for p in parsed) == [1, 2]
    assert doc.value.left.source is doc.value.apex is doc.value.right.source
    # nothing is kept between calls: the next load reads its files again
    load_document(str(corpus / "span-p2-point.json"))
    assert len(parsed) == 4


def test_broken_span_reference_error_is_unchanged(tmp_path):
    # texts recorded before referenced files were parsed once per load
    run_command(["examples", "--dir", str(tmp_path)])
    span = str(tmp_path / "span-p2-point.json")
    cases = {
        "point.json": ('{"kind": "groupoid", "objects": "x"}',
                       ":#objects: objects must be a list (hint: list the object ids)"),
        "p2.json": ('{\n  "kind": }',
                    ":2:11: invalid JSON: Expecting value (hint: fix the syntax; documents are JSON objects)"),
    }
    for name, (text, tail) in cases.items():
        good = (tmp_path / name).read_text()
        (tmp_path / name).write_text(text)
        with pytest.raises(ParseError) as err:
            load_document(span)
        assert err.value.describe() == str(err.value) == str(tmp_path / name) + tail
        (tmp_path / name).write_text(good)


def test_reference_cycles_are_positioned_parse_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    module = '{"kind": "module", "ring": "Q", "rank": 0, "groupoid": "%s", "action": {}}'
    (tmp_path / "m.json").write_text(module % "m.json")
    (tmp_path / "a.json").write_text(module % "b.json")
    (tmp_path / "b.json").write_text(module % "a.json")
    (tmp_path / "t.json").write_text(module % "a.json")
    hint = "(hint: a document cannot reference itself, directly or through other files)"
    cases = {
        "m.json": "m.json:#groupoid: reference cycle: m.json -> ./m.json " + hint,
        "a.json": "./b.json:#groupoid: reference cycle: a.json -> ./b.json -> ./a.json " + hint,
        # the cycle starts below the file loaded: t.json is not in it
        "t.json": "./b.json:#groupoid: reference cycle: ./a.json -> ./b.json -> ./a.json " + hint,
    }
    for name, text in cases.items():
        with pytest.raises(ParseError) as err:
            load_document(name)
        assert err.value.describe() == text
        assert run_command(["validate", name]) == (1, text)


def test_missing_file_is_reported():
    with pytest.raises(ParseError) as err:
        load_document("no-such-file.json")
    assert "cannot read" in err.value.message


def test_span_naming_its_apex_through_a_symlink_parses_it_once(tmp_path, monkeypatch):
    # The span names point.json through a link, the legs by its own name:
    # one file (device and inode), so one parse and one groupoid.
    from ample import documents

    run_command(["examples", "--dir", str(tmp_path)])
    (tmp_path / "apex-link.json").symlink_to("point.json")
    span = tmp_path / "span-linked.json"
    span.write_text(json.dumps({
        "kind": "span", "apex": "apex-link.json", "left": "functor-point-to-p2.json",
        "right": "functor-point-id.json",
    }))
    parsed = []
    real = documents._parse_groupoid
    monkeypatch.setattr(
        documents, "_parse_groupoid", lambda payload, base: parsed.append(payload) or real(payload, base)
    )
    value = load_document(str(span)).value
    assert value.apex is value.left.source is value.right.source
    assert sorted(len(p["objects"]) for p in parsed) == [1, 2]


def test_symlink_reference_cycle_is_reported(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    module = '{"kind": "module", "ring": "Q", "rank": 0, "groupoid": "%s", "action": {}}'
    (tmp_path / "m.json").write_text(module % "link.json")
    (tmp_path / "link.json").symlink_to("m.json")
    hint = "(hint: a document cannot reference itself, directly or through other files)"
    text = "m.json:#groupoid: reference cycle: m.json -> ./link.json " + hint
    with pytest.raises(ParseError) as err:
        load_document("m.json")
    assert err.value.describe() == text
    assert run_command(["validate", "m.json"]) == (1, text)


def test_unreadable_files_keep_their_messages(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder.json").mkdir()
    module = '{"kind": "module", "ring": "Q", "rank": 0, "groupoid": "%s", "action": {}}'
    reasons = {"missing.json": "No such file or directory", "folder.json": "Is a directory"}
    for name, reason in reasons.items():
        (tmp_path / f"refers-{name}").write_text(module % name)
        for path, source in ((name, name), (f"refers-{name}", f"./{name}")):
            with pytest.raises(ParseError) as err:
                load_document(path)
            assert err.value.message == f"cannot read file: {reason}"
            assert err.value.source == source


def test_module_document_round_trips_fractions(p2):
    # a change of basis with a scaling step introduces denominators
    from ample.builders import random_module
    from ample.documents import module_payload, parse_document as parse

    module = random_module(p2, Q, 2, seed=36)
    assert module.rank > 0
    payload = module_payload(module)
    text = dump_payload(payload)
    assert parse(text).value == module


def test_module_document_with_an_empty_denominator_is_rejected(p2):
    from ample.builders import random_module
    from ample.documents import module_payload

    payload = module_payload(random_module(p2, Q, 2, seed=36))
    arrow = next(iter(payload["action"]))
    payload["action"][arrow][0][0] = "3/"
    with pytest.raises(ParseError) as err:
        parse_document(dump_payload(payload))
    assert err.value.message == "bad rational literal '3/'"
    assert err.value.path == f"action.{arrow}[0][0]"


def test_sheaf_document_round_trips(p2):
    from ample.builders import random_sheaf
    from ample.documents import parse_document as parse, sheaf_payload

    sheaf = random_sheaf(p2, Q, 2, seed=13)
    assert parse(dump_payload(sheaf_payload(sheaf))).value == sheaf


# -- the validate command --------------------------------------------------------------


def test_validate_groupoid_pass(corpus):
    code, text = run_command(["validate", str(corpus / "p2.json")])
    assert code == 0
    assert text == "groupoid: PASS (4 arrows, 2 objects)"


def test_validate_every_fixture(corpus):
    for name in sorted(os.listdir(corpus)):
        if name == "span-broken.json":
            continue
        code, text = run_command(["validate", str(corpus / name)])
        assert code == 0, f"{name}: {text}"
        assert "PASS" in text


@pytest.mark.parametrize(
    "name, kind, document",
    [
        ("validate_module", "module", "module-p2-regular.json"),
        ("validate_sheaf", "sheaf", "sheaf-p2-constant.json"),
        ("validate_functor", "functor", "functor-z2-to-point.json"),
        ("validate_span", "span", "span-p2-point.json"),
    ],
)
def test_validate_runs_the_validator_bound_on_the_cli_module(corpus, monkeypatch, name, kind, document):
    """``ample validate`` looks its validators up when it runs, so one
    rebound on ``ample.cli`` (as a tracing wrapper would be) is called."""
    real = getattr(ample.cli, name)
    seen = []
    monkeypatch.setattr(ample.cli, name, lambda value: seen.append(value) or real(value))
    code, text = run_command(["validate", str(corpus / document)])
    assert code == 0 and text.startswith(f"{kind}: PASS")
    assert len(seen) == 1


def test_validate_broken_span_fails(corpus):
    code, text = run_command(["validate", str(corpus / "span-broken.json")])
    assert code == 1
    assert "FAIL" in text
    assert "full faithfulness" in text


def test_validate_broken_axioms(tmp_path, corpus):
    payload = json.loads((corpus / "p2.json").read_text())
    payload["inv"]["(1,2)"] = "(1,2)"
    target = tmp_path / "broken.json"
    target.write_text(json.dumps(payload))
    code, text = run_command(["validate", str(target)])
    assert code == 1
    assert "inverse law" in text


def test_validate_broken_module_document(tmp_path, corpus):
    payload = json.loads((corpus / "module-p2-regular.json").read_text())
    payload["action"]["(1,2)"] = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    payload["groupoid"] = json.loads((corpus / "p2.json").read_text())
    target = tmp_path / "broken-module.json"
    target.write_text(json.dumps(payload))
    code, text = run_command(["validate", str(target)])
    assert code == 1
    assert "factorisation: A['(1,2)'] != A['(1,1)'] A['(1,1)'] A['(1,2)']" in text


@pytest.mark.parametrize("name", ["module-p2-regular.json", "sheaf-p2-constant.json"])
def test_validate_document_over_a_broken_groupoid(tmp_path, corpus, name):
    # the generator checks need the groupoid's isotropy plan; without one the
    # report carries the groupoid's first failure instead of raising
    groupoid = json.loads((corpus / "p2.json").read_text())
    groupoid["inv"]["(1,2)"] = "(1,2)"
    payload = json.loads((corpus / name).read_text())
    payload["groupoid"] = groupoid
    target = tmp_path / name
    target.write_text(json.dumps(payload))
    code, text = run_command(["validate", str(target)])
    kind = payload["kind"]
    assert code == 1
    assert text == f"{kind}: FAIL\n  groupoid: inverse law: g='(1,2)': inverse has wrong endpoints"


def test_validate_cyclic_graph(tmp_path):
    target = tmp_path / "cyclic.json"
    target.write_text(json.dumps({"kind": "graph", "vertices": ["a", "b"],
                                  "edges": [["a", "b"], ["b", "a"]]}))
    code, text = run_command(["validate", str(target)])
    assert code == 1
    assert "acyclicity" in text


CYCLIC_GRAPH = {"kind": "graph", "vertices": ["v", "w"], "edges": [["v", "w"], ["w", "v"]]}


@pytest.mark.parametrize("out", ["text", "json"])
@pytest.mark.parametrize("command", ["table", "bisections", "equivalence"])
def test_groupoid_commands_report_a_cyclic_graph(command, out, tmp_path):
    target = tmp_path / "cyclic.json"
    target.write_text(json.dumps(CYCLIC_GRAPH))
    where = ["--groupoid", str(target)] if command == "equivalence" else [str(target)]
    samples = ["--samples", "1"] if command == "equivalence" else []
    code, text = run_command([command, *where, *samples, "--out", out])
    assert code == 1
    assert text == (
        f"{target}: graph axioms fail: acyclicity: graph has a cycle through v -> w -> v; "
        "only acyclic graphs have finitely many boundary paths "
        "(hint: run the validate command for the full report)"
    )


@pytest.mark.parametrize("out", ["text", "json"])
def test_examples_into_an_existing_file_is_reported(out, tmp_path):
    target = tmp_path / "taken"
    target.write_text("")
    code, text = run_command(["examples", "--dir", str(target), "--out", out])
    assert code == 1
    assert text == (
        f"{target}: cannot write the corpus: File exists "
        "(hint: --dir must name a directory that can be created and written)"
    )


def test_examples_write_failure_is_reported(tmp_path):
    (tmp_path / "p2.json").mkdir()  # the corpus file's name is taken by a directory
    code, text = run_command(["examples", "--dir", str(tmp_path)])
    assert code == 1
    assert text.startswith(f"{tmp_path / 'p2.json'}: cannot write the corpus: Is a directory")


def test_validate_parse_error_exit_code(tmp_path):
    target = tmp_path / "bad.json"
    target.write_text("{nope")
    code, text = run_command(["validate", str(target)])
    assert code == 1
    assert "hint" in text


@pytest.mark.parametrize(
    "command, n, message",
    [
        ("bisections", 5, "bisection enumeration is guarded at 16 arrows, got 25"),
        ("table", 10, "structure table is guarded at 64 arrows, got 100"),
    ],
)
def test_size_guards_fail_with_a_message_naming_the_file(tmp_path, command, n, message):
    target = tmp_path / f"pair{n}.json"
    target.write_text(dump_payload(groupoid_payload(pair_groupoid(n))))
    for out in ("text", "json"):
        code, text = run_command([command, str(target), "--out", out])
        assert code == 1
        assert text.startswith(f"{target}: {message} (hint: ")
        assert "\n" not in text


# -- usage errors ------------------------------------------------------------------------


def test_unknown_command_is_usage_error():
    code, text = run_command(["frobnicate"])
    assert code == 2


def test_bad_ring_is_usage_error(corpus):
    code, text = run_command(["table", str(corpus / "p2.json"), "--ring", "R"])
    assert code == 2
    assert "usage error" in text


@pytest.mark.parametrize("name", ["Zmod:1", "Zmod:0", "Fp:1"])
def test_a_modulus_below_2_is_a_usage_error(corpus, name):
    code, text = run_command(["table", str(corpus / "p2.json"), "--ring", name])
    assert code == 2
    assert text == f"usage error: bad modulus in ring name {name!r}: expected an integer of at least 2"


def test_a_document_over_the_zero_ring_is_a_positioned_parse_error(corpus):
    payload = json.loads((corpus / "module-p2-regular.json").read_text())
    payload["ring"] = "Zmod:1"
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(payload), base_dir=str(corpus))
    assert err.value.path == "ring"
    assert err.value.message == "bad modulus in ring name 'Zmod:1': expected an integer of at least 2"


def test_wrong_document_kind_is_usage_error(corpus):
    code, text = run_command(["table", str(corpus / "span-p2-point.json")])
    assert code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--samples", "-3"], "argument --samples: must be at least 1, got -3"),
        (["--samples", "0"], "argument --samples: must be at least 1, got 0"),
        (["--max-rank", "-1"], "argument --max-rank: must be at least 0, got -1"),
    ],
)
@pytest.mark.parametrize(
    "command", ["equivalence --groupoid p2.json", "morita --span span-p2-point.json"]
)
def test_out_of_range_counts_are_usage_errors(corpus, command, flags, message):
    name, flag, path = command.split()
    code, text = run_command([name, flag, str(corpus / path), "--ring", "Fp:5"] + flags)
    assert code == 2
    if name == "morita" and flags[0] == "--max-rank":  # morita has no rank to set
        message = f"unrecognized arguments: {' '.join(flags)}"
    assert text == f"usage error: {message}"


UNREAD_FLAGS = [
    (command, flag)
    for command in ("validate", "table", "bisections", "examples")
    for flag in ("--seed", "--samples", "--max-rank")
] + [("morita", "--max-rank"), ("validate", "--ring"), ("bisections", "--ring")]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_a_flag_the_command_does_not_read_is_a_usage_error(corpus, tmp_path, command, flag):
    where = {
        "validate": [str(corpus / "p2.json")],
        "table": [str(corpus / "p2.json")],
        "bisections": [str(corpus / "p2.json")],
        "examples": ["--dir", str(tmp_path / "corpus")],
        "morita": ["--span", str(corpus / "span-p2-point.json")],
    }[command]
    code, text = run_command([command, *where, flag, "2"])
    assert code == 2
    assert text == f"usage error: unrecognized arguments: {flag} 2"
    assert not (tmp_path / "corpus").exists()


def test_smallest_counts_are_accepted(corpus):
    code, text = run_command(
        ["equivalence", "--groupoid", str(corpus / "p2.json"), "--ring", "Fp:5",
         "--samples", "1", "--max-rank", "0"]
    )
    assert code == 0
    assert text.endswith("RESULT: PASS (1 eta + 1 epsilon + 1 naturality)")


def test_composite_modulus_rejected_for_equivalence(corpus):
    code, text = run_command(
        ["equivalence", "--groupoid", str(corpus / "p2.json"), "--ring", "Zmod:6"]
    )
    assert code == 2


def test_composite_modulus_rejected_for_morita(corpus):
    code, text = run_command(["morita", "--span", str(corpus / "span-p2-point.json"), "--ring", "Zmod:6"])
    assert (code, text) == (2, "usage error: ring Zmod:6 has a composite modulus; use Q, Z or Fp:<p>")


def test_morita_of_a_groupoid_document_is_usage_error(corpus):
    path = str(corpus / "p2.json")
    assert run_command(["morita", "--span", path]) == (2, f"usage error: {path} is a groupoid document; expected span")


HUGE_PRIME = 3317044064679887385962123  # above 3.317e24, where Miller-Rabin on the primes up to 41 stops being exact


@pytest.mark.parametrize("head", ["Fp", "Zmod"])
def test_a_ring_beyond_the_exact_primality_test_is_a_usage_error(corpus, head):
    start = time.perf_counter()
    code, text = run_command(["table", str(corpus / "p2.json"), "--ring", f"{head}:{HUGE_PRIME}"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert text == (
        f"usage error: modulus {HUGE_PRIME} is too large for the exact primality test: "
        "from 3.3e24 on, a modulus needs a prime factor up to 41"
    )
    payload = json.loads((corpus / "module-p2-regular.json").read_text())
    payload["ring"] = f"{head}:{HUGE_PRIME}"
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(payload), base_dir=str(corpus))
    assert err.value.path == "ring" and str(HUGE_PRIME) in err.value.message


def test_a_huge_modulus_with_a_small_factor_still_runs(corpus):
    code, text = run_command(["table", str(corpus / "p2.json"), "--ring", f"Zmod:{2 * HUGE_PRIME}"])
    assert code == 0 and text.startswith("*\t(1,1)")
    code, text = run_command(["table", str(corpus / "p2.json"), "--ring", f"Fp:{2 * HUGE_PRIME}"])
    assert (code, text) == (2, f"usage error: Fp modulus must be prime, got {2 * HUGE_PRIME}")


@pytest.mark.parametrize(
    "name, message",
    [
        ("Zmod:²", "bad modulus in ring name 'Zmod:²': expected an integer of at least 2"),
        ("Fp:1²", "bad modulus in ring name 'Fp:1²': expected an integer of at least 2"),
        ("F²", "unknown ring name 'F²' (expected Q, Z, Fp:<p> or Zmod:<m>)"),
    ],
)
def test_a_ring_name_with_non_decimal_digits_is_refused_by_name(corpus, name, message):
    code, text = run_command(["table", str(corpus / "p2.json"), "--ring", name])
    assert (code, text) == (2, f"usage error: {message}")


@pytest.mark.parametrize("head", ["Zmod:", "Fp:", "F"])
def test_a_modulus_past_the_digit_limit_is_refused_by_name(corpus, head):
    start = time.perf_counter()
    code, text = run_command(["table", str(corpus / "p2.json"), "--ring", head + "7" * 5000])
    assert time.perf_counter() - start < 1.0
    assert (code, text) == (
        2, f"usage error: bad modulus in ring name '{head}777777777777...': expected at most 4300 digits, got 5000"
    )
    payload = json.loads((corpus / "module-p2-regular.json").read_text())
    payload["ring"] = head + "7" * 5000
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(payload), base_dir=str(corpus))
    assert err.value.path == "ring" and "expected at most 4300 digits" in err.value.message


def test_a_document_that_is_no_json_object_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_document("[1, 2]")
    assert str(err.value) == '<document>: document must be a JSON object (hint: wrap the content as {"kind": ...})'


def test_a_module_whose_groupoid_names_a_sheaf_file_is_a_parse_error(corpus):
    payload = {**json.loads((corpus / "module-p2-regular.json").read_text()), "groupoid": "sheaf-p2-constant.json"}
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(payload), base_dir=str(corpus))
    assert str(err.value) == (
        "<document>:#groupoid: expected a groupoid document at groupoid, got sheaf (hint: check the referenced file)"
    )


def test_a_span_whose_leg_starts_off_the_apex_is_a_parse_error(corpus):
    payload = json.loads((corpus / "span-p2-point.json").read_text())
    payload["apex"] = "p2.json"
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(payload), base_dir=str(corpus))
    assert str(err.value) == (
        "<document>:#left: left leg's source groupoid differs from the apex "
        "(hint: both functor files must declare the apex as their source)"
    )


def test_validate_reports_a_leg_that_is_not_full(corpus, tmp_path):
    # the point into Z/2: one arrow at the point, two at its image
    functor = {"kind": "functor", "source": str(corpus / "point.json"), "target": str(corpus / "z2.json"),
               "objects": {"1": "*"}, "arrows": {"(1,1)": "e"}}
    (tmp_path / "left.json").write_text(json.dumps(functor))
    span = {"kind": "span", "apex": str(corpus / "point.json"), "left": "left.json",
            "right": str(corpus / "functor-point-id.json")}
    (tmp_path / "span.json").write_text(json.dumps(span))
    code, text = run_command(["validate", str(tmp_path / "span.json")])
    assert (code, text) == (1, "span: FAIL\n  left leg full faithfulness: hom ('1','1') maps 1 arrows onto 2")


# -- reports ------------------------------------------------------------------------------


def test_table_golden(corpus):
    code, text = run_command(["table", str(corpus / "p2.json")])
    assert code == 0
    assert text == (
        "*\t(1,1)\t(1,2)\t(2,1)\t(2,2)\n"
        "(1,1)\t(1,1)\t(1,2)\t0\t0\n"
        "(1,2)\t0\t0\t(1,1)\t(1,2)\n"
        "(2,1)\t(2,1)\t(2,2)\t0\t0\n"
        "(2,2)\t0\t0\t(2,1)\t(2,2)"
    )


def test_table_of_graph_document(corpus):
    code, text = run_command(["table", str(corpus / "single-edge-graph.json")])
    assert code == 0
    assert "(w,v-e0-w)" in text


def test_bisections_report(corpus):
    code, text = run_command(["bisections", str(corpus / "p2.json")])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "bisections: 7"
    assert "{(1,2),(2,1)}" in lines


def test_equivalence_report_shape(corpus):
    code, text = run_command(
        ["equivalence", "--groupoid", str(corpus / "p2.json"), "--ring", "F5",
         "--seed", "7", "--samples", "4"]
    )
    assert code == 0
    assert text.count("eta[") == 4
    assert text.count("epsilon[") == 4
    assert text.count("naturality[") == 4
    assert text.splitlines()[-1] == "RESULT: PASS (4 eta + 4 epsilon + 4 naturality)"


def test_equivalence_json_output(corpus):
    code, text = run_command(
        ["equivalence", "--groupoid", str(corpus / "p2.json"), "--ring", "F5",
         "--seed", "7", "--samples", "2", "--out", "json"]
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["result"] == "pass"
    assert len(payload["certificates"]["eta"]) == 2


def test_equivalence_reports_a_failed_eta(corpus, monkeypatch):
    # a rank of 0 makes every eta certificate fail its injectivity check
    monkeypatch.setattr(equivalence, "rank", lambda h: 0)
    code, text = run_command(
        ["equivalence", "--groupoid", str(corpus / "p2.json"), "--ring", "F5",
         "--seed", "7", "--samples", "2"]
    )
    assert code == 1
    lines = text.splitlines()
    failed = [line for line in lines if line.startswith("eta[")]
    assert len(failed) == 2
    for i, line in enumerate(failed):
        assert re.fullmatch(rf"eta\[{i:02d}\] seed=\d+ rank=\d+ : FAIL \(injective: nontrivial kernel\)", line)
    assert lines[-1] == "RESULT: FAIL (2 eta + 2 epsilon + 2 naturality)"


def test_morita_report_and_rank_table(corpus):
    code, text = run_command(
        ["morita", "--span", str(corpus / "span-p2-point.json"), "--ring", "Q",
         "--samples", "2", "--seed", "3"]
    )
    assert code == 0
    assert "rank table:" in text
    assert text.splitlines()[-1] == "RESULT: PASS"


def test_morita_reports_a_failed_round_trip(corpus, monkeypatch):
    # one entry more in the unit matrix breaks the intertwiner of the p2
    # module; over the point every invertible matrix intertwines, so the
    # way back still passes
    real = morita.eta_matrix
    monkeypatch.setattr(morita, "eta_matrix", lambda sh: bumped_matrix(real(sh), 0, 0))
    argv = ["morita", "--span", str(corpus / "span-p2-point.json"), "--ring", "Fp:5", "--samples", "1"]
    code, text = run_command(argv)
    assert code == 1
    lines = text.splitlines()
    assert lines[-4:-2] == ["0\tleft->right\t4\t2\tFAIL", "0\tright->left\t2\t4\tPASS"]
    assert lines[-1] == "RESULT: FAIL"
    code, text = run_command(argv + ["--out", "json"])
    assert code == 1
    payload = json.loads(text)
    assert [row["round_trip"] for row in payload["rank_table"]] == ["fail", "pass"]
    assert [row["transported"] for row in payload["rank_table"]] == [2, 4]
    assert payload["result"] == "fail"


def test_morita_rejects_broken_span(corpus):
    code, text = run_command(
        ["morita", "--span", str(corpus / "span-broken.json"), "--ring", "Q", "--samples", "1"]
    )
    assert code == 1
    assert "REJECTED" in text
    assert text.splitlines()[-1] == "RESULT: REJECTED (span legs are not essential equivalences)"


@pytest.mark.parametrize("out", ["text", "json"])
def test_morita_rejects_a_span_over_a_broken_groupoid(out, tmp_path):
    # p2 without (2,1)*(1,2): the leg into it is rejected before any module
    # is drawn over p2, where the missing product would be looked up
    run_command(["examples", "--dir", str(tmp_path)])
    p2 = json.loads((tmp_path / "p2.json").read_text())
    p2["compose"].remove(["(2,1)", "(1,2)", "(2,2)"])
    (tmp_path / "p2.json").write_text(json.dumps(p2))
    argv = ["morita", "--span", str(tmp_path / "span-p2-point.json"), "--samples", "2", "--out", out]
    code, text = run_command(argv)
    assert code == 1
    left = "groupoid: target: composition totality: ('(2,1)','(1,2)') composable but undefined"
    if out == "json":
        payload = json.loads(text)
        assert payload["result"] == "rejected"
        assert payload["legs"] == {"left": left, "right": "pass"}
    else:
        assert f"legs: left FAIL ({left}), right PASS" in text.splitlines()
        assert text.splitlines()[-1] == "RESULT: REJECTED (a groupoid of the span fails its axioms)"


# -- determinism -------------------------------------------------------------------------


def test_reports_are_bit_identical_across_runs(corpus):
    for argv in (
        ["table", str(corpus / "p2.json")],
        ["bisections", str(corpus / "z3.json")],
        ["equivalence", "--groupoid", str(corpus / "z2.json"), "--ring", "F2",
         "--seed", "11", "--samples", "3"],
        ["morita", "--span", str(corpus / "span-p2-point.json"), "--ring", "Q",
         "--samples", "2", "--seed", "5"],
    ):
        first = run_command(argv)
        second = run_command(argv)
        assert first == second


def test_cached_parser_keeps_no_state_between_commands(corpus):
    # Usage errors, JSON runs and default runs interleaved in one process must
    # each print what a fresh process prints for the same command.
    p2, z3 = str(corpus / "p2.json"), str(corpus / "z3.json")
    argvs = [
        ["table", p2, "--ring", "Fp:5", "--out", "json"],
        ["bisections", z3, "--samples", "0"],
        ["bisections", z3],
        ["table", p2, "--ring", "R"],
        ["validate", str(corpus / "module-p2-regular.json"), "--out", "json"],
        ["frobnicate"],
        ["table", p2],
        ["equivalence", "--groupoid", p2, "--ring", "F2", "--samples", "1", "--out", "json"],
        ["equivalence", "--groupoid", p2, "--ring", "F2", "--samples", "1"],
    ]
    assert _build_parser() is _build_parser()
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(ample.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for argv in argvs:
        code, text = run_command(argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "ample.cli", *argv], env=env, capture_output=True, text=True
        )
        assert (code, text + "\n") == (fresh.returncode, fresh.stdout), argv


def test_examples_emission_is_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_command(["examples", "--dir", str(d1)])
    run_command(["examples", "--dir", str(d2)])
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    for name in names:
        assert (d1 / name).read_text() == (d2 / name).read_text()
