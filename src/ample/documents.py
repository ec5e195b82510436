"""JSON document ingestion and emission for the CLI.

Every workspace file is a JSON object with a "kind" field: groupoid,
module, sheaf, functor, span, or graph.  Parsing reports positioned
errors: syntax errors carry a line and column, schema and referential
errors carry the path of the offending field, and each message ends with a
one-line fix hint.  Module, sheaf and functor documents reference their
groupoids either inline (a nested document) or as a relative file path;
span documents reference their apex groupoid and two functor files.

All ids are strings; integer labels found in documents are stringified.
"""
from __future__ import annotations

import json
import os
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Any, Iterable, Mapping

from .builders import GraphSpec
from .gmodule import GModule
from .groupoid import FiniteGroupoid
from .gsheaf import GSheaf
from .morita import GroupoidFunctor, MoritaSpan
from .rings import Matrix, Ring, ring_from_name

KINDS = ("groupoid", "module", "sheaf", "functor", "span", "graph")


class ParseError(ValueError):
    def __init__(
        self,
        message: str,
        *,
        hint: str,
        line: int | None = None,
        column: int | None = None,
        path: str | None = None,
        source: str | None = None,
    ) -> None:
        self.message = message
        self.hint = hint
        self.line = line
        self.column = column
        self.path = path
        self.source = source
        super().__init__(self.describe())

    def describe(self) -> str:
        where = self.source or "<document>"
        if self.line is not None:
            where += f":{self.line}:{self.column}"
        elif self.path:
            where += f":#{self.path}"
        return f"{where}: {self.message} (hint: {self.hint})"


def _fail(message: str, path: str, hint: str) -> ParseError:
    return ParseError(message, hint=hint, path=path)


def _as_id(value: Any, path: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise _fail(f"expected an id string, got {value!r}", path, "ids are strings or integers")


def _require(payload: Mapping[str, Any], field: str, path: str) -> Any:
    if field not in payload:
        raise _fail(f"missing field {field!r}", path or field, f"add a {field!r} entry")
    return payload[field]


@dataclass(frozen=True)
class ParsedDocument:
    kind: str
    value: Any


# The files loaded so far by the outermost ``load_document`` or
# ``parse_document`` call, by real path, so that a file referenced by several
# parts of one document (a span's apex, named by the span and by both legs)
# is read and parsed once.  A file still being parsed maps to the path it was
# named by, so a reference back to it is reported as a cycle.  Nothing is
# kept once that call returns: files can change between commands.
_LOADED: ContextVar[dict[str, ParsedDocument | str] | None] = ContextVar("_LOADED", default=None)


def parse_document(text: str, base_dir: str | None = None, source: str | None = None) -> ParsedDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg}",
            hint="fix the syntax; documents are JSON objects",
            line=exc.lineno,
            column=exc.colno,
            source=source,
        ) from None
    token = _LOADED.set({}) if _LOADED.get() is None else None
    try:
        return _parse_payload(payload, base_dir)
    except ParseError as exc:
        if exc.source is None and source is not None:
            raise ParseError(
                exc.message, hint=exc.hint, line=exc.line, column=exc.column,
                path=exc.path, source=source,
            ) from None
        raise
    finally:
        if token is not None:
            _LOADED.reset(token)


def load_document(path: str) -> ParsedDocument:
    """Read and parse a document file.  Files it references are read and
    parsed once per top-level call, however often they are named."""
    loaded, token = _LOADED.get(), None
    if loaded is None:
        loaded = {}
        token = _LOADED.set(loaded)
    try:
        key = os.path.realpath(path)
        found = loaded.get(key)
        if isinstance(found, ParsedDocument):
            return found
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(
                f"cannot read file: {exc.strerror}", hint="check the path", source=path
            ) from None
        loaded[key] = path
        doc = parse_document(text, base_dir=os.path.dirname(path) or ".", source=path)
        loaded[key] = doc
        return doc
    finally:
        if token is not None:
            _LOADED.reset(token)


def _reference_cycle(path: str) -> list[str]:
    """The files being parsed from ``path`` on, then ``path`` again, when a
    reference to ``path`` would close a cycle; otherwise empty."""
    loading = [(key, named) for key, named in (_LOADED.get() or {}).items() if isinstance(named, str)]
    keys = [key for key, _ in loading]
    key = os.path.realpath(path)
    if key not in keys:
        return []
    return [named for _, named in loading[keys.index(key):]] + [path]


def _parse_payload(payload: Any, base_dir: str | None) -> ParsedDocument:
    if not isinstance(payload, dict):
        raise _fail("document must be a JSON object", "", 'wrap the content as {"kind": ...}')
    kind = _require(payload, "kind", "")
    if kind not in KINDS:
        raise _fail(f"unknown kind {kind!r}", "kind", f"use one of {', '.join(KINDS)}")
    parser = {
        "groupoid": _parse_groupoid,
        "module": _parse_module,
        "sheaf": _parse_sheaf,
        "functor": _parse_functor,
        "span": _parse_span,
        "graph": _parse_graph,
    }[kind]
    return ParsedDocument(kind, parser(payload, base_dir))


def _resolve_groupoid(value: Any, base_dir: str | None, path: str) -> FiniteGroupoid:
    doc = _resolve_reference(value, base_dir, path, expected="groupoid")
    return doc.value


def _resolve_reference(value: Any, base_dir: str | None, path: str, expected: str) -> ParsedDocument:
    if isinstance(value, str):
        full = value if os.path.isabs(value) or base_dir is None else os.path.join(base_dir, value)
        cycle = _reference_cycle(full)
        if cycle:
            hint = "a document cannot reference itself, directly or through other files"
            raise _fail(f"reference cycle: {' -> '.join(cycle)}", path, hint)
        doc = load_document(full)
    elif isinstance(value, dict):
        doc = _parse_payload(value, base_dir)
    else:
        raise _fail(f"expected a file path or inline document at {path}", path, "use a path or an object")
    if doc.kind != expected:
        raise _fail(f"expected a {expected} document at {path}, got {doc.kind}", path, "check the referenced file")
    return doc


def _parse_ring(payload: Mapping[str, Any], path_prefix: str = "") -> Ring:
    name = _require(payload, "ring", path_prefix + "ring")
    if not isinstance(name, str):
        raise _fail("ring must be a name string", path_prefix + "ring", 'e.g. "Q", "Z", "Fp:5"')
    try:
        return ring_from_name(name)
    except ValueError as exc:
        raise _fail(str(exc), path_prefix + "ring", 'use "Q", "Z", "Fp:<p>" or "Zmod:<m>"') from None


_ARROW_FIELDS = itemgetter("id", "src", "dst")


def _all_of(kind: type, values: Iterable[Any]) -> bool:
    """Every value is exactly a ``kind``; a subclass takes the per-entry loop."""
    return set(map(type, values)) <= {kind}


def _id_map(raw: Mapping[Any, Any], section: str) -> dict[str, str]:
    """A map section of ids to ids, such as ``units`` or ``inv``."""
    if _all_of(str, raw) and _all_of(str, raw.values()):
        return dict(raw)
    return {_as_id(x, f"{section}.{x}"): _as_id(y, f"{section}.{x}") for x, y in raw.items()}


def _parse_groupoid(payload: Mapping[str, Any], base_dir: str | None) -> FiniteGroupoid:
    # Each section is first checked in bulk.  Only a section that fails that
    # check runs the per-entry loop, which stringifies integer ids and names
    # the first bad entry.
    objects_raw = _require(payload, "objects", "objects")
    if not isinstance(objects_raw, list):
        raise _fail("objects must be a list", "objects", "list the object ids")
    if _all_of(str, objects_raw):
        objects = tuple(objects_raw)
    else:
        objects = tuple(_as_id(x, f"objects[{i}]") for i, x in enumerate(objects_raw))

    arrows_raw = _require(payload, "arrows", "arrows")
    if not isinstance(arrows_raw, list):
        raise _fail("arrows must be a list", "arrows", "list {id, src, dst} records")
    try:
        records = list(map(_ARROW_FIELDS, arrows_raw)) if _all_of(dict, arrows_raw) else None
    except KeyError:
        records = None
    if records is not None and _all_of(str, chain.from_iterable(records)):
        arrows = [aid for aid, _, _ in records]
        src = {aid: x for aid, x, _ in records}
        dst = {aid: y for aid, _, y in records}
    else:
        arrows, src, dst = [], {}, {}
        for i, record in enumerate(arrows_raw):
            if not isinstance(record, dict):
                raise _fail("arrow entry must be an object", f"arrows[{i}]", 'use {"id","src","dst"}')
            aid = _as_id(_require(record, "id", f"arrows[{i}].id"), f"arrows[{i}].id")
            arrows.append(aid)
            src[aid] = _as_id(_require(record, "src", f"arrows[{i}].src"), f"arrows[{i}].src")
            dst[aid] = _as_id(_require(record, "dst", f"arrows[{i}].dst"), f"arrows[{i}].dst")

    units_raw = _require(payload, "units", "units")
    if not isinstance(units_raw, dict):
        raise _fail("units must be a map object -> arrow", "units", 'e.g. {"1": "(1,1)"}')
    unit = _id_map(units_raw, "units")

    inv_raw = _require(payload, "inv", "inv")
    if not isinstance(inv_raw, dict):
        raise _fail("inv must be a map arrow -> arrow", "inv", 'e.g. {"(1,2)": "(2,1)"}')
    inverse = _id_map(inv_raw, "inv")

    compose_raw = _require(payload, "compose", "compose")
    if not isinstance(compose_raw, list):
        raise _fail("compose must be a list of [g, h, gh] triples", "compose", "list the table")
    bulk = (
        _all_of(list, compose_raw)
        and set(map(len, compose_raw)) <= {3}
        and _all_of(str, chain.from_iterable(compose_raw))
    )
    # FiniteGroupoid checks that the ids of a bulk-read table are arrows.
    compose = {(g, h): gh for g, h, gh in compose_raw} if bulk else _compose_table(compose_raw, arrows)
    try:
        return FiniteGroupoid(objects, tuple(arrows), src, dst, unit, compose, inverse)
    except ValueError as exc:
        if bulk:  # an unknown arrow in the table is named before any other error
            _compose_table(compose_raw, arrows)
        raise _fail(str(exc), "", "cross-check ids between the sections") from None


def _compose_table(compose_raw: list[Any], arrows: list[str]) -> dict[tuple[str, str], str]:
    """The compose section entry by entry, naming its first bad entry."""
    compose: dict[tuple[str, str], str] = {}
    arrow_set = set(arrows)
    for i, triple in enumerate(compose_raw):
        if not isinstance(triple, list) or len(triple) != 3:
            raise _fail("compose entry must be a [g, h, gh] triple", f"compose[{i}]", "three arrow ids")
        g, h, gh = triple
        if not (isinstance(g, str) and isinstance(h, str) and isinstance(gh, str)):
            path = f"compose[{i}]"  # built only when an id needs converting or rejecting
            g, h, gh = (_as_id(t, path) for t in triple)
        for t in (g, h, gh):
            if t not in arrow_set:
                raise _fail(
                    f"unknown arrow id {t!r}", f"compose[{i}]", "declare the arrow in 'arrows'"
                )
        compose[(g, h)] = gh
    return compose


def _parse_matrix(ring: Ring, value: Any, rows: int, cols: int, path: str) -> Matrix:
    if not isinstance(value, list) or any(not isinstance(r, list) for r in value):
        raise _fail("matrix must be a list of rows", path, "use [[...], [...]]")
    if len(value) != rows or any(len(r) != cols for r in value):
        raise _fail(f"matrix must be {rows}x{cols}", path, "check the declared ranks")
    data = []
    for i, row in enumerate(value):
        out = []
        for j, cell in enumerate(row):
            try:
                out.append(ring.scalar_from_json(cell))
            except ValueError as exc:
                raise _fail(str(exc), f"{path}[{i}][{j}]", "entries are exact scalars") from None
        data.append(tuple(out))
    return Matrix(ring, rows, cols, tuple(data))


def _parse_module(payload: Mapping[str, Any], base_dir: str | None) -> GModule:
    groupoid = _resolve_groupoid(_require(payload, "groupoid", "groupoid"), base_dir, "groupoid")
    ring = _parse_ring(payload)
    rank = _require(payload, "rank", "rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise _fail("rank must be a non-negative integer", "rank", "e.g. 4")
    action_raw = _require(payload, "action", "action")
    if not isinstance(action_raw, dict):
        raise _fail("action must be a map arrow -> matrix", "action", "one matrix per arrow")
    action = {}
    for g, mat in action_raw.items():
        gid = _as_id(g, f"action.{g}")
        if gid not in groupoid.arrow_index:
            raise _fail(f"unknown arrow id {gid!r}", f"action.{g}", "declare it in the groupoid")
        action[gid] = _parse_matrix(ring, mat, rank, rank, f"action.{g}")
    try:
        return GModule(groupoid, ring, rank, action)
    except ValueError as exc:
        raise _fail(str(exc), "action", "give every arrow a rank x rank matrix") from None


def _parse_sheaf(payload: Mapping[str, Any], base_dir: str | None) -> GSheaf:
    groupoid = _resolve_groupoid(_require(payload, "groupoid", "groupoid"), base_dir, "groupoid")
    ring = _parse_ring(payload)
    stalks_raw = _require(payload, "stalks", "stalks")
    if not isinstance(stalks_raw, dict):
        raise _fail("stalks must be a map object -> rank", "stalks", 'e.g. {"1": 2}')
    stalk_rank = {}
    for x, n in stalks_raw.items():
        xid = _as_id(x, f"stalks.{x}")
        if xid not in groupoid.object_index:
            raise _fail(f"unknown object id {xid!r}", f"stalks.{x}", "declare it in the groupoid")
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise _fail("stalk rank must be a non-negative integer", f"stalks.{x}", "e.g. 2")
        stalk_rank[xid] = n
    transport_raw = _require(payload, "transport", "transport")
    if not isinstance(transport_raw, dict):
        raise _fail("transport must be a map arrow -> matrix", "transport", "one matrix per arrow")
    transport = {}
    for g, mat in transport_raw.items():
        gid = _as_id(g, f"transport.{g}")
        if gid not in groupoid.arrow_index:
            raise _fail(f"unknown arrow id {gid!r}", f"transport.{g}", "declare it in the groupoid")
        rows = stalk_rank.get(groupoid.dst[gid])
        cols = stalk_rank.get(groupoid.src[gid])
        if rows is None or cols is None:
            raise _fail("stalk ranks missing for the arrow's endpoints", f"transport.{g}", "fill 'stalks'")
        transport[gid] = _parse_matrix(ring, mat, rows, cols, f"transport.{g}")
    try:
        return GSheaf(groupoid, ring, stalk_rank, transport)
    except ValueError as exc:
        raise _fail(str(exc), "transport", "give every arrow a matrix of the right shape") from None


def _parse_functor(payload: Mapping[str, Any], base_dir: str | None) -> GroupoidFunctor:
    source = _resolve_groupoid(_require(payload, "source", "source"), base_dir, "source")
    target = _resolve_groupoid(_require(payload, "target", "target"), base_dir, "target")
    objects_raw = _require(payload, "objects", "objects")
    arrows_raw = _require(payload, "arrows", "arrows")
    if not isinstance(objects_raw, dict) or not isinstance(arrows_raw, dict):
        raise _fail("objects and arrows must be maps", "objects", "source id -> target id")
    obj_map = {_as_id(x, f"objects.{x}"): _as_id(y, f"objects.{x}") for x, y in objects_raw.items()}
    arr_map = {_as_id(g, f"arrows.{g}"): _as_id(h, f"arrows.{g}") for g, h in arrows_raw.items()}
    try:
        return GroupoidFunctor(source, target, obj_map, arr_map)
    except ValueError as exc:
        raise _fail(str(exc), "objects", "cover the whole source with known targets") from None


def _parse_span(payload: Mapping[str, Any], base_dir: str | None) -> MoritaSpan:
    apex = _resolve_groupoid(_require(payload, "apex", "apex"), base_dir, "apex")
    left = _resolve_reference(_require(payload, "left", "left"), base_dir, "left", expected="functor").value
    right = _resolve_reference(_require(payload, "right", "right"), base_dir, "right", expected="functor").value
    for name, leg in (("left", left), ("right", right)):
        if leg.source != apex:
            raise _fail(
                f"{name} leg's source groupoid differs from the apex",
                name,
                "both functor files must declare the apex as their source",
            )
    return MoritaSpan(apex, left, right)


def _parse_graph(payload: Mapping[str, Any], base_dir: str | None) -> GraphSpec:
    vertices_raw = _require(payload, "vertices", "vertices")
    edges_raw = _require(payload, "edges", "edges")
    if not isinstance(vertices_raw, list) or not isinstance(edges_raw, list):
        raise _fail("vertices and edges must be lists", "vertices", "see the graph schema")
    vertices = tuple(_as_id(v, f"vertices[{i}]") for i, v in enumerate(vertices_raw))
    edges = []
    for i, e in enumerate(edges_raw):
        if not isinstance(e, list) or len(e) != 2:
            raise _fail("edge must be a [src, dst] pair", f"edges[{i}]", "two vertex ids")
        edges.append((_as_id(e[0], f"edges[{i}]"), _as_id(e[1], f"edges[{i}]")))
    try:
        return GraphSpec(vertices, tuple(edges))
    except ValueError as exc:
        raise _fail(str(exc), "edges", "edges must reference declared vertices") from None


# -- emission -------------------------------------------------------------------


def groupoid_payload(g: FiniteGroupoid) -> dict[str, Any]:
    return {
        "kind": "groupoid",
        "objects": list(g.objects),
        "arrows": [{"id": a, "src": g.src[a], "dst": g.dst[a]} for a in g.arrows],
        "units": {x: g.unit[x] for x in g.objects},
        "inv": {a: g.inverse[a] for a in g.arrows},
        "compose": [[a, b, g.compose[(a, b)]] for a in g.arrows for b in g.arrows if (a, b) in g.compose],
    }


def module_payload(m: GModule, groupoid_ref: Any | None = None) -> dict[str, Any]:
    return {
        "kind": "module",
        "ring": m.ring.name,
        "rank": m.rank,
        "groupoid": groupoid_ref if groupoid_ref is not None else groupoid_payload(m.groupoid),
        "action": {a: m.action[a].to_json() for a in m.groupoid.arrows},
    }


def sheaf_payload(e: GSheaf, groupoid_ref: Any | None = None) -> dict[str, Any]:
    return {
        "kind": "sheaf",
        "ring": e.ring.name,
        "groupoid": groupoid_ref if groupoid_ref is not None else groupoid_payload(e.groupoid),
        "stalks": {x: e.stalk_rank[x] for x in e.groupoid.objects},
        "transport": {a: e.transport[a].to_json() for a in e.groupoid.arrows},
    }


def functor_payload(f: GroupoidFunctor, source_ref: Any, target_ref: Any) -> dict[str, Any]:
    return {
        "kind": "functor",
        "source": source_ref,
        "target": target_ref,
        "objects": {x: f.obj_map[x] for x in f.source.objects},
        "arrows": {a: f.arr_map[a] for a in f.source.arrows},
    }


def graph_payload(spec: GraphSpec) -> dict[str, Any]:
    return {
        "kind": "graph",
        "vertices": list(spec.vertices),
        "edges": [[a, b] for a, b in spec.edges],
    }


def dump_payload(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
