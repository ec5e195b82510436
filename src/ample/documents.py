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
from json.encoder import c_make_encoder, encode_basestring_ascii
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
        super().__init__(message)
        self.message = message
        self.hint = hint
        self.line = line
        self.column = column
        self.path = path
        self.source = source

    def __str__(self) -> str:
        return self.describe()

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
# ``parse_document`` call, keyed by the (st_dev, st_ino) pair of one
# ``os.stat``, which ``os.path.samestat`` compares.  So the same file (device
# and inode), by whatever path or symlink and by however many parts of one
# document it is named (a span's apex, by the span and by both legs), is
# read and parsed once.  A file still being parsed maps to the path it was
# named by, so a reference back to it is reported as a cycle.  Nothing is
# kept once that call returns: files can change between commands.
_LOADED: ContextVar[dict[tuple[int, int], ParsedDocument | str] | None] = ContextVar("_LOADED", default=None)


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
        if exc.source is None:
            exc.source = source
        raise
    finally:
        if token is not None:
            _LOADED.reset(token)


def load_document(path: str) -> ParsedDocument:
    """Read and parse a document file.  Files it references are read and
    parsed once per top-level call, however often and by whatever path they
    are named."""
    loaded, token = _LOADED.get(), None
    if loaded is None:
        loaded = {}
        token = _LOADED.set(loaded)
    try:
        try:
            st = os.stat(path)
        except OSError:  # opening the file reports why
            key = None
        else:
            key = st.st_dev, st.st_ino
        found = loaded.get(key)
        if isinstance(found, ParsedDocument):
            return found
        if found is not None:  # still being parsed: this reference closes a cycle
            loading = [(k, named) for k, named in loaded.items() if isinstance(named, str)]
            keys = [k for k, _ in loading]
            raise _ReferenceCycle([named for _, named in loading[keys.index(key):]] + [path])
        try:
            with open(path, encoding="utf-8") as handle:
                if key is None:  # the file appeared after the stat
                    st = os.fstat(handle.fileno())
                    key = st.st_dev, st.st_ino
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


class _ReferenceCycle(Exception):
    """A reference to a file that is still being parsed.  ``files`` runs
    from the path that file was first named by, through the files parsed
    since, to the path of this reference."""

    def __init__(self, files: list[str]) -> None:
        super().__init__(files)
        self.files = files


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


def _reference(payload: Mapping[str, Any], field: str, base_dir: str | None, expected: str = "groupoid") -> Any:
    """The value of the ``expected`` document that ``payload[field]`` names,
    by a file path or inline."""
    value = _require(payload, field, field)
    if isinstance(value, str):
        full = value if os.path.isabs(value) or base_dir is None else os.path.join(base_dir, value)
        try:
            doc = load_document(full)
        except _ReferenceCycle as cycle:
            hint = "a document cannot reference itself, directly or through other files"
            raise _fail(f"reference cycle: {' -> '.join(cycle.files)}", field, hint) from None
    elif isinstance(value, dict):
        doc = _parse_payload(value, base_dir)
    else:
        raise _fail(f"expected a file path or inline document at {field}", field, "use a path or an object")
    if doc.kind != expected:
        raise _fail(f"expected a {expected} document at {field}, got {doc.kind}", field, "check the referenced file")
    return doc.value


def _section(payload: Mapping[str, Any], field: str, kind: type, what: str, hint: str, subject: str = "") -> Any:
    """``payload[field]``, which must be present and a ``kind``: else the
    error, at ``field``, is "{subject} must be {what}", the subject being
    the field unless one is named for a pair of sections read alike."""
    value = _require(payload, field, field)
    if not isinstance(value, kind):
        raise _fail(f"{subject or field} must be {what}", field, hint)
    return value


def _parse_ring(payload: Mapping[str, Any]) -> Ring:
    name = _section(payload, "ring", str, "a name string", 'e.g. "Q", "Z", "Fp:5"')
    try:
        return ring_from_name(name)
    except ValueError as exc:
        raise _fail(str(exc), "ring", 'use "Q", "Z", "Fp:<p>" or "Zmod:<m>"') from None


_ARROW_FIELDS = itemgetter("id", "src", "dst")


def _all_of(kind: type, values: Iterable[Any]) -> bool:
    """Every value is exactly a ``kind``; a subclass takes the per-entry loop."""
    return set(map(type, values)) <= {kind}


# Each id section is first checked in bulk.  Only a section that fails that
# check runs the per-entry loop, which stringifies integer ids and names the
# first bad entry.
def _ids(raw: list[Any], section: str) -> tuple[str, ...]:
    """A list section of ids, such as ``objects`` or ``vertices``."""
    if _all_of(str, raw):
        return tuple(raw)
    return tuple(_as_id(x, f"{section}[{i}]") for i, x in enumerate(raw))


def _id_map(raw: Mapping[Any, Any], section: str) -> dict[str, str]:
    """A map section of ids to ids, such as ``units`` or a functor's ``arrows``."""
    if _all_of(str, raw) and _all_of(str, raw.values()):
        return dict(raw)
    return {_as_id(x, f"{section}.{x}"): _as_id(y, f"{section}.{x}") for x, y in raw.items()}


def _parse_groupoid(payload: Mapping[str, Any], base_dir: str | None) -> FiniteGroupoid:
    objects = _ids(_section(payload, "objects", list, "a list", "list the object ids"), "objects")
    arrows_raw = _section(payload, "arrows", list, "a list", "list {id, src, dst} records")
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
    unit = _id_map(_section(payload, "units", dict, "a map object -> arrow", 'e.g. {"1": "(1,1)"}'), "units")
    inverse = _id_map(_section(payload, "inv", dict, "a map arrow -> arrow", 'e.g. {"(1,2)": "(2,1)"}'), "inv")
    compose_raw = _section(payload, "compose", list, "a list of [g, h, gh] triples", "list the table")
    parts = objects, tuple(arrows), src, dst, unit
    if _all_of(list, compose_raw):  # so no 3-character string unpacks as a triple
        # Unpacking refuses an entry that is no triple, and FiniteGroupoid any
        # id that is no declared arrow, so (arrow ids being strings) any id
        # that is no string; a dict shorter than the list has a pair given
        # twice.  Either way the per-entry reader below reads the table again
        # and names its first bad entry.
        try:
            compose = {(g, h): gh for g, h, gh in compose_raw}
            if len(compose) == len(compose_raw):
                return FiniteGroupoid(*parts, compose, inverse)
        except (TypeError, ValueError):
            pass
    compose = _compose_table(compose_raw, arrows)
    try:
        return FiniteGroupoid(*parts, compose, inverse)
    except ValueError as exc:
        raise _fail(str(exc), "", "cross-check ids between the sections") from None


def _compose_table(compose_raw: list[Any], arrows: list[str]) -> dict[tuple[str, str], str]:
    """The compose section entry by entry, naming its first bad entry: one
    that is no triple, holds an unknown arrow id, or repeats a pair."""
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
        if (g, h) in compose:
            raise _fail(f"pair {(g, h)!r} is given twice", f"compose[{i}]", "give each pair one product")
        compose[(g, h)] = gh
    return compose


def _parse_matrix(ring: Ring, value: Any, rows: int, cols: int, path: str) -> Matrix:
    if not isinstance(value, list) or any(not isinstance(r, list) for r in value):
        raise _fail("matrix must be a list of rows", path, "use [[...], [...]]")
    if len(value) != rows or any(len(r) != cols for r in value):
        raise _fail(f"matrix must be {rows}x{cols}", path, "check the declared ranks")
    if _all_of(int, chain.from_iterable(value)):  # a bool, a float or a string takes the loop
        return Matrix.from_ints(ring, value, cols)
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


def _matrices(
    payload: Mapping[str, Any], section: str, groupoid: FiniteGroupoid, ring: Ring, ranks: Mapping[str, int]
) -> dict[str, Matrix]:
    """A map section of arrows to matrices, such as a module's ``action`` or
    a sheaf's ``transport``: the matrix of a: y -> z is ranks[z] x ranks[y].
    Its keys are JSON keys, so strings."""
    matrices = {}
    for g, mat in _section(payload, section, dict, "a map arrow -> matrix", "one matrix per arrow").items():
        path = f"{section}.{g}"
        if g not in groupoid.arrow_index:
            raise _fail(f"unknown arrow id {g!r}", path, "declare it in the groupoid")
        rows, cols = ranks.get(groupoid.dst[g]), ranks.get(groupoid.src[g])
        if rows is None or cols is None:
            raise _fail("stalk ranks missing for the arrow's endpoints", path, "fill 'stalks'")
        matrices[g] = _parse_matrix(ring, mat, rows, cols, path)
    return matrices


def _parse_module(payload: Mapping[str, Any], base_dir: str | None) -> GModule:
    groupoid = _reference(payload, "groupoid", base_dir)
    ring = _parse_ring(payload)
    rank = _require(payload, "rank", "rank")
    if type(rank) is not int or rank < 0:
        raise _fail("rank must be a non-negative integer", "rank", "e.g. 4")
    action = _matrices(payload, "action", groupoid, ring, dict.fromkeys(groupoid.objects, rank))
    try:
        return GModule(groupoid, ring, rank, action)
    except ValueError as exc:
        raise _fail(str(exc), "action", "give every arrow a rank x rank matrix") from None


def _parse_sheaf(payload: Mapping[str, Any], base_dir: str | None) -> GSheaf:
    groupoid = _reference(payload, "groupoid", base_dir)
    ring = _parse_ring(payload)
    stalk_rank = _section(payload, "stalks", dict, "a map object -> rank", 'e.g. {"1": 2}')
    for x, n in stalk_rank.items():
        if x not in groupoid.object_index:
            raise _fail(f"unknown object id {x!r}", f"stalks.{x}", "declare it in the groupoid")
        if type(n) is not int or n < 0:
            raise _fail("stalk rank must be a non-negative integer", f"stalks.{x}", "e.g. 2")
    transport = _matrices(payload, "transport", groupoid, ring, stalk_rank)
    try:
        return GSheaf(groupoid, ring, stalk_rank, transport)
    except ValueError as exc:
        if str(exc).startswith("stalk ranks"):
            raise _fail(str(exc), "stalks", "give every object a rank") from None
        raise _fail(str(exc), "transport", "give every arrow a matrix of the right shape") from None


def _parse_functor(payload: Mapping[str, Any], base_dir: str | None) -> GroupoidFunctor:
    source = _reference(payload, "source", base_dir)
    target = _reference(payload, "target", base_dir)
    obj_map, arr_map = (
        _id_map(_section(payload, field, dict, "maps", "source id -> target id", "objects and arrows"), field)
        for field in ("objects", "arrows")
    )
    try:
        return GroupoidFunctor(source, target, obj_map, arr_map)
    except ValueError as exc:
        field = "arrows" if str(exc).startswith("arrow map") else "objects"
        raise _fail(str(exc), field, "cover the whole source with known targets") from None


def _parse_span(payload: Mapping[str, Any], base_dir: str | None) -> MoritaSpan:
    apex = _reference(payload, "apex", base_dir)
    left = _reference(payload, "left", base_dir, "functor")
    right = _reference(payload, "right", base_dir, "functor")
    for name, leg in (("left", left), ("right", right)):
        if leg.source != apex:
            raise _fail(
                f"{name} leg's source groupoid differs from the apex",
                name,
                "both functor files must declare the apex as their source",
            )
    return MoritaSpan(apex, left, right)


def _parse_graph(payload: Mapping[str, Any], base_dir: str | None) -> GraphSpec:
    vertices_raw, edges_raw = (
        _section(payload, field, list, "lists", "see the graph schema", "vertices and edges")
        for field in ("vertices", "edges")
    )
    vertices = _ids(vertices_raw, "vertices")
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
    """Exactly ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline.

    An ``indent`` sends ``json.dumps`` down its pure-Python encoder.  Here
    every container that holds only scalars is written by one call to the C
    encoder, with the indent put into its item separator, and only the
    nesting above those containers is built in Python.  Anything else (a
    non-``str`` key, a float, a subclass) goes to ``json.dumps`` itself."""
    if c_make_encoder is not None:
        try:
            return _write(payload, "\n", {}) + "\n"
        except (_Unsupported, RecursionError):  # json.dumps raises its own error, if any
            pass
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class _Unsupported(Exception):
    """A value the indented encoder leaves to ``json.dumps``."""


_SCALARS = frozenset((str, int, bool, type(None)))
_LITERALS = {None: "null", True: "true", False: "false"}


def _unsupported(value: Any) -> Any:
    raise _Unsupported


def _write(value: Any, newline: str, encoders: dict[str, Any]) -> str:
    """The text of ``value``, each line after its first begun by ``newline``.
    A nonempty container of scalars is one call to its indent's C encoder."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _LITERALS[value]
    if kind is dict:
        if not _all_of(str, value):
            raise _Unsupported
        opening, members, closing = "{", value.values(), "}"
    elif kind is list or kind is tuple:
        opening, members, closing = "[", value, "]"
    else:
        raise _Unsupported
    if not value:
        return opening + closing
    inner = newline + "  "
    if set(map(type, members)) <= _SCALARS:
        flat = encoders.get(inner)
        if flat is None:
            flat = encoders[inner] = c_make_encoder(
                None, _unsupported, encode_basestring_ascii, None, ": ", "," + inner, True, False, True)
        return opening + inner + "".join(flat(value, 0))[1:-1] + newline + closing
    if kind is dict:
        items = [f"{encode_basestring_ascii(k)}: {_write(value[k], inner, encoders)}" for k in sorted(value)]
    else:
        items = [_write(member, inner, encoders) for member in value]
    return opening + inner + ("," + inner).join(items) + newline + closing
