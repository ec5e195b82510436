"""``dump_payload`` writes exactly ``json.dumps(p, indent=2, sort_keys=True)``.

It writes each container of scalars with one call to the C encoder and
builds only the nesting above them in Python, so the oracle here is
``json.dumps`` itself: on seeded random payloads, on every payload the
``ample examples`` corpus is written from, and on the values it leaves to
``json.dumps`` (non-``str`` keys, floats, subclasses, cycles).
"""
from __future__ import annotations

import json
import random
from typing import Any

import pytest

from ample import documents
from ample.builders import random_module, random_sheaf
from ample.cli import run_command
from ample.documents import (
    dump_payload,
    functor_payload,
    graph_payload,
    groupoid_payload,
    load_document,
    module_payload,
    sheaf_payload,
)

from conftest import F2, F5, Q, Z


def _oracle(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Quotes, backslashes, control characters, non-ASCII text and a surrogate
# pair: every escape ``encode_basestring_ascii`` makes.
TEXTS = ("", "a", "x y", "é", "日本", 'q"uote', "back\\slash", "\x00\x01\x1f\x7f", "tab\tnl\n\r", "😀", "/", "|")


def _scalar(rng: random.Random) -> Any:
    pick = rng.randrange(6)
    if pick == 0:
        return rng.choice(TEXTS) + str(rng.randrange(10))
    if pick == 1:
        return rng.randint(-10**6, 10**6)
    if pick == 2:
        return rng.randint(-2**100, 2**100)
    if pick == 3:
        return rng.choice((True, False, None))
    return rng.choice(TEXTS)


def _value(rng: random.Random, depth: int) -> Any:
    if depth > 4 or rng.random() < 0.35:
        return _scalar(rng)
    n = rng.choice((0, 0, 1, 2, 3, 5, 8))
    if rng.random() < 0.5:
        return {rng.choice(TEXTS) + str(rng.randrange(40)): _value(rng, depth + 1) for _ in range(n)}
    items = [_value(rng, depth + 1) for _ in range(n)]
    return tuple(items) if rng.random() < 0.25 else items


def test_random_payloads_dump_as_json_dumps():
    rng = random.Random(26)
    kinds = set()
    for _ in range(4000):
        payload = _value(rng, 0)
        kinds.add(type(payload))
        assert dump_payload(payload) == _oracle(payload)
    assert kinds == {dict, list, tuple, str, int, bool, type(None)}


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        [[], {}, [[]], [{}], {"x": []}],
        {"z": 1, "a": [1, [2, [3, [4]]]], "m": {"k": None}},
        [True, False, None, 0, -1, 2**100, -(2**100)],
        {"é": "\x00", '"': "\\", "\n": "😀"},
    ],
    ids=range(8),
)
def test_edge_payloads_dump_as_json_dumps(payload):
    assert dump_payload(payload) == _oracle(payload)


def test_scalars_six_levels_deep_dump_as_json_dumps():
    # six levels of dict, list and tuple in turn above a dict that holds a
    # list of scalars, and a container of scalars beside each level
    payload: Any = {"leaf": [1, "x", None, True], "k": 0}
    for level in range(6):
        wrap = (dict, list, tuple)[level % 3]
        if wrap is dict:
            payload = {"deeper": payload, "flat": {"b": 2, "a": "z"}, "n": level}
        else:
            payload = wrap([payload, [level, False], level])
    assert dump_payload(payload) == _oracle(payload)
    assert "\n" + " " * 16 + '"x",\n' in dump_payload(payload)


def test_back_to_back_dumps_build_their_own_encoders(monkeypatch):
    # the same containers of scalars at other depths, in both orders: each
    # dump builds the encoder of each indent it needs once, and keeps none
    built: list[str] = []
    real = documents.c_make_encoder
    monkeypatch.setattr(documents, "c_make_encoder", lambda *args: built.append(args[5]) or real(*args))
    shallow = {"a": [1, 2], "b": {"c": "d"}}
    deep = [[{"a": [1, 2], "b": {"c": "d"}}], {"x": {"y": [[1, 2]]}}]
    separators = {id(shallow): [",\n    "], id(deep): [",\n        ", ",\n          "]}
    for first, second in ((shallow, deep), (deep, shallow), (deep, deep)):
        for payload in (first, second):
            built.clear()
            assert dump_payload(payload) == _oracle(payload)
            assert built == separators[id(payload)]


class _Text(str):
    pass


class _Count(int):
    pass


@pytest.mark.parametrize(
    "payload",
    [
        {2: "a", 1: [1]},
        {"a": {2: [3]}},
        {None: [None]},
        {True: 2, False: {"x": 1}},
        {"a": 1.5},
        [1.0, float("nan"), float("inf"), -0.0],
        {"x": [True, 1e300]},
        [_Text("sub"), _Count(7)],
        {_Text("k"): [1]},
    ],
    ids=range(9),
)
def test_fallback_payloads_dump_as_json_dumps(payload):
    assert dump_payload(payload) == _oracle(payload)


class _Truthless:
    def __bool__(self) -> bool:
        raise ValueError("no truth value")


def test_unencodable_payloads_raise_as_json_dumps():
    loop: list[Any] = []
    loop.append(loop)
    for payload in (loop, {"a": object()}, {("t",): 1}, [_Truthless()], {"a": _Truthless()}):
        with pytest.raises((TypeError, ValueError)) as want:
            _oracle(payload)
        with pytest.raises(type(want.value)) as got:
            dump_payload(payload)
        assert str(got.value) == str(want.value)


def test_without_the_c_encoder_json_dumps_writes(monkeypatch):
    monkeypatch.setattr(documents, "c_make_encoder", None)
    payload = {"b": [1, "x"], "a": {"k": [[1, 2], []]}}
    assert dump_payload(payload) == _oracle(payload)


@pytest.mark.parametrize("ring", (Q, Z, F2, F5), ids=lambda r: r.name)
def test_example_corpus_payloads_dump_as_json_dumps(ring, tmp_path):
    code, _ = run_command(["examples", "--dir", str(tmp_path), "--ring", ring.name])
    assert code == 0
    seen = set()
    for path in sorted(tmp_path.glob("*.json")):
        raw = json.loads(path.read_text())
        assert dump_payload(raw) == _oracle(raw) == path.read_text()
        doc = load_document(str(path))
        value = doc.value
        seen.add(doc.kind)
        if doc.kind == "groupoid":
            payloads = [groupoid_payload(value)]
        elif doc.kind == "graph":
            payloads = [graph_payload(value)]
        elif doc.kind == "module":
            payloads = [module_payload(value), module_payload(value, raw["groupoid"])]
            payloads += [module_payload(random_module(value.groupoid, ring, 3, seed)) for seed in range(3)]
        elif doc.kind == "sheaf":
            payloads = [sheaf_payload(value), sheaf_payload(value, raw["groupoid"])]
            payloads += [sheaf_payload(random_sheaf(value.groupoid, ring, 3, seed)) for seed in range(3)]
        elif doc.kind == "functor":
            payloads = [
                functor_payload(value, raw["source"], raw["target"]),
                functor_payload(value, groupoid_payload(value.source), groupoid_payload(value.target)),
            ]
        else:
            payloads = []
        for payload in payloads:
            assert dump_payload(payload) == _oracle(payload)
    assert seen == {"groupoid", "graph", "module", "sheaf", "functor", "span"}
