"""CLI reports stay byte-identical: sha256 digests of fixed-seed reports.

The digests were recorded from the generic-ring kernels (every scalar
operation through ``Ring.coerce``) and pin the text and JSON reports of
``equivalence`` and ``morita`` over the ``ample examples`` corpus.  Commands
run from a directory holding the corpus as ``corpus/``, because reports
quote the document path they were given.
"""
from __future__ import annotations

import hashlib

import pytest

from ample.cli import run_command

EQUIVALENCE = "--seed 7 --samples 3"
MORITA = "--seed 7 --samples 5"

GOLDEN = {
    "equivalence --groupoid corpus/p2.json --ring Q --out text":
        "002e9724b88d687be8bed3c89976d8794c2ac757dc0c1f57e1cc99cdf510065a",
    "equivalence --groupoid corpus/p2.json --ring Q --out json":
        "f267fb66c34e4a80649f6d7338592c1df315e6a643ccc7421cf703a76833e0e3",
    "equivalence --groupoid corpus/z2-action.json --ring Q --out text":
        "2135c43cbbfbc54c0186a0e235039d49384deea03849d07147cb24d02028ec1e",
    "equivalence --groupoid corpus/z2-action.json --ring Q --out json":
        "92c86520d3448aa896fe4837d8b31ef9d39539e64934e3784c9a5f8bb744f3cc",
    "equivalence --groupoid corpus/single-edge-graph.json --ring Q --out text":
        "1b7943c26f0c8380327c32520de4d208a14969364f6b005b4bd60255645fd285",
    "equivalence --groupoid corpus/single-edge-graph.json --ring Q --out json":
        "c6cf117bbc5769f82812773b0f271b6e78778565289d318520b1592e33c351ef",
    "equivalence --groupoid corpus/p2.json --ring Fp:5 --out text":
        "7040b24e1c00f267082480eba756785ac229eb59fbe876b89beaf5b044299e4d",
    "equivalence --groupoid corpus/p2.json --ring Fp:5 --out json":
        "4d08d64933b23e6c97add73f1ed9553e4be094631f3fd16206f665532afd3811",
    "equivalence --groupoid corpus/z2-action.json --ring Fp:5 --out text":
        "13896b701ea56f66972253af570294963cf3dfded56071c806276e3fe0c84ad8",
    "equivalence --groupoid corpus/z2-action.json --ring Fp:5 --out json":
        "166dcc4c9fcb31f95b6fd36c18430c65057841faf0cd085c996e4098aee1fb5f",
    "equivalence --groupoid corpus/single-edge-graph.json --ring Fp:5 --out text":
        "b3d2d67e1a7b8511509b2064a305979c70ac5792d0f4f96f495b3580474b5221",
    "equivalence --groupoid corpus/single-edge-graph.json --ring Fp:5 --out json":
        "9415133740364d012430869fb3f11cdaa0428011af7c24b4074d70f24fdedc33",
    "morita --span corpus/span-p2-point.json --ring Fp:5 --out text":
        "8597f6d32f63e84e7243d09dcce35c910174c94a3ee8a64a137d592690feec96",
    "morita --span corpus/span-p2-point.json --ring Fp:5 --out json":
        "66c18048d9d96199f997f91c2805a0a610e4acc749da4fc0e0ce92df4cb6c084",
    "morita --span corpus/span-z2action-point.json --ring Fp:5 --out text":
        "440bdeb6609fea447cfa3e584c5fd3b0f7c18d1e2315bb4d22b3bf09f1815998",
    "morita --span corpus/span-z2action-point.json --ring Fp:5 --out json":
        "b5be9ff62f39c658da1944cd1bf24feb824b27c6571fabaa75e80fcfb652561b",
}


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    code, _ = run_command(["examples", "--dir", str(root / "corpus")])
    assert code == 0
    return root


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_digest_is_unchanged(command, corpus_root, monkeypatch):
    monkeypatch.chdir(corpus_root)
    seeds = EQUIVALENCE if command.startswith("equivalence") else MORITA
    code, text = run_command(command.split() + seeds.split())
    assert code == 0, text
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[command]
