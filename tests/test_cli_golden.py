"""CLI reports stay byte-identical: sha256 digests of fixed-seed reports.

The digests pin the text and JSON reports of every command over the
``ample examples`` corpus: ``equivalence`` and ``morita`` (recorded from the
generic-ring kernels, every scalar operation through ``Ring.coerce``), and
``validate`` on every corpus document, ``table`` and ``bisections`` on a
groupoid and a graph, ``morita`` on the broken span (recorded before the
sheaf hom spaces moved onto the shared constraint builder), ``morita``
over Q (recorded from the ``Fraction``-operator kernels, before the Q
kernels moved to common-denominator integers), and the failure paths of
``validate`` on a broken module and a broken sheaf (the corpus documents
with one transport matrix overwritten, as CI writes them) plus the
``examples`` listing under both ``--out`` values (recorded before the
commands moved onto one renderer), and ``equivalence`` and ``morita`` over Z
(recorded before the generators and the round trip kept the inverses their
invertibility checks compute; Z is the one ring whose inverse check compares
against the identity).  Commands run
from a directory holding the corpus as ``corpus/``, because reports quote
the document path they were given.
"""
from __future__ import annotations

import hashlib
import json

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
    "morita --span corpus/span-p2-point.json --ring Q --out text":
        "bdb378d20b3876b2fe4809ae65b3c433245a683d02694ebd5f38c49b6820b50e",
    "morita --span corpus/span-p2-point.json --ring Q --out json":
        "7d82c86c6e510d43d260511c2f78dd5a443eb4b6e48be3cd036e7d7b64ab99e0",
    "morita --span corpus/span-z2action-point.json --ring Q --out text":
        "b05135956fbb8adc6b213f37c70d3e62097b14c1d0c8ef891bd1d0918d00f194",
    "morita --span corpus/span-z2action-point.json --ring Q --out json":
        "d058594d183d67dc94d857017d5870c6431e07806c89494a29d0f80ce8f39d57",
    "validate corpus/point.json --out text":
        "cd6ef433e35ab58fcd00bbc165399c280b346d06e26f872e55b7e3376a31b419",
    "validate corpus/point.json --out json":
        "479afb288acd90e56b67a6c27c1e7d947aa1244aed0d025b726eb8e0498dff37",
    "validate corpus/p2.json --out text":
        "b649dafde878ff226071d5eb6e0dd5d810109bef32416916643046eea9bd0980",
    "validate corpus/p2.json --out json":
        "74c10f44f2e5529a60f0eadfabd79a66bdb1cd0c46520b9622f55e2cb7c5a564",
    "validate corpus/p3.json --out text":
        "3a655efbf011bceb7438ed280abe82dfd5ce9075ce262abf866dccc9c3d2be73",
    "validate corpus/p3.json --out json":
        "9eea831f0f6530eca1f9f3137da031b78cef1c52854c813cf44680ccd354e243",
    "validate corpus/z2.json --out text":
        "e2dc6e116f2423d43207f9a3a55a9522b28f46a7efb2377d41995dba6697b494",
    "validate corpus/z2.json --out json":
        "83b259304e7952169c23a3d9be9cf576086b241f17f5e7f53f48426af2944ffd",
    "validate corpus/z3.json --out text":
        "c0dce689c9be462bbeb6c0d02e3690f34e04ee86fa6a4445eff01ad0d25e7a8f",
    "validate corpus/z3.json --out json":
        "6e9b48ff08c6b9877cc15085a1c2099316a84417591b557a2562dff85ae6eb21",
    "validate corpus/z2-action.json --out text":
        "b649dafde878ff226071d5eb6e0dd5d810109bef32416916643046eea9bd0980",
    "validate corpus/z2-action.json --out json":
        "74c10f44f2e5529a60f0eadfabd79a66bdb1cd0c46520b9622f55e2cb7c5a564",
    "validate corpus/single-edge-graph.json --out text":
        "4c2d993a3faba4dc344e1b84b1047edd280f4c9ac7cbae1e059ce7c53a57ae8b",
    "validate corpus/single-edge-graph.json --out json":
        "e4cb22cd4a9199a980a078b625667c28b460d30c41d1d0fe0865b8afc841d587",
    "validate corpus/single-edge-groupoid.json --out text":
        "b649dafde878ff226071d5eb6e0dd5d810109bef32416916643046eea9bd0980",
    "validate corpus/single-edge-groupoid.json --out json":
        "74c10f44f2e5529a60f0eadfabd79a66bdb1cd0c46520b9622f55e2cb7c5a564",
    "validate corpus/functor-point-to-p2.json --out text":
        "40f3f7a42a6d314538a6b3f23b18f3b6be5c51b8b4df0de0980a759920ee99d4",
    "validate corpus/functor-point-to-p2.json --out json":
        "da8e9143d4e707713b6bc57951f86a83b705506300d53ae4cd61782c76f6c039",
    "validate corpus/functor-point-id.json --out text":
        "e41d64bf668ab6aab026736d3b49d55c1ae2791b3d5ac8bc221204d895cbb6aa",
    "validate corpus/functor-point-id.json --out json":
        "0235eda644431d926533120239c4a156941756957bf6381907b2a8385102f2bb",
    "validate corpus/functor-point-to-z2action.json --out text":
        "40f3f7a42a6d314538a6b3f23b18f3b6be5c51b8b4df0de0980a759920ee99d4",
    "validate corpus/functor-point-to-z2action.json --out json":
        "da8e9143d4e707713b6bc57951f86a83b705506300d53ae4cd61782c76f6c039",
    "validate corpus/functor-z2-to-point.json --out text":
        "e41d64bf668ab6aab026736d3b49d55c1ae2791b3d5ac8bc221204d895cbb6aa",
    "validate corpus/functor-z2-to-point.json --out json":
        "0235eda644431d926533120239c4a156941756957bf6381907b2a8385102f2bb",
    "validate corpus/functor-z2-id.json --out text":
        "e41d64bf668ab6aab026736d3b49d55c1ae2791b3d5ac8bc221204d895cbb6aa",
    "validate corpus/functor-z2-id.json --out json":
        "0235eda644431d926533120239c4a156941756957bf6381907b2a8385102f2bb",
    "validate corpus/span-p2-point.json --out text":
        "a3e4dbf37dd5341fa7aae035844b871d002805dd3d50d5d2b72a0ef2397dced2",
    "validate corpus/span-p2-point.json --out json":
        "40705a07331493df75ff93b5a8cf25d339e0f054ecfe06ea456ca93c87ba9e43",
    "validate corpus/span-z2action-point.json --out text":
        "a3e4dbf37dd5341fa7aae035844b871d002805dd3d50d5d2b72a0ef2397dced2",
    "validate corpus/span-z2action-point.json --out json":
        "40705a07331493df75ff93b5a8cf25d339e0f054ecfe06ea456ca93c87ba9e43",
    "validate corpus/span-broken.json --out text":
        "4c6e2507b43e1efef9691afa149b2ac509340d6e506bf8bdcd6082eb78af005a",
    "validate corpus/span-broken.json --out json":
        "1639830eda1f495a56ddd6fa0804ac1c2782e35b5c52700e7f63e73a4968a1ad",
    "validate corpus/module-p2-regular.json --out text":
        "d4c8908de9484bc22c24f44bc55529103885f9aa27ceceef45a389182004f1d1",
    "validate corpus/module-p2-regular.json --out json":
        "ac059094464f89a3c8bbbc065096dc42a96be4a6a6eb54a641eea3ef58d8da79",
    "validate corpus/sheaf-p2-constant.json --out text":
        "af16824e502f469e938108de11bc55eb6dd8dbcdacadd4929da1c242dc96453e",
    "validate corpus/sheaf-p2-constant.json --out json":
        "480fa3dfb05a39e758084d1c776a01b47321ffb15ce8da847bd9bc3e9ad07fc9",
    "table corpus/p2.json --out text":
        "27cfd91a118843db15d288e7d930b52a31e0c1a6c73483b1de9dbef2ba9d2835",
    "table corpus/p2.json --out json":
        "29343307e5daaf7018d0db43c1f1389dab3a31e84cad8263908baaf67bb25cb7",
    "table corpus/single-edge-graph.json --out text":
        "9b347a1518dec1ffd7ff48193e1e9a5b7e145e23b8ac776342c153fc61179625",
    "table corpus/single-edge-graph.json --out json":
        "fc6d4747c62e9c22b0641857ea877cae63b773b8bbf9b24249ba16f178bb4a66",
    "bisections corpus/p2.json --out text":
        "edef13f7fe7e3fddedee1bfdcc3ab5dcdaa69fd0592df9b4133c79209b169420",
    "bisections corpus/p2.json --out json":
        "1c872b49498a4c8b6142be62bd82d8c3895c1bcf13af2446af4ea40e3756124d",
    "bisections corpus/single-edge-graph.json --out text":
        "92791d2d2fa92f98ce9e1c4917ef884713da27a10c4dfee415e153a8083c25aa",
    "bisections corpus/single-edge-graph.json --out json":
        "1f2e088efdad2092c527fee9e2c2342c6973e70356125d7f2b0bd2dd48595e05",
    "morita --span corpus/span-broken.json --ring Fp:5 --out text":
        "16e0c0c705c1f380f53a21da695b9a1209c6e7662f204b96255d6feb58dfac3a",
    "morita --span corpus/span-broken.json --ring Fp:5 --out json":
        "96352c51fb0501f725c055693287c5b2f4e5bfb70c81c0ed90690e790508db17",
    "validate corpus/module-broken.json --out text":
        "1d7679b74384397f04c37e9bdb1962e0fb5f03e21e63496026155428fba40303",
    "validate corpus/module-broken.json --out json":
        "0d51141eca644def63498c1dd0faac1a0863b1f7bd482cc759910e7d35e0cda6",
    "validate corpus/sheaf-broken.json --out text":
        "547fe331f9e36c827678b30d43c3ebed88402ef5e24ab112e744f52f945aabf5",
    "validate corpus/sheaf-broken.json --out json":
        "111f3a144ef3bed708a8cd8e6a078e280c216d0f67f8522ec9a2f852f16cd1bc",
    "examples --dir rerun --out text":
        "ffd65860ea26bcaad0e415aa7559104bca25240aa95b2359146dec310b3f119f",
    "examples --dir rerun --out json":
        "ffd65860ea26bcaad0e415aa7559104bca25240aa95b2359146dec310b3f119f",
    "equivalence --groupoid corpus/p2.json --ring Z --out text":
        "840db5240ee4fcaa01127cc8826ad51f910abca6e86c00e4e6d9fff8f6bea190",
    "equivalence --groupoid corpus/p2.json --ring Z --out json":
        "da6a143d74853d9f50342a609b49c9f6bd8a4fb7bd1bda7796848685f1523032",
    "morita --span corpus/span-p2-point.json --ring Z --out text":
        "932eb7015d4525bdfe89f12699d919e550f25d18060dbd1f36ac3abfc248f99d",
    "morita --span corpus/span-p2-point.json --ring Z --out json":
        "10242e1202cf5db5d97863f83ea9d841aa30ad38d495f191620be6741c4ac472",
}

# The reports of the broken span (its legs are not essential equivalences)
# and of the broken module and sheaf (one transport matrix overwritten).
FAILING = {
    "validate corpus/module-broken.json --out text",
    "validate corpus/module-broken.json --out json",
    "validate corpus/sheaf-broken.json --out text",
    "validate corpus/sheaf-broken.json --out json",
    "validate corpus/span-broken.json --out text",
    "validate corpus/span-broken.json --out json",
    "morita --span corpus/span-broken.json --ring Fp:5 --out text",
    "morita --span corpus/span-broken.json --ring Fp:5 --out json",
}


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    corpus = root / "corpus"
    code, _ = run_command(["examples", "--dir", str(corpus)])
    assert code == 0
    module = json.loads((corpus / "module-p2-regular.json").read_text())
    module["action"]["(1,2)"] = [[int(i == j) for j in range(4)] for i in range(4)]
    sheaf = json.loads((corpus / "sheaf-p2-constant.json").read_text())
    sheaf["transport"]["(1,2)"] = [[2]]
    for name, doc in (("module", module), ("sheaf", sheaf)):
        (corpus / f"{name}-broken.json").write_text(json.dumps(doc))
    return root


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_digest_is_unchanged(command, corpus_root, monkeypatch):
    monkeypatch.chdir(corpus_root)
    seeds = {"equivalence": EQUIVALENCE, "morita": MORITA}.get(command.split()[0], "")
    code, text = run_command(command.split() + seeds.split())
    assert code == (1 if command in FAILING else 0), text
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[command]
