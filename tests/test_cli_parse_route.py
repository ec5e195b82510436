"""``run_command`` hands a command's arguments straight to its sub-parser.

With the top-level parser's table of commands emptied, every argument list
goes through the top-level parser, as it did before the direct route.  The
two routes must give the same exit code, report text and printed help on
valid commands, usage errors and help requests alike.
"""
from __future__ import annotations

import pytest

from ample.cli import _build_parser, run_command


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    assert run_command(["examples", "--dir", str(d)])[0] == 0
    return d


def _argvs(corpus, tmp):
    p2, z3, span = str(corpus / "p2.json"), str(corpus / "z3.json"), str(corpus / "span-p2-point.json")
    return [
        [],
        ["frobnicate"],
        ["-h"],
        ["--help"],
        ["--out", "json", "validate", p2],
        ["validate"],
        ["validate", p2],
        ["validate", "validate"],
        ["validate", p2, "--out", "json"],
        ["validate", p2, "--o", "json"],
        ["validate", p2, "--out"],
        ["validate", p2, "--out", "xml"],
        ["validate", p2, "--ring", "Q"],
        ["validate", p2, "extra"],
        ["validate", "--", p2],
        ["validate", "-h"],
        ["validate", p2, "--he"],
        ["table", "--help"],
        ["table", p2, "--ring", "Fp:5", "--out", "json"],
        ["table", p2, "--ring"],
        ["table", p2, "--ring", "R"],
        ["table", p2, "--ring", "Zmod:1"],
        ["bisections", z3],
        ["bisections", z3, "--samples", "0"],
        ["equivalence"],
        ["equivalence", "--groupoid", p2, "--ring", "Fp:5", "--samples", "1", "--seed", "3"],
        ["equivalence", "--groupoid", p2, "--samples", "0"],
        ["equivalence", "--groupoid", p2, "--max-rank", "x"],
        ["equivalence", "--groupoid=" + p2, "--ring=Fp:5", "--samples=1", "--out=json"],
        ["morita", "--span", span, "--ring", "Fp:5", "--samples", "1"],
        ["morita", "--span", span, "--max-rank", "1"],
        ["examples"],
        ["examples", "--dir", str(tmp / "examples")],
    ]


def test_both_routes_give_the_same_outcome(corpus, tmp_path, monkeypatch, capsys):
    parser = _build_parser()
    assert sorted(parser.commands) == ["bisections", "equivalence", "examples", "morita", "table", "validate"]
    for argv in _argvs(corpus, tmp_path):
        direct = run_command(list(argv)), capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(parser, "commands", {})
            through_top = run_command(list(argv)), capsys.readouterr()
        assert direct == through_top, argv
