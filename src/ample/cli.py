"""Command line interface: validation, tables, bisections, and the batch
equivalence / Morita verification reports.

Commands: validate, table, bisections, equivalence, morita, examples.
Each command returns a ``Report``: its status, its text lines and its JSON
payload.  ``run_command`` alone renders it: plain text by default, the
machine-readable certificate document under ``--out json`` (``examples``
has no JSON form and prints its text either way).  Every command takes
``--out``, and every command but ``validate`` and ``bisections`` takes
``--ring`` (a document carries its own ring, and bisections need none);
``equivalence`` and ``morita`` also take ``--seed`` and ``--samples``, and
``equivalence`` ``--max-rank``.  A flag the command does not read is a
usage error.  Both forms are byte-reproducible for fixed inputs and seeds.
Exit codes: 0 all checks passed, 1 a check or input file failed, 2 usage
error.
"""
from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Literal

from . import builders
from .algebra import multiplication_table
from .documents import (
    ParseError,
    ParsedDocument,
    dump_payload,
    functor_payload,
    graph_payload,
    groupoid_payload,
    load_document,
    module_payload,
    sheaf_payload,
)
from .equivalence import check_naturality, epsilon, eta
from .gmodule import random_hom, regular_module, validate_module
from .groupoid import FiniteGroupoid, SizeGuardError, enumerate_bisections, validate_groupoid
from .gsheaf import GSheaf, constant_sheaf, validate_sheaf
from .morita import GroupoidFunctor, identity_functor, validate_functor, validate_span, verify_morita
from .rings import Ring, ring_from_name
from .validation import Failure, ValidationReport


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class Report:
    """What one command found; ``payload`` is None for a command with no JSON
    form.  ``table`` builds only the form ``--out`` asks for."""

    status: Literal["pass", "fail", "rejected"]
    lines: list[str]
    payload: dict[str, Any] | None


class _Parser(argparse.ArgumentParser):
    commands: dict[str, "_Parser"]  # the sub-parser of each command, on the top-level parser

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="ample", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p_validate = sub.add_parser("validate", help="parse a document and check its axioms")
    p_validate.add_argument("file")
    _out_flag(p_validate)

    p_table = sub.add_parser("table", help="structure constants of the arrow singletons")
    p_table.add_argument("file", help="groupoid or graph document")
    _common_flags(p_table)

    p_bis = sub.add_parser("bisections", help="enumerate all compact open bisections")
    p_bis.add_argument("file", help="groupoid or graph document")
    _out_flag(p_bis)

    p_eq = sub.add_parser("equivalence", help="certify eta/epsilon and naturality on samples")
    p_eq.add_argument("--groupoid", required=True, help="groupoid or graph document")
    _common_flags(p_eq)
    _sample_flags(p_eq)
    p_eq.add_argument("--max-rank", type=_int_at_least(0), default=3, dest="max_rank")

    p_mor = sub.add_parser("morita", help="verify a span of essential equivalences")
    p_mor.add_argument("--span", required=True, help="span document")
    _common_flags(p_mor)
    _sample_flags(p_mor)

    p_ex = sub.add_parser("examples", help="emit the builder fixture corpus")
    p_ex.add_argument("--dir", required=True, help="output directory")
    _common_flags(p_ex)

    return parser


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ring", default="Q", help="Q, Z, Fp:<p> or Zmod:<m>")
    _out_flag(parser)


def _out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", choices=("text", "json"), default="text", help="report format")


def _sample_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=_int_at_least(1), default=10)


def run_command(argv: list[str]) -> tuple[int, str]:
    """Run one command; returns (exit code, report text)."""
    parser = _build_parser()
    # A command's arguments go straight to its sub-parser, as the top-level
    # parser would hand them on; anything else (no command, an unknown one,
    # -h) goes through the top-level parser for its usage message.
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = command.parse_args(argv[1:])
            args.command = argv[0]
    except UsageError as exc:
        return 2, f"usage error: {exc}"
    except SystemExit as exc:  # argparse prints help/version itself
        return int(exc.code or 0), ""
    try:
        ring = ring_from_name(args.ring) if "ring" in args else None
        if args.command in ("equivalence", "morita") and not ring.supports_elimination:
            raise ValueError(f"ring {ring.name} has a composite modulus; use Q, Z or Fp:<p>")
    except ValueError as exc:
        return 2, f"usage error: {exc}"
    handler = {
        "validate": _cmd_validate,
        "table": _cmd_table,
        "bisections": _cmd_bisections,
        "equivalence": _cmd_equivalence,
        "morita": _cmd_morita,
        "examples": _cmd_examples,
    }[args.command]
    try:
        report = handler(args, ring)
    except ParseError as exc:
        return 1, exc.describe()
    except SizeGuardError as exc:  # only table and bisections enumerate exhaustively
        hint = "exhaustive commands are for small groupoids; use a smaller one"
        return 1, ParseError(str(exc), hint=hint, source=args.file).describe()
    except UsageError as exc:
        return 2, f"usage error: {exc}"
    code = 0 if report.status == "pass" else 1
    if args.out == "json" and report.payload is not None:
        return code, dump_payload(report.payload).rstrip("\n")
    return code, "\n".join(report.lines)


def main() -> None:
    code, text = run_command(sys.argv[1:])
    print(text)
    raise SystemExit(code)


# -- validate --------------------------------------------------------------------


def _summary(kind: str, value: Any) -> str:
    if kind == "groupoid":
        return f"{len(value.arrows)} arrows, {len(value.objects)} objects"
    if kind == "module":
        return f"rank {value.rank}, {len(value.groupoid.arrows)} arrows"
    if kind == "sheaf":
        return f"stalk ranks {_ranks(value) or '-'}"
    if kind == "functor":
        return f"{len(value.source.objects)} objects -> {len(value.target.objects)} objects"
    if kind == "span":
        return f"apex {len(value.apex.objects)} objects"
    if kind == "graph":
        return f"{len(value.vertices)} vertices, {len(value.edges)} edges"
    return ""


def _ranks(sheaf: GSheaf) -> str:
    """The stalk ranks of ``sheaf`` in object order, comma-separated."""
    return ",".join(str(sheaf.stalk_rank[x]) for x in sheaf.groupoid.objects)


def _groupoid_report(doc: ParsedDocument) -> tuple[FiniteGroupoid | None, ValidationReport]:
    """The groupoid of a groupoid or graph document and its axiom report; a
    cyclic graph has no groupoid and fails ``acyclicity``."""
    if doc.kind == "groupoid":
        return doc.value, validate_groupoid(doc.value)
    try:
        groupoid = builders.acyclic_graph_groupoid(doc.value)
    except ValueError as exc:
        return None, ValidationReport("graph", (Failure("acyclicity", str(exc)),))
    return groupoid, validate_groupoid(groupoid)


def _cmd_validate(args: argparse.Namespace, ring: None) -> Report:
    doc = load_document(args.file)
    if doc.kind in ("groupoid", "graph"):
        report = _groupoid_report(doc)[1]
    else:
        # looked up per call, so a validator rebound on this module is the one run
        validators = {
            "module": validate_module, "sheaf": validate_sheaf,
            "functor": validate_functor, "span": validate_span,
        }
        report = validators[doc.kind](doc.value)
    summary = _summary(doc.kind, doc.value)
    status = "pass" if report.ok else "fail"
    if report.ok:
        lines = [f"{doc.kind}: PASS ({summary})"]
    else:
        lines = [f"{doc.kind}: FAIL"] + [f"  {f}" for f in report.failures]
    payload = {
        "command": "validate",
        "kind": doc.kind,
        "summary": summary,
        "result": status,
        "failures": [{"law": f.law, "witness": f.witness} for f in report.failures],
    }
    return Report(status, lines, payload)


# -- groupoid-consuming commands ---------------------------------------------------


def _groupoid_from_file(path: str) -> FiniteGroupoid:
    doc = load_document(path)
    if doc.kind not in ("groupoid", "graph"):
        raise UsageError(f"{path} is a {doc.kind} document; expected groupoid or graph")
    groupoid, report = _groupoid_report(doc)
    if groupoid is None or not report.ok:
        raise ParseError(
            f"{report.subject} axioms fail: {report.first()}",
            hint="run the validate command for the full report",
            source=path,
        )
    return groupoid


def _cmd_table(args: argparse.Namespace, ring: Ring) -> Report:
    groupoid = _groupoid_from_file(args.file)
    arrows = groupoid.arrows
    cells = multiplication_table(groupoid, ring).cells
    if args.out == "json":
        keyed = {f"{a}|{b}": c for (a, b), c in cells.items()}
        return Report("pass", [], {"command": "table", "arrows": list(arrows), "cells": keyed})
    # The text rows read the cells in their row-major order, len(arrows) cells a row.
    text = iter(["0" if c is None else str(c) for c in cells.values()])
    lines = ["\t".join(["*", *map(str, arrows)])]
    lines += ["\t".join([str(a), *islice(text, len(arrows))]) for a in arrows]
    return Report("pass", lines, None)


def _cmd_bisections(args: argparse.Namespace, ring: None) -> Report:
    groupoid = _groupoid_from_file(args.file)
    found = enumerate_bisections(groupoid)
    lines = [f"bisections: {len(found)}"] + [u.label() for u in found]
    payload = {
        "command": "bisections",
        "count": len(found),
        "bisections": [list(u.arrows) for u in found],
    }
    return Report("pass", lines, payload)


# -- equivalence -----------------------------------------------------------------


def _cmd_equivalence(args: argparse.Namespace, ring: Ring) -> Report:
    groupoid = _groupoid_from_file(args.groupoid)
    rng = random.Random(args.seed)
    lines = [
        "equivalence report",
        f"groupoid: {args.groupoid} ({_summary('groupoid', groupoid)})",
        f"ring: {ring.name}  seed: {args.seed}  samples: {args.samples}  max-rank: {args.max_rank}",
    ]
    records: dict[str, list[dict[str, Any]]] = {"eta": [], "epsilon": [], "naturality": []}

    def record(section: str, failure: object, **fields: Any) -> str:
        """Keep the next record of ``section``, failed unless ``failure`` is
        None; returns its text verdict."""
        result = "pass" if failure is None else "fail"
        records[section].append({"index": len(records[section]), **fields, "result": result})
        return "PASS" if failure is None else f"FAIL ({failure})"

    for i in range(args.samples):
        seed = rng.randrange(2**32)
        module = builders.random_module(groupoid, ring, args.max_rank, seed)
        result = eta(module)
        verdict = record("eta", result.first(), seed=seed, rank=module.rank)
        stalks = f" stalks={_ranks(result.value.sheafification.sheaf)}" if result.ok else ""
        lines.append(f"eta[{i:02d}] seed={seed} rank={module.rank}{stalks} : {verdict}")

    for i in range(args.samples):
        seed = rng.randrange(2**32)
        sheaf = builders.random_sheaf(groupoid, ring, args.max_rank, seed)
        verdict = record("epsilon", epsilon(sheaf).first(), seed=seed)
        lines.append(f"epsilon[{i:02d}] seed={seed} stalks={_ranks(sheaf)} : {verdict}")

    for i in range(args.samples):
        seed_a, seed_b = rng.randrange(2**32), rng.randrange(2**32)
        m1 = builders.random_module(groupoid, ring, max(1, args.max_rank - 1), seed_a)
        m2 = builders.random_module(groupoid, ring, max(1, args.max_rank - 1), seed_b)
        failure = check_naturality(random_hom(m1, m2, rng)).first()
        verdict = record("naturality", failure and failure.witness, ranks=[m1.rank, m2.rank])
        lines.append(f"naturality[{i:02d}] ranks {m1.rank}->{m2.rank} : {verdict}")

    status = "pass" if all(r["result"] == "pass" for section in records.values() for r in section) else "fail"
    n = args.samples
    lines.append(f"RESULT: {status.upper()} ({n} eta + {n} epsilon + {n} naturality)")
    payload = {
        "command": "equivalence",
        "groupoid": args.groupoid,
        "ring": ring.name,
        "seed": args.seed,
        "samples": args.samples,
        "max_rank": args.max_rank,
        "certificates": records,
        "result": status,
    }
    return Report(status, lines, payload)


# -- morita ----------------------------------------------------------------------


def _cmd_morita(args: argparse.Namespace, ring: Ring) -> Report:
    doc = load_document(args.span)
    if doc.kind != "span":
        raise UsageError(f"{args.span} is a {doc.kind} document; expected span")
    span = doc.value
    report = verify_morita(span, ring, args.samples, args.seed)
    legs = {"left": report.left_leg, "right": report.right_leg}
    # each leg's verdict: None when it passes, else its first failure
    verdicts = {name: None if leg.ok else str(leg.first()) for name, leg in legs.items()}
    lines = [
        "morita report",
        f"span: {args.span}",
        f"ring: {ring.name}  seed: {args.seed}  samples: {args.samples}",
        "legs: " + ", ".join(f"{name} " + ("PASS" if v is None else f"FAIL ({v})") for name, v in verdicts.items()),
    ]
    status = "rejected" if report.rejected else "pass" if report.ok else "fail"
    payload: dict[str, Any] = {
        "command": "morita", "span": args.span, "ring": ring.name,
        "seed": args.seed, "samples": args.samples, "result": status,
    }
    if report.rejected:
        payload["legs"] = {name: "pass" if v is None else v for name, v in verdicts.items()}
        broken = any(f.law == "groupoid" for leg in legs.values() for f in leg.failures)
        reason = "a groupoid of the span fails its axioms" if broken else "span legs are not essential equivalences"
        lines.append(f"RESULT: REJECTED ({reason})")
    else:
        columns = ("sample", "direction", "rank", "transported", "round_trip")
        rows = [
            (s.index, s.direction, s.source_rank, s.transported_rank, "pass" if s.round_trip_ok else "fail")
            for s in report.samples
        ]
        lines += ["rank table:", "\t".join(columns)]
        lines += ["\t".join([*map(str, row[:-1]), row[-1].upper()]) for row in rows]
        if report.hom_dims:
            equal = "all equal" if report.hom_dims_equal else "MISMATCH"
            lines.append(f"hom-dims: {len(report.hom_dims)} pairs compared, {equal}")
        lines.append(f"RESULT: {status.upper()}")
        payload["rank_table"] = [dict(zip(columns, row)) for row in rows]
        payload["hom_dims"] = [list(t) for t in report.hom_dims]
    return Report(status, lines, payload)


# -- examples ---------------------------------------------------------------------


def _cmd_examples(args: argparse.Namespace, ring: Ring) -> Report:
    point = builders.trivial_groupoid()
    p2 = builders.pair_groupoid(2)
    p3 = builders.pair_groupoid(3)
    z2_elems, z2_table = builders.cyclic_group(2)
    z3_elems, z3_table = builders.cyclic_group(3)
    z2 = builders.group_groupoid(z2_elems, z2_table)
    z3 = builders.group_groupoid(z3_elems, z3_table)
    z2_action = builders.action_groupoid(z2_elems, z2_table, list(z2_elems), dict(z2_table))
    graph = builders.single_edge_graph()

    incl_p2 = GroupoidFunctor(point, p2, {"1": "1"}, {"(1,1)": "(1,1)"})
    incl_action = GroupoidFunctor(point, z2_action, {"1": "e"}, {"(1,1)": "(e,e)"})
    collapse_z2 = GroupoidFunctor(z2, point, {"*": "1"}, {"e": "(1,1)", "g": "(1,1)"})

    files: list[tuple[str, dict[str, Any]]] = [
        ("point.json", groupoid_payload(point)),
        ("p2.json", groupoid_payload(p2)),
        ("p3.json", groupoid_payload(p3)),
        ("z2.json", groupoid_payload(z2)),
        ("z3.json", groupoid_payload(z3)),
        ("z2-action.json", groupoid_payload(z2_action)),
        ("single-edge-graph.json", graph_payload(graph)),
        (
            "single-edge-groupoid.json",
            groupoid_payload(builders.acyclic_graph_groupoid(graph)),
        ),
        ("functor-point-to-p2.json", functor_payload(incl_p2, "point.json", "p2.json")),
        ("functor-point-id.json", functor_payload(identity_functor(point), "point.json", "point.json")),
        (
            "functor-point-to-z2action.json",
            functor_payload(incl_action, "point.json", "z2-action.json"),
        ),
        ("functor-z2-to-point.json", functor_payload(collapse_z2, "z2.json", "point.json")),
        ("functor-z2-id.json", functor_payload(identity_functor(z2), "z2.json", "z2.json")),
        (
            "span-p2-point.json",
            {"kind": "span", "apex": "point.json", "left": "functor-point-to-p2.json",
             "right": "functor-point-id.json"},
        ),
        (
            "span-z2action-point.json",
            {"kind": "span", "apex": "point.json", "left": "functor-point-to-z2action.json",
             "right": "functor-point-id.json"},
        ),
        (
            "span-broken.json",
            {"kind": "span", "apex": "z2.json", "left": "functor-z2-to-point.json",
             "right": "functor-z2-id.json"},
        ),
        ("module-p2-regular.json", module_payload(regular_module(p2, ring), "p2.json")),
        ("sheaf-p2-constant.json", sheaf_payload(constant_sheaf(p2, ring, 1), "p2.json")),
    ]
    lines = []
    try:
        os.makedirs(args.dir, exist_ok=True)
        for name, payload in files:
            with open(os.path.join(args.dir, name), "w", encoding="utf-8") as handle:
                handle.write(dump_payload(payload))
            lines.append(f"wrote {name}")
    except OSError as exc:
        raise ParseError(
            f"cannot write the corpus: {exc.strerror or exc}",
            hint="--dir must name a directory that can be created and written",
            source=exc.filename or args.dir,
        ) from None
    return Report("pass", lines, None)


if __name__ == "__main__":
    main()
