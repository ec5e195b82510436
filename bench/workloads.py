"""Seeded corpora and job lists for the four benchmark workloads.

``prepare(name, choices, corpus)`` writes every input document of a
workload into the directory ``corpus`` (a path relative to the working
directory, so that reports, which echo file paths, do not depend on where
the benchmark runs), parses each document once, and returns the job list:
the argv of every ``ample`` command the workload runs, in order.  Its
random choices come from ``choices``, a ``Choices`` for the workload seed;
the same seed gives a byte-identical corpus and job list.

The ``ample`` modules are imported inside ``prepare`` so that a set-up that
re-imports the package measures the import too.
"""
from __future__ import annotations

import importlib
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

WORKLOADS = ("equiv-q", "morita-hom-fp", "morita-rt-fp", "validate-fp")

# Job list lengths.  A 20 s run at this commit gets through about 150 of the
# equiv-q and 230 of the morita-rt-fp commands, and 7-9 of the 8
# morita-hom-fp passes (each pass is one command per span size; choosing its
# seeds lengthens the untimed first set-up, not setup_s).  A run that gets
# further starts the list again, as every equiv-q and validate-fp run does.
EQUIV_JOBS = 48
MORITA_RT_JOBS = 400
MORITA_HOM_CYCLES = 8

# equivalence --samples 1 draws, in this order, an eta module, an epsilon
# sheaf and two naturality modules; the modules are drawn at --max-rank,
# the naturality ones at one less.  Each command seed is kept only if its
# draws get the ranks below, (eta, epsilon, naturality source, naturality
# target), so every command on a groupoid solves systems of the same sizes.
# Unselected seeds spread one command's time thirtyfold (ranks 0 to 6), and
# a run's median command time then depends on which ranks its seed drew.
EQUIV_GROUPOIDS = (("p2", 3), ("p3", 2), ("single-edge-graph", 3), ("z2-action", 3))
EQUIV_RANKS = {"p2": (4, 4, 4, 4), "p3": (6, 6, 3, 3), "single-edge-graph": (4, 4, 4, 4),
               "z2-action": (4, 4, 4, 4)}
MORITA_RT_SPANS = ("span-p2-point", "span-z2action-point")
MORITA_HOM_SIZES = (2, 3, 4)
MORITA_HOM_SAMPLES = 3
# verify_morita draws its modules with max_rank=2 and compares hom spaces of
# the first three left samples.
MORITA_SAMPLE_MAX_RANK = 2
MORITA_HOM_PAIRS = 3

VALIDATE_PAIRS = range(2, 11)
VALIDATE_ACTIONS = range(2, 13)
VALIDATE_GRAPHS = 6
# Graph groupoid sizes are held in a band so that every corpus costs about
# the same; the bisection enumeration, 2**arrows subsets, then runs only on
# the fixed pair and action groupoids.
GRAPH_ARROWS = (20, 40)
VALIDATE_MODULE_PAIRS = (4, 5, 6)
VALIDATE_MODULE_ACTIONS = (3, 4)
TABLE_GUARD = 64        # ample.algebra.TABLE_GUARD
BISECTION_GUARD = 16    # ample.groupoid.BISECTION_ENUM_GUARD


@dataclass(frozen=True)
class Job:
    """One CLI command.

    ``certs`` is the number of certificates the command completes when it
    passes; ``group`` labels jobs whose layer metrics are also reported per
    input size (empty for none); ``expect`` is what the report must show
    besides a pass: for ``table`` the number of report lines, for
    ``bisections`` the number of bisections (``-1`` when only the count
    line and the listing must agree).
    """

    argv: tuple[str, ...]
    certs: int
    group: str = ""
    expect: int = -1

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def json_out(self) -> bool:
        return "--out" in self.argv


class Choices:
    """The seeded random choices behind one corpus and job list.

    The first ``prepare`` given a ``Choices`` makes every choice from the
    seed, redraws of rejected candidates included, and records it; after
    ``rewind()`` a ``prepare`` replays the record instead.  A timed set-up
    that replays does no rejection sampling, so its time does not depend on
    how many draws a seed happened to reject.  Choices are plain data
    (numbers, strings, tuples), never ``ample`` objects, because each
    set-up imports the package anew.
    """

    def __init__(self, name: str, seed: int) -> None:
        self._rng = random.Random(f"{name}/{seed}")
        self._record: list[Any] = []
        self._replay: Iterator[Any] | None = None

    def __call__(self, draw: Callable[[random.Random], Any]) -> Any:
        """``draw(rng)`` on the first pass, its recorded value on a replay."""
        if self._replay is not None:
            return next(self._replay)
        value = draw(self._rng)
        self._record.append(value)
        return value

    def rewind(self) -> None:
        self._replay = iter(self._record)


def _command_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def cycle_length(name: str, jobs: list[Job]) -> int:
    """Commands in one pass over a workload's mix; a timed run stops only
    between passes, so every run measures the same mix.  A validate-fp pass
    is the whole corpus."""
    return {
        "equiv-q": len(EQUIV_GROUPOIDS),
        "morita-hom-fp": len(MORITA_HOM_SIZES),
        "morita-rt-fp": len(MORITA_RT_SPANS),
        "validate-fp": len(jobs),
    }[name]


# Passes over a workload's mix that a traced run covers per second of
# --seconds: at this commit the traced commands take about half the run and
# their untraced replay most of the rest.  The count depends only on the
# workload and --seconds, never on how fast the program or the machine is,
# so a traced run measures the same commands at every commit and its
# per-layer totals compare across commits.
TRACE_PASSES_PER_SECOND = {"equiv-q": 0.75, "morita-hom-fp": 0.15, "morita-rt-fp": 3.25, "validate-fp": 0.35}


def traced_commands(name: str, jobs: list[Job], seconds: float) -> int:
    """Commands in a traced run: whole passes, at least one."""
    passes = max(1, round(seconds * TRACE_PASSES_PER_SECOND[name]))
    return passes * cycle_length(name, jobs)


def prepare(name: str, choices: Choices, corpus: str) -> list[Job]:
    """Write the corpus of workload ``name`` and return its jobs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    os.makedirs(corpus, exist_ok=True)
    ample = _Ample()
    return {
        "equiv-q": _equiv_q,
        "morita-hom-fp": _morita_hom_fp,
        "morita-rt-fp": _morita_rt_fp,
        "validate-fp": _validate_fp,
    }[name](ample, choices, corpus)


class _Ample:
    """The ``ample`` modules a corpus is built with, imported on creation."""

    def __init__(self) -> None:
        self.cli = importlib.import_module("ample.cli")
        self.builders = importlib.import_module("ample.builders")
        self.documents = importlib.import_module("ample.documents")
        self.rings = importlib.import_module("ample.rings")
        self.morita = importlib.import_module("ample.morita")

    def examples(self, corpus: str) -> None:
        code, text = self.cli.run_command(["examples", "--dir", corpus])
        if code != 0:
            raise RuntimeError(f"ample examples failed: {text}")

    def write(self, corpus: str, name: str, payload: dict[str, Any]) -> str:
        path = f"{corpus}/{name}"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.documents.dump_payload(payload))
        return path

    def parse(self, path: str) -> Any:
        return self.documents.load_document(path).value

    def parse_groupoid(self, path: str) -> Any:
        """The groupoid of a groupoid or graph document, as commands read it."""
        doc = self.documents.load_document(path)
        return self.builders.acyclic_graph_groupoid(doc.value) if doc.kind == "graph" else doc.value


def _json_every_other(i: int) -> tuple[str, ...]:
    return ("--out", "json") if i % 2 else ()


# -- equiv-q --------------------------------------------------------------------


def _equiv_q(ample: _Ample, pick: Choices, corpus: str) -> list[Job]:
    ample.examples(corpus)
    groupoids = {name: ample.parse_groupoid(f"{corpus}/{name}.json") for name, _ in EQUIV_GROUPOIDS}
    ring = ample.rings.ring_from_name("Fp:5")
    jobs = []
    for i in range(EQUIV_JOBS):
        name, max_rank = EQUIV_GROUPOIDS[i % len(EQUIV_GROUPOIDS)]
        seed = pick(lambda rng: _balanced_equiv_seed(ample, groupoids[name], ring, max_rank,
                                                     EQUIV_RANKS[name], rng))
        argv = (
            "equivalence", "--groupoid", f"{corpus}/{name}.json", "--ring", "Q",
            "--samples", "1", "--max-rank", str(max_rank), "--seed", str(seed),
        ) + _json_every_other(i // len(EQUIV_GROUPOIDS))
        jobs.append(Job(argv, certs=3))
    return jobs


def _balanced_equiv_seed(ample: _Ample, g: Any, ring: Any, max_rank: int,
                         ranks: tuple[int, int, int, int], rng: random.Random) -> int:
    """An ``equivalence --samples 1`` seed whose four draws get ``ranks``.

    The draw order mirrors the command: one seed each for the eta module,
    the epsilon sheaf and the two naturality modules.  A module's rank is
    the total rank of the sheaf ``random_module`` starts from, drawn from
    its seed's first value.  Stalk ranks are chosen before any arithmetic,
    so drawing the sheaves over Fp:5 gives the ranks they have over Q, much
    more cheaply.  A change to this draw order leaves the reports correct
    but the ranks unbalanced; the self-tests check the reported ranks.
    """
    def module_seed(seed: int) -> int:
        return random.Random(seed).randrange(2**32)

    lower = max(1, max_rank - 1)
    while True:
        seed = rng.randrange(2**31)
        draws = random.Random(seed)
        eta, epsilon, source, target = (draws.randrange(2**32) for _ in range(4))
        wanted = ((module_seed(eta), max_rank), (epsilon, max_rank),
                  (module_seed(source), lower), (module_seed(target), lower))
        if all(ample.builders.random_sheaf(g, ring, rank, s).total_rank == want
               for (s, rank), want in zip(wanted, ranks)):
            return seed


# -- morita-rt-fp -----------------------------------------------------------------


def _morita_rt_fp(ample: _Ample, pick: Choices, corpus: str) -> list[Job]:
    ample.examples(corpus)
    for name in MORITA_RT_SPANS:
        ample.parse(f"{corpus}/{name}.json")
    jobs = []
    for i in range(MORITA_RT_JOBS):
        span = MORITA_RT_SPANS[i % len(MORITA_RT_SPANS)]
        argv = (
            "morita", "--span", f"{corpus}/{span}.json", "--ring", "Fp:5",
            "--samples", "10", "--seed", str(pick(_command_seed)),
        ) + _json_every_other(i // len(MORITA_RT_SPANS))
        jobs.append(Job(argv, certs=2 * 10 + MORITA_HOM_PAIRS**2))
    return jobs


# -- morita-hom-fp ----------------------------------------------------------------


def _morita_hom_fp(ample: _Ample, pick: Choices, corpus: str) -> list[Job]:
    b, doc = ample.builders, ample.documents
    point = b.trivial_groupoid()
    ample.write(corpus, "point.json", doc.groupoid_payload(point))
    ample.write(
        corpus, "functor-point-id.json",
        doc.functor_payload(ample.morita.identity_functor(point), "point.json", "point.json"),
    )
    (p_obj,), (p_arrow,) = point.objects, point.arrows
    targets = {}
    for n in MORITA_HOM_SIZES:
        pair = b.pair_groupoid(n)
        ample.write(corpus, f"pair{n}.json", doc.groupoid_payload(pair))
        x = pair.objects[pick(lambda rng: rng.randrange(n))]
        incl = ample.morita.GroupoidFunctor(point, pair, {p_obj: x}, {p_arrow: pair.unit[x]})
        ample.write(corpus, f"functor-point-pair{n}.json", doc.functor_payload(incl, "point.json", f"pair{n}.json"))
        span = {"kind": "span", "apex": "point.json", "left": f"functor-point-pair{n}.json",
                "right": "functor-point-id.json"}
        path = ample.write(corpus, f"span-pair{n}-point.json", span)
        parsed = ample.parse(path)
        targets[n] = (parsed.left.target, parsed.right.target)

    ring = ample.rings.ring_from_name("Fp:5")
    jobs = []
    for cycle in range(MORITA_HOM_CYCLES):
        for n in MORITA_HOM_SIZES:
            seed = pick(lambda rng: _balanced_morita_seed(ample, *targets[n], ring, n, rng))
            argv = (
                "morita", "--span", f"{corpus}/span-pair{n}-point.json", "--ring", "Fp:5",
                "--samples", str(MORITA_HOM_SAMPLES), "--seed", str(seed),
            ) + _json_every_other(cycle)
            jobs.append(Job(argv, certs=2 * MORITA_HOM_SAMPLES + MORITA_HOM_PAIRS**2, group=f"n{n}"))
    return jobs


def _balanced_morita_seed(ample: _Ample, pair: Any, point: Any, ring: Any, n: int,
                          rng: random.Random) -> int:
    """A command seed whose compared left modules have ranks 0, n and 2n,
    and whose right modules ranks 0, 1 and 2.

    A module on pair(n) drawn at max_rank 2 has rank 0, n or 2n, and the
    cost of the hom-space systems grows with the cube of the rank product,
    so unselected seeds spread one command's time 200-fold.  A right module,
    on the point, is transported back to a module of n times its rank on
    pair(n), so its rank sets the cost of the other round trips.  Holding
    both rank sets fixed makes every command solve the same system sizes,
    up to one 2n*2n-unknown system.  The draw order mirrors
    ``verify_morita``: per sample, one seed for the left module, then one for
    the right.  ``random_module(g, ring, r, s)`` is the section module of
    ``random_sheaf(g, ring, r, Random(s).randrange(2**32))`` in a new basis,
    so its rank is that sheaf's total rank; drawing only the sheaf is about
    fifteen times cheaper.
    """
    def rank(g: Any, seed: int) -> int:
        sheaf_seed = random.Random(seed).randrange(2**32)
        return ample.builders.random_sheaf(g, ring, MORITA_SAMPLE_MAX_RANK, sheaf_seed).total_rank

    want = (sorted((0, n, 2 * n)), [0, 1, 2])
    while True:
        seed = rng.randrange(2**31)
        draws = random.Random(seed)
        left, right = [], []
        for _ in range(MORITA_HOM_PAIRS):
            left.append(rank(pair, draws.randrange(2**32)))
            right.append(rank(point, draws.randrange(2**32)))
            if len(set(left)) < len(left) or len(set(right)) < len(right):
                break
        if (sorted(left), sorted(right)) == want:
            return seed


# -- validate-fp ------------------------------------------------------------------


def _validate_fp(ample: _Ample, pick: Choices, corpus: str) -> list[Job]:
    b, doc = ample.builders, ample.documents
    ring = ample.rings.ring_from_name("Fp:5")
    point = b.trivial_groupoid()
    (p_obj,), (p_arrow,) = point.objects, point.arrows
    ample.write(corpus, "point.json", doc.groupoid_payload(point))
    ample.write(
        corpus, "functor-point-id.json",
        doc.functor_payload(ample.morita.identity_functor(point), "point.json", "point.json"),
    )

    validate: list[str] = []
    shaped: list[tuple[str, int, int]] = []  # (path, arrows, known bisection count)
    groupoids: dict[str, Any] = {}

    def add_groupoid(stem: str, g: Any, bisections: int) -> None:
        path = ample.write(corpus, f"{stem}.json", doc.groupoid_payload(g))
        validate.append(path)
        shaped.append((path, len(g.arrows), bisections))
        groupoids[stem] = g

    for n in VALIDATE_PAIRS:
        add_groupoid(f"pair{n}", b.pair_groupoid(n), _partial_bijections(n))
    for k in VALIDATE_ACTIONS:
        elements, table = b.cyclic_group(k)
        add_groupoid(f"z{k}-action", b.action_groupoid(elements, table, list(elements), dict(table)), -1)

    for i in range(VALIDATE_GRAPHS):
        vertices, edges, arrows = pick(lambda rng: _random_graph(b, rng))
        spec = b.GraphSpec(vertices, edges)
        path = ample.write(corpus, f"graph{i}.json", doc.graph_payload(spec))
        validate.append(path)
        shaped.append((path, arrows, -1))

    for stem, g in groupoids.items():
        x = g.objects[pick(lambda rng: rng.randrange(len(g.objects)))]
        incl = ample.morita.GroupoidFunctor(point, g, {p_obj: x}, {p_arrow: g.unit[x]})
        functor = ample.write(corpus, f"functor-point-{stem}.json",
                              doc.functor_payload(incl, "point.json", f"{stem}.json"))
        span = ample.write(corpus, f"span-{stem}.json", {
            "kind": "span", "apex": "point.json", "left": f"functor-point-{stem}.json",
            "right": "functor-point-id.json"})
        validate += [functor, span]

    carriers = [f"pair{n}" for n in VALIDATE_MODULE_PAIRS] + [f"z{k}-action" for k in VALIDATE_MODULE_ACTIONS]
    for stem in carriers:
        g = groupoids[stem]
        size = len(g.objects)
        seed = pick(lambda rng: _draw(rng, lambda s: b.random_module(g, ring, 1, s), lambda m: m.rank == size))
        module = b.random_module(g, ring, 1, seed)
        validate.append(ample.write(corpus, f"module-{stem}.json", doc.module_payload(module, f"{stem}.json")))
        seed = pick(lambda rng: _draw(rng, lambda s: b.random_sheaf(g, ring, 2, s),
                                      lambda e: e.total_rank == 2 * size))
        sheaf = b.random_sheaf(g, ring, 2, seed)
        validate.append(ample.write(corpus, f"sheaf-{stem}.json", doc.sheaf_payload(sheaf, f"{stem}.json")))

    for path in validate:
        ample.parse(path)

    jobs = [Job(("validate", path), certs=1) for path in validate]
    for path, arrows, bisections in shaped:
        if arrows <= TABLE_GUARD:
            jobs.append(Job(("table", path, "--ring", "Fp:5"), certs=1, expect=arrows + 1))
        if arrows <= BISECTION_GUARD:
            jobs.append(Job(("bisections", path), certs=1, expect=bisections))
    order = pick(lambda rng: _shuffled(rng, len(jobs)))
    return [Job(jobs[k].argv + _json_every_other(i), jobs[k].certs, jobs[k].group, jobs[k].expect)
            for i, k in enumerate(order)]


def _shuffled(rng: random.Random, count: int) -> tuple[int, ...]:
    """The order ``rng.shuffle`` puts a list of ``count`` items in."""
    order = list(range(count))
    rng.shuffle(order)
    return tuple(order)


def _partial_bijections(n: int) -> int:
    """Bisections of pair(n): partial bijections of an n-set, the empty one included."""
    return sum(math.comb(n, k) * math.perm(n, k) for k in range(n + 1))


def _random_graph(b: Any, rng: random.Random) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...], int]:
    """The vertices, edges and groupoid arrow count of a random acyclic graph
    on 4-6 vertices whose groupoid has 20-40 arrows: within the table guard,
    above the bisection guard."""
    while True:
        vertices = tuple(f"v{i}" for i in range(rng.randint(4, 6)))
        edges = tuple(
            (vertices[i], vertices[j])
            for i in range(len(vertices)) for j in range(i + 1, len(vertices))
            if rng.random() < 0.4
        )
        arrows = len(b.acyclic_graph_groupoid(b.GraphSpec(vertices, edges)).arrows)
        if GRAPH_ARROWS[0] <= arrows <= GRAPH_ARROWS[1]:
            return vertices, edges, arrows


def _draw(rng: random.Random, make: Any, accept: Any) -> int:
    """The seed of the first draw ``make(seed)`` that ``accept`` keeps, so
    every corpus holds the same document sizes whatever the workload seed."""
    while True:
        seed = rng.randrange(2**31)
        if accept(make(seed)):
            return seed
