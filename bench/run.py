"""Seeded end-to-end benchmark of the ``ample`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src/``.  The benchmark writes its workload's
corpus (see ``workloads.py``), then runs the workload's job list through
``ample.cli.run_command`` in this one process and thread, each command
right after the previous one (a closed loop with one client), for ``S``
seconds.  Meanwhile it times the fixed task of ``calibrate.py`` every 50 ms
and scales every time it reports to that task's nominal speed, so that the
shared machine's changes of speed cancel out.  It checks every report,
prints one metric per line, and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the loop runs a fixed number of commands, set by the workload and ``S``
alone, with the layer spans of ``spans.py`` installed, and the metrics are
per layer; the same commands are then replayed untraced to measure the
tracing overhead.  A results file with the environment goes to
``.bench_out/`` at the checkout root, with the spans of a traced run.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
DEFAULT_SEED = 0  # the seed whose report digests are stored in golden/
CORPUS = "corpus"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
GOLDEN_DIR = BENCH_DIR / "golden"
P90_MIN_PASSES = 100  # ten samples above the 90th percentile

END_TO_END_UNITS = {"setup_s": "s", "certs_per_s": "1/s", "cmd_s.p50": "s", "peak_rss_mb": "MB"}

# Stages reported with calls and self time, with self time only, with calls only.
CALLS_AND_SELF = (
    "rings.matmul", "rings.echelon", "rings.inverse",
    "groupoid.validate", "groupoid.hom_set", "groupoid.arrows_with_src", "groupoid.bisections",
    "algebra.table",
    "gmodule.hom_basis", "gmodule.validate", "gmodule.validate_hom",
    "gsheaf.validate", "gsheaf.hom_basis",
    "morita.round_trip", "morita.quasi_inverse", "morita.anchors", "morita.essential_equivalence",
    "documents.load",
)
SELF_ONLY = (
    "equivalence.sheafify", "equivalence.gamma_c", "equivalence.eta", "equivalence.epsilon",
    "equivalence.naturality",
    "builders.random_module", "builders.random_sheaf", "builders.random_invertible",
    "documents.dump", "cli.run_command",
)
CALLS_ONLY = ("algebra.convolve",)
COUNTS = {
    "rings.matmul.mults": "count",
    "rings.echelon.cells": "count",
    "rings.echelon.max_cells": "count",
    "rings.q.max_coeff_bits": "bits",
    "gmodule.hom_basis.system_cells": "count",
    "documents.load.bytes": "bytes",
}
SIZE_GROUPS = tuple(f"n{n}" for n in workloads.MORITA_HOM_SIZES)


@dataclass(frozen=True)
class Record:
    index: int            # position in the run; the job is jobs[index % len(jobs)]
    seconds: float        # wall time
    scale: float          # Gauge.scale over the command; 1 when no gauge ran
    digest: str           # sha256 of the report
    failure: str | None   # why the report is wrong; None when it passed

    @property
    def nominal(self) -> float:
        """The command's time at the calibration task's nominal speed."""
        return self.seconds * self.scale


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        return 2

    with work_dir(args.workload):
        setup_s, raw_setup_s, jobs = set_up(args.workload, args.seed)
        golden = load_golden(args.workload, len(jobs)) if args.seed == DEFAULT_SEED else None
        cycle = workloads.cycle_length(args.workload, jobs)
        if args.trace:
            count = workloads.traced_commands(args.workload, jobs, args.seconds)
            records, metrics, tracer = traced_run(jobs, count, golden)
        else:
            records, metrics = timed_run(jobs, args.seconds, cycle, golden, setup_s)
            tracer = None
            raw = {"setup_s": raw_setup_s, **raw_timings(jobs, records, cycle)}

    failures = [r for r in records if r.failure is not None]
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(str(OUT_DIR / f"{args.workload}.spans.jsonl"))
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({
            "environment": environment(args, jobs, records),
            "unscaled": {} if args.trace else raw,
            "failures": [{"index": r.index, "argv": list(jobs[r.index % len(jobs)].argv),
                          "reason": r.failure} for r in failures[:20]],
            **result,
        }, handle, indent=2)
        handle.write("\n")

    for r in failures[:5]:
        print(f"FAILED {' '.join(jobs[r.index % len(jobs)].argv)}: {r.failure}")
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  "
          f"commands: {len(records)} of a {len(jobs)}-command job list")
    print(f"fail_frac: {len(failures) / len(records):.4f}")
    means = pass_means(records, cycle)
    if not args.trace and len(means) >= P90_MIN_PASSES:
        print(f"cmd_s.p90: {statistics.quantiles(means, n=10)[-1]:.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    if not args.trace:
        print("unscaled wall times: " + "  ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    print(json.dumps(result))
    return 0


# -- set-up ----------------------------------------------------------------------


def use_checkout_sources() -> bool:
    """Put the checkout's ``src/`` first on the import path; False when absent."""
    src = ROOT / "src"
    if not (src / "ample" / "cli.py").is_file():
        print(f"bench: no ample sources at {src}; run inside a checkout of the repository",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True


@contextlib.contextmanager
def work_dir(workload: str) -> Iterator[None]:
    """Run inside a fresh directory under the checkout, removed afterwards."""
    work = WORK_DIR / f"{workload}-{os.getpid()}"
    here = os.getcwd()
    work.mkdir(parents=True, exist_ok=True)
    try:
        os.chdir(work)
        yield
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)


def set_up(workload: str, seed: int) -> tuple[float, float, list[workloads.Job]]:
    """Import ``ample``, write and parse the corpus; repeated.  Returns the
    median set-up time scaled to the calibration task's nominal speed, the
    median unscaled time, and the jobs.

    A first, untimed set-up makes the seed's random choices, rejection
    sampling included; the timed ones replay them (see ``workloads.Choices``).
    Each set-up drops the ``ample`` modules first so it imports them again;
    the last one's modules and corpus are the ones run.  A
    ``calibrate.Gauge`` runs throughout.
    """
    choices = workloads.Choices(workload, seed)
    setups = []  # (start, end, seconds) of each set-up
    with calibrate.Gauge() as gauge:
        for _ in range(1 + SETUP_REPEATS):
            shutil.rmtree(CORPUS, ignore_errors=True)
            for name in [m for m in sys.modules if m == "ample" or m.startswith("ample.")]:
                del sys.modules[name]
            busy, t0 = gauge.busy, time.perf_counter()
            importlib.import_module("ample.cli")
            jobs = workloads.prepare(workload, choices, CORPUS)
            t1 = time.perf_counter()
            setups.append((t0, t1, t1 - t0 - (gauge.busy - busy)))
            choices.rewind()
    timed = setups[1:]
    return (statistics.median(s * gauge.scale(t0, t1) for t0, t1, s in timed),
            statistics.median(s for _, _, s in timed), jobs)


def load_golden(workload: str, jobs: int) -> list[str]:
    with open(GOLDEN_DIR / f"{workload}.json", encoding="utf-8") as handle:
        golden = json.load(handle)
    if golden["seed"] != DEFAULT_SEED or len(golden["sha256"]) != jobs:
        raise SystemExit(f"bench: golden/{workload}.json does not match the job list; "
                         "regenerate it with bench/golden.py")
    return golden["sha256"]


# -- running -----------------------------------------------------------------------


def run_jobs(jobs: list[workloads.Job], seconds: float | None = None, count: int | None = None,
             tracer: spans.Tracer | None = None, cycle: int = 1,
             golden: list[str] | None = None, gauged: bool = False) -> tuple[list[Record], float]:
    """Run jobs back to back from the top of the list, for ``count`` commands
    or for ``seconds`` rounded up to whole cycles of ``cycle`` commands.

    Each report is checked as soon as its command returns, so no report is
    kept; the checks are left out of the elapsed time returned with the
    records.  With ``gauged``, a ``calibrate.Gauge`` runs throughout: its
    time is left out of each command's time and of the elapsed time, and
    gives each record its scale.  Traced runs are not gauged, since their
    spans would take in the samples.
    """
    cli = sys.modules["ample.cli"]
    clock = tracer.clock if tracer is not None else time.perf_counter
    gauge = calibrate.Gauge() if gauged else None
    done: list[tuple[int, float, str, str | None, float, float]] = []  # Record fields, start, end
    aside = 0.0
    start = clock()

    def more() -> bool:
        if count is not None:
            return len(done) < count
        return clock() - start - aside < seconds or len(done) % cycle != 0

    with gauge or contextlib.nullcontext():
        while more():
            index = len(done)
            job = jobs[index % len(jobs)]
            if tracer is not None:
                tracer.start_command(index, job.group)
            busy = gauge.busy if gauge else 0.0
            t0 = clock()
            try:
                code, text = cli.run_command(list(job.argv))
            except Exception as exc:  # a crashing command is a failed command
                code, text = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            sampling = gauge.busy - busy if gauge else 0.0
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            expected = golden[index % len(golden)] if golden is not None else None
            failure = check(job, code, text, digest, expected)
            done.append((index, t1 - t0 - sampling, digest, failure, t0, t1))
            aside += clock() - t1 + sampling
    records = [Record(index, seconds, gauge.scale(t0, t1) if gauge else 1.0, digest, failure)
               for index, seconds, digest, failure, t0, t1 in done]
    return records, clock() - start - aside


def timed_run(jobs: list[workloads.Job], seconds: float, cycle: int, golden: list[str] | None,
              setup_s: float) -> tuple[list[Record], dict[str, tuple[float, str]]]:
    records, _ = run_jobs(jobs, seconds, cycle=cycle, golden=golden, gauged=True)
    values = {
        "setup_s": setup_s,
        "certs_per_s": passed_certs(jobs, records) / sum(r.nominal for r in records),
        "cmd_s.p50": statistics.median(pass_means(records, cycle)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return records, {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def passed_certs(jobs: list[workloads.Job], records: list[Record]) -> int:
    return sum(jobs[r.index % len(jobs)].certs for r in records if r.failure is None)


def pass_means(records: list[Record], cycle: int, nominal: bool = True) -> list[float]:
    """The mean command time of each whole pass of ``cycle`` commands, scaled
    to nominal speed unless ``nominal`` is false.

    A pass holds one command of each kind in the workload's mix, so a
    statistic over passes weighs every kind, not only the middle one.
    """
    times = [r.nominal if nominal else r.seconds for r in records]
    return [statistics.fmean(times[i:i + cycle]) for i in range(0, len(times) - cycle + 1, cycle)]


def raw_timings(jobs: list[workloads.Job], records: list[Record], cycle: int) -> dict[str, float]:
    """The timed metrics without the scaling, and the calibration time, for the record."""
    return {
        "certs_per_s": passed_certs(jobs, records) / sum(r.seconds for r in records),
        "cmd_s.p50": statistics.median(pass_means(records, cycle, nominal=False)),
        "calibration_s.p50": calibrate.NOMINAL_S / statistics.median(r.scale for r in records),
    }


def traced_run(jobs: list[workloads.Job], count: int, golden: list[str] | None
               ) -> tuple[list[Record], dict[str, tuple[float, str]], spans.Tracer]:
    tracer = spans.Tracer()
    with tracer:
        traced, traced_wall = run_jobs(jobs, count=count, tracer=tracer, golden=golden)
    replay, untraced_wall = run_jobs(jobs, count=len(traced), golden=golden)
    overhead = traced_wall + tracer.paused - untraced_wall
    return traced + replay, layer_metrics(tracer, jobs, overhead), tracer


def layer_metrics(tracer: spans.Tracer, jobs: list[workloads.Job],
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    self_of = tracer.self_times()
    calls: dict[str, int] = dict.fromkeys(spans.STAGES, 0)
    self_s: dict[str, float] = dict.fromkeys(spans.STAGES, 0.0)
    by_size: dict[str, float] = {}
    echelon_in_hom_basis = 0.0
    for span_id, name, t0, t1, _, command in tracer.spans():
        calls[name] += 1
        self_s[name] += self_of[span_id]
        if name == "rings.echelon" and tracer.within(span_id, "gmodule.hom_basis"):
            echelon_in_hom_basis += self_of[span_id]
        group = jobs[command % len(jobs)].group
        if group and name == "gmodule.hom_basis":
            for key, value in ((f"self_s.{group}", self_of[span_id]), (f"total_s.{group}", t1 - t0)):
                by_size[key] = by_size.get(key, 0.0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in CALLS_ONLY:
        out[f"{name}.calls"] = (calls[name], "count")
    for name, unit in COUNTS.items():
        out[name] = (tracer.counter(name), unit)
    out["rings.echelon.pivot_ratio"] = (
        ratio(tracer.counter("rings.echelon.pivots"), tracer.counter("rings.echelon.rows")), "ratio")
    out["rings.echelon.self_s.in_hom_basis"] = (echelon_in_hom_basis, "s")
    certificates = sum(calls[f"equivalence.{c}"] for c in ("eta", "epsilon", "naturality"))
    out["equivalence.sheafify.per_cert"] = (ratio(calls["equivalence.sheafify"], certificates), "ratio")
    out["morita.essential_equivalence.per_round_trip"] = (
        ratio(calls["morita.essential_equivalence"], calls["morita.round_trip"]), "ratio")
    commands = [jobs[i % len(jobs)].group for i in range(max(tracer.command, default=-1) + 1)]
    for group in SIZE_GROUPS:
        runs = commands.count(group)
        out[f"gmodule.hom_basis.self_s.{group}"] = (ratio(by_size.get(f"self_s.{group}", 0.0), runs), "s")
        out[f"gmodule.hom_basis.total_s.{group}"] = (ratio(by_size.get(f"total_s.{group}", 0.0), runs), "s")
        out[f"rings.echelon.max_cells.{group}"] = (tracer.counter(f"rings.echelon.max_cells.{group}"), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


# -- checking ----------------------------------------------------------------------


def check(job: workloads.Job, code: int | None, text: str, digest: str,
          expected: str | None) -> str | None:
    """Why a command's report is wrong, or None when it is right.

    ``expected`` is the golden digest of the report, when there is one.
    """
    if code != 0:
        return f"exit code {code}: {text[:200]}"
    if expected is not None and digest != expected:
        return "report differs from the golden digest"
    try:
        if job.json_out:
            return _check_json(job, json.loads(text))
        return _check_text(job, text.splitlines())
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        return f"malformed report ({type(exc).__name__}: {exc}): {text[:200]}"


def _check_text(job: workloads.Job, lines: list[str]) -> str | None:
    if not lines:
        return "empty report"
    if job.command in ("equivalence", "morita"):
        ok = lines[-1].startswith("RESULT: PASS")
    elif job.command == "validate":
        ok = ": PASS (" in lines[0]
    elif job.command == "table":
        ok = len(lines) == job.expect
    else:  # bisections
        count = int(lines[0].removeprefix("bisections: "))
        ok = count == len(lines) - 1 and job.expect in (-1, count)
    return None if ok else f"unexpected report: {lines[0][:120]} ... {lines[-1][:120]}"


def _check_json(job: workloads.Job, payload: dict[str, Any]) -> str | None:
    if job.command in ("equivalence", "morita", "validate"):
        ok = payload.get("result") == "pass"
    elif job.command == "table":
        arrows = len(payload["arrows"])
        ok = arrows + 1 == job.expect and len(payload["cells"]) == arrows * arrows
    else:  # bisections
        count = payload["count"]
        ok = count == len(payload["bisections"]) and job.expect in (-1, count)
    return None if ok else f"unexpected JSON report: {json.dumps(payload)[:200]}"


# -- environment -------------------------------------------------------------------


def environment(args: argparse.Namespace, jobs: list[workloads.Job],
                records: list[Record]) -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "job_list_commands": len(jobs),
        "commands_run": len(records),
    }


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
