"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests

They check that inputs are a function of the seed, that tracing leaves the
program as it found it, that span self times account for the traced wall
time, and that the printed metrics are the ones ``BENCHMARK.json`` declares.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

assert run.use_checkout_sources()

# Span self times must cover the traced wall time of a run to within this
# share; the remainder is the loop's own bookkeeping between commands.
SELF_TIME_TOLERANCE = 0.02


def _files(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _prepare(name: str, seed: int | workloads.Choices, directory: Path,
             monkeypatch: pytest.MonkeyPatch) -> list[workloads.Job]:
    directory.mkdir()
    monkeypatch.chdir(directory)
    choices = seed if isinstance(seed, workloads.Choices) else workloads.Choices(name, seed)
    return workloads.prepare(name, choices, "corpus")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_corpus_and_argv(name, tmp_path, monkeypatch):
    first = _prepare(name, 7, tmp_path / "a", monkeypatch)
    second = _prepare(name, 7, tmp_path / "b", monkeypatch)
    other = _prepare(name, 8, tmp_path / "c", monkeypatch)
    assert _files(tmp_path / "a" / "corpus") == _files(tmp_path / "b" / "corpus")
    assert [j.argv for j in first] == [j.argv for j in second]
    assert [j.argv for j in first] != [j.argv for j in other]


def test_replayed_choices_are_not_drawn_again():
    choices = workloads.Choices("equiv-q", 1)
    first = choices(lambda rng: rng.random())
    choices.rewind()
    assert choices(lambda rng: pytest.fail("a replay must not draw")) == first


@pytest.mark.parametrize("name", ["morita-hom-fp", "validate-fp"])  # the two that redraw
def test_replayed_choices_give_identical_corpus_and_argv(name, tmp_path, monkeypatch):
    choices = workloads.Choices(name, 7)
    first = _prepare(name, choices, tmp_path / "a", monkeypatch)
    choices.rewind()
    replayed = _prepare(name, choices, tmp_path / "b", monkeypatch)
    assert _files(tmp_path / "a" / "corpus") == _files(tmp_path / "b" / "corpus")
    assert replayed == first


def test_equiv_q_commands_draw_the_target_ranks(tmp_path, monkeypatch):
    jobs = _prepare("equiv-q", 5, tmp_path / "w", monkeypatch)
    text_jobs = [j for j in jobs if not j.json_out][:len(workloads.EQUIV_GROUPOIDS)]
    for job in text_jobs:
        code, text = sys.modules["ample.cli"].run_command(list(job.argv))
        assert code == 0, text
        eta, epsilon, naturality = (line.split(" : ")[0] for line in text.splitlines()[3:6])
        stalks = epsilon.rsplit("stalks=", 1)[1]
        source, target = naturality.rsplit(" ", 1)[1].split("->")
        drawn = (int(eta.split("rank=")[1].split()[0]), sum(int(r) for r in stalks.split(",")),
                 int(source), int(target))
        name = Path(job.argv[2]).stem
        assert drawn == workloads.EQUIV_RANKS[name], (name, text)


def test_morita_hom_fp_commands_draw_the_target_ranks(tmp_path, monkeypatch):
    jobs = _prepare("morita-hom-fp", 5, tmp_path / "w", monkeypatch)
    for job in [j for j in jobs if not j.json_out and j.group in ("n2", "n3")][:2]:
        code, text = sys.modules["ample.cli"].run_command(list(job.argv))
        assert code == 0, text
        rows = [line.split("\t") for line in text.splitlines() if "->" in line and "\t" in line]
        n = int(job.group[1:])
        assert sorted(int(r[2]) for r in rows if r[1] == "left->right") == [0, n, 2 * n], text
        assert sorted(int(r[2]) for r in rows if r[1] == "right->left") == [0, 1, 2], text


def test_traced_command_count_depends_only_on_workload_and_seconds():
    jobs = [workloads.Job(("validate", "x"), certs=1)] * 10
    assert workloads.traced_commands("validate-fp", jobs, 20) == 7 * 10
    assert workloads.traced_commands("morita-hom-fp", jobs, 20) == 3 * 3
    assert workloads.traced_commands("morita-hom-fp", jobs, 0.5) == 3


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every ``ample`` module and of the patched classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "ample" or name.startswith("ample."):
            out.update({(name, attr): value for attr, value in vars(module).items()})
    for cls in (sys.modules["ample.rings"].Matrix, sys.modules["ample.groupoid"].FiniteGroupoid):
        out.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return out


def test_traced_run_restores_every_wrapped_function(tmp_path, monkeypatch):
    jobs = _prepare("morita-rt-fp", 1, tmp_path / "w", monkeypatch)
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        during = _bindings()
        run.run_jobs(jobs, count=2, tracer=tracer)
    after = _bindings()
    replaced = [key for key, value in before.items() if during[key] is not value]
    assert ("ample.cli", "run_command") in replaced
    assert ("ample.morita", "epsilon") in replaced  # a binding copied by ``from .equivalence import``
    assert ("Matrix", "__matmul__") in replaced
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_span_self_times_sum_to_traced_wall_time(tmp_path, monkeypatch):
    jobs = _prepare("morita-rt-fp", 2, tmp_path / "w", monkeypatch)
    tracer = spans.Tracer()
    with tracer:
        records, elapsed = run.run_jobs(jobs, count=6, tracer=tracer)
    assert all(r.failure is None for r in records)
    roots = [s for s in tracer.spans() if s[4] == -1]
    assert [s[1] for s in roots] == ["cli.run_command"] * 6
    assert sum(tracer.self_times()) == pytest.approx(elapsed, rel=SELF_TIME_TOLERANCE)
    assert elapsed >= sum(r.seconds for r in records)
    assert min(tracer.self_times()) >= 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_golden_digests_match_the_first_commands(name, tmp_path, monkeypatch):
    jobs = _prepare(name, run.DEFAULT_SEED, tmp_path / "w", monkeypatch)
    golden = run.load_golden(name, len(jobs))
    records, _ = run.run_jobs(jobs, count=3, golden=golden)
    assert [r.failure for r in records] == [None] * 3


def test_digest_mismatch_is_a_failure():
    job = workloads.Job(("validate", "corpus/point.json"), certs=1)
    text = "groupoid: PASS (1 arrows, 1 objects)"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert run.check(job, 0, text, digest, digest) is None
    assert run.check(job, 0, text, digest, None) is None
    assert run.check(job, 0, text, digest, "0" * 64) == "report differs from the golden digest"
    assert run.check(job, 1, text, digest, None).startswith("exit code 1")
    bisections = workloads.Job(("bisections", "corpus/point.json"), certs=1)
    assert run.check(bisections, 0, "no count here", digest, None).startswith("malformed report")


def test_gauge_scale_averages_the_samples_around_a_span():
    gauge = run.calibrate.Gauge()
    gauge.ends, gauge.times = [1.0, 2.0, 3.0, 4.0], [0.002, 0.004, 0.006, 0.008]
    nominal = run.calibrate.NOMINAL_S
    assert gauge.scale(2.5, 3.5) == pytest.approx(nominal / 0.006)  # 2.0, 3.0 and 4.0
    assert gauge.scale(1.5, 1.6) == pytest.approx(nominal / 0.003)  # 1.0 and 2.0
    assert gauge.scale(4.5, 5.0) == pytest.approx(nominal / 0.008)  # 4.0 alone


def test_gauge_samples_inside_a_long_computation_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with run.calibrate.Gauge() as gauge:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
    assert len(gauge.times) >= 5
    assert 0 < gauge.busy < 0.5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_gauged_records_leave_out_the_sampling_time(tmp_path, monkeypatch):
    jobs = _prepare("morita-rt-fp", 1, tmp_path / "w", monkeypatch)
    records, elapsed = run.run_jobs(jobs, count=4, gauged=True)
    assert all(r.failure is None and r.scale > 0 for r in records)
    assert sum(r.seconds for r in records) <= elapsed
    plain, _ = run.run_jobs(jobs, count=1)
    assert plain[0].scale == 1.0


def test_calibration_task_is_fixed():
    assert run.calibrate.task() == run.calibrate.task() > 0
    assert 0 < run.calibrate.measure() < 1


def test_pass_means_average_each_whole_pass():
    records = [run.Record(i, float(i + 1), 0.5, "", None) for i in range(6)]
    assert run.pass_means(records, 3) == [1.0, 2.5]
    assert run.pass_means(records, 4) == [1.25]
    assert run.pass_means(records, 3, nominal=False) == [2.0, 5.0]


def _declared() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_emitted_metrics_match_benchmark_json(name, trace):
    done = _bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {metric: value["unit"] for metric, value in result["metrics"].items()}
    assert emitted == _declared()[trace]
    assert all(isinstance(value["value"], (int, float)) for value in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "equiv-q", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
