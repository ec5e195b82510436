"""Write ``golden/<workload>.json``: the sha256 of the report of every command
in a workload's job list at the default seed.

    python3 bench/golden.py [WORKLOAD ...]     # all workloads when none given

The benchmark compares each report against these digests when it runs with
``--seed 0`` and counts a mismatch as a failed command.  Regenerate them only
for a change that is meant to alter the job lists or the reports, and review
the report diff that comes with it.
"""
from __future__ import annotations

import json
import sys

import run


def main(names: list[str]) -> int:
    if not run.use_checkout_sources():
        return 2
    for name in names or run.workloads.WORKLOADS:
        with run.work_dir(name):
            _, _, jobs = run.set_up(name, run.DEFAULT_SEED)
            records, _ = run.run_jobs(jobs, count=len(jobs))
        failed = [r for r in records if r.failure is not None]
        if failed:
            print(f"{name}: {len(failed)} commands fail; no golden file written", file=sys.stderr)
            return 1
        digests = [r.digest for r in records]
        run.GOLDEN_DIR.mkdir(exist_ok=True)
        with open(run.GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump({"seed": run.DEFAULT_SEED, "sha256": digests}, handle, indent=1)
            handle.write("\n")
        print(f"{name}: {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
