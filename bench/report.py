"""Run every workload once and print each end-to-end metric by name with its unit.

    python3 bench/report.py [--seed N] [--seconds S]

Each workload runs in its own ``bench/run.py`` process, one after another.
The exit code is 0 only when every workload ran and every report passed its
checks.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    run_py = Path(__file__).resolve().parent / "run.py"
    ok = True
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(run_py), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}\n{done.stderr}")
            ok = False
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{name}: {result['attempted']} commands, {result['failed']} failed, "
              f"fail_frac {result['failed'] / result['attempted']:.4f}")
        for metric, value in result["metrics"].items():
            print(f"  {metric}: {value['value']:.6g} {value['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
