"""viriallab benchmark launcher.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> [--trace 1]

Runs each workload in its own subprocess (perfbench/workloads.py) with the
BLAS/OpenMP thread pools pinned to one thread and the package imported from
this checkout's src/.  For one workload, the child's output is passed
through, ending with its result JSON line.  With `all`, every workload runs
in turn and a table of every metric by name, with its unit, is printed.
Exits non-zero, without a result line, when the child fails or the package
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, str]:
    env = dict(os.environ)
    # One thread per pool; a fixed hash seed so dict and set layouts, and
    # with them the allocation pattern, are the same in every run.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("VIRIALLAB_OUT", None)
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return res if isinstance(res, dict) and "metrics" in res else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="viriallab benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "viriallab" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'viriallab'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        code, out = run_child(name, args.seed, args.seconds, args.trace)
        res = result_of(out)
        if code != 0 or res is None:
            sys.stderr.write(out)
            print(f"error: workload {name} failed (exit {code})", file=sys.stderr)
            return 1
        results[name] = res
        if args.workload != "all":
            sys.stdout.write(out)
            return 0
        print("\n".join(out.strip().splitlines()[:-1]))

    print(f"\n{'workload':16s} {'metric':40s} {'value':>14s} unit")
    for name, res in results.items():
        print(f"{name:16s} {'correct / attempted / failed':40s} "
              f"{str(res['correct']):>5s} {res['attempted']:4d} {res['failed']:4d}")
        for metric, m in res["metrics"].items():
            print(f"{name:16s} {metric:40s} {m['value']:14.6g} {m['unit']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
