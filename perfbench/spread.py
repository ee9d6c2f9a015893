"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload blowup_free --seeds 1-10 [--seconds 26]

Runs run.py once per seed and prints, for each end-to-end metric of
BENCHMARK.json, the median of the runs and the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
next to the metric's bound.  Appends every run's result to
perfbench/out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="run-to-run spread of the end-to-end metrics")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args(argv)

    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, **res}) + "\n")
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    print(f"\n{args.workload}, {len(args.seeds)} runs of {args.seconds:g} s")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med
        print(f"  {m['name']:16s} median {med:12.6g} {m['unit']:8s} IQR/median {share:7.4f}"
              f"  bound {m['bound']:.2f}  {'ok' if share < m['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
