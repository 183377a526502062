"""Run the benchmark on several seeds and report each metric's median and quartiles.

    python3 dkbench/spread.py --seeds 1-10
    python3 dkbench/spread.py --seeds 1,1 --trace 1

Runs ``run.py`` once per (workload, seed) for every workload and the run
length in ``BENCHMARK.json``, one after another, from the root of the
checkout, and prints per metric the median, the first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median.
The README's reference figures come from this command.  The raw result lines
go to ``.dkbench_out/spread-<workload>-trace<0|1>-seeds<seeds>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def summarize(results: list) -> dict:
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        table[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "unit": results[0]["metrics"][name]["unit"],
        }
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out_dir = ROOT / ".dkbench_out"
    out_dir.mkdir(exist_ok=True)
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        results = []
        log = out_dir / f"spread-{workload}-trace{args.trace}-seeds{args.seeds}.jsonl"
        with open(log, "w") as fh:
            for seed in parse_seeds(args.seeds):
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
                     "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=900,
                )
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                result["seed"] = seed
                result["wall_s"] = time.perf_counter() - start
                fh.write(json.dumps(result) + "\n")
                fh.flush()
                results.append(result)
        share = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed share {sorted(share)}, "
              f"wall per run {statistics.mean(r['wall_s'] for r in results):.1f} s")
        for name, row in summarize(results).items():
            print(f"  {name:55s} median {row['median']:.6g} {row['unit']}  "
                  f"Q1 {row['q1']:.6g}  Q3 {row['q3']:.6g}  spread {row['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
