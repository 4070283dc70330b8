"""Run the benchmark over several seeds and summarize each metric.

For every workload this runs ``run.py`` once per seed, one process at a
time, and prints each metric's median, quartiles and quartile spread as a
share of the median, next to the bound ``BENCHMARK.json`` gives it.  With
``--json`` the summary is also written to a file.  From the repository
root:

    python3 perfbench/sweep.py --seeds 1-10 --seconds 30
    python3 perfbench/sweep.py --workloads retry-loops --seeds 1-5 --trace 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in declared["workloads"])
    )
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    metrics = declared["per_layer" if args.trace else "end_to_end"]
    seeds = parse_seeds(args.seeds)
    summary = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}",
                flush=True,
            )
        rows = {}
        for metric in metrics:
            name = metric["name"]
            rows[name] = summarize([r["metrics"][name]["value"] for r in results])
            row = rows[name]
            bound = metric.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if row["spread"] < bound / 3 else (
                    "under bound" if row["spread"] < bound else "OVER BOUND"
                )
            print(
                f"  {name:<44} median {row['median']:<12.6g} "
                f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                f"spread {row['spread']:.4f} {verdict}"
            )
        summary[workload] = {
            "seeds": seeds,
            "all_correct": all(r["correct"] for r in results),
            "metrics": rows,
        }
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
