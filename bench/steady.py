"""Steadiness of the end-to-end metrics across seeds.

    python3 bench/steady.py --seconds 60

Runs bench/run.py --trace 0 once per seed 1..10 for every workload, one run
after another, each round of a run in its own fresh process.  Prints each run's
attempted and failed operations and its end-to-end metrics as it ends, then
for every metric the median, the first and third quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median and the failed
share; then the same over wall seconds, which shows how much of the host's
drift the speed sampling takes out.  The bounds in BENCHMARK.json are set
from these spreads.  The raw runs go to .bench_out/steady.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, OUT, ROOT, WORKLOADS

SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: float) -> dict:
    """The run's result line, with its wall-clock metrics added as "wall_metrics"."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / workload / "result.json").read_text(encoding="utf-8"))
    result["wall_metrics"] = record["wall_metrics"]
    return result


def table(raw: dict, key: str) -> None:
    print("\n| workload | metric | median | Q1 | Q3 | spread | failed share |")
    print("|---|---|---|---|---|---|---|")
    for workload, results in raw.items():
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        for metric in results[0][key]:
            values = [r[key][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(
                f"| {workload} | {metric} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                f"| {(q3 - q1) / med:.3f} | {', '.join(f'{s:g}' for s in shares)} |"
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60)
    args = parser.parse_args()

    raw = {}
    for workload in WORKLOADS:
        raw[workload] = []
        for seed in SEEDS:
            result = one_run(workload, seed, args.seconds)
            raw[workload].append(result)
            figures = ", ".join(
                f"{name} {m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items()
            )
            print(f"{workload} seed {seed}: {result['attempted']} attempted, "
                  f"{result['failed']} failed; {figures}", flush=True)
    table(raw, "metrics")
    print("\nThe same runs over wall seconds:")
    table(raw, "wall_metrics")
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
