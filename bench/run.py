"""Benchmark entry point: one workload, measured from outside the program.

    python3 bench/run.py --workload classify_tables --seed 1 --seconds 60 --trace 0

Runs rounds of the workload one after another, each round in a fresh
process (bench/worker.py), while another round, as long as the last one,
still ends within --seconds; at least one round always runs.  Every round
does the same operations on inputs drawn from (--seed, round), so a run is
a whole number of like rounds.  Prints one line per round with its digest
and, as the last line, one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics (means per round) with --trace 1.  The
end-to-end times are in reference seconds, wall seconds scaled by the
host's speed as each round sampled it (bench/hostspeed.py); the same
metrics over wall seconds go to the result file beside them.  With
--trace 1 every traced round follows an untraced round on the same inputs,
and the run also prints the tracing overhead: the timed seconds the traced
rounds took over the untraced ones.  Results and traces are written under
.bench_out/<workload>/.  Exits non-zero without a result when the checkout
holds no src/lcltrees or a round process fails.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("classify_tables", "solve_pipeline")
ROUND_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def worker_env() -> dict:
    """Fixed hash seed, one numpy thread, the checkout's own sources."""
    env = dict(os.environ)
    env.pop("LCLTREES_BUDGET", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def run_round(workload: str, seed: int, rnd: int, trace: int, out_dir: Path) -> dict:
    """One round in a fresh process; raises if the process fails."""
    out = out_dir / f"round{rnd}.json"
    workdir = out_dir / f"round{rnd}"
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--round", str(rnd),
        "--trace", str(trace), "--workdir", str(workdir), "--out", str(out),
    ]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        argv + ["--spawned-at", repr(spawned_at)],
        env=worker_env(), cwd=ROOT, timeout=ROUND_TIMEOUT_S,
    )
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"round {rnd} of {workload} exited with {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def op_wall_seconds(result: dict) -> float:
    return sum(op["wall_s"] for op in result["ops"])


def end_to_end(rounds: list[dict], clock: str) -> dict:
    """The end-to-end metrics, over reference seconds ("s") or wall seconds ("wall_s")."""
    ops = [op for r in rounds for op in r["ops"]]
    setup = "setup_s" if clock == "s" else "setup_wall_s"
    values = {
        "setup_s": statistics.median(r[setup] for r in rounds),
        "ops_per_s": len(ops) / sum(op[clock] for op in ops),
        "op_p50_s": statistics.median(op[clock] for op in ops),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def summarize(rounds: list[dict], trace: int) -> dict:
    ops = [op for r in rounds for op in r["ops"]]
    failed = sum(not op["ok"] for op in ops)
    if trace:
        names = rounds[0]["layers"]
        metrics = {
            name: {
                "value": statistics.fmean(r["layers"][name] for r in rounds),
                "unit": "s" if name.endswith("_s") else "count",
            }
            for name in names
        }
    else:
        metrics = end_to_end(rounds, "s")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lcltrees" / "__init__.py").is_file():
        print(f"error: no lcltrees sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    start = time.monotonic()
    rounds: list[dict] = []
    untraced: list[dict] = []
    last = 0.0
    while not rounds or time.monotonic() - start + last <= args.seconds:
        t = time.monotonic()
        try:
            if args.trace:
                untraced.append(run_round(args.workload, args.seed, len(rounds), 0,
                                          out_dir / "untraced"))
            result = run_round(args.workload, args.seed, len(rounds), args.trace, out_dir)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        last = time.monotonic() - t
        rounds.append(result)
        failed = sum(not op["ok"] for op in result["ops"])
        print(
            f"round {result['round']}: {len(result['ops'])} ops, {failed} failed, "
            f"set-up {result['setup_s']:.3f} s, host factor {result['host_factor']:.3f} "
            f"({result['host_samples']} samples), sha256 {result['sha256']}"
        )
        for fault in result["faults"]:
            print(f"  fault: {fault}")

    summary = summarize(rounds, args.trace)
    record = {"args": vars(args), "summary": summary, "rounds": rounds}
    if not args.trace:
        record["wall_metrics"] = end_to_end(rounds, "wall_s")
    else:
        traced_s = statistics.fmean(map(op_wall_seconds, rounds))
        untraced_s = statistics.fmean(map(op_wall_seconds, untraced))
        calls = statistics.fmean(r["wrapped_calls"] for r in rounds)
        record["overhead"] = {"traced_s": traced_s, "untraced_s": untraced_s,
                              "wrapped_calls": calls}
        print(f"tracing overhead: {traced_s - untraced_s:.3f} s per round "
              f"({traced_s:.3f} s traced, {untraced_s:.3f} s untraced timed ops; "
              f"{calls:.0f} wrapped calls)")
    (out_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
