"""Behaviour digests: sha256 of every report, labeling and table.

    python3 bench/digests.py            # compare with bench/reference_digests.json
    python3 bench/digests.py --write    # regenerate bench/reference_digests.json

Runs round 0 of every workload at seed 0, each in a fresh process, and
compares the sha256 of each operation's output with the reference.  For
information only: a refactor that keeps behaviour keeps every digest, and a
changed digest names the operation whose output moved.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import BENCH, OUT, WORKLOADS, run_round

REFERENCE = BENCH / "reference_digests.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the reference")
    args = parser.parse_args()

    out_dir = OUT / "digests"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    got = {}
    for workload in WORKLOADS:
        result = run_round(workload, 0, 0, 0, out_dir / workload)
        got[workload] = {op["name"]: op["sha256"] for op in result["ops"]}
    if args.write:
        REFERENCE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {REFERENCE}")
        return 0
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))
    moved = [
        f"{workload} {name}"
        for workload in sorted(set(want) | set(got))
        for name in sorted(set(want.get(workload, {})) | set(got.get(workload, {})))
        if want.get(workload, {}).get(name) != got.get(workload, {}).get(name)
    ]
    for line in moved:
        print(f"differs: {line}")
    print(f"{sum(map(len, got.values())) - len(moved)} digests equal, {len(moved)} differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
