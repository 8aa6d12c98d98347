"""Perturbation spread: python3 bench/spread.py

Runs each workload once per seed in SEEDS. Each seed moves every x0 entry
by at most 1e-13 (see harness.Workload.inputs), so the spread of
``broadcasts`` and ``output_mb`` across the five copies is the
rounding-level chaos of the event count, not a change in the program. The
result is written to bench/perturbation_spread.json; later changes compare
a count difference against this spread before calling it real.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys

from harness import BENCH_DIR, PERTURBATION, WORK, WORKLOADS, content_gates, output_bytes, \
    spawn

SEEDS = (1, 2, 3, 4, 5)


def spread(values: list[float]) -> dict:
    lo, hi, mid = min(values), max(values), statistics.median(values)
    return {"values": values, "min": lo, "max": hi, "range_over_median": (hi - lo) / mid}


def main() -> int:
    work_dir = WORK / "spread"
    record = {"perturbation": PERTURBATION, "seeds": list(SEEDS), "workloads": {}}
    try:
        for w in WORKLOADS.values():
            counts, sizes, errors = [], [], []
            for seed in record["seeds"]:
                out_dir = work_dir / w.name / "out"
                run = spawn(w, seed, work_dir / w.name / f"run{seed}", out_dir, traced=False)
                failures = content_gates(w, out_dir) if run.exit_code == 0 else ["exit code"]
                if failures:
                    print(f"{w.name} seed {seed}: {failures}", file=sys.stderr)
                    return 1
                summary = json.loads((out_dir / "summary.json").read_text())
                counts.append(summary["events"]["total"])
                sizes.append(output_bytes(out_dir) / 1e6)
                errors.append(summary["relative_error"])
                shutil.rmtree(work_dir / w.name)
            record["workloads"][w.name] = {
                "broadcasts": spread(counts),
                "output_mb": spread(sizes),
                "relative_error": spread(errors),
            }
            print(w.name, json.dumps(record["workloads"][w.name]))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    (BENCH_DIR / "perturbation_spread.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
