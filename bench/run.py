"""aggopt benchmark: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the named workload (or ``all``, interleaved) in fresh interpreters for
about S seconds, checks every run's outputs, prints each metric by name and
unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics of untraced runs: ``run_s``, one
invocation's wall time with every section at its fastest over the
invocation's runs (``fastest_sections``), ``setup_s``, the same up to the
first integration step, ``peak_rss_mb``, the median over the runs, and
``output_mb`` and ``broadcasts``. --trace 1 alternates untraced and traced
runs and reports the per-layer metrics of the median traced run (see
tracing.py and README.md).

Each round times a fixed host-speed probe (``host.probe_s``, never used to
rescale anything), then runs every workload once, in reversed order on odd
rounds, alternating the order of untraced and traced runs too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter

from harness import SRC, WORK, WORKLOADS, broadcasts, content_gates, output_bytes, \
    output_digest, spawn
from tracing import PER_LAYER_UNITS

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "broadcasts": "count",
}
PER_LAYER = {**PER_LAYER_UNITS, "trace.overhead_s": "s", "host.probe_s": "s"}
MIN_RUNS = 2


def host_probe() -> float:
    """Fixed pure-Python work; its time tracks the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def host_record(blas_threads) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


class WorkloadRuns:
    """All runs of one workload in this invocation, with their gate verdicts."""

    def __init__(self, workload, work_dir):
        self.w = workload
        self.work_dir = work_dir / workload.name
        self.main = []        # successful untraced main runs
        self.traced = []      # successful traced runs
        self.attempted = 0
        self.failures = []    # (run label, reason)
        self.reference = None  # output files of the first main run, kept
        self.reference_digest = None
        self.reference_verdict = []

    def run(self, seed: int, kind: str) -> None:
        label = f"{self.w.name}/{kind}{self.attempted}"
        run_dir = self.work_dir / f"{kind}{self.attempted}"
        out_dir = self.work_dir / "out"
        run = spawn(self.w, seed, run_dir, out_dir, traced=kind == "traced")
        self.attempted += 1
        reasons = []
        if run.exit_code != 0:
            last = (run_dir / "child.log").read_text().strip().splitlines()[-1:] or [""]
            reasons.append(f"exit code {run.exit_code}: {last[0]}")
        elif run.report is None:
            reasons.append("no report written")
        elif kind == "main" and (run.sections is None
                                 or len(run.sections) != run.report["readings"] + 1):
            reasons.append("clock readings missing or incomplete")
        elif kind == "main" and min(run.sections) < 0:
            reasons.append("clock readings out of order")
        elif kind == "main" and run.report["first_step"] is None:
            reasons.append("no integration step marked")
        else:
            try:
                reasons += self.check_outputs(out_dir, run, kind)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                reasons.append(f"unreadable output or report: {exc!r}")
        if reasons:
            self.failures += [(label, r) for r in reasons]
        else:
            (self.traced if kind == "traced" else self.main).append(run)
        shutil.rmtree(out_dir, ignore_errors=True)
        shutil.rmtree(run_dir, ignore_errors=True)

    def check_outputs(self, out_dir, run, kind: str) -> list[str]:
        """Gate failures of one run that wrote outputs (empty when correct)."""
        digest = output_digest(out_dir)
        reasons = []
        if self.reference is None:
            verdict = content_gates(self.w, out_dir)
            self.reference = out_dir.rename(self.work_dir / "reference")
            self.reference_digest = digest
            self.reference_verdict = verdict
        elif digest != self.reference_digest:
            reasons.append("output files differ from the first run with the same seed")
        reasons += self.reference_verdict
        if kind == "traced":
            # The child's clock starts after interpreter start-up, so its wall
            # time must be below the parent's; a negative remainder means the
            # spans counted some time twice.
            layers = run.report["layers"]["values"]
            if layers["trace.wall_s"] > run.wall_s:
                reasons.append(f"traced wall time {layers['trace.wall_s']:.6f} s exceeds "
                               f"the {run.wall_s:.6f} s measured by the parent")
            if layers["trace.other_s"] < 0:
                reasons.append(f"trace.other_s is negative: {layers['trace.other_s']:.6f} s")
        return reasons

    @property
    def failed_runs(self) -> int:
        return len({label for label, _ in self.failures})


def measure(workloads, seed: int, seconds: float, trace: bool, work_dir):
    runs = {w.name: WorkloadRuns(w, work_dir) for w in workloads}
    probes = []
    kinds = ("main", "traced") if trace else ("main",)
    # The determinism gate needs two runs of each workload.
    min_rounds = -(-MIN_RUNS // len(kinds))
    deadline = time.perf_counter() + seconds
    last_round = 0.0
    n_round = 0
    while n_round < min_rounds or time.perf_counter() + last_round <= deadline:
        round_start = time.perf_counter()
        probes.append(host_probe())
        flip = n_round % 2 == 1
        for w in (reversed(workloads) if flip else workloads):
            for kind in (reversed(kinds) if flip else kinds):
                runs[w.name].run(seed, kind)
        last_round = time.perf_counter() - round_start
        n_round += 1
    return runs, probes


def fastest_sections(runs) -> tuple[list[float], int, int]:
    """Each section's fastest time over the runs, the runs used and the index
    of the last set-up section.

    The runs of one workload do the same work in the same order, so the
    child's clock readings cut every run into the same sections: spawn,
    each import, each set-up or output call, each integration step, exit.
    Other tenants of the host only ever add time. They slow the core in
    stretches of milliseconds to seconds whose share drifts over minutes, so
    a whole run's time follows the drift, while a section's minimum over the
    runs does not, as long as the host ran fast during that section in some
    run. Runs whose sections differ in number or in where the first step
    falls from the most common layout are left out."""
    layout = Counter((len(run.sections), run.report["first_step"]) for run in runs)
    (count, first_step), _ = layout.most_common(1)[0]
    rows = [run.sections for run in runs
            if (len(run.sections), run.report["first_step"]) == (count, first_step)]
    # Section i ends at reading i, and reading first_step starts the first step.
    return list(map(min, zip(*rows))), len(rows), first_step


def end_to_end(r: WorkloadRuns) -> dict:
    """The metrics the successful runs give; none if no main run succeeded."""
    if not r.main:
        return {}
    fastest, used, last_setup = fastest_sections(r.main)
    print(f"  {len(fastest)} sections, {last_setup + 1} of them set-up, fastest of {used} "
          f"runs; median whole run {statistics.median(run.wall_s for run in r.main):.4f} s")
    return {
        "run_s": sum(fastest),
        "setup_s": sum(fastest[: last_setup + 1]),
        "peak_rss_mb": statistics.median(run.peak_rss_mb for run in r.main),
        "output_mb": output_bytes(r.reference) / 1e6,
        "broadcasts": broadcasts(r.reference),
    }


def per_layer(r: WorkloadRuns, probe_s: float) -> tuple[dict, float]:
    if not (r.main and r.traced):
        return {"host.probe_s": probe_s}, None
    by_wall = sorted(r.traced, key=lambda run: run.wall_s)
    median_run = by_wall[(len(by_wall) - 1) // 2]
    layers = median_run.report["layers"]
    values = dict(layers["values"])
    values["trace.overhead_s"] = (statistics.median(run.wall_s for run in r.traced)
                                  - statistics.median(run.wall_s for run in r.main))
    values["host.probe_s"] = probe_s
    return values, layers["cli_self_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aggopt" / "__init__.py").is_file():
        print(f"error: no aggopt sources under {SRC}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    work_dir = WORK / "run"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        runs, probes = measure(workloads, args.seed, args.seconds, bool(args.trace), work_dir)
        probe_s = statistics.median(probes)
        prefix = (lambda w: f"{w}.") if args.workload == "all" else (lambda w: "")
        metrics = {}
        measured_all = True
        blas_threads = set()
        for name, r in runs.items():
            for run in r.main + r.traced:
                blas_threads.add(run.report["blas_threads"])
            print(f"{name}: {r.attempted} runs ({len(r.main)} main, {len(r.traced)} traced), "
                  f"{r.failed_runs} failed, fail_ratio {r.failed_runs / r.attempted:g}")
            for label, reason in r.failures:
                print(f"  FAIL {label}: {reason}")
            print(f"  whole-run wall times: {[round(x.wall_s, 4) for x in r.main]}")
            if not (r.main and (r.traced or not args.trace)):
                measured_all = False
                print(f"error: {name}: every run of some kind failed; its metrics are missing",
                      file=sys.stderr)
            if args.trace:
                print(f"  traced wall times: {[round(x.wall_s, 4) for x in r.traced]}")
                values, cli_self = per_layer(r, probe_s)
                units = PER_LAYER
                if cli_self is not None:
                    print(f"  (cli self time, inside trace.other_s: {cli_self:.6f} s)")
            else:
                values, units = end_to_end(r), END_TO_END_UNITS
            for metric, unit in units.items():
                if metric not in values:
                    continue
                value = values[metric]
                shown = "absent" if value is None else f"{value:.6g}"
                print(f"  {metric:36s} {shown:>14s} {unit}")
                entry = {"value": value, "unit": unit}
                if value is None:
                    entry["absent"] = True
                metrics[prefix(name) + metric] = entry
        print(f"host.probe_s {probe_s:.6g} s (median of {len(probes)} rounds; not used to rescale)")
        print("host " + json.dumps(host_record(sorted(blas_threads, key=str))))
        attempted = sum(r.attempted for r in runs.values())
        failed = sum(r.failed_runs for r in runs.values())
        correct = failed == 0 and measured_all
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
