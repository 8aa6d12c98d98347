"""Workload definitions, per-run process isolation and correctness gates.

Every measured run is a fresh interpreter executing ``child.py``. The
parent times it from spawn to exit. The child reports its own peak
resident memory (``VmHWM``): the ``ru_maxrss`` that ``os.wait4`` returns
would not do, because Linux carries the larger of the pre-exec and
post-exec high-water marks across ``exec``, so a child's ``ru_maxrss`` is
at least the parent's own peak. An untraced run also returns its sections:
the times between the spawn, the child's clock readings
(``tracing.Clock``) and the exit. Parent and child read the same
monotonic clock.
"""

from __future__ import annotations

import array
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUTPUT_FILES = ("trajectory.csv", "events.csv", "summary.json")

# x0 is perturbed by at most this much per entry; see Workload.inputs.
PERTURBATION = 1e-13

# The program is single-threaded; BLAS is pinned to one thread (<= nproc).
CHILD_ENV_OVERRIDES = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": "",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "cli": aggopt.cli.main; "generic": library path
    scenario: tuple[str, ...]      # config-file lines besides step, tend, stride, x0, output
    flags: tuple[str, ...]         # extra CLI flags
    x0: tuple[float, ...]          # unperturbed initial decisions
    step: float
    t_end: float
    stride: int
    rel_error: tuple[float, float]  # accepted range of summary.relative_error
    event_ratio_below_one: bool = False

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.step)))

    @property
    def trajectory_rows(self) -> int:
        return self.n_steps // self.stride + 1

    def inputs(self, seed: int) -> tuple[float, ...]:
        """x0 with every entry moved by a uniform draw in +-PERTURBATION.

        The seed picks the draw, so one seed always gives the same inputs
        while different seeds give rounding-level different runs."""
        rng = random.Random(seed)
        return tuple(v + PERTURBATION * rng.uniform(-1.0, 1.0) for v in self.x0)


DER4_X0 = (5.0, 6.0, 3.0, 8.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="der4_event",
            kind="cli",
            scenario=("scenario = der4", "trigger = event"),
            flags=("--compare-periodic", "0.02"),
            x0=DER4_X0, step=0.001, t_end=2.5, stride=10,
            rel_error=(0.026, 0.028),
            event_ratio_below_one=True,
        ),
        Workload(
            name="der4_generic",
            kind="generic",
            scenario=("scenario = der4", "trigger = event"),
            flags=(),
            x0=DER4_X0, step=0.001, t_end=2.5, stride=10,
            rel_error=(0.026, 0.028),
        ),
    )
}


@dataclass
class RunResult:
    exit_code: int
    wall_s: float       # spawn to exit, measured by the parent
    report: dict | None  # what child.py wrote; None if it died first
    sections: array.array | None  # untraced runs: spawn to exit, cut at each clock reading

    @property
    def peak_rss_mb(self) -> float:
        return self.report["peak_rss_kb"] / 1024.0


def spawn(w: Workload, seed: int, run_dir: Path, out_dir: Path, *, traced: bool) -> RunResult:
    """Run one invocation of ``w`` in a fresh interpreter and wait for it.

    ``run_dir`` receives the scenario file, the child's log, its report and
    its clock readings; ``out_dir`` receives the program's output files
    only. The output path is part of summary.json, so runs that must write
    identical bytes share it."""
    run_dir.mkdir(parents=True, exist_ok=True)
    config = [
        *w.scenario,
        f"step = {w.step!r}",
        f"tend = {w.t_end!r}",
        f"stride = {w.stride}",
        "x0 = " + ", ".join(repr(v) for v in w.inputs(seed)),
        f"output = {out_dir.relative_to(ROOT)}",  # summary.json quotes it
    ]
    cfg_path = run_dir / "scenario.cfg"
    cfg_path.write_text("\n".join(config) + "\n")
    spec = {
        "kind": w.kind,
        "argv": ["run", "--scenario", f"file({cfg_path})", *w.flags],
        "config": str(cfg_path),
        "trace": traced,
        "report": str(run_dir / "report.json"),
        "marks": str(run_dir / "marks.bin"),
    }
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = {**os.environ, **CHILD_ENV_OVERRIDES}
    with open(run_dir / "child.log", "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
        )
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    try:
        report = json.loads(Path(spec["report"]).read_text())
    except (OSError, ValueError):
        report = None  # counted as a failed run
    sections = None
    if not traced:
        marks = array.array("d")
        try:
            marks.frombytes(Path(spec["marks"]).read_bytes())
        except (OSError, ValueError):
            pass  # no sections: counted as a failed run
        else:
            bounds = [start, *marks, end]
            sections = array.array("d", (b - a for a, b in zip(bounds, bounds[1:])))
    return RunResult(proc.returncode, end - start, report, sections)


def output_bytes(out_dir: Path) -> int:
    return sum((out_dir / name).stat().st_size for name in OUTPUT_FILES)


def output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for name in OUTPUT_FILES:
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


def content_gates(w: Workload, out_dir: Path) -> list[str]:
    """Correctness failures of one run's output files (empty when correct)."""
    import numpy as np

    failures = []
    summary = json.loads((out_dir / "summary.json").read_text())
    traj = np.loadtxt(out_dir / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    if not np.all(np.isfinite(traj)):
        failures.append("trajectory.csv holds a non-finite value")
    if traj.shape[0] != w.trajectory_rows:
        failures.append(f"trajectory.csv has {traj.shape[0]} rows, expected {w.trajectory_rows}")
    final = summary["final_decisions"]
    if traj[-1, 1 : 1 + len(final)].tolist() != final:
        failures.append("last trajectory row differs from final_decisions")
    with open(out_dir / "events.csv") as fh:
        next(fh)
        event_times = [float(line.split(",", 1)[1]) for line in fh]
    if len(event_times) != summary["events"]["total"]:
        failures.append(
            f"events.csv has {len(event_times)} rows, summary says {summary['events']['total']}"
        )
    if not all(math.isfinite(t) for t in event_times):
        failures.append("events.csv holds a non-finite time")
    rel = summary["relative_error"]
    lo, hi = w.rel_error
    if rel is None or not lo <= rel <= hi:
        failures.append(f"relative_error {rel} outside [{lo}, {hi}]")
    if w.event_ratio_below_one and not summary["comparison"]["ratio"] < 1.0:
        failures.append(f"event/periodic ratio {summary['comparison']['ratio']} is not below 1")
    return failures


def broadcasts(out_dir: Path) -> int:
    return int(json.loads((out_dir / "summary.json").read_text())["events"]["total"])
