"""Plot-ready file outputs. All values are written with shortest
round-trip float formatting, so identical runs produce identical bytes."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .engine import SimResult
from .problems import AggregativeProblem

__all__ = ["trajectory_header", "write_trajectory_csv", "write_events_csv", "write_summary"]


def _fmt(value: float) -> str:
    return repr(float(value))


def trajectory_header(problem: AggregativeProblem) -> list[str]:
    cols = ["t"]
    cols += [f"x_{k + 1}" for k in range(problem.dim)]
    for block, name in ((0, "eta1"), (1, "eta2")):
        for i in range(problem.n_agents):
            if problem.m == 1:
                cols.append(f"{name}_{i + 1}")
            else:
                cols += [f"{name}_{i + 1}_{c + 1}" for c in range(problem.m)]
    cols.append("consensus_error")
    cols.append("decision_error")
    return cols


def write_trajectory_csv(path: Path, problem: AggregativeProblem, result: SimResult) -> None:
    """One row per recorded sample; the decision_error column is empty when
    the run has no reference optimum."""
    m, n_samples = problem.m, result.times.size
    dec_err = result.metrics.decision_error
    columns = [
        result.times,
        result.x,
        result.eta[:, :, :m].reshape(n_samples, -1),
        result.eta[:, :, m:].reshape(n_samples, -1),
        result.metrics.consensus_error,
    ]
    if dec_err is not None:
        columns.append(dec_err)
    tail = "\n" if dec_err is not None else ",\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(trajectory_header(problem)) + "\n")
        for row in np.column_stack(columns):
            fh.write(",".join(map(repr, row.tolist())) + tail)


def write_events_csv(path: Path, result: SimResult) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("agent_id,time\n")
        for agent, times in enumerate(result.events.times):
            for t in times:
                fh.write(f"{agent},{_fmt(t)}\n")


def _jsonable(value):
    """``value`` in JSON's types: arrays as lists, numpy scalars as numbers
    and non-finite floats as None."""
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.ravel().tolist())
    if isinstance(value, (float, np.floating)):
        return float(value) if np.isfinite(value) else None
    if isinstance(value, np.integer):
        return int(value)
    return value


def write_summary(path: Path, summary: dict) -> None:
    """Strict JSON: non-finite numbers are written as null."""
    with open(path, "w", newline="") as fh:
        json.dump(_jsonable(summary), fh, indent=2, allow_nan=False)
        fh.write("\n")
