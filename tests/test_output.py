import numpy as np
import pytest

from aggopt import Event, SimConfig, make_der_instance, ring, run, with_frozen_decisions
from aggopt.output import trajectory_header, write_trajectory_csv


def reference_trajectory_csv(problem, result):
    """The trajectory file written value by value, one row per sample."""
    m = problem.m
    dec_err = result.metrics.decision_error
    lines = [",".join(trajectory_header(problem))]
    for k in range(result.times.size):
        row = [repr(float(result.times[k]))]
        row += [repr(float(v)) for v in result.x[k]]
        row += [repr(float(v)) for v in result.eta[k][:, :m].ravel()]
        row += [repr(float(v)) for v in result.eta[k][:, m:].ravel()]
        row.append(repr(float(result.metrics.consensus_error[k])))
        row.append(repr(float(dec_err[k])) if dec_err is not None else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("frozen", [False, True], ids=["der4", "frozen_decisions"])
def test_trajectory_csv_matches_per_value_formatting(tmp_path, frozen):
    problem = make_der_instance()
    if frozen:
        problem = with_frozen_decisions(problem)
    cfg = SimConfig(
        problem=problem, graph=ring(4), delta=0.1, h=0.001, t_end=0.5,
        x0=np.array([5.0, 6.0, 3.0, 8.0]),
        schemes=(Event(10.0, 0.01), Event(8.0, 0.1), Event(8.0, 0.15), Event(10.0, 0.05)),
        output_stride=7,
    )
    result = run(cfg)
    assert (result.metrics.decision_error is None) == frozen
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, problem, result)
    assert path.read_bytes() == reference_trajectory_csv(problem, result).encode()
