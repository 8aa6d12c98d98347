import numpy as np
import pytest

from aggopt import (
    Event,
    SimConfig,
    make_der_instance,
    path,
    ring,
    run,
    solve_kkt_quadratic,
    with_frozen_decisions,
)
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


@pytest.mark.parametrize("case", ["der4", "frozen_decisions", "vector"])
def test_trajectory_csv_matches_per_value_formatting(tmp_path, case, vector3):
    problem, graph, x0 = make_der_instance(), ring(4), np.array([5.0, 6.0, 3.0, 8.0])
    schemes = (Event(10.0, 0.01), Event(8.0, 0.1), Event(8.0, 0.15), Event(10.0, 0.05))
    if case == "frozen_decisions":
        problem = with_frozen_decisions(problem)
    elif case == "vector":
        problem, graph, x0, schemes = vector3, path(3), np.zeros(5), schemes[:3]
    cfg = SimConfig(
        problem=problem, graph=graph, delta=0.1, h=0.001, t_end=0.5, x0=x0,
        schemes=schemes, output_stride=7,
    )
    x_star = None if case == "frozen_decisions" else solve_kkt_quadratic(problem)
    result = run(cfg, x_star=x_star)
    assert (result.metrics.decision_error is None) == (x_star is None)
    csv = tmp_path / "trajectory.csv"
    write_trajectory_csv(csv, problem, result)
    assert csv.read_bytes() == reference_trajectory_csv(problem, result).encode()
