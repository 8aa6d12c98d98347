"""Ground-truth solvers the distributed algorithm is validated against:
a closed-form stationarity solve for quadratic instances and a centralized
gradient flow that uses the exact aggregate at every step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrate import DivergenceError, ensure_finite, rk4_step
from .problems import AggregativeProblem, global_gradient

__all__ = [
    "CentralizedTrajectory",
    "solve_kkt_quadratic",
    "centralized_flow",
    "fit_decay_rate",
    "DivergenceError",
]

# stationarity residual above which an instance is not taken as quadratic
KKT_RESIDUAL_TOL = 1e-8
# gradient norm at which the centralized flow stops early
FLOW_GRAD_TOL = 1e-8
# errors at or below this are left out of the decay fit
DECAY_FIT_FLOOR = 1e-10


@dataclass(eq=False)
class CentralizedTrajectory:
    times: np.ndarray  # (K,)
    x: np.ndarray      # (K, n)

    @property
    def final(self) -> np.ndarray:
        return self.x[-1]


def solve_kkt_quadratic(problem: AggregativeProblem) -> np.ndarray:
    """Unique minimizer of a strictly convex quadratic instance.

    The minimizer solves H x = -grad(0) with H and grad(0) from the
    problem's one Hessian probe
    (:attr:`aggopt.problems.AggregativeProblem.gradient_probe`). Raises
    ValueError when the instance is not strictly convex or not quadratic
    (stationarity residual check).
    """
    hess, g0 = problem.gradient_probe
    try:
        np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        raise ValueError("instance is not strictly convex: Hessian is not positive definite")
    x_star = np.linalg.solve(hess, -g0)
    residual = float(np.linalg.norm(global_gradient(problem, x_star)))
    if residual > KKT_RESIDUAL_TOL:
        raise ValueError(
            f"stationarity residual {residual:.3e} exceeds {KKT_RESIDUAL_TOL:.1e}; "
            "cost does not look quadratic"
        )
    return x_star


def centralized_flow(
    problem: AggregativeProblem,
    x0: np.ndarray,
    h: float,
    t_end: float,
    stride: int = 1,
) -> CentralizedTrajectory:
    """Integrate x' = -grad f(x) with fixed 4th-order steps.

    ``h`` and ``t_end`` must be positive and finite, ``stride`` a positive
    integer and ``x0`` a finite decision vector, else ``ValueError``.
    Records every ``stride``-th step and the last one. Stops early once the
    gradient norm drops to ``FLOW_GRAD_TOL``. The aggregate
    entering every agent's gradient is recomputed exactly at each stage, so
    this is the coordinator baseline the distributed runs are compared to.
    """
    if not all(0 < v < np.inf for v in (h, t_end)):
        raise ValueError("h and t_end must be positive and finite")
    if not (isinstance(stride, (int, np.integer)) and stride >= 1):
        raise ValueError("stride must be a positive integer")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.dim,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({problem.dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")

    # the stopping test's gradient at x is the next step's first stage
    grad = global_gradient(problem, x)

    def rhs(t: float, state: np.ndarray) -> np.ndarray:
        return -(grad if state is x else global_gradient(problem, state))

    n_steps = max(1, int(round(t_end / h)))
    times = [0.0]
    states = [x.copy()]
    for k in range(n_steps):
        t = k * h
        x = rk4_step(rhs, t, x, h)
        ensure_finite(x[None], (t + h,), h, "x_{}".format)
        if (k + 1) % stride == 0:
            times.append((k + 1) * h)
            states.append(x.copy())
        grad = global_gradient(problem, x)
        if np.linalg.norm(grad) <= FLOW_GRAD_TOL:
            break
    if (k + 1) % stride != 0:
        times.append((k + 1) * h)
        states.append(x.copy())
    return CentralizedTrajectory(times=np.array(times), x=np.array(states))


def fit_decay_rate(times: np.ndarray, errors: np.ndarray) -> float:
    """Least-squares decay rate of an error series.

    Fits log(e) against t over the points with e > ``DECAY_FIT_FLOOR``
    (non-positive entries are dropped) and returns the negated slope, so a
    decaying series yields a positive rate. Needs at least 10 usable
    points, at more than one time.
    """
    times = np.asarray(times, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if times.shape != errors.shape:
        raise ValueError("times and errors must have matching shapes")
    mask = np.isfinite(errors) & (errors > DECAY_FIT_FLOOR)
    if int(mask.sum()) < 10:
        raise ValueError("fewer than 10 usable points above the error floor")
    # closed-form least-squares slope over centered times
    t, log_e = times[mask] - times[mask].mean(), np.log(errors[mask])
    if not t @ t > 0.0:
        raise ValueError("the usable points all lie at one time")
    return float(-(t @ (log_e - log_e.mean())) / (t @ t))
