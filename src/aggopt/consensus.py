"""Proportional-integral dynamic average consensus estimator.

Each agent runs a 2m-dimensional estimate eta_i = (eta_i1, eta_i2) of the
pair (network aggregate, network-average aggregate-sensitivity), driven by
its local signal Theta_i = (phi_i(x_i), grad_sigma f_i(x_i, eta_i1)) and by
neighbor coupling through *last-broadcast* values. w_i is the integral
state that removes steady-state consensus error.

The network's estimator is one (2, N, 2m) block whose planes are eta and
w, row i belonging to agent i. Its broadcasts, their neighbor coupling and
its time derivative have the same layout, so ``eta, w = block`` unpacks
any of them.

The sensitivity block of Theta_i is evaluated at the agent's own aggregate
estimate eta_i1, since the true aggregate is not locally available. For the
dispatch family the sensitivity does not depend on the aggregate, so the
choice is invisible there.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, laplacian
from .integrate import finite_vector
from .problems import AggregativeProblem, sigma

__all__ = [
    "theta_stack",
    "initial_estimator_state",
    "estimator_derivative",
    "equilibrium_residual",
    "build_equilibrium",
]


def theta_stack(problem: AggregativeProblem, x: np.ndarray, eta1: np.ndarray) -> np.ndarray:
    """All agents' estimator inputs as an (N, 2m) array; samples stacked on
    a leading axis of ``x`` and ``eta1`` give a (K, N, 2m) array."""
    return problem.network.theta(x, eta1)


def initial_estimator_state(problem: AggregativeProblem, x0: np.ndarray) -> np.ndarray:
    """Deterministic initialization as the (2, N, 2m) block (eta, w):
    eta_i = Theta_i(x_i(0), 0), w = 0.

    Every agent broadcasts this state at t = 0, so all measurement errors
    start at zero.
    """
    x0 = finite_vector("x0", x0, problem.dim)
    state = np.zeros((2, problem.n_agents, 2 * problem.m))
    state[0] = theta_stack(problem, x0, np.zeros((problem.n_agents, problem.m)))
    return state


def estimator_derivative(
    eta: np.ndarray,
    thetas: np.ndarray,
    coupling: np.ndarray,
    delta: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Time derivative of the PI estimator, as a (2, N, 2m) block
    (eta_dot, w_dot):

    delta * eta_dot_i = -eta_i - sum_j in N_i (hat_eta_i - hat_eta_j)
                        - sum_j in N_i (hat_w_i - hat_w_j) + Theta_i
    delta * w_dot_i   =  sum_j in N_i (hat_eta_i - hat_eta_j)

    The neighbor sums use broadcast values only, never true states;
    ``coupling`` is their block ``lap @ hats`` for the (2, N, 2m)
    broadcast block ``hats``: row i of each plane is
    sum_j in N_i (hat_i - hat_j), fixed until some agent broadcasts again.
    The block is written into ``out`` when given.
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    if out is None:
        out = np.empty(coupling.shape)
    eta_dot = np.negative(eta, out=out[0])
    eta_dot -= coupling[0]
    eta_dot -= coupling[1]
    eta_dot += thetas
    eta_dot /= delta
    np.divide(coupling[0], delta, out=out[1])
    return out


def equilibrium_residual(
    problem: AggregativeProblem,
    g: Graph,
    x: np.ndarray,
    eta: np.ndarray,
    w: np.ndarray,
) -> float:
    """How far (x, eta, w) is from a closed-loop equilibrium.

    Max Euclidean norm over three stacked residuals, with broadcast errors
    taken as zero (they vanish at any equilibrium):

      (a) stationarity driven by the estimates:
          grad_x f_i(x_i, eta_i1) + jac_phi_i(x_i)^T eta_i2 for each i,
      (b), (c) the estimator's derivative (:func:`estimator_derivative`)
          with the states as broadcasts and delta = 1: the balance
          -eta - L eta - L w + Theta(x, eta1) and the consensus L eta.
    """
    m = problem.m
    x = finite_vector("x", x, problem.dim)
    shape = (problem.n_agents, 2 * m)
    for name, v in (("eta", eta), ("w", w)):
        if np.shape(v) != shape:
            raise ValueError(f"{name} has shape {np.shape(v)}, expected {shape}")
    eta1 = eta[:, :m]
    res_x = problem.network.drive(x, eta1, eta[:, m:])
    thetas = theta_stack(problem, x, eta1)
    res_eta, res_w = estimator_derivative(eta, thetas, laplacian(g) @ np.stack([eta, w]), 1.0)
    return float(max(np.linalg.norm(res_x), np.linalg.norm(res_eta), np.linalg.norm(res_w)))


def build_equilibrium(problem: AggregativeProblem, g: Graph, x_star: np.ndarray) -> np.ndarray:
    """Estimator equilibrium matching a decision optimum, as the (2, N, 2m)
    block (eta, w).

    Every eta_i is the network mean of the Theta_j evaluated at x_star with
    the converged aggregate; w solves L w = Theta - eta, which is consistent
    because the right side sums to zero over agents, and is underdetermined
    along the consensus direction, so the minimum-norm solution is returned.
    """
    x_star = np.asarray(x_star, dtype=float)
    s = sigma(problem, x_star)
    eta1 = np.tile(s, (problem.n_agents, 1))
    thetas = theta_stack(problem, x_star, eta1)
    eta_star = np.tile(thetas.mean(axis=0), (problem.n_agents, 1))
    lap = laplacian(g)
    rhs = thetas - eta_star
    w_star = np.linalg.lstsq(lap, rhs, rcond=None)[0]
    return np.stack([eta_star, w_star])
