import dataclasses

import numpy as np
import pytest

from aggopt import AggregativeProblem, LocalObjective, make_der_instance, ring, solve_kkt_quadratic

# Three agents with decisions of sizes 1, 2, 2 and a 2-vector aggregate
# s = (1/3) sum_i A_i x_i, each paying f_i = x_i'Q_i x_i / 2 + q_i'x_i + s'P A_i x_i.
VECTOR_A = (
    np.array([[1.0], [0.5]]),
    np.array([[1.0, 0.2], [0.0, 1.0]]),
    np.array([[0.5, 1.0], [1.0, -0.3]]),
)
VECTOR_Q = (
    np.array([[2.0]]),
    np.array([[1.5, 0.2], [0.2, 1.0]]),
    np.array([[1.2, -0.1], [-0.1, 0.8]]),
)
VECTOR_LIN = (np.array([-3.0]), np.array([-2.0, 1.0]), np.array([0.5, -4.0]))
VECTOR_P = np.array([[0.3, 0.05], [0.05, 0.2]])


def fd_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        out[k] = (f(x + step) - f(x - step)) / (2 * h)
    return out


def fd_jacobian(f, x, h=1e-5):
    """Central finite differences of a vector function, (out_dim, in_dim)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        cols.append((f(x + step) - f(x - step)) / (2 * h))
    return np.column_stack(cols)


def undeclared(problem):
    """The per-agent form of ``problem`` with every agent's ``quadratic``
    declaration withdrawn: a :class:`aggopt.problems.PerAgent` network,
    which calls the local objectives and advances one ``rk4_step`` per grid
    step."""
    agents = tuple(dataclasses.replace(obj, quadratic=False) for obj in problem.agents)
    return AggregativeProblem(agents=agents, m=problem.m)


def rel_err(value, reference):
    reference = np.asarray(reference, dtype=float)
    scale = max(1.0, float(np.linalg.norm(reference)))
    return float(np.linalg.norm(np.asarray(value) - reference)) / scale


@pytest.fixture(scope="session")
def der4():
    return make_der_instance()


@pytest.fixture(scope="session")
def ring4():
    return ring(4)


@pytest.fixture(scope="session")
def der4_x_star(der4):
    return solve_kkt_quadratic(der4)


def _vector_agent(a, q, lin):
    return LocalObjective(
        dim_x=a.shape[1],
        cost=lambda x, s: float(0.5 * x @ q @ x + lin @ x + s @ VECTOR_P @ a @ x),
        grad_x=lambda x, s: q @ x + lin + a.T @ VECTOR_P @ s,
        grad_sigma=lambda x, s: VECTOR_P @ a @ x,
        phi=lambda x: a @ x,
        jac_phi=lambda x: a,
        quadratic=True,
    )


@pytest.fixture(scope="session")
def vector3():
    """The vector-valued problem above (dim_x = 1, 2, 2 and m = 2), declared
    quadratic, so it runs on the engine's step map."""
    agents = tuple(map(_vector_agent, VECTOR_A, VECTOR_Q, VECTOR_LIN))
    return AggregativeProblem(agents=agents, m=2)


@pytest.fixture(scope="session")
def vector112():
    """A declared network of the same form with dim_x = 1, 1, 2 (m = 2), so
    two agents are padded: agent 1 replaces vector3's agent 1."""
    agents = (
        _vector_agent(VECTOR_A[0], VECTOR_Q[0], VECTOR_LIN[0]),
        _vector_agent(np.array([[0.4], [-1.0]]), np.array([[1.0]]), np.array([2.0])),
        _vector_agent(VECTOR_A[2], VECTOR_Q[2], VECTOR_LIN[2]),
    )
    return AggregativeProblem(agents=agents, m=2)
