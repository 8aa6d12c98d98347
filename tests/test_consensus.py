import numpy as np
import pytest
from conftest import fd_gradient, undeclared
from scipy.linalg import expm

from aggopt import (
    DerParameters,
    build_equilibrium,
    consensus_error,
    equilibrium_residual,
    estimator_derivative,
    from_der_parameters,
    initial_estimator_state,
    laplacian,
    make_dispatch_instance,
    path,
    random_connected_graph,
    sigma,
    solve_kkt_quadratic,
    theta_stack,
    with_frozen_decisions,
)
from aggopt.integrate import rk4_step
from aggopt.problems import AggregativeProblem, LocalObjective, PerAgent


def agent_theta(obj, x_i, eta_i1):
    """Theta_i of one agent, phi_i(x_i) over grad_sigma f_i(x_i, eta_i1),
    through a one-agent PerAgent network."""
    return PerAgent((obj,), eta_i1.size).theta(x_i, eta_i1[None])[0]


def test_theta_der_agent(der4):
    value = agent_theta(der4.agents[0], np.array([10.0]), np.array([77.0]))
    assert np.allclose(value, [10.0, 4.0])


def test_theta_zero_decision(der4):
    assert np.allclose(agent_theta(der4.agents[0], np.zeros(1), np.zeros(1)), [0.0, 0.0])


def test_theta_sigma_dependent_objective():
    # cost quadratic in the aggregate: the sensitivity block must follow eta_i1
    def cost(x, s):
        return float(x[0] ** 2 + 3.0 * s[0] ** 2 * x[0])

    obj = LocalObjective(
        dim_x=1,
        cost=cost,
        grad_x=lambda x, s: np.array([2.0 * x[0] + 3.0 * s[0] ** 2]),
        grad_sigma=lambda x, s: np.array([6.0 * s[0] * x[0]]),
        phi=lambda x: x.copy(),
        jac_phi=lambda x: np.ones((1, 1)),
    )
    x_i = np.array([2.0])
    for eta_i1 in (np.array([0.5]), np.array([-1.5])):
        value = agent_theta(obj, x_i, eta_i1)
        fd = fd_gradient(lambda s: obj.cost(x_i, s), eta_i1)
        assert value[0] == x_i[0]
        assert value[1] == pytest.approx(fd[0], rel=1e-6)
        assert value[1] != agent_theta(obj, x_i, np.zeros(1))[1]


def test_theta_stack_matches_per_agent(der4):
    rng = np.random.default_rng(2)
    x = rng.uniform(-5, 5, 4)
    eta1 = rng.uniform(-5, 5, (4, 1))
    stacked = theta_stack(der4, x, eta1)
    for i, obj in enumerate(der4.agents):
        assert np.allclose(stacked[i], agent_theta(obj, x[i : i + 1], eta1[i]), atol=1e-12)


def test_initial_estimator_state_convention(der4):
    x0 = np.array([5.0, 6.0, 3.0, 8.0])
    eta, w = initial_estimator_state(der4, x0)
    assert np.allclose(eta, theta_stack(der4, x0, np.zeros((4, 1))))
    assert np.array_equal(w, np.zeros((4, 2)))


def test_estimator_derivative_isolated_agent_at_rest():
    lap = np.zeros((1, 1))
    theta_val = np.array([[3.0, -2.0]])
    eta = theta_val.copy()
    w = np.array([[0.4, 0.1]])
    coupling = lap @ np.stack([eta, w])
    eta_dot, w_dot = estimator_derivative(eta, theta_val, coupling, 0.1)
    assert np.allclose(eta_dot, 0.0) and np.allclose(w_dot, 0.0)


def test_estimator_derivative_consensus_equilibrium(ring4, der4):
    lap = laplacian(ring4)
    value = np.array([1.5, -0.3])
    eta = np.tile(value, (4, 1))
    w = np.zeros((4, 2))
    thetas = np.tile(value, (4, 1))
    coupling = lap @ np.stack([eta, w])
    eta_dot, w_dot = estimator_derivative(eta, thetas, coupling, 0.1)
    assert np.allclose(eta_dot, 0.0) and np.allclose(w_dot, 0.0)


def test_estimator_derivative_requires_positive_delta(ring4):
    lap = laplacian(ring4)
    z = np.zeros((4, 2))
    coupling = lap @ np.stack([z, z])
    for delta in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            estimator_derivative(z, z, coupling, delta)


def test_two_node_linear_system_matches_matrix_exponential():
    # exact broadcasts (hats = states) and a frozen input signal make the
    # estimator a linear time-invariant system solvable in closed form
    params = DerParameters(
        a=(1.0, 0.5), b=(12.0, 10.0), d=(5.0, 8.0), price_intercept=200.0, price_slope=0.2
    )
    frozen = with_frozen_decisions(from_der_parameters(params))
    g = path(2)
    lap = laplacian(g)
    delta = 0.1
    x0 = np.array([5.0, 6.0])
    state = initial_estimator_state(frozen, x0)
    thetas = theta_stack(frozen, x0, state[0, :, :1])

    def rhs(z):
        block = z.reshape(state.shape)
        return estimator_derivative(block[0], thetas, lap @ block, delta).ravel()

    lap2 = np.kron(lap, np.eye(2))
    drift = np.block([[-np.eye(4) - lap2, -lap2], [lap2, np.zeros((4, 4))]]) / delta
    forcing = np.concatenate([thetas.ravel(), np.zeros(4)]) / delta
    aug = np.zeros((9, 9))
    aug[:8, :8] = drift
    aug[:8, 8] = forcing
    z0_aug = np.concatenate([state.ravel(), [1.0]])

    z = state.ravel()
    h = 2.5e-4
    worst = 0.0
    for k in range(4000):
        z = rk4_step(rhs, z, h)
        if (k + 1) % 400 == 0:
            reference = (expm(aug * ((k + 1) * h)) @ z0_aug)[:8]
            worst = max(worst, float(np.abs(z - reference).max()))
    assert worst <= 1e-8


def test_equilibrium_residual_from_oracle(der4, ring4, der4_x_star):
    eta_star, w_star = build_equilibrium(der4, ring4, der4_x_star)
    assert equilibrium_residual(der4, ring4, der4_x_star, eta_star, w_star) <= 1e-8


def test_equilibrium_residual_dispatch_instance():
    problem = make_dispatch_instance(5, 2)
    g = random_connected_graph(5, 2)
    x_star = solve_kkt_quadratic(problem)
    eta_star, w_star = build_equilibrium(problem, g, x_star)
    assert equilibrium_residual(problem, g, x_star, eta_star, w_star) <= 1e-8


def test_equilibrium_residual_detects_perturbation(der4, ring4, der4_x_star):
    eta_star, w_star = build_equilibrium(der4, ring4, der4_x_star)
    x_off = der4_x_star.copy()
    x_off[0] += 1.0
    assert equilibrium_residual(der4, ring4, x_off, eta_star, w_star) > 1e-3


def test_equilibrium_residual_single_agent():
    from aggopt import Graph

    problem = from_der_parameters(
        DerParameters(a=(1.0,), b=(0.0,), d=(0.0,), price_intercept=200.0, price_slope=0.1)
    )
    g = Graph(1, frozenset())
    x_star = solve_kkt_quadratic(problem)
    s = sigma(problem, x_star)
    thetas = theta_stack(problem, x_star, s.reshape(1, 1))
    # zero at (x*, Theta(x*), 0)
    assert equilibrium_residual(problem, g, x_star, thetas.copy(), np.zeros((1, 2))) <= 1e-10
    # with one agent the Laplacian vanishes and the residual reduces to
    # max(stationarity at the estimate, |Theta - eta|)
    eta_off = thetas + np.array([[0.25, 0.0]])
    obj = problem.agents[0]
    stationarity = abs(obj.grad_x(x_star, eta_off[0, :1])[0] + eta_off[0, 1])
    expected = max(stationarity, float(np.linalg.norm(thetas[0] - eta_off[0])))
    got = equilibrium_residual(problem, g, x_star, eta_off, np.zeros((1, 2)))
    assert got == pytest.approx(expected, rel=1e-9)


# each function's decision argument and a call with valid other arguments
DECISION_CHECKS = {
    "initial_estimator_state": ("x0", lambda problem, g, x: initial_estimator_state(problem, x)),
    "equilibrium_residual": (
        "x", lambda problem, g, x: equilibrium_residual(problem, g, x, *np.zeros((2, 4, 2))),
    ),
    "consensus_error": (
        "x_samples",
        lambda problem, g, x: consensus_error(problem, np.stack([x, x]), np.zeros((2, 4, 2))),
    ),
}


@pytest.mark.parametrize("declared", [True, False], ids=["declared", "undeclared"])
@pytest.mark.parametrize("x", [[5.0, 6.0, 3.0], [5.0, 6.0, 3.0, 4.0, 2.0]], ids=["short", "long"])
@pytest.mark.parametrize("function", list(DECISION_CHECKS))
def test_decision_arrays_must_match_the_problem(function, x, declared, der4, ring4):
    # a short x left an agent without decisions and a long one was cut, both
    # silently; undeclared agents raised their callable's IndexError
    name, call = DECISION_CHECKS[function]
    problem = der4 if declared else undeclared(der4)
    with pytest.raises(ValueError, match=rf"^{name} has shape"):
        call(problem, ring4, np.array(x))


def test_equilibrium_residual_estimator_shapes(der4, ring4, der4_x_star):
    block = np.zeros((4, 2))
    for eta, w, name in ((block[:3], block, "eta"), (block, block[:, :1], "w")):
        with pytest.raises(ValueError, match=rf"^{name} has shape"):
            equilibrium_residual(der4, ring4, der4_x_star, eta, w)
