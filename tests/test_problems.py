import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import fd_gradient, fd_jacobian, rel_err, undeclared

from aggopt import (
    AggregativeProblem,
    DerParameters,
    LocalObjective,
    from_der_parameters,
    global_cost,
    global_gradient,
    make_der_instance,
    make_dispatch_instance,
    quadratic_hessian,
    sigma,
    solve_kkt_quadratic,
    with_frozen_decisions,
)
from aggopt.engine import closed_loop_rhs
from aggopt.problems import PerAgent, Quadratic, theta


def single_unit(a=1.0, b=0.0, d=0.0):
    return from_der_parameters(
        DerParameters(a=(a,), b=(b,), d=(d,), price_intercept=200.0, price_slope=0.1)
    )


def test_sigma_der4_initial_point(der4):
    assert sigma(der4, np.array([5.0, 6.0, 3.0, 8.0]))[0] == pytest.approx(5.5)


def test_sigma_identity_single_agent():
    p = single_unit()
    assert sigma(p, np.array([3.7]))[0] == pytest.approx(3.7)


def test_sigma_zero(der4):
    assert sigma(der4, np.zeros(4))[0] == 0.0


def test_sigma_dimension_mismatch(der4):
    with pytest.raises(ValueError):
        sigma(der4, np.zeros(3))


def test_global_cost_at_zero_is_fixed_costs(der4):
    assert global_cost(der4, np.zeros(4)) == pytest.approx(28.0)


def test_global_cost_single_unit_hand_value():
    # independent scalar evaluation: x=1, price 200 - 0.1*1,
    # f = 1*1 + 0 + 0 - (200 - 0.1)*1
    p = single_unit()
    expected = 1.0 + 0.0 + 0.0 - (200.0 - 0.1 * 1.0) * 1.0
    assert expected == pytest.approx(-198.9)
    assert global_cost(p, np.array([1.0])) == pytest.approx(expected, abs=1e-12)


def test_global_cost_minimal_at_oracle(der4, der4_x_star):
    best = global_cost(der4, der4_x_star)
    rng = np.random.default_rng(0)
    for _ in range(100):
        perturbed = der4_x_star + rng.normal(scale=5.0, size=4)
        assert global_cost(der4, perturbed) >= best


def test_global_gradient_zero_at_oracle(der4, der4_x_star):
    assert np.linalg.norm(global_gradient(der4, der4_x_star)) <= 1e-8


@pytest.mark.parametrize(
    "problem", [make_der_instance(), make_dispatch_instance(5, 3)], ids=["der4", "dispatch5"]
)
def test_global_gradient_matches_finite_differences(problem):
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = rng.uniform(-50, 50, problem.dim)
        fd = fd_gradient(lambda v: global_cost(problem, v), x)
        assert rel_err(global_gradient(problem, x), fd) <= 1e-6


def test_global_gradient_regression_at_initial_point(der4):
    x0 = np.array([5.0, 6.0, 3.0, 8.0])
    expected = np.array([-173.6, -179.6, -179.8, -173.4])
    assert np.allclose(global_gradient(der4, x0), expected, atol=1e-9)
    fd = fd_gradient(lambda v: global_cost(der4, v), x0)
    assert rel_err(expected, fd) <= 1e-6


def test_der4_parameters(der4):
    p = der4.der_params
    assert p.a == (1.0, 0.5, 0.8, 0.7)
    assert p.b == (12.0, 10.0, 11.0, 11.0)
    assert p.d == (5.0, 8.0, 6.0, 9.0)
    assert p.price_intercept == 200.0
    assert p.price_slope == pytest.approx(0.4)
    assert der4.n_agents == 4 and der4.m == 1 and der4.dim == 4


def test_der4_agent_derivative_examples(der4):
    agent1 = der4.agents[0]
    assert agent1.grad_sigma(np.array([10.0]), np.array([123.0]))[0] == pytest.approx(4.0)
    assert agent1.grad_x(np.array([0.0]), np.array([0.0]))[0] == pytest.approx(-188.0)
    agent2 = der4.agents[1]
    assert agent2.cost(np.array([0.0]), np.array([999.0])) == pytest.approx(8.0)


def test_dispatch_factory_ranges_and_determinism():
    p = make_dispatch_instance(15, 1)
    q = make_dispatch_instance(15, 1)
    assert p.der_params == q.der_params
    a, b, d = np.array(p.der_params.a), np.array(p.der_params.b), np.array(p.der_params.d)
    assert np.all((a >= 0.0024) & (a <= 0.0779))
    assert np.all((b >= 8.0) & (b <= 35.0))
    assert np.all((d >= 7.0) & (d <= 60.0))
    assert p.der_params.price_slope == pytest.approx(1.5)


def test_dispatch_single_agent_gradient():
    p = make_dispatch_instance(1, 0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.uniform(-100, 100, 1)
        fd = fd_gradient(lambda v: global_cost(p, v), x)
        assert rel_err(global_gradient(p, x), fd) <= 1e-6


@pytest.mark.parametrize("seed", range(20))
def test_quadratic_hessian_positive_definite(seed):
    p = make_dispatch_instance(2 + seed % 7, seed)
    hess = quadratic_hessian(p)
    a = np.array(p.der_params.a)
    n = len(a)
    assert np.allclose(hess, 2.0 * np.diag(a) + 0.2 * np.ones((n, n)), atol=1e-12)
    assert np.linalg.eigvalsh(hess)[0] > 0


def test_rate_metadata_from_hessian_eigenvalues(der4):
    eigs = np.linalg.eigvalsh(quadratic_hessian(der4))
    kappa, lipschitz = der4.rate_metadata
    assert kappa == pytest.approx(1.0 / eigs[0] ** 2, rel=1e-12)
    assert lipschitz == pytest.approx(eigs[-1], rel=1e-12)


@pytest.mark.parametrize(
    "problem", [make_der_instance(), make_dispatch_instance(6, 2)], ids=["der4", "dispatch6"]
)
def test_vectorized_path_matches_per_agent_path(problem):
    generic = undeclared(problem)
    assert isinstance(problem.network, Quadratic) and type(generic.network) is PerAgent
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(-30, 30, problem.dim)
        assert np.allclose(sigma(problem, x), sigma(generic, x), atol=1e-12)
        assert global_cost(problem, x) == pytest.approx(global_cost(generic, x), abs=1e-9)
        assert np.allclose(global_gradient(problem, x), global_gradient(generic, x), atol=1e-10)


def reading_s(problem):
    """``problem`` with agent 2 paying 0.15 |s|^2 more, so that its
    grad_sigma reads s."""
    obj = problem.agents[2]
    paying = dataclasses.replace(
        obj,
        cost=lambda x, s: obj.cost(x, s) + 0.15 * float(s @ s),
        grad_sigma=lambda x, s: obj.grad_sigma(x, s) + 0.3 * s,
    )
    return AggregativeProblem(problem.agents[:2] + (paying,) + problem.agents[3:], problem.m)


@pytest.mark.parametrize(
    "case",
    ["1", "4", "15", "der4", "vector3", "vector112", "frozen_der4", "der4_reading_s",
     "vector3_reading_s"],
)
def test_dispatch_family_matches_per_agent(case, der4, vector3, vector112):
    # the Quadratic model of a declared network against the per-agent loops
    # over the same callables, with the declarations withdrawn
    problem = {
        "der4": der4, "vector3": vector3, "vector112": vector112,
        "frozen_der4": with_frozen_decisions(der4), "der4_reading_s": reading_s(der4),
        "vector3_reading_s": reading_s(vector3),
    }.get(case) or make_dispatch_instance(int(case), 3)
    fast, reference = problem.network, undeclared(problem).network
    assert isinstance(fast, Quadratic) and type(reference) is PerAgent
    rng = np.random.default_rng(len(case))
    n_agents, m, n = problem.n_agents, problem.m, problem.dim

    def close(value, expected):
        expected = np.asarray(expected)
        return np.linalg.norm(np.asarray(value) - expected) <= 1e-12 * np.linalg.norm(expected)

    for _ in range(10):
        x = rng.uniform(-30, 30, n)
        eta1, eta2 = rng.uniform(-30, 30, (2, n_agents, m))
        assert close(fast.aggregate(x), reference.aggregate(x))
        assert close(fast.cost(x), reference.cost(x))
        assert close(fast.gradient(x), reference.gradient(x))
        assert close(fast.theta(x, eta1), reference.theta(x, eta1))
        assert close(fast.drive(x, eta1, eta2), reference.drive(x, eta1, eta2))
    xs = rng.uniform(-30, 30, (3, n))
    eta1s = rng.uniform(-30, 30, (3, n_agents, m))
    assert close(fast.theta(xs, eta1s), reference.theta(xs, eta1s))


def counted(problem, calls):
    """``problem`` with every callable of every agent recording its name in
    ``calls`` before it runs."""

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    names = ("cost", "grad_x", "grad_sigma", "phi", "jac_phi")
    agents = tuple(
        dataclasses.replace(obj, **{name: spy(name, getattr(obj, name)) for name in names})
        for obj in problem.agents
    )
    return AggregativeProblem(agents=agents, m=problem.m)


@pytest.mark.parametrize("case", ["dispatch200", "vector3", "vector112", "frozen_der4"])
def test_declared_network_calls_no_callable_once_built(case, der4, vector3, vector112):
    # after the Quadratic model is built, only cost calls the agents
    base = {
        "vector3": vector3, "vector112": vector112, "frozen_der4": with_frozen_decisions(der4)
    }.get(case)
    calls = []
    problem = counted(make_dispatch_instance(200, 1) if base is None else base, calls)
    net = problem.network
    assert isinstance(net, Quadratic) and {"grad_x", "grad_sigma", "phi", "jac_phi"} <= set(calls)
    calls.clear()
    rng = np.random.default_rng(3)
    n_agents, m = problem.n_agents, problem.m
    x = rng.uniform(-30, 30, problem.dim)
    eta1, eta2 = rng.uniform(-30, 30, (2, n_agents, m))
    net.drive(x, eta1, eta2)
    net.theta(x, eta1)
    net.theta(rng.uniform(-30, 30, (4, problem.dim)), rng.uniform(-30, 30, (4, n_agents, m)))
    net.aggregate(x)
    net.gradient(x)
    quadratic_hessian(problem)
    assert calls == []
    net.cost(x)
    assert set(calls) == {"cost"}


def stacking_reference(net, x, eta1, eta2):
    """drive and theta of a PerAgent network, built per agent and stacked."""
    xs = [x[sl] for sl in net.slices]
    drive = np.concatenate([
        obj.grad_x(x_i, eta1[i]) + obj.jac_phi(x_i).T @ eta2[i]
        for i, (obj, x_i) in enumerate(zip(net.agents, xs))
    ])
    thetas = np.vstack([
        np.concatenate([obj.phi(x_i), obj.grad_sigma(x_i, eta1[i])])
        for i, (obj, x_i) in enumerate(zip(net.agents, xs))
    ])
    return drive, thetas


@pytest.mark.parametrize("name", ["der4", "vector3", "frozen_der4"])
def test_per_agent_rows_match_stacking_reference(name, request):
    base = request.getfixturevalue("vector3" if name == "vector3" else "der4")
    problem = undeclared(with_frozen_decisions(base) if name == "frozen_der4" else base)
    net = problem.network
    assert type(net) is PerAgent
    rng = np.random.default_rng(17)
    n_agents, m = problem.n_agents, problem.m
    for _ in range(20):
        x = rng.uniform(-30, 30, problem.dim)
        eta1, eta2 = rng.uniform(-30, 30, (2, n_agents, m))
        drive, thetas = stacking_reference(net, x, eta1, eta2)
        assert np.array_equal(net.drive(x, eta1, eta2), drive)
        assert np.array_equal(net.theta(x, eta1), thetas)
    xs = rng.uniform(-30, 30, (3, problem.dim))
    eta1s = rng.uniform(-30, 30, (3, n_agents, m))
    stacked = np.stack([stacking_reference(net, x, e, e)[1] for x, e in zip(xs, eta1s)])
    assert np.array_equal(net.theta(xs, eta1s), stacked)


@pytest.mark.parametrize(
    "name, bad, got, want",
    [
        ("grad_x", lambda x, s: np.zeros(1), (1,), (2,)),
        ("jac_phi", lambda x: np.zeros((2, 1)), (2, 1), (2, 2)),
        ("phi", lambda x: np.zeros(1), (1,), (2,)),
        ("grad_sigma", lambda x, s: np.zeros(1), (1,), (2,)),
    ],
)
def test_per_agent_shape_errors_name_agent_and_callable(vector3, name, bad, got, want):
    # agent 1 has dim_x = 2 and m = 2; each bad shape above broadcasts or
    # fails without naming the agent if it reaches the stacked arrays
    agents = list(vector3.agents)
    agents[1] = dataclasses.replace(agents[1], **{name: bad})
    problem = AggregativeProblem(agents=tuple(agents), m=vector3.m)
    shape = (2, problem.n_agents, 2 * problem.m)
    y = np.ones(problem.dim + math.prod(shape))
    message = rf"agent 1: {name} returned shape {re.escape(str(got))}, expected {re.escape(str(want))}"
    with pytest.raises(ValueError, match=message):
        closed_loop_rhs(problem, 0.1, np.zeros(shape), 0.0, y)


@pytest.mark.parametrize(
    "evaluate, name",
    [
        (sigma, "phi"),
        (global_cost, "phi"),
        (global_gradient, "phi"),
        (global_gradient, "grad_sigma"),
        (global_gradient, "grad_x"),
        (global_gradient, "jac_phi"),
        (solve_kkt_quadratic, "grad_sigma"),
    ],
)
def test_network_functions_check_returned_shapes(vector3, evaluate, name):
    # agent 1 has dim_x = 2 and m = 2; a 1-vector phi, grad_sigma or grad_x
    # and a one-column Jacobian all broadcast if they reach the sums, and
    # the KKT solve then calls the instance not strictly convex
    wrong = {
        "phi": lambda x: np.array([x[0]]),
        "grad_sigma": lambda x, s: np.array([x[0]]),
        "grad_x": lambda x, s: np.array([x[0]]),
        "jac_phi": lambda x: np.ones((2, 1)),
    }
    want = (2, 2) if name == "jac_phi" else (2,)
    got = (2, 1) if name == "jac_phi" else (1,)
    agents = list(vector3.agents)
    agents[1] = dataclasses.replace(agents[1], **{name: wrong[name]})
    problem = AggregativeProblem(agents=tuple(agents), m=vector3.m)
    message = rf"agent 1: {name} returned shape {re.escape(str(got))}, expected {re.escape(str(want))}"
    with pytest.raises(ValueError, match=message):
        evaluate(problem) if evaluate is solve_kkt_quadratic else evaluate(problem, np.ones(5))


def test_undersized_gradient_with_row_jacobian_is_rejected():
    # dim_x = 2, m = 1: a 1-vector grad_x would broadcast against J^T eta_i2
    obj = LocalObjective(
        dim_x=2,
        cost=lambda x, s: float(x @ x),
        grad_x=lambda x, s: np.array([x.sum()]),
        grad_sigma=lambda x, s: np.zeros(1),
        phi=lambda x: np.array([x.sum()]),
        jac_phi=lambda x: np.ones((1, 2)),
    )
    network = AggregativeProblem(agents=(obj,), m=1).network
    with pytest.raises(ValueError, match=r"agent 0: grad_x returned shape \(1,\), expected \(2,\)"):
        network.drive(np.ones(2), np.ones((1, 1)), np.ones((1, 1)))


def test_returned_constant_arrays_are_read_only(der4):
    arrays = [der4.agents[0].jac_phi(np.zeros(1))]
    frozen = with_frozen_decisions(der4).agents[0]
    arrays += [frozen.grad_x(np.zeros(1), np.zeros(1)), frozen.jac_phi(np.zeros(1))]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_local_objective_derivatives_match_finite_differences(der4):
    rng = np.random.default_rng(5)
    for obj in der4.agents:
        for _ in range(5):
            x_i = rng.uniform(-20, 20, 1)
            s = rng.uniform(-20, 20, 1)
            assert rel_err(obj.grad_x(x_i, s), fd_gradient(lambda v: obj.cost(v, s), x_i)) <= 1e-6
            assert rel_err(obj.grad_sigma(x_i, s), fd_gradient(lambda v: obj.cost(x_i, v), s)) <= 1e-6
            assert rel_err(obj.jac_phi(x_i), fd_jacobian(obj.phi, x_i)) <= 1e-6


def test_with_frozen_decisions(der4):
    frozen = with_frozen_decisions(der4)
    x_i = np.array([4.0])
    s = np.array([2.0])
    assert np.array_equal(frozen.agents[0].grad_x(x_i, s), np.zeros(1))
    assert np.array_equal(frozen.agents[0].jac_phi(x_i), np.zeros((1, 1)))
    assert frozen.agents[0].phi(x_i)[0] == der4.agents[0].phi(x_i)[0]
    assert frozen.agents[0].grad_sigma(x_i, s)[0] == der4.agents[0].grad_sigma(x_i, s)[0]
    assert frozen.der_params is None and frozen.rate_metadata is None


def test_problem_validation():
    with pytest.raises(ValueError):
        DerParameters(a=(1.0,), b=(1.0, 2.0), d=(0.0,), price_intercept=200.0, price_slope=0.1)
    with pytest.raises(ValueError):
        make_dispatch_instance(0, 1)
    with pytest.raises(ValueError, match="at least one unit"):
        DerParameters(a=(), b=(), d=(), price_intercept=200.0, price_slope=0.1)
    agents = single_unit().agents
    with pytest.raises(ValueError, match="at least one agent"):
        AggregativeProblem(agents=(), m=1)
    with pytest.raises(ValueError, match="aggregation dimension"):
        AggregativeProblem(agents=agents, m=0)
    mismatched = dataclasses.replace(agents[0], grad_sigma=lambda x, s: np.zeros(2))
    with pytest.raises(ValueError, match="m-vectors"):
        theta(mismatched, np.ones(1), np.ones(1))


def test_rate_metadata_none_without_positive_definite_hessian():
    assert single_unit(a=-1.0).rate_metadata is None
