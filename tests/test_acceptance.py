"""Acceptance suite: one test per shipped guarantee, each printing a
PASS line with its measured quantity (run with ``pytest -s`` to see them
on passing runs)."""

import json
from dataclasses import replace

import numpy as np
import pytest
from conftest import fd_gradient, rel_err
from scipy.linalg import expm
from scipy.special import lambertw

from aggopt import (
    Continuous,
    Event,
    Periodic,
    SimConfig,
    broadcast_coupling,
    build_equilibrium,
    centralized_flow,
    consensus_error,
    equilibrium_residual,
    estimator_derivative,
    fit_decay_rate,
    from_der_parameters,
    global_cost,
    global_gradient,
    initial_estimator_state,
    lambda_bound,
    laplacian,
    make_der_instance,
    make_dispatch_instance,
    path,
    quadratic_hessian,
    random_connected_graph,
    ring,
    run,
    solve_kkt_quadratic,
    theta_stack,
    with_frozen_decisions,
    zeno_bound_constants,
    zeno_lower_bound,
)
from aggopt.cli import main as cli_main
from aggopt.integrate import rk4_step
from aggopt.problems import DerParameters

X0 = np.array([5.0, 6.0, 3.0, 8.0])
EVENT_SCHEMES = tuple(
    Event(b1, b2) for b1, b2 in zip((10.0, 8.0, 8.0, 10.0), (0.01, 0.1, 0.15, 0.05))
)


def report(number: int, name: str, detail: str) -> None:
    print(f"criterion {number} ({name}): PASS - {detail}")


def der4_config(der4, ring4, **overrides):
    base = dict(
        problem=der4, graph=ring4, delta=0.1, h=0.005, t_end=200.0,
        x0=X0, schemes=EVENT_SCHEMES, output_stride=10,
    )
    base.update(overrides)
    return SimConfig(**base)


@pytest.fixture(scope="module")
def event200(der4, ring4, der4_x_star):
    return run(der4_config(der4, ring4), x_star=der4_x_star)


@pytest.fixture(scope="module")
def event20(der4, ring4, der4_x_star):
    return run(der4_config(der4, ring4, t_end=20.0), x_star=der4_x_star)


@pytest.fixture(scope="module")
def continuous200(der4, ring4, der4_x_star):
    cfg = der4_config(der4, ring4, schemes=(Continuous(),) * 4)
    return run(cfg, x_star=der4_x_star)


@pytest.fixture(scope="module")
def dispatch15():
    problem = make_dispatch_instance(15, 1)
    graph = random_connected_graph(15, 1)
    x_star = solve_kkt_quadratic(problem)
    # horizon sized from the slowest Hessian mode so the slow subsystem can
    # actually reach the 1e-3 ball; starting from zero output the initial
    # relative error is exactly 1
    eigs = np.linalg.eigvalsh(quadratic_hessian(problem))
    t_end = float(np.ceil(np.log(1.0 / 1e-3) / eigs[0] * 1.4))
    cfg = SimConfig(
        problem=problem, graph=graph, delta=0.1, h=0.005, t_end=t_end,
        x0=np.zeros(15), schemes=(Event(6.0, 0.15),) * 15, output_stride=50,
    )
    return problem, graph, x_star, run(cfg, x_star=x_star)


def test_criterion_1_oracle_equivalence(der4, der4_x_star):
    traj = centralized_flow(der4, X0, h=1e-3, t_end=60.0, stride=100)
    worst = rel_err(traj.final, der4_x_star)
    assert worst <= 1e-5
    for seed in range(10):
        n = 2 + seed % 5
        problem = make_dispatch_instance(n, seed)
        x_star = solve_kkt_quadratic(problem)
        eigs = np.linalg.eigvalsh(quadratic_hessian(problem))
        flow = centralized_flow(
            problem, np.zeros(n), h=0.5 / eigs[-1],
            t_end=float(np.log(np.linalg.norm(x_star) * 1e9) / eigs[0]), stride=1000,
        )
        err = rel_err(flow.final, x_star)
        worst = max(worst, err)
        assert err <= 1e-5
    report(1, "oracle equivalence", f"worst relative error {worst:.2e} <= 1e-5")


def test_criterion_2_distributed_convergence(der4, ring4, der4_x_star, event200):
    rel = event200.metrics.relative_error
    assert rel <= 1e-3
    extras = {}
    for delta in (0.05, 0.2):
        cfg = der4_config(der4, ring4, delta=delta, h=delta / 20.0)
        extras[delta] = run(cfg, x_star=der4_x_star).metrics.relative_error
        assert extras[delta] <= 1e-3
    report(
        2, "distributed convergence",
        f"relative error {rel:.2e} at delta=0.1 "
        + ", ".join(f"{v:.2e} at delta={k}" for k, v in extras.items()),
    )


def test_criterion_3_estimator_consensus(der4, ring4):
    frozen = with_frozen_decisions(der4)
    delta = 0.1
    cfg = SimConfig(
        problem=frozen, graph=ring4, delta=delta, h=1e-3, t_end=50 * delta,
        x0=X0, schemes=(Continuous(),) * 4, output_stride=10,
    )
    result = run(cfg, x_star=None)
    floor = result.metrics.consensus_error.min()
    assert floor <= 1e-6

    # closed-form cross-validation on a two-node graph: with exact
    # broadcasts and a frozen input the estimator is linear time-invariant
    params = DerParameters(
        a=(1.0, 0.5), b=(12.0, 10.0), d=(5.0, 8.0),
        price_intercept=200.0, price_slope=0.2,
    )
    frozen2 = with_frozen_decisions(from_der_parameters(params))
    lap = laplacian(path(2))
    state = initial_estimator_state(frozen2, np.array([5.0, 6.0]))
    thetas = theta_stack(frozen2, np.array([5.0, 6.0]), state[0, :, :1])

    def rhs(t, z):
        block = z.reshape(state.shape)
        return estimator_derivative(block[0], thetas, broadcast_coupling(lap, block), delta).ravel()

    lap2 = np.kron(lap, np.eye(2))
    aug = np.zeros((9, 9))
    aug[:8, :8] = np.block(
        [[-np.eye(4) - lap2, -lap2], [lap2, np.zeros((4, 4))]]
    ) / delta
    aug[:8, 8] = np.concatenate([thetas.ravel(), np.zeros(4)]) / delta
    z0_aug = np.concatenate([state.ravel(), [1.0]])
    z = state.ravel()
    h = 2.5e-4
    worst = 0.0
    for k in range(4000):
        z = rk4_step(rhs, k * h, z, h)
        if (k + 1) % 200 == 0:
            reference = (expm(aug * ((k + 1) * h)) @ z0_aug)[:8]
            worst = max(worst, float(np.abs(z - reference).max()))
    assert worst <= 1e-8
    report(
        3, "estimator consensus",
        f"error floor {floor:.2e} within t=50*delta; closed-form gap {worst:.2e} <= 1e-8",
    )


def test_criterion_4_event_vs_periodic_broadcasts(event20):
    # horizon covering convergence of the decisions; the periodic baseline
    # is the analytic count ceil(t_end / T) per agent at T = 0.02
    t_end, period, n_agents = 20.0, 0.02, 4
    baseline = int(np.ceil(t_end / period)) * n_agents
    total = event20.events.total
    assert total < baseline
    report(
        4, "event vs periodic broadcasts",
        f"{total} event broadcasts < {baseline} periodic (ratio {total / baseline:.3f})",
    )


def test_criterion_4_event_count_robust_to_rounding_perturbations(der4, ring4, der4_x_star):
    # the exact event count is chaotic in the inputs, so the claim is
    # checked over an ensemble of rounding-level perturbations of x0
    rng = np.random.default_rng(4)
    short = dict(h=1e-3, t_end=2.5)
    periodic = der4_config(der4, ring4, schemes=(Periodic(0.02),) * 4, **short)
    counts = []
    for _ in range(5):
        x0 = X0 + rng.uniform(-1e-13, 1e-13, X0.size)
        event = run(der4_config(der4, ring4, x0=x0, **short), x_star=der4_x_star)
        baseline = run(replace(periodic, x0=x0), x_star=der4_x_star)
        assert event.events.total < baseline.events.total
        counts.append((event.events.total, baseline.events.total))
    report(4, "event count under x0 perturbations", f"(event, periodic) counts {counts}")


def test_criterion_5_zeno_exclusion(der4, ring4, der4_x_star, event200, event20, dispatch15):
    logs = [event200.events, event20.events, dispatch15[3].events]
    for log in logs:
        assert np.all(np.isfinite(log.counts))
        finite = log.min_intervals()
        finite = finite[np.isfinite(finite)]
        assert np.all(finite > 0)
    cases = [(1.0, 0.0, 1.0, 0.0, 1.0), (1.5, 0.5, 1.0, 0.0, 0.5)]
    for m1, m2, b1, b2, expected in cases:
        value = zeno_lower_bound(m1, m2, b1, b2)
        assert value > 0 and abs(value - expected) <= 1e-9
    reference = float(lambertw(1.0).real)
    value = zeno_lower_bound(1.0, 0.0, 1.0, 1.0)
    assert abs(value - reference) <= 1e-9
    # constants derived from the coupling matrices of the shipped graphs
    for graph, schemes in (
        (ring(4), EVENT_SCHEMES),
        (random_connected_graph(15, 1), (Event(6.0, 0.15),) * 15),
    ):
        lap = laplacian(graph)
        lam = lambda_bound(lap)
        beta1_max = max(s.beta1 for s in schemes)
        beta2_min = min(s.beta2 for s in schemes)
        m1, m2 = zeno_bound_constants(lap, 5.0, beta1_max, beta2_min, lam)
        for scheme in schemes:
            assert zeno_lower_bound(m1, m2, scheme.beta1, scheme.beta2) > 0
    # the measured gaps against the bound from the runs' own initial
    # deviation (173.6). The growth bound decays like exp(-beta2_min t), so
    # the bound holds for all time only for agents with beta2 = beta2_min;
    # the others' gaps shrink to one step on event200
    lap = laplacian(ring4)
    equilibrium = build_equilibrium(der4, ring4, der4_x_star)
    deviation = float(np.linalg.norm(initial_estimator_state(der4, X0) - equilibrium))
    beta2 = np.array([s.beta2 for s in EVENT_SCHEMES])
    m1, m2 = zeno_bound_constants(
        lap, deviation, max(s.beta1 for s in EVENT_SCHEMES), beta2.min(), lambda_bound(lap)
    )
    bounds = np.array([zeno_lower_bound(m1, m2, s.beta1, s.beta2) for s in EVENT_SCHEMES])
    gaps20 = event20.events.min_intervals()
    assert np.all(gaps20 >= bounds)
    slowest = beta2 == beta2.min()
    gaps200 = event200.events.min_intervals()[slowest]
    assert np.all(gaps200 >= bounds[slowest])
    report(
        5, "no event accumulation",
        f"min gaps {np.round(gaps20, 4).tolist()} to t=20 and {gaps200.tolist()} to t=200 "
        f"(beta2_min agents) >= bounds {np.round(bounds, 4).tolist()}; analytic root "
        f"matches Lambert-W to {abs(value - reference):.1e}",
    )


def test_criterion_6_gradient_correctness():
    worst = 0.0
    for problem in (make_der_instance(), make_dispatch_instance(5, 3), make_dispatch_instance(15, 1)):
        rng = np.random.default_rng(123)
        for _ in range(20):
            x = rng.uniform(-50, 50, problem.dim)
            fd = fd_gradient(lambda v: global_cost(problem, v), x)
            worst = max(worst, rel_err(global_gradient(problem, x), fd))
        for obj in problem.agents[:3]:
            x_i = rng.uniform(-20, 20, 1)
            s = rng.uniform(-20, 20, 1)
            worst = max(worst, rel_err(obj.grad_x(x_i, s), fd_gradient(lambda v: obj.cost(v, s), x_i)))
            worst = max(worst, rel_err(obj.grad_sigma(x_i, s), fd_gradient(lambda v: obj.cost(x_i, v), s)))
    assert worst <= 1e-6
    report(6, "gradient correctness", f"worst relative error vs finite differences {worst:.2e}")


def test_criterion_7_equilibrium_round_trip(der4, ring4, der4_x_star, continuous200):
    eta_star, w_star = build_equilibrium(der4, ring4, der4_x_star)
    constructed = equilibrium_residual(der4, ring4, der4_x_star, eta_star, w_star)
    assert constructed <= 1e-8
    simulated = equilibrium_residual(
        der4, ring4, continuous200.x[-1], continuous200.eta[-1], continuous200.w[-1]
    )
    assert simulated <= 1e-4
    report(
        7, "equilibrium round trip",
        f"constructed residual {constructed:.2e} <= 1e-8; long-run residual {simulated:.2e} <= 1e-4",
    )


def test_criterion_8_large_instance_convergence(dispatch15):
    problem, graph, x_star, result = dispatch15
    rel = result.metrics.relative_error
    assert rel <= 1e-3
    report(
        8, "large-instance convergence",
        f"15 units on a random connected graph: relative error {rel:.2e} <= 1e-3",
    )


def test_criterion_9_determinism(tmp_path):
    out = tmp_path / "repeat"
    args = [
        "run", "--scenario", "der4", "--trigger", "event",
        "--tend", "5", "--output", str(out),
    ]
    assert cli_main(args) == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("trajectory.csv", "events.csv", "summary.json")
    }
    assert cli_main(args) == 0
    for name, payload in first.items():
        assert (out / name).read_bytes() == payload
    report(9, "determinism", "repeated identical runs are byte-identical across all files")


def test_criterion_10_centralized_rate_bound(der4, der4_x_star):
    kappa, lipschitz = der4.rate_metadata
    bound = kappa / (1.0 + 2.0 * lipschitz)
    traj = centralized_flow(der4, X0, h=1e-3, t_end=60.0, stride=10)
    errors = np.linalg.norm(traj.x - der4_x_star, axis=1)
    rate = fit_decay_rate(traj.times, errors)
    assert bound > 0
    assert rate >= bound
    report(
        10, "centralized decay-rate bound",
        f"fitted rate {rate:.3f} >= reported bound kappa/(1+2l) = {bound:.3f}",
    )


def test_summary_record_documents_reference_solution(tmp_path):
    out = tmp_path / "doc"
    assert cli_main(["run", "--scenario", "der4", "--tend", "2", "--output", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["published_reference_solution"] == [188.0, 377.5, 236.2, 266.9]
    assert "does not satisfy" in summary["published_reference_residual_note"]
    assert "scenario = der4" in summary["config"]
