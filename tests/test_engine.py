import math
import tracemalloc
from dataclasses import replace
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from conftest import VECTOR_A, VECTOR_LIN, VECTOR_P, VECTOR_Q, undeclared
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from aggopt import (
    Continuous,
    DivergenceError,
    Event,
    Graph,
    Periodic,
    SimConfig,
    build_equilibrium,
    centralized_flow,
    closed_loop_rhs,
    consensus_error,
    decision_rates,
    estimator_derivative,
    fit_decay_rate,
    global_gradient,
    initial_estimator_state,
    laplacian,
    make_der_instance,
    make_dispatch_instance,
    path,
    random_connected_graph,
    ring,
    run,
    sigma,
    solve_kkt_quadratic,
    theta_stack,
    with_frozen_decisions,
)
from aggopt import cli, engine
from aggopt.engine import SPAN_CAP, _blocks, _state_entry, closed_loop_step
from aggopt.integrate import ensure_finite, rk4_powers, rk4_step
from aggopt.problems import (
    AggregativeProblem,
    DerParameters,
    Quadratic,
    from_der_parameters,
)
from aggopt.triggers import TriggerRule

X0 = np.array([5.0, 6.0, 3.0, 8.0])
EVENT_SCHEMES = tuple(
    Event(b1, b2) for b1, b2 in zip((10.0, 8.0, 8.0, 10.0), (0.01, 0.1, 0.15, 0.05))
)


def event_config(der4, ring4, **overrides):
    base = dict(
        problem=der4, graph=ring4, delta=0.1, h=0.005, t_end=5.0,
        x0=X0, schemes=EVENT_SCHEMES, output_stride=10,
    )
    base.update(overrides)
    return SimConfig(**base)


def vector_config(vector3, **overrides):
    """The vector-valued problem on path(3), from x0 = 0 with Event(1, 0.2)."""
    base = dict(
        problem=vector3, graph=path(3), delta=0.1, h=0.005, t_end=10.0,
        x0=np.zeros(vector3.dim), schemes=(Event(1.0, 0.2),) * 3, output_stride=10,
    )
    base.update(overrides)
    return SimConfig(**base)


def rhs_parts(problem, lap, delta, x, eta, w, eta_hat, w_hat):
    """closed_loop_rhs on the flat state built from (x, eta, w), split back
    into (x_dot, eta_dot, w_dot)."""
    flat = closed_loop_rhs(
        problem, delta, lap @ np.stack([eta_hat, w_hat]),
        np.concatenate([x, eta.ravel(), w.ravel()]),
    )
    n, k = x.size, eta.size
    return flat[:n], flat[n : n + k].reshape(eta.shape), flat[n + k :].reshape(w.shape)


def test_derivative_zero_at_equilibrium(der4, ring4, der4_x_star):
    eta_star, w_star = build_equilibrium(der4, ring4, der4_x_star)
    x_dot, eta_dot, w_dot = rhs_parts(
        der4, laplacian(ring4), 0.1, der4_x_star, eta_star, w_star,
        eta_star.copy(), w_star.copy(),
    )
    assert np.max(np.abs(x_dot)) <= 1e-8
    assert np.max(np.abs(eta_dot)) <= 1e-8
    assert np.max(np.abs(w_dot)) <= 1e-8


def test_single_agent_reduction_matches_centralized_dynamics():
    problem = from_der_parameters(
        DerParameters(a=(1.0,), b=(3.0,), d=(2.0,), price_intercept=200.0, price_slope=0.1)
    )
    lap = np.zeros((1, 1))
    for x_val in (0.0, 10.0, 91.0):
        x = np.array([x_val])
        s = sigma(problem, x)
        eta = theta_stack(problem, x, s.reshape(1, 1))
        x_dot, _, _ = rhs_parts(
            problem, lap, 0.1, x, eta, np.zeros((1, 2)), eta.copy(), np.zeros((1, 2))
        )
        assert x_dot[0] == pytest.approx(-global_gradient(problem, x)[0], abs=1e-12)


def test_initial_derivative_regression(der4, ring4):
    # eta(0) = Theta(x0, 0), everyone broadcast at t=0: hand-expanded rates
    lap = laplacian(ring4)
    eta0 = theta_stack(der4, X0, np.zeros((4, 1)))
    w0 = np.zeros((4, 2))
    x_dot, eta_dot, w_dot = rhs_parts(der4, lap, 0.1, X0, eta0, w0, eta0.copy(), w0.copy())
    assert np.allclose(x_dot, [174.0, 179.2, 181.8, 171.4], atol=1e-12)
    assert np.allclose(eta_dot, -(lap @ eta0) / 0.1, atol=1e-12)
    assert np.allclose(w_dot, (lap @ eta0) / 0.1, atol=1e-12)


def test_sim_config_rejects_nonfinite_x0(der4, ring4):
    with pytest.raises(ValueError, match="x0"):
        event_config(der4, ring4, x0=np.array([np.nan, 6.0, 3.0, 8.0]))


def test_config_validation(der4, ring4):
    with pytest.raises(ValueError):
        event_config(der4, path(3))  # node count mismatch
    with pytest.raises(ValueError):
        event_config(der4, ring4, x0=np.zeros(3))
    with pytest.raises(ValueError):
        event_config(der4, ring4, schemes=EVENT_SCHEMES[:2])
    for stride in (0, 2.5):
        with pytest.raises(ValueError, match="output_stride must be a positive integer"):
            event_config(der4, ring4, output_stride=stride)
    event_config(der4, ring4, output_stride=np.int64(3))  # numpy integers stay valid
    with pytest.raises(ValueError):
        event_config(der4, ring4, delta=-0.1)
    for bad in (dict(delta=np.nan), dict(h=np.nan), dict(t_end=np.inf)):
        with pytest.raises(ValueError, match="finite"):
            event_config(der4, ring4, **bad)
    with pytest.raises(ValueError, match="connected"):
        event_config(der4, Graph.from_edges(4, [(0, 1), (2, 3)]))
    # each finite and positive, but too many steps to count
    overflow = r"t_end/h = 1e\+300/1e-300 overflows; .*\(tend\).*\(step\)"
    with pytest.raises(ValueError, match=overflow):
        event_config(der4, ring4, t_end=1e300, h=1e-300)


def test_run_basic_structure(der4, ring4, der4_x_star):
    cfg = event_config(der4, ring4)
    result = run(cfg, x_star=der4_x_star)
    assert np.allclose(np.diff(result.times), 0.05)
    assert result.times[0] == 0.0 and result.times[-1] == pytest.approx(5.0)
    # each recorded time is its grid time, bit for bit
    stride = cfg.output_stride
    assert result.times.tolist() == [(j * stride) * cfg.h for j in range(result.times.size)]
    for arr in (result.x, result.eta, result.w, result.eta_hat, result.w_hat):
        assert np.all(np.isfinite(arr))
    # every agent broadcasts at t = 0, so the first recorded hats are the states
    assert np.array_equal(result.eta_hat[0], result.eta[0])
    assert np.array_equal(result.w_hat[0], result.w[0])
    for times in result.events.times:
        assert np.all(np.diff(times) > 0)
        assert times[0] == 0.0  # forced broadcast at the start
    assert np.all(result.metrics.broadcast_counts >= 1)
    intervals = result.metrics.min_interevent
    assert np.all(intervals[np.isfinite(intervals)] >= cfg.h - 1e-12)
    assert result.metrics.lambda_bound == pytest.approx(1.0, abs=1e-9)


def test_run_without_x_star_solves_nothing(der4, ring4, monkeypatch):
    # no reference optimum: the metrics that need one are None
    def refuse(problem):
        raise AssertionError("run solved for an optimum")

    monkeypatch.setattr("aggopt.oracles.solve_kkt_quadratic", refuse)
    metrics = run(event_config(der4, ring4, t_end=1.0)).metrics
    assert metrics.decision_error is None and metrics.relative_error is None
    assert metrics.fitted_decay_rate is None
    assert not hasattr(engine, "solve_kkt_quadratic")


@pytest.mark.parametrize(
    "schemes",
    [(Periodic(0.02),) * 4, EVENT_SCHEMES[:3] + (Event(1e6, 0.01),)],
    ids=["periodic", "event"],
)
def test_broadcast_statistics_are_those_of_the_event_times(schemes, der4, ring4):
    result = run(event_config(der4, ring4, t_end=2.0, schemes=schemes))
    times = result.events.times
    assert np.array_equal(result.metrics.broadcast_counts, [t.size for t in times])
    gaps = [np.diff(t).min() if t.size > 1 else np.inf for t in times]
    assert np.array_equal(result.metrics.min_interevent, gaps)
    assert result.events.total == sum(t.size for t in times)
    # the event case's last agent broadcasts only at t = 0, so it has no gap
    assert np.isinf(gaps[-1]) == isinstance(schemes[-1], Event)


def test_run_deterministic(der4, ring4, der4_x_star):
    cfg = event_config(der4, ring4)
    a = run(cfg, x_star=der4_x_star)
    b = run(cfg, x_star=der4_x_star)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.eta, b.eta)
    assert np.array_equal(a.w, b.w)
    assert all(np.array_equal(s, t) for s, t in zip(a.events.times, b.events.times))


@pytest.mark.parametrize("stride", [1, 7, 10, 2000])
def test_last_record_is_the_final_state(stride, der4, ring4, der4_x_star):
    # 1001 steps: a stride that does not divide them still records the last
    # grid state after the stride-th ones, once
    cfg = event_config(der4, ring4, t_end=5.005, output_stride=stride)
    result = run(cfg, x_star=der4_x_star)
    steps = recorded_steps(1001, stride)
    assert np.array_equal(result.times, steps * cfg.h)
    assert result.times[-1] == 1001 * cfg.h and np.all(np.diff(result.times) > 0)
    assert np.array_equal(result.x[-1], result.metrics.final_x)
    assert len(result.metrics.decision_error) == len(result.metrics.consensus_error) == steps.size
    every = run(replace(cfg, output_stride=1), x_star=der4_x_star)
    for name in ("x", "eta", "w", "eta_hat", "w_hat"):
        assert np.array_equal(getattr(result, name), getattr(every, name)[steps]), name


def test_result_records_compare_by_identity(der4, ring4, der4_x_star):
    # array fields make a generated __eq__ raise; the records compare like
    # plain objects, and the frozen event log hashes
    cfg = event_config(der4, ring4, t_end=0.5)
    a, b = run(cfg, x_star=der4_x_star), run(cfg, x_star=der4_x_star)
    flow = centralized_flow(der4, X0, h=1e-3, t_end=0.01)
    for first, second in ((a, b), (a.metrics, b.metrics), (a.events, b.events), (flow, replace(flow))):
        assert (first == second) is False and (first != second) is True
        assert (first == first) is True
    assert len({a.events, b.events}) == 2


def test_broadcasts_constant_between_events(der4, ring4, der4_x_star):
    # with stride 1, consecutive recorded hats differ only when the agent
    # fired at the earlier sample's grid time
    cfg = event_config(der4, ring4, t_end=2.0, output_stride=1)
    result = run(cfg, x_star=der4_x_star)
    half = cfg.h / 2
    checked = 0
    for agent, times in enumerate(result.events.times):
        for j in range(result.times.size - 1):
            if np.any(np.abs(times - result.times[j]) < half):
                continue
            assert np.array_equal(result.eta_hat[j, agent], result.eta_hat[j + 1, agent])
            assert np.array_equal(result.w_hat[j, agent], result.w_hat[j + 1, agent])
            checked += 1
    assert checked > 100


def test_step_size_warning(der4, ring4):
    cfg = event_config(der4, ring4, h=0.05, t_end=0.5)
    assert run(cfg, x_star=None).metrics.warnings == (
        "step h=0.05 exceeds delta/10=0.01; the fast subsystem may be under-resolved",
    )
    assert run(replace(cfg, h=0.01), x_star=None).metrics.warnings == ()


def test_scheme_warning_recorded(der4, ring4):
    schemes = (Event(10.0, 10.0),) + EVENT_SCHEMES[1:]
    cfg = event_config(der4, ring4, schemes=schemes, t_end=0.5)
    warnings = run(cfg, x_star=None).metrics.warnings
    assert len(warnings) == 1
    assert warnings[0].startswith("agent 0: beta2=10 ") and "spectral" in warnings[0]
    # the scheme warnings come first, then the step's
    warnings = run(replace(cfg, h=0.05), x_star=None).metrics.warnings
    assert len(warnings) == 2
    assert "spectral" in warnings[0] and "delta/10" in warnings[1]


@pytest.mark.parametrize(
    "x_star",
    [np.array([300.0]), 300.0, np.array([188.0, np.nan, 236.2, 266.9])],
    ids=["length_one", "scalar", "nan"],
)
def test_run_rejects_malformed_x_star(der4, ring4, x_star):
    # checked before set-up: the Laplacian is never formed
    with patch("aggopt.engine.laplacian", side_effect=AssertionError("set-up began")):
        with pytest.raises(ValueError, match="x_star"):
            run(event_config(der4, ring4, t_end=0.5), x_star=x_star)


def test_trigger_scheme_ordering(der4, ring4, der4_x_star):
    horizon = dict(t_end=20.0, output_stride=40)
    res_cont = run(event_config(der4, ring4, schemes=(Continuous(),) * 4, **horizon), der4_x_star)
    res_per = run(event_config(der4, ring4, schemes=(Periodic(0.02),) * 4, **horizon), der4_x_star)
    res_evt = run(event_config(der4, ring4, **horizon), der4_x_star)
    assert res_cont.events.total > res_per.events.total > res_evt.events.total
    # continuous fires every grid point, periodic exactly every T
    assert np.all(res_cont.metrics.broadcast_counts == 4000)
    assert np.all(res_per.metrics.broadcast_counts == 1000)
    # periodic inter-event gaps equal T within one grid step
    per_intervals = res_per.metrics.min_interevent
    assert np.allclose(per_intervals, 0.02, atol=0.005 + 1e-12)


def test_continuous_run_estimates_quickly(der4, ring4, der4_x_star):
    cfg = event_config(
        der4, ring4, schemes=(Continuous(),) * 4, t_end=20.0, output_stride=10
    )
    result = run(cfg, x_star=der4_x_star)
    assert result.metrics.consensus_error.min() < 1e-4


def test_run_memory_grows_by_a_few_bytes_per_broadcast(der4, ring4):
    # a continuous run broadcasts at every grid step and records two
    # samples, so its traced peak grows only by what it keeps per broadcast:
    # its grid step, its agent mask and the event times it returns (about
    # 80 B). A broadcast that kept its trigger pass's arrays alive grew it by
    # about 455 B per step.
    def peak(t_end):
        cfg = event_config(
            der4, ring4, schemes=(Continuous(),) * 4, h=1e-3, t_end=t_end, output_stride=100000
        )
        tracemalloc.start()
        try:
            run(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_step = (peak(1.25) - peak(0.25)) / 1000
    assert per_step <= 150, f"{per_step:.0f} B per broadcast step"


def test_continuous_log_error_convex_decreasing(der4, ring4, der4_x_star):
    cfg = event_config(
        der4, ring4, schemes=(Continuous(),) * 4, t_end=30.0, output_stride=20
    )
    result = run(cfg, x_star=der4_x_star)
    errors = result.metrics.decision_error
    # past the estimator transient and above the integration noise floor
    sel = (result.times >= 2.0) & (errors > 1e-6)
    log_err = np.log(errors[sel])
    assert np.all(np.diff(log_err) < 0)
    assert np.all(np.diff(log_err, 2) >= -1e-6)
    assert result.metrics.fitted_decay_rate > 0


def test_frozen_decisions_keep_x_constant(der4, ring4):
    frozen = with_frozen_decisions(der4)
    cfg = SimConfig(
        problem=frozen, graph=ring4, delta=0.1, h=0.001, t_end=1.0,
        x0=X0, schemes=(Continuous(),) * 4, output_stride=100,
    )
    result = run(cfg, x_star=None)
    assert np.allclose(result.x, X0, atol=1e-14)
    assert result.metrics.decision_error is None


def test_frozen_estimator_consensus_across_schemes(der4, ring4):
    # with decisions frozen, every scheme drives the estimates to the mean
    # of the local signals; schemes whose broadcast staleness allowance has
    # decayed by t = 50*delta reach it to 1e-5 by then
    frozen = with_frozen_decisions(der4)
    delta = 0.1
    prompt_schemes = {
        "continuous": (Continuous(),) * 4,
        "periodic": (Periodic(0.02),) * 4,
        "tight event": (Event(1e-4, 0.5),) * 4,
    }
    for label, schemes in prompt_schemes.items():
        cfg = SimConfig(
            problem=frozen, graph=ring4, delta=delta, h=1e-3, t_end=50 * delta,
            x0=X0, schemes=schemes, output_stride=10,
        )
        result = run(cfg, x_star=None)
        assert result.metrics.consensus_error[-1] <= 1e-5, label


def test_frozen_estimator_event_scheme_envelope_bounded(der4, ring4):
    # a slowly decaying threshold keeps broadcasts stale by up to
    # beta1*exp(-beta2*t), so by t = 50*delta the error is only
    # envelope-bounded, not yet at the consensus floor
    frozen = with_frozen_decisions(der4)
    cfg = SimConfig(
        problem=frozen, graph=ring4, delta=0.1, h=1e-3, t_end=5.0,
        x0=X0, schemes=EVENT_SCHEMES, output_stride=10,
    )
    result = run(cfg, x_star=None)
    envelope = max(s.beta1 * np.exp(-s.beta2 * 5.0) for s in EVENT_SCHEMES)
    final = result.metrics.consensus_error[-1]
    assert final <= envelope
    assert final < result.metrics.consensus_error[0]


def test_two_time_scale_halving(der4, ring4):
    frozen = with_frozen_decisions(der4)
    crossing = {}
    for delta in (0.1, 0.05):
        cfg = SimConfig(
            problem=frozen, graph=ring4, delta=delta, h=delta / 100.0, t_end=3.0,
            x0=X0, schemes=(Continuous(),) * 4, output_stride=1,
        )
        result = run(cfg, x_star=None)
        below = np.flatnonzero(result.metrics.consensus_error < 1e-3)
        crossing[delta] = result.times[below[0]]
    ratio = crossing[0.05] / crossing[0.1]
    assert 0.4 <= ratio <= 0.6


def test_consensus_error_static_cases(der4):
    x = X0.copy()
    thetas = theta_stack(der4, x, np.zeros((4, 1)))
    target = np.tile(thetas.mean(axis=0), (4, 1))
    # eta already at the network mean: zero error even though x is arbitrary
    errs = consensus_error(der4, x[None, :], target[None, :, :])
    assert errs[0] <= 1e-12


def test_consensus_error_single_agent():
    problem = from_der_parameters(
        DerParameters(a=(1.0,), b=(0.0,), d=(0.0,), price_intercept=200.0, price_slope=0.1)
    )
    x = np.array([[4.0]])
    eta = np.array([[[1.0, 2.0]]])
    thetas = theta_stack(problem, x[0], eta[0][:, :1])
    expected = np.linalg.norm(eta[0, 0] - thetas[0])
    assert consensus_error(problem, x, eta)[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("case", ["der4", "per_agent", "dispatch15", "vector"])
def test_consensus_error_matches_per_sample_reference(case, der4, ring4, vector3):
    # one vectorized reduction over all samples; the reference is the loop
    # over samples, with the same arithmetic per sample
    if case == "vector":
        problem, cfg = vector3, vector_config(vector3, t_end=1.0, output_stride=10)
    elif case == "dispatch15":
        problem, n = make_dispatch_instance(15, 1), 15
        cfg = SimConfig(
            problem=problem, graph=random_connected_graph(n, 1), delta=0.1, h=0.005,
            t_end=2.0, x0=np.zeros(n), schemes=(Event(10.0, 0.1),) * n, output_stride=4,
        )
    else:
        problem = der4 if case == "der4" else AggregativeProblem(der4.agents, der4.m)
        cfg = event_config(der4, ring4, problem=problem, t_end=1.0)
    result = run(cfg, x_star=None)
    expected = []
    for x, eta in zip(result.x, result.eta):
        thetas = theta_stack(problem, x, eta[:, : problem.m])
        expected.append(np.linalg.norm(eta - thetas.mean(axis=0), axis=1).max())
    assert np.array_equal(consensus_error(problem, result.x, result.eta), expected)


def test_generic_path_matches_vectorized_run(der4, ring4, der4_x_star):
    # per-agent RK4 of closed_loop_rhs and the dispatch step map agree to
    # rounding, which moves no event on this horizon
    generic = undeclared(der4)
    assert not isinstance(generic.network, Quadratic)
    cfg_fast = event_config(der4, ring4, t_end=1.0, output_stride=20)
    cfg_slow = SimConfig(
        problem=generic, graph=ring4, delta=0.1, h=0.005, t_end=1.0,
        x0=X0, schemes=EVENT_SCHEMES, output_stride=20,
    )
    fast = run(cfg_fast, x_star=der4_x_star)
    slow = run(cfg_slow, x_star=der4_x_star)
    assert np.allclose(fast.x, slow.x, atol=1e-10)
    assert np.allclose(fast.eta, slow.eta, atol=1e-10)
    assert all(
        np.array_equal(a, b) for a, b in zip(fast.events.times, slow.events.times)
    )


def test_run_divergence_raises(der4, ring4):
    cfg = event_config(der4, ring4, h=5.0, t_end=100.0, delta=0.1)
    with pytest.raises(
        DivergenceError,
        match=r"at t=10 \(step h=5\): eta\[agent 1, component 0\] = 1\.4.*; reduce the step size$",
    ) as raised:
        run(cfg, x_star=None)
    # the run's warnings ride on the error, as no metrics are returned
    assert raised.value.warnings == (
        "step h=5 exceeds delta/10=0.01; the fast subsystem may be under-resolved",
    )
    with pytest.raises(DivergenceError, match=r"; reduce the step size$"):
        run(replace(cfg, schemes=(Continuous(),) * 4), x_star=None)


def test_periodic_divergence_names_the_period(der4, ring4):
    # the hold of periodic(0.3) destabilizes the estimator whatever the step
    cfg = event_config(der4, ring4, h=0.001, t_end=6.0, schemes=(Periodic(0.3),) * 4)
    with pytest.raises(DivergenceError) as raised:
        run(cfg, x_star=None)
    assert str(raised.value).startswith("state diverged at t=4.369 (step h=0.001): ")
    assert str(raised.value).endswith("; reduce the largest broadcast period T=0.3 or the step size")


def test_state_entry_names():
    # flat layout [x (3) | eta (2 agents x 2) | w (2 agents x 2)]
    names = [_state_entry(k, n_agents=2, two_m=2, n=3) for k in range(11)]
    assert names[:3] == ["x_0", "x_1", "x_2"]
    assert names[3] == "eta[agent 0, component 0]"
    assert names[6] == "eta[agent 1, component 1]"
    assert names[7] == "w[agent 0, component 0]"
    assert names[10] == "w[agent 1, component 1]"
    # the vector-valued layout [x (5) | eta (3 agents x 4) | w (3 agents x 4)]
    names = [_state_entry(k, n_agents=3, two_m=4, n=5) for k in range(29)]
    assert names[4] == "x_4"
    assert names[5] == "eta[agent 0, component 0]"
    assert names[10] == "eta[agent 1, component 1]"
    assert names[16] == "eta[agent 2, component 3]"
    assert names[17] == "w[agent 0, component 0]"
    assert names[28] == "w[agent 2, component 3]"


def hand_written_rhs(problem, delta):
    """``rhs_of(coupling)``: the closed loop spelled out from the layers."""
    m = problem.m

    def rhs_of(coupling):
        def rhs(y):
            n, shape = problem.dim, coupling[0].shape
            x, eta = y[:n], y[n : n + coupling[0].size].reshape(shape)
            eta1 = eta[:, :m]
            eta_dot, w_dot = estimator_derivative(
                eta, theta_stack(problem, x, eta1), coupling, delta
            )
            return np.concatenate(
                [decision_rates(problem, x, eta1, eta[:, m:]), eta_dot.ravel(), w_dot.ravel()]
            )

        return rhs

    return rhs_of


def rk4_of(rhs_of, h):
    """``(advance_of, 1)``: ``advance_of(coupling)(y, 1)`` is one
    ``rk4_step`` of ``rhs_of(coupling)`` from y, which anchors every state."""

    def advance_of(coupling):
        def advance(anchor, j):
            assert j == 1
            return rk4_step(rhs_of(coupling), anchor, h)

        return advance

    return advance_of, 1


def map_of(problem, delta, h):
    """``(advance_of, SPAN_CAP)``: ``advance_of(coupling)(anchor, j)`` is the
    state j steps after the anchor on the engine's step map, the last row of
    one fresh ``advance``."""
    step = closed_loop_step(problem, delta, h)
    return (lambda coupling: lambda anchor, j: step(coupling, anchor)(j)[-1]), SPAN_CAP


def reference_run(cfg, stepper):
    """The closed loop written out step by step. ``stepper`` is
    ``(advance_of, every)``: each step takes the state j steps after its
    anchor, ``advance_of(coupling)(anchor, j)``, with the neighbor coupling
    rebuilt from the current broadcasts in every step. The anchor is the
    state at the last broadcast, or every ``every``-th state after it. The
    trigger rule sees one grid time at a time. Returns the state after
    every step (rows) and the per-agent event times; a state that fails
    ``ensure_finite`` raises its DivergenceError right after its step."""
    advance_of, every = stepper
    problem, h = cfg.problem, cfg.h
    lap = laplacian(cfg.graph)
    x0 = np.asarray(cfg.x0, dtype=float)
    eta0, w0 = initial_estimator_state(problem, x0)
    eta_hat, w_hat = eta0.copy(), w0.copy()
    n, shape, size = x0.size, eta_hat.shape, eta_hat.size
    entry = partial(_state_entry, n_agents=problem.n_agents, two_m=2 * problem.m, n=n)
    periods = [s.period for s in cfg.schemes if isinstance(s, Periodic)]
    advice = "reduce the step size"
    if periods:
        advice = f"reduce the largest broadcast period T={max(periods):.6g} or the step size"

    rule = TriggerRule(cfg.schemes)
    events = [[0.0] for _ in range(problem.n_agents)]
    y = np.concatenate([x0, eta0.ravel(), w0.ravel()])
    states = [y]
    anchor, j = y, 0
    for k in range(round(cfg.t_end / h)):
        t = k * h
        if k > 0:
            eta, w = y[n : n + size].reshape(shape), y[n + size :].reshape(shape)
            fired = rule.fire(np.array([t]), np.stack([eta, w])[None], np.stack([eta_hat, w_hat]))
            if fired is not None:
                mask = fired[1]
                eta_hat[mask] = eta[mask]
                w_hat[mask] = w[mask]
                for i in np.flatnonzero(mask):
                    events[i].append(t)
                anchor, j = y, 0
        j += 1
        y = advance_of(lap @ np.stack([eta_hat, w_hat]))(anchor, j)
        if j == every:
            anchor, j = y, 0
        ensure_finite(y[None], np.array([(k + 1) * h]), h, entry, advice)
        states.append(y)
    return np.array(states), events


def recorded_steps(n_steps, stride):
    """The grid steps run() records: every stride-th, then the last one."""
    return np.minimum(np.arange(0, n_steps + stride, stride), n_steps)


def flat_states(result):
    """Recorded (x, eta, w) as rows of the flat state."""
    k = len(result.times)
    return np.hstack([result.x, result.eta.reshape(k, -1), result.w.reshape(k, -1)])


@pytest.mark.parametrize(
    "case",
    [
        "event", "periodic", "continuous", "per_agent", "per_agent_rk4",
        "vector", "vector_rk4", "dispatch15", "mixed", "quiet",
    ],
)
def test_run_matches_reference_loop(case, der4, ring4, der4_x_star, vector3):
    # run() advances spans of grid steps with the broadcasts held and checks
    # the trigger rule once per span; the reference checks it at every grid
    # time and rebuilds the coupling in every step, so a span that runs past
    # a broadcast, or a broadcast that does not refresh the coupling, makes
    # the trajectories part. Affine cases (dispatch, and agents declared
    # quadratic) apply the engine's step map, whose agreement with an RK4
    # step of closed_loop_rhs is tested on its own; the _rk4 cases withdraw
    # the declaration and take RK4 steps. dispatch15 fires at almost every
    # grid time and records every third state; mixed holds event and
    # periodic agents. On the step map a state is taken from its anchor, so
    # the reference re-anchors by the same rule. Quiet agents never fire
    # after t = 0, so their states are anchored only at every SPAN_CAP-th step.
    schemes = {
        "periodic": (Periodic(0.02),) * 4, "continuous": (Continuous(),) * 4,
        "mixed": (EVENT_SCHEMES[0], Periodic(0.02), EVENT_SCHEMES[2], Periodic(0.035)),
        "quiet": (Event(1e9, 0.1),) * 4,
    }.get(case, EVENT_SCHEMES)
    problem = {
        "per_agent": AggregativeProblem(agents=der4.agents, m=der4.m),
        "per_agent_rk4": undeclared(der4),
    }.get(case, der4)
    cfg = event_config(der4, ring4, problem=problem, schemes=schemes, t_end=1.0, output_stride=1)
    x_star = der4_x_star
    if case.startswith("vector"):
        problem, x_star = vector3 if case == "vector" else undeclared(vector3), None
        cfg = vector_config(problem, t_end=1.0, output_stride=1)
    assert isinstance(problem.network, Quadratic) == (not case.endswith("_rk4"))
    if case == "dispatch15":
        problem, x_star = make_dispatch_instance(15, 1), None
        cfg = SimConfig(
            problem=problem, graph=random_connected_graph(15, 1), delta=0.1, h=0.005,
            t_end=2.0, x0=np.zeros(15), schemes=(Event(6.0, 0.15),) * 15, output_stride=3,
        )
    if isinstance(problem.network, Quadratic):
        stepper = map_of(problem, cfg.delta, cfg.h)
    else:
        stepper = rk4_of(hand_written_rhs(problem, cfg.delta), cfg.h)
    result = run(cfg, x_star=x_star)
    states, events = reference_run(cfg, stepper)
    steps = recorded_steps(len(states) - 1, cfg.output_stride)
    assert np.array_equal(flat_states(result), states[steps])
    assert all(np.array_equal(a, b) for a, b in zip(result.events.times, events))
    if case == "quiet":
        assert result.events.total == problem.n_agents
    else:
        assert result.events.total > 2 * problem.n_agents  # broadcasts after t = 0 were exercised


class Recorded(TriggerRule):
    """The trigger rule, recording the number of grid times of each check."""

    spans: list = []

    def fire(self, times, estimators, hats):
        self.spans.append(len(times))
        return super().fire(times, estimators, hats)


def one_row_steps(problem, delta, h):
    """``closed_loop_step`` whose ``advance`` returns one row per call,
    whatever length is asked for, so that each span is one step long."""
    step = closed_loop_step(problem, delta, h)

    def step_one_row(coupling, y):
        advance = step(coupling, y)
        return lambda k: advance(1)

    return step_one_row


@pytest.mark.parametrize("case", ["event", "mixed", "quiet", "vector", "dispatch15"])
def test_span_lengths_change_no_output(case, der4, ring4, vector3):
    # each state is taken from its anchor, which broadcasts and every
    # SPAN_CAP-th quiet step set, not the span policy: a run whose advance
    # returns one step per call gives the same bits
    schemes = {
        "mixed": (EVENT_SCHEMES[0], Periodic(0.02), EVENT_SCHEMES[2], Periodic(0.035)),
        "quiet": (Event(1e9, 0.1),) * 4,
    }.get(case, EVENT_SCHEMES)
    cfg = event_config(der4, ring4, schemes=schemes, t_end=1.0, output_stride=3)
    if case == "vector":
        cfg = vector_config(vector3, t_end=1.0, output_stride=3)
    if case == "dispatch15":
        cfg = SimConfig(
            problem=make_dispatch_instance(15, 1), graph=random_connected_graph(15, 1),
            delta=0.1, h=0.005, t_end=2.0, x0=np.zeros(15), schemes=(Event(6.0, 0.15),) * 15,
        )
    with patch.object(engine, "TriggerRule", Recorded):
        Recorded.spans = []
        spans = run(cfg, x_star=None)
        assert max(Recorded.spans) > 1
        Recorded.spans = []
        with patch.object(engine, "closed_loop_step", one_row_steps):
            steps = run(cfg, x_star=None)
        assert set(Recorded.spans) == {1}
    for name in ("times", "x", "eta", "w", "eta_hat", "w_hat"):
        assert np.array_equal(getattr(spans, name), getattr(steps, name)), name
    assert all(np.array_equal(a, b) for a, b in zip(spans.events.times, steps.events.times))


def test_divergence_inside_a_span_matches_reference_loop(monkeypatch):
    # periodic(0.05) agents at h = 0.005 fire every ten steps. The
    # state crosses STATE_LIMIT inside one, after an event agent has fired
    # in it: run() must name the grid time and entry of the first offending
    # state of the trajectory that broadcast, as a check after every step does
    problem, n = make_dispatch_instance(100, 1), 100
    cfg = SimConfig(
        problem=problem, graph=random_connected_graph(n, 1), delta=0.1, h=0.005, t_end=0.6,
        x0=np.zeros(n), schemes=(Periodic(0.05),) * 50 + (Event(1e10, 0.1),) * 50,
        output_stride=10,
    )
    checked = []

    def spy(rows, *args):
        checked.append(len(rows))
        ensure_finite(rows, *args)

    monkeypatch.setattr(engine, "ensure_finite", spy)
    with pytest.raises(DivergenceError) as raised:
        run(cfg, x_star=None)
    assert max(checked) == 10  # the state was checked once per span, not per step
    with pytest.raises(DivergenceError) as expected:
        reference_run(cfg, map_of(problem, cfg.delta, cfg.h))
    assert str(raised.value) == str(expected.value)
    assert "state diverged at t=0.545 (step h=0.005)" in str(raised.value)


@st.composite
def loop_cases(draw, form, steps):
    """A small dispatch network with per-agent schemes, a stride, a step
    from ``steps`` and a horizon of 50-400 steps. ``form`` "step_map" keeps
    the dispatch evaluator, "declared" takes the agents' per-agent form,
    which runs on the same step map, and "per_agent" withdraws their
    quadratic declaration, so it advances one RK4 step per span."""
    n = draw(st.integers(2, 6))
    problem = make_dispatch_instance(n, draw(st.integers(0, 999)))
    if form == "declared":
        problem = AggregativeProblem(agents=problem.agents, m=problem.m)
    elif form == "per_agent":
        problem = undeclared(problem)
    h = draw(st.sampled_from(steps))
    event = st.builds(
        Event,
        # the 3-4-5 test's boundary, and a threshold first met near divergence
        st.sampled_from([1e9, 5.0, 5.0 + 1e-9, 0.05, 0.5, 50.0]),
        st.sampled_from([0.05, 0.5, 2.0]),
    )
    periods = st.integers(1, 12).flatmap(
        lambda j: st.sampled_from([j * h, (j + 0.37) * h, (j + 0.5) * h])
    )
    scheme = st.one_of(event, st.builds(Periodic, periods), st.just(Continuous()))
    return SimConfig(
        problem=problem, graph=random_connected_graph(n, draw(st.integers(0, 999))),
        delta=0.1, h=h, t_end=draw(st.integers(50, 400)) * h,
        x0=np.full(n, draw(st.sampled_from([0.0, 4.0]))),
        schemes=tuple(draw(st.lists(scheme, min_size=n, max_size=n))),
        output_stride=draw(st.integers(1, 5)),
    )


@pytest.mark.parametrize("form", ["step_map", "declared", "per_agent"])
@pytest.mark.parametrize(
    "steps", [(0.002, 0.005, 0.01), (0.5,)], ids=["stable", "diverging"]
)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_matches_reference_loop_on_random_cases(form, steps, data):
    # run() checks spans of steps at once; the reference checks triggers and
    # divergence after every step. Periodic agents due inside a span, records
    # after partial spans, broadcasts at a span's last checked row, divergence
    # inside a span after a broadcast and the unchecked last grid time all
    # come up. h = 0.5 = 5 delta is unstable.
    cfg = data.draw(loop_cases(form, steps))
    problem = cfg.problem
    assert isinstance(problem.network, Quadratic) == (form != "per_agent")
    if isinstance(problem.network, Quadratic):
        stepper = map_of(problem, cfg.delta, cfg.h)
    else:
        stepper = rk4_of(hand_written_rhs(problem, cfg.delta), cfg.h)
    try:
        states, events = reference_run(cfg, stepper)
    except DivergenceError as expected:
        with pytest.raises(DivergenceError) as raised:
            run(cfg, x_star=None)
        assert str(raised.value) == str(expected)
        return
    result = run(cfg, x_star=None)
    steps = recorded_steps(len(states) - 1, cfg.output_stride)
    assert np.array_equal(result.times, steps * cfg.h)
    assert np.array_equal(flat_states(result), states[steps])
    assert len(result.events.times) == len(events)
    assert all(np.array_equal(a, b) for a, b in zip(result.events.times, events))


@pytest.mark.parametrize("case", ["der4", "dispatch15"])
def test_continuous_run_matches_closed_loop_rhs(case, der4, ring4):
    # every agent broadcasts at every step, so no trigger decision amplifies
    # the rounding-level gap between the step map and closed_loop_rhs
    if case == "der4":
        problem, graph, x0 = der4, ring4, X0
    else:
        problem, graph = make_dispatch_instance(15, 1), random_connected_graph(15, 1)
        x0 = np.zeros(15)
    cfg = SimConfig(
        problem=problem, graph=graph, delta=0.1, h=0.005, t_end=20.0, x0=x0,
        schemes=(Continuous(),) * problem.n_agents, output_stride=1,
    )
    result = run(cfg, x_star=None)
    states, _ = reference_run(
        cfg, rk4_of(lambda coupling: partial(closed_loop_rhs, problem, cfg.delta, coupling), cfg.h)
    )
    assert np.abs(flat_states(result) - states).max() <= 1e-10 * np.abs(states).max()


def random_held_state(problem, lap, rng, scale):
    """A random flat state and the coupling of random broadcasts."""
    n_agents, two_m = problem.n_agents, 2 * problem.m
    y = scale * rng.standard_normal(problem.dim + 2 * n_agents * two_m)
    hats = scale * rng.standard_normal((2, n_agents, two_m))
    return y, lap @ hats


@pytest.mark.parametrize("case", ["der4", "dispatch15", "dispatch200", "vector3"])
def test_closed_loop_step_matches_rk4_of_rhs(case, der4, vector3):
    # measured against the increment, which shrinks with h, not against y;
    # vector3's agents hold 1, 2 and 2 decisions, so agent 0's block is padded
    problem = {"der4": der4, "vector3": vector3}.get(case)
    if problem is None:
        problem = make_dispatch_instance(int(case[8:]), 1)
    lap = laplacian(ring(problem.n_agents))
    h = 1e-3
    step = closed_loop_step(problem, 0.1, h)
    rng = np.random.default_rng(7)
    for scale in (1.0, 100.0, 1e4):
        for _ in range(5):
            y, coupling = random_held_state(problem, lap, rng, scale)
            exact = rk4_step(partial(closed_loop_rhs, problem, 0.1, coupling), y, h)
            got = step(coupling, y)(1)[0]
            assert np.linalg.norm(got - exact) <= 1e-12 * np.linalg.norm(exact - y)


@pytest.mark.parametrize("case", ["der4", "dispatch15", "dispatch200", "vector3"])
def test_advance_from_an_anchor_matches_one_step_maps(case, der4, vector3):
    # the state j steps after the anchor is P^j y + S_j b, two products;
    # j one-step maps in sequence round otherwise, by far less than the
    # increment. A call stops at the next anchor, the SPAN_CAP-th state,
    # which anchors the next ones, and calls of any length continue one another
    problem = {"der4": der4, "vector3": vector3}.get(case)
    if problem is None:
        problem = make_dispatch_instance(int(case[8:]), 1)
    lap = laplacian(ring(problem.n_agents))
    step = closed_loop_step(problem, 0.1, 1e-3)
    rng = np.random.default_rng(11)
    for scale in (1.0, 100.0, 1e4):
        for _ in range(3):
            y, coupling = random_held_state(problem, lap, rng, scale)
            advance = step(coupling, y)
            whole = [advance(2 * SPAN_CAP + 5) for _ in range(3)]
            assert [len(rows) for rows in whole] == [SPAN_CAP] * 3
            rows = np.vstack(whole)
            advance = step(coupling, y)
            calls = [advance(k) for k in (1, 2, SPAN_CAP - 2, 3, SPAN_CAP + 1, 3)]
            assert [len(c) for c in calls] == [1, 2, SPAN_CAP - 3, 3, SPAN_CAP - 3, 3]
            assert np.array_equal(np.vstack(calls), rows[: 2 * SPAN_CAP + 3])
            state = y
            for row in rows:
                state = step(coupling, state)(1)[0]
                assert np.linalg.norm(row - state) <= 1e-12 * np.linalg.norm(state - y)
            for j in (SPAN_CAP, 2 * SPAN_CAP):
                assert np.array_equal(rows[j], step(coupling, rows[j - 1])(1)[0])


@pytest.mark.parametrize("batch", [(3, 2), ()], ids=["batched", "single"])
def test_rk4_powers_step_and_recurrence(batch):
    # one step P y + Q b is one RK4 step of y' = a y + b, to rounding of the
    # increment; the higher powers and sums are their recurrence, bit for bit
    rng = np.random.default_rng(3)
    d, h, count = 4, 0.05, 6
    a = rng.standard_normal((*batch, d, d))
    powers, sums = rk4_powers(a, h, count)
    assert powers.shape == sums.shape == (*batch, count * d, d)
    p, q = powers[..., :d, :], sums[..., :d, :]
    for index in np.ndindex(*batch):
        y, b = rng.standard_normal((2, d))
        want = rk4_step(lambda v: a[index] @ v + b, y, h)
        got = p[index] @ y + q[index] @ b
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want - y).max()
    for i in range(d, count * d, d):
        last = powers[..., i - d : i, :]
        assert np.array_equal(powers[..., i : i + d, :], p @ last)
        assert np.array_equal(sums[..., i : i + d, :], sums[..., i - d : i, :] + last @ q)


@pytest.mark.parametrize("case", ["der4", "dispatch15", "vector3"])
def test_one_step_from_an_anchor_is_one_step_of_the_map(case, der4, vector3):
    # P^1 = P and S_1 = Q are used as formed: per agent y+ = P y + Q b,
    # bit for bit, with P and Q as rk4_powers's docstring spells them, here
    # spelled again as an independent reference
    problem = {"der4": der4, "vector3": vector3}.get(case) or make_dispatch_instance(15, 1)
    h, delta = 1e-3, 0.1
    flat, a = _blocks(problem, delta)
    z = h * a
    eye, z2 = np.eye(a.shape[-1]), z @ z
    z3 = z2 @ z
    p = eye + z + z2 / 2.0 + z3 / 6.0 + (z3 @ z) / 24.0
    q = h * (eye + z / 2.0 + z2 / 6.0 + z3 / 24.0)
    step = closed_loop_step(problem, delta, h)
    lap = laplacian(ring(problem.n_agents))
    rng = np.random.default_rng(5)
    for scale in (1.0, 1e4):
        y, coupling = random_held_state(problem, lap, rng, scale)
        b = closed_loop_rhs(problem, delta, coupling, np.zeros(y.size))
        want = np.zeros(y.size + 1)  # the pads' slot last
        gathered = [np.append(v, 0.0)[flat][..., None] for v in (y, b)]
        want[flat] = (p @ gathered[0] + q @ gathered[1])[..., 0]
        assert np.array_equal(step(coupling, y)(1)[0], want[:-1])


def test_probed_coefficients_keep_every_bit():
    # the model's probes keep every bit of the dispatch coefficients, so the
    # blocks composed from them are those coefficients, as closed_loop_rhs
    # rounds them
    problem, delta, n = make_dispatch_instance(15, 1), 0.1, 15
    params = problem.der_params
    flat, blocks = _blocks(problem, delta)
    # agent i's local coordinates: x_i, eta_i (2 entries), w_i (2 entries)
    assert flat.tolist() == [[i, n + 2 * i, n + 2 * i + 1, 3 * n + 2 * i, 3 * n + 2 * i + 1]
                             for i in range(n)]
    expected = np.zeros((n, 5, 5))
    for i in range(n):
        expected[i, 0, :3] = -2.0 * params.a[i], -params.price_slope, -1.0
        expected[i, 1, :2] = 1.0 / delta, -1.0 / delta
        expected[i, 2, [0, 2]] = params.price_slope / delta, -1.0 / delta
    assert np.array_equal(blocks, expected)


def probed_blocks(problem, delta, flat):
    """Reference for the blocks the engine composes from the model: the
    closed loop's blocks over the flat indices ``flat`` (a pad is the index
    one past the state), probed from closed_loop_rhs one local coordinate
    at a time, set for all agents at once. The probe is a power of two far
    above the offsets, so they drop out and the division by it is exact."""
    shape = (2, problem.n_agents, 2 * problem.m)
    size = problem.dim + math.prod(shape)
    rhs = partial(closed_loop_rhs, problem, delta, np.zeros(shape))
    offset = rhs(np.zeros(size))
    scale = 2.0 ** (math.frexp(max(1.0, np.abs(offset).max()))[1] + 80)
    a = np.empty((problem.n_agents, flat.shape[1], flat.shape[1]))
    for c, probed in enumerate(flat.T):
        probe = np.zeros(size + 1)  # the flat state, then the pads' entry
        probe[probed] = scale
        column = np.append((rhs(probe[:size]) - offset) / scale, 0.0)
        a[:, :, c] = column[flat]
    return a


@pytest.mark.parametrize("delta", [0.1, 1 / 3])
def test_composed_blocks_equal_probed_closed_loop_rhs(delta, der4, vector3, vector112):
    # the model's coefficients keep every bit, so the blocks composed from
    # them equal those probed from closed_loop_rhs, through the model and
    # through the per-agent loops of the undeclared agents
    problems = (
        der4, make_dispatch_instance(15, 1), make_dispatch_instance(200, 1), vector3,
        vector112, with_frozen_decisions(der4),
    )
    for problem in problems:
        assert isinstance(problem.network, Quadratic)
        flat, blocks = _blocks(problem, delta)
        for reference in (problem, undeclared(problem)):
            assert np.array_equal(blocks, probed_blocks(reference, delta, flat))


def test_unequal_local_sizes_are_padded(vector3):
    # dim_x = 1, 2, 2 and m = 2: agent 0 has one pad after its decision, the
    # index one past the flat state, with a zero row and column; every flat
    # index appears once
    flat, blocks = _blocks(vector3, 0.1)
    size = vector3.dim + 2 * 3 * 4
    assert flat.shape == (3, 10)
    assert flat[0, :2].tolist() == [0, size] and flat[1, :2].tolist() == [1, 2]
    assert sorted(flat[flat < size].tolist()) == list(range(size))
    assert not blocks[0, 1].any() and not blocks[0, :, 1].any()


@pytest.mark.parametrize("case", ["declared", "vector3", "frozen", "undeclared", "frozen_rk4"])
def test_rk4_step_calls_per_run(case, der4, ring4, der4_x_star, vector3, monkeypatch):
    # a network on the step map takes one rk4_step, the map's check, which
    # marks the end of set-up; without the map, each grid step takes one
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return rk4_step(*args, **kwargs)

    problem = {
        "declared": AggregativeProblem(agents=der4.agents, m=der4.m),
        "vector3": vector3,
        "frozen": with_frozen_decisions(der4),
        "undeclared": undeclared(der4),
        "frozen_rk4": with_frozen_decisions(undeclared(der4)),
    }[case]
    if case == "vector3":
        cfg = vector_config(vector3, t_end=0.5)
    else:
        cfg = event_config(der4, ring4, problem=problem, t_end=0.5)
    monkeypatch.setattr(engine, "rk4_step", spy)
    run(cfg, x_star=None if case == "vector3" else der4_x_star)
    assert len(calls) == (100 if case in ("undeclared", "frozen_rk4") else 1)


def test_per_agent_field_is_closed_loop_rhs(der4, ring4):
    # undeclared PerAgent networks take one rk4_step of closed_loop_rhs
    # itself per step
    generic = undeclared(der4)
    lap = laplacian(ring4)
    y, coupling = random_held_state(generic, lap, np.random.default_rng(3), 10.0)
    got = closed_loop_step(generic, 0.1, 1e-3)(coupling, y)(1)[0]
    exact = rk4_step(partial(closed_loop_rhs, generic, 0.1, coupling), y, 1e-3)
    assert np.array_equal(got, exact)


class Curved(Quadratic):
    """Declares itself affine, but its drive is quadratic in x."""

    def drive(self, x, eta1, eta2):
        return super().drive(x, eta1, eta2) + 1e-3 * x**2


class CrossAgent(Quadratic):
    """Declares itself affine, but each agent's drive reads every decision."""

    def drive(self, x, eta1, eta2):
        return super().drive(x, eta1, eta2) + 1e-3 * x.mean()


def cubic_gradient(obj):
    return replace(obj, grad_x=lambda x, s, grad_x=obj.grad_x: grad_x(x, s) + 1e-3 * x**3)


def varying_jacobian(obj):
    return replace(obj, jac_phi=lambda x: np.array([[1.0 + 1e-3 * x[0]]]))


@pytest.mark.parametrize("false_claim", [cubic_gradient, varying_jacobian])
def test_closed_loop_step_rejects_false_quadratic_declaration(false_claim, der4):
    # agent 2 still declares itself quadratic; the Quadratic model misses
    # its curvature at the check point, so the first evaluation names it
    agents = list(der4.agents)
    agents[2] = false_claim(agents[2])
    problem = AggregativeProblem(agents=tuple(agents), m=der4.m)
    with pytest.raises(ValueError, match=r"^agent 2 declares quadratic, .* not affine"):
        sigma(problem, X0)
    with pytest.raises(ValueError, match=r"^agent 2 declares quadratic, .* not affine"):
        closed_loop_step(problem, 0.1, 1e-3)


@pytest.mark.parametrize("network", [Curved, CrossAgent], ids=["curved", "cross_agent"])
def test_closed_loop_step_rejects_false_affine_claim(network, der4):
    class Mislabelled(AggregativeProblem):
        @property
        def network(self):
            return network(self.agents, self.m)

    problem = Mislabelled(der4.agents, der4.m)
    assert isinstance(problem.network, Quadratic)
    for h in (1e-3, 5e-3):
        with pytest.raises(ValueError, match="affine"):
            closed_loop_step(problem, 0.1, h)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "flags, h",
    [(["--delta", "1e300"], "1e+298"), (["--tend", "20", "--step", "1e3"], "1000")],
    ids=["huge_delta", "huge_step"],
)
def test_overflowing_step_map_is_a_step_size_error(flags, h, tmp_path, capsys):
    # huge_delta overflows P itself, huge_step only P's higher powers: both
    # are step-size problems, not false affine claims, with no numpy warning
    code = cli.main(["run", "--scenario", "der4", *flags, "--output", str(tmp_path / "out")])
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: the RK4 step map overflows at step h={h}; reduce the step size"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_per_agent_step_is_a_divergence(der4, ring4):
    # agents not declared quadratic take one rk4_step per state: a step far
    # too long overflows there, and the divergence check names h, with no
    # numpy warning first
    cfg = event_config(undeclared(der4), ring4, delta=1e300, h=1e298, t_end=1e299)
    with pytest.raises(DivergenceError, match=r"state diverged at t=1e\+298 \(step h=1e\+298\)"):
        run(cfg, x_star=None)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_agents=st.integers(2, 12),
    seed=st.integers(0, 2**16),
    delta=st.floats(0.01, 1.0),
    scale=st.sampled_from([1.0, 100.0]),
)
def test_field_conserves_estimator_sums(n_agents, seed, delta, scale):
    # 1^T L = 0, so the neighbor sums cancel over the network:
    # sum_i w_dot_i = 0 and sum_i eta_dot_i = (sum_i Theta_i - sum_i eta_i) / delta;
    # one step of the step map therefore keeps sum_i w_i
    problem = make_dispatch_instance(n_agents, seed)
    lap = laplacian(random_connected_graph(n_agents, seed))
    rng = np.random.default_rng(seed)
    y, coupling = random_held_state(problem, lap, rng, scale)
    flat = closed_loop_rhs(problem, delta, coupling, y)
    n, k = problem.dim, 2 * n_agents * problem.m
    eta, w, eta_dot, w_dot = (
        v.reshape(n_agents, -1) for v in (y[n : n + k], y[n + k :], flat[n : n + k], flat[n + k :])
    )
    thetas = theta_stack(problem, y[:n], eta[:, : problem.m])
    magnitude = (np.abs(thetas) + np.abs(eta) + np.abs(coupling).sum(0)).sum(0) / delta
    assert np.all(np.abs(w_dot.sum(0)) <= 1e-12 * magnitude)
    expected = (thetas.sum(0) - eta.sum(0)) / delta
    assert np.all(np.abs(eta_dot.sum(0) - expected) <= 1e-12 * magnitude)
    h = delta / 20.0
    w_next = closed_loop_step(problem, delta, h)(coupling, y)(1)[0, n + k :].reshape(n_agents, -1)
    rounding = 1e-13 * (np.abs(w).sum(0) + h * np.abs(coupling).sum(0).sum(0) / delta)
    assert np.all(np.abs(w_next.sum(0) - w.sum(0)) <= rounding)


def test_decision_error_decays_and_fit_positive(der4, ring4, der4_x_star):
    cfg = event_config(der4, ring4, schemes=(Continuous(),) * 4, t_end=20.0)
    result = run(cfg, x_star=der4_x_star)
    errors = result.metrics.decision_error
    assert errors[-1] < errors[0] * 1e-6
    assert fit_decay_rate(result.times, errors) > 0


def test_vector_valued_agents_converge(vector3):
    # dim_x = 1, 2, 2 and m = 2: the Hessian is blockdiag(Q_i) + (2/N) A'PA,
    # with A = [A_1 A_2 A_3]; both oracles and the closed loop reach its solve
    a = np.hstack(VECTOR_A)
    hess = block_diag(*VECTOR_Q) + (2.0 / 3.0) * a.T @ VECTOR_P @ a
    closed_form = np.linalg.solve(hess, -np.concatenate(VECTOR_LIN))
    x_star = solve_kkt_quadratic(vector3)
    assert np.allclose(x_star, closed_form, rtol=0, atol=1e-12)
    flow = centralized_flow(vector3, np.zeros(vector3.dim), 0.01, 30.0)
    assert np.abs(flow.x[-1] - closed_form).max() <= 1e-7
    result = run(vector_config(vector3, h=0.002), x_star=x_star)
    assert result.metrics.relative_error <= 5e-3
