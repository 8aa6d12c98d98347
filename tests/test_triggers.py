import math

import numpy as np
import pytest
from scipy.special import lambertw

from aggopt import (
    Continuous,
    Event,
    EventLog,
    Periodic,
    lambda_bound,
    laplacian,
    path,
    random_connected_graph,
    ring,
    validate_scheme,
    zeno_bound_constants,
    zeno_lower_bound,
)
from aggopt.triggers import DUE_SLACK, TriggerRule


def fire_once(rule, t, estimator, hats):
    """The rule's mask at the single grid time t (all False if no agent fires)."""
    fired = rule.fire(np.array([t]), estimator[None], hats)
    return np.zeros(hats.shape[1], dtype=bool) if fired is None else fired[1]


def test_measurement_error_zero_after_broadcast():
    eta = np.random.default_rng(0).normal(size=(3, 2))
    w = np.random.default_rng(1).normal(size=(3, 2))
    rule = TriggerRule((Event(1e-300, 0.1),) * 3)
    assert not fire_once(rule, 0.0, np.stack([eta, w]), np.stack([eta, w])).any()


def test_measurement_error_three_four_five():
    # the error is the norm of the stacked (eta_hat - eta, w_hat - w) row: 5
    eta = np.zeros((1, 2))
    w = np.zeros((1, 2))
    estimator = np.stack([eta, w])
    hats = np.stack([eta + np.array([[3.0, 0.0]]), w + np.array([[4.0, 0.0]])])
    assert fire_once(TriggerRule((Event(5.0, 0.1),)), 0.0, estimator, hats)[0]
    assert not fire_once(TriggerRule((Event(5.0 + 1e-9, 0.1),)), 0.0, estimator, hats)[0]


def test_should_trigger_zero_error_never_fires():
    zero = np.zeros((2, 1, 2))
    rule = TriggerRule((Event(10.0, 0.1),))
    for t in (0.0, 1.0, 50.0):
        assert not fire_once(rule, t, zero, zero)[0]


def test_should_trigger_inclusive_boundary():
    zero = np.zeros((2, 1, 2))
    hats = np.array([[[10.0, 0.0]], [[0.0, 0.0]]])
    assert fire_once(TriggerRule((Event(10.0, 0.1),)), 0.0, zero, hats)[0]


def test_should_trigger_decayed_threshold():
    # threshold(100) = 10 * exp(-1) ~= 3.6788
    rule = TriggerRule((Event(10.0, 0.01),))
    assert rule.threshold(100.0)[0] == pytest.approx(10.0 * math.exp(-1.0))
    zero = np.zeros((2, 1, 2))
    assert fire_once(rule, 100.0, zero, np.array([[[3.68, 0.0]], [[0.0, 0.0]]]))[0]
    assert not fire_once(rule, 100.0, zero, np.array([[[3.67, 0.0]], [[0.0, 0.0]]]))[0]


def test_threshold_strictly_decreasing():
    rule = TriggerRule((Event(8.0, 0.15),))
    grid = np.linspace(0.0, 30.0, 200)
    values = [rule.threshold(t)[0] for t in grid]
    assert np.all(np.diff(values) < 0)


def broadcasts_by_spans(schemes, times, estimators, hats, span):
    """(grid index, mask) of every broadcast and the final due times, from
    checks of up to ``span`` grid times each; a check resumes after the
    first time that fires, whose states become the broadcasts."""
    rule, hats, found, k = TriggerRule(schemes), hats.copy(), [], 0
    while k < len(times):
        fired = rule.fire(times[k : k + span], estimators[k : k + span], hats)
        if fired is None:
            k += span
            continue
        row, mask = fired
        k += row
        hats[:, mask] = estimators[k][:, mask]
        found.append((k, mask))
        k += 1
    return found, rule.next_due


def assert_spans_match_single_rows(schemes, times, estimators, hats):
    expected, due = broadcasts_by_spans(schemes, times, estimators, hats, 1)
    for span in (2, 3, 7, len(times)):
        got, got_due = broadcasts_by_spans(schemes, times, estimators, hats, span)
        assert [k for k, _ in got] == [k for k, _ in expected]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, expected))
        assert np.array_equal(got_due, due)
    return expected


def test_multi_row_check_three_four_five_boundary():
    # the error reaches exactly 5 at row 3, at t = 0 where the threshold is beta1
    estimators = np.zeros((6, 2, 2, 2))
    estimators[3:, 0, :, 0] = 3.0
    estimators[3:, 1, :, 0] = 4.0
    times = np.zeros(6)
    rule = TriggerRule((Event(5.0, 0.1), Event(5.0 + 1e-9, 0.1)))
    row, mask = rule.fire(times, estimators, np.zeros((2, 2, 2)))
    assert row == 3 and mask.tolist() == [True, False]
    found = assert_spans_match_single_rows(
        (Event(5.0, 0.1), Event(5.0 + 1e-9, 0.1)), times, estimators, np.zeros((2, 2, 2))
    )
    assert [k for k, _ in found] == [3]
    assert TriggerRule((Event(5.0 + 1e-9, 0.1),) * 2).fire(
        times, estimators, np.zeros((2, 2, 2))) is None


def test_multi_row_check_periodic_slack():
    # due at 0.02 less the 1e-9 slack: 0.02 - 2e-9 is early, 0.02 - 5e-10 is not
    times = np.array([0.019, 0.02 - 2e-9, 0.02 - 5e-10, 0.021, 0.03, 0.04 - 5e-10, 0.045])
    zero = np.zeros((len(times), 2, 2, 2))
    rule = TriggerRule((Periodic(0.02), Periodic(0.03)))
    row, mask = rule.fire(times, zero, zero[0])
    assert row == 2 and mask.tolist() == [True, False]
    assert rule.next_due.tolist() == [0.04, 0.03]  # only the returned row advanced it
    found = assert_spans_match_single_rows(
        (Periodic(0.02), Periodic(0.03)), times, zero, zero[0]
    )
    assert [(k, m.tolist()) for k, m in found] == [
        (2, [True, False]), (4, [False, True]), (5, [True, False])
    ]


@pytest.mark.parametrize("kinds", ["event", "periodic", "continuous", "mixed", "mixed_continuous"])
def test_multi_row_check_matches_single_rows(kinds):
    # random rows whose errors straddle the thresholds: a check of K rows
    # finds the broadcasts, masks and due times of K single-row checks
    rng = np.random.default_rng(len(kinds))
    n_agents, h = 5, 0.01
    pool = {
        "event": [Event(1.0, 0.5), Event(0.5, 0.1)],
        "periodic": [Periodic(0.03), Periodic(0.05 + 1e-10)],
        "continuous": [Continuous()],
    }
    kinds = {"mixed": ["event", "periodic"], "mixed_continuous": list(pool)}.get(kinds, [kinds])
    for _ in range(20):
        options = [s for kind in kinds for s in pool[kind]]
        schemes = tuple(options[i] for i in rng.integers(len(options), size=n_agents))
        times = np.arange(1, 61) * h
        estimators = rng.normal(scale=0.4, size=(60, 2, n_agents, 2))
        assert_spans_match_single_rows(schemes, times, estimators, np.zeros((2, n_agents, 2)))


def reference_broadcasts(schemes, times, estimators, hats):
    """(grid index, mask, periodic agents' due times after it) of every
    broadcast, one grid time and one agent at a time, each by its scheme's
    own definition: a continuous agent always fires, a periodic one once t
    reaches its due time less DUE_SLACK (due one period after its last
    due time), and an event one once the norm of its stacked error reaches
    beta1 exp(-beta2 t)."""
    hats, found = hats.copy(), []
    due = {i: s.period for i, s in enumerate(schemes) if isinstance(s, Periodic)}
    for k, t in enumerate(times):
        mask = np.zeros(len(schemes), dtype=bool)
        for i, scheme in enumerate(schemes):
            if isinstance(scheme, Continuous):
                mask[i] = True
            elif isinstance(scheme, Periodic):
                mask[i] = t >= due[i] - DUE_SLACK
            else:
                error = math.sqrt(sum(v * v for v in (hats[:, i] - estimators[k][:, i]).flat))
                mask[i] = error >= scheme.beta1 * math.exp(-scheme.beta2 * t)
        if mask.any():
            for i in due:
                if mask[i]:
                    due[i] += schemes[i].period
            hats[:, mask] = estimators[k][:, mask]
            found.append((k, mask.tolist(), list(due.values())))
    return found


@pytest.mark.parametrize("seed", range(6))
def test_fire_matches_per_scheme_reference(seed):
    # random rules mixing every subset of the three kinds, checked over
    # random spans: fire() finds the reference's broadcasts, masks and
    # periodic due times
    rng = np.random.default_rng(seed)
    n_agents, n_times, h = 6, 150, 0.01
    times = np.arange(1, n_times + 1) * h
    fired = {"continuous": 0, "periodic": 0, "event": 0}
    for _ in range(8):
        kinds = rng.choice(list(fired), size=rng.integers(1, 4), replace=False)
        schemes = []
        for kind in rng.choice(kinds, size=n_agents):
            if kind == "continuous":
                schemes.append(Continuous())
            elif kind == "periodic":
                # a whole number of steps, at times off by a few 1e-12,
                # puts due times within the slack of grid times
                whole = int(rng.integers(2, 20)) * h + rng.choice([0.0, -5e-12, 5e-12])
                schemes.append(Periodic(float(rng.choice([whole, rng.uniform(0.015, 0.2)]))))
            else:
                schemes.append(Event(float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.05, 2.0))))
        estimators = rng.normal(scale=0.4, size=(n_times, 2, n_agents, 2))
        expected = reference_broadcasts(schemes, times, estimators, np.zeros((2, n_agents, 2)))

        rule, hats, got, k = TriggerRule(schemes), np.zeros((2, n_agents, 2)), [], 0
        periodic = [isinstance(s, Periodic) for s in schemes]
        while k < n_times:
            span = int(rng.integers(1, 40))
            result = rule.fire(times[k : k + span], estimators[k : k + span], hats)
            if result is None:
                k += span
                continue
            row, mask = result
            k += row
            hats[:, mask] = estimators[k][:, mask]
            got.append((k, mask.tolist(), rule.next_due[periodic].tolist()))
            k += 1
        assert got == expected
        for _, mask, _ in expected:
            for scheme, hit in zip(schemes, mask):
                fired[type(scheme).__name__.lower()] += hit
    assert all(fired.values()), fired


def test_zeno_lower_bound_linear_cases():
    assert zeno_lower_bound(1.0, 0.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-11)
    assert zeno_lower_bound(1.5, 0.5, 1.0, 0.0) == pytest.approx(0.5, abs=1e-11)


def test_zeno_lower_bound_lambert_reference():
    # T e^T = 1 has the Lambert W(1) root
    reference = float(lambertw(1.0).real)
    assert zeno_lower_bound(1.0, 0.0, 1.0, 1.0) == pytest.approx(reference, abs=1e-9)


def test_zeno_lower_bound_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        zeno_lower_bound(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        zeno_lower_bound(1.0, 0.0, -1.0, 1.0)
    # an infinite bracket never narrows, and NaN fails every comparison
    for args in ((1.0, 1.0, np.inf, 0.1), (1.0, 1.0, np.nan, 0.1), (1.0, 1.0, 1.0, np.nan),
                 (np.inf, 1.0, 1.0, 0.1), (1.0, np.nan, 1.0, 0.1), (1.0, 1.0, 1.0, np.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            zeno_lower_bound(*args)


def test_validate_scheme_standard_event_parameters():
    schemes = tuple(
        Event(b1, b2) for b1, b2 in zip((10.0, 8.0, 8.0, 10.0), (0.01, 0.1, 0.15, 0.05))
    )
    assert validate_scheme(schemes, lam=1.0) == ()


def test_validate_scheme_zero_beta_is_hard_error():
    with pytest.raises(ValueError):
        validate_scheme((Event(10.0, 0.0),), lam=1.0)
    with pytest.raises(ValueError):
        validate_scheme((Event(0.0, 0.1),), lam=1.0)
    with pytest.raises(ValueError):
        validate_scheme((Periodic(0.0),), lam=1.0)


def test_validate_scheme_rejects_unknown_scheme_type():
    with pytest.raises(TypeError, match="unknown trigger scheme"):
        validate_scheme((Continuous(), "event"), lam=1.0)


@pytest.mark.parametrize(
    "scheme, names",
    [
        (Periodic(np.inf), "period"),
        (Periodic(np.nan), "period"),
        (Event(np.inf, 0.1), "beta1 and beta2"),
        (Event(10.0, np.inf), "beta1 and beta2"),
    ],
    ids=["period_inf", "period_nan", "beta1_inf", "beta2_inf"],
)
def test_validate_scheme_rejects_nonfinite_parameters(scheme, names):
    schemes = (Continuous(), Continuous(), scheme, Continuous())
    with pytest.raises(ValueError, match=f"agent 2: {names} must be positive and finite"):
        validate_scheme(schemes, lam=1.0)


def test_validate_scheme_warns_above_bound():
    warnings = validate_scheme((Event(10.0, 10.0), Continuous()), lam=1.0)
    assert len(warnings) == 1
    assert "agent 0" in warnings[0]


def test_validate_scheme_mixed_non_event_passes():
    assert validate_scheme((Continuous(), Periodic(0.02)), lam=1.0) == ()


def test_zeno_bound_constants_always_give_positive_root():
    lap = laplacian(ring(4))
    m1, m2 = zeno_bound_constants(
        lap, initial_deviation=3.0, beta1_max=10.0, beta2_min=0.01, lam=1.0
    )
    assert m1 + m2 > 0
    for beta1, beta2 in ((10.0, 0.01), (8.0, 0.1), (8.0, 0.15), (10.0, 0.05)):
        assert zeno_lower_bound(m1, m2, beta1, beta2) > 0


def test_zeno_bound_constants_require_margin():
    lap = laplacian(ring(4))
    with pytest.raises(ValueError):
        zeno_bound_constants(lap, 1.0, 10.0, beta2_min=1.5, lam=1.0)


def dense_coupling_norms(lap, m):
    """Spectral norms of the fast subsystem's drift and injection matrices,
    built whole over the stacked (eta, w) of N agents with 2m components."""
    lap2 = np.kron(lap, np.eye(2 * m))
    zero = np.zeros_like(lap2)
    drift = np.block([[-np.eye(lap2.shape[0]) - lap2, -lap2], [lap2, zero]])
    inject = np.block([[-lap2, -lap2], [lap2, zero]])
    return np.linalg.norm(drift, 2), np.linalg.norm(inject, 2)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize(
    "graph", [ring(4), path(5), random_connected_graph(15, 1)], ids=["ring4", "path5", "random15"]
)
def test_zeno_bound_constants_match_dense_norms(graph, m):
    # the constants of the original formulation, from the dense norms
    lap = laplacian(graph)
    deviation, beta1_max, beta2_min, lam = 173.6, 10.0, 0.01, lambda_bound(lap)
    drift, inject = dense_coupling_norms(lap, m)
    scale = math.sqrt(graph.n_nodes) * beta1_max * inject
    m1 = drift * deviation - drift * scale / (lam - beta2_min)
    m2 = scale * (1.0 + drift / (lam - beta2_min))
    got = zeno_bound_constants(lap, deviation, beta1_max, beta2_min, lam)
    assert got == pytest.approx((m1, m2), rel=1e-9)


def test_event_log_counts_and_intervals():
    log = EventLog(times=(np.array([0.0, 0.5, 1.5]), np.array([0.0])))
    assert np.array_equal(log.counts, [3, 1])
    assert log.total == 4
    intervals = log.min_intervals()
    assert intervals[0] == pytest.approx(0.5)
    assert np.isinf(intervals[1])
