import math

import numpy as np
import pytest
from scipy.special import lambertw

from aggopt import (
    Continuous,
    Event,
    EventLog,
    Periodic,
    laplacian,
    ring,
    validate_scheme,
    zeno_bound_constants,
    zeno_lower_bound,
)
from aggopt.triggers import TriggerRule


def test_measurement_error_zero_after_broadcast():
    eta = np.random.default_rng(0).normal(size=(3, 2))
    w = np.random.default_rng(1).normal(size=(3, 2))
    rule = TriggerRule((Event(1e-300, 0.1),) * 3)
    assert not rule.fire(0.0, np.stack([eta, w]), np.stack([eta, w])).any()


def test_measurement_error_three_four_five():
    # the error is the norm of the stacked (eta_hat - eta, w_hat - w) row: 5
    eta = np.zeros((1, 2))
    w = np.zeros((1, 2))
    estimator = np.stack([eta, w])
    hats = np.stack([eta + np.array([[3.0, 0.0]]), w + np.array([[4.0, 0.0]])])
    assert TriggerRule((Event(5.0, 0.1),)).fire(0.0, estimator, hats)[0]
    assert not TriggerRule((Event(5.0 + 1e-9, 0.1),)).fire(0.0, estimator, hats)[0]


def test_should_trigger_zero_error_never_fires():
    zero = np.zeros((2, 1, 2))
    rule = TriggerRule((Event(10.0, 0.1),))
    for t in (0.0, 1.0, 50.0):
        assert not rule.fire(t, zero, zero)[0]


def test_should_trigger_inclusive_boundary():
    zero = np.zeros((2, 1, 2))
    hats = np.array([[[10.0, 0.0]], [[0.0, 0.0]]])
    assert TriggerRule((Event(10.0, 0.1),)).fire(0.0, zero, hats)[0]


def test_should_trigger_decayed_threshold():
    # threshold(100) = 10 * exp(-1) ~= 3.6788
    rule = TriggerRule((Event(10.0, 0.01),))
    assert rule.threshold(100.0)[0] == pytest.approx(10.0 * math.exp(-1.0))
    zero = np.zeros((2, 1, 2))
    assert rule.fire(100.0, zero, np.array([[[3.68, 0.0]], [[0.0, 0.0]]]))[0]
    assert not rule.fire(100.0, zero, np.array([[[3.67, 0.0]], [[0.0, 0.0]]]))[0]


def test_threshold_strictly_decreasing():
    rule = TriggerRule((Event(8.0, 0.15),))
    grid = np.linspace(0.0, 30.0, 200)
    values = [rule.threshold(t)[0] for t in grid]
    assert np.all(np.diff(values) < 0)


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
        lap, m=1, initial_deviation=3.0, beta1_max=10.0, beta2_min=0.01, lam=1.0
    )
    assert m1 + m2 > 0
    for beta1, beta2 in ((10.0, 0.01), (8.0, 0.1), (8.0, 0.15), (10.0, 0.05)):
        assert zeno_lower_bound(m1, m2, beta1, beta2) > 0


def test_zeno_bound_constants_require_margin():
    lap = laplacian(ring(4))
    with pytest.raises(ValueError):
        zeno_bound_constants(lap, 1, 1.0, 10.0, beta2_min=1.5, lam=1.0)


def test_event_log_counts_and_intervals():
    log = EventLog(times=(np.array([0.0, 0.5, 1.5]), np.array([0.0])))
    assert np.array_equal(log.counts, [3, 1])
    assert log.total == 4
    intervals = log.min_intervals()
    assert intervals[0] == pytest.approx(0.5)
    assert np.isinf(intervals[1])
