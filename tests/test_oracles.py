import numpy as np
import pytest
from conftest import rel_err

from aggopt import (
    DER4_PUBLISHED_SOLUTION,
    DerParameters,
    DivergenceError,
    centralized_flow,
    fit_decay_rate,
    from_der_parameters,
    global_gradient,
    make_der_instance,
    make_dispatch_instance,
    quadratic_hessian,
    solve_kkt_quadratic,
)
from aggopt.integrate import rk4_step
from aggopt.problems import AggregativeProblem, LocalObjective, Quadratic

X0 = np.array([5.0, 6.0, 3.0, 8.0])


@pytest.fixture
def gradient_calls(monkeypatch):
    """The states at which the global gradient of a declared-quadratic
    network is evaluated."""
    calls = []
    gradient = Quadratic.gradient

    def spy(self, x):
        calls.append(x)
        return gradient(self, x)

    monkeypatch.setattr(Quadratic, "gradient", spy)
    return calls


def single_unit():
    return from_der_parameters(
        DerParameters(a=(1.0,), b=(0.0,), d=(0.0,), price_intercept=200.0, price_slope=0.1)
    )


def bisect_scalar(df, lo, hi, tol=1e-12):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if df(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_kkt_single_unit_closed_form():
    # stationarity: 2P - 200 + 0.2P = 0  =>  P = 200/2.2
    p = single_unit()
    x_star = solve_kkt_quadratic(p)
    assert x_star[0] == pytest.approx(200.0 / 2.2, rel=1e-12)
    root = bisect_scalar(lambda v: global_gradient(p, np.array([v]))[0], 0.0, 200.0)
    assert x_star[0] == pytest.approx(root, abs=1e-9)


def test_kkt_symmetric_two_units():
    p = from_der_parameters(
        DerParameters(a=(0.5, 0.5), b=(7.0, 7.0), d=(1.0, 1.0), price_intercept=200.0, price_slope=0.2)
    )
    x_star = solve_kkt_quadratic(p)
    assert x_star[0] == pytest.approx(x_star[1], abs=1e-10)


def test_kkt_der4_residual_and_published_value(der4, der4_x_star):
    assert np.linalg.norm(global_gradient(der4, der4_x_star)) <= 1e-8
    # the published operating point is not the stationary point of these
    # coefficients; keep the distance on record
    published = np.array(DER4_PUBLISHED_SOLUTION)
    assert np.linalg.norm(der4_x_star - published) > 100.0
    assert np.linalg.norm(global_gradient(der4, published)) > 100.0


def test_kkt_permutation_equivariance():
    p = make_dispatch_instance(5, 4)
    x_star = solve_kkt_quadratic(p)
    perm = [3, 0, 4, 1, 2]
    dp = p.der_params
    shuffled = from_der_parameters(
        DerParameters(
            a=tuple(dp.a[i] for i in perm),
            b=tuple(dp.b[i] for i in perm),
            d=tuple(dp.d[i] for i in perm),
            price_intercept=dp.price_intercept,
            price_slope=dp.price_slope,
        )
    )
    assert np.allclose(solve_kkt_quadratic(shuffled), x_star[perm], atol=1e-10)


def test_kkt_rejects_nonconvex():
    p = from_der_parameters(
        DerParameters(a=(-1.0,), b=(0.0,), d=(0.0,), price_intercept=200.0, price_slope=0.1)
    )
    with pytest.raises(ValueError, match="positive definite"):
        solve_kkt_quadratic(p)


def test_kkt_rejects_nonquadratic():
    # exp(x) - 3x: the gradient-probe linearization lands away from the true
    # stationary point, so the residual check must reject the instance
    obj = LocalObjective(
        dim_x=1,
        cost=lambda x, s: float(np.exp(x[0]) - 3.0 * x[0]),
        grad_x=lambda x, s: np.array([np.exp(x[0]) - 3.0]),
        grad_sigma=lambda x, s: np.zeros(1),
        phi=lambda x: x.copy(),
        jac_phi=lambda x: np.ones((1, 1)),
    )
    nonquadratic = AggregativeProblem(agents=(obj, obj), m=1)
    with pytest.raises(ValueError):
        solve_kkt_quadratic(nonquadratic)


def test_centralized_flow_stationary_at_optimum(der4, der4_x_star):
    traj = centralized_flow(der4, der4_x_star, h=1e-3, t_end=1.0)
    assert np.max(np.abs(traj.x - der4_x_star)) <= 1e-10


def test_centralized_flow_reaches_oracle(der4, der4_x_star):
    traj = centralized_flow(der4, np.array([5.0, 6.0, 3.0, 8.0]), h=1e-3, t_end=60.0)
    assert np.linalg.norm(traj.x[-1] - der4_x_star) <= 1e-6


def test_centralized_flow_error_monotone(der4, der4_x_star):
    traj = centralized_flow(der4, np.array([5.0, 6.0, 3.0, 8.0]), h=1e-3, t_end=30.0, stride=10)
    errors = np.linalg.norm(traj.x - der4_x_star, axis=1)
    assert np.all(np.diff(errors) <= 1e-12)


def test_centralized_flow_steps_are_plain_rk4(der4):
    # the stopping test's gradient is reused as the next first stage: the
    # states keep every bit of plain RK4 steps of -grad f
    states = [X0]
    for _ in range(200):
        states.append(rk4_step(lambda x: -global_gradient(der4, x), states[-1], 1e-3))
    traj = centralized_flow(der4, X0, h=1e-3, t_end=0.2)
    assert np.array_equal(traj.x, states)


def test_centralized_flow_records_its_last_step_off_the_stride(der4):
    # 12 steps at stride 5: the horizon's state ends the records, as an
    # early stop's does
    states = [X0]
    for _ in range(12):
        states.append(rk4_step(lambda x: -global_gradient(der4, x), states[-1], 1e-3))
    traj = centralized_flow(der4, X0, h=1e-3, t_end=0.012, stride=5)
    assert traj.times.tolist() == [0.0, 5 * 1e-3, 10 * 1e-3, 12 * 1e-3]
    assert np.array_equal(traj.x, np.array(states)[[0, 5, 10, 12]])


def test_centralized_flow_evaluates_each_gradient_once(der4, gradient_calls):
    # ten steps: the gradient at x0, three new RK4 stages per step, and the
    # stopping test at each new state, which is the next step's first stage
    centralized_flow(der4, X0, h=1e-3, t_end=0.01)
    assert len(gradient_calls) == 1 + 10 * (3 + 1)


def test_hessian_probed_once_per_problem(der4, gradient_calls):
    # solve_kkt_quadratic and rate_metadata share the probe: the gradient at
    # 0 and at the four basis vectors, then the residual at x*
    problem = make_der_instance()
    solve_kkt_quadratic(problem)
    problem.rate_metadata
    assert len(gradient_calls) == 6
    assert quadratic_hessian(problem) is quadratic_hessian(problem)
    assert len(gradient_calls) == 6
    assert np.array_equal(quadratic_hessian(problem), quadratic_hessian(der4))


def test_centralized_flow_divergence(der4):
    with pytest.raises(DivergenceError, match=r"at t=20 \(step h=5\): x_0 = "):
        centralized_flow(der4, np.array([5.0, 6.0, 3.0, 8.0]), h=5.0, t_end=500.0)


def test_centralized_flow_rejects_bad_arguments(der4, gradient_calls):
    x0 = np.array([5.0, 6.0, 3.0, 8.0])
    for bad in (dict(h=0.0), dict(h=-1e-3), dict(h=np.nan), dict(t_end=np.inf)):
        with pytest.raises(ValueError, match="h and t_end must be positive and finite"):
            centralized_flow(der4, x0, **{"h": 1e-3, "t_end": 1.0, **bad})
    for stride in (0, -1, 2.5):
        with pytest.raises(ValueError, match="stride must be a positive integer"):
            centralized_flow(der4, x0, h=1e-3, t_end=1.0, stride=stride)
    with pytest.raises(ValueError, match=r"x0 has shape \(3,\), expected \(4,\)"):
        centralized_flow(der4, x0[:3], h=1e-3, t_end=1.0)
    with pytest.raises(ValueError, match="x0 must be finite"):
        centralized_flow(der4, np.array([5.0, np.nan, 3.0, 8.0]), h=1e-3, t_end=1.0)
    # each finite and positive, but too many steps to count
    with pytest.raises(ValueError, match=r"t_end/h = 1e\+300/1e-300 overflows"):
        centralized_flow(der4, x0, h=1e-300, t_end=1e300)
    # every argument is checked before the first gradient
    assert gradient_calls == []
    # a numpy integer is an integer stride
    assert centralized_flow(der4, x0, h=1e-3, t_end=0.01, stride=np.int64(5)).times.size == 3


def test_fit_decay_rate_exact_exponential():
    t = np.linspace(0.0, 3.0, 100)
    assert fit_decay_rate(t, np.exp(-2.0 * t)) == pytest.approx(2.0, abs=1e-6)


def test_fit_decay_rate_constant_series():
    t = np.linspace(0.0, 1.0, 50)
    assert fit_decay_rate(t, np.ones(50)) == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_rate_trims_and_errors():
    t = np.linspace(0.0, 1.0, 30)
    e = np.exp(-t)
    e[::2] = -1.0  # non-positive entries are dropped
    assert fit_decay_rate(t, e) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        fit_decay_rate(t[:8], np.exp(-t[:8]))
    with pytest.raises(ValueError):
        fit_decay_rate(t, np.full(30, 1e-12))
    with pytest.raises(ValueError, match="matching shapes"):
        fit_decay_rate(t, e[:-1])


@pytest.mark.parametrize("seed", range(10))
def test_fit_decay_rate_matches_polyfit(seed):
    # the closed-form slope against numpy's least-squares line fit; some
    # points fall below the floor and are dropped by both
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 400))
    t = np.sort(rng.uniform(0.0, rng.uniform(0.1, 500.0), n))
    e = np.exp(rng.normal(-rng.uniform(0.0, 3.0) * t / t[-1] * 10.0, rng.uniform(0.01, 2.0)))
    e[rng.random(n) < 0.05] = 1e-11
    usable = e > 1e-10
    reference = -np.polyfit(t[usable], np.log(e[usable]), 1)[0]
    assert fit_decay_rate(t, e) == pytest.approx(reference, rel=1e-12, abs=1e-300)


def test_fit_decay_rate_rejects_a_single_time():
    # a vertical line has no least-squares slope
    with pytest.raises(ValueError, match="one time"):
        fit_decay_rate(np.full(12, 3.0), np.exp(-np.arange(12.0)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_fit_decay_rate_rejects_nonfinite_times(bad):
    times = np.arange(12.0)
    times[5] = bad
    with pytest.raises(ValueError, match="times must be finite"):
        fit_decay_rate(times, np.exp(-np.arange(12.0)))


def _fitted_rate_and_bound(problem, x0):
    x_star = solve_kkt_quadratic(problem)
    traj = centralized_flow(problem, x0, h=1e-3, t_end=60.0, stride=10)
    errors = np.linalg.norm(traj.x - x_star, axis=1)
    kappa, lipschitz = problem.rate_metadata
    return fit_decay_rate(traj.times, errors), kappa / (1.0 + 2.0 * lipschitz)


def test_decay_rate_exceeds_reported_bound_der4(der4):
    rate, bound = _fitted_rate_and_bound(der4, np.array([5.0, 6.0, 3.0, 8.0]))
    assert bound > 0
    assert rate >= bound


@pytest.mark.parametrize("seed", range(5))
def test_decay_rate_exceeds_reported_bound_well_conditioned(seed):
    # draws with a >= 0.5 keep the smallest Hessian eigenvalue >= 1, where
    # the reported constant is a meaningful lower bound
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    params = DerParameters(
        a=tuple(rng.uniform(0.5, 1.5, n).tolist()),
        b=tuple(rng.uniform(0.0, 50.0, n).tolist()),
        d=tuple(rng.uniform(0.0, 10.0, n).tolist()),
        price_intercept=200.0,
        price_slope=0.1 * n,
    )
    problem = from_der_parameters(params)
    rate, bound = _fitted_rate_and_bound(problem, rng.uniform(0.0, 10.0, n))
    assert rate >= bound


@pytest.mark.parametrize("seed", range(4))
def test_flow_endpoint_matches_kkt_dispatch(seed):
    n = 2 + seed
    problem = make_dispatch_instance(n, seed)
    x_star = solve_kkt_quadratic(problem)
    eigs = np.linalg.eigvalsh(quadratic_hessian(problem))
    h = 0.5 / eigs[-1]
    t_end = float(np.log(np.linalg.norm(x_star) * 1e9) / eigs[0])
    traj = centralized_flow(problem, np.zeros(n), h=h, t_end=t_end, stride=1000)
    assert rel_err(traj.x[-1], x_star) <= 1e-5
