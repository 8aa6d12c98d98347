"""Aggregative optimization instances.

Each agent i owns a decision x_i and a local objective f_i(x_i, s) that also
depends on the network aggregate s = sigma(x) = (1/N) sum_j phi_j(x_j). The
global cost is sum_i f_i(x_i, sigma(x)). Two factories build the
price-anticipating dispatch family, where unit i pays a quadratic generation
cost and sells at a price that falls linearly with the average output:

    f_i(x_i, s) = a_i x_i^2 + b_i x_i + d_i - (c0 - c1 * s) * x_i

with price intercept c0 and slope c1. For that family the global cost is a
strictly convex quadratic whose Hessian is ``2 diag(a) + (2 c1 / N) ones``.

Every network-wide evaluation goes through ``AggregativeProblem.network``,
the one place that picks the vectorized :class:`DispatchFamily` (for
problems with dispatch coefficients) or the :class:`PerAgent` loop over the
local objectives. Both give identical results on dispatch instances, and
the dispatch agents declare themselves ``quadratic``, so both forms of a
dispatch instance run on the same step map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "LocalObjective",
    "DerParameters",
    "AggregativeProblem",
    "DispatchFamily",
    "PerAgent",
    "theta",
    "sigma",
    "global_cost",
    "global_gradient",
    "quadratic_hessian",
    "from_der_parameters",
    "make_der_instance",
    "make_dispatch_instance",
    "with_frozen_decisions",
    "DER4_PUBLISHED_SOLUTION",
]

Vector = np.ndarray

# Operating point published for the four-unit preset alongside its
# coefficients. It does not satisfy the stationarity condition of those
# coefficients; solvers here report the computed optimum and carry this
# value only for comparison in summary records.
DER4_PUBLISHED_SOLUTION = (188.0, 377.5, 236.2, 266.9)


@dataclass(frozen=True)
class LocalObjective:
    """One agent's objective, aggregation map, and analytic derivatives.

    All callables take/return numpy arrays: ``cost(x_i, s)`` is scalar,
    ``grad_x`` returns shape (dim_x,), ``grad_sigma`` and ``phi`` shape
    (m,), and ``jac_phi`` the (m, dim_x) Jacobian. The simulator checks
    these shapes and raises ``ValueError`` naming the agent and the
    callable on a mismatch. It never writes to a returned array, so a
    callable may return the same array every time, read-only or not.

    ``quadratic`` declares that ``grad_x``, ``grad_sigma`` and ``phi`` are
    affine in ``(x_i, s)`` and ``jac_phi`` is constant, as for a quadratic
    cost with a linear aggregate. A network whose agents all declare it
    runs on the engine's precomputed step map (see
    :func:`aggopt.engine.closed_loop_step`), whose states agree with RK4
    of the right-hand side to rounding, not bit for bit. Affinity of a
    callable cannot be detected safely (a clipped gradient is affine near
    any one point), so it is declared. A false claim is caught only where
    the map's one-point check sees it, with a ``ValueError`` naming
    "affine"; a claim it misses runs the affine model probed at zero.
    """

    dim_x: int
    cost: Callable[[Vector, Vector], float]
    grad_x: Callable[[Vector, Vector], Vector]
    grad_sigma: Callable[[Vector, Vector], Vector]
    phi: Callable[[Vector], Vector]
    jac_phi: Callable[[Vector], Vector]
    quadratic: bool = False


@dataclass(frozen=True)
class DerParameters:
    """Coefficient set of the quadratic dispatch family (scalar decisions).

    The price seen by every unit is ``price_intercept - price_slope * s``
    where s is the average output.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    d: tuple[float, ...]
    price_intercept: float
    price_slope: float

    def __post_init__(self) -> None:
        if not (len(self.a) == len(self.b) == len(self.d)):
            raise ValueError("a, b, d must have equal length")
        if len(self.a) < 1:
            raise ValueError("need at least one unit")

    @property
    def n_units(self) -> int:
        return len(self.a)


def _shape_error(agent: int | None, *returned: tuple[str, np.ndarray, tuple[int, ...]]) -> None:
    """Raise ``ValueError`` for the first ``(name, value, shape)`` whose
    value, returned by a local objective's callable ``name``, is not of
    ``shape``, naming the agent, the callable and both shapes."""
    for name, value, shape in returned:
        if value.shape != shape:
            who = "" if agent is None else f"agent {agent}: "
            raise ValueError(
                f"{who}{name} returned shape {value.shape}, expected {shape}; phi and "
                "grad_sigma must both return m-vectors, grad_x dim_x entries and jac_phi "
                "the (m, dim_x) Jacobian"
            )


def _write_theta(
    row: np.ndarray, obj: LocalObjective, x_i: np.ndarray, eta_i1: np.ndarray, agent: int | None
) -> None:
    """Write Theta_i, phi_i(x_i) over grad_sigma f_i(x_i, eta_i1), into the
    2m-vector ``row``; m is the size of the estimate ``eta_i1``."""
    m = eta_i1.size
    top = obj.phi(x_i)
    bottom = obj.grad_sigma(x_i, eta_i1)
    if top.shape != (m,) or bottom.shape != (m,):
        _shape_error(agent, ("phi", top, (m,)), ("grad_sigma", bottom, (m,)))
    row[:m] = top
    row[m:] = bottom


def theta(obj: LocalObjective, x_i: np.ndarray, eta_i1: np.ndarray) -> np.ndarray:
    """Local estimator input: phi_i(x_i) stacked over grad_sigma f_i(x_i, eta_i1),
    both m-vectors for the m-vector ``eta_i1``."""
    x_i = np.asarray(x_i, dtype=float)
    eta_i1 = np.asarray(eta_i1, dtype=float)
    row = np.empty(2 * eta_i1.size)
    _write_theta(row, obj, x_i, eta_i1, None)
    return row


class DispatchFamily:
    """All units of a dispatch instance at once, as vector expressions in
    the coefficients (phi is the identity and m = 1).

    Both evaluators provide ``aggregate`` (sigma), ``cost`` and ``gradient``
    of the global cost, ``theta`` (the (N, 2m) estimator inputs; (K, N, 2m)
    for K samples stacked on a leading axis) and ``drive`` (stacked
    grad_x f_i(x_i, eta_i1) + jac_phi_i(x_i)^T eta_i2), and ``affine``:
    whether ``theta`` and ``drive`` are affine in (x, eta1, eta2) with each
    agent's rows reading only that agent's entries, which lets the engine
    advance the closed loop by a precomputed per-agent step map. The
    dispatch family is always affine; a :class:`PerAgent` network is when
    every agent declares ``quadratic``, and then both evaluators give the
    same step map, bit for bit.
    """

    affine = True

    def __init__(self, params: DerParameters) -> None:
        self.a = np.array(params.a)
        self.b = np.array(params.b)
        self.d = np.array(params.d)
        self.c0 = params.price_intercept
        self.c1 = params.price_slope
        self.two_a = 2.0 * self.a
        # theta's two columns are phi(x) = x and grad_sigma = c1 * x
        self.theta_scale = np.array([1.0, self.c1])

    def aggregate(self, x: Vector) -> Vector:
        return np.array([x.mean()])

    def cost(self, x: Vector) -> float:
        price = self.c0 - self.c1 * self.aggregate(x)[0]
        return float(self.a @ x**2 + self.b @ x + self.d.sum() - price * x.sum())

    def gradient(self, x: Vector) -> Vector:
        # phi is the identity, so the aggregate-sensitivity term collapses
        # to price_slope * mean(x) = price_slope * s.
        return self.two_a * x + self.b - self.c0 + 2.0 * self.c1 * self.aggregate(x)[0]

    def theta(self, x: Vector, eta1: np.ndarray) -> np.ndarray:
        return x[..., None] * self.theta_scale

    def drive(self, x: Vector, eta1: np.ndarray, eta2: np.ndarray) -> Vector:
        return self.two_a * x + self.b - self.c0 + self.c1 * eta1[:, 0] + eta2[:, 0]


class PerAgent:
    """Any problem, one :class:`LocalObjective` call per agent; agent i owns
    the dim_x entries of the stacked decisions after those of agents < i.

    Every method checks the shapes the agents' callables return;
    ``theta`` and ``drive`` write each agent's row or slice into one array
    per call. ``affine`` holds when every agent declares ``quadratic``:
    each agent's callables read only its own entries, so the closed loop
    is then affine agent by agent."""

    def __init__(self, agents: tuple[LocalObjective, ...], m: int) -> None:
        self.agents = agents
        self.m = m
        self.affine = all(obj.quadratic for obj in agents)
        offs = np.cumsum([0] + [obj.dim_x for obj in agents])
        self.slices = [slice(int(lo), int(hi)) for lo, hi in zip(offs[:-1], offs[1:])]
        # (agent, objective, its slice, grad_x's shape, jac_phi's shape)
        self.layout = [
            (i, obj, sl, (obj.dim_x,), (m, obj.dim_x))
            for i, (obj, sl) in enumerate(zip(agents, self.slices))
        ]

    def blocks(self, x: Vector) -> list[Vector]:
        return [x[sl] for sl in self.slices]

    def aggregate(self, x: Vector) -> Vector:
        total = np.zeros(self.m)
        for i, obj, sl, _, _ in self.layout:
            value = obj.phi(x[sl])
            _shape_error(i, ("phi", value, total.shape))
            total += value
        return total / len(self.agents)

    def cost(self, x: Vector) -> float:
        s = self.aggregate(x)
        return float(sum(obj.cost(x_i, s) for obj, x_i in zip(self.agents, self.blocks(x))))

    def gradient(self, x: Vector) -> Vector:
        s = self.aggregate(x)
        total_gs = np.zeros(self.m)
        for i, obj, sl, _, _ in self.layout:
            value = obj.grad_sigma(x[sl], s)
            _shape_error(i, ("grad_sigma", value, total_gs.shape))
            total_gs += value
        out = np.empty(x.size)
        for i, obj, sl, grad_shape, jac_shape in self.layout:
            grad, jac = obj.grad_x(x[sl], s), obj.jac_phi(x[sl])
            _shape_error(i, ("grad_x", grad, grad_shape), ("jac_phi", jac, jac_shape))
            out[sl] = grad + jac.T @ total_gs / len(self.agents)
        return out

    def theta(self, x: Vector, eta1: np.ndarray) -> np.ndarray:
        if x.ndim > 1:
            return np.stack([self.theta(x_k, eta1_k) for x_k, eta1_k in zip(x, eta1)])
        out = np.empty((len(self.agents), 2 * self.m))
        for i, obj, sl, _, _ in self.layout:
            _write_theta(out[i], obj, x[sl], eta1[i], i)
        return out

    def drive(self, x: Vector, eta1: np.ndarray, eta2: np.ndarray) -> Vector:
        out = np.empty(x.size)
        for i, obj, sl, grad_shape, jac_shape in self.layout:
            x_i = x[sl]
            grad = obj.grad_x(x_i, eta1[i])
            jac = obj.jac_phi(x_i)
            if grad.shape != grad_shape or jac.shape != jac_shape:
                _shape_error(i, ("grad_x", grad, grad_shape), ("jac_phi", jac, jac_shape))
            # eta_i2 . J_i is J_i^T eta_i2 bit for bit, without the transpose
            np.add(grad, eta2[i].dot(jac), out=out[sl])
        return out


@dataclass(frozen=True)
class AggregativeProblem:
    """N agents, a shared aggregation dimension m, and optional metadata.

    ``der_params`` is set by the dispatch factories; :attr:`network` reads
    it to choose vectorized evaluation of the whole network over the
    per-agent loop, and :attr:`rate_metadata` derives the rate constants
    from it.
    """

    agents: tuple[LocalObjective, ...]
    m: int
    der_params: DerParameters | None = None

    def __post_init__(self) -> None:
        if len(self.agents) < 1:
            raise ValueError("need at least one agent")
        if self.m < 1:
            raise ValueError("aggregation dimension must be positive")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @cached_property
    def dim(self) -> int:
        return sum(obj.dim_x for obj in self.agents)

    @cached_property
    def rate_metadata(self) -> tuple[float, float] | None:
        """The pair (kappa, lipschitz) from the extreme Hessian eigenvalues
        of a dispatch instance; None for other problems, or when the
        Hessian is not positive definite. Reporting metadata only: it never
        steers the dynamics."""
        if self.der_params is None:
            return None
        eigs = np.linalg.eigvalsh(quadratic_hessian(self.der_params))
        lo, hi = float(eigs[0]), float(eigs[-1])
        if lo <= 0.0:
            return None
        # kappa is the tightest constant with |grad f|^2 >= (1/kappa)|x - x*|^2;
        # lipschitz is the gradient's Lipschitz constant.
        return (1.0 / lo**2, hi)

    @cached_property
    def network(self) -> DispatchFamily | PerAgent:
        """Evaluator of all agents at once, chosen from the problem itself."""
        if self.der_params is not None:
            return DispatchFamily(self.der_params)
        return PerAgent(self.agents, self.m)


def _check_dim(problem: AggregativeProblem, x: Vector) -> Vector:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"decision vector has shape {x.shape}, expected ({problem.dim},)")
    return x


def sigma(problem: AggregativeProblem, x: Vector) -> Vector:
    """Network aggregate (1/N) sum_i phi_i(x_i), an m-vector."""
    return problem.network.aggregate(_check_dim(problem, x))


def global_cost(problem: AggregativeProblem, x: Vector) -> float:
    """sum_i f_i(x_i, sigma(x))."""
    return problem.network.cost(_check_dim(problem, x))


def global_gradient(problem: AggregativeProblem, x: Vector) -> Vector:
    """Stacked gradient of the global cost.

    Block i is grad_x f_i(x_i, s) + (1/N) jac_phi_i(x_i)^T sum_j grad_sigma f_j(x_j, s)
    evaluated at s = sigma(x); at the optimum every block vanishes.
    """
    return problem.network.gradient(_check_dim(problem, x))


def quadratic_hessian(params: DerParameters) -> np.ndarray:
    """Exact global-cost Hessian of a dispatch instance."""
    a = np.array(params.a)
    n = params.n_units
    return 2.0 * np.diag(a) + (2.0 * params.price_slope / n) * np.ones((n, n))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _der_agent(a: float, b: float, d: float, c0: float, c1: float) -> LocalObjective:
    jac = _read_only(np.ones((1, 1)))

    def cost(x: Vector, s: Vector) -> float:
        return float(a * x[0] ** 2 + b * x[0] + d - (c0 - c1 * s[0]) * x[0])

    def grad_x(x: Vector, s: Vector) -> Vector:
        return np.array([2.0 * a * x[0] + b - c0 + c1 * s[0]])

    def grad_sigma(x: Vector, s: Vector) -> Vector:
        return np.array([c1 * x[0]])

    def phi(x: Vector) -> Vector:
        return np.array([x[0]])

    def jac_phi(x: Vector) -> Vector:
        return jac

    return LocalObjective(1, cost, grad_x, grad_sigma, phi, jac_phi, quadratic=True)


def from_der_parameters(params: DerParameters) -> AggregativeProblem:
    """Build an aggregative problem from explicit dispatch coefficients."""
    c0, c1 = params.price_intercept, params.price_slope
    agents = tuple(
        _der_agent(params.a[i], params.b[i], params.d[i], c0, c1)
        for i in range(params.n_units)
    )
    return AggregativeProblem(agents=agents, m=1, der_params=params)


def make_der_instance() -> AggregativeProblem:
    """Four-unit microgrid preset with its standard coefficient set."""
    params = DerParameters(
        a=(1.0, 0.5, 0.8, 0.7),
        b=(12.0, 10.0, 11.0, 11.0),
        d=(5.0, 8.0, 6.0, 9.0),
        price_intercept=200.0,
        price_slope=0.1 * 4,
    )
    return from_der_parameters(params)


def make_dispatch_instance(n: int, seed: int) -> AggregativeProblem:
    """n generating units with coefficients drawn uniformly from
    a in [0.0024, 0.0779], b in [8, 35], d in [7, 60]; deterministic per seed."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0024, 0.0779, n)
    b = rng.uniform(8.0, 35.0, n)
    d = rng.uniform(7.0, 60.0, n)
    params = DerParameters(
        a=tuple(a.tolist()),
        b=tuple(b.tolist()),
        d=tuple(d.tolist()),
        price_intercept=200.0,
        price_slope=0.1 * n,
    )
    return from_der_parameters(params)


def with_frozen_decisions(problem: AggregativeProblem) -> AggregativeProblem:
    """Variant whose decision dynamics are identically zero.

    Keeps phi and grad_sigma (hence the estimator input signals) but zeroes
    grad_x and jac_phi, so only the estimator evolves. Used for
    estimator-only experiments; the returned objectives deliberately break
    the gradient/cost consistency of real instances. Each agent's zero
    gradient and zero Jacobian are one read-only array, returned every call.
    Zeros are affine, so each agent keeps its ``quadratic`` declaration:
    frozen dispatch agents run on the engine's step map.
    """

    def freeze(obj: LocalObjective) -> LocalObjective:
        zero_gx = _read_only(np.zeros(obj.dim_x))
        zero_jac = _read_only(np.zeros((problem.m, obj.dim_x)))
        return replace(obj, grad_x=lambda x, s: zero_gx, jac_phi=lambda x: zero_jac)

    return AggregativeProblem(agents=tuple(freeze(obj) for obj in problem.agents), m=problem.m)
