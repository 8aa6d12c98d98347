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
the one place that picks an evaluator, from the agents' declarations: a
network whose agents all declare ``LocalObjective.quadratic`` (the
dispatch agents do) is one vectorized affine model (:class:`Quadratic`),
and any other calls its local objectives one by one (:class:`PerAgent`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "LocalObjective",
    "DerParameters",
    "AggregativeProblem",
    "PerAgent",
    "Quadratic",
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
    cost with a linear aggregate. A network whose agents all declare it is
    one affine model (:class:`Quadratic`) and runs on the engine's step map
    (:func:`aggopt.engine.closed_loop_step`). Affinity of a callable cannot
    be detected safely (a clipped gradient is affine near any one point),
    so it is declared. A false claim is caught when the network is built,
    where the model's probes and its check point see it (``ValueError``
    naming the agent and "affine"); a claim they miss runs the model.
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


class PerAgent:
    """Any problem, one :class:`LocalObjective` call per agent; agent i owns
    the dim_x entries of the stacked decisions after those of agents < i.

    Both evaluators provide ``aggregate`` (sigma), ``cost`` and ``gradient``
    of the global cost, ``theta`` (the (N, 2m) estimator inputs; (K, N, 2m)
    for K samples stacked on a leading axis) and ``drive`` (stacked
    grad_x f_i(x_i, eta_i1) + jac_phi_i(x_i)^T eta_i2); the gradient is
    ``drive`` at exact estimates. Every method checks the shapes the agents'
    callables return; ``theta`` and ``drive`` write each agent's row or
    slice into one array per call."""

    def __init__(self, agents: tuple[LocalObjective, ...], m: int) -> None:
        self.agents = agents
        self.m = m
        offs = np.cumsum([0] + [obj.dim_x for obj in agents])
        self.slices = [slice(int(lo), int(hi)) for lo, hi in zip(offs[:-1], offs[1:])]
        # (agent, objective, its slice, grad_x's shape, jac_phi's shape)
        self.layout = [
            (i, obj, sl, (obj.dim_x,), (m, obj.dim_x))
            for i, (obj, sl) in enumerate(zip(agents, self.slices))
        ]

    def aggregate(self, x: Vector) -> Vector:
        total = np.zeros(self.m)
        for i, obj, sl, _, _ in self.layout:
            value = obj.phi(x[sl])
            _shape_error(i, ("phi", value, total.shape))
            total += value
        return total / len(self.agents)

    def cost(self, x: Vector) -> float:
        s = self.aggregate(x)
        return float(sum(obj.cost(x[sl], s) for obj, sl in zip(self.agents, self.slices)))

    def gradient(self, x: Vector) -> Vector:
        # drive at eta_i1 = s, eta_i2 = mean_j grad_sigma f_j(x_j, s) (summed in agent order)
        eta1 = np.broadcast_to(self.aggregate(x), (len(self.agents), self.m))
        eta2 = sum(self.theta(x, eta1)[:, self.m :]) / len(self.agents)
        return self.drive(x, eta1, np.broadcast_to(eta2, eta1.shape))

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


def _affine(coef: np.ndarray, offset: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Each agent's rows ``coef[i] @ z[..., i, :] + offset[i]``; einsum
    beats a stacked matmul of these small blocks at large N."""
    return np.einsum("nij,...nj->...ni", coef, z) + offset


class Quadratic(PerAgent):
    """Agents that all declare ``quadratic``, as one affine model probed
    once from the :class:`PerAgent` loops; only ``cost`` calls them after.
    Each agent's callables read only its own entries, so the closed loop is
    affine agent by agent, and the engine composes its step map from
    ``drive_coef``, ``theta_coef`` and their offsets ``drive0``, ``theta0``.

    Agent i's local coordinates are its decisions, padded to the largest
    ``dim_x`` (``gathered`` holds each agent's indices into x, a pad the
    index one past x), then eta_i1 and eta_i2; its rows are its ``drive``
    entries, then its ``theta`` row. Each coordinate is probed for all
    agents at once, by a power of two far above the offsets, so the
    coefficients keep every bit, and ``jac_phi`` stays apart from phi's
    slope. The model is checked against the loops at one irregular point of
    both signs: an agent whose rows miss by more than rounding raises
    ``ValueError`` naming it and "affine". The global gradient is drive's
    decision blocks plus a rank-2m term through
    (s, mean_j grad_sigma f_j(x_j, s)).
    """

    def __init__(self, agents: tuple[LocalObjective, ...], m: int) -> None:
        super().__init__(agents, m)
        dim, width = self.slices[-1].stop, max(obj.dim_x for obj in agents)
        self.gathered = np.full((len(agents), width), dim)
        for row, sl in zip(self.gathered, self.slices):
            row[: sl.stop - sl.start] = range(sl.start, sl.stop)
        self.scattered = np.flatnonzero(self.gathered.ravel() < dim)

        def loops(z: np.ndarray) -> np.ndarray:
            padded = np.zeros(dim + 1)
            padded[self.gathered] = z[:, :width]
            x, eta1 = padded[:dim].copy(), z[:, width : width + m]
            padded[:dim] = PerAgent.drive(self, x, eta1, z[:, width + m :])
            padded[dim] = 0.0  # the pads' rows are zero
            return np.hstack([padded[self.gathered], PerAgent.theta(self, x, eta1)])

        z = np.zeros((len(agents), width + 2 * m))
        offset = loops(z)
        scale = 2.0 ** (math.frexp(max(1.0, np.abs(offset).max()))[1] + 80)
        coef = np.empty((*z.shape, z.shape[1]))
        for c in range(z.shape[1]):
            z[:, c] = scale
            coef[..., c] = (loops(z) - offset) / scale
            z[:, c] = 0.0
        # irregular entries of both signs, from a ufunc the run calls anyway
        z = np.log(np.arange(2.0, 2.0 + z.size)).reshape(z.shape) - 2.0
        # rounding moves each row by a few 2^-53 of the sum of its terms
        tol = 2.0**-40 * _affine(np.abs(coef), np.abs(offset), np.abs(z))
        wrong = ~(np.abs(_affine(coef, offset, z) - loops(z)) <= tol).all(axis=1)
        if wrong.any():
            raise ValueError(
                f"agent {wrong.argmax()} declares quadratic, but its callables are not "
                "affine in (x_i, s): the model probed from them misses them at a test point"
            )
        self.drive_coef, self.drive0 = coef[:, :width], offset[:, :width]
        self.theta_coef, self.theta0 = coef[:, width:, : width + m], offset[:, width:]
        # (s, mean_j grad_sigma f_j(x_j, s)) = pair @ x + pair0; phi reads no eta
        slopes = self.theta_coef[..., :width].swapaxes(0, 1).reshape(2 * m, -1)
        pair = slopes[:, self.scattered] / len(agents)
        pair0 = self.theta0.sum(axis=0) / len(agents)
        reads_s = self.theta_coef[:, m:, width:].sum(axis=0) / len(agents)
        pair[m:] += reads_s @ pair[:m]
        pair0[m:] += reads_s @ pair0[:m]
        spread = coef[:, :width, width:].reshape(-1, 2 * m)[self.scattered]
        self.grad_blocks, self.pair, self.pair0 = coef[:, :width, :width], pair, pair0
        self.spread, self.grad0 = spread, self.drive0.ravel()[self.scattered] + spread @ pair0

    def _gather(self, x: Vector) -> np.ndarray:
        """Each agent's decisions, padded with zeros as ``gathered`` pads them."""
        padded = np.zeros((*x.shape[:-1], x.shape[-1] + 1))
        padded[..., :-1] = x
        return padded.take(self.gathered, axis=-1)

    def aggregate(self, x: Vector) -> Vector:
        return self.pair[: self.m] @ x + self.pair0[: self.m]

    def gradient(self, x: Vector) -> Vector:
        rows = np.einsum("nij,nj->ni", self.grad_blocks, self._gather(x))
        return rows.ravel().take(self.scattered) + self.spread @ (self.pair @ x) + self.grad0

    def theta(self, x: Vector, eta1: np.ndarray) -> np.ndarray:
        local = np.concatenate([self._gather(x), eta1], axis=-1)
        return _affine(self.theta_coef, self.theta0, local)

    def drive(self, x: Vector, eta1: np.ndarray, eta2: np.ndarray) -> Vector:
        local = np.concatenate([self._gather(x), eta1, eta2], axis=-1)
        rows = _affine(self.drive_coef, self.drive0, local)
        return rows.reshape(*rows.shape[:-2], -1).take(self.scattered, axis=-1)


@dataclass(frozen=True)
class AggregativeProblem:
    """N agents, a shared aggregation dimension m, and optional metadata.

    :attr:`network` evaluates all agents at once: as one affine model when
    every agent declares ``quadratic``, else one agent at a time.
    ``der_params`` is set by the dispatch factories as a record of their
    coefficients; no evaluation reads it.
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
    def gradient_probe(self) -> tuple[np.ndarray, np.ndarray]:
        """``(hessian, g0)``, read-only: the global-cost gradient at 0 and
        the Hessian :func:`quadratic_hessian` probes from it. The probe costs
        dim + 1 gradients, so it is taken once per problem."""
        g0 = global_gradient(self, np.zeros(self.dim))
        hess = np.column_stack([global_gradient(self, e) - g0 for e in np.eye(self.dim)])
        return _read_only(0.5 * (hess + hess.T)), _read_only(g0)

    @cached_property
    def rate_metadata(self) -> tuple[float, float] | None:
        """The pair (kappa, lipschitz) from the extreme Hessian eigenvalues
        of a problem whose agents all declare ``quadratic``; None for other
        problems, or when the Hessian is not positive definite. Reporting
        metadata only: it never steers the dynamics."""
        if not isinstance(self.network, Quadratic):
            return None
        eigs = np.linalg.eigvalsh(quadratic_hessian(self))
        lo, hi = float(eigs[0]), float(eigs[-1])
        if lo <= 0.0:
            return None
        # kappa is the tightest constant with |grad f|^2 >= (1/kappa)|x - x*|^2;
        # lipschitz is the gradient's Lipschitz constant.
        return (1.0 / lo**2, hi)

    @cached_property
    def network(self) -> PerAgent:
        """Evaluator of all agents at once, chosen from their declarations."""
        declared = all(obj.quadratic for obj in self.agents)
        return (Quadratic if declared else PerAgent)(self.agents, self.m)


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


def quadratic_hessian(problem: AggregativeProblem) -> np.ndarray:
    """Global-cost Hessian of a quadratic instance.

    Its gradient is affine, so probing it at the basis vectors recovers the
    Hessian to rounding: H[:, j] = grad(e_j) - grad(0), symmetrized. For
    another instance this is a difference quotient, not its Hessian. The
    probe is kept on the problem (:attr:`AggregativeProblem.gradient_probe`),
    and the array returned is read-only.
    """
    return problem.gradient_probe[0]


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
        for i in range(len(params.a))
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
    frozen dispatch agents form a :class:`Quadratic` network, which keeps
    the zero Jacobian apart from phi's unit slope.
    """

    def freeze(obj: LocalObjective) -> LocalObjective:
        zero_gx = _read_only(np.zeros(obj.dim_x))
        zero_jac = _read_only(np.zeros((problem.m, obj.dim_x)))
        return replace(obj, grad_x=lambda x, s: zero_gx, jac_phi=lambda x: zero_jac)

    return AggregativeProblem(agents=tuple(freeze(obj) for obj in problem.agents), m=problem.m)
