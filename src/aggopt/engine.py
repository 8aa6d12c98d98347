"""Closed-loop simulation of the distributed algorithm.

Each agent steers its decision with estimator feedback,

    x_i' = -grad_x f_i(x_i, eta_i1) - jac_phi_i(x_i)^T eta_i2,

while the PI consensus estimator runs on the fast time scale 1/delta and
exchanges information only through last-broadcast values. One fixed-step
loop advances everything, a span of grid steps at a time:

  1. advance (x, eta, w) by K steps of 4th order of :func:`closed_loop_rhs`
     with the broadcasts held (:func:`closed_loop_step`). The neighbor
     coupling reads broadcasts only, so it is computed once when some agent
     broadcasts and held in between. For the dispatch family each step is
     a per-agent affine map ``y+ = P y + Q b`` formed once per run, with
     only ``Q b`` recomputed on broadcast steps; it agrees with RK4 to
     rounding;
  2. check the K new states at once: every agent's trigger at their grid
     times (the rule lives in :class:`aggopt.triggers.TriggerRule`), then
     that the states kept are finite
     (:func:`aggopt.integrate.ensure_finite`). Agents that fire at the
     first grid time where any does overwrite their broadcast with that
     state (the error resets); the states after it are discarded, and the
     loop resumes from it;
  3. record every ``output_stride``-th grid point among the states kept.

Each state is the one a step-by-step loop, checking after every step,
computes, bit for bit, so spans change no output. The states before the
first diverged one are finite, so the first broadcast among them is found
exactly; if none comes first, the divergence check stops the run at that
state. A span never runs past a periodic agent's due step; it starts at
the last gap between broadcasts and doubles while no agent fires, up to
``SPAN_CAP``. It is one step for networks without a step map, whose
discarded RK4 steps would cost more than the checks they save.

The estimator state, its broadcasts, their neighbor coupling and its
derivative are (2, N, 2m) blocks (see :mod:`aggopt.consensus`). The
broadcasts are one copy of the state's estimator block, which the trigger
rule reads whole; a broadcast step is one masked write and one product
``L @ hats``. Records are rows of the flat state and of that copy, split
into :class:`SimResult`'s fields once, after the loop.

Triggers are evaluated at grid points only, so detected event times are
late by at most h; all agents broadcast at t = 0. Identical configurations
produce bit-identical results.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .consensus import (
    broadcast_coupling,
    estimator_derivative,
    initial_estimator_state,
    theta_stack,
)
from .graphs import Graph, is_connected, lambda_bound, laplacian
from .integrate import DivergenceError, ensure_finite, rk4_step
from .oracles import fit_decay_rate, solve_kkt_quadratic
from .problems import AggregativeProblem
from .triggers import EventLog, TriggerRule, TriggerScheme, validate_scheme

__all__ = [
    "SimConfig",
    "SimMetrics",
    "SimResult",
    "closed_loop_rhs",
    "closed_loop_step",
    "decision_rates",
    "run",
    "consensus_error",
    "DivergenceError",
]

logger = logging.getLogger(__name__)

# Most grid steps a span advances with the broadcasts held before the
# trigger rule and the divergence check look at its states.
SPAN_CAP = 32


@dataclass(frozen=True)
class SimConfig:
    """One closed-loop run.

    State layout used by the integrator is the flat vector
    ``[x (n) | the (2, N, 2m) estimator block (eta, w), row-major]``.
    """

    problem: AggregativeProblem
    graph: Graph
    delta: float
    h: float
    t_end: float
    x0: np.ndarray
    schemes: tuple[TriggerScheme, ...]
    output_stride: int = 1

    def __post_init__(self) -> None:
        if self.graph.n_nodes != self.problem.n_agents:
            raise ValueError(
                f"graph has {self.graph.n_nodes} nodes but the problem has "
                f"{self.problem.n_agents} agents"
            )
        if not all(0 < v < np.inf for v in (self.delta, self.h, self.t_end)):
            raise ValueError("delta, h, and t_end must be positive and finite")
        if not is_connected(self.graph):
            raise ValueError("the communication graph must be connected")
        if len(self.schemes) != self.problem.n_agents:
            raise ValueError("one trigger scheme per agent is required")
        if self.output_stride < 1:
            raise ValueError("output_stride must be a positive integer")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.problem.dim,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({self.problem.dim},)")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")


@dataclass
class SimMetrics:
    final_x: np.ndarray
    x_star: np.ndarray | None
    relative_error: float | None
    decision_error: np.ndarray | None   # per recorded sample
    consensus_error: np.ndarray         # per recorded sample
    fitted_decay_rate: float | None
    broadcast_counts: np.ndarray
    min_interevent: np.ndarray
    lambda_bound: float
    scheme_warnings: tuple[str, ...]


@dataclass
class SimResult:
    times: np.ndarray        # (K,)
    x: np.ndarray            # (K, n)
    eta: np.ndarray          # (K, N, 2m)
    w: np.ndarray            # (K, N, 2m)
    eta_hat: np.ndarray      # (K, N, 2m)
    w_hat: np.ndarray        # (K, N, 2m)
    events: EventLog
    metrics: SimMetrics


def _split_state(y: np.ndarray, shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Views ``(x, block)`` of the flat state, the block of the estimator's
    ``shape`` (2, N, 2m) (layout in :class:`SimConfig`)."""
    n = y.size - math.prod(shape)
    return y[:n], y[n:].reshape(shape)


def _state_entry(k: int, n_agents: int, two_m: int, n: int) -> str:
    """Name of flat-state index k: ``x_k``, or eta/w with agent and component."""
    if k < n:
        return f"x_{k}"
    block, agent, component = np.unravel_index(k - n, (2, n_agents, two_m))
    return f"{('eta', 'w')[block]}[agent {agent}, component {component}]"


def decision_rates(
    problem: AggregativeProblem, x: np.ndarray, eta1: np.ndarray, eta2: np.ndarray
) -> np.ndarray:
    """Stacked decision derivatives driven by the agents' own estimates."""
    return -problem.network.drive(x, eta1, eta2)


def closed_loop_rhs(
    problem: AggregativeProblem,
    delta: float,
    coupling: np.ndarray,
    t: float,
    y: np.ndarray,
) -> np.ndarray:
    """Derivative of the flat state ``y`` with broadcasts held fixed, which
    the (2, N, 2m) ``coupling`` (from
    :func:`aggopt.consensus.broadcast_coupling`) carries. ``t`` is unused
    but lets ``rk4_step`` integrate it with the other arguments bound."""
    m = problem.m
    x, (eta, _) = _split_state(y, coupling.shape)
    eta1 = eta[:, :m]
    out = np.empty(y.size)
    x_dot, block_dot = _split_state(out, coupling.shape)
    x_dot[:] = decision_rates(problem, x, eta1, eta[:, m:])
    estimator_derivative(eta, theta_stack(problem, x, eta1), coupling, delta, out=block_dot)
    return out


def _probed_blocks(problem: AggregativeProblem, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Agent i's block ``a[i]`` of ``A`` in the affine closed loop ``A y + b``
    (coupling held), over the flat indices ``flat[i]`` of its coordinates.
    One probe per local coordinate, set for all agents at once; the probe is
    a power of two far above the offsets, so they drop out and the division
    by it is exact: the coefficients keep every bit."""
    n_agents, shape = problem.n_agents, (2, problem.n_agents, 2 * problem.m)
    size = problem.dim + math.prod(shape)
    zeros = np.zeros(size)
    x, block = _split_state(np.arange(size), shape)
    flat = np.hstack([x.reshape(n_agents, -1), block.swapaxes(0, 1).reshape(n_agents, -1)])
    rhs = partial(closed_loop_rhs, problem, delta, np.zeros(shape), 0.0)
    offset = rhs(zeros)
    scale = 2.0 ** (math.frexp(max(1.0, np.abs(offset).max()))[1] + 80)
    a = np.empty((n_agents, flat.shape[1], flat.shape[1]))
    for c, probed in enumerate(flat.T):
        probe = zeros.copy()
        probe[probed] = scale
        a[:, :, c] = ((rhs(probe) - offset) / scale)[flat]
    return flat, a


def closed_loop_step(
    problem: AggregativeProblem, delta: float, h: float
) -> Callable[[np.ndarray], Callable[[np.ndarray, int], np.ndarray]]:
    """``step(coupling)`` returns ``advance(y, k)``: the k states after the
    flat state y, as (k, size) rows, each one RK4 step of length h of
    :func:`closed_loop_rhs` after the last with ``coupling`` held.

    For an affine network (``problem.network.affine``) RK4 on the per-agent
    blocks ``A_i`` of :func:`_probed_blocks` is exactly ``y+ = P y + Q b``,
    with ``Z = h A_i``, ``P = I + Z + Z^2/2 + Z^3/6 + Z^4/24`` and
    ``Q = h (I + Z/2 + Z^2/6 + Z^3/24)`` formed once. ``b`` is
    ``closed_loop_rhs`` at y = 0, which reads the coupling only in the
    estimator derivative: ``step`` re-evaluates that part alone. ``advance``
    keeps the k states in the agents' gathered layout and scatters them into
    flat rows once. The map is checked once against one ``rk4_step`` of
    ``closed_loop_rhs`` (``ValueError`` if they differ). Other networks take
    that ``rk4_step`` for every state.
    """
    rhs = partial(closed_loop_rhs, problem, delta)
    if not problem.network.affine:

        def rk4_steps(coupling: np.ndarray) -> Callable[[np.ndarray, int], np.ndarray]:
            field = partial(rhs, coupling)

            def advance(y: np.ndarray, k: int) -> np.ndarray:
                rows = np.empty((k, y.size))
                for r in range(k):
                    y = rows[r] = rk4_step(field, 0.0, y, h)
                return rows

            return advance

        return rk4_steps

    flat, a = _probed_blocks(problem, delta)
    zeros = np.zeros(flat.size)
    order = np.empty(flat.size, dtype=int)  # gathered position of each flat index
    order[flat.ravel()] = np.arange(flat.size)
    z = h * a
    eye = np.eye(flat.shape[1])
    z2 = z @ z
    z3 = z2 @ z
    p = eye + z + z2 / 2.0 + z3 / 6.0 + (z3 @ z) / 24.0
    q = h * (eye + z / 2.0 + z2 / 6.0 + z3 / 24.0)

    # the estimator derivative's other inputs at y = 0 are fixed, and the
    # rest of b does not read the coupling: both are evaluated once
    shape = (2, problem.n_agents, 2 * problem.m)
    b = rhs(np.zeros(shape), 0.0, zeros)
    x, (eta, _) = _split_state(zeros, shape)
    thetas = theta_stack(problem, x, eta[:, : problem.m])

    def step(coupling: np.ndarray) -> Callable[[np.ndarray, int], np.ndarray]:
        estimator_derivative(eta, thetas, coupling, delta, out=_split_state(b, shape)[1])
        qb = q @ b.take(flat)[..., None]

        def advance(y: np.ndarray, k: int) -> np.ndarray:
            gathered = np.empty((k, *flat.shape, 1))
            g = y.take(flat)[..., None]
            for r in range(k):
                g = gathered[r] = p @ g + qb
            return gathered.reshape(k, -1).take(order, axis=1)

        return advance

    # irregular entries of both signs, from a ufunc the run calls anyway:
    # numpy.random or a new ufunc would add resident memory
    irregular = np.log(np.arange(2.0, 2 * flat.size - problem.dim + 2.0)) - 2.0
    state, coupling = _split_state(irregular, shape)
    want = rk4_step(partial(rhs, coupling), 0.0, state, h)
    # rounding moves entries by a few 2^-53 of the state and the increment; a
    # wrong map misses by a share of the increment, which shrinks with h
    tol = 2.0**-40 * np.abs(want - state).max() + 2.0**-46 * np.abs(state).max()
    if not (np.abs(step(coupling)(state, 1)[0] - want).max() <= tol):
        raise ValueError(
            f"{type(problem.network).__name__} declares an affine closed loop, "
            "but one RK4 step of closed_loop_rhs disagrees with the step map probed from it"
        )
    return step


def run(cfg: SimConfig, x_star: np.ndarray | None = None) -> SimResult:
    """Execute one closed-loop run; see the module docstring for semantics.

    ``x_star`` may be supplied to skip the oracle solve; when omitted the
    quadratic stationarity solver is attempted and decision-error metrics
    are dropped if the instance is not quadratic.
    """
    problem, g = cfg.problem, cfg.graph
    n_agents, n = problem.n_agents, problem.dim
    lap = laplacian(g)
    lam = lambda_bound(lap)
    warnings = validate_scheme(cfg.schemes, lam)
    for msg in warnings:
        logger.warning(msg)
    if cfg.h > cfg.delta / 10.0:
        logger.warning(
            "step h=%g exceeds delta/10=%g; the fast subsystem may be under-resolved",
            cfg.h, cfg.delta / 10.0,
        )

    x0 = np.asarray(cfg.x0, dtype=float)
    # every agent broadcasts its initial state at t = 0
    hats = initial_estimator_state(problem, x0)
    h, delta, stride = cfg.h, cfg.delta, cfg.output_stride
    n_steps = max(1, int(round(cfg.t_end / h)))
    grid = np.arange(n_steps + 1) * h

    rule = TriggerRule(cfg.schemes)
    entry = partial(_state_entry, n_agents=n_agents, two_m=2 * problem.m, n=n)
    # (grid step, agent mask) of every broadcast, split per agent after the loop
    broadcasts = [(0, np.ones(n_agents, dtype=bool))]

    y = np.concatenate([x0, hats.ravel()])

    n_records = n_steps // stride + 1
    rec_y = np.empty((n_records, y.size))
    rec_hats = np.empty((n_records, *hats.shape))
    rec_y[0], rec_hats[0] = y, hats
    # last set-up action, so the RK4 step of the map's check marks its end
    step = closed_loop_step(problem, delta, h)
    advance = step(broadcast_coupling(lap, hats))
    # a span's states past its first broadcast are discarded: costly under
    # per-agent RK4
    cap = SPAN_CAP if problem.network.affine else 1
    k = 0  # grid step reached
    span = cap
    while k < n_steps:
        size = min(span, n_steps - k, max(1, rule.due_step(h) - k))
        rows = advance(y, size)
        times = grid[k + 1 : k + size + 1]
        # grid time n_steps ends the run without a trigger check
        checked = min(size, n_steps - 1 - k)
        fired = None
        if checked:
            estimators = rows[:checked, n:].reshape(checked, *hats.shape)
            fired = rule.fire(times[:checked], estimators, hats)
        kept = size if fired is None else fired[0] + 1
        # after the trigger rule: a broadcast before a diverged state changes it
        ensure_finite(rows[:kept], times, h, entry)
        first = -(k + 1) % stride
        if first < kept:
            recorded = rows[first:kept:stride]
            slot = (k + 1 + first) // stride
            rec_y[slot : slot + len(recorded)] = recorded
            rec_hats[slot : slot + len(recorded)] = hats
        k += kept
        y = rows[kept - 1]
        if fired is None:
            span = min(2 * size, cap)
            continue
        span = min(k - broadcasts[-1][0], cap)
        row, mask = fired
        hats[:, mask] = estimators[row][:, mask]
        advance = step(broadcast_coupling(lap, hats))
        broadcasts.append((k, mask))

    rec_t = grid[::stride].copy()
    rec_x, rec_estimator = rec_y[:, :n], rec_y[:, n:].reshape(rec_hats.shape)
    steps, masks = map(np.array, zip(*broadcasts))
    events = EventLog(times=tuple(grid[steps[mask]] for mask in masks.T))
    final_x = y[:n].copy()

    if x_star is None:
        try:
            x_star = solve_kkt_quadratic(problem)
        except ValueError:
            x_star = None
    decision_error = None
    relative_error = None
    fitted = None
    if x_star is not None:
        decision_error = np.linalg.norm(rec_x - x_star, axis=1)
        scale = np.linalg.norm(x_star)
        if scale > 0:  # undefined at the optimum x* = 0
            relative_error = float(np.linalg.norm(final_x - x_star) / scale)
        try:
            fitted = fit_decay_rate(rec_t, decision_error)
        except ValueError:
            fitted = None

    metrics = SimMetrics(
        final_x=final_x,
        x_star=x_star,
        relative_error=relative_error,
        decision_error=decision_error,
        consensus_error=consensus_error(problem, rec_x, rec_estimator[:, 0]),
        fitted_decay_rate=fitted,
        broadcast_counts=events.counts,
        min_interevent=events.min_intervals(),
        lambda_bound=lam,
        scheme_warnings=warnings,
    )
    return SimResult(
        times=rec_t, x=rec_x, eta=rec_estimator[:, 0], w=rec_estimator[:, 1],
        eta_hat=rec_hats[:, 0], w_hat=rec_hats[:, 1], events=events, metrics=metrics,
    )


def consensus_error(
    problem: AggregativeProblem, x_samples: np.ndarray, eta_samples: np.ndarray
) -> np.ndarray:
    """max_i ||eta_i(t) - mean_j Theta_j(t)|| for every sample."""
    thetas = theta_stack(problem, x_samples, eta_samples[..., : problem.m])
    target = thetas.mean(axis=-2, keepdims=True)
    return np.linalg.norm(eta_samples - target, axis=-1).max(axis=-1)
