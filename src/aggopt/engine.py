"""Closed-loop simulation of the distributed algorithm.

Each agent steers its decision with estimator feedback,

    x_i' = -grad_x f_i(x_i, eta_i1) - jac_phi_i(x_i)^T eta_i2,

while the PI consensus estimator runs on the fast time scale 1/delta and
exchanges information only through last-broadcast values. One fixed-step
loop advances everything, a span of grid steps at a time:

  1. advance (x, eta, w) by K steps of 4th order of :func:`closed_loop_rhs`
     with the broadcasts held (:func:`closed_loop_step`). The neighbor
     coupling reads broadcasts only, so it is computed once when some agent
     broadcasts and held in between. For a :class:`aggopt.problems.Quadratic`
     network (agents that all declare ``LocalObjective.quadratic``, as the
     dispatch agents do) a step is a per-agent affine map ``y+ = P y + Q b``
     composed once per run from the model, with only ``b`` recomputed on
     broadcast steps; it agrees with RK4 to rounding. The state j steps
     after its anchor ``y_a`` is ``P^j y_a + S_j b``
     (``S_j = sum_{i<j} P^i Q``), so the K states are two batched products
     from the anchor. The anchor is the state at the last broadcast, or at
     every ``SPAN_CAP``-th quiet step after it. Other networks take one RK4
     step of the field per state;
  2. check the K new states at once: every agent's trigger at their grid
     times (the rule lives in :class:`aggopt.triggers.TriggerRule`), then
     that the states kept are finite
     (:func:`aggopt.integrate.ensure_finite`). Agents that fire at the
     first grid time where any does overwrite their broadcast with that
     state (the error resets); the states after it are discarded, and the
     loop resumes from it;
  3. record every ``output_stride``-th grid point among the states kept,
     and the last grid point, which ends the records also off the stride.

Each state is the one a step-by-step loop, checking after every step and
re-anchoring by the same rule, computes, bit for bit: anchors fall at
broadcasts and every ``SPAN_CAP`` quiet steps, not at span ends, so spans
change no output. ``P^1 = P`` and ``S_1 = Q`` are used as formed, so a
state one step from its anchor has the bits of ``P y + Q b``: runs in which
some agent broadcasts at every step (continuous agents) keep the bits of a
one-step map, and so does per-agent RK4. ``P^j`` and ``S_j`` take
``2 SPAN_CAP N d^2`` floats (d: the largest dim_x, plus 4m; 12.8 MB at
N = 1000, d = 5) and are formed as far as spans reach, after the map's
check. The states before the first diverged one are finite, so the first
broadcast among them is found exactly; if none comes first, the divergence
check stops the run at that state. A span ends where some agent fires or
where the step map re-anchors: the states come only up to the next anchor,
so a span is at most ``SPAN_CAP`` steps, and one step for networks without
a step map (local objectives not declared quadratic), where every state is
its own anchor. Its requested length starts at the last gap between
broadcasts and doubles while no agent fires.

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
from .integrate import DivergenceError, ensure_finite, finite_vector, rk4_step
from .oracles import fit_decay_rate, solve_kkt_quadratic
from .problems import AggregativeProblem, Quadratic
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

# The step map re-anchors every SPAN_CAP quiet steps and keeps that many
# powers of P; a span ends at the next anchor, so it is at most SPAN_CAP grid
# steps before the trigger rule and the divergence check look at its states.
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
        if not (isinstance(self.output_stride, (int, np.integer)) and self.output_stride >= 1):
            raise ValueError("output_stride must be a positive integer")
        finite_vector("x0", self.x0, self.problem.dim)


@dataclass(eq=False)
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
    warnings: tuple[str, ...]


@dataclass(eq=False)
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


def _blocks(problem: AggregativeProblem, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Agent i's block ``a[i]`` of ``A`` in the closed loop ``A y + b``
    (coupling held) of a :class:`Quadratic` network, over the flat indices
    ``flat[i]`` of its decisions, padded as ``gathered`` pads them (a pad is
    the index one past the state, with a zero row and column), then its eta
    and w. The decision rows are ``-drive_coef[i]``, the eta rows
    ``theta_coef[i]`` less the identity on the eta columns, over delta, and
    the w rows zero."""
    net, n_agents, m = problem.network, problem.n_agents, problem.m
    shape = (2, n_agents, 2 * m)
    size = problem.dim + math.prod(shape)
    block = _split_state(np.arange(size), shape)[1]
    xs = np.where(net.gathered < problem.dim, net.gathered, size)
    flat = np.hstack([xs, block.swapaxes(0, 1).reshape(n_agents, -1)])
    width = xs.shape[1]
    eta = slice(width, width + 2 * m)
    a = np.zeros((n_agents, flat.shape[1], flat.shape[1]))
    a[:, :width, : eta.stop] = -net.drive_coef
    a[:, eta, : width + m] = net.theta_coef
    a[:, eta, eta] -= np.eye(2 * m)
    a[:, eta] /= delta
    return flat, a


def closed_loop_step(
    problem: AggregativeProblem, delta: float, h: float
) -> Callable[[np.ndarray, np.ndarray], Callable[[int], np.ndarray]]:
    """``step(coupling, y)`` returns ``advance(k)``: the next states after
    the flat state y up to the next anchor, at most k of them, as (rows,
    size) rows, each one RK4 step of length h of :func:`closed_loop_rhs`
    after the last with ``coupling`` held. Each call continues from the last
    state the one before returned.

    For a :class:`aggopt.problems.Quadratic` network RK4 on the per-agent
    blocks ``A_i`` of :func:`_blocks` is exactly ``y+ = P y + Q b``, with
    ``Z = h A_i``, ``P = I + Z + Z^2/2 + Z^3/6 + Z^4/24`` and
    ``Q = h (I + Z/2 + Z^2/6 + Z^3/24)`` formed once. ``b`` is
    ``closed_loop_rhs`` at y = 0, from the model's offsets; only its
    estimator derivative reads the coupling, and ``step`` re-evaluates that
    part alone. The state j
    steps after its anchor ``y_a`` is ``P^j y_a + S_j b``, with
    ``S_j = sum_{i<j} P^i Q``: ``advance`` takes its rows from the anchor in
    two batched products. The anchor is y, and every ``SPAN_CAP``-th state
    after it becomes the next, so each state is the same whatever k the
    calls ask for. ``P^1 = P`` and ``S_1 = Q`` are used as formed, so a state
    one step from its anchor has the bits of one step of the map; the
    higher powers are formed, once, as far as calls reach. ``advance``
    keeps the states in the agents' gathered layout and scatters them into
    flat rows once. Padded coordinates gather a zero after the state; their
    rows and columns of ``A_i`` are zero, so they stay zero, and they are
    never scattered.
    The map is checked once against one ``rk4_step`` of ``closed_loop_rhs``
    (``ValueError`` naming "affine" if they differ), which catches an
    evaluator that is affine in name only, or a wrong composition; the
    model has checked each agent's declaration already. Other networks
    take that ``rk4_step`` for every state, each its own anchor, so
    ``advance`` returns one row.
    """
    rhs = partial(closed_loop_rhs, problem, delta)
    if not isinstance(problem.network, Quadratic):

        def rk4_steps(coupling: np.ndarray, y: np.ndarray) -> Callable[[int], np.ndarray]:
            field = partial(rhs, coupling)

            def advance(k: int) -> np.ndarray:
                nonlocal y
                y = rk4_step(field, 0.0, y, h)
                return y[None]

            return advance

        return rk4_steps

    flat, a = _blocks(problem, delta)
    shape = (2, problem.n_agents, 2 * problem.m)
    size = problem.dim + math.prod(shape)
    n_agents, d = flat.shape
    # gathered position of each flat index; the pads' slot past the state is dropped
    order = np.empty(size + 1, dtype=int)
    order[flat.ravel()] = np.arange(flat.size)
    order = order[:size]
    padded = np.zeros(size + 1)  # a flat state, then the pads' zero
    z = h * a
    eye = np.eye(d)
    z2 = z @ z
    z3 = z2 @ z
    # rows (j - 1) d to j d of powers[i] are agent i's P^j, and of sums[i]
    # its S_j, so that consecutive j are one (j d, d) matrix per agent
    powers = np.empty((n_agents, SPAN_CAP * d, d))
    sums = np.empty_like(powers)
    p, q = powers[:, :d], sums[:, :d]
    p[:] = eye + z + z2 / 2.0 + z3 / 6.0 + (z3 @ z) / 24.0
    q[:] = h * (eye + z / 2.0 + z2 / 6.0 + z3 / 24.0)
    formed = 1

    def form(j: int) -> None:
        """Form the powers and sums up to j."""
        nonlocal formed
        for i in range(formed * d, j * d, d):
            last = powers[:, i - d : i]
            powers[:, i : i + d] = p @ last
            sums[:, i : i + d] = sums[:, i - d : i] + last @ q
        formed = j

    net = problem.network
    b = np.zeros(size + 1)  # b, then the pads' zero
    b_x, b_block = _split_state(b[:size], shape)
    b_x[:] = -net.drive0.ravel().take(net.scattered)
    eta0 = np.zeros(shape[1:])

    def step(coupling: np.ndarray, y: np.ndarray) -> Callable[[int], np.ndarray]:
        estimator_derivative(eta0, net.theta0, coupling, delta, out=b_block)
        gathered_b = b.take(flat)[..., None]
        padded[:size] = y
        anchor = padded.take(flat)[..., None]
        j = 0  # steps from the anchor

        def advance(k: int) -> np.ndarray:
            nonlocal anchor, j
            k = min(k, SPAN_CAP - j)
            if j + k > formed:
                form(j + k)
            rows = slice(j * d, (j + k) * d)
            ahead = powers[:, rows] @ anchor + sums[:, rows] @ gathered_b
            j += k
            if j == SPAN_CAP:
                anchor, j = ahead[:, -d:], 0
            return ahead.reshape(n_agents, k, d).swapaxes(0, 1).reshape(k, -1).take(order, axis=1)

        return advance

    # irregular entries of both signs, from a ufunc the run calls anyway:
    # numpy.random or a new ufunc would add resident memory
    irregular = np.log(np.arange(2.0, 2 * size - problem.dim + 2.0)) - 2.0
    state, coupling = _split_state(irregular, shape)
    want = rk4_step(partial(rhs, coupling), 0.0, state, h)
    # rounding moves entries by a few 2^-53 of the state and the increment; a
    # wrong map misses by a share of the increment, which shrinks with h
    tol = 2.0**-40 * np.abs(want - state).max() + 2.0**-46 * np.abs(state).max()
    if not (np.abs(step(coupling, state)(1)[0] - want).max() <= tol):
        raise ValueError(
            f"{type(problem.network).__name__} declares an affine closed loop, but one "
            "RK4 step of closed_loop_rhs disagrees with the step map composed from its model"
        )
    return step


def run(cfg: SimConfig, x_star: np.ndarray | None = None) -> SimResult:
    """Execute one closed-loop run; see the module docstring for semantics.

    ``x_star``, a finite (dim,) vector, skips the oracle solve; when omitted
    the quadratic stationarity solver is attempted and decision-error
    metrics are dropped if the instance is not quadratic. The warnings are
    ``metrics.warnings``, or a raised ``DivergenceError``'s ``warnings``.
    """
    problem, g = cfg.problem, cfg.graph
    n_agents, n = problem.n_agents, problem.dim
    if x_star is not None:
        x_star = finite_vector("x_star", x_star, n)
    lap = laplacian(g)
    lam = lambda_bound(lap)
    warnings = validate_scheme(cfg.schemes, lam)
    if cfg.h > cfg.delta / 10.0:
        warnings += (
            f"step h={cfg.h:g} exceeds delta/10={cfg.delta / 10.0:g}; "
            "the fast subsystem may be under-resolved",
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

    # every stride-th grid step, then the last one if it falls off the stride
    rec_steps = np.minimum(np.arange(0, n_steps + stride, stride), n_steps)
    n_records = rec_steps.size
    rec_y = np.empty((n_records, y.size))
    rec_hats = np.empty((n_records, *hats.shape))
    rec_y[0], rec_hats[0] = y, hats
    # last set-up action, so the RK4 step of the map's check marks its end
    step = closed_loop_step(problem, delta, h)
    advance = step(broadcast_coupling(lap, hats), y)
    k = 0  # grid step reached
    span = n_steps  # steps asked of advance, which stops at the next anchor
    while k < n_steps:
        rows = advance(min(span, n_steps - k))
        size = len(rows)
        times = grid[k + 1 : k + size + 1]
        # grid time n_steps ends the run without a trigger check
        checked = min(size, n_steps - 1 - k)
        fired = None
        if checked:
            estimators = rows[:checked, n:].reshape(checked, *hats.shape)
            fired = rule.fire(times[:checked], estimators, hats)
        kept = size if fired is None else fired[0] + 1
        # after the trigger rule: a broadcast before a diverged state changes it
        try:
            ensure_finite(rows[:kept], times, h, entry, rule.advice)
        except DivergenceError as exc:
            exc.warnings = warnings
            raise
        first = -(k + 1) % stride
        if first < kept:
            recorded = rows[first:kept:stride]
            slot = (k + 1 + first) // stride
            rec_y[slot : slot + len(recorded)] = recorded
            rec_hats[slot : slot + len(recorded)] = hats
        k += kept
        y = rows[kept - 1]
        if fired is None:
            span = 2 * size
            continue
        span = k - broadcasts[-1][0]
        row, mask = fired
        hats[:, mask] = estimators[row][:, mask]
        advance = step(broadcast_coupling(lap, hats), y)
        broadcasts.append((k, mask))

    rec_y[-1], rec_hats[-1] = y, hats
    rec_t = grid[rec_steps]
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
        warnings=warnings,
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
