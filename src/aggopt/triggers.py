"""Communication scheduling: when does an agent rebroadcast its estimator
state to its neighbors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Continuous",
    "Periodic",
    "Event",
    "TriggerScheme",
    "EventLog",
    "TriggerRule",
    "zeno_lower_bound",
    "validate_scheme",
    "zeno_bound_constants",
]

# absolute tolerance of the bisection in zeno_lower_bound
ZENO_BISECTION_TOL = 1e-12
# a periodic agent falls due this much before a whole number of periods
DUE_SLACK = 1e-9


@dataclass(frozen=True)
class Continuous:
    """Broadcast at every integration grid point."""


@dataclass(frozen=True)
class Periodic:
    """Broadcast every ``period`` time units."""

    period: float


@dataclass(frozen=True)
class Event:
    """Broadcast when the measurement error reaches beta1 * exp(-beta2 * t).

    t is absolute simulation time, not time since the last event.
    """

    beta1: float
    beta2: float


TriggerScheme = Union[Continuous, Periodic, Event]


@dataclass(frozen=True)
class EventLog:
    """Per-agent broadcast instants, strictly increasing within each agent."""

    times: tuple[np.ndarray, ...]

    @property
    def counts(self) -> np.ndarray:
        return np.array([t.size for t in self.times])

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def min_intervals(self) -> np.ndarray:
        """Smallest gap between consecutive events per agent (inf if < 2 events)."""
        out = np.full(len(self.times), np.inf)
        for i, t in enumerate(self.times):
            if t.size >= 2:
                out[i] = float(np.diff(t).min())
        return out


class TriggerRule:
    """Every agent's broadcast rule at once, for one run of validated schemes:
    it keeps the periodic agents' next due times, which start one period
    after the broadcast every agent makes at t = 0.

    :meth:`fire` checks a span of K grid times, with the broadcasts held, in
    one pass: arrays carry a leading grid-time axis, and the first time at
    which some agent fires ends the span."""

    def __init__(self, schemes: Sequence[TriggerScheme]) -> None:
        self.continuous = np.array([isinstance(s, Continuous) for s in schemes])
        self.periodic = np.array([isinstance(s, Periodic) for s in schemes])
        self.event = np.array([isinstance(s, Event) for s in schemes])
        self.period = np.array([getattr(s, "period", np.inf) for s in schemes], dtype=float)
        self.beta1 = np.array([getattr(s, "beta1", 0.0) for s in schemes], dtype=float)
        self.beta2 = np.array([getattr(s, "beta2", 0.0) for s in schemes], dtype=float)
        self.next_due = self.period.copy()
        self.any_periodic = bool(self.periodic.any())
        self.any_event = bool(self.event.any())

    def threshold(self, t: float | np.ndarray) -> np.ndarray:
        """Per-agent event threshold beta1 * exp(-beta2 * t); 0 for other
        agents. A column of times gives one row per time."""
        return self.beta1 * np.exp(-self.beta2 * t)

    def due_step(self, h: float) -> float:
        """Index k of the grid time k h at which the next periodic agent
        falls due (rounding may put it one step off); inf without periodic
        agents."""
        if not self.any_periodic:
            return math.inf
        return math.ceil((self.next_due.min() - DUE_SLACK) / h)

    def fire(
        self, times: np.ndarray, estimators: np.ndarray, hats: np.ndarray
    ) -> tuple[int, np.ndarray] | None:
        """The first of K grid times at which some agent broadcasts, as
        ``(row, mask)``, or None if no agent does at any of them.

        ``times`` (K,) are grid times in order, ``estimators`` the (K, 2, N,
        2m) blocks of (eta, w) at those times and ``hats`` the (2, N, 2m)
        block of last broadcasts, held over all K rows. Each row is decided
        with the arithmetic of a call with that row alone.

        Continuous agents always fire. A periodic agent fires once t reaches
        its due time less ``DUE_SLACK``; the due time then advances by one
        period, for the returned row only. An event agent fires when the norm of its stacked
        broadcast-minus-true error reaches the threshold (inclusive
        comparison).
        """
        t = times[:, None]
        if self.any_event:
            d = hats - estimators
            err = np.sqrt(np.einsum("rkij,rkij->ri", d, d))
            fires = self.event & (err >= self.threshold(t))
        else:
            fires = np.zeros((times.size, self.event.size), dtype=bool)
        if self.any_periodic:
            due = self.periodic & (t >= self.next_due - DUE_SLACK)
            fires |= due
        fires |= self.continuous
        first = int(fires.argmax())
        if not fires.ravel()[first]:
            return None
        row = first // self.event.size
        if self.any_periodic:
            self.next_due[due[row]] += self.period[due[row]]
        return row, fires[row]


def zeno_lower_bound(m1: float, m2: float, beta1: float, beta2: float) -> float:
    """Unique root T of (m1 + m2) T = beta1 exp(-beta2 T).

    T lower-bounds the gap between consecutive events when m1 + m2 bounds
    the growth rate of the measurement error, which is why a positive root
    rules out accumulation of events in finite time. Solved by bisection on
    [0, beta1 / (m1 + m2)] to absolute tolerance ``ZENO_BISECTION_TOL``.
    """
    total = m1 + m2
    if total <= 0:
        raise ValueError("m1 + m2 must be positive; no bound is defined otherwise")
    if beta1 <= 0 or beta2 < 0:
        raise ValueError("beta1 must be positive and beta2 nonnegative")
    lo, hi = 0.0, beta1 / total
    # g(lo) = -beta1 < 0, g(hi) >= 0
    while hi - lo > ZENO_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if total * mid - beta1 * math.exp(-beta2 * mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def validate_scheme(schemes: Sequence[TriggerScheme], lam: float) -> tuple[str, ...]:
    """Check per-agent trigger parameters against the spectral bound ``lam``
    and return the warnings; an empty tuple means every check passed.

    Unknown scheme types and beta and period values that are not positive
    and finite (NaN included) are hard errors. An event decay rate
    beta2 >= lam only voids the convergence guarantee, so it produces a
    warning and the run stays permitted.
    """
    warnings: list[str] = []
    for i, scheme in enumerate(schemes):
        if isinstance(scheme, Periodic):
            if not (0 < scheme.period < np.inf):
                raise ValueError(f"agent {i}: period must be positive and finite")
        elif isinstance(scheme, Event):
            if not (0 < scheme.beta1 < np.inf and 0 < scheme.beta2 < np.inf):
                raise ValueError(f"agent {i}: beta1 and beta2 must be positive and finite")
            if scheme.beta2 >= lam:
                warnings.append(
                    f"agent {i}: beta2={scheme.beta2:g} is not below the spectral "
                    f"bound {lam:g}; estimator convergence is no longer guaranteed"
                )
        elif not isinstance(scheme, Continuous):
            raise TypeError(f"unknown trigger scheme {scheme!r}")
    return tuple(warnings)


def zeno_bound_constants(
    lap: np.ndarray,
    m: int,
    initial_deviation: float,
    beta1_max: float,
    beta2_min: float,
    lam: float,
) -> tuple[float, float]:
    """Conservative (m1, m2) for :func:`zeno_lower_bound`.

    Bounds the estimator-error growth rate by m1 exp(-lam t) + m2 exp(-beta2 t)
    using the spectral norms of the unreduced coupling matrices of the fast
    subsystem (upper bounds for the reduced-system norms), the initial
    deviation of (eta, w) from its steady state, and the extreme trigger
    parameters across agents. Requires beta2_min < lam. The sum m1 + m2 is
    always positive, so the resulting inter-event bound exists.
    """
    if beta2_min >= lam:
        raise ValueError("requires beta2_min < lam")
    n = lap.shape[0]
    eye_block = np.eye(2 * m)
    lap2 = np.kron(lap, eye_block)
    zero = np.zeros_like(lap2)
    drift = np.block([[-np.eye(2 * m * n) - lap2, -lap2], [lap2, zero]])
    inject = np.block([[-lap2, -lap2], [lap2, zero]])
    drift_norm = float(np.linalg.norm(drift, 2))
    inject_norm = float(np.linalg.norm(inject, 2))
    scale = math.sqrt(n) * beta1_max * inject_norm
    m1 = drift_norm * initial_deviation - drift_norm * scale / (lam - beta2_min)
    m2 = scale * (1.0 + drift_norm / (lam - beta2_min))
    return m1, m2
