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


@dataclass(frozen=True, eq=False)
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
    """Every agent's broadcast rule at once, for one run of validated schemes.

    Each agent has a period and a next due time: 0 and -inf for a
    continuous agent, T and T for a periodic one (every agent broadcasts at
    t = 0), +inf and +inf for an event agent. :meth:`fire` checks a span of
    K grid times, with the broadcasts held, in one pass. ``advice`` is what
    a divergence message tells the user to change: the step, and with
    periodic agents the largest period first, since a long hold destabilizes
    the estimator at any step."""

    def __init__(self, schemes: Sequence[TriggerScheme]) -> None:
        self.period = np.array([0.0 if isinstance(s, Continuous) else getattr(s, "period", np.inf)
                                for s in schemes], dtype=float)
        self.beta1 = np.array([getattr(s, "beta1", 0.0) for s in schemes], dtype=float)
        self.beta2 = np.array([getattr(s, "beta2", 0.0) for s in schemes], dtype=float)
        self.event = np.array([isinstance(s, Event) for s in schemes])
        self.any_event = bool(self.event.any())
        self.next_due = np.where(self.period > 0, self.period, -np.inf)
        held = self.period[np.isfinite(self.period)].max(initial=0.0)
        period = f"the largest broadcast period T={held:.6g} or " if held else ""
        self.advice = f"reduce {period}the step size"

    def threshold(self, t: float | np.ndarray) -> np.ndarray:
        """Per-agent event threshold beta1 * exp(-beta2 * t); 0 for other
        agents. A column of times gives one row per time."""
        return self.beta1 * np.exp(-self.beta2 * t)

    def fire(
        self, times: np.ndarray, estimators: np.ndarray, hats: np.ndarray
    ) -> tuple[int, np.ndarray] | None:
        """The first of K grid times at which some agent broadcasts, as
        ``(row, mask)``, or None if no agent does at any of them.

        ``times`` (K,) are grid times in order, ``estimators`` the (K, 2, N,
        2m) blocks of (eta, w) at those times and ``hats`` the (2, N, 2m)
        block of last broadcasts, held over all K rows. Each row is decided
        with the arithmetic of a call with that row alone.

        An agent fires once t reaches its due time less ``DUE_SLACK``, so a
        continuous agent always fires and an event agent never does by this
        test. An event agent also fires when the norm of its stacked
        broadcast-minus-true error reaches the threshold (inclusive
        comparison). The due times of the agents that fire advance by their
        period, for the returned row only.
        """
        t = times[:, None]
        fires = t >= self.next_due - DUE_SLACK
        if self.any_event:
            d = hats - estimators
            err = np.sqrt(np.einsum("rkij,rkij->ri", d, d))
            fires |= self.event & (err >= self.threshold(t))
        first = int(fires.argmax())
        if not fires.ravel()[first]:
            return None
        row = first // self.event.size
        mask = fires[row]
        self.next_due[mask] += self.period[mask]
        return row, mask


def zeno_lower_bound(m1: float, m2: float, beta1: float, beta2: float) -> float:
    """Unique root T of (m1 + m2) T = beta1 exp(-beta2 T).

    T lower-bounds an agent's gaps between consecutive events when its error
    grows at a rate of at most (m1 + m2) exp(-beta2 t). The bound from
    :func:`zeno_bound_constants` decays like exp(-beta2_min t), so that holds
    only for agents with beta2 = beta2_min; a faster threshold falls below
    it, and such an agent's gaps may shrink to the grid step. Solved by
    bisection on [0, beta1 / (m1 + m2)] to absolute tolerance
    ``ZENO_BISECTION_TOL``.
    """
    if not all(map(math.isfinite, (m1, m2, beta1, beta2))):
        raise ValueError("m1, m2, beta1 and beta2 must be finite")
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
    initial_deviation: float,
    beta1_max: float,
    beta2_min: float,
    lam: float,
) -> tuple[float, float]:
    """Conservative (m1, m2) for :func:`zeno_lower_bound`.

    Bounds the estimator-error growth rate by m1 exp(-lam t) + m2 exp(-beta2_min t)
    from the initial deviation of (eta, w) from its steady state, the extreme
    trigger parameters across agents and the spectral norms of the fast
    subsystem's coupling matrices. Per eigenvalue mu of L these split into
    the 2x2 blocks [[-1-mu, -mu], [mu, 0]] and [[-mu, -mu], [mu, 0]], whose
    norms grow with mu, so both are taken at L's largest eigenvalue. Requires
    0 < beta2_min < lam; m1 + m2 is then positive, so the inter-event bound
    exists, but it holds for all time only for agents with beta2 = beta2_min.
    """
    if not 0 <= initial_deviation < math.inf:
        raise ValueError(f"initial_deviation must be >= 0 and finite, got {initial_deviation!r}")
    if not 0 < beta1_max < math.inf:
        raise ValueError(f"beta1_max must be positive and finite, got {beta1_max!r}")
    if not 0 < beta2_min < lam:
        raise ValueError(f"beta2_min must lie in (0, lam) = (0, {lam:g}), got {beta2_min!r}")
    mu = float(np.linalg.eigvalsh(lap)[-1])
    drift_norm = float(np.linalg.norm([[-1.0 - mu, -mu], [mu, 0.0]], 2))
    inject_norm = float(np.linalg.norm([[-mu, -mu], [mu, 0.0]], 2))
    scale = math.sqrt(lap.shape[0]) * beta1_max * inject_norm
    m1 = drift_norm * initial_deviation - drift_norm * scale / (lam - beta2_min)
    m2 = scale * (1.0 + drift_norm / (lam - beta2_min))
    return m1, m2
