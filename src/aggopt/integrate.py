"""Fixed-step classical 4th-order integration.

Fixed steps (no adaptivity) keep every run bit-reproducible for a given
configuration, which the simulator's determinism contract depends on.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["DivergenceError", "rk4_step", "ensure_finite"]

# Beyond this magnitude the trajectory is treated as diverged.
STATE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """Raised when the integrated state blows up or turns non-finite."""


def rk4_step(f: Callable[[float, np.ndarray], np.ndarray], t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ensure_finite(y: np.ndarray, t: float, h: float, name: Callable[[int], str]) -> None:
    """Raise :class:`DivergenceError` unless every entry of ``y`` is finite
    and within ``STATE_LIMIT``; ``name`` labels flat index k in the message.

    One reduction per call: NaN fails the comparison too. The offending
    entry is located only after the check has failed.
    """
    if not (np.abs(y).max() <= STATE_LIMIT):
        k = int(np.flatnonzero(~(np.abs(y) <= STATE_LIMIT))[0])
        raise DivergenceError(
            f"state diverged at t={t:.6g} (step h={h:.6g}): {name(k)} = {y[k]:.6g}; "
            "reduce the step size"
        )
