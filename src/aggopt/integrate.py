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


def ensure_finite(
    rows: np.ndarray, times: np.ndarray, h: float, name: Callable[[int], str],
    advice: str = "reduce the step size",
) -> None:
    """Raise :class:`DivergenceError` unless every entry of the (K, n)
    ``rows`` is finite and within ``STATE_LIMIT``. Row r is the state at
    ``times[r]``; the message names the first offending row's time and its
    first offending entry, labelled by ``name`` (flat index k -> label),
    and ends with ``advice``.

    One reduction per call: NaN fails the comparison too. The offending
    entry is located only after the check has failed.
    """
    if not (np.abs(rows).max() <= STATE_LIMIT):
        row, k = divmod(int(np.flatnonzero(~(np.abs(rows) <= STATE_LIMIT))[0]), rows.shape[1])
        raise DivergenceError(
            f"state diverged at t={times[row]:.6g} (step h={h:.6g}): "
            f"{name(k)} = {rows[row, k]:.6g}; {advice}"
        )
