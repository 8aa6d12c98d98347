"""The fast estimator on its own.

Freezing the decisions isolates the proportional-integral consensus
estimator: every unit should drive its 2-entry estimate to the network
mean of the local signals. Two things to see here: the transient dies on
the fast time scale (halve delta, halve the settling time), and with
continuous communication the trace matches the closed-form solution of
the underlying linear system.
"""

import numpy as np
from scipy.linalg import expm

from aggopt import (
    Continuous,
    DerParameters,
    SimConfig,
    estimator_derivative,
    from_der_parameters,
    initial_estimator_state,
    laplacian,
    make_der_instance,
    path,
    ring,
    run,
    theta_stack,
    with_frozen_decisions,
)
from aggopt.integrate import rk4_step

frozen4 = with_frozen_decisions(make_der_instance())
x0 = np.array([5.0, 6.0, 3.0, 8.0])

print("settling time of the consensus error (first crossing of 1e-3):")
for delta in (0.2, 0.1, 0.05):
    cfg = SimConfig(
        problem=frozen4, graph=ring(4), delta=delta, h=delta / 100, t_end=3.0,
        x0=x0, schemes=(Continuous(),) * 4, output_stride=1,
    )
    result = run(cfg, x_star=None)
    crossing = result.times[np.flatnonzero(result.metrics.consensus_error < 1e-3)[0]]
    print(f"  delta={delta:<5}: t = {crossing:.4f}")

# Closed-form cross-check on two units: with exact broadcasts the
# estimator is a linear time-invariant system, so expm gives the truth.
params = DerParameters(
    a=(1.0, 0.5), b=(12.0, 10.0), d=(5.0, 8.0), price_intercept=200.0, price_slope=0.2
)
frozen2 = with_frozen_decisions(from_der_parameters(params))
lap = laplacian(path(2))
delta = 0.1
# the estimator state (eta, w) is one (2, units, 2) block; z is its flat copy
state = initial_estimator_state(frozen2, np.array([5.0, 6.0]))
thetas = theta_stack(frozen2, np.array([5.0, 6.0]), state[0, :, :1])


def rhs(z):
    block = z.reshape(state.shape)
    return estimator_derivative(block[0], thetas, lap @ block, delta).ravel()


lap2 = np.kron(lap, np.eye(2))
aug = np.zeros((9, 9))
aug[:8, :8] = np.block([[-np.eye(4) - lap2, -lap2], [lap2, np.zeros((4, 4))]]) / delta
aug[:8, 8] = np.concatenate([thetas.ravel(), np.zeros(4)]) / delta
z0_aug = np.concatenate([state.ravel(), [1.0]])

z = state.ravel()
h = 2.5e-4
worst = 0.0
for k in range(4000):
    z = rk4_step(rhs, z, h)
    if (k + 1) % 400 == 0:
        reference = (expm(aug * ((k + 1) * h)) @ z0_aug)[:8]
        worst = max(worst, float(np.abs(z - reference).max()))
print("\ntwo-unit linear system vs matrix exponential, max gap:", f"{worst:.3e}")
print("target mean of local signals:", thetas.mean(axis=0))
print("estimates at t=1:            ", z[:4].reshape(2, 2))
