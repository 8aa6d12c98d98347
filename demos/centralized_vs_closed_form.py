"""Two independent ground truths agreeing with each other.

For quadratic instances the optimum has a closed form (one linear solve).
A coordinator that sees every decision could instead run plain gradient
flow on the global cost. The two must land on the same point; their
agreement is what the distributed runs are judged against.
"""

import numpy as np

from aggopt import (
    centralized_flow,
    fit_decay_rate,
    make_der_instance,
    make_dispatch_instance,
    quadratic_hessian,
    solve_kkt_quadratic,
)

problem = make_der_instance()
x_star = solve_kkt_quadratic(problem)
trajectory = centralized_flow(problem, np.array([5.0, 6.0, 3.0, 8.0]), h=1e-3, t_end=60.0)
gap = np.linalg.norm(trajectory.final - x_star)
print("four-unit preset: flow endpoint vs closed form:", f"{gap:.3e}")

errors = np.linalg.norm(trajectory.x - x_star, axis=1)
kappa, lipschitz = problem.rate_metadata
print("fitted decay rate:", f"{fit_decay_rate(trajectory.times, errors):.3f}")
print("reported lower bound kappa/(1+2l):", f"{kappa / (1 + 2 * lipschitz):.3f}")

# Same exercise over a batch of random dispatch instances. The step is
# scaled from the largest Hessian eigenvalue and the horizon from the
# smallest one; the endpoint matches to ~1e-9 relative either way.
print("\nrandom dispatch instances (n units, seed): relative gap")
for seed in range(5):
    n = 2 + seed
    instance = make_dispatch_instance(n, seed)
    reference = solve_kkt_quadratic(instance)
    eigs = np.linalg.eigvalsh(quadratic_hessian(instance))
    flow = centralized_flow(
        instance,
        np.zeros(n),
        h=0.5 / eigs[-1],
        t_end=float(np.log(np.linalg.norm(reference) * 1e9) / eigs[0]),
        stride=1000,
    )
    rel = np.linalg.norm(flow.final - reference) / np.linalg.norm(reference)
    print(f"  ({n}, {seed}): {rel:.3e}")
