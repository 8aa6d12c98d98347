"""Fifteen generating units with randomly drawn cost curves.

Coefficients come from the published dispatch intervals (a in
[0.0024, 0.0779], b in [8, 35], d in [7, 60]); the communication topology
is a random connected graph. These instances are badly conditioned: the
smallest Hessian eigenvalue is ~0.01, so the slow subsystem needs a
horizon of several hundred time units, which is exactly what the rate
analysis prescribes.
"""

import numpy as np

from aggopt import (
    Event,
    SimConfig,
    is_connected,
    lambda_bound,
    laplacian,
    make_dispatch_instance,
    quadratic_hessian,
    random_connected_graph,
    run,
    solve_kkt_quadratic,
)

problem = make_dispatch_instance(15, 1)
graph = random_connected_graph(15, 1)
print("random graph: connected =", is_connected(graph), " edges =", len(graph.edges))
print("spectral bound for trigger decay rates:", f"{lambda_bound(laplacian(graph)):.4f}")

x_star = solve_kkt_quadratic(problem)
eigs = np.linalg.eigvalsh(quadratic_hessian(problem))
print("Hessian eigenvalue range:", f"[{eigs[0]:.4f}, {eigs[-1]:.4f}]")

t_end = float(np.ceil(np.log(1.0 / 1e-3) / eigs[0] * 1.4))
print("horizon sized from the slowest mode:", t_end)

cfg = SimConfig(
    problem=problem,
    graph=graph,
    delta=0.1,
    h=0.005,
    t_end=t_end,
    x0=np.zeros(15),
    schemes=(Event(6.0, 0.15),) * 15,
    output_stride=50,
)
result = run(cfg, x_star=x_star)
print("\nrelative error vs closed form:", f"{result.metrics.relative_error:.3e}")
print("per-unit broadcasts:", result.metrics.broadcast_counts)
print("outputs (first five units):")
for i in range(5):
    print(f"  unit {i}: {result.metrics.final_x[i]:10.2f}  (optimum {x_star[i]:10.2f})")
