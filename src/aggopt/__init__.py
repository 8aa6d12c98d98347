"""Distributed aggregative optimization over undirected graphs.

A deterministic simulator and library for networks of agents that minimize
a sum of local objectives coupled through an aggregate of all decisions
(price-anticipating energy dispatch being the canonical instance). Agents
combine gradient feedback on their own decisions with a fast
proportional-integral average-consensus estimator of the aggregate
quantities, and may communicate continuously, periodically, or through
event-triggered broadcasts with exponentially decaying thresholds.
"""

from .consensus import (
    broadcast_coupling,
    build_equilibrium,
    equilibrium_residual,
    estimator_derivative,
    initial_estimator_state,
    theta_stack,
)
from .engine import (
    DivergenceError,
    SimConfig,
    SimMetrics,
    SimResult,
    closed_loop_rhs,
    closed_loop_step,
    consensus_error,
    decision_rates,
    run,
)
from .graphs import (
    Graph,
    is_connected,
    lambda_bound,
    laplacian,
    path,
    random_connected_graph,
    ring,
)
from .oracles import (
    CentralizedTrajectory,
    centralized_flow,
    fit_decay_rate,
    solve_kkt_quadratic,
)
from .problems import (
    DER4_PUBLISHED_SOLUTION,
    AggregativeProblem,
    DerParameters,
    LocalObjective,
    from_der_parameters,
    global_cost,
    global_gradient,
    make_der_instance,
    make_dispatch_instance,
    quadratic_hessian,
    sigma,
    theta,
    with_frozen_decisions,
)
from .triggers import (
    Continuous,
    Event,
    EventLog,
    Periodic,
    TriggerScheme,
    validate_scheme,
    zeno_bound_constants,
    zeno_lower_bound,
)

__version__ = "0.1.0"
