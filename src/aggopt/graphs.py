"""Undirected communication topologies and the spectral quantity that
constrains event-trigger parameters."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "path",
    "ring",
    "laplacian",
    "is_connected",
    "lambda_bound",
    "random_connected_graph",
]

# eigenvalues of L at or below this count as 0 in lambda_bound
EIGENVALUE_TOL = 1e-9


@dataclass(frozen=True)
class Graph:
    """Unweighted undirected graph on nodes ``0..n_nodes-1``.

    ``edges`` holds normalized pairs ``(i, j)`` with ``i < j``; use
    :meth:`from_edges` to build a graph from pairs in arbitrary order.
    """

    n_nodes: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("graph needs at least one node")
        for i, j in self.edges:
            if not (0 <= i < j < self.n_nodes):
                raise ValueError(
                    f"edge ({i}, {j}) invalid for {self.n_nodes} nodes; "
                    "pairs must be normalized with i < j and no self-loops"
                )

    @classmethod
    def from_edges(cls, n_nodes: int, pairs) -> "Graph":
        norm = set()
        for i, j in pairs:
            if not all(isinstance(v, (int, np.integer)) for v in (i, j)):
                raise ValueError(f"edge ({i!r}, {j!r}): node labels must be integers")
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            norm.add((min(i, j), max(i, j)))
        return cls(n_nodes, frozenset(norm))


def path(n: int) -> Graph:
    """Path graph 0-1-...-(n-1)."""
    return Graph(n, frozenset((k, k + 1) for k in range(n - 1)))


def ring(n: int) -> Graph:
    """Cycle graph on n >= 3 nodes."""
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes; use path() for fewer")
    edges = {(k, k + 1) for k in range(n - 1)}
    edges.add((0, n - 1))
    return Graph(n, frozenset(edges))


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian: degree on the diagonal, -1 on adjacent pairs."""
    lap = np.zeros((g.n_nodes, g.n_nodes))
    for i, j in g.edges:
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] = -1.0
        lap[j, i] = -1.0
    return lap


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability from node 0."""
    adj: list[list[int]] = [[] for _ in range(g.n_nodes)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.n_nodes


def lambda_bound(lap: np.ndarray) -> float:
    """Smallest positive real part among eigenvalues of ``[[I+L, L], [-L, 0]]``
    for the Laplacian L of a connected graph (``ValueError`` otherwise).

    Event-trigger decay rates must stay below this value for the estimator
    convergence guarantee to apply. Each eigenvalue mu of L gives the roots
    of s^2 - (1+mu) s + mu^2: {0, 1} for mu = 0, real parts above 1 for
    mu > 1, and for 0 < mu <= 1 a smaller root that grows with mu to 1. So
    the bound is that root at L's second eigenvalue, capped at 1. Near 1 the
    double root turns a rounding error e in it into about sqrt(e).
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if lap.shape != (n, n):
        raise ValueError("Laplacian must be square")
    mu = np.linalg.eigvalsh(lap)
    if mu[0] < -EIGENVALUE_TOL:
        raise ValueError(f"eigenvalue {mu[0]:g} < 0; not a graph Laplacian")
    if n > 1 and mu[1] <= EIGENVALUE_TOL:
        raise ValueError("the graph of the Laplacian must be connected")
    mu2 = min(1.0, float(mu[1])) if n > 1 else 1.0
    return 2.0 * mu2**2 / (1.0 + mu2 + math.sqrt((1.0 - mu2) * (1.0 + 3.0 * mu2)))


def random_connected_graph(n: int, seed: int) -> Graph:
    """Random connected graph: a random spanning tree plus each remaining
    edge independently with probability 0.2. Deterministic per (n, seed)."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges: set[tuple[int, int]] = set()
    for k in range(1, n):
        u = int(order[rng.integers(0, k)])
        v = int(order[k])
        edges.add((min(u, v), max(u, v)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < 0.2:
                edges.add((i, j))
    return Graph(n, frozenset(edges))
