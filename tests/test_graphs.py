import numpy as np
import pytest

from aggopt import (
    Graph,
    is_connected,
    lambda_bound,
    laplacian,
    path,
    random_connected_graph,
    ring,
)


def test_laplacian_two_node_path():
    lap = laplacian(path(2))
    assert np.array_equal(lap, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_single_node():
    lap = laplacian(Graph(1, frozenset()))
    assert np.array_equal(lap, np.array([[0.0]]))


def test_laplacian_ring4():
    lap = laplacian(ring(4))
    assert np.array_equal(np.diag(lap), np.full(4, 2.0))
    for i, j in ((0, 1), (1, 2), (2, 3), (0, 3)):
        assert lap[i, j] == -1.0 and lap[j, i] == -1.0
    assert lap[0, 2] == 0.0 and lap[1, 3] == 0.0


def test_is_connected_cases():
    assert is_connected(path(2))
    assert not is_connected(Graph(2, frozenset()))
    assert is_connected(ring(4))
    assert is_connected(Graph(1, frozenset()))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError, match="node labels must be integers"):
        Graph.from_edges(3, [(0, 1.7), (1.2, 2)])  # int() would truncate to 0-1, 1-2
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 5)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 0)}))  # not normalized
    with pytest.raises(ValueError):
        ring(2)
    with pytest.raises(ValueError, match="at least one node"):
        Graph(0, frozenset())
    with pytest.raises(ValueError, match="n must be positive"):
        random_connected_graph(0, 1)
    # duplicate unordered pairs collapse to one edge
    g = Graph.from_edges(2, [(0, 1), (1, 0)])
    assert len(g.edges) == 1
    # numpy integers are labels too
    assert Graph.from_edges(2, [(np.int64(1), np.int32(0))]) == g


def test_lambda_bound_single_node():
    # block matrix [[1, 0], [0, 0]] has eigenvalues {1, 0}
    assert lambda_bound(np.array([[0.0]])) == pytest.approx(1.0, abs=1e-12)


def _mode_roots(mu):
    # eigenvalues of the block matrix restricted to a Laplacian eigenmode mu
    return np.roots([1.0, -(1.0 + mu), mu**2])


def test_lambda_bound_two_node_path():
    # modes mu in {0, 2}: roots {0, 1} and 1.5 +- i*sqrt(7)/2, so the bound is 1
    lap = laplacian(path(2))
    expected = min(
        r.real for mu in np.linalg.eigvalsh(lap) for r in _mode_roots(mu) if r.real > 1e-9
    )
    assert expected == pytest.approx(1.0, abs=1e-12)
    assert lambda_bound(lap) == pytest.approx(expected, abs=1e-9)


def test_lambda_bound_ring4():
    # the second eigenvalue is 2, so the bound is exactly 1
    assert lambda_bound(laplacian(ring(4))) == 1.0


def test_lambda_bound_dispatch_graph_exactly_one():
    # second eigenvalue 1.017; the dense eigensolve gave 0.9999999999999997
    assert lambda_bound(laplacian(random_connected_graph(15, 1))) == 1.0


def star(n):
    return Graph.from_edges(n, [(0, k) for k in range(1, n)])


def dense_lambda_bound(lap):
    """The definition: smallest positive real part of the block's spectrum."""
    n = lap.shape[0]
    block = np.block([[np.eye(n) + lap, lap], [-lap, np.zeros((n, n))]])
    real_parts = np.linalg.eigvals(block).real
    return real_parts[real_parts > 1e-9].min()


def test_lambda_bound_matches_dense_block():
    # second eigenvalues below 1, at 1 (stars, path(3)) and above it; at 1
    # the double root turns a rounding error e into about sqrt(e)
    graphs = (
        [path(n) for n in range(2, 31)]
        + [star(n) for n in range(2, 21)]
        + [random_connected_graph(n, seed) for n in range(2, 41) for seed in range(2)]
    )
    second = []
    for g in graphs:
        lap = laplacian(g)
        assert abs(lambda_bound(lap) - dense_lambda_bound(lap)) <= 1e-7
        second.append(np.linalg.eigvalsh(lap)[1])
    assert min(second) < 0.5 and max(second) > 1.5
    assert np.sum(np.abs(np.array(second) - 1.0) < 1e-9) >= 18


@pytest.mark.parametrize("seed", range(8))
def test_eigenmode_reduction_matches_dense(seed):
    n = 2 + seed
    g = random_connected_graph(n, seed)
    lap = laplacian(g)
    block = np.block([[np.eye(n) + lap, lap], [-lap, np.zeros((n, n))]])
    dense = np.sort_complex(np.linalg.eigvals(block))
    reduced = np.sort_complex(
        np.concatenate([_mode_roots(mu) for mu in np.linalg.eigvalsh(lap)])
    )
    assert np.allclose(dense, reduced, atol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_laplacian_invariants_random_graphs(seed):
    n = 2 + (seed % 9)
    g = random_connected_graph(n, seed)
    lap = laplacian(g)
    assert np.allclose(lap, lap.T)
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    eigs = np.linalg.eigvalsh(lap)
    assert eigs[0] > -1e-12
    # connected graphs have exactly one zero eigenvalue
    assert np.sum(np.abs(eigs) < 1e-9) == 1
    assert lambda_bound(lap) > 0


def test_lambda_bound_rejects_matrix_without_positive_spectrum():
    with pytest.raises(ValueError):
        lambda_bound(np.array([[-5.0, 0.0], [0.0, -5.0]]))
    with pytest.raises(ValueError, match="connected"):
        lambda_bound(laplacian(Graph.from_edges(4, [(0, 1), (2, 3)])))


def test_random_connected_graph_deterministic():
    g1 = random_connected_graph(15, 1)
    g2 = random_connected_graph(15, 1)
    assert g1.edges == g2.edges
    assert g1.n_nodes == 15


def test_random_connected_graph_connectivity_and_size():
    assert random_connected_graph(1, 0).n_nodes == 1
    g = random_connected_graph(15, 1)
    assert is_connected(g)
    assert len(g.edges) >= 14  # at least a spanning tree
    for seed in range(20):
        assert is_connected(random_connected_graph(6, seed))


def test_spectral_summary_fields(ring4):
    lap = laplacian(ring4)
    assert is_connected(ring4)
    assert lambda_bound(lap) == pytest.approx(1.0, abs=1e-9)
    assert np.array_equal(lap.sum(axis=1), np.zeros(4))
