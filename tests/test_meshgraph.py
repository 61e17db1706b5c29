import numpy as np
import pytest

from topofield.meshgraph import (
    build_element_graph,
    build_mesh,
    fourier_encode,
    normalize_centroids,
)


def test_mesh_counts_benchmark_size():
    mesh = build_mesh(60, 20)
    assert mesh.n_elems == 1200
    assert mesh.n_nodes == 1281
    assert mesh.n_dofs == 2562


def test_single_element_mesh():
    mesh = build_mesh(1, 1)
    assert mesh.n_elems == 1
    assert mesh.n_nodes == 4
    # the 8 DOFs of the four corner nodes, CCW from bottom-left
    assert sorted(mesh.dof_map[0]) == list(range(8))


def test_2x2_interior_node_shared_by_all_elements():
    mesh = build_mesh(2, 2)
    assert mesh.n_elems == 4
    interior = mesh.node_id(1, 1)
    for e in range(4):
        assert 2 * interior in mesh.dof_map[e]
        assert 2 * interior + 1 in mesh.dof_map[e]


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        build_mesh(0, 3)
    with pytest.raises(ValueError):
        build_mesh(3, -1)


def test_dof_map_entries_unique_and_in_range():
    mesh = build_mesh(5, 4)
    for dofs in mesh.dof_map:
        assert len(set(dofs)) == 8
        assert dofs.min() >= 0 and dofs.max() < mesh.n_dofs


def test_centroids_strictly_inside_domain():
    mesh = build_mesh(7, 3)
    c = mesh.elem_centroids
    assert np.all(c[:, 0] > 0) and np.all(c[:, 0] < 7)
    assert np.all(c[:, 1] > 0) and np.all(c[:, 1] < 3)


def test_graph_2x2_four_edges_degree_two():
    graph = build_element_graph(build_mesh(2, 2))
    assert np.all(graph.adjacency.sum(axis=1) == 2)
    assert graph.adjacency.sum() == 8  # 4 undirected edges


def test_graph_adjacency_symmetric_empty_diagonal():
    graph = build_element_graph(build_mesh(4, 3))
    a = graph.adjacency.toarray()
    assert np.array_equal(a, a.T)
    assert np.all(a.diagonal() == 0)


def test_graph_1x1_degenerate():
    graph = build_element_graph(build_mesh(1, 1))
    assert graph.adjacency.toarray().sum() == 0
    assert np.array_equal(graph.laplacian_scaled.toarray(), [[0.0]])


def test_scaled_laplacian_spectrum_3x3():
    graph = build_element_graph(build_mesh(3, 3))
    eigs = np.linalg.eigvalsh(graph.laplacian_scaled.toarray())
    assert eigs.min() >= -1.0 - 1e-9
    assert eigs.max() <= 1.0 + 1e-9


def test_scaled_laplacian_symmetric():
    graph = build_element_graph(build_mesh(5, 2))
    m = graph.laplacian_scaled.toarray()
    assert np.allclose(m, m.T, atol=1e-14)


def test_sparse_matches_dense_products():
    rng = np.random.default_rng(3)
    for nelx, nely in [(2, 2), (3, 3), (5, 5), (5, 4)]:
        graph = build_element_graph(build_mesh(nelx, nely))
        dense = graph.laplacian_scaled.toarray()
        v = rng.standard_normal(nelx * nely)
        assert np.abs(graph.laplacian_scaled @ v - dense @ v).max() < 1e-12


def test_scaled_laplacian_spectrum_spans_unit_interval():
    # the grid graph is bipartite, so the scaled Laplacian -D^-1/2 A D^-1/2
    # has both -1 and 1 as eigenvalues and nothing outside them
    for nelx, nely in [(2, 1), (5, 1), (1, 4), (3, 3), (6, 4), (17, 22), (11, 43), (60, 20)]:
        graph = build_element_graph(build_mesh(nelx, nely))
        lap = graph.laplacian_scaled.toarray()
        eigs = np.linalg.eigvalsh(lap)
        assert abs(eigs[0] + 1.0) <= 1e-12, (nelx, nely, eigs[0])
        assert abs(eigs[-1] - 1.0) <= 1e-12, (nelx, nely, eigs[-1])
        adjacency = graph.adjacency.toarray()
        degree = adjacency.sum(axis=1)
        assert np.allclose(lap, -adjacency / np.sqrt(np.outer(degree, degree)), rtol=0, atol=1e-15)


def test_rebuild_determinism():
    a = build_element_graph(build_mesh(6, 3))
    b = build_element_graph(build_mesh(6, 3))
    assert np.array_equal(a.adjacency.toarray(), b.adjacency.toarray())
    assert np.array_equal(a.laplacian_scaled.toarray(), b.laplacian_scaled.toarray())


def test_fourier_zero_scale_limit():
    pts = np.array([[0.3, 0.7], [0.1, 0.2]])
    feats = fourier_encode(pts, m=5, scale=0.0, seed=0)
    assert np.allclose(feats[:, :5], 0.0)
    assert np.allclose(feats[:, 5:], 1.0)


def test_fourier_identical_centroids_identical_features():
    pts = np.array([[0.25, 0.5], [0.25, 0.5], [0.75, 0.5]])
    feats = fourier_encode(pts, m=8, scale=2.0, seed=4)
    assert np.array_equal(feats[0], feats[1])
    assert not np.array_equal(feats[0], feats[2])


def test_fourier_direct_reevaluation_bit_for_bit():
    # the frequency draw is checked through the features it gives
    feats = fourier_encode(np.array([[0.5, 0.5]]), m=4, scale=2.0, seed=7)
    b = np.random.default_rng(7).normal(0.0, 2.0, (4, 2))
    phase = 2.0 * np.pi * (b @ np.array([0.5, 0.5]))
    expected = np.concatenate([np.sin(phase), np.cos(phase)])
    assert feats.shape == (1, 8)
    assert np.array_equal(feats[0], expected)


def test_fourier_feature_range():
    mesh = build_mesh(10, 5)
    feats = fourier_encode(normalize_centroids(mesh), m=16, scale=3.0, seed=1)
    assert feats.shape == (50, 32)
    assert feats.min() >= -1.0 and feats.max() <= 1.0


def test_fourier_rejects_nonfinite():
    with pytest.raises(ValueError):
        fourier_encode(np.array([[np.nan, 0.5]]), m=2, scale=1.0, seed=0)


def test_normalized_centroids_unit_square():
    mesh = build_mesh(8, 2)
    c = normalize_centroids(mesh)
    assert c.min() > 0 and c.max() < 1
    assert np.isclose(c[:, 0].max(), 1 - 0.5 / 8)
    assert np.isclose(c[:, 1].max(), 1 - 0.5 / 2)
