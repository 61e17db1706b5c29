import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topofield.meshgraph import (
    build_element_graph,
    build_mesh,
    fourier_encode,
    normalize_centroids,
)

from conftest import composed_graph


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


@pytest.mark.parametrize("nelx, nely", [(6.5, 4), (6, 4.0), (True, 2), (3, np.float64(2.0))])
def test_non_integer_dimensions_rejected(nelx, nely):
    # 6.5 x 4 once built a mesh of 26.0 elements and 28 rows of float DOFs
    with pytest.raises(ValueError, match="positive integers"):
        build_mesh(nelx, nely)


def test_numpy_integer_dimensions_accepted():
    mesh = build_mesh(np.int64(3), np.int32(2))
    assert mesh.n_elems == 6 and mesh.dof_map.shape == (6, 8)
    assert np.array_equal(mesh.dof_map, build_mesh(3, 2).dof_map)


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


# the adjacency is the scaled Laplacian's pattern: every edge holds a
# nonzero entry -1/sqrt(d_i d_j), so a row's stored length is its degree


def test_graph_2x2_four_edges_degree_two():
    graph = build_element_graph(build_mesh(2, 2))
    assert np.all(np.diff(graph.laplacian_scaled.indptr) == 2)
    assert graph.laplacian_scaled.nnz == 8  # 4 undirected edges


def test_graph_adjacency_symmetric_empty_diagonal():
    graph = build_element_graph(build_mesh(4, 3))
    a = graph.laplacian_scaled.toarray() != 0
    assert np.array_equal(a, a.T)
    assert not a.diagonal().any()


def test_graph_1x1_degenerate():
    graph = build_element_graph(build_mesh(1, 1))
    assert graph.laplacian_scaled.nnz == 0
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
        adjacency = composed_graph(build_mesh(nelx, nely))[0].toarray()
        degree = adjacency.sum(axis=1)
        assert np.allclose(lap, -adjacency / np.sqrt(np.outer(degree, degree)), rtol=0, atol=1e-15)


def _assert_same_csr(got, reference):
    assert got.shape == reference.shape
    assert got.has_sorted_indices and reference.has_sorted_indices
    assert np.array_equal(got.indptr, reference.indptr)
    assert np.array_equal(got.indices, reference.indices)
    assert got.data.dtype == reference.data.dtype
    assert got.data.tobytes() == reference.data.tobytes()


def _assert_graph_matches_reference(nelx, nely):
    mesh = build_mesh(nelx, nely)
    graph = build_element_graph(mesh)
    adjacency, laplacian = composed_graph(mesh)
    # the Laplacian's pattern is the adjacency, and every stored entry is nonzero
    assert np.array_equal(graph.laplacian_scaled.indptr, adjacency.indptr)
    assert np.array_equal(graph.laplacian_scaled.indices, adjacency.indices)
    assert np.all(graph.laplacian_scaled.data != 0)
    _assert_same_csr(graph.laplacian_scaled, laplacian)


@pytest.mark.parametrize(
    "nelx, nely", [(1, 1), (5, 1), (1, 4), (2, 1), (3, 3), (60, 20), (20, 60), (120, 40)]
)
def test_closed_form_graph_equals_sparse_products(nelx, nely):
    _assert_graph_matches_reference(nelx, nely)


@settings(max_examples=40, deadline=None)
@given(nelx=st.integers(1, 40), nely=st.integers(1, 40))
def test_closed_form_graph_equals_sparse_products_any_size(nelx, nely):
    _assert_graph_matches_reference(nelx, nely)


def _assert_laplacian_is_its_transpose(nelx, nely):
    # entry (e, nbr) is -d_e^-1/2 d_nbr^-1/2 and IEEE products commute, so the
    # network's VJP may apply the CSR matrix where it means its transpose
    lap = build_element_graph(build_mesh(nelx, nely)).laplacian_scaled
    _assert_same_csr(lap, lap.T.tocsr())


@pytest.mark.parametrize("nelx, nely", [(1, 1), (1, 7), (7, 1), (60, 20)])
def test_scaled_laplacian_equals_its_transpose_bit_for_bit(nelx, nely):
    _assert_laplacian_is_its_transpose(nelx, nely)


@settings(max_examples=40, deadline=None)
@given(nelx=st.integers(1, 30), nely=st.integers(1, 30))
def test_scaled_laplacian_equals_its_transpose_any_size(nelx, nely):
    _assert_laplacian_is_its_transpose(nelx, nely)


def test_rebuild_determinism():
    a = build_element_graph(build_mesh(6, 3))
    b = build_element_graph(build_mesh(6, 3))
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
    # the frequency draw is checked through the features it gives, written
    # out as the per-coordinate phases alpha = 2 pi B[:, 0] x and
    # beta = 2 pi B[:, 1] y joined by angle addition; the points repeat both
    # coordinates
    pts = np.array([[0.5, 0.5], [0.25, 0.5], [0.5, 0.75], [0.25, 0.75], [0.5, 0.5]])
    feats = fourier_encode(pts, m=4, scale=2.0, seed=7)
    b = np.random.default_rng(7).normal(0.0, 2.0, (4, 2))
    alpha = 2.0 * np.pi * (pts[:, :1] * b[:, 0])
    beta = 2.0 * np.pi * (pts[:, 1:] * b[:, 1])
    sin = np.sin(alpha) * np.cos(beta) + np.cos(alpha) * np.sin(beta)
    cos = np.cos(alpha) * np.cos(beta) - np.sin(alpha) * np.sin(beta)
    expected = np.clip(np.concatenate([sin, cos], axis=1), -1.0, 1.0)
    assert feats.shape == (5, 8)
    assert np.array_equal(feats, expected)


def _assert_direct_evaluation(pts, m, scale, seed):
    """Features equal sin/cos(2 pi B x) evaluated directly within 8 eps
    (1 + P), P the largest 2 pi (|b_1 x| + |b_2 y|) over points and
    frequencies: both phases carry a few roundings relative to P, and the
    angle addition a few more relative to 1. Every feature is in [-1, 1]."""
    feats = fourier_encode(pts, m, scale, seed)
    b = np.random.default_rng(seed).normal(0.0, scale, (m, 2))
    phase = 2.0 * np.pi * (pts @ b.T)
    direct = np.concatenate([np.sin(phase), np.cos(phase)], axis=1)
    largest = 2.0 * np.pi * (np.abs(pts) @ np.abs(b).T).max(initial=0.0)
    assert feats.shape == direct.shape
    assert np.abs(feats - direct).max(initial=0.0) <= 8 * np.finfo(float).eps * (1.0 + largest)
    assert np.all(np.abs(feats) <= 1.0)


@settings(max_examples=40, deadline=None)
@given(
    nelx=st.integers(1, 40),
    nely=st.integers(1, 40),
    m=st.integers(1, 16),
    scale=st.floats(0.0, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fourier_grid_features_match_direct_evaluation(nelx, nely, m, scale, seed):
    _assert_direct_evaluation(normalize_centroids(build_mesh(nelx, nely)), m, scale, seed)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 60),
    m=st.integers(1, 16),
    scale=st.floats(0.0, 20.0),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(1e-3, 1e3),
)
@example(n=0, m=3, scale=1.0, seed=0, spread=1.0)
def test_fourier_scattered_features_match_direct_evaluation(n, m, scale, seed, spread):
    pts = np.random.default_rng(seed).uniform(-spread, spread, (n, 2))
    _assert_direct_evaluation(pts, m, scale, seed)


def test_fourier_evaluates_sin_cos_per_distinct_coordinate(monkeypatch):
    # a count repeats exactly where a timing would flake: on the 120 x 40
    # centroids sin and cos each see the 120 x and 40 y phases per frequency
    counted = []
    for name in ("sin", "cos"):
        def counting(x, *args, _f=getattr(np, name), **kwargs):
            counted.append(np.size(x))
            return _f(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    m = 16
    fourier_encode(normalize_centroids(build_mesh(120, 40)), m, 2.0, 0)
    assert sum(counted) == 2 * (120 + 40) * m


def test_fourier_clips_angle_addition_rounding_to_unit_range():
    # where alpha + beta = pi / 2 the two products can round to a sum of
    # 1 + eps; such features are clipped to 1
    b = np.random.default_rng(0).normal(0.0, 1.0, (1, 2))
    target = np.linspace(-3.0, 3.0, 401)
    pts = np.column_stack([target / (2 * np.pi * b[0, 0]), (np.pi / 2 - target) / (2 * np.pi * b[0, 1])])
    alpha = 2.0 * np.pi * (pts[:, 0] * b[0, 0])
    beta = 2.0 * np.pi * (pts[:, 1] * b[0, 1])
    raw = np.sin(alpha) * np.cos(beta) + np.cos(alpha) * np.sin(beta)
    assert raw.max() > 1.0
    feats = fourier_encode(pts, 1, 1.0, 0)
    assert np.array_equal(feats[:, 0], np.minimum(raw, 1.0))
    assert np.abs(feats).max() <= 1.0


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 1), (3, 3), (2,), (), (0,)])
def test_fourier_rejects_points_that_are_not_an_n_by_2_matrix(shape):
    with pytest.raises(ValueError, match=r"must be an \(n, 2\) matrix, got shape"):
        fourier_encode(np.zeros(shape), m=2, scale=1.0, seed=0)


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
