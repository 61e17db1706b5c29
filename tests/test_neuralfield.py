import numpy as np
import pytest
import scipy.sparse as sp

import topofield as tf
from topofield import autodiff as ad
from topofield import neuralfield as nf
from topofield.meshgraph import ElementGraph, build_element_graph, build_mesh, fourier_encode, normalize_centroids
from topofield.oracle import finite_difference_gradient

from conftest import composed_blueprint, rel_err


def _zero_laplacian_graph(n):
    zero = sp.csr_array(sp.coo_array((n, n)))
    return ElementGraph(zero, np.zeros(n), zero, zero, 0.0)


def test_order_zero_is_dense_layer(rng):
    graph = build_element_graph(build_mesh(3, 3))
    h0 = rng.standard_normal((9, 4))
    w = rng.standard_normal((4, 2))
    bias = rng.standard_normal(2)
    t = ad.Tape()
    out = nf.cheb_layer_forward(
        t.leaf(h0), graph, nf.ChebLayerParams([w], bias), activation="none"
    )
    assert np.allclose(out.value, h0 @ w + bias, rtol=1e-14)


def test_order_one_zero_laplacian_degenerates(rng):
    graph = _zero_laplacian_graph(5)
    h0 = rng.standard_normal((5, 3))
    w0 = rng.standard_normal((3, 2))
    w1 = rng.standard_normal((3, 2))
    bias = np.zeros(2)
    t = ad.Tape()
    out = nf.cheb_layer_forward(
        t.leaf(h0), graph, nf.ChebLayerParams([w0, w1], bias), activation="none"
    )
    assert np.allclose(out.value, h0 @ w0, rtol=1e-14)


def test_order_three_matches_dense_polynomial_oracle(rng):
    graph = build_element_graph(build_mesh(3, 3))
    lap = graph.laplacian_scaled.toarray()
    h0 = rng.standard_normal((9, 3))
    weights = [rng.standard_normal((3, 2)) for _ in range(4)]
    bias = rng.standard_normal(2)
    t = ad.Tape()
    out = nf.cheb_layer_forward(
        t.leaf(h0), graph, nf.ChebLayerParams(weights, bias), activation="none"
    )
    # dense Chebyshev matrices built directly from the recursion
    t_mats = [np.eye(9), lap]
    for _ in range(2, 4):
        t_mats.append(2.0 * lap @ t_mats[-1] - t_mats[-2])
    expected = sum(t_mats[k] @ h0 @ weights[k] for k in range(4)) + bias
    assert np.abs(out.value - expected).max() < 1e-10


def test_spectral_identity_small_graphs():
    # T_k(L) = V T_k(lambda) V^T for k <= 4 on graphs up to 12 nodes
    for nelx, nely in [(2, 2), (3, 3), (4, 3), (6, 2), (12, 1)]:
        graph = build_element_graph(build_mesh(nelx, nely))
        lap = graph.laplacian_scaled.toarray()
        lam, vec = np.linalg.eigh(lap)
        t_mat = [np.eye(lap.shape[0]), lap]
        t_eig = [np.ones_like(lam), lam]
        for _ in range(2, 5):
            t_mat.append(2.0 * lap @ t_mat[-1] - t_mat[-2])
            t_eig.append(2.0 * lam * t_eig[-1] - t_eig[-2])
        for k in range(5):
            spectral = vec @ np.diag(t_eig[k]) @ vec.T
            assert np.abs(t_mat[k] - spectral).max() < 1e-9, (nelx, nely, k)


def test_dimension_mismatch_rejected(rng):
    graph = build_element_graph(build_mesh(2, 2))
    t = ad.Tape()
    with pytest.raises(ValueError):
        nf.cheb_layer_forward(
            t.leaf(rng.standard_normal((4, 3))),
            graph,
            nf.ChebLayerParams([rng.standard_normal((5, 2))], np.zeros(2)),
        )


def test_zero_final_layer_gives_half_density():
    mesh = build_mesh(3, 2)
    graph = build_element_graph(mesh)
    feats = fourier_encode(normalize_centroids(mesh), 4, 2.0, 0)
    config = nf.NetworkConfig((8, 6, 1), cheb_order=1, seed=0)
    layers = nf.init_parameters(config)
    layers[-1].weights = [np.zeros_like(w) for w in layers[-1].weights]
    layers[-1].bias = np.zeros(1)
    t = ad.Tape()
    b = nf.predict_blueprint(feats, graph, nf.leaf_parameters(t, layers))
    assert np.all(b.value == 0.5)


def test_output_bias_seeds_volume_target():
    # the logit bias centers the initial field near the volume budget; the
    # random head adds a seed-dependent shift, so the band is loose
    mesh = build_mesh(6, 4)
    graph = build_element_graph(mesh)
    feats = fourier_encode(normalize_centroids(mesh), 8, 2.0, 3)
    means = []
    for target in (0.3, 0.5, 0.7):
        config = nf.NetworkConfig((16, 8, 1), cheb_order=1, seed=1)
        layers = nf.init_parameters(config, volume_target=target)
        t = ad.Tape()
        b = nf.predict_blueprint(feats, graph, nf.leaf_parameters(t, layers))
        means.append(b.value.mean())
        assert abs(means[-1] - target) < 0.2
    assert means[0] < means[1] < means[2]


def test_identical_features_identical_outputs():
    # all four elements of a 2x2 mesh are graph-isomorphic
    graph = build_element_graph(build_mesh(2, 2))
    feats = np.tile(np.array([[0.3, -0.2, 0.5, 0.9]]), (4, 1))
    config = nf.NetworkConfig((4, 5, 1), cheb_order=1, seed=2)
    layers = nf.init_parameters(config)
    t = ad.Tape()
    b = nf.predict_blueprint(feats, graph, nf.leaf_parameters(t, layers)).value
    assert np.allclose(b, b[0], rtol=1e-13)


def test_init_determinism_and_bounds():
    config = nf.NetworkConfig((8, 6, 1), cheb_order=2, seed=9)
    a = nf.init_parameters(config)
    b = nf.init_parameters(config)
    c = nf.init_parameters(config, seed=10)
    for la, lb in zip(a, b):
        for wa, wb in zip(la.weights, lb.weights):
            assert np.array_equal(wa, wb)
        assert np.array_equal(la.bias, lb.bias)
    assert any(
        not np.array_equal(wa, wc)
        for la, lc in zip(a, c)
        for wa, wc in zip(la.weights, lc.weights)
    )
    for layer, (fi, fo) in zip(a, [(8, 6), (6, 1)]):
        bound = np.sqrt(6.0 / (fi + fo))
        for w in layer.weights:
            assert np.abs(w).max() <= bound
        assert len(layer.weights) == 3


def test_blueprint_in_open_unit_interval():
    mesh = build_mesh(8, 3)
    graph = build_element_graph(mesh)
    feats = fourier_encode(normalize_centroids(mesh), 8, 2.0, 0)
    config = nf.NetworkConfig((16, 12, 1), cheb_order=1, seed=5)
    layers = nf.init_parameters(config)
    t = ad.Tape()
    b = nf.predict_blueprint(feats, graph, nf.leaf_parameters(t, layers)).value
    assert np.all(b > 0.0) and np.all(b < 1.0)


def test_weight_gradients_match_fd():
    mesh = build_mesh(5, 4)
    graph = build_element_graph(mesh)
    feats = fourier_encode(normalize_centroids(mesh), 4, 2.0, 0)
    config = nf.NetworkConfig((8, 8, 1), cheb_order=1, seed=0)
    layers = nf.init_parameters(config)
    w = np.random.default_rng(5).uniform(-1.0, 1.0, mesh.n_elems)
    arrays = nf.parameter_arrays(layers)

    def loss_with(i, arr):
        saved = arrays[i].copy()
        arrays[i][...] = arr
        t = ad.Tape()
        b = nf.predict_blueprint(feats, graph, nf.leaf_parameters(t, layers))
        out = float((b * w).sum().value)
        arrays[i][...] = saved
        return out

    t = ad.Tape()
    leaves = nf.leaf_parameters(t, layers)
    loss = (nf.predict_blueprint(feats, graph, leaves) * w).sum()
    grads = t.backward(loss)
    for i, leaf in enumerate(nf.parameter_arrays(leaves)):
        fd = finite_difference_gradient(lambda x, i=i: loss_with(i, x), arrays[i].copy(), 1e-6)
        assert rel_err(grads.of(leaf), fd, floor=1e-8) < 1e-4, f"parameter {i}"


def test_checkpoint_roundtrip(tmp_path):
    config = nf.NetworkConfig((6, 4, 1), cheb_order=1, seed=7)
    layers = nf.init_parameters(config)
    path = tmp_path / "weights.ckpt"
    nf.save_parameters(path, layers)
    loaded = nf.load_parameters(path)
    assert len(loaded) == len(layers)
    for la, lb in zip(layers, loaded):
        assert len(la.weights) == len(lb.weights)
        for wa, wb in zip(la.weights, lb.weights):
            assert np.array_equal(wa, wb)
        assert np.array_equal(la.bias, lb.bias)


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        nf.load_parameters(path)


def test_network_config_validation():
    with pytest.raises(ValueError):
        nf.NetworkConfig((4,))
    with pytest.raises(ValueError):
        nf.NetworkConfig((4, 2))
    with pytest.raises(ValueError):
        nf.NetworkConfig((4, 4, 1), cheb_order=-1)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_blueprint_equals_feature_leaf_composition(order):
    # values and every weight gradient equal the network with the features as
    # a leaf and the first layer's recursion on the tape, bit for bit
    mesh = build_mesh(7, 5)
    graph = build_element_graph(mesh)
    feats = fourier_encode(normalize_centroids(mesh), 4, 2.0, 0).features
    layers = nf.init_parameters(nf.NetworkConfig((8, 6, 5, 1), cheb_order=order, seed=order))
    w = np.random.default_rng(order).standard_normal(mesh.n_elems)
    basis = nf.chebyshev_basis(feats, graph, order)
    routes = {
        "basis": lambda leaves: nf.predict_blueprint(basis, graph, leaves),
        "raw": lambda leaves: nf.predict_blueprint(feats, graph, leaves),
        "reference": lambda leaves: composed_blueprint(feats, graph, leaves, leaves[0].bias.tape),
    }
    results = {}
    for name, route in routes.items():
        t = ad.Tape()
        leaves = nf.leaf_parameters(t, layers)
        before = len(t)
        b = route(leaves)
        nodes = len(t) - before
        grads = t.backward((b * w).sum())
        results[name] = (b.value, [grads.of(x) for x in nf.parameter_arrays(leaves)], nodes)
    ref_value, ref_grads, ref_nodes = results["reference"]
    for name in ("basis", "raw"):
        value, grads, nodes = results[name]
        assert np.array_equal(value, ref_value), name
        assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads)), name
        # no node for the feature leaf, its `order` Laplacian products and the
        # two steps (scale, subtract) of each later recursion term
        assert ref_nodes - nodes == 1 + order + 2 * max(order - 1, 0), name


def test_basis_is_never_served_to_another_graph_or_features(rng):
    mesh = build_mesh(4, 3)
    graph = build_element_graph(mesh)
    twin = build_element_graph(mesh)  # equal values, another object
    feats = rng.standard_normal((mesh.n_elems, 6))
    layers = nf.init_parameters(nf.NetworkConfig((6, 5, 1), cheb_order=2, seed=1))
    t = ad.Tape()
    leaves = nf.leaf_parameters(t, layers)
    with pytest.raises(ValueError):
        nf.predict_blueprint(nf.chebyshev_basis(feats, graph, 2), twin, leaves)
    with pytest.raises(ValueError):
        nf.predict_blueprint(nf.chebyshev_basis(feats, graph, 1), graph, leaves)
    with pytest.raises(ValueError):
        nf.chebyshev_basis(feats[:-1], graph, 2)
    # raw features are expanded on every call, so a second matrix and a
    # second graph each get their own terms
    other_graph = build_element_graph(build_mesh(3, 4))
    for g, x in ((graph, feats), (graph, 2.0 * feats), (other_graph, feats)):
        got = nf.predict_blueprint(x, g, leaves).value
        assert np.array_equal(got, composed_blueprint(x, g, leaves, t).value)
