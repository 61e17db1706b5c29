import tracemalloc
import zipfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import topofield as tf
from topofield import autodiff as ad
from topofield import neuralfield as nf
from topofield.meshgraph import ElementGraph, build_element_graph, build_mesh, fourier_encode, normalize_centroids
from topofield.oracle import finite_difference_gradient

from conftest import checkpoint_layers, clamp_straight_through, composed_blueprint, rel_err, reshape


def _zero_laplacian_graph(n):
    zero = sp.csr_array(sp.coo_array((n, n)))
    return ElementGraph(zero)


def _one_layer_blueprint(features, graph, weights, bias):
    t = ad.Tape()
    leaves = nf.leaf_parameters(t, [nf.ChebLayerParams(weights, bias)])
    return nf.predict_blueprint(features, graph, leaves).value


def _head(logits):
    return ad.logistic(np.clip(logits, -8.0, 8.0)).ravel()


def test_order_zero_is_dense_layer(rng):
    graph = build_element_graph(build_mesh(3, 3))
    h0 = rng.standard_normal((9, 4))
    w = rng.standard_normal((4, 1))
    bias = rng.standard_normal(1)
    out = _one_layer_blueprint(h0, graph, [w], bias)
    assert np.allclose(out, _head(h0 @ w + bias), rtol=1e-14, atol=0.0)


def test_order_one_zero_laplacian_degenerates(rng):
    graph = _zero_laplacian_graph(5)
    h0 = rng.standard_normal((5, 3))
    w0 = rng.standard_normal((3, 1))
    w1 = rng.standard_normal((3, 1))
    out = _one_layer_blueprint(h0, graph, [w0, w1], np.zeros(1))
    assert np.allclose(out, _head(h0 @ w0), rtol=1e-14, atol=0.0)


def test_order_three_matches_dense_polynomial_oracle(rng):
    graph = build_element_graph(build_mesh(3, 3))
    lap = graph.laplacian_scaled.toarray()
    h0 = rng.standard_normal((9, 3))
    weights = [0.5 * rng.standard_normal((3, 1)) for _ in range(4)]
    bias = rng.standard_normal(1)
    out = _one_layer_blueprint(h0, graph, weights, bias)
    # dense Chebyshev matrices built directly from the recursion
    t_mats = [np.eye(9), lap]
    for _ in range(2, 4):
        t_mats.append(2.0 * lap @ t_mats[-1] - t_mats[-2])
    expected = sum(t_mats[k] @ h0 @ weights[k] for k in range(4)) + bias
    assert np.abs(out - _head(expected)).max() < 1e-10


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


def test_chebyshev_terms_do_not_grow(rng):
    # |T_k| <= 1 on [-1, 1], so no term of the recursion outgrows the features
    for nelx, nely in [(5, 1), (1, 4), (17, 22), (11, 43), (60, 20)]:
        graph = build_element_graph(build_mesh(nelx, nely))
        x = rng.standard_normal((nelx * nely, 3))
        for k, term in enumerate(nf._chebyshev_terms(graph.laplacian_scaled, x, 4)):
            assert np.linalg.norm(term) <= np.linalg.norm(x) * (1 + 1e-12), (nelx, nely, k)


def test_dimension_mismatch_rejected(rng):
    graph = build_element_graph(build_mesh(2, 2))
    with pytest.raises(ValueError, match=r"\(4, 3\).*\(5, 1\)"):
        _one_layer_blueprint(rng.standard_normal((4, 3)), graph, [rng.standard_normal((5, 1))], np.zeros(1))


def _small_network():
    """A (8, 6, 1) network of order 1 on a 3 x 4 mesh, and its features."""
    mesh = build_mesh(3, 4)
    graph = build_element_graph(mesh)
    feats = fourier_encode(normalize_centroids(mesh), 4, 2.0, 0)
    return graph, feats, nf.init_parameters(nf.NetworkConfig((8, 6, 1), cheb_order=1, seed=0))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda layers: setattr(layers[0], "bias", np.zeros(1)),
         r"layer 0: bias of shape \(1,\), not \(6,\)"),
        (lambda layers: layers[0].weights.__setitem__(1, np.zeros((8, 1))),
         r"layer 0: .* weight 1 of shape \(8, 6\), not \(8, 1\)"),
        (lambda layers: layers[1].weights.__setitem__(0, np.zeros((5, 1))),
         r"layer 1: inputs of shape \(12, 6\) need weight 0 of shape \(6, 1\), not \(5, 1\)"),
        (lambda layers: layers[1].weights.__setitem__(1, np.zeros(6)),
         r"layer 1: .* weight 1 of shape \(6, 1\), not \(6,\)"),
        (lambda layers: setattr(layers[1], "weights", [np.zeros((6, 2))] * 2),
         r"layer 1: bias of shape \(1,\), not \(2,\)"),
        (lambda layers: setattr(layers[1], "bias", np.zeros(2)) or
         setattr(layers[1], "weights", [np.zeros((6, 2))] * 2),
         r"layer 1, the head, has width 2, not 1"),
        (lambda layers: setattr(layers[1], "weights", []), r"layer 1 has no weights"),
    ],
    ids=["bias", "weight-width", "input-width", "weight-rank", "head-bias", "head-width",
         "no-weights"],
)
def test_misshaped_parameters_rejected(edit, message):
    # every weight and bias is checked, not only the first weight's input
    # width: a mis-shaped one would broadcast into a blueprint of the wrong
    # length, or fail only in the backward pass
    graph, feats, layers = _small_network()
    edit(layers)
    with pytest.raises(ValueError, match=message):
        nf.predict_blueprint(feats, graph, nf.leaf_parameters(ad.Tape(), layers))


def test_parameters_must_be_tape_values(rng):
    graph = build_element_graph(build_mesh(2, 2))
    feats = rng.standard_normal((4, 3))
    layers = nf.init_parameters(nf.NetworkConfig((3, 1), seed=0))
    mixed = nf.leaf_parameters(ad.Tape(), layers)
    mixed[0].bias = layers[0].bias
    for params in (layers, mixed):
        with pytest.raises(TypeError, match="tape values"):
            nf.predict_blueprint(feats, graph, params)


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
    c = nf.init_parameters(nf.NetworkConfig((8, 6, 1), cheb_order=2, seed=10))
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
    loaded = checkpoint_layers(path)
    assert len(loaded) == len(layers)
    for la, lb in zip(layers, loaded):
        assert len(la.weights) == len(lb.weights)
        for wa, wb in zip(la.weights, lb.weights):
            assert np.array_equal(wa, wb)
        assert np.array_equal(la.bias, lb.bias)


def test_checkpoint_bytes_do_not_depend_on_the_clock(tmp_path):
    # every entry of the archive carries the fixed zip epoch, so a run
    # directory compares byte for byte with another of the same run
    layers = nf.init_parameters(nf.NetworkConfig((5, 3, 1), cheb_order=2, seed=4))
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    nf.save_parameters(first, layers)
    nf.save_parameters(second, layers)
    assert first.read_bytes() == second.read_bytes()
    with zipfile.ZipFile(first) as archive:
        assert {info.date_time for info in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}
        assert sorted(archive.namelist()) == sorted(
            f"layer{i}.{name}.npy" for i in range(2)
            for name in ("theta0", "theta1", "theta2", "bias")
        )


def test_network_config_validation():
    with pytest.raises(ValueError):
        nf.NetworkConfig((4,))
    with pytest.raises(ValueError):
        nf.NetworkConfig((4, 2))
    with pytest.raises(ValueError):
        nf.NetworkConfig((4, 4, 1), cheb_order=-1)
    for width in (0, -2, 2.5, 3.0):
        with pytest.raises(ValueError, match="integers >= 1"):
            nf.NetworkConfig((4, width, 1))
    with pytest.raises(ValueError, match="integer >= 0"):
        nf.NetworkConfig((4, 4, 1), cheb_order=1.5)


def test_network_config_refuses_bools_and_takes_numpy_integers():
    # a bool is an int to Python, but no width or order is meant by one
    with pytest.raises(ValueError, match="integers >= 1"):
        nf.NetworkConfig((4, True, 1))
    with pytest.raises(ValueError, match="integer >= 0"):
        nf.NetworkConfig((4, 4, 1), cheb_order=True)
    config = nf.NetworkConfig((np.int64(4), np.int32(3), 1), cheb_order=np.int64(2))
    assert [w.shape for w in nf.init_parameters(config)[0].weights] == [(4, 3)] * 3


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_blueprint_equals_feature_leaf_composition(order):
    # values and every weight gradient equal the network with the features as
    # a leaf and every recursion step on the tape, bit for bit
    mesh = build_mesh(7, 5)
    graph = build_element_graph(mesh)
    feats = fourier_encode(normalize_centroids(mesh), 4, 2.0, 0)
    layers = nf.init_parameters(nf.NetworkConfig((8, 6, 5, 1), cheb_order=order, seed=order))
    w = np.random.default_rng(order).standard_normal(mesh.n_elems)
    routes = {
        "network": lambda leaves: nf.predict_blueprint(feats, graph, leaves),
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
    ref_value, ref_grads, _ref_nodes = results["reference"]
    value, grads, nodes = results["network"]
    assert np.array_equal(value, ref_value)
    assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))
    # the whole network is one tape operation
    assert nodes == 1


def test_each_call_reads_its_own_features_and_graph(rng):
    mesh = build_mesh(4, 3)
    graph = build_element_graph(mesh)
    feats = rng.standard_normal((mesh.n_elems, 6))
    layers = nf.init_parameters(nf.NetworkConfig((6, 5, 1), cheb_order=2, seed=1))
    t = ad.Tape()
    leaves = nf.leaf_parameters(t, layers)
    with pytest.raises(ValueError, match=r"feature matrix shape \(11, 6\) does not match a graph "
                                         r"of 12 elements"):
        nf.predict_blueprint(feats[:-1], graph, leaves)
    # nothing is kept from one call to the next, so a second matrix and a
    # second graph each get their own terms
    other_graph = build_element_graph(build_mesh(3, 4))
    for g, x in ((graph, feats), (graph, 2.0 * feats), (other_graph, feats)):
        got = nf.predict_blueprint(x, g, leaves).value
        assert np.array_equal(got, composed_blueprint(x, g, leaves, t).value)


@st.composite
def _networks(draw):
    nelx = draw(st.integers(1, 8))
    nely = draw(st.integers(1, 8))
    depth = draw(st.integers(1, 4))
    widths = tuple(draw(st.integers(1, 9)) for _ in range(depth)) + (1,)
    order = draw(st.integers(0, 3))
    # large weights drive logits past the +-8 clamp
    scale = draw(st.sampled_from([0.5, 1.0, 4.0, 20.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return nelx, nely, widths, order, scale, seed


def _network_pass(route, layers, cotangent):
    """(values, weight gradients) of one route on a fresh tape."""
    t = ad.Tape()
    leaves = nf.leaf_parameters(t, layers)
    b = route(leaves)
    grads = t.backward((b * cotangent).sum())
    return b.value, [grads.of(x) for x in nf.parameter_arrays(leaves)]


def _drawn_network(instance):
    """(graph, features, layers, cotangent, route) of a :func:`_networks` draw."""
    nelx, nely, widths, order, scale, seed = instance
    rng = np.random.default_rng(seed)
    mesh = build_mesh(nelx, nely)
    graph = build_element_graph(mesh)
    feats = rng.standard_normal((mesh.n_elems, widths[0]))
    layers = nf.init_parameters(nf.NetworkConfig(widths, cheb_order=order, seed=seed))
    for layer in layers:
        layer.weights = [scale * w for w in layer.weights]
        layer.bias = rng.standard_normal(layer.bias.shape)
    cotangent = rng.standard_normal(mesh.n_elems)
    route = lambda leaves: nf.predict_blueprint(feats, graph, leaves)  # noqa: E731
    return graph, feats, layers, cotangent, route


@settings(max_examples=150, deadline=None)
@given(_networks())
def test_one_op_network_equals_composed_reference(instance):
    # the one-op network against the network composed node by node: same
    # values and same gradient of every weight, bit for bit
    graph, feats, layers, cotangent, route = _drawn_network(instance)
    value, grads = _network_pass(route, layers, cotangent)
    ref_value, ref_grads = _network_pass(
        lambda leaves: composed_blueprint(feats, graph, leaves, leaves[0].bias.tape),
        layers, cotangent,
    )
    assert np.array_equal(value, ref_value)
    assert len(grads) == len(ref_grads)
    assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))


def termwise_blueprint(features, graph, layers, tape):
    """The network in the association sum_k (T_k H) W_k in every layer,
    composed on the tape: the function of :func:`composed_blueprint`, with
    each layer's Laplacian products at its input width instead."""
    lap = graph.laplacian_scaled
    h = tape.leaf(np.asarray(features, dtype=float))
    for index, layer in enumerate(layers):
        terms = [h]
        for k in range(1, len(layer.weights)):
            step = ad.matmul(lap, terms[-1])
            terms.append(step if k == 1 else 2.0 * step - terms[-2])
        out = ad.matmul(h, layer.weights[0])
        for term, weight in zip(terms[1:], layer.weights[1:]):
            out = out + ad.matmul(term, weight)
        out = out + layer.bias
        h = ad.relu(out) if index < len(layers) - 1 else out
    out = ad.sigmoid(clamp_straight_through(h, -8.0, 8.0))
    return reshape(out, (out.value.shape[0],))


@settings(max_examples=100, deadline=None)
@given(_networks())
def test_network_equals_termwise_association(instance):
    # projecting before the recursion, sum_k T_k (H W_k), is the same
    # function as sum_k (T_k H) W_k: values and weight gradients agree to
    # rounding. A gradient that cancels to rounding noise (on a 1 x 3 path
    # of order 3, one read 1e-17 where the whole gradient's norm was 0.12) is
    # measured against a millionth of the whole gradient's norm instead of
    # its own.
    graph, feats, layers, cotangent, route = _drawn_network(instance)
    value, grads = _network_pass(route, layers, cotangent)
    ref_value, ref_grads = _network_pass(
        lambda leaves: termwise_blueprint(feats, graph, leaves, leaves[0].bias.tape),
        layers, cotangent,
    )
    assert rel_err(value, ref_value) < 1e-12
    assert len(grads) == len(ref_grads)
    floor = 1e-12 + 1e-6 * np.sqrt(sum(np.sum(g * g) for g in grads))
    for i, (g, r) in enumerate(zip(grads, ref_grads)):
        assert rel_err(g, r, floor=floor) < 1e-10, f"parameter {i}"


def test_pass_memory_stays_within_bound():
    # one forward pass and its VJP at 40 x 20 with the run's widths and
    # order. The forward's largest moment is the second layer's recursion:
    # its input H, the block P_1, L P_1 and the block P_0 being added, about
    # 4.0 arrays of n x 64, below the 4.5 bound and the 5.0 of a pass that
    # projects into one n x 128 array of both blocks and copies a strided
    # block for the Laplacian. The pass keeps the two hidden inputs H, and
    # the VJP's largest moment holds them, a layer's adjoint dH, one
    # Chebyshev term T_k G and its product with W_k^T, about 5.2 in all;
    # the bound of 5.8 sits below the 6.4 of a VJP that stacks all of a
    # layer's terms and forms dH as one product. Afterwards nothing of the
    # pass stays allocated.
    mesh = build_mesh(40, 20)
    graph = build_element_graph(mesh)
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((mesh.n_elems, 128))
    layers = nf.init_parameters(nf.NetworkConfig((128, 64, 64, 1), cheb_order=1, seed=0))
    cotangent = rng.standard_normal(mesh.n_elems)
    array = mesh.n_elems * 64 * 8  # bytes of one n x 64 array
    tracemalloc.start()
    try:
        t = ad.Tape()
        leaves = nf.leaf_parameters(t, layers)
        loss = (nf.predict_blueprint(feats, graph, leaves) * cotangent).sum()
        _, forward = tracemalloc.get_traced_memory()
        grads = t.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
        del t, leaves, loss, grads
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forward < 4.5 * array, forward / array
    assert peak < 5.8 * array, peak / array
    assert left < 0.1 * array, left / array


def test_passes_on_one_feature_matrix_differentiate_in_any_order(rng):
    # each pass owns its activations: two passes on one feature matrix each
    # give the composed network's gradients, whichever backward runs first
    mesh = build_mesh(6, 4)
    graph = build_element_graph(mesh)
    feats = rng.standard_normal((mesh.n_elems, 5))
    nets = [
        nf.init_parameters(nf.NetworkConfig((5, 7, 6, 1), cheb_order=2, seed=seed))
        for seed in (4, 5)
    ]
    w = rng.standard_normal(mesh.n_elems)
    expected = [
        _network_pass(
            lambda leaves: composed_blueprint(feats, graph, leaves, leaves[0].bias.tape), net, w
        )
        for net in nets
    ]
    for order in ((0, 1), (1, 0)):
        passes = []
        for net in nets:
            t = ad.Tape()
            leaves = nf.leaf_parameters(t, net)
            passes.append((t, leaves, nf.predict_blueprint(feats, graph, leaves)))
        for i in order + order:  # and as often as asked
            t, leaves, b = passes[i]
            grads = t.backward((b * w).sum())
            assert np.array_equal(b.value, expected[i][0])
            got = [grads.of(x) for x in nf.parameter_arrays(leaves)]
            assert all(np.array_equal(g, r) for g, r in zip(got, expected[i][1]))
