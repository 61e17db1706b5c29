import numpy as np
import pytest

import topofield as tf


def rel_err(a, b, floor=1e-12):
    """Norm-wise relative disagreement ||a - b|| / (||a|| + floor)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.linalg.norm((a - b).ravel()) / (np.linalg.norm(a.ravel()) + floor)


def cantilever_problem(nelx, nely, load_dof_y=None, elem_size=1.0):
    """Small left-clamped cantilever with a unit tip load."""
    mesh = tf.build_mesh(nelx, nely, elem_size)
    left = np.array([mesh.node_id(0, i) for i in range(nely + 1)])
    fixed = np.concatenate([2 * left, 2 * left + 1])
    f = np.zeros(mesh.n_dofs)
    node = mesh.node_id(nelx, 0) if load_dof_y is None else load_dof_y
    f[2 * node + 1] = -1.0
    return mesh, fixed, f


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def checkpoint_layers(path):
    """The layers of a ``weights.ckpt``, read by ``np.load`` from its
    documented names ``layer<i>.theta<k>`` and ``layer<i>.bias``; every
    layer holds the same number of weight matrices."""
    from topofield.neuralfield import ChebLayerParams

    with np.load(path) as arrays:
        depth = sum(name.endswith(".bias") for name in arrays.files)
        count = len(arrays.files) // depth - 1
        return [ChebLayerParams([arrays[f"layer{i}.theta{k}"] for k in range(count)],
                                arrays[f"layer{i}.bias"]) for i in range(depth)]


# tape ops that only the composed references below and their tests record
def clamp_straight_through(x, lo, hi):
    """Clip the forward value but pass the adjoint through unchanged, as the
    network's logit clamp does: a plain clamp would kill the gradient exactly
    where the optimizer needs it to pull a saturated unit back into range."""
    return x.tape._record(np.clip(x.value, lo, hi), (x.nid,), lambda g: (g,))


def reshape(x, shape):
    orig = x.value.shape
    return x.tape._record(x.value.reshape(shape), (x.nid,), lambda g: (g.reshape(orig),))


def concat(parts, axis=0):
    """Concatenate values along ``axis``; backward splits the adjoint."""
    offsets = np.cumsum([p.value.shape[axis] for p in parts])[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    values = np.concatenate([p.value for p in parts], axis=axis)
    return parts[0].tape._record(values, tuple(p.nid for p in parts), vjp)


def composed_filter(blueprint, nelx, nely, params):
    """The smooth filter sweep composed on the tape from the public
    surrogates, one node per elementwise step: the independent reference for
    :func:`topofield.amfilter.apply_filter`'s single-operation VJP."""
    from topofield import autodiff as ad
    from topofield.amfilter import smooth_max, smooth_min

    if nely == 1:
        return blueprint
    left_idx = np.maximum(np.arange(nelx) - 1, 0)
    right_idx = np.minimum(np.arange(nelx) + 1, nelx - 1)
    left_mask = np.ones(nelx)
    left_mask[0] = 0.0
    right_mask = np.ones(nelx)
    right_mask[-1] = 0.0
    rows = [ad.gather(blueprint, np.arange(nelx))]
    for i in range(1, nely):
        b_i = ad.gather(blueprint, np.arange(i * nelx, (i + 1) * nelx))
        prev = rows[-1]
        below_left = ad.gather(prev, left_idx) * left_mask
        below_right = ad.gather(prev, right_idx) * right_mask
        support_max = smooth_max((below_left, prev, below_right), params)
        rows.append(smooth_min(b_i, support_max, params))
    return clamp_straight_through(concat(rows), 0.0, 1.0)


def composed_blueprint(features, graph, layers, tape):
    """The network's blueprint with the feature matrix as a tape leaf and
    every Chebyshev recursion step recorded: the reference for
    :func:`topofield.neuralfield.predict_blueprint`, which records the whole
    network as one tape node.

    Every layer projects first, P_k = H W_k by one product node per order,
    and sums T_k P_k by Clenshaw's recursion b_k = P_k + 2 L b_{k+1} - b_{k+2},
    ending at b_0 = P_0 + L b_1 - b_2; each P_k is recorded when the
    recursion first reads it. H is the features in the first layer and the
    previous layer's ReLU after it."""
    from topofield import autodiff as ad

    lap = graph.laplacian_scaled
    h = tape.leaf(np.asarray(features, dtype=float))
    for index, layer in enumerate(layers):
        if index:
            h = ad.relu(out)
        weights = layer.weights
        acc, prev = ad.matmul(h, weights[-1]), None
        for k in range(len(weights) - 2, -1, -1):
            nxt = ad.matmul(lap, acc)
            if k > 0:
                nxt = 2.0 * nxt
            nxt = ad.matmul(h, weights[k]) + nxt
            if prev is not None:
                nxt = nxt - prev
            prev, acc = acc, nxt
        out = acc + layer.bias
    out = ad.sigmoid(clamp_straight_through(out, -8.0, 8.0))
    return reshape(out, (out.value.shape[0],))


def composed_graph(mesh):
    """The element graph built the general way, a COO edge list summed into
    CSR, degrees by a row sum and the scaled Laplacian as the sparse product
    -D^{-1/2} A D^{-1/2}: the reference for
    :func:`topofield.meshgraph.build_element_graph`'s closed form."""
    import scipy.sparse as sp

    n = mesh.n_elems
    ids = np.arange(n).reshape(mesh.nely, mesh.nelx)
    pairs = np.vstack([
        np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()]),
        np.column_stack([ids[:-1, :].ravel(), ids[1:, :].ravel()]),
    ])
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    adjacency = sp.csr_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    degree = adjacency.sum(axis=1)
    dhalf = sp.diags_array(1.0 / np.sqrt(np.maximum(degree, 1)), format="csr")
    return adjacency, -(dhalf @ adjacency @ dhalf)


def scanned_point_supports(mesh, fixed_dofs):
    """Elements with a corner on a point support, found by scanning every
    element's corner nodes: the reference for
    :func:`topofield.fea.point_support_elements`'s grid arithmetic."""
    fixed = np.zeros(mesh.n_nodes, dtype=bool)
    fixed[np.asarray(fixed_dofs, dtype=np.int64) // 2] = True
    grid = np.pad(fixed.reshape(mesh.nely + 1, mesh.nelx + 1), 1)
    inner = grid[1:-1, 1:-1]
    neighbour = grid[:-2, 1:-1] | grid[2:, 1:-1] | grid[1:-1, :-2] | grid[1:-1, 2:]
    pins = np.flatnonzero(inner & ~neighbour)
    touches = np.isin(mesh.dof_map[:, 0::2] // 2, pins).any(axis=1)
    return tuple(int(e) for e in np.flatnonzero(touches))
