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
