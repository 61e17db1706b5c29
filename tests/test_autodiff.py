import numpy as np
import pytest
import scipy.sparse as sp

import topofield as tf
from topofield import autodiff as ad
from topofield.oracle import finite_difference_gradient

from conftest import cantilever_problem, rel_err


def test_relu_negative_input():
    t = ad.Tape()
    x = t.leaf(-2.0)
    y = ad.relu(x)
    assert y.value == 0.0
    assert t.backward(y).of(x) == 0.0


def test_sigmoid_at_zero():
    t = ad.Tape()
    x = t.leaf(0.0)
    y = ad.sigmoid(x)
    assert y.value == 0.5
    assert t.backward(y).of(x) == 0.25


def test_hand_differentiated_quadratic():
    # d/dx (x*x + 3x) at x=2 is 7
    t = ad.Tape()
    x = t.leaf(2.0)
    y = x * x + 3.0 * x
    assert t.backward(y).of(x) == 7.0


def test_additive_accumulation():
    t = ad.Tape()
    x = t.leaf(3.0)
    assert t.backward(x + x).of(x) == 2.0


def test_output_is_its_own_gradient():
    t = ad.Tape()
    x = t.leaf(5.0)
    grads = t.backward(x)
    assert grads.of(x) == 1.0


def test_sum_of_leaves_unit_gradients():
    t = ad.Tape()
    leaves = [t.leaf(float(i)) for i in range(5)]
    out = leaves[0]
    for leaf in leaves[1:]:
        out = out + leaf
    grads = t.backward(out)
    for leaf in leaves:
        assert grads.of(leaf) == 1.0


def test_unused_leaf_gets_zeros():
    t = ad.Tape()
    x = t.leaf(np.ones(3))
    y = t.leaf(2.0)
    grads = t.backward(y * y)
    assert np.array_equal(grads.of(x), np.zeros(3))


def test_backward_rejects_nonscalar():
    t = ad.Tape()
    x = t.leaf(np.ones(3))
    with pytest.raises(ValueError):
        t.backward(x + 1.0)


def test_tape_reusable_after_backward():
    t = ad.Tape()
    x = t.leaf(2.0)
    g1 = t.backward(x * x).of(x)
    t.reset()
    assert len(t) == 0
    x = t.leaf(4.0)
    g2 = t.backward(x * x).of(x)
    assert (g1, g2) == (4.0, 8.0)


def _fd_check(build, x0, tol=1e-7, h=1e-6):
    def f(x):
        t = ad.Tape()
        xv = t.leaf(x)
        return float(build(xv).value)

    t = ad.Tape()
    xv = t.leaf(x0)
    out = build(xv)
    g = t.backward(out).of(xv)
    fd = finite_difference_gradient(f, x0.copy(), h)
    assert rel_err(g, fd, floor=1e-8) < tol, build


def test_elementwise_gradients_match_fd(rng):
    x0 = rng.uniform(0.2, 0.9, 6)
    cases = [
        lambda x: (x * x + 2.0 * x).sum(),
        lambda x: (x / (1.0 + x)).sum(),
        lambda x: ad.power(x, 3.7).sum(),
        lambda x: ad.sqrt(x).sum(),
        lambda x: ad.sigmoid(x).sum(),
        lambda x: ad.relu(x - 0.5).sum(),
        lambda x: (2.0 - x).sum(),
    ]
    for build in cases:
        _fd_check(build, x0)


def test_broadcast_bias_gradient(rng):
    h = rng.standard_normal((5, 3))
    t = ad.Tape()
    b = t.leaf(np.array([0.1, 0.2, 0.3]))
    out = (t.leaf(h) + b).sum()
    g = t.backward(out).of(b)
    assert np.allclose(g, 5.0 * np.ones(3))


def test_matmul_identity_and_zero():
    t = ad.Tape()
    x = t.leaf(np.array([1.0, -2.0, 3.0]))
    y = ad.matmul(np.eye(3), x)
    grads = t.backward(y.sum())
    assert np.array_equal(y.value, x.value)
    assert np.array_equal(grads.of(x), np.ones(3))

    t.reset()
    x = t.leaf(np.array([1.0, -2.0, 3.0]))
    y = ad.matmul(np.zeros((3, 3)), x)
    grads = t.backward(y.sum())
    assert np.array_equal(y.value, np.zeros(3))
    assert np.array_equal(grads.of(x), np.zeros(3))


def test_matmul_gradients_match_fd(rng):
    a0 = rng.standard_normal((3, 3))
    x0 = rng.standard_normal(3)
    w = rng.standard_normal(3)

    def f_x(x):
        t = ad.Tape()
        return float((ad.matmul(a0, t.leaf(x)) * w).sum().value)

    def f_a(a):
        t = ad.Tape()
        return float((ad.matmul(t.leaf(a), x0) * w).sum().value)

    t = ad.Tape()
    a = t.leaf(a0)
    x = t.leaf(x0)
    out = (ad.matmul(a, x) * w).sum()
    grads = t.backward(out)
    assert rel_err(grads.of(x), finite_difference_gradient(f_x, x0.copy())) < 1e-7
    assert rel_err(grads.of(a), finite_difference_gradient(f_a, a0.copy())) < 1e-7


def test_matmul_sparse_constant(rng):
    mat = sp.csr_array(sp.random(6, 6, density=0.4, random_state=1))
    h0 = rng.standard_normal((6, 2))
    w = rng.standard_normal((6, 2))

    def f(h):
        t = ad.Tape()
        return float((ad.matmul(mat, t.leaf(h)) * w).sum().value)

    t = ad.Tape()
    h = t.leaf(h0)
    out = (ad.matmul(mat, h) * w).sum()
    g = t.backward(out).of(h)
    assert rel_err(g, finite_difference_gradient(f, h0.copy())) < 1e-7


def test_matmul_dimension_mismatch():
    t = ad.Tape()
    with pytest.raises(ValueError):
        ad.matmul(np.eye(3), t.leaf(np.ones(4)))


def test_gather_scatter_adds(rng):
    t = ad.Tape()
    x = t.leaf(np.array([1.0, 2.0, 3.0]))
    y = ad.gather(x, np.array([0, 0, 2]))
    g = t.backward(y.sum()).of(x)
    assert np.array_equal(g, np.array([2.0, 0.0, 1.0]))


def test_concat_splits_adjoint():
    t = ad.Tape()
    a = t.leaf(np.array([1.0, 2.0]))
    b = t.leaf(np.array([3.0]))
    out = (ad.concat([a, b]) * np.array([1.0, 2.0, 3.0])).sum()
    grads = t.backward(out)
    assert np.array_equal(grads.of(a), np.array([1.0, 2.0]))
    assert np.array_equal(grads.of(b), np.array([3.0]))


def test_reshape_roundtrips_gradient(rng):
    t = ad.Tape()
    x = t.leaf(rng.standard_normal((2, 3)))
    out = (ad.reshape(x, (6,)) * np.arange(6.0)).sum()
    g = t.backward(out).of(x)
    assert g.shape == (2, 3)
    assert np.array_equal(g.ravel(), np.arange(6.0))


def test_domain_errors():
    t = ad.Tape()
    x = t.leaf(np.array([1.0, 0.0]))
    with pytest.raises(ad.NumericDomainError):
        x / t.leaf(np.array([1.0, 0.0]))
    with pytest.raises(ad.NumericDomainError):
        ad.sqrt(t.leaf(-1.0))
    with pytest.raises(ad.NumericDomainError):
        ad.power(t.leaf(-0.5), 0.5)
    with pytest.raises(ad.NumericDomainError):
        ad.power(x, -1.0)


def test_domain_error_carries_node_id():
    t = ad.Tape()
    x = t.leaf(-1.0)
    try:
        ad.sqrt(x)
    except ad.NumericDomainError as err:
        assert err.node == 1
    else:
        raise AssertionError("expected NumericDomainError")


def test_fractional_power_zero_gradient_defined():
    t = ad.Tape()
    x = t.leaf(np.array([0.0, 4.0]))
    y = ad.power(x, 0.5)
    g = t.backward(y.sum()).of(x)
    assert g[0] == 0.0
    assert np.isclose(g[1], 0.25)


def test_linear_solve_single_element_matches_dense():
    # one element, left edge fixed, unit downward load at bottom-right corner
    mesh = tf.build_mesh(1, 1)
    mat = tf.MaterialModel()
    fixed = np.array([0, 1, 4, 5])  # left-hand corner nodes (global DOFs)
    f = np.zeros(8)
    f[3] = -1.0
    t = ad.Tape()
    rho = t.leaf(np.array([1.0]))
    u, _system = tf.assemble_and_solve(rho, mesh, mat, fixed, f)

    ke = tf.fea.element_stiffness_unit(mat.nu) * mat.modulus(np.array([1.0]))[0]
    kg = np.zeros((8, 8))
    dofs = mesh.dof_map[0]
    kg[np.ix_(dofs, dofs)] += ke
    free = np.setdiff1d(np.arange(8), fixed)
    dense = np.zeros(8)
    dense[free] = np.linalg.solve(kg[np.ix_(free, free)], f[free])
    assert np.allclose(u.value, dense, atol=1e-12)
    assert np.all(u.value[fixed] == 0.0)


def test_linear_solve_scales_inversely_with_stiffness():
    mesh, fixed, f = cantilever_problem(2, 1)
    t = ad.Tape()
    rho = t.leaf(np.full(2, 1.0))
    mat1 = tf.MaterialModel(E0=1.0)
    mat2 = tf.MaterialModel(E0=2.0)
    u1, _ = tf.assemble_and_solve(rho, mesh, mat1, fixed, f)
    u2, _ = tf.assemble_and_solve(rho, mesh, mat2, fixed, f)
    assert np.allclose(u1.value, 2.0 * u2.value, rtol=1e-12)


def test_linear_solve_compliance_gradient_fd():
    mesh, fixed, f = cantilever_problem(4, 3)
    mat = tf.MaterialModel()
    rho0 = np.random.default_rng(8).uniform(0.3, 0.9, mesh.n_elems)

    def comp(r):
        t = ad.Tape()
        u, _ = tf.assemble_and_solve(t.leaf(r), mesh, mat, fixed, f)
        return float(tf.compliance(u, f).value)

    t = ad.Tape()
    rho = t.leaf(rho0)
    u, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
    g = t.backward(tf.compliance(u, f)).of(rho)
    fd = finite_difference_gradient(comp, rho0.copy(), 1e-6)
    assert rel_err(g, fd, floor=1e-8) < 1e-6


def test_linear_solve_singular_system_raises():
    mesh, _fixed, f = cantilever_problem(2, 2)
    t = ad.Tape()
    rho = t.leaf(np.full(4, 0.5))
    with pytest.raises(ad.SolverFailureError):
        tf.assemble_and_solve(rho, mesh, tf.MaterialModel(), np.array([0, 1]), f)


def test_composite_loss_gradient_fd_small():
    # full pipeline on a 2x2 problem: blueprint -> filter -> solve -> loss
    mesh, fixed, f = cantilever_problem(2, 2)
    mat = tf.MaterialModel()
    params = tf.FilterParams()
    spec = tf.LossSpec(
        volume_weight=3.0,
        stress_weight=2.0,
        volume_target=0.5 * mesh.n_elems,
        sigma_allow=1.5,
        elem_volumes=np.ones(mesh.n_elems),
        compliance_scale=10.0,
        one_sided=False,
    )
    agg = tf.StressAggregate(spec.sigma_allow, 8.0)
    b0 = np.random.default_rng(2).uniform(0.3, 0.8, mesh.n_elems)

    def loss_of(bv):
        t = ad.Tape()
        b = t.leaf(bv)
        rho = tf.apply_filter(b, 2, 2, params)
        u, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
        stress = tf.fea.centroid_stress(u, rho, mesh, mat)
        pn = tf.fea.p_norm_stress(stress, agg)
        return tf.optimizer.composite_loss(tf.compliance(u, f), rho, pn, spec)

    t = ad.Tape()
    b = t.leaf(b0)
    rho = tf.apply_filter(b, 2, 2, params)
    u, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
    stress = tf.fea.centroid_stress(u, rho, mesh, mat)
    pn = tf.fea.p_norm_stress(stress, agg)
    loss = tf.optimizer.composite_loss(tf.compliance(u, f), rho, pn, spec)
    g = t.backward(loss).of(b)

    fd = finite_difference_gradient(lambda x: float(loss_of(x).value), b0.copy(), 1e-6)
    assert rel_err(g, fd, floor=1e-8) < 1e-5
