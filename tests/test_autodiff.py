import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import topofield as tf
from topofield import autodiff as ad
from topofield import fea
from topofield.oracle import finite_difference_gradient

from conftest import cantilever_problem, concat, rel_err, reshape


def test_relu_negative_input():
    t = ad.Tape()
    x = t.leaf(-2.0)
    y = ad.relu(x)
    assert y.value == 0.0
    assert t.backward(y).of(x) == 0.0


def test_relu_maps_negative_zero_to_positive_zero():
    t = ad.Tape()
    x = t.leaf(np.array([-0.0, 0.0, -1.5, 2.0]))
    y = ad.relu(x)
    assert np.array_equal(y.value, [0.0, 0.0, 0.0, 2.0])
    assert not np.signbit(y.value).any()
    assert np.array_equal(t.backward(y.sum()).of(x), [0.0, 0.0, 0.0, 1.0])


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


def test_release_frees_the_solve_factor_before_earlier_nodes_run(monkeypatch):
    # the first node recorded with a VJP runs last; by then a released tape
    # has dropped the solve's closure and, with it, the only reference to
    # the factor, while the default keeps it until the tape goes
    mesh, fixed, f = cantilever_problem(3, 2)
    factors = []
    factorize = fea.SimpAssembler.factorize

    def factorize_and_watch(assembler):
        factor = factorize(assembler)
        factors.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(fea.SimpAssembler, "factorize", factorize_and_watch)
    factor_alive, grads = [], []
    for release in (False, True):
        t = ad.Tape()
        x = t.leaf(np.full(mesh.n_elems, 0.5))

        def watch(g):
            factor_alive.append(factors[-1]() is not None)
            return (g,)

        rho = t._record(x.value, (x.nid,), watch)
        u, _ = tf.assemble_and_solve(rho, mesh, tf.MaterialModel(), fixed, f)
        grads.append(t.backward(tf.compliance(u, f), release=release).of(x))
    assert factor_alive == [True, False]
    assert np.array_equal(grads[0], grads[1])


def test_second_backward_on_a_released_tape_names_the_node():
    t = ad.Tape()
    x = t.leaf(2.0)
    y = x * x
    z = y + 1.0
    assert t.backward(z, release=True).of(x) == 4.0
    # released nodes keep their place, and none passes for a leaf
    assert len(t) == 3
    with pytest.raises(RuntimeError, match="tape node 2 was released"):
        t.backward(z)
    with pytest.raises(RuntimeError, match="tape node 1 was released"):
        t.backward(y, release=True)
    # a leaf has no VJP to release: its own backward still works
    assert t.backward(x).of(x) == 1.0


def test_released_backward_drops_every_adjoint_but_the_leaves():
    # a released backward keeps no adjoint past the VJP that consumed it, so
    # reading a non-leaf's names the node instead of passing for a zero
    t = ad.Tape()
    x = t.leaf(np.array([2.0, 3.0]))
    w = t.leaf(4.0)
    y = x * w
    z = ad.total(y * y)
    grads = t.backward(z, release=True)
    for node in (y, z):
        with pytest.raises(RuntimeError, match=f"tape node {node.nid} was released"):
            grads.of(node)
    assert np.array_equal(grads.of(x), [64.0, 96.0])
    assert grads.of(w) == 104.0
    # the default keeps them all
    t.reset()
    x = t.leaf(np.array([2.0, 3.0]))
    y = x * 4.0
    assert np.array_equal(t.backward(ad.total(y * y)).of(y), [16.0, 24.0])


def test_released_tape_records_again_after_reset():
    t = ad.Tape()
    x = t.leaf(2.0)
    t.backward(x * x, release=True)
    t.reset()
    x = t.leaf(3.0)
    y = x * x
    assert t.backward(y, release=True).of(x) == 6.0
    t.reset()
    assert len(t) == 0


def test_default_backward_repeats_through_filter_and_solve(rng):
    # gradient checks backpropagate one tape several times through the same
    # filter and solve; only backward(release=True) forbids that
    mesh, fixed, f = cantilever_problem(6, 4)
    t = ad.Tape()
    b = t.leaf(rng.uniform(0.2, 0.9, mesh.n_elems))
    rho = tf.apply_filter(b, 6, 4, tf.FilterParams())
    u, _ = tf.assemble_and_solve(rho, mesh, tf.MaterialModel(), fixed, f)
    c = tf.compliance(u, f)
    first = t.backward(c).of(b)
    assert np.array_equal(t.backward(c).of(b), first)
    assert np.array_equal(t.backward(c, release=True).of(b), first)


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
        lambda x: ad.power(x, 3.7).sum(),
        lambda x: ad.sqrt(x).sum(),
        lambda x: ad.sigmoid(x).sum(),
        lambda x: ad.relu(x - 0.5).sum(),
        lambda x: ad.sub(2.0, x).sum(),
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
    # only matrix@vector and matrix@matrix are products on the tape
    with pytest.raises(ValueError):
        ad.matmul(np.ones(3), t.leaf(np.eye(3)))
    # a product of two constants is not recorded
    with pytest.raises(TypeError):
        ad.matmul(np.eye(3), np.ones(3))


def test_tape_values_do_not_divide():
    # the program multiplies by a constant's reciprocal, v * (1.0 / c), instead
    t = ad.Tape()
    x = t.leaf(np.array([1.0, 2.0]))
    with pytest.raises(TypeError):
        x / 2.0
    with pytest.raises(TypeError):
        1.0 / x


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
    out = (concat([a, b]) * np.array([1.0, 2.0, 3.0])).sum()
    grads = t.backward(out)
    assert np.array_equal(grads.of(a), np.array([1.0, 2.0]))
    assert np.array_equal(grads.of(b), np.array([3.0]))


def test_reshape_roundtrips_gradient(rng):
    t = ad.Tape()
    x = t.leaf(rng.standard_normal((2, 3)))
    out = (reshape(x, (6,)) * np.arange(6.0)).sum()
    g = t.backward(out).of(x)
    assert g.shape == (2, 3)
    assert np.array_equal(g.ravel(), np.arange(6.0))


def test_domain_errors():
    t = ad.Tape()
    x = t.leaf(np.array([1.0, 0.0]))
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
