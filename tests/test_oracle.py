import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topofield as tf
from topofield import autodiff as ad
from topofield import oracle

from conftest import cantilever_problem, rel_err


def test_fd_quadratic():
    g = oracle.finite_difference_gradient(lambda x: float((x**2).sum()), np.array([1.0, 2.0]))
    assert rel_err(g, np.array([2.0, 4.0])) < 1e-8


def test_fd_linear_exact():
    w = np.array([3.0, -1.5, 0.25])
    for h in (1e-2, 1e-6):
        g = oracle.finite_difference_gradient(lambda x: float(w @ x), np.zeros(3), h)
        assert np.allclose(g, w, rtol=1e-9)


def test_fd_flags_nonfinite_coordinates():
    def f(x):
        with np.errstate(invalid="ignore"):
            return float(np.log(x[0]))

    g = oracle.finite_difference_gradient(f, np.array([1e-7, 1.0]), h=1e-6)
    assert np.isnan(g[0])  # log of a negative perturbation
    assert g[1] == 0.0


def test_filter_adjoint_single_layer_is_identity():
    params = tf.FilterParams()
    g_rho = np.array([[0.3, -0.7, 1.1]])
    grad = oracle.filter_adjoint_gradient(np.array([[0.5, 0.5, 0.5]]), g_rho, params)
    assert np.array_equal(grad, g_rho)


def test_filter_adjoint_volume_response_fd(rng):
    params = tf.FilterParams()
    blueprint = rng.uniform(0.1, 0.9, (3, 3))

    def vol(b):
        return float(tf.apply_filter(b.ravel(), 3, 3, params).sum())

    grad = oracle.filter_adjoint_gradient(blueprint, np.ones((3, 3)), params)
    fd = oracle.finite_difference_gradient(vol, blueprint.copy(), 1e-7)
    assert rel_err(grad, fd, floor=1e-8) < 1e-7


def test_filter_adjoint_matches_tape(rng):
    params = tf.FilterParams()
    nelx, nely = 4, 5
    blueprint = rng.uniform(0.05, 0.95, nely * nelx)
    w = rng.uniform(-1.0, 1.0, nely * nelx)
    t = ad.Tape()
    b = t.leaf(blueprint)
    out = (tf.apply_filter(b, nelx, nely, params) * w).sum()
    g_tape = t.backward(out).of(b)
    g_adj = oracle.filter_adjoint_gradient(
        blueprint.reshape(nely, nelx), w.reshape(nely, nelx), params
    ).ravel()
    assert np.linalg.norm(g_tape - g_adj) <= 1e-10 * (np.linalg.norm(g_tape) + 1e-12)


def test_filter_adjoint_matches_dense_jacobian_chain(rng):
    # build per-layer Jacobians explicitly and multiply the full chain
    params = tf.FilterParams()
    nelx, nely = 4, 4
    blueprint = rng.uniform(0.1, 0.9, (nely, nelx))
    g_rho = rng.standard_normal((nely, nelx))

    eps = params.epsilon
    p = params.sharpness
    q = params.root_exponent
    rho = np.zeros_like(blueprint)
    rho[0] = blueprint[0]
    a_diag = [np.eye(nelx)]  # d rho_i / d b_i
    b_prev = [None]  # d rho_i / d rho_{i-1}
    for i in range(1, nely):
        padded = np.concatenate([[0.0], rho[i - 1], [0.0]])
        s = padded[:-2] ** p + padded[1:-1] ** p + padded[2:] ** p
        e = s ** (1.0 / q)
        d = blueprint[i] - e
        root = np.sqrt(d * d + eps)
        rho[i] = 0.5 * (blueprint[i] + e - root + np.sqrt(eps))
        ds_db = 0.5 * (1.0 - d / root)
        ds_de = 0.5 * (1.0 + d / root)
        de_ds = (1.0 / q) * s ** (1.0 / q - 1.0)
        jac = np.zeros((nelx, nelx))
        for j in range(nelx):
            for jp in (j - 1, j, j + 1):
                if 0 <= jp < nelx:
                    jac[j, jp] = ds_de[j] * de_ds[j] * p * rho[i - 1, jp] ** (p - 1.0)
        a_diag.append(np.diag(ds_db))
        b_prev.append(jac)

    grad = np.zeros_like(blueprint)
    for m in range(nely):
        total = g_rho[m] @ a_diag[m] if m > 0 else g_rho[0].copy()
        chain = a_diag[m] if m > 0 else np.eye(nelx)
        for k in range(m + 1, nely):
            chain = b_prev[k] @ chain
            total += g_rho[k] @ chain
        grad[m] = total

    adj = oracle.filter_adjoint_gradient(blueprint, g_rho, params)
    assert rel_err(adj, grad) < 1e-12


def _stress_setup(
    nelx, nely, rho_vals, sigma_allow=2.0, load_node=None, excluded=(), elem_size=1.0
):
    mesh, fixed, f = cantilever_problem(nelx, nely, load_dof_y=load_node, elem_size=elem_size)
    mat = tf.MaterialModel()
    agg = tf.StressAggregate(sigma_allow, 8.0, excluded=excluded)
    t = ad.Tape()
    rho = t.leaf(rho_vals)
    u, system = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
    stress = tf.fea.centroid_stress(u, rho, mesh, mat)
    pn = tf.fea.p_norm_stress(stress, agg)
    return mesh, mat, fixed, f, agg, t, rho, system, stress, pn


def test_stress_adjoint_inherits_mirror_symmetry():
    # uniform density, load at the middle of the free edge of an even-height
    # cantilever: the gradient must mirror across the horizontal midline
    nelx, nely = 4, 4
    mesh = tf.build_mesh(nelx, nely)
    mid = mesh.node_id(nelx, nely // 2)
    _mesh, mat, _fx, _f, agg, _t, _rho, system, stress, _pn = _stress_setup(
        nelx, nely, np.full(nelx * nely, 0.7), load_node=mid
    )
    grad = oracle.stress_adjoint_gradient(system, stress, agg, mat)
    grid = grad.reshape(nely, nelx)
    assert np.allclose(grid, np.flipud(grid), rtol=1e-9, atol=1e-12)


def test_stress_adjoint_matches_fd(rng):
    nelx, nely = 3, 2
    mesh, fixed, f = cantilever_problem(nelx, nely)
    mat = tf.MaterialModel()
    # (2, 3): the loaded corner element and the clamped one above it
    for excluded in [(), (2, 3)]:
        rho0 = rng.uniform(0.3, 0.9, nelx * nely)
        agg = tf.StressAggregate(2.0, 8.0, excluded=excluded)

        def pn_of(r):
            t = ad.Tape()
            rho = t.leaf(r)
            u, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
            stress = tf.fea.centroid_stress(u, rho, mesh, mat)
            return float(tf.fea.p_norm_stress(stress, agg).value)

        _m, _mt, _fx, _f, _agg, _t, _rho, system, stress, _pn = _stress_setup(
            nelx, nely, rho0, excluded=excluded
        )
        grad = oracle.stress_adjoint_gradient(system, stress, agg, mat)
        fd = oracle.finite_difference_gradient(pn_of, rho0.copy(), 1e-6)
        assert rel_err(grad, fd, floor=1e-8) < 1e-6


def test_stress_adjoint_matches_tape(rng):
    # the last instance checks that the oracle follows the element size
    cases = [(3, 2, (), 1), (5, 3, (), 1), (6, 4, (), 1), (6, 4, (0, 5, 17), 1), (5, 3, (), 2)]
    for nelx, nely, excluded, elem_size in cases:
        rho0 = rng.uniform(0.2, 1.0, nelx * nely)
        _m, mat, _fx, _f, agg, t, rho, system, stress, pn = _stress_setup(
            nelx, nely, rho0, excluded=excluded, elem_size=elem_size
        )
        g_tape = t.backward(pn).of(rho)
        g_adj = oracle.stress_adjoint_gradient(system, stress, agg, mat)
        assert np.linalg.norm(g_tape - g_adj) <= 1e-8 * (np.linalg.norm(g_tape) + 1e-12)


def test_stress_adjoint_reads_only_the_von_mises_values(rng):
    # a fresh leaf on its own tape holding the checked route's von Mises
    # values gives the same gradient: the oracle takes nothing else from it
    _m, mat, _fx, _f, agg, _t, _rho, system, stress, _pn = _stress_setup(
        4, 3, rng.uniform(0.2, 1.0, 12), excluded=(0, 5)
    )
    copied = ad.Tape().leaf(stress.value.copy())
    assert np.array_equal(
        oracle.stress_adjoint_gradient(system, copied, agg, mat),
        oracle.stress_adjoint_gradient(system, stress, agg, mat),
    )


def test_stress_adjoint_zero_stress_returns_zeros():
    nelx, nely = 2, 2
    mesh, fixed, _f = cantilever_problem(nelx, nely)
    mat = tf.MaterialModel()
    agg = tf.StressAggregate(2.0, 8.0)
    t = ad.Tape()
    rho = t.leaf(np.full(4, 0.5))
    u, system = tf.assemble_and_solve(rho, mesh, mat, fixed, np.zeros(mesh.n_dofs))
    stress = tf.fea.centroid_stress(u, rho, mesh, mat)
    assert np.array_equal(
        oracle.stress_adjoint_gradient(system, stress, agg, mat), np.zeros(4)
    )


def test_three_way_agreement_composite(rng):
    # tape vs analytic adjoint chain vs finite differences on the full
    # blueprint -> filter -> solve -> {compliance, volume, stress} composition
    params = tf.FilterParams()
    nelx, nely = 5, 3
    mesh, fixed, f = cantilever_problem(nelx, nely)
    mat = tf.MaterialModel()
    agg = tf.StressAggregate(1.8, 8.0)
    b0 = rng.uniform(0.15, 0.85, nelx * nely)
    weights = dict(c=0.4, v=0.25, s=0.35)

    def response(bv):
        t = ad.Tape()
        b = t.leaf(bv)
        rho = tf.apply_filter(b, nelx, nely, params)
        u, system = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
        stress = tf.fea.centroid_stress(u, rho, mesh, mat)
        pn = tf.fea.p_norm_stress(stress, agg)
        c = tf.compliance(u, f)
        out = weights["c"] * c + weights["v"] * rho.sum() + weights["s"] * pn
        return t, b, system, stress, out

    t, b, system, stress, out = response(b0)
    g_tape = t.backward(out).of(b)

    # analytic chain: seed d(response)/d(printed), then the filter adjoint
    g_rho = (
        weights["c"] * oracle.compliance_density_gradient(system)
        + weights["v"] * np.ones(nelx * nely)
        + weights["s"] * oracle.stress_adjoint_gradient(system, stress, agg, mat)
    )
    g_adj = oracle.filter_adjoint_gradient(
        b0.reshape(nely, nelx), g_rho.reshape(nely, nelx), params
    ).ravel()

    fd = oracle.finite_difference_gradient(
        lambda x: float(response(x)[-1].value), b0.copy(), 1e-6
    )
    assert np.linalg.norm(g_tape - g_adj) <= 1e-8 * (np.linalg.norm(g_tape) + 1e-12)
    assert np.linalg.norm(g_tape - fd) <= 1e-5 * (np.linalg.norm(g_tape) + 1e-8)


@st.composite
def _legal_problems(draw):
    """A mesh with any element size, one of the three support layouts the
    presets use, 1-3 loads on free DOFs and a stress limit."""
    nelx, nely = draw(st.integers(2, 6)), draw(st.integers(2, 5))
    mesh = tf.build_mesh(nelx, nely, draw(st.floats(0.25, 4.0)))
    supports = draw(st.sampled_from(["clamped left", "clamped base", "pins"]))
    if supports == "pins":
        n_bl, n_br = mesh.node_id(0, 0), mesh.node_id(nelx, 0)
        fixed = np.array([2 * n_bl, 2 * n_bl + 1, 2 * n_br + 1])
    else:
        if supports == "clamped left":
            nodes = np.array([mesh.node_id(0, i) for i in range(nely + 1)])
        else:
            nodes = np.array([mesh.node_id(j, 0) for j in range(nelx + 1)])
        fixed = np.sort(np.concatenate([2 * nodes, 2 * nodes + 1]))
    free = np.setdiff1d(np.arange(mesh.n_dofs), fixed)
    f = np.zeros(mesh.n_dofs)
    for dof in draw(st.lists(st.sampled_from(free.tolist()), min_size=1, max_size=3, unique=True)):
        f[dof] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, 2.0))
    excluded = tf.fea.point_support_elements(mesh, fixed)
    agg = tf.StressAggregate(draw(st.floats(0.2, 5.0)), 8.0, excluded=excluded)
    b0 = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        0.15, 0.85, mesh.n_elems
    )
    return mesh, fixed, f, agg, b0


@settings(max_examples=60, deadline=None)
@given(_legal_problems())
def test_three_way_agreement_on_legal_inputs(problem):
    # criterion 1's tolerances on C and sigma_PN, beyond its unit-size
    # left-clamped meshes: tape against the adjoint oracle and against
    # central differences
    mesh, fixed, f, agg, b0 = problem
    params = tf.FilterParams()
    mat = tf.MaterialModel()

    def responses(bv):
        t = ad.Tape()
        b = t.leaf(bv)
        rho = tf.apply_filter(b, mesh.nelx, mesh.nely, params)
        u, system = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
        stress = tf.fea.centroid_stress(u, rho, mesh, mat)
        outs = {"C": tf.compliance(u, f), "PN": tf.fea.p_norm_stress(stress, agg)}
        return t, b, system, stress, outs

    t, b, system, stress, outs = responses(b0)
    seeds = {
        "C": oracle.compliance_density_gradient(system),
        "PN": oracle.stress_adjoint_gradient(system, stress, agg, mat),
    }
    grid = (mesh.nely, mesh.nelx)
    for key, out in outs.items():
        g_tape = t.backward(out).of(b)
        g_adj = oracle.filter_adjoint_gradient(
            b0.reshape(grid), seeds[key].reshape(grid), params
        ).ravel()
        fd = oracle.finite_difference_gradient(
            lambda x, k=key: float(responses(x)[4][k].value), b0.copy(), 1e-6
        )
        assert np.linalg.norm(g_tape - g_adj) <= 1e-8 * (np.linalg.norm(g_tape) + 1e-12), key
        assert np.linalg.norm(g_tape - fd) <= 1e-5 * (np.linalg.norm(g_tape) + 1e-8), key


def test_filter_adjoint_shape_mismatch():
    with pytest.raises(ValueError):
        oracle.filter_adjoint_gradient(np.ones((2, 3)), np.ones((3, 2)), tf.FilterParams())
