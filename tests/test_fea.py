import gc
import weakref

import numpy as np
import pytest

import topofield as tf
from topofield import autodiff as ad
from topofield import fea
from topofield.oracle import finite_difference_gradient

from conftest import cantilever_problem, rel_err, scanned_point_supports


def _reference_stiffness(nu):
    """Independent quadrature of the bilinear quad, written from scratch:
    shape-function derivatives via symmetric differencing, entrywise loops."""

    def shapes(xi, eta):
        return 0.25 * np.array(
            [
                (1 - xi) * (1 - eta),
                (1 + xi) * (1 - eta),
                (1 + xi) * (1 + eta),
                (1 - xi) * (1 + eta),
            ]
        )

    def b_matrix(xi, eta, d=0.5):
        # central differencing is exact here: shapes are linear in each local coordinate
        dndxi = (shapes(xi + d, eta) - shapes(xi - d, eta)) / (2 * d)
        dndeta = (shapes(xi, eta + d) - shapes(xi, eta - d)) / (2 * d)
        # unit square element: x = (xi+1)/2 so d/dx = 2 d/dxi
        b = np.zeros((3, 8))
        for a in range(4):
            b[0, 2 * a] = 2 * dndxi[a]
            b[1, 2 * a + 1] = 2 * dndeta[a]
            b[2, 2 * a] = 2 * dndeta[a]
            b[2, 2 * a + 1] = 2 * dndxi[a]
        return b

    d = np.array([[1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]]) / (1 - nu**2)
    ke = np.zeros((8, 8))
    gp = 1 / np.sqrt(3)
    for xi in (-gp, gp):
        for eta in (-gp, gp):
            b = b_matrix(xi, eta)
            ke += b.T @ d @ b * 0.25
    return ke


def test_unit_stiffness_matches_independent_quadrature():
    ke = fea.element_stiffness_unit(0.3)
    ref = _reference_stiffness(0.3)
    assert np.abs(ke - ref).max() < 1e-10


def test_unit_stiffness_matches_classic_closed_form():
    nu = 0.3
    k = np.array(
        [
            1 / 2 - nu / 6,
            1 / 8 + nu / 8,
            -1 / 4 - nu / 12,
            -1 / 8 + 3 * nu / 8,
            -1 / 4 + nu / 12,
            -1 / 8 - nu / 8,
            nu / 6,
            1 / 8 - 3 * nu / 8,
        ]
    )
    order = [
        [0, 1, 2, 3, 4, 5, 6, 7],
        [1, 0, 7, 6, 5, 4, 3, 2],
        [2, 7, 0, 5, 6, 3, 4, 1],
        [3, 6, 5, 0, 7, 2, 1, 4],
        [4, 5, 6, 7, 0, 1, 2, 3],
        [5, 4, 3, 2, 1, 0, 7, 6],
        [6, 3, 4, 1, 2, 7, 0, 5],
        [7, 2, 1, 4, 3, 6, 5, 0],
    ]
    ref = np.array([[k[j] for j in row] for row in order]) / (1 - nu**2)
    assert np.abs(fea.element_stiffness_unit(nu) - ref).max() < 1e-14


def test_unit_stiffness_rigid_modes_and_symmetry():
    ke = fea.element_stiffness_unit(0.3)
    assert np.abs(ke - ke.T).max() == 0.0
    eigs = np.linalg.eigvalsh(ke)
    assert np.sum(np.abs(eigs) < 1e-9) == 3
    assert np.abs(ke.sum(axis=1)).max() < 1e-12


def test_unit_stiffness_size_independent():
    assert np.allclose(
        fea.element_stiffness_unit(0.3, 1.0), fea.element_stiffness_unit(0.3, 2.5)
    )


def test_solves_share_one_read_only_element_stiffness():
    mesh, fixed, f = cantilever_problem(3, 2)
    t = ad.Tape()
    _, s1 = tf.assemble_and_solve(t.leaf(np.full(6, 0.4)), mesh, tf.MaterialModel(penal=1.0), fixed, f)
    _, s2 = tf.assemble_and_solve(t.leaf(np.full(6, 0.9)), mesh, tf.MaterialModel(penal=3.0), fixed, f)
    assert s1.ke0 is s2.ke0
    ke0, stress_map = fea.element_matrices(0.3, mesh.elem_size)
    assert ke0 is s1.ke0
    for matrix in (ke0, stress_map):
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0


def test_stiffness_scales_linearly_with_modulus():
    t = ad.Tape()
    mat = tf.MaterialModel(penal=3.0)
    rho = t.leaf(np.array([0.5, 0.8]))
    e1 = fea.simp_modulus(rho, mat)
    mesh, fixed, f = cantilever_problem(2, 1)
    u1, s1 = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
    # tripling every modulus scales K by 3 and u by 1/3
    k1 = s1.K.toarray()
    mat3 = tf.MaterialModel(E0=3.0, Emin=3e-9)
    u3, s3 = tf.assemble_and_solve(rho, mesh, mat3, fixed, f)
    assert np.allclose(s3.K.toarray(), 3.0 * k1, rtol=1e-12)
    assert np.allclose(u3.value, u1.value / 3.0, rtol=1e-12)
    assert np.allclose(e1.value * 3.0, fea.simp_modulus(rho, mat3).value)


def test_simp_modulus_endpoints_and_midpoint():
    t = ad.Tape()
    mat = tf.MaterialModel(E0=1.0, Emin=1e-9, penal=3.0)
    rho = t.leaf(np.array([0.0, 1.0, 0.5]))
    e = fea.simp_modulus(rho, mat).value
    assert e[0] == mat.Emin
    assert e[1] == mat.E0
    assert np.isclose(e[2], 1e-9 + 0.125 * (1 - 1e-9), rtol=1e-12)


def test_simp_modulus_derivative_fd():
    mat = tf.MaterialModel()
    t = ad.Tape()
    rho = t.leaf(np.array([0.7]))
    e = fea.simp_modulus(rho, mat)
    g = t.backward(e.sum()).of(rho)

    def f(r):
        tape = ad.Tape()
        return float(fea.simp_modulus(tape.leaf(r), mat).value.sum())

    fd = finite_difference_gradient(f, np.array([0.7]), 1e-6)
    assert rel_err(g, fd) < 1e-8


def test_simp_modulus_rejects_out_of_range():
    t = ad.Tape()
    mat = tf.MaterialModel()
    with pytest.raises(ValueError):
        fea.simp_modulus(t.leaf(np.array([1.1])), mat)
    with pytest.raises(ValueError):
        fea.simp_modulus(t.leaf(np.array([-0.1])), mat)
    with pytest.raises(fea.DensityRangeError, match="nan"):
        fea.simp_modulus(t.leaf(np.array([0.5, np.nan])), mat)


def test_material_model_validation():
    with pytest.raises(ValueError):
        tf.MaterialModel(nu=0.6)
    with pytest.raises(ValueError):
        tf.MaterialModel(Emin=2.0, E0=1.0)
    with pytest.raises(ValueError):
        tf.MaterialModel(penal=0.5)


def _pinned_beam(nelx, nely):
    """Simply supported beam: three-DOF pin supports at the bottom corners."""
    case = tf.preset("simply_supported", nelx=nelx, nely=nely)
    mesh = tf.build_mesh(nelx, nely)
    fixed, f, _passive = case.build_problem(mesh)
    return mesh, fixed, f


def test_solve_solid_beam_matches_dense():
    # the solid 2 x 1 cantilever, then wide (column-by-column band order)
    # and tall (row-by-row) meshes on pins and then, on the same mesh
    # objects, on a clamped edge, at random densities down to 1e-3
    rng = np.random.default_rng(4)
    wide, tall = _pinned_beam(9, 4), _pinned_beam(4, 9)
    problems = [
        (cantilever_problem(2, 1), None),
        (wide, 1e-3),
        ((wide[0],) + cantilever_problem(9, 4)[1:], 1e-3),
        (tall, 1e-3),
        ((tall[0],) + cantilever_problem(4, 9)[1:], 1e-3),
    ]
    mat = tf.MaterialModel()
    for (mesh, fixed, f), low in problems:
        rho_val = np.ones(mesh.n_elems) if low is None else rng.uniform(low, 1.0, mesh.n_elems)
        t = ad.Tape()
        u, system = tf.assemble_and_solve(t.leaf(rho_val), mesh, mat, fixed, f)
        ke = fea.element_stiffness_unit(mat.nu)
        kg = np.zeros((mesh.n_dofs, mesh.n_dofs))
        for e in range(mesh.n_elems):
            dofs = mesh.dof_map[e]
            kg[np.ix_(dofs, dofs)] += mat.modulus(rho_val[e]) * ke
        free = np.setdiff1d(np.arange(mesh.n_dofs), fixed)
        assert np.array_equal(system.free_dofs, free)
        dense = np.zeros(mesh.n_dofs)
        dense[free] = np.linalg.solve(kg[np.ix_(free, free)], f[free])
        tol = 1e-12 if low is None else 1e-10
        assert rel_err(u.value, dense) < tol, (mesh.nelx, mesh.nely)
        assert np.all(u.value[fixed] == 0.0)
        band = fea.band_pattern(mesh, np.unique(fixed))
        assert band.kd <= 2 * min(mesh.nelx, mesh.nely) + 5


def test_zero_load_zero_displacement_and_linearity():
    mesh, fixed, f = cantilever_problem(3, 2)
    mat = tf.MaterialModel()
    t = ad.Tape()
    rho = t.leaf(np.full(6, 0.6))
    u0, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, np.zeros_like(f))
    assert np.all(u0.value == 0.0)
    assert tf.compliance(u0, np.zeros_like(f)).value == 0.0
    u1, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
    u2, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, 2.0 * f)
    assert np.allclose(u2.value, 2.0 * u1.value, rtol=1e-12)


def test_energy_identity_every_solve(rng):
    for trial in range(5):
        nelx, nely = rng.integers(2, 7), rng.integers(2, 5)
        mesh, fixed, f = cantilever_problem(int(nelx), int(nely))
        t = ad.Tape()
        rho = t.leaf(rng.uniform(0.2, 1.0, mesh.n_elems))
        u, system = tf.assemble_and_solve(rho, mesh, tf.MaterialModel(), fixed, f)
        c = tf.compliance(u, f).value
        ufree = u.value[system.free_dofs]
        strain_energy = ufree @ (system.K @ ufree)
        assert abs(c - strain_energy) <= 1e-8 * abs(c)


def test_under_constrained_raises():
    mesh, _fixed, f = cantilever_problem(2, 2)
    t = ad.Tape()
    with pytest.raises(fea.SolverFailureError):
        tf.assemble_and_solve(
            t.leaf(np.full(4, 0.5)), mesh, tf.MaterialModel(), np.array([0, 1]), f
        )
    # enough fixed DOFs to pass the count, yet free to translate in y: the
    # factorization itself must see the singular stiffness
    mesh, _fixed, f = cantilever_problem(4, 2)
    left = np.array([mesh.node_id(0, i) for i in range(mesh.nely + 1)])
    with pytest.raises(fea.SolverFailureError):
        tf.assemble_and_solve(t.leaf(np.ones(8)), mesh, tf.MaterialModel(), 2 * left, f)


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
    with pytest.raises(fea.SolverFailureError):
        tf.assemble_and_solve(rho, mesh, tf.MaterialModel(), np.array([0, 1]), f)


def test_solve_returns_the_assembler_that_solved():
    mesh, fixed, f = cantilever_problem(3, 2)
    t = ad.Tape()
    rho = t.leaf(np.full(mesh.n_elems, 0.7))
    u, assembler = tf.assemble_and_solve(rho, mesh, tf.MaterialModel(), fixed, f)
    assert isinstance(assembler, fea.SimpAssembler)
    assert assembler.u is u.value
    assert assembler.rho is rho.value
    assert np.array_equal(assembler.free_dofs, np.setdiff1d(np.arange(mesh.n_dofs), fixed))


@pytest.mark.parametrize("density", [np.nan, 1.5, -0.5])
def test_solve_rejects_densities_outside_unit_interval(density):
    mesh, fixed, f = cantilever_problem(3, 2)
    t = ad.Tape()
    rho = t.leaf(np.full(mesh.n_elems, density))
    with pytest.raises(fea.DensityRangeError, match="outside"):
        tf.assemble_and_solve(rho, mesh, tf.MaterialModel(), fixed, f)
    # the assembler checks the densities it is built for, once
    with pytest.raises(fea.DensityRangeError, match="outside"):
        fea.SimpAssembler(mesh, tf.MaterialModel(), fixed, rho.value)


@pytest.mark.parametrize("penal", [2.5, 3.0])
def test_solve_and_stress_refuse_a_negative_density_alike(penal):
    # x**2.5 of a density a rounding step below 0 is NaN, which the solve
    # would meet as a singular stiffness and the stresses as a domain error;
    # at any SIMP exponent both refuse it as a density out of range
    mesh, fixed, f = cantilever_problem(3, 2)
    mat = tf.MaterialModel(penal=penal)
    t = ad.Tape()
    rho = t.leaf(np.full(mesh.n_elems, 0.5))
    rho.value[0] = -1e-10
    with pytest.raises(fea.DensityRangeError, match="outside"):
        tf.assemble_and_solve(rho, mesh, mat, fixed, f)
    with pytest.raises(fea.DensityRangeError, match="outside"):
        fea.centroid_stress(t.leaf(np.zeros(mesh.n_dofs)), rho, mesh, mat)


def test_support_set_is_checked_with_its_band_pattern():
    mesh, fixed, _f = cantilever_problem(3, 2)
    assert fea.band_pattern(mesh, fixed) is fea.band_pattern(mesh, list(fixed))
    with pytest.raises(ValueError, match="fixed DOF index out of range"):
        fea.band_pattern(mesh, np.append(fixed, mesh.n_dofs))
    with pytest.raises(ValueError, match="fixed DOF index out of range"):
        fea.band_pattern(mesh, np.append(fixed, -1))
    # duplicates count once
    with pytest.raises(fea.SolverFailureError, match="2 fixed DOFs"):
        fea.band_pattern(mesh, [0, 1, 1, 0])


def test_meshes_of_one_grid_share_a_band_pattern():
    # the pattern reads the mesh only through its grid size, and the cache
    # holds no mesh, so a run's mesh is freed with the run
    mesh, fixed, _f = cantilever_problem(6, 3)
    pattern = fea.band_pattern(mesh, fixed)
    assert fea.band_pattern(tf.build_mesh(6, 3), fixed) is pattern
    assert fea.band_pattern(tf.build_mesh(6, 3, elem_size=2.0), fixed) is pattern
    mesh_ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert mesh_ref() is None
    assert fea.band_pattern(tf.build_mesh(3, 6), fixed) is not pattern


def _entry_scatter_band(assembler):
    """The band scattered entry by entry from the full (n_elems, 8, 8)
    element matrices, keeping each entry on or below the diagonal in free
    rows and columns: the reference for the pair-indexed scatter."""
    mesh, p = assembler.mesh, assembler.pattern
    rank = np.full(mesh.n_dofs, -1, dtype=np.int64)
    rank[p.order] = np.arange(p.order.size)
    r = rank[mesh.dof_map]
    rows, cols = np.broadcast_arrays(r[:, :, None], r[:, None, :])
    entries = np.flatnonzero((cols >= 0) & (rows >= cols))
    slots = cols.ravel()[entries] * (p.kd + 1) + rows.ravel()[entries] - cols.ravel()[entries]
    e_mod = assembler.mat.modulus(assembler.rho)
    vals = np.multiply.outer(e_mod, assembler.ke0.ravel()).ravel()[entries]
    n_band = (p.kd + 1) * p.order.size
    return np.bincount(slots, vals, minlength=n_band).reshape(-1, p.kd + 1).T


@pytest.mark.parametrize("penal", [1.0, 3.0])
@pytest.mark.parametrize("name, nelx, nely", [
    ("simply_supported", 60, 20), ("tip_cantilever", 20, 60), ("tip_cantilever", 1, 5),
    ("mid_cantilever", 7, 3),
])
def test_pair_scatter_equals_entry_scatter(name, nelx, nely, penal):
    # one slot per element and unordered DOF pair sums each band entry over
    # the same elements in the same ascending order as the scatter of every
    # entry of the full element matrices, so the bands agree bit for bit
    case = tf.preset(name, nelx=nelx, nely=nely)
    mesh = tf.build_mesh(nelx, nely)
    fixed, _f, _passive = case.build_problem(mesh)
    rho = np.random.default_rng(nelx * nely).uniform(0.0, 1.0, mesh.n_elems)
    assembler = fea.SimpAssembler(mesh, tf.MaterialModel(penal=penal), fixed, rho)
    band = assembler.assemble()
    assert np.array_equal(band, _entry_scatter_band(assembler))
    # the pairs on a support land in the spill slot, which the band leaves out
    p = assembler.pattern
    assert p.slots.shape == (mesh.n_elems, 36) and p.slots.dtype == np.int64
    assert p.slots.flags.c_contiguous  # bincount would copy a strided one
    n_band = (p.kd + 1) * p.order.size
    assert (p.slots == n_band).any()
    assert band.shape == (p.kd + 1, p.order.size) and band.size == n_band
    assert band.flags.f_contiguous


def test_indefinite_stiffness_names_its_leading_minor(monkeypatch):
    # the factor and solves call LAPACK's banded Cholesky themselves
    assert not {"cholesky_banded", "cho_solve_banded", "LinAlgError"} & set(vars(fea))
    mesh, fixed, _f = cantilever_problem(4, 2)
    assembler = fea.SimpAssembler(mesh, tf.MaterialModel(), fixed, np.ones(mesh.n_elems))
    band = assembler.assemble()
    band[0, 5] = -1.0
    monkeypatch.setattr(assembler, "assemble", lambda: band)
    with pytest.raises(fea.SolverFailureError, match="not positive definite: leading minor 6 "):
        assembler.factorize()


def test_solve_leaves_no_reference_cycle():
    # the solve's VJP holds arrays, not tape values, so a dropped tape is
    # freed by reference counting alone
    mesh, fixed, f = cantilever_problem(3, 2)
    gc.collect()
    gc.disable()
    try:
        t = ad.Tape()
        rho = t.leaf(np.full(mesh.n_elems, 0.5))
        u, assembler = tf.assemble_and_solve(rho, mesh, tf.MaterialModel(), fixed, f)
        t.backward(tf.compliance(u, f))
        del t, rho, u, assembler
        assert gc.collect() == 0
    finally:
        gc.enable()


def _uniform_strain_stress(mesh, mat, exx, eyy, gxy, rho_val):
    """Von Mises stresses from a manufactured nodal displacement with uniform strain."""
    # node n sits at grid column n % (nelx + 1) and row n // (nelx + 1)
    iy, jx = np.divmod(np.arange(mesh.n_nodes), mesh.nelx + 1)
    x, y = jx * mesh.elem_size, iy * mesh.elem_size
    u_nodal = np.zeros(mesh.n_dofs)
    u_nodal[0::2] = exx * x + gxy * y
    u_nodal[1::2] = eyy * y
    t = ad.Tape()
    u = t.leaf(u_nodal)
    rho = t.leaf(np.full(mesh.n_elems, rho_val))
    return fea.centroid_stress(u, rho, mesh, mat)


def test_von_mises_pure_uniaxial_state():
    mesh = tf.build_mesh(3, 2)
    mat = tf.MaterialModel()
    s = 0.37
    # strains (s, -nu*s, 0) give exactly (sxx, 0, 0) = (s*E_unit, 0, 0), so
    # the unit-modulus von Mises stress is |s|
    stress = _uniform_strain_stress(mesh, mat, s, -mat.nu * s, 0.0, 0.5)
    e_mod = mat.modulus(np.array([0.5]))[0]
    assert np.allclose(stress.value, abs(s) * np.sqrt(e_mod), rtol=1e-12)


def test_von_mises_pure_shear_state():
    mesh = tf.build_mesh(2, 2)
    mat = tf.MaterialModel()
    g = 0.22
    stress = _uniform_strain_stress(mesh, mat, 0.0, 0.0, g, 0.8)
    tau = g * (1 - mat.nu) / 2 / (1 - mat.nu**2)
    e_mod = mat.modulus(np.array([0.8]))[0]
    assert np.allclose(stress.value, np.sqrt(3.0) * abs(tau) * np.sqrt(e_mod), rtol=1e-12)


def test_zero_displacement_zero_stress():
    mesh = tf.build_mesh(2, 2)
    stress = _uniform_strain_stress(mesh, tf.MaterialModel(), 0.0, 0.0, 0.0, 0.6)
    assert np.all(stress.value == 0.0)


def test_stress_components_match_independent_assembly(rng):
    # recompute sqrt(E) * vm(D * B * u_e) per element with freshly composed matrices
    mesh, fixed, f = cantilever_problem(3, 2)
    mat = tf.MaterialModel()
    t = ad.Tape()
    rho = t.leaf(rng.uniform(0.3, 1.0, mesh.n_elems))
    u, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
    stress = fea.centroid_stress(u, rho, mesh, mat)

    nu = mat.nu
    d = np.array([[1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]]) / (1 - nu**2)
    # centroid B for the unit square: dN/dx = xi_a/2, dN/dy = eta_a/2
    xi = np.array([-1, 1, 1, -1])
    eta = np.array([-1, -1, 1, 1])
    b = np.zeros((3, 8))
    b[0, 0::2] = xi / 2.0
    b[1, 1::2] = eta / 2.0
    b[2, 0::2] = eta / 2.0
    b[2, 1::2] = xi / 2.0
    e_mod = mat.E0 * rho.value**mat.penal + mat.Emin * (1 - rho.value**mat.penal)
    for e in range(mesh.n_elems):
        sxx, syy, sxy = d @ b @ u.value[mesh.dof_map[e]]
        vm = np.sqrt(e_mod[e] * (sxx**2 + syy**2 - sxx * syy + 3 * sxy**2))
        assert np.allclose(stress.value[e], vm, rtol=1e-12, atol=1e-14)


def test_pnorm_all_at_allowable_is_zero():
    mesh = tf.build_mesh(2, 2)
    mat = tf.MaterialModel()
    s = 1.3
    stress = _uniform_strain_stress(mesh, mat, s, -mat.nu * s, 0.0, 1.0)
    sigma_allow = float(stress.value[0])
    pn = fea.p_norm_stress(stress, tf.StressAggregate(sigma_allow, 8.0))
    assert abs(pn.value) < 1e-12


def test_pnorm_zero_stress_is_minus_one():
    mesh = tf.build_mesh(2, 2)
    stress = _uniform_strain_stress(mesh, tf.MaterialModel(), 0.0, 0.0, 0.0, 0.5)
    pn = fea.p_norm_stress(stress, tf.StressAggregate(2.3, 8.0))
    assert pn.value == -1.0


def test_pnorm_sandwich_bounds(rng):
    # N^{-1/p} * max_ratio <= pn+1 <= max_ratio on random stress magnitudes
    mesh, fixed, f = cantilever_problem(4, 3)
    mat = tf.MaterialModel()
    for _ in range(10):
        t = ad.Tape()
        rho = t.leaf(rng.uniform(0.1, 1.0, mesh.n_elems))
        u, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
        stress = fea.centroid_stress(u, rho, mesh, mat)
        agg = tf.StressAggregate(rng.uniform(0.5, 3.0), 8.0)
        pn = fea.p_norm_stress(stress, agg).value
        max_ratio = stress.value.max() / agg.sigma_allow
        n = mesh.n_elems
        assert pn + 1 <= max_ratio + 1e-12
        assert pn + 1 >= max_ratio * n ** (-1.0 / agg.exponent) - 1e-12


def test_pnorm_gradient_full_pipeline_fd():
    mesh, fixed, f = cantilever_problem(4, 3)
    mat = tf.MaterialModel()
    agg = tf.StressAggregate(2.0, 8.0)
    params = tf.FilterParams()
    b0 = np.random.default_rng(13).uniform(0.2, 0.9, mesh.n_elems)

    def pn_of(bv):
        t = ad.Tape()
        rho = tf.apply_filter(t.leaf(bv), 4, 3, params)
        u, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
        return float(fea.p_norm_stress(fea.centroid_stress(u, rho, mesh, mat), agg).value)

    t = ad.Tape()
    b = t.leaf(b0)
    rho = tf.apply_filter(b, 4, 3, params)
    u, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
    pn = fea.p_norm_stress(fea.centroid_stress(u, rho, mesh, mat), agg)
    g = t.backward(pn).of(b)
    fd = finite_difference_gradient(pn_of, b0.copy(), 1e-6)
    assert rel_err(g, fd, floor=1e-8) < 1e-5


def test_compliance_decreases_when_density_increases(rng):
    mesh, fixed, f = cantilever_problem(3, 3)
    mat = tf.MaterialModel()
    rho0 = rng.uniform(0.3, 0.7, mesh.n_elems)

    def comp(r):
        t = ad.Tape()
        u, _ = tf.assemble_and_solve(t.leaf(r), mesh, mat, fixed, f)
        return float(tf.compliance(u, f).value)

    base = comp(rho0)
    for e in range(mesh.n_elems):
        bumped = rho0.copy()
        bumped[e] = min(1.0, bumped[e] + 0.2)
        assert comp(bumped) <= base + 1e-12


def test_aggregate_validation():
    with pytest.raises(ValueError):
        tf.StressAggregate(-1.0, 8.0)
    with pytest.raises(ValueError):
        tf.StressAggregate(1.0, 1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: tf.FilterParams(epsilon=np.nan),
        lambda: tf.MaterialModel(penal=np.nan),
        lambda: tf.StressAggregate(np.nan),
        lambda: tf.StressAggregate(1.0, np.nan),
        lambda: tf.build_mesh(3, 2, np.nan),
        lambda: tf.fourier_encode(np.zeros((2, 2)), m=2, scale=np.nan, seed=0),
    ],
    ids=["filter-epsilon", "penal", "sigma-allow", "exponent", "elem-size", "fourier-scale"],
)
def test_range_checks_reject_nan(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: tf.FilterParams(epsilon=np.inf),
        lambda: tf.FilterParams(sharpness=np.inf),
        lambda: tf.MaterialModel(penal=np.inf),
        lambda: tf.StressAggregate(np.inf),
        lambda: tf.StressAggregate(1.0, np.inf),
        lambda: tf.StressAggregate(1.0, 8.0, excluded=(np.inf,)),
        lambda: tf.build_mesh(3, 2, np.inf),
        lambda: tf.fourier_encode(np.zeros((2, 2)), m=2, scale=np.inf, seed=0),
    ],
    ids=["filter-epsilon", "sharpness", "penal", "sigma-allow", "exponent", "excluded",
         "elem-size", "fourier-scale"],
)
def test_range_checks_reject_infinity(build):
    with pytest.raises(ValueError):
        build()


def test_aggregate_excluded_validation():
    with pytest.raises(ValueError):
        tf.StressAggregate(1.0, 8.0, excluded=(-1,))
    with pytest.raises(ValueError):
        tf.StressAggregate(1.0, 8.0, excluded=(0, 1)).covered(2)
    # an index past the mesh, as on a 3 x 4 mesh's 12 elements
    with pytest.raises(ValueError, match="excluded element 999 is past the 12 elements"):
        tf.StressAggregate(1.0, 8.0, excluded=(3, 999)).covered(12)
    assert list(tf.StressAggregate(1.0, 8.0, excluded=(1,)).covered(4)) == [0, 2, 3]
    assert list(tf.StressAggregate(1.0, 8.0, excluded=(np.int64(1),)).covered(4)) == [0, 2, 3]


@pytest.mark.parametrize(
    "index",
    [True, False, 1.0, 2.0, np.float64(1.0), np.bool_(True)],
    ids=["true", "false", "float-1", "float-2", "numpy-float", "numpy-bool"],
)
def test_aggregate_excluded_refuses_bools_and_floats(index):
    # a bool or a whole float is no element index, though it compares equal to one
    with pytest.raises(ValueError, match="non-negative integer indices"):
        tf.StressAggregate(1.0, 8.0, excluded=(index,))


def test_point_support_elements_finds_pins_not_clamps():
    mesh = tf.build_mesh(60, 20)
    for name, expected in [
        ("simply_supported", (0, 59)),
        ("tip_cantilever", ()),
        ("mid_cantilever", ()),
    ]:
        fixed, _f, _passive = tf.preset(name).build_problem(mesh)
        assert fea.point_support_elements(mesh, fixed) == expected
    # an interior pin touches four elements; two adjacent pins form a line
    # support and are no point supports
    small = tf.build_mesh(4, 4)
    centre = small.node_id(2, 2)
    assert fea.point_support_elements(small, [2 * centre, 2 * centre + 1]) == (5, 6, 9, 10)
    line = [2 * small.node_id(0, 0), 2 * small.node_id(1, 0) + 1]
    assert fea.point_support_elements(small, line) == ()


@pytest.mark.parametrize("nelx, nely", [(1, 1), (2, 1), (1, 3), (4, 4), (60, 20), (20, 60), (120, 40)])
def test_point_support_elements_equal_corner_scan(nelx, nely):
    mesh = tf.build_mesh(nelx, nely)
    for name in ("simply_supported", "tip_cantilever", "mid_cantilever"):
        fixed, _f, _passive = tf.preset(name).build_problem(mesh)
        assert fea.point_support_elements(mesh, fixed) == scanned_point_supports(mesh, fixed)
    # each corner of the grid as a lone pin, then random node sets
    rng = np.random.default_rng(nelx * 1000 + nely)
    for fixed_nodes in [[0], [nelx], [mesh.n_nodes - 1], [mesh.n_nodes - 1 - nelx]] + [
        rng.choice(mesh.n_nodes, size=rng.integers(1, mesh.n_nodes + 1), replace=False)
        for _ in range(5)
    ]:
        fixed = 2 * np.asarray(fixed_nodes)
        assert fea.point_support_elements(mesh, fixed) == scanned_point_supports(mesh, fixed)


def test_pnorm_skips_excluded_elements():
    mesh = tf.build_mesh(2, 2)
    mat = tf.MaterialModel()
    stress = _uniform_strain_stress(mesh, mat, 1.3, -mat.nu * 1.3, 0.0, 1.0)
    sigma_allow = float(stress.value[0])
    spiked = stress * stress.tape.leaf(np.array([50.0, 1.0, 1.0, 1.0]))
    agg = tf.StressAggregate(sigma_allow, 8.0, excluded=(0,))
    pn = fea.p_norm_stress(spiked, agg)
    assert abs(pn.value) < 1e-12
    assert fea.p_norm_stress(spiked, tf.StressAggregate(sigma_allow, 8.0)).value > 10.0


def test_solid_simply_supported_beam_meets_stress_limit():
    # the pinned corner elements read a stress ratio of 2.5 for any design;
    # while they were aggregated the solid beam read sigma_PN = +0.135 at the
    # documented load scale, so no design could meet the limit
    case = tf.preset("simply_supported", load_scale=0.15)
    mesh = tf.build_mesh(case.nelx, case.nely)
    fixed, f, _passive = case.build_problem(mesh)
    mat = tf.MaterialModel(case.E0, case.Emin, case.nu, case.penal)
    t = ad.Tape()
    rho = t.leaf(np.ones(mesh.n_elems))
    u, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
    stress = fea.centroid_stress(u, rho, mesh, mat)
    agg = tf.StressAggregate(
        case.sigma_allow,
        case.stress_exponent,
        excluded=fea.point_support_elements(mesh, fixed),
    )
    assert fea.p_norm_stress(stress, agg).value <= 0.0
