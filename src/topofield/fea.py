"""SIMP plane-stress finite elements on the tape.

Forward quantities (element moduli, displacements, compliance, centroid
stresses, von Mises aggregation) are recorded as differentiable operations so
a single backward pass yields design sensitivities. The global stiffness is
assembled sparse and factorized once per solve; the factorization also serves
the adjoint solve in the backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import autodiff as ad
from .autodiff import DiffValue, SolverFailureError
from .meshgraph import StructuredMesh

_GAUSS = 1.0 / np.sqrt(3.0)
_XI = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA = np.array([-1.0, -1.0, 1.0, 1.0])


@dataclass(frozen=True)
class MaterialModel:
    """SIMP material interpolation E(rho) = Emin + rho^penal (E0 - Emin)."""

    E0: float = 1.0
    Emin: float = 1e-9
    nu: float = 0.3
    penal: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.Emin < self.E0:
            raise ValueError("need 0 < Emin < E0")
        if not 0.0 < self.nu < 0.5:
            raise ValueError("need 0 < nu < 0.5")
        if self.penal < 1.0:
            raise ValueError("need penal >= 1")

    def modulus(self, rho: np.ndarray) -> np.ndarray:
        return self.Emin + rho ** self.penal * (self.E0 - self.Emin)

    def modulus_derivative(self, rho: np.ndarray) -> np.ndarray:
        return self.penal * rho ** (self.penal - 1.0) * (self.E0 - self.Emin)


def constitutive_unit(nu: float) -> np.ndarray:
    """Plane-stress constitutive matrix for unit Young's modulus."""
    return (1.0 / (1.0 - nu * nu)) * np.array(
        [[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, (1.0 - nu) / 2.0]]
    )


def strain_displacement(xi: float, eta: float, elem_size: float = 1.0) -> np.ndarray:
    """B matrix (3x8) of the bilinear quad at local coordinates (xi, eta)."""
    dn_dx = 0.25 * _XI * (1.0 + eta * _ETA) * (2.0 / elem_size)
    dn_dy = 0.25 * _ETA * (1.0 + xi * _XI) * (2.0 / elem_size)
    b = np.zeros((3, 8))
    b[0, 0::2] = dn_dx
    b[1, 1::2] = dn_dy
    b[2, 0::2] = dn_dy
    b[2, 1::2] = dn_dx
    return b


def element_stiffness_unit(nu: float, elem_size: float = 1.0) -> np.ndarray:
    """8x8 element stiffness for E = 1 by 2x2 Gauss quadrature.

    Symmetric with exactly three rigid-body zero modes; independent of
    elem_size for square elements (unit thickness).
    """
    if not 0.0 < nu < 0.5:
        raise ValueError("need 0 < nu < 0.5")
    d0 = constitutive_unit(nu)
    detj = elem_size * elem_size / 4.0
    ke = np.zeros((8, 8))
    for xi in (-_GAUSS, _GAUSS):
        for eta in (-_GAUSS, _GAUSS):
            b = strain_displacement(xi, eta, elem_size)
            ke += b.T @ d0 @ b * detj
    return 0.5 * (ke + ke.T)


class DensityRangeError(ValueError):
    """Densities handed to the SIMP interpolation lie outside [0, 1]."""


def simp_modulus(rho: DiffValue, mat: MaterialModel) -> DiffValue:
    """Differentiable SIMP modulus per element."""
    rv = rho.value
    if np.any(rv < -1e-9) or np.any(rv > 1.0 + 1e-9):
        raise DensityRangeError(
            f"densities outside [0,1]: min {rv.min():.3e}, max {rv.max():.3e}"
        )
    return ad.power(rho, mat.penal) * (mat.E0 - mat.Emin) + mat.Emin


class SimpAssembler:
    """Assembles the reduced global stiffness from densities and supplies the
    density chain rule for the linear-solve adjoint."""

    def __init__(self, mesh: StructuredMesh, mat: MaterialModel, fixed_dofs):
        self.mesh = mesh
        self.mat = mat
        self.ke0 = element_stiffness_unit(mat.nu, mesh.elem_size)
        self.fixed_dofs = np.unique(np.asarray(fixed_dofs, dtype=np.int64))
        if self.fixed_dofs.size and (
            self.fixed_dofs.min() < 0 or self.fixed_dofs.max() >= mesh.n_dofs
        ):
            raise ValueError("fixed DOF index out of range")
        self.free_dofs = np.setdiff1d(np.arange(mesh.n_dofs), self.fixed_dofs)
        self._rows = np.repeat(mesh.dof_map, 8, axis=1).ravel()
        self._cols = np.tile(mesh.dof_map, (1, 8)).ravel()
        self._last_reduced: sp.csc_array | None = None

    def assemble(self, rho: np.ndarray) -> sp.csc_array:
        e_mod = self.mat.modulus(np.asarray(rho, dtype=float))
        vals = (e_mod[:, None] * self.ke0.ravel()[None, :]).ravel()
        n = self.mesh.n_dofs
        full = sp.coo_array((vals, (self._rows, self._cols)), shape=(n, n)).tocsc()
        reduced = full[self.free_dofs][:, self.free_dofs].tocsc()
        self._last_reduced = reduced
        return reduced

    def factorize(self, rho: np.ndarray):
        if self.free_dofs.size == 0:
            raise SolverFailureError("no free DOFs to solve for")
        reduced = self.assemble(rho)
        try:
            factor = splu(reduced)
        except RuntimeError as err:
            raise SolverFailureError(
                f"reduced stiffness is singular (smallest pivot 0): {err}"
            ) from err
        pivots = factor.U.diagonal()
        smallest = pivots[np.argmin(np.abs(pivots))]
        if abs(smallest) < 1e-12 * np.abs(pivots).max():
            raise SolverFailureError(
                f"reduced stiffness is singular or indefinite; smallest pivot {smallest:.6e}"
            )
        return factor

    def solve(self, factor, rhs_full: np.ndarray) -> np.ndarray:
        out = np.zeros(self.mesh.n_dofs)
        out[self.free_dofs] = factor.solve(rhs_full[self.free_dofs])
        return out

    def density_vjp(
        self, rho: np.ndarray, u: np.ndarray, lam: np.ndarray
    ) -> np.ndarray:
        ue = u[self.mesh.dof_map]
        le = lam[self.mesh.dof_map]
        quad = np.einsum("ej,jk,ek->e", le, self.ke0, ue)
        return -self.mat.modulus_derivative(rho) * quad


@dataclass
class StiffnessSystem:
    """Solve byproducts kept for verification and the analytic oracles."""

    K: sp.csc_array
    free_dofs: np.ndarray
    u: np.ndarray
    KE0: np.ndarray
    mesh: StructuredMesh
    rho: np.ndarray
    mat: MaterialModel


def assemble_and_solve(
    rho: DiffValue,
    mesh: StructuredMesh,
    mat: MaterialModel,
    fixed_dofs,
    f: np.ndarray,
) -> tuple[DiffValue, StiffnessSystem]:
    """Assemble K(rho), solve the equilibrium system, return (u, system).

    u is a full-length differentiable vector with exact zeros on fixed DOFs.
    Requires at least 3 constrained DOFs (no rigid-body motion).
    """
    assembler = SimpAssembler(mesh, mat, fixed_dofs)
    if assembler.fixed_dofs.size < 3:
        raise SolverFailureError(
            f"under-constrained system: {assembler.fixed_dofs.size} fixed DOFs (need >= 3)"
        )
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.n_dofs,):
        raise ValueError(f"load vector must have shape ({mesh.n_dofs},)")
    u = ad.linear_solve(assembler, rho, f)
    system = StiffnessSystem(
        K=assembler._last_reduced,
        free_dofs=assembler.free_dofs,
        u=u.value,
        KE0=assembler.ke0,
        mesh=mesh,
        rho=np.array(rho.value),
        mat=mat,
    )
    return u, system


def compliance(u: DiffValue, f: np.ndarray) -> DiffValue:
    """External work f^T u."""
    return ad.total(u * np.asarray(f, dtype=float))


@dataclass
class StressField:
    """Centroid stresses: unit-modulus components and sqrt(E)-scaled von Mises."""

    sxx: DiffValue
    syy: DiffValue
    sxy: DiffValue
    von_mises_unit: DiffValue
    von_mises: DiffValue
    modulus: DiffValue

    @property
    def sigma_components(self) -> np.ndarray:
        return np.column_stack([self.sxx.value, self.syy.value, self.sxy.value])


def centroid_stress(
    u: DiffValue, rho: DiffValue, mesh: StructuredMesh, mat: MaterialModel
) -> StressField:
    """Per-element centroid stress with stiffness-consistent scaling.

    Components come from the unit-modulus constitutive matrix applied to the
    element displacements; the von Mises scalar is then scaled by sqrt(E_e)
    so void elements do not attract spurious stress.
    """
    sm = constitutive_unit(mat.nu) @ strain_displacement(0.0, 0.0, mesh.elem_size)
    ue = ad.gather(u, mesh.dof_map)
    sxx = ad.matmul(ue, sm[0])
    syy = ad.matmul(ue, sm[1])
    sxy = ad.matmul(ue, sm[2])
    vm_sq = sxx * sxx + syy * syy - sxx * syy + 3.0 * (sxy * sxy)
    vm_unit = ad.sqrt(vm_sq)
    e_mod = simp_modulus(rho, mat)
    vm = vm_unit * ad.sqrt(e_mod)
    return StressField(sxx, syy, sxy, vm_unit, vm, e_mod)


@dataclass(frozen=True)
class StressAggregate:
    """Global p-norm aggregation of the von Mises stress ratio.

    ``excluded`` lists elements left out of the aggregate, normally those
    from :func:`point_support_elements`.
    """

    sigma_allow: float
    exponent: float = 8.0
    excluded: tuple = ()

    def __post_init__(self):
        if self.sigma_allow <= 0:
            raise ValueError("sigma_allow must be positive")
        if self.exponent < 2:
            raise ValueError("aggregation exponent must be >= 2")
        if any(int(e) != e or e < 0 for e in self.excluded):
            raise ValueError("excluded elements must be non-negative indices")

    def covered(self, n_elems: int) -> np.ndarray:
        """Indices of the elements the aggregate runs over."""
        keep = np.ones(n_elems, dtype=bool)
        keep[np.asarray(self.excluded, dtype=np.int64)] = False
        if not keep.any():
            raise ValueError("the stress aggregate covers no element")
        return np.flatnonzero(keep)


def point_support_elements(mesh: StructuredMesh, fixed_dofs) -> tuple:
    """Elements that touch a point support.

    A point support is a constrained node none of whose neighbours along a
    mesh edge is constrained (a pin, as opposed to a clamped edge). The
    stress at such a node is singular: it grows without bound under mesh
    refinement and no design can lower it, so these elements are left out
    of the stress aggregate (Le, Norato, Bruns, Ha & Tortorelli, SMO 2010).
    """
    fixed = np.zeros(mesh.n_nodes, dtype=bool)
    fixed[np.asarray(fixed_dofs, dtype=np.int64) // 2] = True
    grid = np.pad(fixed.reshape(mesh.nely + 1, mesh.nelx + 1), 1)
    inner = grid[1:-1, 1:-1]
    neighbour = grid[:-2, 1:-1] | grid[2:, 1:-1] | grid[1:-1, :-2] | grid[1:-1, 2:]
    pins = np.flatnonzero(inner & ~neighbour)
    touches = np.isin(mesh.dof_map[:, 0::2] // 2, pins).any(axis=1)
    return tuple(int(e) for e in np.flatnonzero(touches))


def p_norm_stress(stress: StressField, agg: StressAggregate) -> DiffValue:
    """sigma_PN = ((1/N) sum_e (vm_e / sigma_allow)^p)^(1/p) - 1.

    The sum and N run over the covered elements, every element except
    ``agg.excluded``. This is a p-mean, not a peak measure: on the 60 x 20
    presets (N about 1200) with p = 8, sigma_PN <= 0 still lets a single
    element reach N^(1/p) = 2.4 times sigma_allow.

    Evaluated with the largest ratio factored out as a constant so the power
    sum cannot overflow on degenerate intermediate designs; the p-norm is
    1-homogeneous, so the factoring changes neither value nor gradient.
    """
    covered = agg.covered(stress.von_mises.value.shape[0])
    vm = ad.gather(stress.von_mises, covered)
    n = covered.size
    peak = float(vm.value.max()) / agg.sigma_allow
    if peak == 0.0:
        return ad.total(vm * 0.0) - 1.0
    scaled = vm * (1.0 / (agg.sigma_allow * peak))
    mean_pow = ad.total(ad.power(scaled, agg.exponent)) * (1.0 / n)
    return peak * ad.power(mean_pow, 1.0 / agg.exponent) - 1.0
