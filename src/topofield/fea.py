"""SIMP plane-stress finite elements on the tape.

Forward quantities (element moduli, displacements, compliance, centroid
stresses, von Mises aggregation) are recorded as differentiable operations so
a single backward pass yields design sensitivities. The free DOFs are
numbered node by node along the grid's short side, which makes the reduced
stiffness a band of half-width about 2 min(nelx, nely) + 5. The map from
element-matrix entries to band slots is built once per grid and support set
(:class:`BandPattern`); each solve scatters the element stiffnesses into the
band with one ``bincount`` and factors it by LAPACK's banded Cholesky. The
solve is one tape operation whose VJP solves on the same factor and applies
the SIMP chain rule; its :class:`SimpAssembler` is returned for the oracles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

from . import autodiff as ad
from .autodiff import DiffValue
from .meshgraph import StructuredMesh, is_integer

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
        if not 1.0 <= self.penal < np.inf:
            raise ValueError("need finite penal >= 1")

    def modulus(self, rho: np.ndarray) -> np.ndarray:
        return self.Emin + rho ** self.penal * (self.E0 - self.Emin)

    def modulus_derivative(self, rho: np.ndarray) -> np.ndarray:
        return self.penal * rho ** (self.penal - 1.0) * (self.E0 - self.Emin)


@functools.cache
def element_matrices(nu: float, elem_size: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (8x8 stiffness by 2x2 Gauss quadrature, 3x8 map from nodal
    displacements to centroid stress) of a square bilinear quad with E = 1,
    built once per (nu, elem_size). The stiffness is symmetric with exactly
    three rigid-body zero modes and independent of elem_size (unit thickness).
    """
    if not 0.0 < nu < 0.5:
        raise ValueError("need 0 < nu < 0.5")
    d0 = (1.0 / (1.0 - nu * nu)) * np.array(
        [[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, (1.0 - nu) / 2.0]]
    )

    def strain_displacement(xi, eta):
        dn_dx = 0.25 * _XI * (1.0 + eta * _ETA) * (2.0 / elem_size)
        dn_dy = 0.25 * _ETA * (1.0 + xi * _XI) * (2.0 / elem_size)
        b = np.zeros((3, 8))
        b[0, 0::2] = dn_dx
        b[1, 1::2] = dn_dy
        b[2, 0::2] = dn_dy
        b[2, 1::2] = dn_dx
        return b

    detj = elem_size * elem_size / 4.0
    ke = np.zeros((8, 8))
    for xi in (-_GAUSS, _GAUSS):
        for eta in (-_GAUSS, _GAUSS):
            b = strain_displacement(xi, eta)
            ke += b.T @ d0 @ b * detj
    ke = 0.5 * (ke + ke.T)
    stress = d0 @ strain_displacement(0.0, 0.0)
    for matrix in (ke, stress):
        matrix.setflags(write=False)
    return ke, stress


def element_stiffness_unit(nu: float, elem_size: float = 1.0) -> np.ndarray:
    """The read-only 8x8 element stiffness for E = 1 of :func:`element_matrices`."""
    return element_matrices(nu, elem_size)[0]


class SolverFailureError(RuntimeError):
    """The reduced stiffness could not be factorized (singular or indefinite)."""


class DensityRangeError(ValueError):
    """Densities handed to the SIMP interpolation lie outside [0, 1]."""


def check_density_range(rho: np.ndarray) -> None:
    """Raise :class:`DensityRangeError` unless every density lies in
    [0, 1 + 1e-9]. None below 0 passes: it has no real fractional SIMP power."""
    # min and max are NaN when any density is, and NaN fails both bounds
    lo, hi = rho.min(), rho.max()
    if not (lo >= 0.0 and hi <= 1.0 + 1e-9):
        raise DensityRangeError(f"densities outside [0,1]: min {lo:.3e}, max {hi:.3e}")


def simp_modulus(rho: DiffValue, mat: MaterialModel) -> DiffValue:
    """Differentiable SIMP modulus per element."""
    check_density_range(rho.value)
    return ad.power(rho, mat.penal) * (mat.E0 - mat.Emin) + mat.Emin


@dataclass(frozen=True)
class BandPattern:
    """Where each element-matrix entry lands in the banded reduced stiffness.

    Free DOFs are numbered node by node along the grid's short side (column
    by column when nely < nelx, row by row otherwise), so the half-bandwidth
    is about 2 min(nelx, nely) + 5. ``order[k]`` is the global DOF of band
    row k. ``PAIRS`` are the 36 entries (a, b), a >= b, of the exactly
    symmetric element stiffness, one per unordered DOF pair. Element e's pair
    m adds into ``slots[e, m]`` (C-contiguous int64) of the LAPACK lower band
    storage ``ab[i - j, j] = K[i, j]`` of shape (kd + 1, n), flattened column
    by column: the Fortran order LAPACK factors in place, so the band is never
    copied. A pair on a fixed DOF adds into the spill slot (kd + 1) n instead.
    """

    PAIRS = np.tril_indices(8)
    free_dofs: np.ndarray
    order: np.ndarray
    kd: int
    slots: np.ndarray

    @classmethod
    def build(cls, mesh: StructuredMesh, fixed_dofs) -> BandPattern:
        fixed_dofs = np.unique(np.asarray(fixed_dofs, dtype=np.int64))
        if fixed_dofs.size and (fixed_dofs[0] < 0 or fixed_dofs[-1] >= mesh.n_dofs):
            raise ValueError("fixed DOF index out of range")
        if fixed_dofs.size < 3:
            raise SolverFailureError(
                f"under-constrained system: {fixed_dofs.size} fixed DOFs (need >= 3)"
            )
        nodes = np.arange(mesh.n_nodes).reshape(mesh.nely + 1, mesh.nelx + 1)
        if mesh.nely < mesh.nelx:
            nodes = nodes.T
        order = (2 * nodes.reshape(-1, 1) + np.array([0, 1])).ravel()
        free = np.ones(mesh.n_dofs, dtype=bool)
        free[fixed_dofs] = False
        order = order[free[order]]
        rank = np.full(mesh.n_dofs, -1, dtype=np.int64)
        rank[order] = np.arange(order.size)
        # in place: the slots, kept for the run, reuse the first array made here
        slots, offset = (np.take(rank[mesh.dof_map], i, axis=1) for i in cls.PAIRS)
        cols = np.minimum(slots, offset)
        np.maximum(slots, offset, out=offset)
        offset -= cols
        kd = int(offset.max(where=cols >= 0, initial=0))
        np.multiply(cols, kd + 1, out=slots)
        slots += offset
        slots[cols < 0] = (kd + 1) * order.size
        return cls(np.flatnonzero(free), order, kd, slots)


# one-slot memo ((nelx, nely, fixed-DOF bytes), pattern): a pattern reads
# its mesh only through the grid size, so every mesh of one grid shares it
_pattern_memo: tuple | None = None


def band_pattern(mesh: StructuredMesh, fixed_dofs) -> BandPattern:
    """The :class:`BandPattern` of this grid and support set, built once."""
    global _pattern_memo
    key = (mesh.nelx, mesh.nely, np.asarray(fixed_dofs, dtype=np.int64).tobytes())
    if _pattern_memo is None or _pattern_memo[0] != key:
        _pattern_memo = (key, BandPattern.build(mesh, fixed_dofs))
    return _pattern_memo[1]


@dataclass(frozen=True)
class BandCholesky:
    """K = L L^T with L in LAPACK lower band storage ``band[i - j, j]``;
    ``L`` and ``U`` (= L^T) are this one stored band, so the bench's
    ``fea.factor_nnz`` can size it as the two factors of a sparse LU."""

    band: np.ndarray
    L = U = property(lambda self: self)

    @property
    def nnz(self) -> int:
        """Stored band entries that lie inside the matrix."""
        kd = self.band.shape[0] - 1
        return self.band.size - kd * (kd + 1) // 2


class SimpAssembler:
    """The reduced stiffness K(rho) of one solve at the densities ``rho``,
    checked once here: assembles it in band storage, factors it by banded
    Cholesky and supplies the density chain rule for the solve's adjoint.
    :func:`assemble_and_solve` passes the array of the solve's DiffValue, not
    a copy, and sets ``u`` to the displacements once it has solved."""

    def __init__(self, mesh: StructuredMesh, mat: MaterialModel, fixed_dofs, rho: np.ndarray):
        check_density_range(rho)
        self.mesh = mesh
        self.mat = mat
        self.rho = rho
        self.ke0 = element_stiffness_unit(mat.nu, mesh.elem_size)
        self.pattern = band_pattern(mesh, fixed_dofs)
        self.free_dofs = self.pattern.free_dofs

    def assemble(self) -> np.ndarray:
        """Reduced stiffness in lower band storage, shape (kd + 1, n_free)."""
        p = self.pattern
        vals = np.multiply.outer(self.mat.modulus(self.rho), self.ke0[p.PAIRS])
        n_band = (p.kd + 1) * p.order.size
        band = np.bincount(p.slots.ravel(), vals.ravel(), minlength=n_band + 1)[:n_band]
        return band.reshape(-1, p.kd + 1).T

    def factorize(self) -> BandCholesky:
        if self.free_dofs.size == 0:
            raise SolverFailureError("no free DOFs to solve for")
        chol, info = dpbtrf(self.assemble(), lower=1, overwrite_ab=1)
        if info > 0:
            raise SolverFailureError(
                f"reduced stiffness is not positive definite: leading minor {info} is not"
            )
        # Cholesky completes on a stiffness singular up to rounding (a free
        # rigid-body mode); its pivots diag(L)^2 then span more than 1e12
        pivots = chol[0] ** 2
        if not pivots.min() >= 1e-12 * pivots.max():
            raise SolverFailureError(
                f"reduced stiffness is singular; smallest pivot {pivots.min():.6e}"
            )
        return BandCholesky(chol)

    def solve(self, factor: BandCholesky, rhs_full: np.ndarray) -> np.ndarray:
        order = self.pattern.order
        out = np.zeros(self.mesh.n_dofs)
        out[order] = dpbtrs(factor.band, rhs_full[order], lower=1)[0]
        return out

    def density_vjp(self, u: np.ndarray, lam: np.ndarray) -> np.ndarray:
        ue = u[self.mesh.dof_map]
        le = lam[self.mesh.dof_map]
        quad = np.einsum("ej,jk,ek->e", le, self.ke0, ue)
        return -self.mat.modulus_derivative(self.rho) * quad

    @property
    def K(self) -> sp.csc_array:
        """Reduced stiffness over ``free_dofs`` at ``rho`` as a sparse matrix,
        assembled on each access independently of the banded solver route."""
        dof_map = self.mesh.dof_map
        vals = np.multiply.outer(self.mat.modulus(self.rho), self.ke0.ravel()).ravel()
        rows = np.repeat(dof_map, 8, axis=1).ravel()
        cols = np.tile(dof_map, (1, 8)).ravel()
        n = self.mesh.n_dofs
        full = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsc()
        return full[self.free_dofs][:, self.free_dofs].tocsc()


def assemble_and_solve(
    rho: DiffValue,
    mesh: StructuredMesh,
    mat: MaterialModel,
    fixed_dofs,
    f: np.ndarray,
) -> tuple[DiffValue, SimpAssembler]:
    """Assemble K(rho), solve K u = f, return (u, the assembler that solved).

    u is a full-length differentiable vector with exact zeros on fixed DOFs.
    Densities must lie in [0, 1], and at least 3 DOFs must be constrained
    (no rigid-body motion). Backward: solve K lam = u_bar on the same factor
    (K is symmetric), then accumulate -lam_e^T (dK_e/drho_e) u_e per element.
    """
    # the VJP holds no DiffValue, which would tie the tape into a cycle
    assembler = SimpAssembler(mesh, mat, fixed_dofs, rho.value)
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.n_dofs,):
        raise ValueError(f"load vector must have shape ({mesh.n_dofs},)")
    factor = assembler.factorize()
    u = assembler.solve(factor, f)
    assembler.u = u

    def vjp(g):
        return (assembler.density_vjp(u, assembler.solve(factor, g)),)

    return rho.tape._record(u, (rho.nid,), vjp), assembler


def compliance(u: DiffValue, f: np.ndarray) -> DiffValue:
    """External work f^T u."""
    return ad.total(u * np.asarray(f, dtype=float))


def centroid_stress(
    u: DiffValue, rho: DiffValue, mesh: StructuredMesh, mat: MaterialModel
) -> DiffValue:
    """Per-element centroid von Mises stress with stiffness-consistent scaling.

    Components come from the unit-modulus constitutive matrix applied to the
    element displacements; the von Mises scalar is then scaled by sqrt(E_e)
    so void elements do not attract spurious stress.
    """
    sm = element_matrices(mat.nu, mesh.elem_size)[1]
    ue = ad.gather(u, mesh.dof_map)
    sxx = ad.matmul(ue, sm[0])
    syy = ad.matmul(ue, sm[1])
    sxy = ad.matmul(ue, sm[2])
    vm_sq = sxx * sxx + syy * syy - sxx * syy + 3.0 * (sxy * sxy)
    vm_unit = ad.sqrt(vm_sq)
    return vm_unit * ad.sqrt(simp_modulus(rho, mat))


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
        if not 0 < self.sigma_allow < np.inf:
            raise ValueError("sigma_allow must be positive and finite")
        if not 2 <= self.exponent < np.inf:
            raise ValueError("aggregation exponent must be finite and >= 2")
        if not all(is_integer(e) and e >= 0 for e in self.excluded):
            raise ValueError("excluded elements must be non-negative integer indices")

    def covered(self, n_elems: int) -> np.ndarray:
        """Indices of the elements the aggregate runs over; an excluded index
        past the last of ``n_elems`` elements raises ValueError."""
        beyond = [e for e in self.excluded if e >= n_elems]
        if beyond:
            raise ValueError(f"excluded element {beyond[0]} is past the {n_elems} elements")
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
    pin = inner & ~neighbour
    # element (i, j) has the corner nodes (i, j), (i, j+1), (i+1, j), (i+1, j+1)
    touches = pin[:-1, :-1] | pin[:-1, 1:] | pin[1:, :-1] | pin[1:, 1:]
    return tuple(int(e) for e in np.flatnonzero(touches))


def p_norm_stress(stress: DiffValue, agg: StressAggregate) -> DiffValue:
    """sigma_PN = ((1/N) sum_e (vm_e / sigma_allow)^p)^(1/p) - 1 of the
    von Mises stresses ``stress`` from :func:`centroid_stress`.

    The sum and N run over the covered elements, every element except
    ``agg.excluded``. This is a p-mean, not a peak measure: on the 60 x 20
    presets (N about 1200) with p = 8, sigma_PN <= 0 still lets a single
    element reach N^(1/p) = 2.4 times sigma_allow.

    Evaluated with the largest ratio factored out as a constant so the power
    sum cannot overflow on degenerate intermediate designs; the p-norm is
    1-homogeneous, so the factoring changes neither value nor gradient.
    """
    covered = agg.covered(stress.value.shape[0])
    vm = ad.gather(stress, covered)
    n = covered.size
    peak = float(vm.value.max()) / agg.sigma_allow
    if peak == 0.0:
        return ad.total(vm * 0.0) - 1.0
    scaled = vm * (1.0 / (agg.sigma_allow * peak))
    mean_pow = ad.total(ad.power(scaled, agg.exponent)) * (1.0 / n)
    return peak * ad.power(mean_pow, 1.0 / agg.exponent) - 1.0
