"""Independent gradient oracles used to validate the tape.

Three routes are kept deliberately separate from the tape: the layerwise
multiplier recursion for the overhang filter, the adjoint assembly for the
aggregated stress, and plain central finite differences. They exist to check
the automatic gradients, not to drive optimization. The filter route takes
its forward values from the filter's own sweep (:class:`FilterSweep`) and
its local partials and recursion from the closed form.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import splu

from .amfilter import FilterParams, FilterSweep
from .autodiff import DiffValue
from .fea import SimpAssembler, StressAggregate, element_matrices


def filter_adjoint_gradient(
    blueprint: np.ndarray, g_rho: np.ndarray, params: FilterParams
) -> np.ndarray:
    """d(response)/d(blueprint) given d(response)/d(printed), per Lagrange
    multipliers chosen to cancel the cross-layer Jacobians.

    The multipliers run top-down from one forward sweep of the filter, with
    rho = S(b, e) and e = s^(1/Q) per layer: the top layer's multiplier
    equals the seeded sensitivity, and every lower layer adds the
    back-coupling through the support region of the layer above. The
    recursion runs on the raw surrogate chain (the final [0,1] clamp passes
    gradients straight through), so no masking is applied. Each layer above
    the base then scales its multiplier by d rho/d b.
    """
    blueprint = np.asarray(blueprint, dtype=float)
    g_rho = np.asarray(g_rho, dtype=float)
    if blueprint.shape != g_rho.shape:
        raise ValueError(
            f"blueprint {blueprint.shape} and sensitivity {g_rho.shape} shapes differ"
        )
    sweep = FilterSweep(blueprint, params)
    rho, ratio = sweep.raw, sweep.d / sweep.r
    ds_de = 0.5 * (1.0 + ratio)
    c = 1.0 / params.root_exponent
    p = params.sharpness
    with np.errstate(divide="ignore", invalid="ignore"):
        de_ds = np.where(sweep.s > 0, c * sweep.s ** (c - 1.0), 0.0)
    nely = blueprint.shape[0]
    lam = [None] * nely
    lam[nely - 1] = g_rho[nely - 1].copy()
    for k in range(nely - 2, -1, -1):
        t = lam[k + 1] * ds_de[k] * de_ds[k]
        padded = np.concatenate([[0.0], t, [0.0]])
        spread = padded[:-2] + padded[1:-1] + padded[2:]
        with np.errstate(divide="ignore", invalid="ignore"):
            dpow = np.where(rho[k] > 0, p * rho[k] ** (p - 1.0), 0.0)
        lam[k] = g_rho[k] + spread * dpow
    grad = np.array(lam)
    grad[1:] *= 0.5 * (1.0 - ratio)
    return grad


def compliance_density_gradient(system: SimpAssembler) -> np.ndarray:
    """dC/drho_e = -dE/drho_e * u_e^T ke0 u_e (self-adjoint load case)."""
    ue = system.u[system.mesh.dof_map]
    quad = np.einsum("ej,jk,ek->e", ue, system.ke0, ue)
    return -system.mat.modulus_derivative(system.rho) * quad


def stress_adjoint_gradient(
    system: SimpAssembler, stress: DiffValue, agg: StressAggregate, mat
) -> np.ndarray:
    """d(sigma_PN)/d(rho) via the adjoint equation of the aggregated stress.

    Chains the p-norm derivative through the per-element von Mises stresses,
    solves K lam = -(d sigma_PN/d u)^T once, and adds the direct modulus
    pathway from the sqrt(E) scaling. Of ``stress`` it reads only the values
    it aggregates and derives the rest from ``system``. Like the aggregate,
    the sum runs over the covered elements only (``agg.excluded``
    contributes nothing), and elements with a von Mises stress below 1e-12
    are skipped (their ratio cannot influence the aggregate).
    """
    u, rho = system.u, system.rho
    n = rho.shape[0]
    vm = stress.value
    dof_map = system.mesh.dof_map
    sm = element_matrices(mat.nu, system.mesh.elem_size)[1]
    ue = u[dof_map]
    sxx, syy, sxy = ue @ sm[0], ue @ sm[1], ue @ sm[2]
    vm0 = np.sqrt(sxx * sxx + syy * syy - sxx * syy + 3.0 * (sxy * sxy))
    e_mod = mat.modulus(rho)
    covered = agg.covered(n)
    ratios = np.zeros(n)
    ratios[covered] = vm[covered] / agg.sigma_allow
    s = float(np.sum(ratios ** agg.exponent))
    if s == 0.0:
        return np.zeros(n)
    coeff = (
        (s / covered.size) ** (1.0 / agg.exponent - 1.0)
        * (1.0 / covered.size)
        * ratios ** (agg.exponent - 1.0)
        / agg.sigma_allow
    )

    active = vm0 > 1e-12
    dvm0 = np.zeros((n, 3))
    dvm0[active, 0] = (2.0 * sxx[active] - syy[active]) / (2.0 * vm0[active])
    dvm0[active, 1] = (2.0 * syy[active] - sxx[active]) / (2.0 * vm0[active])
    dvm0[active, 2] = 6.0 * sxy[active] / (2.0 * vm0[active])

    dvm_du = np.sqrt(e_mod)[:, None] * (dvm0 @ sm)

    rhs = np.zeros(system.u.shape[0])
    np.add.at(rhs, dof_map, -coeff[:, None] * dvm_du)
    lam = np.zeros_like(rhs)
    lam[system.free_dofs] = splu(system.K).solve(rhs[system.free_dofs])

    de = mat.modulus_derivative(rho)
    le = lam[dof_map]
    term_state = de * np.einsum("ej,jk,ek->e", le, system.ke0, ue)
    term_direct = np.where(active, coeff * vm0 / (2.0 * np.sqrt(e_mod)) * de, 0.0)
    return term_state + term_direct


def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences, one coordinate at a time.

    Coordinates whose perturbed evaluations are non-finite come back as nan.
    """
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        fp = f(x)
        xf[i] = orig - h
        fm = f(x)
        xf[i] = orig
        flat[i] = (fp - fm) / (2.0 * h) if np.isfinite(fp) and np.isfinite(fm) else np.nan
    return grad
