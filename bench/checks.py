"""Output checks computed apart from the program.

Every check takes the case that was run and the result that came back and
returns a list of failure messages (empty when the result passes). The
finite-element route here shares no code with ``topofield.fea``: the element
stiffness is the closed form of Andreassen et al., "Efficient topology
optimization in MATLAB using 88 lines of code", SMO 2011, the assembly and the
degree-of-freedom numbering are written out below, and the solve is
``scipy.sparse.linalg.spsolve``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

COMPLIANCE_RTOL = 1e-9
VOLFRAC_ATOL = 1e-12
STRESS_ATOL = 1e-9
MAX_UNSUPPORTED_SHARE = 0.01


def q4_stiffness(nu: float) -> np.ndarray:
    """Closed-form 8x8 stiffness of a unit square Q4 element at E = 1.

    Node order is counter-clockwise from the bottom-left corner in a y-up
    frame, x then y displacement per node (the top88 ``KE``).
    """
    a11 = np.array([[12, 3, -6, -3], [3, 12, 3, 0], [-6, 3, 12, -3], [-3, 0, -3, 12]])
    a12 = np.array([[-6, -3, 0, 3], [-3, -6, -3, -6], [0, -3, -6, 3], [3, -6, 3, -6]])
    b11 = np.array([[-4, 3, -2, 9], [3, -4, -9, 4], [-2, -9, -4, -3], [9, 4, -3, -4]])
    b12 = np.array([[2, -3, 4, -9], [-3, 2, 9, -2], [4, 9, 2, 3], [-9, -2, 3, 2]])
    a = np.block([[a11, a12], [a12.T, a11]])
    b = np.block([[b11, b12], [b12.T, b11]])
    return (a + nu * b) / (24.0 * (1.0 - nu * nu))


def _node(case, jx, iy):
    return iy * (case.nelx + 1) + jx


def element_dofs(case) -> np.ndarray:
    """(nelx*nely, 8) DOFs per element; elements layer by layer from the base."""
    jx, iy = np.meshgrid(np.arange(case.nelx), np.arange(case.nely))
    jx, iy = jx.ravel(), iy.ravel()
    corners = [(jx, iy), (jx + 1, iy), (jx + 1, iy + 1), (jx, iy + 1)]
    nodes = np.column_stack([_node(case, x, y) for x, y in corners])
    dofs = np.empty((nodes.shape[0], 8), dtype=np.int64)
    dofs[:, 0::2] = 2 * nodes
    dofs[:, 1::2] = 2 * nodes + 1
    return dofs


def supports_and_loads(case):
    """Fixed DOFs, load vector and pinned nodes, written from the preset's
    description: pinned bottom corners under a load on every bottom node, or a
    clamped left edge under a load at the bottom corner of the free edge."""
    n_dofs = 2 * (case.nelx + 1) * (case.nely + 1)
    f = np.zeros(n_dofs)
    if case.name == "simply_supported":
        left, right = _node(case, 0, 0), _node(case, case.nelx, 0)
        fixed = np.array([2 * left, 2 * left + 1, 2 * right + 1])
        bottom = np.array([_node(case, j, 0) for j in range(case.nelx + 1)])
        f[2 * bottom + 1] = -case.load_scale
        return fixed, f, (left, right)
    if case.name == "tip_cantilever":
        edge = np.array([_node(case, 0, i) for i in range(case.nely + 1)])
        fixed = np.concatenate([2 * edge, 2 * edge + 1])
        f[2 * _node(case, case.nelx, 0) + 1] = -case.load_scale
        return fixed, f, ()
    raise ValueError(f"no independent model of case {case.name!r}")


def solve(case, rho: np.ndarray):
    """Displacements and compliance of the flat density field ``rho``."""
    dofs = element_dofs(case)
    fixed, f, _pins = supports_and_loads(case)
    modulus = case.Emin + rho**case.penal * (case.E0 - case.Emin)
    ke = q4_stiffness(case.nu)
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    vals = (modulus[:, None] * ke.ravel()[None, :]).ravel()
    k = sp.csc_matrix((vals, (rows, cols)), shape=(f.size, f.size))
    free = np.setdiff1d(np.arange(f.size), fixed)
    u = np.zeros(f.size)
    u[free] = spsolve(k[free][:, free].tocsc(), f[free])
    return u, float(f @ u)


def sigma_pn(case, rho: np.ndarray, u: np.ndarray) -> float:
    """p-mean of the centroid von Mises ratio over the elements that touch no
    pin, with the von Mises stress scaled by sqrt(E) as the paper does."""
    h = case.elem_size
    dn_dx = np.array([-1.0, 1.0, 1.0, -1.0]) / (2.0 * h)
    dn_dy = np.array([-1.0, -1.0, 1.0, 1.0]) / (2.0 * h)
    dofs = element_dofs(case)
    ux, uy = u[dofs[:, 0::2]], u[dofs[:, 1::2]]
    exx, eyy = ux @ dn_dx, uy @ dn_dy
    gxy = ux @ dn_dy + uy @ dn_dx
    nu = case.nu
    c = 1.0 / (1.0 - nu * nu)
    sxx, syy, sxy = c * (exx + nu * eyy), c * (nu * exx + eyy), c * (1.0 - nu) / 2.0 * gxy
    modulus = case.Emin + rho**case.penal * (case.E0 - case.Emin)
    vm = np.sqrt(sxx**2 + syy**2 - sxx * syy + 3.0 * sxy**2) * np.sqrt(modulus)
    _fixed, _f, pins = supports_and_loads(case)
    keep = ~np.isin(dofs[:, 0::2] // 2, pins).any(axis=1)
    ratio = vm[keep] / case.sigma_allow
    p = case.stress_exponent
    return float(np.mean(ratio**p) ** (1.0 / p) - 1.0)


def unsupported_elements(grid: np.ndarray) -> tuple[int, int]:
    """(unsupported, solid) counts of a (nely, nelx) grid thresholded at 0.5.

    A solid element above the base layer is supported when one of the three
    elements below it (left, centre, right) is solid: the exact 45-degree rule.
    """
    solid = np.asarray(grid) >= 0.5
    below = np.pad(solid[:-1], ((0, 0), (1, 1)))
    support = below[:, :-2] | below[:, 1:-1] | below[:, 2:]
    return int(np.sum(solid[1:] & ~support)), int(solid.sum())


def check_completed(case, result) -> list[str]:
    done = len(result.record)
    if result.aborted or done != case.iterations:
        return [f"stopped after {done} of {case.iterations} iterations: {result.abort_reason}"]
    return []


def check_compliance(case, result) -> list[str]:
    _u, c = solve(case, result.printed.flat)
    err = abs(c - result.final_compliance) / abs(c)
    if not err <= COMPLIANCE_RTOL:
        return [f"compliance {result.final_compliance!r} vs independent {c!r} (rel {err:.2e})"]
    return []


def check_volume(case, result) -> list[str]:
    mean = float(np.mean(result.printed.flat))
    out = []
    if not abs(mean - result.final_volfrac) <= VOLFRAC_ATOL:
        out.append(f"final_volfrac {result.final_volfrac!r} vs field mean {mean!r}")
    if not abs(mean - case.volume_fraction) <= case.volume_feasible_tol:
        out.append(f"volume fraction {mean:.4f} misses target {case.volume_fraction}")
    return out


def check_support(case, result) -> list[str]:
    bad, solid = unsupported_elements(result.printed.values)
    if solid == 0 or bad > MAX_UNSUPPORTED_SHARE * solid:
        return [f"{bad} of {solid} solid elements unsupported"]
    return []


def check_stress(case, result) -> list[str]:
    rho = result.printed.flat
    u, _c = solve(case, rho)
    pn = sigma_pn(case, rho, u)
    out = []
    if not abs(pn - result.final_sigma_pn) <= STRESS_ATOL:
        out.append(f"final_sigma_pn {result.final_sigma_pn!r} vs independent {pn!r}")
    if not pn <= case.stress_feasible_tol:
        out.append(f"sigma_PN {pn:.4f} above {case.stress_feasible_tol}")
    return out


def check_result(case, result) -> list[str]:
    """All checks that apply to the case; empty when the result passes."""
    failures = check_completed(case, result)
    if failures:
        return failures
    failures += check_compliance(case, result) + check_volume(case, result)
    if case.filter_on:
        failures += check_support(case, result)
    if case.stress_on:
        failures += check_stress(case, result)
    return failures


GRADIENT_CAPTURE = (
    "leaf_parameters",
    "predict_blueprint",
    "apply_passive",
    "apply_filter",
    "assemble_and_solve",
    "compliance",
)
GRADIENT_RTOL = 1e-4


def first_compliance(captured: dict, layers):
    """Replay the first iteration's compliance from the arguments the traced
    run passed to each layer, at the network weights ``layers``.

    Returns (compliance, parameter leaves) on a fresh tape.
    """
    from topofield import amfilter, autodiff, fea, neuralfield

    tape = autodiff.Tape()
    leaves = neuralfield.leaf_parameters(tape, layers)
    features, graph = captured["predict_blueprint"][:2]
    b = neuralfield.predict_blueprint(features, graph, leaves)
    if "apply_passive" in captured:
        b = amfilter.apply_passive(b, captured["apply_passive"][1])
    if "apply_filter" in captured:
        b = amfilter.apply_filter(b, *captured["apply_filter"][1:4])
    mesh, mat, fixed, f = captured["assemble_and_solve"][1:5]
    u, _system = fea.assemble_and_solve(b, mesh, mat, fixed, f)
    return fea.compliance(u, f), leaves


def check_gradient(captured: dict, rng: np.random.Generator, directions: int = 3,
                   step: float = 1e-5) -> tuple[list[str], float]:
    """Tape gradient of the first iteration's compliance against central
    differences along random unit directions in weight space.

    Returns (failures, worst relative error). The error is taken relative to
    the larger of |g.d| and |g|/sqrt(n), the size of g.d expected for a random
    direction, so a direction nearly orthogonal to g does not inflate it. The
    ReLU kinks of the network bound the step from above and rounding in the
    solve from below: at the workload sizes, with the error taken relative to
    |g.d| alone, the worst of 24 directions was 1.4e-5. The replay must reproduce the compliance the run
    recorded bit for bit, which shows it is the same computation.
    """
    from topofield import neuralfield

    layers = captured["leaf_parameters"][1]
    c, leaves = first_compliance(captured, layers)
    recorded = float(captured["compliance.out"].value)
    if float(c.value) != recorded:
        return [f"replayed compliance {float(c.value)!r} differs from the run's {recorded!r}"], np.inf
    grads = c.tape.backward(c)
    arrays = neuralfield.parameter_arrays(layers)
    g = [grads.of(leaf) for leaf in neuralfield.parameter_arrays(leaves)]
    n = sum(a.size for a in arrays)
    g_norm = np.sqrt(sum(float(np.sum(x * x)) for x in g))
    worst = 0.0
    for _ in range(directions):
        d = [rng.standard_normal(a.shape) for a in arrays]
        norm = np.sqrt(sum(float(np.sum(x * x)) for x in d))
        d = [x / norm for x in d]
        along = sum(float(np.sum(gi * di)) for gi, di in zip(g, d))

        def shifted(sign):
            moved = [a + sign * step * di for a, di in zip(arrays, d)]
            out, _ = first_compliance(captured, _rebuild(layers, moved))
            return float(out.value)

        fd = (shifted(1.0) - shifted(-1.0)) / (2.0 * step)
        worst = max(worst, abs(fd - along) / max(abs(along), g_norm / np.sqrt(n)))
    if not worst <= GRADIENT_RTOL:
        return [f"tape gradient vs central differences: relative error {worst:.2e}"], worst
    return [], worst


def _rebuild(layers, arrays):
    """Layers of the same shapes holding ``arrays`` (weights then bias per layer)."""
    from topofield.neuralfield import ChebLayerParams

    out, k = [], 0
    for layer in layers:
        n = len(layer.weights)
        out.append(ChebLayerParams(list(arrays[k:k + n]), arrays[k + n]))
        k += n + 1
    return out
