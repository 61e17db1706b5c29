"""Layer-by-layer overhang filter with smooth min/max surrogates.

The blueprint field is swept from the base layer upward: an element can keep
at most the (smoothed) maximum density found in the three elements directly
below it, so unsupported overhangs are erased from the printed field. The
smooth sweep, its VJP and the exact rule all read those three supports from
the row below padded with a zero at each end, so a support outside the domain
counts as void. The surrogates stay differentiable everywhere, which lets the
filter sit inside the tape, where the whole sweep is one operation with a
hand-written VJP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue


@dataclass(frozen=True)
class FilterParams:
    """Smoothing parameters of the printability surrogates.

    epsilon controls the smooth-min regularization, sharpness the power-sum
    exponent of the smooth max. The root exponent is calibrated so that a
    uniform 3-element support at density 1/2 maps to itself exactly; it is
    sharpness - log2(3) and must be positive.
    """

    epsilon: float = 1e-4
    sharpness: float = 40.0

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0 < self.root_exponent < math.inf:
            raise ValueError(
                f"sharpness must be finite and exceed log2(3) = {math.log2(3):.6f}, "
                f"got {self.sharpness!r}"
            )

    @property
    def root_exponent(self) -> float:
        return self.sharpness + math.log(3) / math.log(0.5)


@dataclass
class DensityField:
    """Per-element density grid, layer 0 at the base plate.

    values has shape (nely, nelx); kind is "blueprint" or "printed".
    """

    values: np.ndarray
    kind: str = "blueprint"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("density values must be a (nely, nelx) grid")

    @property
    def nely(self) -> int:
        return self.values.shape[0]

    @property
    def nelx(self) -> int:
        return self.values.shape[1]

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()

    @classmethod
    def from_flat(cls, values, nelx: int, nely: int, kind: str = "printed"):
        return cls(np.asarray(values, dtype=float).reshape(nely, nelx), kind)


def _sqrt(x):
    return ad.sqrt(x) if isinstance(x, DiffValue) else np.sqrt(x)


def _pow(x, c):
    return ad.power(x, c) if isinstance(x, DiffValue) else np.power(x, c)


def smooth_min(b, e, params: FilterParams):
    """Differentiable surrogate of min(b, e), exact on the diagonal b == e."""
    eps = params.epsilon
    d = b - e
    return 0.5 * (b + e - _sqrt(d * d + eps) + math.sqrt(eps))


def smooth_max(support, params: FilterParams):
    """(sum rho^P)^(1/Q) over the 3-element support region.

    Calibrated so a uniform support at density 1/2 reproduces it exactly;
    an all-zero support returns 0 with zero gradient.
    """
    a, b, c = support
    s = _pow(a, params.sharpness) + _pow(b, params.sharpness) + _pow(c, params.sharpness)
    return _pow(s, 1.0 / params.root_exponent)


def apply_filter(blueprint, nelx: int, nely: int, params: FilterParams):
    """Sweep the smooth printability filter up the layers.

    blueprint is a flat (nelx*nely,) layer-major vector, DiffValue or ndarray;
    the result has the same type. The base layer prints as-is; every higher
    element i is smooth_min(b_i, smooth_max(support)) over its three supports
    in the printed layer below, with zero padding outside the domain. The
    output is clamped to [0, 1] (the surrogates can overshoot by
    O(sqrt(epsilon))).

    A DiffValue input records one tape operation. Its VJP walks the layers
    top-down, passing each layer's adjoint to the supports below it (the
    layerwise sensitivity of Langelaar, SMO 2017), with the elementwise
    arithmetic and the order of additions of the same sweep composed from
    :func:`smooth_min` and :func:`smooth_max` on the tape, so values and
    gradients equal that composition bit for bit. The clamp is straight
    through: a gradient-dead ceiling can freeze the whole optimization when a
    dense field pins every element at 1.
    """
    is_diff = isinstance(blueprint, DiffValue)
    bv = blueprint.value if is_diff else np.asarray(blueprint, dtype=float)
    if bv.shape != (nelx * nely,):
        raise ValueError(f"expected flat field of length {nelx * nely}")
    node = len(blueprint.tape) if is_diff else None
    sweep = FilterSweep(bv.reshape(nely, nelx), params, node)
    out = np.clip(sweep.raw.ravel(), 0.0, 1.0)
    if not is_diff:
        return out
    return blueprint.tape._record(out, (blueprint.nid,), lambda g: (sweep.vjp(g),))


class FilterSweep:
    """One forward sweep of the smooth filter over a (nely, nelx) blueprint.

    Each layer reads its three supports from one zero-padded row: the printed
    row below, raised to the power P once, sits between two zeros, and its
    left, centre and right shifts give every element's supports, with zero
    outside the domain. Holds the unclamped printed rows ``raw`` and, one row
    per layer above the base, what the VJP reads: the power sum s, the gap
    d = b - s^(1/Q) and the root r = sqrt(d^2 + epsilon). A power outside its
    real domain raises NumericDomainError, reported at tape node ``node``.
    """

    def __init__(self, b: np.ndarray, params: FilterParams, node: int | None = None):
        nely, nelx = b.shape
        self.p = float(params.sharpness)
        self.c = 1.0 / params.root_exponent
        eps = params.epsilon
        root_eps = math.sqrt(eps)
        raw = np.empty((nely, nelx))
        raw[0] = b[0]
        s, d, r = (np.empty((nely - 1, nelx)) for _ in range(3))
        pw = np.zeros(nelx + 2)
        # a negative base or a zero sum under a negative root exponent fails
        # the domain check below; the rows it spoils are never returned
        with np.errstate(invalid="ignore", divide="ignore"):
            for i in range(1, nely):
                k = i - 1
                pw[1:-1] = raw[k] ** self.p
                s[k] = pw[:-2] + pw[1:-1] + pw[2:]
                e = s[k] ** self.c
                d[k] = b[i] - e
                r[k] = np.sqrt(d[k] * d[k] + eps)
                raw[i] = 0.5 * (b[i] + e - r[k] + root_eps)
        ad.check_power_domain(raw[:-1], self.p, node)
        ad.check_power_domain(s, self.c, node)
        self.raw, self.s, self.d, self.r = raw, s, d, r

    def vjp(self, g: np.ndarray) -> np.ndarray:
        """Adjoint of the blueprint given the adjoint g of the output.

        Each layer's power-sum adjoint goes into a zero-padded row, and its
        centre, left and right shifts pass it down to the supports below."""
        nely, nelx = self.raw.shape
        g = np.asarray(g, dtype=float).reshape(nely, nelx)
        d_pw = ad.power_derivative(self.raw[:-1], self.p)
        d_s = ad.power_derivative(self.s, self.c)
        d_r = 0.5 / self.r  # r >= sqrt(epsilon) > 0
        grad = np.zeros((nely, nelx))
        g_s = np.zeros(nelx + 2)
        g_row = g[-1]
        for i in range(nely - 1, 0, -1):
            k = i - 1
            g_half = g_row * 0.5
            g_sq = -g_half * d_r[k]
            g_d = g_sq * self.d[k]
            g_d = g_d + g_d
            grad[i] += g_half + g_d
            g_s[1:-1] = (g_half - g_d) * d_s[k]
            g_row = g[k] + g_s[1:-1] * d_pw[k] + g_s[:-2] * d_pw[k] + g_s[2:] * d_pw[k]
        grad[0] += g_row
        return grad.ravel()


def _exact_support(row: np.ndarray) -> np.ndarray:
    """Exact support of each element above ``row``: the largest of the three
    elements below it, with zero padding outside the domain."""
    padded = np.concatenate([[0.0], row, [0.0]])
    return np.maximum(np.maximum(padded[:-2], padded[1:-1]), padded[2:])


def apply_filter_exact(grid: np.ndarray) -> np.ndarray:
    """Exact min/max overhang filter (the limit of the smooth surrogates)."""
    out = np.array(grid, dtype=float)
    for i in range(1, out.shape[0]):
        out[i] = np.minimum(out[i], _exact_support(out[i - 1]))
    return out


def apply_passive(blueprint, passive_mask: np.ndarray):
    """Pin passive elements to density 1 before filtering (zero gradient there)."""
    mask = np.asarray(passive_mask, dtype=float)
    return blueprint * (1.0 - mask) + mask


def overhang_violations(binary_grid: np.ndarray) -> int:
    """Count solid elements of a 0/1 grid that fail the exact support rule."""
    grid = np.asarray(binary_grid)
    count = 0
    for i in range(1, grid.shape[0]):
        count += int(np.sum((grid[i] > 0) & (_exact_support(grid[i - 1]) == 0)))
    return count
