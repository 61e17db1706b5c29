"""Layer-by-layer overhang filter with smooth min/max surrogates.

The blueprint field is swept from the base layer upward: an element can keep
at most the (smoothed) maximum density found in the three elements directly
below it, so unsupported overhangs are erased from the printed field. The
surrogates stay differentiable everywhere, which lets the filter sit inside
the tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue, Tape


@dataclass(frozen=True)
class FilterParams:
    """Smoothing parameters of the printability surrogates.

    epsilon controls the smooth-min regularization, sharpness the power-sum
    exponent of the smooth max. The root exponent is calibrated so that a
    uniform 3-element support at density 1/2 maps to itself exactly.
    """

    epsilon: float = 1e-4
    sharpness: float = 40.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.sharpness <= 0:
            raise ValueError("sharpness must be positive")

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

    def volume_fraction(self) -> float:
        return float(self.values.mean())

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
    element is limited by the smoothed maximum of its three supports, with
    zero padding outside the domain. The output is clamped to [0, 1] (the
    surrogates can overshoot by O(sqrt(epsilon))); a single-layer domain is
    returned unchanged.
    """
    if not isinstance(blueprint, DiffValue):
        tape = Tape()
        return apply_filter(tape.leaf(blueprint), nelx, nely, params).value
    if blueprint.value.shape != (nelx * nely,):
        raise ValueError(f"expected flat field of length {nelx * nely}")
    if nely == 1:
        return blueprint

    left_idx = np.maximum(np.arange(nelx) - 1, 0)
    right_idx = np.minimum(np.arange(nelx) + 1, nelx - 1)
    left_mask = np.ones(nelx)
    left_mask[0] = 0.0
    right_mask = np.ones(nelx)
    right_mask[-1] = 0.0

    rows = [ad.gather(blueprint, np.arange(nelx))]
    for i in range(1, nely):
        b_i = ad.gather(blueprint, np.arange(i * nelx, (i + 1) * nelx))
        prev = rows[-1]
        below_left = ad.gather(prev, left_idx) * left_mask
        below_right = ad.gather(prev, right_idx) * right_mask
        support_max = smooth_max((below_left, prev, below_right), params)
        rows.append(smooth_min(b_i, support_max, params))
    # straight-through clamp: the surrogate overshoot is O(sqrt(epsilon)) and
    # a gradient-dead ceiling can freeze the whole optimization when a dense
    # field pins every element at 1
    return ad.clamp_straight_through(ad.concat(rows), 0.0, 1.0)


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
