import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topofield as tf
from topofield import autodiff as ad
from topofield.amfilter import (
    DensityField,
    FilterParams,
    apply_filter,
    apply_filter_exact,
    apply_passive,
    overhang_violations,
    smooth_max,
    smooth_min,
)
from topofield.oracle import finite_difference_gradient

from conftest import composed_filter, rel_err


def test_root_exponent_relation():
    # with a 3-element support and calibration density 1/2: Q = P - log3/log2
    for p in (10.0, 40.0, 100.0):
        params = FilterParams(sharpness=p)
        assert np.isclose(params.root_exponent, p - math.log(3) / math.log(2), rtol=1e-15)


def test_calibration_identity():
    for p in (10.0, 40.0, 100.0):
        params = FilterParams(sharpness=p)
        val = smooth_max((0.5, 0.5, 0.5), params)
        assert abs(val - 0.5) < 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        FilterParams(epsilon=0.0)
    # the root exponent P - log2(3) must be positive
    for sharpness in (-1.0, 1.0, math.log2(3)):
        with pytest.raises(ValueError, match="log2"):
            FilterParams(sharpness=sharpness)
    assert FilterParams(sharpness=1.6).root_exponent > 0


def test_smooth_min_exact_on_diagonal():
    params = FilterParams()
    for x in (0.0, 0.25, 0.5, 1.0):
        assert smooth_min(x, x, params) == x


def test_smooth_min_frozen_example():
    # S(0, 1) at eps = 1e-4: 0.5*(1 - sqrt(1 + 1e-4) + 0.01)
    params = FilterParams(epsilon=1e-4)
    expected = 0.5 * (1.0 - math.sqrt(1.0 + 1e-4) + 0.01)
    assert abs(smooth_min(0.0, 1.0, params) - expected) < 1e-16
    assert abs(expected - 0.0049750) < 1e-7


def test_smooth_min_bound(rng):
    # 0 <= S - min <= sqrt(eps)/2 for all inputs
    for eps in (1e-2, 1e-4, 1e-6):
        params = FilterParams(epsilon=eps)
        b = rng.uniform(0.0, 1.0, 500)
        e = rng.uniform(0.0, 1.0, 500)
        s = smooth_min(b, e, params)
        gap = s - np.minimum(b, e)
        assert gap.min() >= -1e-15
        assert gap.max() <= math.sqrt(eps) / 2 + 1e-15


def test_smooth_max_single_unit_support():
    params = FilterParams(sharpness=40.0)
    assert smooth_max((1.0, 0.0, 0.0), params) == 1.0


def test_smooth_max_high_precision_oracle():
    params = FilterParams(sharpness=40.0)
    got = smooth_max((0.9, 0.2, 0.1), params)
    with mpmath.workdps(50):
        p = mpmath.mpf(40)
        q = p + mpmath.log(3) / mpmath.log(mpmath.mpf(1) / 2)
        s = mpmath.mpf("0.9") ** p + mpmath.mpf("0.2") ** p + mpmath.mpf("0.1") ** p
        expected = float(s ** (1 / q))
    assert abs(got - expected) < 1e-12


def test_smooth_max_zero_support_zero_gradient():
    params = FilterParams()
    t = ad.Tape()
    sup = t.leaf(np.zeros(3))
    vals = [ad.gather(sup, np.array([i])) for i in range(3)]
    out = smooth_max(vals, params)
    assert out.value == 0.0
    assert np.all(t.backward(out.sum()).of(sup) == 0.0)


def test_filter_all_solid_stays_solid():
    params = FilterParams()
    grid = np.ones((6, 5))
    printed = apply_filter(grid.ravel(), 5, 6, params).reshape(6, 5)
    exact = apply_filter_exact(grid)
    assert np.abs(printed - exact).max() < 1e-6
    assert np.allclose(printed, 1.0, atol=1e-6)


def test_filter_single_layer_identity():
    params = FilterParams()
    values = np.array([0.2, 0.8, 0.5])
    assert np.array_equal(apply_filter(values, 3, 1, params), values)


def test_floating_overhang_removed():
    params = FilterParams()
    grid = np.zeros((4, 9))
    grid[0] = 1.0  # base layer solid
    grid[2, 4] = 1.0  # floating element two layers up with empty support
    printed = apply_filter(grid.ravel(), 9, 4, params).reshape(4, 9)
    exact = apply_filter_exact(grid)
    assert exact[2, 4] == 0.0
    assert printed[2, 4] <= math.sqrt(params.epsilon)
    assert np.abs(printed - exact).max() <= 0.05


def test_exact_filter_support_rule():
    rng = np.random.default_rng(5)
    for _ in range(20):
        grid = (rng.uniform(size=(8, 8)) < 0.5).astype(float)
        out = apply_filter_exact(grid)
        for i in range(1, 8):
            padded = np.concatenate([[0.0], out[i - 1], [0.0]])
            support = np.maximum(np.maximum(padded[:-2], padded[1:-1]), padded[2:])
            assert np.all(out[i] <= support + 1e-15)


def test_exact_limit_conformance_binary():
    rng = np.random.default_rng(7)
    params = FilterParams(epsilon=1e-4, sharpness=40.0)
    worst = 0.0
    for _ in range(30):
        grid = (rng.uniform(size=(8, 8)) < 0.5).astype(float)
        smooth = apply_filter(grid.ravel(), 8, 8, params).reshape(8, 8)
        exact = apply_filter_exact(grid)
        worst = max(worst, np.abs(smooth - exact).max())
    assert worst <= 0.05


def test_deviation_tightens_with_epsilon():
    rng = np.random.default_rng(9)
    grids = [(rng.uniform(size=(8, 8)) < 0.5).astype(float) for _ in range(20)]
    devs = []
    for eps in (1e-2, 1e-4, 1e-6):
        params = FilterParams(epsilon=eps, sharpness=40.0)
        worst = max(
            np.abs(apply_filter(g.ravel(), 8, 8, params).reshape(8, 8) - apply_filter_exact(g)).max()
            for g in grids
        )
        devs.append(worst)
    assert devs[0] >= devs[1] >= devs[2]


def test_monotone_in_blueprint(rng):
    params = FilterParams()
    base = rng.uniform(0.1, 0.9, 30)
    printed_base = apply_filter(base, 6, 5, params)
    for _ in range(25):
        bumped = base.copy()
        idx = rng.integers(0, 30)
        bumped[idx] = min(1.0, bumped[idx] + rng.uniform(0.01, 0.3))
        printed = apply_filter(bumped, 6, 5, params)
        assert np.all(printed >= printed_base - 1e-12)


def test_printed_field_clamped_to_unit_interval(rng):
    params = FilterParams()
    values = rng.uniform(0.0, 1.0, 48)
    values[:12] = 1.0
    printed = apply_filter(values, 12, 4, params)
    assert printed.min() >= 0.0
    assert printed.max() <= 1.0


def test_filter_gradient_matches_fd(rng):
    params = FilterParams()
    nelx, nely = 5, 4
    b0 = rng.uniform(0.1, 0.9, nelx * nely)
    w = rng.uniform(-1.0, 1.0, nelx * nely)

    def g(b):
        return float((apply_filter(b, nelx, nely, params) * w).sum())

    t = ad.Tape()
    b = t.leaf(b0)
    out = (apply_filter(b, nelx, nely, params) * w).sum()
    grad = t.backward(out).of(b)
    fd = finite_difference_gradient(g, b0.copy(), 1e-6)
    assert rel_err(grad, fd, floor=1e-8) < 1e-5


def test_filter_wrong_length_rejected():
    with pytest.raises(ValueError):
        apply_filter(np.ones(7), 3, 2, FilterParams())
    t = ad.Tape()
    with pytest.raises(ValueError):
        apply_filter(t.leaf(np.ones(7)), 3, 2, FilterParams())
    assert len(t) == 1


@st.composite
def _filter_instances(draw):
    nelx = draw(st.integers(1, 12))
    nely = draw(st.integers(1, 12))
    # legal sharpness only: above log2(3) = 1.585
    integer = st.integers(2, 120).map(float)
    fractional = st.floats(1.6, 120.0).filter(lambda p: p != round(p))
    sharpness = draw(st.one_of(integer, fractional))
    epsilon = 10.0 ** draw(st.floats(-10.0, -0.5))
    density = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    values = draw(st.lists(density, min_size=nelx * nely, max_size=nelx * nely))
    seed = draw(st.integers(0, 2**32 - 1))
    return nelx, nely, FilterParams(epsilon, sharpness), np.array(values), seed


def _filter_pass(fn, values, nelx, nely, params, cotangent):
    """(values, gradient) of fn on a fresh tape, or the exception type."""
    t = ad.Tape()
    b = t.leaf(values)
    try:
        out = fn(b, nelx, nely, params)
    except ad.NumericDomainError as err:
        return type(err)
    return out.value, t.backward((out * cotangent).sum()).of(b)


@settings(max_examples=200, deadline=None)
@given(_filter_instances())
def test_fused_filter_equals_composed_sweep(instance):
    # the one-op filter against the sweep composed from smooth_min/smooth_max
    # node by node: same values and same gradient, bit for bit
    nelx, nely, params, values, seed = instance
    cotangent = np.random.default_rng(seed).standard_normal(values.size)
    fused = _filter_pass(apply_filter, values, nelx, nely, params, cotangent)
    composed = _filter_pass(composed_filter, values, nelx, nely, params, cotangent)
    if isinstance(composed, type):
        assert fused is composed
        return
    assert np.array_equal(fused[0], composed[0])
    assert np.array_equal(fused[1], composed[1])
    plain = apply_filter(values, nelx, nely, params)
    assert np.array_equal(plain, composed[0])


def test_filter_records_one_node(rng):
    t = ad.Tape()
    b = t.leaf(rng.uniform(0.0, 1.0, 20 * 60))
    before = len(t)
    apply_filter(b, 20, 60, FilterParams())
    assert len(t) - before == 1


def test_filter_negative_density_at_fractional_sharpness_raises():
    values = np.full(12, 0.5)
    values[1] = -0.25  # base layer: every layer above reads it
    for blueprint in (values, ad.Tape().leaf(values)):
        with pytest.raises(ad.NumericDomainError):
            apply_filter(blueprint, 4, 3, FilterParams(sharpness=40.5))
    # at an integer sharpness the power sum stays real
    assert np.all(np.isfinite(apply_filter(values, 4, 3, FilterParams(sharpness=40.0))))


def test_apply_passive_pins_and_blocks_gradient():
    mask = np.array([1.0, 0.0, 0.0])
    t = ad.Tape()
    b = t.leaf(np.array([0.3, 0.6, 0.9]))
    pinned = apply_passive(b, mask)
    assert np.array_equal(pinned.value, np.array([1.0, 0.6, 0.9]))
    g = t.backward(pinned.sum()).of(b)
    assert np.array_equal(g, np.array([0.0, 1.0, 1.0]))


def test_density_field_helpers():
    field = DensityField.from_flat(np.linspace(0, 1, 6), 3, 2)
    assert field.nelx == 3 and field.nely == 2
    assert field.kind == "printed"
    assert np.isclose(field.volume_fraction(), 0.5)
    with pytest.raises(ValueError):
        DensityField(np.ones(4))


def test_overhang_violation_counter():
    grid = np.zeros((3, 3))
    grid[0, 0] = 1.0
    grid[1, 1] = 1.0  # supported diagonally by (0,0)
    grid[2, 0] = 1.0  # unsupported: layer 1 column range {0,1} has (1,1) -> supported!
    assert overhang_violations(grid) == 0
    grid2 = np.zeros((3, 3))
    grid2[2, 2] = 1.0  # nothing below at all
    assert overhang_violations(grid2) == 1
