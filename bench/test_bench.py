"""Fast tests of the benchmark: each output check rejects a corrupted result,
the span arithmetic, and the metric names against BENCHMARK.json.

Run with ``PYTHONPATH=src python -m pytest -q bench``; a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import report
import tracing
import workloads
import topofield as tf

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def small():
    """A 16 x 6 printable beam with the stress limit on; it ends feasible."""
    case = tf.preset(
        "simply_supported", nelx=16, nely=6, filter_on=True, stress_on=True,
        load_scale=0.15, iterations=100,
    )
    return case, tf.run_optimization(case)


def test_small_result_passes(small):
    case, result = small
    assert checks.check_result(case, result) == []


def test_compliance_check_rejects_scaled_compliance(small):
    case, result = small
    bad = dataclasses.replace(result, final_compliance=result.final_compliance * (1 + 1e-6))
    assert checks.check_compliance(case, bad)
    assert checks.check_result(case, bad)


def test_support_check_rejects_unsupported_element(small):
    case, result = small
    grid = np.array(result.printed.values)
    bad_before, _ = checks.unsupported_elements(grid)
    solid = grid >= 0.5
    below = np.pad(solid[:-1], ((0, 0), (1, 1)))
    bare = ~(below[:, :-2] | below[:, 1:-1] | below[:, 2:]) & ~solid[1:]
    i, j = np.argwhere(bare)[0]
    grid[i + 1, j] = 1.0
    bad = dataclasses.replace(result, printed=tf.DensityField(grid, kind="printed"))
    assert checks.unsupported_elements(grid)[0] == bad_before + 1
    assert checks.check_support(case, bad)
    assert checks.check_result(case, bad)


def test_volume_check_rejects_shifted_volume_fraction(small):
    case, result = small
    bad = dataclasses.replace(result, final_volfrac=result.final_volfrac + 0.02)
    assert checks.check_volume(case, bad)
    assert checks.check_result(case, bad)


def test_stress_check_rejects_shifted_sigma_pn(small):
    case, result = small
    bad = dataclasses.replace(result, final_sigma_pn=result.final_sigma_pn + 1e-6)
    assert checks.check_stress(case, bad)
    assert checks.check_result(case, bad)


def test_completed_check_rejects_aborted_run(small):
    case, result = small
    bad = dataclasses.replace(result, aborted=True, abort_reason="solver failure")
    assert checks.check_result(case, bad)


def test_q4_stiffness_has_the_rigid_body_modes():
    ke = checks.q4_stiffness(0.3)
    x = np.array([-1.0, 1.0, 1.0, -1.0])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    modes = [np.ravel(np.column_stack(m)) for m in ((x * 0 + 1, x * 0), (x * 0, x * 0 + 1), (-y, x))]
    for mode in modes:
        assert np.abs(ke @ mode).max() < 1e-14
    eig = np.linalg.eigvalsh(ke)
    assert np.allclose(ke, ke.T)
    assert np.sum(eig > 1e-10) == 5


def test_independent_solve_of_solid_cantilever_matches_beam_theory():
    """Tip deflection of a slender solid cantilever within 2% of Timoshenko."""
    case = tf.preset("tip_cantilever", nelx=80, nely=8, load_scale=1.0)
    u, c = checks.solve(case, np.ones(case.nelx * case.nely))
    length, height, e, nu = 80.0, 8.0, 1.0, 0.3
    inertia = height**3 / 12.0
    bending = length**3 / (3 * e * inertia)
    shear = length / ((5.0 / 6.0) * (e / (2 * (1 + nu))) * height)
    assert c == pytest.approx(bending + shear, rel=0.02)


def _span(name, start, end, parent=-1, iteration=0, nodes=0, extra=None):
    return tracing.Span(name, start, end, parent, iteration, nodes, extra)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 5.0, parent=0),  # overlaps a
        _span("c", 9.0, 12.0, parent=0),  # runs past the parent
        _span("d", 2.0, 3.0, parent=1),  # grandchild: not subtracted from root
    ]
    assert tracing.self_time(spans, 0) == pytest.approx(10.0 - 4.0 - 1.0)
    assert tracing.self_time(spans, 1) == pytest.approx(2.0)
    assert tracing.self_time(spans, 4) == pytest.approx(1.0)


def test_layer_metrics_on_a_synthetic_run():
    tracer = tracing.Tracer()
    tracer.installed |= {"build_mesh", "leaf_parameters", "assemble_and_solve",
                         "factorize", "solve", "backward"}
    tracer.spans = [
        _span("run_optimization", 0.0, 0.100),
        _span("build_mesh", 0.001, 0.003, parent=0),
        _span("leaf_parameters", 0.010, 0.011, parent=0, iteration=1),
        _span("assemble_and_solve", 0.012, 0.030, parent=0, iteration=1),
        _span("factorize", 0.013, 0.025, parent=3, iteration=1, extra=50.0),
        _span("solve", 0.025, 0.027, parent=3, iteration=1),
        _span("backward", 0.031, 0.040, parent=0, iteration=1, extra=7.0),
        _span("solve", 0.032, 0.034, parent=6, iteration=1),
        _span("leaf_parameters", 0.050, 0.051, parent=0, iteration=2),
        _span("assemble_and_solve", 0.052, 0.070, parent=0, iteration=2),
        _span("factorize", 0.053, 0.065, parent=9, iteration=2, extra=50.0),
        _span("solve", 0.065, 0.067, parent=9, iteration=2),
        _span("backward", 0.071, 0.080, parent=0, iteration=2, extra=7.0),
        _span("solve", 0.072, 0.074, parent=12, iteration=2),
    ]
    m = tracing.layer_metrics(tracer)
    assert m["meshgraph.build_mesh_ms"] == pytest.approx(2.0)
    assert m["fea.solves"] == 2
    assert m["fea.solve_ms"] == pytest.approx(4.0)
    assert m["fea.factor_nnz"] == 50.0
    assert m["fea.assemble_and_solve_self_ms"] == pytest.approx(4.0)
    assert m["autodiff.backward_self_ms"] == pytest.approx(7.0)
    assert m["autodiff.tape_nodes"] == 7.0
    assert m["optimizer.iteration_ms"] == pytest.approx(45.0)  # 40 ms, then 50 ms
    assert m["optimizer.loop_self_ms"] == pytest.approx(17.0)  # 12 ms, then 22 ms
    assert "amfilter.apply_filter_ms" not in m  # never installed: absent


def test_tracer_restores_the_program():
    from topofield import autodiff, fea, optimizer

    before = (optimizer.apply_filter, fea.SimpAssembler.factorize, autodiff.Tape.backward)
    with tracing.Tracer():
        assert optimizer.apply_filter is not before[0]
    assert (optimizer.apply_filter, fea.SimpAssembler.factorize, autodiff.Tape.backward) == before


@pytest.fixture(scope="module")
def traced_small():
    case = tf.preset("simply_supported", nelx=16, nely=6, filter_on=True, stress_on=True,
                     load_scale=0.15, iterations=20)
    return tracing.traced_run(tf.run_optimization, case, capture=checks.GRADIENT_CAPTURE)


def test_metric_names_match_benchmark_json(traced_small):
    _result, tracer = traced_small
    layer = report.per_layer([tracing.layer_metrics(tracer)])
    assert {(k, v["unit"]) for k, v in layer.items()} == {
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    }
    op = {"run_s": 1.0, "setup_s": 0.1, "iter_ms": 2.0, "peak_rss_mb": 99.0, "compliance": 3.0}
    e2e = report.end_to_end([op], [0.1])
    assert {(k, v["unit"]) for k, v in e2e.items()} == {
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    }
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_traced_counts_on_a_small_run(traced_small):
    result, tracer = traced_small
    m = tracing.layer_metrics(tracer)
    assert m["fea.solves"] == 2
    assert m["fea.assemblers_built"] == len(result.record)
    assert m["amfilter.tape_nodes"] > 0
    assert m["autodiff.tape_nodes"] > m["neuralfield.tape_nodes"] + m["amfilter.tape_nodes"]


def test_gradient_check_passes_and_catches_a_wrong_replay(traced_small):
    _result, tracer = traced_small
    problems, worst = checks.check_gradient(tracer.captured, np.random.default_rng(0))
    assert problems == [] and worst < checks.GRADIENT_RTOL
    captured = dict(tracer.captured)
    captured.pop("apply_filter")  # replay without the filter: not the run's computation
    problems, _ = checks.check_gradient(captured, np.random.default_rng(0))
    assert problems


def test_make_case_is_a_function_of_the_seed():
    a, b = workloads.make_case("beam60", 7), workloads.make_case("beam60", 7)
    assert a == b
    c = workloads.make_case("beam60", 8)
    assert c.load_scale != a.load_scale
    assert abs(c.load_scale / 0.15 - 1) <= workloads.LOAD_SPREAD
    assert (a.seed, a.iterations, a.filter_on, a.stress_on) == (0, 600, True, True)
