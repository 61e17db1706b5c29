import tracemalloc

import numpy as np
import pytest

import topofield as tf
from topofield import autodiff as ad
from topofield import optimizer as opt
from topofield.oracle import finite_difference_gradient

from conftest import rel_err


def _spec(**kw):
    base = dict(
        volume_weight=2.0,
        stress_weight=3.0,
        volume_target=4.0,
        sigma_allow=1.0,
        elem_volumes=np.ones(8),
        compliance_scale=5.0,
    )
    base.update(kw)
    return opt.LossSpec(**base)


def test_loss_reduces_to_scaled_compliance_on_target():
    t = ad.Tape()
    c = t.leaf(15.0)
    rho = t.leaf(np.full(8, 0.5))  # volume = 4 = target
    spec = _spec()
    loss = opt.composite_loss(c, rho, None, spec)
    assert np.isclose(loss.value, 15.0 / 5.0, rtol=1e-15)


def test_loss_zero_density_volume_term():
    t = ad.Tape()
    c = t.leaf(0.0)
    rho = t.leaf(np.zeros(8))
    spec = _spec(volume_weight=7.0)
    loss = opt.composite_loss(c, rho, None, spec)
    assert np.isclose(loss.value, 7.0)  # (0 - 1)^2 * alpha


def test_loss_one_sided_stress_penalty():
    spec = _spec(stress_weight=4.0)
    t = ad.Tape()
    c = t.leaf(0.0)
    rho = t.leaf(np.full(8, 0.5))
    below = opt.composite_loss(c, rho, t.leaf(-0.3), spec)
    assert below.value == 0.0
    above = opt.composite_loss(c, rho, t.leaf(0.3), spec)
    assert np.isclose(above.value, 4.0 * 0.09)
    # a multiplier mu shifts the one-sided term to max(0, g + mu / (2 w))
    spec.stress_multiplier = 0.8
    assert opt.composite_loss(c, rho, t.leaf(-0.3), spec).value == 0.0
    assert np.isclose(opt.composite_loss(c, rho, t.leaf(-0.05), spec).value, 4.0 * 0.05**2)
    spec.one_sided = False
    two_sided = opt.composite_loss(c, rho, t.leaf(-0.3), spec)
    assert np.isclose(two_sided.value, 4.0 * 0.09)


def test_loss_nonnegative_and_penalty_free_gradient():
    # with penalties off, d(loss)/d(rho) equals d(C/J0)/d(rho) exactly
    from conftest import cantilever_problem

    mesh, fixed, f = cantilever_problem(3, 2)
    mat = tf.MaterialModel()
    rho0 = np.random.default_rng(4).uniform(0.3, 0.9, mesh.n_elems)
    spec = _spec(
        volume_weight=0.0,
        stress_weight=0.0,
        elem_volumes=np.ones(mesh.n_elems),
        volume_target=0.5 * mesh.n_elems,
    )

    def grad_of_loss():
        t = ad.Tape()
        rho = t.leaf(rho0)
        u, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
        c = tf.compliance(u, f)
        loss = opt.composite_loss(c, rho, None, spec)
        assert loss.value >= 0.0
        return t.backward(loss).of(rho)

    def grad_of_scaled_compliance():
        t = ad.Tape()
        rho = t.leaf(rho0)
        u, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
        c = tf.compliance(u, f) * (1.0 / spec.compliance_scale)
        return t.backward(c).of(rho)

    assert np.array_equal(grad_of_loss(), grad_of_scaled_compliance())


def test_loss_gradient_matches_fd_through_network():
    from topofield import neuralfield as nf
    from topofield.meshgraph import build_element_graph, fourier_encode, normalize_centroids
    from conftest import cantilever_problem

    mesh, fixed, f = cantilever_problem(4, 3)
    graph = build_element_graph(mesh)
    feats = fourier_encode(normalize_centroids(mesh), 4, 2.0, 1)
    config = nf.NetworkConfig((8, 6, 1), cheb_order=1, seed=3)
    layers = nf.init_parameters(config)
    mat = tf.MaterialModel()
    params = tf.FilterParams()
    agg = tf.StressAggregate(1.5, 8.0)
    spec = _spec(
        elem_volumes=np.ones(mesh.n_elems),
        volume_target=0.5 * mesh.n_elems,
        sigma_allow=1.5,
        one_sided=False,
    )
    arrays = nf.parameter_arrays(layers)

    def loss_value():
        t = ad.Tape()
        b = nf.predict_blueprint(feats, graph, nf.leaf_parameters(t, layers))
        rho = tf.apply_filter(b, 4, 3, params)
        u, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
        stress = tf.fea.centroid_stress(u, rho, mesh, mat)
        pn = tf.fea.p_norm_stress(stress, agg)
        return float(opt.composite_loss(tf.compliance(u, f), rho, pn, spec).value)

    t = ad.Tape()
    leaves = nf.leaf_parameters(t, layers)
    b = nf.predict_blueprint(feats, graph, leaves)
    rho = tf.apply_filter(b, 4, 3, params)
    u, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
    stress = tf.fea.centroid_stress(u, rho, mesh, mat)
    pn = tf.fea.p_norm_stress(stress, agg)
    loss = opt.composite_loss(tf.compliance(u, f), rho, pn, spec)
    grads = t.backward(loss)

    def fd_for(i):
        def f_of(x):
            saved = arrays[i].copy()
            arrays[i][...] = x
            out = loss_value()
            arrays[i][...] = saved
            return out

        return finite_difference_gradient(f_of, arrays[i].copy(), 1e-6)

    for i, leaf in enumerate(nf.parameter_arrays(leaves)):
        assert rel_err(grads.of(leaf), fd_for(i), floor=1e-8) < 1e-4, f"parameter {i}"


def test_adam_zero_gradient_leaves_parameters():
    params = [np.array([1.0, -2.0])]
    state = opt.AdamState.for_parameters(params)
    opt.adam_step(params, [np.zeros(2)], state)
    assert np.array_equal(params[0], np.array([1.0, -2.0]))


def test_adam_constant_gradient_step_approaches_lr():
    params = [np.zeros(1)]
    state = opt.AdamState.for_parameters(params)
    prev = params[0].copy()
    for _ in range(300):
        prev = params[0].copy()
        opt.adam_step(params, [np.ones(1)], state)
    assert np.isclose(abs(params[0][0] - prev[0]), 0.01, rtol=1e-3)


def test_adam_quadratic_converges():
    params = [np.array([0.0])]
    state = opt.AdamState.for_parameters(params)
    for _ in range(2000):
        grad = 2.0 * (params[0] - 3.0)
        opt.adam_step(params, [grad], state)
        if abs(params[0][0] - 3.0) < 1e-3:
            break
    assert abs(params[0][0] - 3.0) < 1e-3


def test_adam_rejects_nonfinite_gradient():
    params = [np.zeros(2)]
    state = opt.AdamState.for_parameters(params)
    with pytest.raises(ad.NumericDomainError):
        opt.adam_step(params, [np.array([1.0, np.nan])], state)


def test_schedules():
    case = tf.preset("simply_supported", iterations=100)
    first, end = opt._schedule(1, case), opt._schedule(100, case)
    assert first.gamma == 0.0  # stress off by default preset
    stress_case = tf.preset("simply_supported", iterations=100, stress_on=True)
    assert opt._schedule(100, stress_case).gamma == stress_case.gamma_max
    # the stress weight stays off through the continuation (50 iterations),
    # then ramps over ramp_fraction * iterations (15)
    gammas = [opt._schedule(it, stress_case).gamma for it in (1, 50, 51, 58, 65, 66)]
    g_max = stress_case.gamma_max
    assert gammas[:2] == [0.0, 0.0]
    assert np.allclose(gammas[2:], [g_max / 15, g_max * 8 / 15, g_max, g_max], rtol=1e-15)
    warmup = max(1, int(round(0.03 * case.iterations)))
    assert np.isclose(first.learning_rate, case.learning_rate / warmup)
    assert opt._schedule(warmup, case).learning_rate == case.learning_rate
    assert end.learning_rate == case.learning_rate * opt.LR_DECAY_FACTOR
    # the SIMP exponent and the filter surrogates sharpen over the same
    # window, from 1 and the soft start to the case's targets, then hold
    assert first.penal == 1.0 + (case.penal - 1.0) * (1 / 50)
    assert opt._schedule(50, case).penal == end.penal == case.penal
    assert case.filter_epsilon < first.filter.epsilon < opt.FILTER_EPSILON_START
    assert opt.FILTER_SHARPNESS_START < first.filter.sharpness < case.filter_sharpness
    assert opt._schedule(50, case).filter == end.filter
    assert end.filter.epsilon == case.filter_epsilon
    assert end.filter.sharpness == case.filter_sharpness


class _HeavyVolumeCase(tf.BenchmarkCase):
    # a stronger volume weight than the method's: a toy mesh equilibrates
    # with a larger offset than the benchmark size
    alpha_max = 400.0


def _tiny_case(case_type=tf.BenchmarkCase, **kw):
    base = dict(
        nelx=10,
        nely=4,
        iterations=40,
        fourier_m=8,
        hidden_widths=(16,),
        load_scale=0.25,
        seed=1,
    )
    base.update(kw)
    return case_type("simply_supported", **base)


def test_run_optimization_smoke():
    res = tf.run_optimization(_tiny_case())
    assert len(res.record) == 40
    assert np.all(np.isfinite(res.record.compliance))
    assert res.printed.values.shape == (4, 10)
    assert 0.0 <= res.printed.values.min() and res.printed.values.max() <= 1.0
    assert res.blueprint.kind == "blueprint"
    assert res.printed.kind == "printed"
    assert not res.aborted


def test_run_optimization_returns_best_feasible():
    case = _tiny_case(_HeavyVolumeCase, iterations=240)
    res = tf.run_optimization(case)
    rec = res.record
    # candidates start once the continuation ramps have finished; iteration
    # `ramp` is the first one evaluated at the final penalization
    first = int(round(opt.CONTINUATION_FRACTION * case.iterations)) - 1
    feasible = [
        i
        for i in range(first, len(rec))
        if abs(rec.volfrac[i] - case.volume_fraction) <= case.volume_feasible_tol
    ]
    assert res.best_feasible
    assert res.best_iteration - 1 in feasible
    best_c = min(rec.compliance[i] for i in feasible)
    assert np.isclose(res.final_compliance, best_c, rtol=1e-12)


def test_stress_limit_binds_only_when_reached():
    base = dict(
        nelx=16,
        nely=6,
        iterations=300,
        fourier_m=8,
        hidden_widths=(16,),
        seed=1,
    )
    free = tf.run_optimization(_HeavyVolumeCase("tip_cantilever", sigma_allow=4.0, **base))
    # a limit the design stays below leaves the run bit-identical
    loose = tf.run_optimization(
        _HeavyVolumeCase("tip_cantilever", sigma_allow=4.0, stress_on=True, **base)
    )
    assert loose.record.compliance == free.record.compliance
    assert loose.final_compliance == free.final_compliance
    # a limit the stress-free design exceeds is met: sigma_PN + 1 scales as
    # 1 / sigma_allow, so the free design reads about +0.19 at 2.5
    tight = _HeavyVolumeCase("tip_cantilever", sigma_allow=2.5, stress_on=True, **base)
    assert (free.final_sigma_pn + 1.0) * 4.0 / 2.5 - 1.0 > 0.1
    bound = tf.run_optimization(tight)
    assert bound.best_feasible
    assert bound.final_sigma_pn <= tight.stress_feasible_tol
    assert abs(bound.final_volfrac - tight.volume_fraction) <= tight.volume_feasible_tol


def test_record_csv_deterministic_for_fixed_seed(tmp_path):
    res1 = tf.run_optimization(_tiny_case())
    res2 = tf.run_optimization(_tiny_case())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    res1.record.to_csv(p1)
    res2.record.to_csv(p2)

    def physics_columns(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    # the timing column is wall-clock and excluded from the bit-identity check
    assert physics_columns(p1) == physics_columns(p2)
    header = p1.read_text().splitlines()[0]
    assert header == "iter,compliance,volfrac,sigma_pn,loss,seconds"


def test_convergence_record_roundtrip(tmp_path):
    rec = opt.ConvergenceRecord()
    rec.append(10.0, 0.5, -0.1, 2.0, 0.01)
    rec.append(9.0, 0.49, -0.05, 1.9, 0.011)
    path = tmp_path / "conv.csv"
    rec.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,compliance,volfrac,sigma_pn,loss,seconds"
    assert len(lines) == 3
    assert lines[1].startswith("1,1.0000000000e+01,5.0000000000e-01,")
    assert lines[2].startswith("2,9.0000000000e+00,4.9000000000e-01,")


@pytest.mark.parametrize(
    "error",
    [
        ad.NumericDomainError("sqrt of a negative value", node=7),
        tf.fea.DensityRangeError("densities outside [0,1]: min -1e-3, max 1"),
        tf.fea.SolverFailureError("reduced stiffness is singular; smallest pivot 0"),
    ],
)
def test_run_optimization_keeps_partial_result_on_failure(monkeypatch, error, tmp_path):
    # a failure after the continuation ends the run with the best iterate so
    # far and the reason, instead of discarding the history
    calls = {"n": 0}
    real = opt.p_norm_stress

    def failing(stress, agg):
        calls["n"] += 1
        if calls["n"] == 30:
            raise error
        return real(stress, agg)

    monkeypatch.setattr(opt, "p_norm_stress", failing)
    res = tf.run_optimization(_tiny_case())
    assert res.aborted
    assert res.abort_reason == str(error)
    assert len(res.record) == 29
    assert res.best_iteration <= 29
    # the record numbers its rows itself: they are the completed iterations
    res.record.to_csv(tmp_path / "conv.csv")
    rows = (tmp_path / "conv.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [str(i) for i in range(1, 30)]


def test_run_optimization_keeps_iterations_before_final_exponent(monkeypatch):
    # a failure during the SIMP continuation still returns what was completed
    calls = {"n": 0}
    real = opt.p_norm_stress

    def failing(stress, agg):
        calls["n"] += 1
        if calls["n"] == 5:
            raise ad.NumericDomainError("log of a non-positive value", node=2)
        return real(stress, agg)

    monkeypatch.setattr(opt, "p_norm_stress", failing)
    res = tf.run_optimization(_tiny_case())
    assert res.aborted
    assert len(res.record) == 4
    assert 1 <= res.best_iteration <= 4


def test_each_run_failure_is_defined_where_it_is_raised():
    assert opt.RUN_FAILURES == (
        tf.fea.SolverFailureError, ad.NumericDomainError, tf.fea.DensityRangeError
    )
    assert tf.SolverFailureError is tf.fea.SolverFailureError
    assert not hasattr(opt, "NonFiniteGradientError")
    exceptions = [v for v in vars(ad).values() if isinstance(v, type) and issubclass(v, Exception)]
    assert exceptions == [ad.NumericDomainError]


def test_run_that_fails_before_its_first_iteration_raises_its_cause():
    # the solve succeeds; the compliance of a 1e300 load overflows
    case = tf.preset("tip_cantilever", nelx=6, nely=3, iterations=2, fourier_m=4,
                     load_scale=1e300)
    with pytest.raises(ad.NumericDomainError, match="compliance is not finite"):
        tf.run_optimization(case)


class _SlidingCase(tf.BenchmarkCase):
    def build_problem(self, mesh):
        # the left edge held in x only: the beam slides freely in y
        fixed, f, passive = super().build_problem(mesh)
        return fixed[fixed % 2 == 0], f, passive


class _PinnedCase(tf.BenchmarkCase):
    def build_problem(self, mesh):
        # one node pinned: too few fixed DOFs to hold the beam
        _fixed, f, passive = super().build_problem(mesh)
        return np.array([0, 1]), f, passive


@pytest.mark.parametrize(
    "case_type, match", [(_SlidingCase, "singular"), (_PinnedCase, "under-constrained")]
)
def test_run_with_a_singular_stiffness_raises_solver_failure(case_type, match):
    case = case_type("tip_cantilever", nelx=6, nely=3, iterations=2, fourier_m=4)
    with pytest.raises(tf.SolverFailureError, match=match):
        tf.run_optimization(case)


def test_compare_benchmark_survives_numeric_domain_error(monkeypatch):
    from topofield import cli

    real = cli.run_optimization

    def flaky(case):
        if case.stress_on:
            raise ad.NumericDomainError("log of a non-positive value", node=3)
        return real(case)

    monkeypatch.setattr(cli, "run_optimization", flaky)
    comparison = cli.compare_benchmark(_tiny_case(iterations=25), seeds=[0])
    assert ("filter+stress", 0) not in comparison.results
    assert "log of a non-positive value" in comparison.errors[("filter+stress", 0)]
    assert comparison.results[("none", 0)] is not None
    assert comparison.results[("filter", 0)] is not None


def test_compare_benchmark_stops_on_an_error_that_is_not_a_run_failure(monkeypatch):
    # only RUN_FAILURES mark a row; any other error is a fault, as in `run`
    from topofield import cli

    def broken(case):
        raise RuntimeError("not a run failure")

    monkeypatch.setattr(cli, "run_optimization", broken)
    with pytest.raises(RuntimeError, match="not a run failure"):
        cli.compare_benchmark(_tiny_case(iterations=2), seeds=[0])


def test_compare_builds_one_band_pattern_for_its_runs(monkeypatch):
    # every run builds its own mesh; the pattern is keyed by grid and supports
    from topofield import cli

    builds = []
    build = tf.fea.BandPattern.build.__func__

    def counted(cls, mesh, fixed_dofs):
        builds.append(mesh)
        return build(cls, mesh, fixed_dofs)

    monkeypatch.setattr(tf.fea, "_pattern_memo", None)
    monkeypatch.setattr(tf.fea.BandPattern, "build", classmethod(counted))
    case = tf.preset("tip_cantilever", nelx=6, nely=3, iterations=2, fourier_m=4)
    comparison = cli.compare_benchmark(case, seeds=[0, 1])
    assert not comparison.errors and len(comparison.results) == 6
    assert len(builds) == 1


def test_loop_pins_passive_elements_and_passes_the_stress_excess_on_every_case(monkeypatch):
    # with no passive element the pin is the identity, and with the stress
    # limit off gamma stays 0, so the excess adds no loss term: the loop that
    # skipped both computed the same numbers
    case = tf.preset("tip_cantilever", nelx=6, nely=3, iterations=4, fourier_m=4)
    assert not case.stress_on and not case.build_problem(tf.build_mesh(6, 3))[2].any()
    real_pin, real_loss = opt.apply_passive, opt.composite_loss
    routes = []

    def pin(b, mask):
        routes.append("pin")
        return real_pin(b, mask)

    def loss(c, rho, excess, spec):
        routes.append(excess is not None)
        return real_loss(c, rho, excess, spec)

    monkeypatch.setattr(opt, "apply_passive", pin)
    monkeypatch.setattr(opt, "composite_loss", loss)
    one_route = tf.run_optimization(case)
    assert routes == ["pin", True] * case.iterations
    monkeypatch.setattr(opt, "apply_passive", lambda b, mask: b)
    monkeypatch.setattr(opt, "composite_loss", lambda c, rho, _g, spec: real_loss(c, rho, None, spec))
    forked = tf.run_optimization(case)
    for name in ("compliance", "volfrac", "sigma_pn", "loss"):
        assert getattr(one_route.record, name) == getattr(forked.record, name), name
    assert np.array_equal(one_route.printed.values, forked.printed.values)


def test_consecutive_runs_hold_no_memory():
    # tracemalloc counts live Python allocations, numpy arrays included, so a
    # finished run's tape kept alive by a reference cycle, or a buffer cache
    # that outlives its run, shows here; the meshes differ so that a cache
    # keyed by shape grows too
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        levels = []
        for nelx in (20, 22, 24):
            result = tf.run_optimization(
                tf.preset("tip_cantilever", nelx=nelx, nely=60, iterations=2)
            )
            del result
            levels.append(tracemalloc.get_traced_memory()[0])
    finally:
        if started:
            tracemalloc.stop()
    assert max(levels[1:]) - levels[0] < 2 * 2**20, levels


def test_released_backward_peaks_below_the_default_by_the_factor():
    # the loop's pass at 60 x 20 on one tape: network, filter, solve and
    # loss. Its backward peaks in the network's VJP, after the solve's; the
    # default keeps the banded factor, (kd + 1) n_free doubles, alive through
    # it, where a released tape has dropped it with the solve's closure
    case = tf.preset("simply_supported")
    mesh = tf.build_mesh(case.nelx, case.nely)
    graph = tf.build_element_graph(mesh)
    features = tf.fourier_encode(
        tf.meshgraph.normalize_centroids(mesh), case.fourier_m, case.fourier_scale, opt.FOURIER_SEED
    )
    fixed, f, passive = case.build_problem(mesh)
    layers = tf.init_parameters(
        tf.NetworkConfig((2 * case.fourier_m, *case.hidden_widths, 1), opt.CHEB_ORDER, case.seed),
        volume_target=case.volume_fraction,
    )
    spec = _spec(volume_target=case.volume_fraction * mesh.n_elems,
                 elem_volumes=np.ones(mesh.n_elems))

    def record():
        t = ad.Tape()
        b = tf.predict_blueprint(features, graph, tf.neuralfield.leaf_parameters(t, layers))
        b = tf.amfilter.apply_passive(b, passive)
        rho = tf.apply_filter(b, case.nelx, case.nely, tf.FilterParams())
        u, _ = tf.assemble_and_solve(rho, mesh, tf.MaterialModel(), fixed, f)
        return t, opt.composite_loss(tf.compliance(u, f), rho, None, spec)

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        peaks = {}
        for release in (False, True):
            t, loss = record()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            t.backward(loss, release=release)
            peaks[release] = tracemalloc.get_traced_memory()[1] - base
            del t, loss
    finally:
        if started:
            tracemalloc.stop()
    pattern = tf.fea.band_pattern(mesh, fixed)
    factor = (pattern.kd + 1) * pattern.free_dofs.size * 8
    assert peaks[False] - peaks[True] >= factor, (peaks, factor)
