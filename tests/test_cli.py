import dataclasses
import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import topofield as tf
from topofield import cli
from topofield.amfilter import DensityField
from topofield.autodiff import SolverFailureError


def test_presets_carry_benchmark_constants():
    for name in cli.BENCHMARK_NAMES:
        case = cli.preset(name)
        assert case.sigma_allow == 2.3
        assert case.E0 == 1.0
        assert case.nu == 0.3
        assert case.nelx == 60 and case.nely == 20
        assert case.volume_fraction == 0.5
    for name in ("bogus_case", "custom"):
        with pytest.raises(ValueError):
            cli.preset(name)


def test_simply_supported_problem_layout():
    case = cli.preset("simply_supported", nelx=6, nely=3)
    mesh = tf.build_mesh(6, 3)
    fixed, f, passive = case.build_problem(mesh)
    # pin: both corner DOFs bottom-left, vertical only bottom-right
    assert list(fixed) == [0, 1, 2 * mesh.node_id(6, 0) + 1]
    loaded = np.flatnonzero(f)
    assert len(loaded) == 7  # every bottom-edge node
    assert np.all(f[loaded] == -case.load_scale)
    assert np.all(loaded % 2 == 1)  # vertical DOFs
    assert passive[:6].sum() == 6 and passive[6:].sum() == 0


def test_cantilever_problem_layouts():
    mesh = tf.build_mesh(8, 4)
    tip_case = cli.preset("tip_cantilever", nelx=8, nely=4)
    fixed, f, passive = tip_case.build_problem(mesh)
    assert len(fixed) == 2 * 5  # whole left edge clamped
    assert f[2 * mesh.node_id(8, 0) + 1] == -tip_case.load_scale
    assert np.count_nonzero(f) == 1
    assert passive.sum() == 0

    mid_case = cli.preset("mid_cantilever", nelx=8, nely=4)
    _fixed, f_mid, _passive = mid_case.build_problem(mesh)
    assert f_mid[2 * mesh.node_id(8, 2) + 1] == -mid_case.load_scale
    assert np.count_nonzero(f_mid) == 1


def test_config_file_parse(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
# benchmark configuration
case = tip_cantilever
nelx = 12
volfrac = 0.4   # inline comment
filter = off
stress = on
seed = 3
"""
    )
    options = cli.load_config(path)
    case = cli.case_from_options(options)
    assert case.name == "tip_cantilever"
    assert case.nelx == 12
    assert case.volume_fraction == 0.4
    assert not case.filter_on
    assert case.stress_on
    assert case.seed == 3


def test_config_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nelx = 12\nwhatkey = 3\n")
    with pytest.raises(cli.ConfigError, match=r"bad\.cfg:2.*whatkey"):
        cli.load_config(path)
    path.write_text("nelx = twelve\n")
    with pytest.raises(cli.ConfigError, match=r"bad\.cfg:1.*nelx"):
        cli.load_config(path)
    path.write_text("just some words\n")
    with pytest.raises(cli.ConfigError, match=r"bad\.cfg:1"):
        cli.load_config(path)


def test_export_pgm_all_solid(tmp_path):
    field = DensityField(np.ones((2, 2)), kind="printed")
    path = cli.export_density(field, "pgm", tmp_path / "d.pgm")
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    assert data[-4:] == bytes([255, 255, 255, 255])


def test_export_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    field = DensityField(rng.uniform(size=(4, 6)), kind="printed")
    path = cli.export_density(field, "csv", tmp_path / "d.csv")
    back = cli.import_density_csv(path)
    assert back.values.shape == (4, 6)
    assert np.abs(back.values - field.values).max() < 1e-6


def test_export_vtk_structure(tmp_path):
    field = DensityField(np.linspace(0, 1, 12).reshape(3, 4), kind="printed")
    for elem_size, spacing in ((1.0, "SPACING 1 1 1"), (2, "SPACING 2 2 1")):
        path = cli.export_density(field, "vtk", tmp_path / "d.vtk", elem_size)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "ASCII" in lines
        assert "DATASET STRUCTURED_POINTS" in lines
        assert "DIMENSIONS 5 4 1" in lines
        assert spacing in lines
        assert "CELL_DATA 12" in lines
        assert "SCALARS density double 1" in lines
        start = lines.index("LOOKUP_TABLE default") + 1
        values = np.array([float(v) for line in lines[start:] for v in line.split()])
        assert values.size == 12
        assert np.abs(values - field.flat).max() < 1e-6


def test_export_rejects_out_of_range(tmp_path):
    field = DensityField(np.full((2, 2), 1.5))
    with pytest.raises(ValueError):
        cli.export_density(field, "pgm", tmp_path / "bad.pgm")
    with pytest.raises(ValueError):
        cli.export_density(DensityField(np.zeros((2, 2))), "tiff", tmp_path / "x")


def _smoke_args(tmp_path, extra=()):
    return [
        "run",
        "--case",
        "simply_supported",
        "--nelx",
        "12",
        "--nely",
        "4",
        "--iters",
        "50",
        "--seed",
        "1",
        "--load-scale",
        "0.25",
        "--out-dir",
        str(tmp_path),
        *extra,
    ]


def test_cli_run_smoke_under_ten_seconds(tmp_path, capsys):
    t0 = time.perf_counter()
    code = cli.main(_smoke_args(tmp_path))
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 10.0
    summary = json.loads(capsys.readouterr().out)
    run_dir = tmp_path / summary["out_dir"].split("/")[-1]
    for artifact in (
        "density.pgm",
        "density.csv",
        "density.vtk",
        "blueprint.csv",
        "convergence.csv",
        "weights.ckpt",
        "summary.json",
    ):
        assert (run_dir / artifact).exists(), artifact
    assert summary["schema_version"] == cli.SUMMARY_SCHEMA_VERSION
    for key in (
        "case",
        "condition",
        "seed",
        "final_compliance",
        "final_volfrac",
        "final_sigma_pn",
        "wall_time_seconds",
        "best_iteration",
    ):
        assert key in summary, key


def test_cli_flag_overrides_config(tmp_path):
    import argparse

    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        f"case = simply_supported\nnelx = 30\nseed = 5\nout_dir = {tmp_path / 'cfg'}\n"
    )
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    cli._add_common_flags(sub.add_parser("run"))
    args = parser.parse_args(
        ["run", "--config", str(cfg), "--nelx", "8", "--out-dir", "runs"]
    )
    case, out = cli._case_from_args(args)
    assert case.nelx == 8  # flag wins over config
    assert out == "runs"  # also when the flag names the default directory
    assert case.seed == 5  # config survives where no flag given
    case, out = cli._case_from_args(parser.parse_args(["run", "--config", str(cfg)]))
    assert out == str(tmp_path / "cfg")


def test_cli_bad_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("nope = 1\n")
    code = cli.main(_smoke_args(tmp_path, ("--config", str(cfg))))
    assert code == 2
    assert "broken.cfg:1" in capsys.readouterr().err


def test_cli_custom_case_is_usage_error(tmp_path, capsys):
    # no flag or config key can give the custom case its supports and loads
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--case", "custom", "--out-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "invalid choice: 'custom'" in capsys.readouterr().err
    cfg = tmp_path / "custom.cfg"
    cfg.write_text("case = custom\niters = 1\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "bad value for 'case'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_cli_rejects_sharpness_the_filter_cannot_use(tmp_path, capsys):
    for sharpness in (1.0, math.log2(3)):
        with pytest.raises(ValueError, match="log2"):
            cli.preset("tip_cantilever", filter_sharpness=sharpness)
    assert cli.preset("tip_cantilever", filter_sharpness=1.6).filter_sharpness == 1.6
    cfg = tmp_path / "soft.cfg"
    cfg.write_text("case = tip_cantilever\nfilter_sharpness = 1.0\niters = 1\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "log2" in capsys.readouterr().err
    assert not out.exists()


def test_cli_stress_only_run_is_labelled_stress(tmp_path, capsys):
    args = _smoke_args(tmp_path, ("--iters", "3", "--filter", "off", "--stress", "on"))
    assert cli.main(args) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["condition"] == "stress"
    assert "-simply_supported-stress-s1" in summary["out_dir"]
    labels = {
        (filt, stress): cli._condition_label(
            cli.preset("tip_cantilever", filter_on=filt, stress_on=stress)
        )
        for filt in (False, True)
        for stress in (False, True)
    }
    assert labels == {
        (False, False): "none",
        (True, False): "filter",
        (False, True): "stress",
        (True, True): "filter+stress",
    }


def test_failed_run_leaves_no_directory(tmp_path, monkeypatch, capsys):
    def failing(case):
        raise SolverFailureError("reduced stiffness is singular")

    monkeypatch.setattr(cli, "run_optimization", failing)
    assert cli.main(_smoke_args(tmp_path / "out")) == 3
    assert "singular" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _tiny_compare_case():
    return cli.preset(
        "simply_supported",
        nelx=8,
        nely=3,
        iterations=25,
        fourier_m=6,
        hidden_widths=(12,),
        load_scale=0.25,
    )


def test_compare_tiny_mesh_table(tmp_path):
    comparison = cli.compare_benchmark(_tiny_compare_case(), seeds=[0], out_root=None)
    text = comparison.render()
    assert "case: simply_supported" in text
    assert "ordering" in text
    assert "mean" in text
    comparison.to_csv(tmp_path / "cmp.csv")
    lines = (tmp_path / "cmp.csv").read_text().splitlines()
    assert lines[0] == "seed,condition,compliance,error"
    assert len(lines) == 4  # one seed x three conditions


def test_compare_returns_the_runs_and_writes_their_artifacts(tmp_path):
    # each run equals a direct run_optimization call, and with out_root it
    # writes the artifact set run_case writes
    case = _tiny_compare_case()
    comparison = cli.compare_benchmark(case, seeds=[1], out_root=tmp_path)
    assert comparison.errors == {}
    for label, filt, stress in cli.CONDITIONS:
        got = comparison.results[(label, 1)]
        want = tf.run_optimization(
            dataclasses.replace(case, seed=1, filter_on=filt, stress_on=stress)
        )
        assert got.record.compliance == want.record.compliance
        assert got.record.sigma_pn == want.record.sigma_pn
        assert got.best_iteration == want.best_iteration
        assert np.array_equal(got.printed.values, want.printed.values)
        (run_dir,) = tmp_path.glob(f"*-simply_supported-{label}-s1")
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["final_compliance"] == got.final_compliance
        assert summary["condition"] == label
        assert len(list(run_dir.iterdir())) == 7


def test_comparison_marks_failed_rows():
    def ran(compliance):
        return SimpleNamespace(final_compliance=compliance)

    comp = cli.ComparisonResult(
        "simply_supported",
        [0],
        {("none", 0): ran(10.0), ("filter", 0): None, ("filter+stress", 0): ran(12.0)},
        {("filter", 0): "solver failure"},
    )
    assert comp.ordering_ok(0) is None
    text = comp.render()
    assert "failed" in text
