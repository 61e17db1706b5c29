import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import topofield as tf
from topofield import cli
from topofield.amfilter import DensityField
from topofield.fea import SolverFailureError

from conftest import checkpoint_layers


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
    # the documented layout, read back: nely rows, nelx columns, top first
    rng = np.random.default_rng(0)
    for shape in ((4, 6), (3, 1), (1, 5), (1, 1)):
        field = DensityField(rng.uniform(size=shape), kind="printed")
        path = cli.export_density(field, "csv", tmp_path / "d.csv")
        back = np.flipud(np.loadtxt(path, delimiter=",", ndmin=2))
        assert back.shape == shape
        assert np.abs(back - field.values).max() < 1e-6


@pytest.mark.parametrize("fmt", ["pgm", "csv", "vtk"])
def test_export_rejects_nan_densities(tmp_path, fmt):
    field = DensityField(np.array([[0.5, np.nan]]), kind="printed")
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        cli.export_density(field, fmt, tmp_path / f"d.{fmt}")
    assert not (tmp_path / f"d.{fmt}").exists()


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


@pytest.mark.parametrize("keys", [cli.CONFIG_KEYS, cli.COMPARE_KEYS], ids=["run", "compare"])
def test_every_flag_parses_with_its_config_keys_parser(keys):
    # a value reaches the case through one parser, from a flag or a file
    import argparse

    parser = cli._add_common_flags(argparse.ArgumentParser(), keys)
    flags = {a.dest: a for a in parser._actions if a.dest in keys}
    assert sorted(flags) == sorted(keys)
    for key, action in flags.items():
        assert action.option_strings == ["--" + key.replace("_", "-")]
        assert action.type is keys[key], key


def test_cli_custom_case_is_usage_error(tmp_path, capsys):
    # no flag or config key can give the custom case its supports and loads
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--case", "custom", "--out-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    expected = "expected one of simply_supported, tip_cantilever, mid_cantilever, got 'custom'"
    assert f"argument --case: {expected}" in capsys.readouterr().err
    cfg = tmp_path / "custom.cfg"
    cfg.write_text("case = custom\niters = 1\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "bad value for 'case'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


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


@pytest.mark.parametrize("command", ["run", "compare"])
def test_out_dir_naming_a_file_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    # the output root is made before any run, so the error costs no run
    def must_not_run(case):
        raise AssertionError("an optimization ran")

    monkeypatch.setattr(cli, "run_optimization", must_not_run)
    afile = tmp_path / "afile"
    afile.write_text("")
    args = [command, "--case", "simply_supported", "--nelx", "6", "--nely", "3",
            "--iters", "1", "--out-dir", str(afile)]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert afile.read_text() == ""


def test_failed_run_leaves_no_directory(tmp_path, monkeypatch, capsys):
    def failing(case):
        raise SolverFailureError("reduced stiffness is singular")

    monkeypatch.setattr(cli, "run_optimization", failing)
    assert cli.main(_smoke_args(tmp_path / "out")) == 3
    assert "singular" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_failed_run_removes_the_directories_it_made(tmp_path, monkeypatch, capsys):
    def failing(case):
        raise SolverFailureError("reduced stiffness is singular")

    monkeypatch.setattr(cli, "run_optimization", failing)
    (tmp_path / "kept").mkdir()
    assert cli.main(_smoke_args(tmp_path / "kept" / "a" / "b")) == 3
    assert list(tmp_path.iterdir()) == [tmp_path / "kept"]
    assert not any((tmp_path / "kept").iterdir())


def test_run_that_fails_before_its_first_iteration_exits_with_its_cause(tmp_path, capsys):
    # the solve succeeds; the compliance of a 1e300 load overflows, and the
    # loop names that cause with no numpy warning on the way
    args = ["run", "--case", "tip_cantilever", "--nelx", "6", "--nely", "3", "--iters", "2",
            "--fourier-m", "4", "--load-scale", "1e300", "--out-dir", str(tmp_path / "out")]
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(args) == 3
    assert np.geterr() == before
    err = capsys.readouterr().err
    assert err.startswith("run failed: compliance is not finite")
    assert "solver" not in err
    assert not (tmp_path / "out").exists()


def _float32_case():
    # a numpy float is a legal load scale, which json cannot encode as it is
    return cli.preset("tip_cantilever", nelx=6, nely=3, iterations=2, fourier_m=4,
                      hidden_widths=(5,), load_scale=np.float32(2.0))


def test_run_with_numpy_float_settings_writes_a_whole_directory(tmp_path):
    summary = cli.run_case(_float32_case(), tmp_path)
    (run_dir,) = tmp_path.iterdir()
    assert len(list(run_dir.iterdir())) == 7
    assert json.loads((run_dir / "summary.json").read_text()) == summary
    assert summary["load_scale"] == 2.0


def test_unserializable_summary_leaves_no_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_summary", lambda case, result, run_dir: {"x": object()})
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli.run_case(_float32_case(), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_runs_started_together_never_share_a_directory(tmp_path, monkeypatch):
    # another run of the same case, condition and seed, in the same second,
    # makes the directory between this run's choice of name and its mkdir
    real_mkdir, other = Path.mkdir, []

    def racing_mkdir(path, *args, **kwargs):
        if not other:
            real_mkdir(path)
            (path / "summary.json").write_text("{}\n")
            other.append(path)
        return real_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", racing_mkdir)
    summary = cli.run_case(_float32_case(), tmp_path)
    run_dir = Path(summary["out_dir"])
    assert run_dir != other[0] and run_dir.parent == tmp_path
    assert [p.name for p in other[0].iterdir()] == ["summary.json"]
    assert (other[0] / "summary.json").read_text() == "{}\n"
    assert len(list(run_dir.iterdir())) == 7
    assert json.loads((run_dir / "summary.json").read_text()) == summary


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
    assert lines[0] == (
        "seed,condition,compliance,volfrac,sigma_pn,best_iteration,best_feasible,error"
    )
    assert len(lines) == 4  # one seed x three conditions
    # each run's numbers as their repr, so two grids can be diffed bit for bit
    for line, (label, _f, _s) in zip(lines[1:], cli.CONDITIONS):
        r = comparison.results[(label, 0)]
        assert line == (f"0,{label},{r.final_compliance!r},{r.final_volfrac!r},"
                        f"{r.final_sigma_pn!r},{r.best_iteration},{r.best_feasible},")


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


def test_comparison_marks_failed_rows(tmp_path):
    import csv

    def ran(compliance):
        return SimpleNamespace(final_compliance=compliance, final_volfrac=0.5,
                               final_sigma_pn=-0.1, best_iteration=3, best_feasible=True)

    # the density check's own message holds commas
    error = "densities outside [0,1]: min -1.000e-03, max 1.000e+00"
    comp = cli.ComparisonResult(
        "simply_supported",
        [0],
        {("none", 0): ran(10.0), ("filter+stress", 0): ran(12.0)},
        {("filter", 0): error},
    )
    assert comp.ordering_ok(0) is None
    text = comp.render()
    assert "failed" in text
    comp.to_csv(tmp_path / "cmp.csv")
    with open(tmp_path / "cmp.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [8] * 4
    assert rows[2] == ["0", "filter", "", "", "", "", "", error]
    assert rows[1] == ["0", "none", "10.0", "0.5", "-0.1", "3", "True", ""]


def test_compare_with_a_failed_run_exits_3_after_writing_its_results(tmp_path, monkeypatch, capsys):
    import csv

    real, error = cli.run_optimization, tf.NumericDomainError("log of a non-positive value")

    def flaky(case):
        if case.stress_on:
            raise error
        return real(case)

    monkeypatch.setattr(cli, "run_optimization", flaky)
    out = tmp_path / "out"
    args = ["compare", "--case", "tip_cantilever", "--nelx", "6", "--nely", "3",
            "--iters", "2", "--fourier-m", "4", "--seeds", "0", "--out-dir", str(out)]
    assert cli.main(args) == 3
    assert "failed" in capsys.readouterr().out
    with open(out / "comparison-tip_cantilever.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[1] for row in rows] == ["none", "filter", "filter+stress"]
    assert rows[2][2:] == ["", "", "", "", "", str(error)]
    assert all(row[2] and not row[-1] for row in rows[:2])
    assert len(list(out.glob("*/summary.json"))) == 2


@pytest.mark.parametrize("seeds", ["0,x", "", " , ", "0,,1", "1.5", "0,0", "-1"])
def test_compare_rejects_malformed_seeds_before_running(tmp_path, monkeypatch, capsys, seeds):
    def must_not_run(case):
        raise AssertionError("compare ran with malformed seeds")

    monkeypatch.setattr(cli, "run_optimization", must_not_run)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["compare", "--case", "simply_supported", "--seeds", seeds, "--out-dir", str(out)])
    assert exit_info.value.code == 2
    assert "error: argument --seeds" in capsys.readouterr().err
    assert not out.exists()


def test_compare_parses_seeds_with_spaces_and_defaults_to_three(tmp_path, monkeypatch, capsys):
    seen = []

    def record(case):
        seen.append(case.seed)
        raise SolverFailureError("stub")

    monkeypatch.setattr(cli, "run_optimization", record)
    out = tmp_path / "out"
    args = ["compare", "--case", "simply_supported", "--out-dir", str(out)]
    # every run fails, so compare exits 3 once it has written the CSV
    assert cli.main([*args, "--seeds", "3, 1"]) == 3
    assert seen == [3, 3, 3, 1, 1, 1]
    lines = (out / "comparison-simply_supported.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["3"] * 3 + ["1"] * 3
    seen.clear()
    assert cli.main(args) == 3
    assert seen == [0, 0, 0, 1, 1, 1, 2, 2, 2]


@pytest.mark.parametrize("extra", [("--seed", "5"), ("--filter", "off"), ("--stress", "on")])
def test_compare_takes_no_seed_filter_or_stress_flag(tmp_path, monkeypatch, capsys, extra):
    # compare sets all three itself, per run; and since no flag's prefix
    # stands for it, --seed is not read as --seeds either
    def must_not_run(case):
        raise AssertionError("compare ran")

    monkeypatch.setattr(cli, "run_optimization", must_not_run)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["compare", "--case", "simply_supported", "--out-dir", str(out), *extra])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [("compare", "--seed"), ("run", "--seeds")])
def test_flag_a_subcommand_does_not_take_is_reported_with_its_usage(tmp_path, capsys, command, extra):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--out-dir", str(tmp_path / "out"), extra, "5"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: topofield {command} ")
    assert f"topofield {command}: error: unrecognized arguments: {extra} 5" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["seed = 4", "filter = off", "stress = on"])
def test_compare_config_takes_no_seed_filter_or_stress(tmp_path, monkeypatch, capsys, line):
    def must_not_run(case):
        raise AssertionError("compare ran")

    monkeypatch.setattr(cli, "run_optimization", must_not_run)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"case = tip_cantilever\nnelx = 6\n{line}\n")
    key = line.split()[0]
    assert key in cli.load_config(cfg)  # a run takes it
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert f"c.cfg:3: unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_run_flag_sets_fourier_m(tmp_path, monkeypatch, capsys):
    seen = []

    def record(case):
        seen.append(case.fourier_m)
        raise SolverFailureError("stub")

    monkeypatch.setattr(cli, "run_optimization", record)
    args = ["run", "--case", "tip_cantilever", "--fourier-m", "8", "--out-dir", str(tmp_path)]
    assert cli.main(args) == 3
    assert seen == [8]


@pytest.mark.parametrize(
    "command, extra",
    [
        ("run", ("--seed", "-1")),
        ("run", ("--nelx", "0")),
        ("run", ("--nely", "0")),
        ("run", ("--iters", "0")),
        ("run", ("--volfrac", "1.5")),
        ("run", ("--volfrac", "0")),
        ("run", ("--sigma-allow", "0")),
        ("compare", ("--volfrac", "1.5")),
        ("compare", ("--nelx", "0")),
        ("run", ("--load-scale", "0")),
        ("run", ("--load-scale", "nan")),
        ("compare", ("--load-scale", "nan")),
        ("run", ("--nelx", "1")),
    ],
)
def test_out_of_range_options_are_usage_errors(tmp_path, monkeypatch, capsys, command, extra):
    def must_not_run(case):
        raise AssertionError("ran with an out-of-range option")

    monkeypatch.setattr(cli, "run_optimization", must_not_run)
    out = tmp_path / "out"
    args = [command, "--case", "simply_supported", "--out-dir", str(out), *extra]
    assert cli.main(args) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_python_dash_m_topofield_runs_the_command(tmp_path):
    # the package's __main__ runs the command once; running the submodule
    # `topofield.cli` instead makes runpy warn that the package imported it
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "topofield", "run", "--nelx", "0"],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize(
    "line",
    [
        "seed = -1",
        "iters = 0",
        "volfrac = 1.0",
        "sigma_allow = -2",
        "fourier_m = 0",
        "fourier_scale = -1",
        "penal = 0",
        "stress_exponent = 0",
        "learning_rate = nan",
        "ramp_fraction = -1",
        "gamma_max = -5",
        "load_scale = 0",
        "load_scale = nan",
        "filter_epsilon = inf",
        "filter_sharpness = inf",
    ],
)
def test_out_of_range_config_values_are_usage_errors(tmp_path, monkeypatch, capsys, line):
    def must_not_run(case):
        raise AssertionError("ran with an out-of-range option")

    monkeypatch.setattr(cli, "run_optimization", must_not_run)
    cfg = tmp_path / "range.cfg"
    cfg.write_text(f"case = tip_cantilever\n{line}\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [dict(nelx=0), dict(nely=-3), dict(iterations=0), dict(seed=-1),
     dict(volume_fraction=0.0), dict(volume_fraction=float("nan")), dict(sigma_allow=0.0),
     dict(fourier_m=0), dict(load_scale=float("inf")), dict(nely=1),
     dict(hidden_widths=(-1,)), dict(hidden_widths=(2.5,)), dict(hidden_widths=(0,)),
     dict(nelx=1)],
)
def test_benchmark_case_rejects_out_of_range_values(overrides):
    with pytest.raises(ValueError):
        cli.preset("simply_supported", **overrides)


@pytest.mark.parametrize(
    "key, overrides",
    [("nelx", dict(nelx=6.5)), ("nely", dict(nely=4.0)), ("iters", dict(iterations=2.5)),
     ("seed", dict(seed=1.5)), ("nelx", dict(nelx=True)), ("fourier_m", dict(fourier_m=2.0))],
)
def test_benchmark_case_rejects_non_integer_sizes(key, overrides):
    # a float size once reached compare as a TypeError, which it does not catch
    case = {"nelx": 6, "nely": 4, "iterations": 2, **overrides}
    with pytest.raises(ValueError, match=f"^{key} must be an integer"):
        cli.preset("tip_cantilever", **case)


def test_benchmark_case_takes_numpy_integer_sizes(tmp_path):
    case = cli.preset("tip_cantilever", nelx=np.int64(6), nely=np.int32(3), iterations=np.int64(2),
                      seed=np.uint8(1), fourier_m=np.int16(4), hidden_widths=(np.int64(5),))
    comparison = cli.compare_benchmark(case, [np.int64(0)], out_root=tmp_path)
    assert comparison.errors == {}
    assert len(comparison.results[("none", 0)].record) == 2
    # each run's summary is written, with the sizes as JSON integers
    for path in tmp_path.glob("*/summary.json"):
        summary = json.loads(path.read_text())
        assert (summary["nelx"], summary["nely"], summary["seed"]) == (6, 3, 0)
    assert len(list(tmp_path.glob("*/summary.json"))) == 3


# the method's constants: no config key or case field sets them
CONSTANTS = {
    "alpha_max": 100.0,
    "learning_rate": 0.01,
    "gamma_max": 50.0,
    "ramp_fraction": 0.15,
    "fourier_scale": 1.5,
    "filter_epsilon": 1e-4,
    "filter_sharpness": 40.0,
    "penal": 3.0,
    "stress_exponent": 8.0,
}


@pytest.mark.parametrize("key", sorted(CONSTANTS))
def test_method_constants_are_not_config_keys(tmp_path, capsys, key):
    cfg = tmp_path / "constant.cfg"
    cfg.write_text(f"case = tip_cantilever\niters = 1\n{key} = {CONSTANTS[key]}\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(TypeError):
        cli.preset("tip_cantilever", **{key: CONSTANTS[key]})


def test_checkpoint_holds_the_returned_iterates_network(tmp_path):
    # the best iterate of this run is not the last, so the weights after the
    # final Adam step would predict another blueprint
    from topofield import neuralfield as nf
    from topofield import optimizer as opt
    from topofield.amfilter import apply_passive
    from topofield.meshgraph import fourier_encode, normalize_centroids

    case = cli.preset("simply_supported", nelx=12, nely=5, iterations=60,
                      fourier_m=8, hidden_widths=(16,), load_scale=0.25, seed=1)
    result = tf.run_optimization(case)
    assert result.best_iteration < case.iterations
    run_dir = cli._write_artifacts(case, result, tmp_path)["out_dir"]
    layers = checkpoint_layers(Path(run_dir) / "weights.ckpt")
    mesh = tf.build_mesh(case.nelx, case.nely)
    features = fourier_encode(
        normalize_centroids(mesh), case.fourier_m, case.fourier_scale, opt.FOURIER_SEED
    )
    graph = tf.build_element_graph(mesh)
    t = tf.Tape()
    b = nf.predict_blueprint(features, graph, nf.leaf_parameters(t, layers))
    _fixed, _f, passive = case.build_problem(mesh)
    rebuilt = DensityField.from_flat(apply_passive(b, passive).value, case.nelx, case.nely)
    assert np.array_equal(rebuilt.values, result.blueprint.values)


def test_summary_states_the_last_iterate(tmp_path):
    # the returned iterate is the best one; a run that ends elsewhere, such as
    # one that collapses after it, shows that in its summary
    case = cli.preset("simply_supported", nelx=12, nely=5, iterations=60,
                      fourier_m=8, hidden_widths=(16,), load_scale=0.25, seed=1)
    result = tf.run_optimization(case)
    assert result.best_iteration < len(result.record)
    summary = cli._write_artifacts(case, result, tmp_path)
    assert summary["last_compliance"] == result.record.compliance[-1]
    assert summary["last_volfrac"] == result.record.volfrac[-1]
    assert summary["last_compliance"] != summary["final_compliance"]


def test_checkpoint_round_trips_through_the_run_artifacts(tmp_path):
    from topofield import neuralfield as nf

    case = cli.preset("tip_cantilever", nelx=6, nely=3, iterations=3,
                      fourier_m=4, hidden_widths=(5, 4))
    result = tf.run_optimization(case)
    run_dir = cli._write_artifacts(case, result, tmp_path)["out_dir"]
    layers = checkpoint_layers(Path(run_dir) / "weights.ckpt")
    saved = nf.parameter_arrays(result.parameters)
    loaded = nf.parameter_arrays(layers)
    assert [a.shape for a in loaded] == [a.shape for a in saved]
    for a, b in zip(saved, loaded):
        assert b.dtype == np.float64
        assert a.tobytes() == b.tobytes()


def test_readme_documents_every_run_flag_and_config_key():
    # README's table of keys states each row of cli.SETTINGS: its flag, the
    # field it sets and its legal values; it lists every key and no other
    import re

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = {
        row.group(1): row.group(2, 3, 4)
        for row in re.finditer(r"^\| `(\w+)` +\| (\S*) +\| (\S*) +\| (.*?) +\|$", readme, re.M)
    }
    assert sorted(documented) == sorted(cli.CONFIG_KEYS)
    for setting in cli.SETTINGS:
        flag = f"`--{setting.key.replace('_', '-')}`"
        assert documented[setting.key] == (flag, f"`{setting.field}`", setting.rule), setting.key
    assert documented["case"][:2] == ("`--case`", "`name`")
    assert documented["out_dir"][0] == "`--out-dir`"
    assert "--config FILE" in readme
    # its paragraph of constants states the value each one holds
    paragraph = readme.split("The method's constants", 1)[1].split("\n\n", 1)[0]
    stated = dict(re.findall(r"`(\w+) = ([^`]+)`", paragraph))
    assert sorted(stated) == sorted(CONSTANTS)
    for name, text in stated.items():
        assert float(text) == getattr(cli.BenchmarkCase, name), name


PYTHON_ONLY_FIELDS = ("name", "hidden_widths")


def test_every_case_field_is_a_setting_or_set_from_python_only():
    # a field added to BenchmarkCase needs a row of cli.SETTINGS, with its
    # key and legal range, or a place on the short list of fields that only
    # Python callers set
    fields = [f.name for f in dataclasses.fields(cli.BenchmarkCase)]
    rows = [setting.field for setting in cli.SETTINGS]
    assert len(fields) == 12
    assert len(set(rows)) == len(rows)
    assert set(rows) <= set(fields)
    assert sorted(rows + list(PYTHON_ONLY_FIELDS)) == sorted(fields)
    assert list(cli.CONFIG_KEYS) == ["case", *(setting.key for setting in cli.SETTINGS), "out_dir"]
    # compare sets these three itself, per run
    assert sorted(set(cli.CONFIG_KEYS) - set(cli.COMPARE_KEYS)) == ["filter", "seed", "stress"]
    # the random config files below draw every key but the output directory
    assert sorted(_LEGAL) == sorted(set(cli.CONFIG_KEYS) - {"out_dir"})
    case = cli.preset("simply_supported")
    for setting in cli.SETTINGS:
        assert setting.legal(getattr(case, setting.field)), setting.key
        assert not setting.legal(math.nan), setting.key


def test_config_rejects_a_key_given_twice(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("seed = 1\nnelx = 6\nseed = 2\n")
    with pytest.raises(cli.ConfigError, match=r"twice\.cfg:3: duplicate key 'seed'"):
        cli.load_config(cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "twice.cfg:3: duplicate key 'seed'" in capsys.readouterr().err
    assert not out.exists()


_EDGES = (0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e300, 1.7e308)
_LEGAL = {
    "case": st.sampled_from(cli.BENCHMARK_NAMES),
    "nelx": st.integers(1, 8),
    "nely": st.integers(1, 4),
    "volfrac": st.floats(0.05, 0.95),
    "filter": st.sampled_from(("on", "off")),
    "stress": st.sampled_from(("on", "off")),
    "sigma_allow": st.floats(0.1, 10.0),
    "iters": st.integers(1, 2),
    "seed": st.integers(0, 2**32),
    "load_scale": st.floats(0.01, 10.0),
    "fourier_m": st.integers(1, 16),
}


def _config_value(key):
    legal = _LEGAL[key]
    if key in ("case", "filter", "stress"):
        return legal
    if key in ("nelx", "nely", "iters", "seed", "fourier_m"):
        # integer keys: their legal draws keep the mesh, the run and the
        # network small, and the edges are 0 and -1
        return st.one_of(legal, st.sampled_from((0, -1)))
    return st.one_of(legal, st.sampled_from(_EDGES))


@st.composite
def _config_files(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_LEGAL)), unique=True))
    values = {key: draw(_config_value(key)) for key in keys}
    # the defaults are a 60x20 mesh, 600 iterations and 64 Fourier pairs
    for key, small in (("nelx", 8), ("nely", 4), ("iters", 2), ("fourier_m", 16)):
        values.setdefault(key, small)
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def _reject_constant(name):
    raise AssertionError(f"summary holds {name}")


@settings(max_examples=80, deadline=None)
@given(_config_files())
@example("case = tip_cantilever\nnelx = 6\nnely = 3\niters = 2\nfourier_m = 0\n")
@example("case = simply_supported\nnelx = 2\nnely = 1\niters = 1\nfourier_m = 4\n")
@example("case = tip_cantilever\nnelx = 6\nnely = 3\niters = 2\nfourier_m = 4\nload_scale = 1e300\n")
def test_random_config_files_run_or_exit_cleanly(text):
    # every config file ends in a summary, a usage error before any run
    # directory, or a failed run; none ends in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "random.cfg"
        cfg.write_text(text)
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["run", "--config", str(cfg), "--out-dir", str(out)])
        if code == 0:
            # strict JSON: the literals NaN and Infinity are not JSON
            summary = json.loads(stdout.getvalue(), parse_constant=_reject_constant)
            on_disk = (Path(summary["out_dir"]) / "summary.json").read_text()
            assert json.loads(on_disk, parse_constant=_reject_constant) == summary
        elif code == 2:
            assert stderr.getvalue().startswith("error:")
            assert not out.exists()
        else:
            assert code == 3, (code, stderr.getvalue())
            assert stderr.getvalue().startswith("run failed:")
            assert not out.exists()
