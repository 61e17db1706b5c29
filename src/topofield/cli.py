"""Benchmark presets, run configuration, artifact export, and the command line.

Three presets reproduce the beam studies: a simply supported beam under a
distributed bottom-edge load (with a passive solid base layer), a cantilever
loaded at its free tip corner, and a cantilever loaded at the midpoint of the
free edge. Each can run with the overhang filter and the stress constraint
independently toggled; ``compare`` sweeps all three conditions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .amfilter import DensityField, FilterParams
from .autodiff import SolverFailureError
from .meshgraph import StructuredMesh
from .neuralfield import save_parameters
from .optimizer import RUN_FAILURES, OptimizationResult, run_optimization

SUMMARY_SCHEMA_VERSION = 1

BENCHMARK_NAMES = ("simply_supported", "tip_cantilever", "mid_cantilever")
CONDITIONS = (("none", False, False), ("filter", True, False), ("filter+stress", True, True))


@dataclass
class BenchmarkCase:
    """One optimization run: geometry, supports, loads, and hyperparameters."""

    name: str
    nelx: int = 60
    nely: int = 20
    elem_size: float = 1.0
    volume_fraction: float = 0.5
    load_scale: float = 1.0
    filter_on: bool = True
    stress_on: bool = False
    sigma_allow: float = 2.3
    iterations: int = 600
    seed: int = 0
    learning_rate: float = 0.01
    alpha_start: float = 100.0
    alpha_max: float = 100.0
    gamma_max: float = 50.0
    ramp_fraction: float = 0.15
    fourier_m: int = 64
    fourier_scale: float = 1.5
    hidden_widths: tuple = (64, 64)
    cheb_order: int = 1
    filter_epsilon: float = 1e-4
    filter_sharpness: float = 40.0
    E0: float = 1.0
    Emin: float = 1e-9
    nu: float = 0.3
    penal: float = 3.0
    stress_exponent: float = 8.0
    volume_feasible_tol: float = 0.01
    stress_feasible_tol: float = 0.02

    def __post_init__(self):
        # the continuation sharpens geometrically from FILTER_SHARPNESS_START to
        # filter_sharpness, so a legal target makes every step legal
        FilterParams(self.filter_epsilon, self.filter_sharpness)

    def build_problem(self, mesh: StructuredMesh):
        """Fixed DOFs, load vector, and passive mask for this case.

        Only simply_supported has passive elements: its base layer is solid.
        """
        f = np.zeros(mesh.n_dofs)
        passive = np.zeros(mesh.n_elems)
        if self.name == "simply_supported":
            n_bl = mesh.node_id(0, 0)
            n_br = mesh.node_id(mesh.nelx, 0)
            fixed = np.array([2 * n_bl, 2 * n_bl + 1, 2 * n_br + 1])
            bottom_nodes = np.array([mesh.node_id(j, 0) for j in range(mesh.nelx + 1)])
            f[2 * bottom_nodes + 1] = -self.load_scale
            passive[: mesh.nelx] = 1.0
        elif self.name == "tip_cantilever":
            left = np.array([mesh.node_id(0, i) for i in range(mesh.nely + 1)])
            fixed = np.concatenate([2 * left, 2 * left + 1])
            f[2 * mesh.node_id(mesh.nelx, 0) + 1] = -self.load_scale
        elif self.name == "mid_cantilever":
            left = np.array([mesh.node_id(0, i) for i in range(mesh.nely + 1)])
            fixed = np.concatenate([2 * left, 2 * left + 1])
            f[2 * mesh.node_id(mesh.nelx, mesh.nely // 2) + 1] = -self.load_scale
        else:
            raise ValueError(f"unknown benchmark case {self.name!r}")
        return np.sort(fixed), f, passive


def preset(name: str, **overrides) -> BenchmarkCase:
    """Benchmark preset by name with keyword overrides."""
    if name not in BENCHMARK_NAMES:
        raise ValueError(f"unknown case {name!r}; choose from {', '.join(BENCHMARK_NAMES)}")
    return BenchmarkCase(name=name, **overrides)


# ---------------------------------------------------------------------------
# configuration file


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    if text.lower() in ("on", "true", "1", "yes"):
        return True
    if text.lower() in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


def _parse_case(text: str) -> str:
    if text not in BENCHMARK_NAMES:
        raise ValueError(f"expected one of {', '.join(BENCHMARK_NAMES)}, got {text!r}")
    return text


CONFIG_KEYS = {
    "case": _parse_case,
    "nelx": int,
    "nely": int,
    "volfrac": float,
    "filter": _parse_bool,
    "stress": _parse_bool,
    "sigma_allow": float,
    "iters": int,
    "seed": int,
    "load_scale": float,
    "learning_rate": float,
    "alpha_max": float,
    "gamma_max": float,
    "ramp_fraction": float,
    "fourier_m": int,
    "fourier_scale": float,
    "filter_epsilon": float,
    "filter_sharpness": float,
    "penal": float,
    "stress_exponent": float,
    "out_dir": str,
}

_FIELD_FOR_KEY = {
    "volfrac": "volume_fraction",
    "filter": "filter_on",
    "stress": "stress_on",
    "iters": "iterations",
}


def load_config(path) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](val)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {err}") from err
    return values


def case_from_options(options: dict) -> BenchmarkCase:
    """Build a case from config-file keys (already typed)."""
    name = options.get("case", "simply_supported")
    overrides = {}
    for key, value in options.items():
        if key in ("case", "out_dir"):
            continue
        overrides[_FIELD_FOR_KEY.get(key, key)] = value
    return preset(name, **overrides)


# ---------------------------------------------------------------------------
# density exports


def export_density(field: DensityField, fmt: str, path, elem_size: float = 1.0) -> Path:
    """Write the density grid as pgm (8-bit, 255 = solid, top layer first),
    csv (nely rows x nelx columns, 6 decimals, top layer first), or legacy
    ASCII vtk structured points with one CELL_DATA scalar named density and
    grid spacing ``elem_size``."""
    path = Path(path)
    grid = field.values
    if grid.min() < -1e-9 or grid.max() > 1.0 + 1e-9:
        raise ValueError("density values must lie in [0, 1]")
    grid = np.clip(grid, 0.0, 1.0)
    if fmt == "pgm":
        pixels = np.rint(np.flipud(grid) * 255.0).astype(np.uint8)
        with open(path, "wb") as fh:
            fh.write(f"P5\n{field.nelx} {field.nely}\n255\n".encode())
            fh.write(pixels.tobytes())
    elif fmt == "csv":
        np.savetxt(path, np.flipud(grid), fmt="%.6f", delimiter=",")
    elif fmt == "vtk":
        with open(path, "w") as fh:
            fh.write("# vtk DataFile Version 3.0\n")
            fh.write("topofield density field\n")
            fh.write("ASCII\nDATASET STRUCTURED_POINTS\n")
            fh.write(f"DIMENSIONS {field.nelx + 1} {field.nely + 1} 1\n")
            fh.write(f"ORIGIN 0 0 0\nSPACING {elem_size:.15g} {elem_size:.15g} 1\n")
            fh.write(f"CELL_DATA {grid.size}\n")
            fh.write("SCALARS density double 1\nLOOKUP_TABLE default\n")
            flat = grid.ravel()
            for start in range(0, flat.size, 8):
                fh.write(" ".join(f"{v:.6f}" for v in flat[start:start + 8]) + "\n")
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    return path


def import_density_csv(path, kind: str = "printed") -> DensityField:
    grid = np.atleast_2d(np.loadtxt(path, delimiter=","))
    return DensityField(np.flipud(grid), kind=kind)


# ---------------------------------------------------------------------------
# run / compare drivers


def run_case(case: BenchmarkCase, out_root, run_name: str | None = None) -> dict:
    """Execute one optimization and write its artifact set.

    Artifacts: density image (pgm), density csv + vtk, convergence csv,
    network checkpoint, and a versioned JSON summary. Returns the summary.
    The run directory is made only once the run has returned.
    """
    return _write_artifacts(case, run_optimization(case), out_root, run_name)


def _write_artifacts(
    case: BenchmarkCase, result: OptimizationResult, out_root, run_name: str | None = None
) -> dict:
    """Write one run's artifact set into a new directory under ``out_root``
    (named by time, case, condition and seed unless ``run_name`` is given)."""
    out_root = Path(out_root)
    if run_name is None:
        condition = _condition_label(case)
        run_name = time.strftime("%Y%m%d-%H%M%S") + f"-{case.name}-{condition}-s{case.seed}"
        run_dir = out_root / run_name
        counter = 1
        while run_dir.exists():
            run_dir = out_root / f"{run_name}.{counter}"
            counter += 1
    else:
        run_dir = out_root / run_name
    run_dir.mkdir(parents=True, exist_ok=True)

    result.record.to_csv(run_dir / "convergence.csv")
    export_density(result.printed, "pgm", run_dir / "density.pgm")
    export_density(result.printed, "csv", run_dir / "density.csv")
    export_density(result.printed, "vtk", run_dir / "density.vtk", case.elem_size)
    export_density(result.blueprint, "csv", run_dir / "blueprint.csv")
    save_parameters(run_dir / "weights.ckpt", result.parameters)
    summary = _summary(case, result, run_dir)
    with open(run_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _condition_label(case: BenchmarkCase) -> str:
    """The run's condition: none, filter, stress or filter+stress."""
    parts = [name for name, on in (("filter", case.filter_on), ("stress", case.stress_on)) if on]
    return "+".join(parts) or "none"


def _summary(case: BenchmarkCase, result: OptimizationResult, run_dir: Path) -> dict:
    return {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "case": case.name,
        "condition": _condition_label(case),
        "nelx": case.nelx,
        "nely": case.nely,
        "volume_fraction_target": case.volume_fraction,
        "sigma_allow": case.sigma_allow,
        "load_scale": case.load_scale,
        "seed": case.seed,
        "iterations": len(result.record),
        "best_iteration": result.best_iteration,
        "best_feasible": result.best_feasible,
        "final_compliance": result.final_compliance,
        "final_volfrac": result.final_volfrac,
        "final_sigma_pn": result.final_sigma_pn,
        "aborted": result.aborted,
        "abort_reason": result.abort_reason,
        "wall_time_seconds": result.wall_time,
        "out_dir": str(run_dir),
    }


@dataclass
class ComparisonResult:
    """The runs of the three conditions for each seed."""

    case_name: str
    seeds: list
    results: dict  # (condition, seed) -> OptimizationResult, or None if it failed
    errors: dict  # (condition, seed) -> str

    def _compliance(self, condition: str, seed: int) -> float | None:
        result = self.results.get((condition, seed))
        return None if result is None else result.final_compliance

    def ordering_ok(self, seed: int) -> bool | None:
        vals = [self._compliance(label, seed) for label, _f, _s in CONDITIONS]
        if any(v is None for v in vals):
            return None
        return vals[0] <= vals[1] <= vals[2]

    def mean(self, condition: str) -> float | None:
        vals = [self._compliance(condition, s) for s in self.seeds]
        vals = [v for v in vals if v is not None]
        return float(np.mean(vals)) if vals else None

    def render(self) -> str:
        labels = [label for label, _f, _s in CONDITIONS]
        widths = max(len(label) for label in labels) + 2
        lines = [f"case: {self.case_name}"]
        header = "seed".ljust(6) + "".join(label.ljust(max(widths, 16)) for label in labels)
        lines.append(header + "ordering")
        for seed in self.seeds:
            cells = []
            for label in labels:
                val = self._compliance(label, seed)
                cells.append(("failed" if val is None else f"{val:.6g}").ljust(max(widths, 16)))
            ok = self.ordering_ok(seed)
            mark = "n/a" if ok is None else ("ok" if ok else "VIOLATED")
            lines.append(str(seed).ljust(6) + "".join(cells) + mark)
        cells = []
        for label in labels:
            mean = self.mean(label)
            cells.append(("n/a" if mean is None else f"{mean:.6g}").ljust(max(widths, 16)))
        lines.append("mean".ljust(6) + "".join(cells))
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("seed,condition,compliance,error\n")
            for seed in self.seeds:
                for label, _f, _s in CONDITIONS:
                    val = self._compliance(label, seed)
                    err = self.errors.get((label, seed), "")
                    fh.write(f"{seed},{label},{'' if val is None else repr(val)},{err}\n")


def compare_benchmark(case: BenchmarkCase, seeds, out_root=None) -> ComparisonResult:
    """Run all three conditions per seed; failures mark the row and continue.

    With ``out_root`` each run also writes its artifact set there.
    """
    results: dict = {}
    errors: dict = {}
    for seed in seeds:
        for label, filt, stress in CONDITIONS:
            run = dataclasses.replace(case, seed=seed, filter_on=filt, stress_on=stress)
            try:
                result = run_optimization(run)
                if out_root is not None:
                    _write_artifacts(run, result, out_root)
            except (RuntimeError, *RUN_FAILURES) as err:
                result = None
                errors[(label, seed)] = str(err)
            results[(label, seed)] = result
    return ComparisonResult(case.name, list(seeds), results, errors)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--case", choices=BENCHMARK_NAMES)
    parser.add_argument("--config", type=str, help="key = value configuration file")
    parser.add_argument("--nelx", type=int)
    parser.add_argument("--nely", type=int)
    parser.add_argument("--volfrac", type=float)
    parser.add_argument("--filter", choices=("on", "off"))
    parser.add_argument("--stress", choices=("on", "off"))
    parser.add_argument("--sigma-allow", type=float, dest="sigma_allow")
    parser.add_argument("--iters", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--load-scale", type=float, dest="load_scale")
    parser.add_argument("--out-dir", type=str, dest="out_dir")


def _case_from_args(args) -> tuple[BenchmarkCase, str]:
    """Config-file values, then the flags given on the command line over them."""
    options = load_config(args.config) if args.config else {}
    for key, parse in CONFIG_KEYS.items():
        value = getattr(args, key, None)
        if value is not None:
            options[key] = parse(value)
    return case_from_options(options), options.get("out_dir", "runs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="topofield",
        description="Graph-neural-field topology optimization with printability and stress control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one benchmark condition")
    _add_common_flags(run_p)

    cmp_p = sub.add_parser("compare", help="run all three conditions per seed")
    _add_common_flags(cmp_p)
    cmp_p.add_argument("--seeds", type=str, default="0,1,2", help="comma-separated seeds")

    args = parser.parse_args(argv)
    try:
        case, out_dir = _case_from_args(args)
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.command == "run":
        try:
            summary = run_case(case, out_dir)
        except SolverFailureError as err:
            print(f"solver failure: {err}", file=sys.stderr)
            return 3
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    comparison = compare_benchmark(case, seeds, out_dir)
    print(comparison.render())
    out_root = Path(out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    comparison.to_csv(out_root / f"comparison-{case.name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
