"""Benchmark presets, run configuration, artifact export, and the command line.

Three presets reproduce the beam studies: a simply supported beam under a
distributed bottom-edge load (with a passive solid base layer), a cantilever
loaded at its free tip corner, and a cantilever loaded at the midpoint of the
free edge. Each can run with the overhang filter and the stress constraint
independently toggled; ``compare`` sweeps all three conditions.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .amfilter import DensityField, FilterParams
from .fea import MaterialModel, StressAggregate
from .meshgraph import StructuredMesh, is_integer
from .neuralfield import NetworkConfig, save_parameters
from .optimizer import RUN_FAILURES, AdamState, OptimizationResult, run_optimization

SUMMARY_SCHEMA_VERSION = 1

BENCHMARK_NAMES = ("simply_supported", "tip_cantilever", "mid_cantilever")
CONDITIONS = (("none", False, False), ("filter", True, False), ("filter+stress", True, True))


def _parse_bool(text: str) -> bool:
    if text.lower() in ("on", "true", "1", "yes"):
        return True
    if text.lower() in ("off", "false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected on/off, got {text!r}")


class Setting(NamedTuple):
    """A settable value: its config key, which with - for _ is also its flag,
    the BenchmarkCase field it sets, the parser of its text and its legal
    range (a predicate that NaN fails, and the rule in words)."""

    key: str
    field: str
    parse: Callable[[str], object]
    legal: Callable[[object], bool]
    rule: str


def _positive(x) -> bool:
    return 0.0 < x < math.inf


def _integer_from(lo):
    return lambda x: is_integer(x) and lo <= x


SETTINGS = (
    Setting("nelx", "nelx", int, _integer_from(1), "an integer, at least 1"),
    Setting("nely", "nely", int, _integer_from(1), "an integer, at least 1"),
    Setting("volfrac", "volume_fraction", float, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    Setting("filter", "filter_on", _parse_bool, lambda b: b in (True, False), "on or off"),
    Setting("stress", "stress_on", _parse_bool, lambda b: b in (True, False), "on or off"),
    Setting("sigma_allow", "sigma_allow", float, _positive, "positive and finite"),
    Setting("iters", "iterations", int, _integer_from(1), "an integer, at least 1"),
    Setting("seed", "seed", int, _integer_from(0), "an integer, at least 0"),
    Setting("load_scale", "load_scale", float, _positive, "positive and finite"),
    Setting("fourier_m", "fourier_m", int, _integer_from(1), "an integer, at least 1"),
)


@dataclass
class BenchmarkCase:
    """One optimization run: geometry, supports, loads, and hyperparameters.

    Every field but ``name`` and ``hidden_widths`` is a row of
    :data:`SETTINGS`, which states its config key and legal range. The
    method's constants, the same for every case, are class attributes.
    """

    name: str
    nelx: int = 60
    nely: int = 20
    volume_fraction: float = 0.5
    load_scale: float = 1.0
    filter_on: bool = True
    stress_on: bool = False
    sigma_allow: float = 2.3
    iterations: int = 600
    seed: int = 0
    fourier_m: int = 64
    hidden_widths: tuple = (64, 64)
    # the same for every case
    elem_size: ClassVar[float] = 1.0
    E0: ClassVar[float] = MaterialModel.E0
    Emin: ClassVar[float] = MaterialModel.Emin
    nu: ClassVar[float] = MaterialModel.nu
    penal: ClassVar[float] = MaterialModel.penal
    stress_exponent: ClassVar[float] = StressAggregate.exponent
    filter_epsilon: ClassVar[float] = FilterParams.epsilon
    filter_sharpness: ClassVar[float] = FilterParams.sharpness
    learning_rate: ClassVar[float] = AdamState.learning_rate
    alpha_max: ClassVar[float] = 100.0
    gamma_max: ClassVar[float] = 50.0
    ramp_fraction: ClassVar[float] = 0.15
    fourier_scale: ClassVar[float] = 1.5
    volume_feasible_tol: ClassVar[float] = 0.01
    stress_feasible_tol: ClassVar[float] = 0.02

    def __post_init__(self):
        if self.name not in BENCHMARK_NAMES:
            raise ValueError(f"unknown case {self.name!r}; choose from {', '.join(BENCHMARK_NAMES)}")
        for setting in SETTINGS:
            value = getattr(self, setting.field)
            if not setting.legal(value):
                raise ValueError(f"{setting.key} must be {setting.rule}, got {value!r}")
        if self.name == "simply_supported" and self.nely < 2:
            raise ValueError("simply_supported needs nely >= 2: its bottom layer is passive")
        if self.name == "simply_supported" and self.nelx < 2:
            raise ValueError("simply_supported needs nelx >= 2: at nelx = 1 it loads only supports")
        NetworkConfig((2 * self.fourier_m, *self.hidden_widths, 1))  # checks the widths

    def build_problem(self, mesh: StructuredMesh):
        """Fixed DOFs, load vector, and passive mask for this case.

        Only simply_supported has passive elements: its base layer is solid.
        """
        f = np.zeros(mesh.n_dofs)
        passive = np.zeros(mesh.n_elems)
        if self.name == "simply_supported":
            n_br = mesh.node_id(mesh.nelx, 0)
            fixed = np.array([0, 1, 2 * n_br + 1])  # node 0 pinned, n_br on a roller
            f[1 : 2 * n_br + 2 : 2] = -self.load_scale  # y of every bottom node
            passive[: mesh.nelx] = 1.0
        else:  # the cantilevers: left edge clamped, loaded at the free edge's foot or middle
            left = np.arange(mesh.nely + 1) * (mesh.nelx + 1)
            fixed = np.concatenate([2 * left, 2 * left + 1])
            load_row = 0 if self.name == "tip_cantilever" else mesh.nely // 2
            f[2 * mesh.node_id(mesh.nelx, load_row) + 1] = -self.load_scale
        return np.sort(fixed), f, passive


def preset(name: str, **overrides) -> BenchmarkCase:
    """Benchmark preset by name with keyword overrides."""
    return BenchmarkCase(name=name, **overrides)


# ---------------------------------------------------------------------------
# configuration file


class ConfigError(ValueError):
    pass


def _parse_seeds(text: str) -> list[int]:
    """A comma-separated list of one or more distinct non-negative seeds."""
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if min(seeds) < 0 or len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"expected distinct non-negative seeds, got {text!r}")
    return seeds


def _parse_case(text: str) -> str:
    if text not in BENCHMARK_NAMES:
        raise argparse.ArgumentTypeError(f"expected one of {', '.join(BENCHMARK_NAMES)}, got {text!r}")
    return text


# the rows' keys, and the two no row holds: the preset's name and the
# directory that receives the run directories
CONFIG_KEYS = {"case": _parse_case, **{s.key: s.parse for s in SETTINGS}, "out_dir": str}
# compare sets the seed and both switches itself, from --seeds and CONDITIONS
COMPARE_KEYS = {k: v for k, v in CONFIG_KEYS.items() if k not in ("seed", "filter", "stress")}


def load_config(path, keys=CONFIG_KEYS) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = keys[key](val)
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {err}") from err
    return values


def case_from_options(options: dict) -> BenchmarkCase:
    """Build a case from config-file keys (already typed)."""
    overrides = {s.field: options[s.key] for s in SETTINGS if s.key in options}
    return preset(options.get("case", "simply_supported"), **overrides)


# ---------------------------------------------------------------------------
# density exports


def export_density(field: DensityField, fmt: str, path, elem_size: float = 1.0) -> Path:
    """Write the density grid as pgm (8-bit, 255 = solid, top layer first),
    csv (nely rows x nelx columns, 6 decimals, top layer first), or legacy
    ASCII vtk structured points with one CELL_DATA scalar named density and
    grid spacing ``elem_size``."""
    path = Path(path)
    grid = field.values
    if not (grid.min() >= -1e-9 and grid.max() <= 1.0 + 1e-9):  # NaN fails
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


# ---------------------------------------------------------------------------
# run / compare drivers


def run_case(case: BenchmarkCase, out_root) -> dict:
    """Execute one optimization and write its artifact set.

    Artifacts: density image (pgm), density csv + vtk, convergence csv,
    network checkpoint, and a versioned JSON summary. Returns the summary.
    The run directory is made only once the run has returned.
    """
    return _write_artifacts(case, run_optimization(case), out_root)


def _write_artifacts(case: BenchmarkCase, result: OptimizationResult, out_root) -> dict:
    """Write one run's artifact set into a new directory under ``out_root``,
    named by time, case, condition and seed."""
    out_root = Path(out_root)
    stem = time.strftime("%Y%m%d-%H%M%S") + f"-{case.name}-{_condition_label(case)}-s{case.seed}"
    # made atomically, so a run that starts alongside takes the next name
    run_dir, counter = out_root / stem, 0
    while True:
        summary = _summary(case, result, run_dir)
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
        try:
            run_dir.mkdir(parents=True)
            break
        except FileExistsError:
            counter += 1
            run_dir = out_root / f"{stem}.{counter}"

    result.record.to_csv(run_dir / "convergence.csv")
    export_density(result.printed, "pgm", run_dir / "density.pgm")
    export_density(result.printed, "csv", run_dir / "density.csv")
    export_density(result.printed, "vtk", run_dir / "density.vtk", case.elem_size)
    export_density(result.blueprint, "csv", run_dir / "blueprint.csv")
    save_parameters(run_dir / "weights.ckpt", result.parameters)
    (run_dir / "summary.json").write_text(text)
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
        # a numpy scalar is legal, but not JSON
        "nelx": int(case.nelx),
        "nely": int(case.nely),
        "volume_fraction_target": float(case.volume_fraction),
        "sigma_allow": float(case.sigma_allow),
        "load_scale": float(case.load_scale),
        "seed": int(case.seed),
        "iterations": len(result.record),
        "best_iteration": result.best_iteration,
        "best_feasible": result.best_feasible,
        "final_compliance": result.final_compliance,
        "final_volfrac": result.final_volfrac,
        "final_sigma_pn": result.final_sigma_pn,
        "last_compliance": result.record.compliance[-1],
        "last_volfrac": result.record.volfrac[-1],
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
    results: dict  # (condition, seed) -> OptimizationResult of each finished run
    errors: dict  # (condition, seed) -> str of each failed run

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

        def row(head, values, missing) -> str:
            cells = (missing if v is None else f"{v:.6g}" for v in values)
            return str(head).ljust(6) + "".join(cell.ljust(16) for cell in cells)

        header = "seed".ljust(6) + "".join(label.ljust(16) for label in labels) + "ordering"
        lines = [f"case: {self.case_name}", header]
        for seed in self.seeds:
            ok = self.ordering_ok(seed)
            mark = "n/a" if ok is None else ("ok" if ok else "VIOLATED")
            lines.append(row(seed, [self._compliance(c, seed) for c in labels], "failed") + mark)
        lines.append(row("mean", [self.mean(c) for c in labels], "n/a"))
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        """One row per run: the repr of its C, volume fraction and sigma_PN,
        its best iteration and whether that was feasible, or its error."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["seed", "condition", "compliance", "volfrac", "sigma_pn",
                          "best_iteration", "best_feasible", "error"])
            for seed in self.seeds:
                for label, _f, _s in CONDITIONS:
                    r = self.results.get((label, seed))
                    cells = [""] * 5 if r is None else [
                        repr(r.final_compliance), repr(r.final_volfrac),
                        repr(r.final_sigma_pn), r.best_iteration, r.best_feasible]
                    out.writerow([seed, label, *cells, self.errors.get((label, seed), "")])


def compare_benchmark(case: BenchmarkCase, seeds, out_root=None) -> ComparisonResult:
    """Run all three conditions per seed. One of ``RUN_FAILURES`` marks its
    run's row and the sweep goes on; any other exception stops it. With
    ``out_root`` each run also writes its artifact set there."""
    results, errors = {}, {}
    for seed in seeds:
        for label, filt, stress in CONDITIONS:
            run = dataclasses.replace(case, seed=seed, filter_on=filt, stress_on=stress)
            try:
                results[(label, seed)] = result = run_optimization(run)
            except RUN_FAILURES as err:
                errors[(label, seed)] = str(err)
                continue
            if out_root is not None:
                _write_artifacts(run, result, out_root)
    return ComparisonResult(case.name, list(seeds), results, errors)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common_flags(parser: argparse.ArgumentParser, keys=CONFIG_KEYS) -> argparse.ArgumentParser:
    parser.add_argument("--config", type=str, help="key = value configuration file")
    rules = {"case": "one of " + ", ".join(BENCHMARK_NAMES), **{s.key: s.rule for s in SETTINGS}}
    for key, parse in keys.items():  # each flag parses as its config key does
        parser.add_argument("--" + key.replace("_", "-"), type=parse, dest=key, help=rules.get(key))
    parser.set_defaults(keys=keys)
    return parser


def _case_from_args(args) -> tuple[BenchmarkCase, str]:
    """Config-file values, then the flags given on the command line over them."""
    options = load_config(args.config, args.keys) if args.config else {}
    options.update({k: v for k, v in vars(args).items() if k in args.keys and v is not None})
    return case_from_options(options), options.get("out_dir", "runs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="topofield",
        description="Graph-neural-field topology optimization with printability and stress control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no flag's prefix stands for it, so compare cannot read --seed as --seeds
    _add_common_flags(sub.add_parser("run", help="run one benchmark condition", allow_abbrev=False))
    cmp_p = sub.add_parser("compare", help="run all three conditions per seed", allow_abbrev=False)
    _add_common_flags(cmp_p, COMPARE_KEYS)
    cmp_p.add_argument("--seeds", type=_parse_seeds, default="0,1,2", help="comma-separated seeds")

    args, extra = parser.parse_known_args(argv)
    if extra:  # reported with the usage of the subcommand that does not take them
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        case, out_dir = _case_from_args(args)
        # an output root that cannot be a directory fails here, before any run
        out_root = Path(out_dir)
        made = [path for path in (out_root, *out_root.parents) if not path.exists()]
        out_root.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as err:  # a ConfigError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.command == "run":
        try:
            summary = run_case(case, out_root)
        except RUN_FAILURES as err:
            for path in made:  # a failed run leaves no directory behind
                path.rmdir()
            print(f"run failed: {err}", file=sys.stderr)
            return 3
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    comparison = compare_benchmark(case, args.seeds, out_root)
    print(comparison.render())
    comparison.to_csv(out_root / f"comparison-{case.name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
