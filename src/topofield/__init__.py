"""Differentiable graph-neural-field topology optimization for printable,
stress-constrained structures."""

from . import amfilter, autodiff, cli, fea, meshgraph, neuralfield, optimizer
from .amfilter import DensityField, FilterParams, apply_filter, apply_filter_exact
from .autodiff import DiffValue, Gradients, NumericDomainError, Tape
from .cli import BenchmarkCase, compare_benchmark, export_density, preset, run_case
from .fea import MaterialModel, SolverFailureError, StressAggregate, assemble_and_solve, compliance
from .meshgraph import build_element_graph, build_mesh, fourier_encode
from .neuralfield import NetworkConfig, init_parameters, predict_blueprint
from .optimizer import AdamState, ConvergenceRecord, LossSpec, run_optimization

__version__ = "0.1.0"

__all__ = [
    "amfilter",
    "autodiff",
    "cli",
    "fea",
    "meshgraph",
    "neuralfield",
    "optimizer",
    "DensityField",
    "FilterParams",
    "apply_filter",
    "apply_filter_exact",
    "DiffValue",
    "Gradients",
    "NumericDomainError",
    "SolverFailureError",
    "Tape",
    "BenchmarkCase",
    "compare_benchmark",
    "export_density",
    "preset",
    "run_case",
    "MaterialModel",
    "StressAggregate",
    "assemble_and_solve",
    "compliance",
    "build_element_graph",
    "build_mesh",
    "fourier_encode",
    "NetworkConfig",
    "init_parameters",
    "predict_blueprint",
    "AdamState",
    "ConvergenceRecord",
    "LossSpec",
    "run_optimization",
]
