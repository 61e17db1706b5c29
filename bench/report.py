"""The metrics a run prints, by name and unit."""

from __future__ import annotations

import numpy as np

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "iter_ms": "ms",
    "peak_rss_mb": "MB",
    "compliance": "1",
}


def layer_unit(name: str) -> str:
    return "ms" if name.endswith("_ms") else "count"


def end_to_end(ops: list, setups: list) -> dict:
    """Medians over the run's checked operations and its set-up probes."""
    values = {
        "run_s": np.median([op["run_s"] for op in ops]),
        "setup_s": np.median(setups),
        "iter_ms": np.median([op["iter_ms"] for op in ops]),
        "peak_rss_mb": np.median([op["peak_rss_mb"] for op in ops]),
        "compliance": np.median([op["compliance"] for op in ops]),
    }
    return {k: {"value": float(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(layer_runs: list) -> dict:
    """Median over operations of each per-layer metric of :func:`tracing.layer_metrics`."""
    names = sorted({k for run in layer_runs for k in run})
    return {
        name: {
            "value": float(np.median([run[name] for run in layer_runs if name in run])),
            "unit": layer_unit(name),
        }
        for name in names
    }
