"""Benchmark of topofield optimization runs, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload beam60 --seed 1 --seconds 10 --trace 0

One operation is one ``run_optimization`` call on the workload's case, made in
a fresh interpreter with BLAS pinned to one thread, so that its peak resident
memory is its own. A run first times set-up in one such interpreter
(``SETUP_PROBES`` one-iteration runs), then repeats whole operations, one at a
time, until ``--seconds`` have passed (at least one). Every result is checked
against the benchmark's own computations (``checks.py``). The last line of
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``; with ``--trace 1``
each operation runs under the tracer of ``tracing.py``, the first also checks
the tape gradient, and the metrics are the per-layer ones. Full results go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 10
# an operation that outlives this is stopped and counted as failed
OPERATION_TIMEOUT_S = 170
# pinned in every operation's interpreter before numpy loads (see README.md)
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
MISSING_PROGRAM = 2
# personality(2) flag: map the operation's interpreter at fixed addresses
ADDR_NO_RANDOMIZE = 0x0040000


class ProgramMissing(RuntimeError):
    """The checkout holds no importable topofield."""


# --- inside an operation's interpreter -------------------------------------


def import_program():
    """Import topofield from this checkout's ``src``; (module, seconds)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import topofield

    seconds = time.perf_counter() - start
    if not Path(topofield.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"topofield imported from {topofield.__file__}, not from {src}")
    return topofield, seconds


def environment(import_s: float) -> dict:
    import platform

    import numpy
    import scipy

    persona = int(Path("/proc/self/personality").read_text(), 16)
    return {
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "fixed_layout": bool(persona & ADDR_NO_RANDOMIZE),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "import_s": import_s,
    }


def timed_run(tf, case):
    """(result, run_s, setup_s) of one ``run_optimization`` call."""
    start = time.perf_counter()
    result = tf.run_optimization(case)
    run_s = time.perf_counter() - start
    return result, run_s, run_s - result.wall_time


def setup_probes(tf, case) -> list:
    """Set-up times of one-iteration runs of ``case``."""
    times = []
    for _ in range(SETUP_PROBES):
        result, _run_s, setup_s = timed_run(tf, case)
        if result.aborted or len(result.record) != 1:
            raise RuntimeError(f"set-up probe stopped short: {result.abort_reason}")
        times.append(setup_s)
    return times


def output_stem(args) -> str:
    """File name stem of a run's dumps in ``bench/out/``."""
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def operation(tf, case, trace: bool, seed: int, stem: str) -> dict:
    """One checked ``run_optimization`` call; traced when ``trace``."""
    import resource

    import checks
    import numpy as np
    import tracing

    if trace:
        start = time.perf_counter()
        result, tracer = tracing.traced_run(
            tf.run_optimization, case, capture=checks.GRADIENT_CAPTURE
        )
        run_s = time.perf_counter() - start
        setup_s = run_s - result.wall_time
    else:
        result, run_s, setup_s = timed_run(tf, case)
    op = {
        "run_s": run_s,
        "setup_s": setup_s,
        "iter_ms": 1e3 * result.wall_time / max(len(result.record), 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iterations": len(result.record),
        "compliance": result.final_compliance,
        "volfrac": result.final_volfrac,
        "sigma_pn": result.final_sigma_pn,
        "problems": checks.check_result(case, result),
    }
    if trace:
        op["layers"] = tracing.layer_metrics(tracer)
        problems, worst = checks.check_gradient(tracer.captured, np.random.default_rng(seed))
        op["gradient_rel_err"] = worst
        op["problems"] += problems
        OUT.mkdir(exist_ok=True)
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracing.dump_spans(tracer)))
    return op


def child_main(args) -> int:
    try:
        tf, import_s = import_program()
    except ImportError as err:
        print(f"cannot import topofield from this checkout: {err}", file=sys.stderr)
        return MISSING_PROGRAM
    import workloads

    overrides = {"iterations": 1} if args.child == "setup" else {}
    case = workloads.make_case(args.workload, args.seed, **overrides)
    try:
        if args.child == "setup":
            out = {"setup_s": setup_probes(tf, case)}
        else:
            out = operation(tf, case, bool(args.trace), args.seed, output_stem(args))
    except Exception:  # reported to the parent, which counts the failure
        out = {"error": traceback.format_exc()}
    out["env"] = environment(import_s)
    out["env"].update(load_scale=case.load_scale, iterations=case.iterations)
    print(json.dumps(out))
    return 0


# --- the run ----------------------------------------------------------------


def _fixed_layout() -> None:
    """Turn off address randomization for the interpreter about to be exec'd.

    With it on, the peak RSS of one workload lands on one of a few values
    about 8% apart from process to process; with it off it repeats.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def spawn(args, role: str) -> dict:
    """Run ``role`` ("setup" or "op") in a fresh interpreter; its JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    env = dict(os.environ, **PINNED_ENV)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=OPERATION_TIMEOUT_S, preexec_fn=_fixed_layout)
    except subprocess.TimeoutExpired:
        return {"error": f"{role} exceeded {OPERATION_TIMEOUT_S} s"}
    sys.stderr.write(proc.stderr)
    if proc.returncode == MISSING_PROGRAM:
        raise ProgramMissing(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{role} exited {proc.returncode}"}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "op"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    import report
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    correct, setups, ops, failures = True, [], [], []
    try:
        if not args.trace:
            probe = spawn(args, "setup")
            if "error" in probe:
                print(probe["error"], file=sys.stderr)
                correct = False
            setups = probe.get("setup_s", [])
        start = time.perf_counter()
        while True:
            op = spawn(args, "op")
            if "error" in op:
                print(op["error"], file=sys.stderr)
                failures.append(op)
            else:
                ops.append(op)
                print(f"op: {json.dumps({k: v for k, v in op.items() if k != 'layers'})}",
                      flush=True)
            if time.perf_counter() - start >= args.seconds:
                break
    except ProgramMissing as err:
        print(f"no program to benchmark: {err}", file=sys.stderr)
        return MISSING_PROGRAM

    checked = [op for op in ops if not op["problems"]]
    correct = correct and len(checked) == len(ops)
    attempted = len(ops) + len(failures)
    if args.trace:
        metrics = report.per_layer([op["layers"] for op in checked])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        absent = [m["name"] for m in spec["per_layer"] if m["name"] not in metrics]
        if absent:
            print(f"absent per-layer metrics: {absent}", file=sys.stderr)
    else:
        metrics = report.end_to_end(checked, setups) if checked and setups else {}
    env = (ops or failures)[0].get("env", {})
    print(f"env: {json.dumps(env)}")

    OUT.mkdir(exist_ok=True)
    dump = {"env": env, "ops": ops, "failures": failures, "setup_s": setups, "metrics": metrics}
    (OUT / f"{output_stem(args)}.json").write_text(json.dumps(dump, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - len(checked), "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
