"""Every function in ``src/topofield`` is entered by the commands, apart from
a listed few, each kept for a reader outside them.

A fresh interpreter sets ``sys.setprofile`` before importing the package and
runs ``python -m topofield`` four times on a 6x3 grid: ``run`` by flags with
the filter and the stress limit on, ``run --config``, ``compare`` and a run
that fails before its first iteration. A function the package defines is
entered when its code object starts a frame; a function no command enters
either has a reader named in ``NEVER_ENTERED`` or goes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "topofield"

# module.qualname of each function no command enters -> its reader
NEVER_ENTERED = {
    "amfilter.smooth_min": "the smooth filter's defining formula, composed by "
                           "conftest.composed_filter",
    "amfilter._sqrt": "smooth_min's square root",
    "amfilter.smooth_max": "gate criteria 2, 3 and 7, and conftest.composed_filter",
    "amfilter._pow": "smooth_max's powers",
    "amfilter.apply_filter_exact": "gate criteria 2, 3 and 7",
    "amfilter._exact_support": "the exact support rule of apply_filter_exact and "
                               "overhang_violations",
    "amfilter.overhang_violations": "gate criterion 5",
    "amfilter.DensityField.flat": "bench checks and bench tests",
    "autodiff.matmul.<locals>.<lambda>": "the right operand's VJP: conftest.composed_blueprint "
                                         "differentiates its weights through matmul",
    "autodiff.sigmoid": "conftest.composed_blueprint's head",
    "autodiff.sigmoid.<locals>.vjp": "conftest.composed_blueprint's head, backward",
    "autodiff.DiffValue.sum": "gate criterion 1",
    "autodiff.DiffValue.__repr__": "a DiffValue shown in a debugger or a failing test",
    "fea.BandCholesky.<lambda>": "BandCholesky.L and .U, read by the bench tracer's factor size",
    "fea.SimpAssembler.K": "gate criteria 1 and 6",
    "fea.BandCholesky.nnz": "the bench tracer's factor size",
    "oracle.<module>": "the package does not import oracle; gate criterion 1 and its tests do",
    "oracle.filter_adjoint_gradient": "gate criterion 1",
    "oracle.compliance_density_gradient": "gate criterion 1",
    "oracle.stress_adjoint_gradient": "gate criterion 1",
    "oracle.finite_difference_gradient": "gate criterion 1",
}

TRACE = r"""
import contextlib, io, json, runpy, sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)  # before runpy imports the package

grid = ["--nelx", "6", "--nely", "3", "--fourier-m", "4"]
with open("run.cfg", "w") as fh:
    fh.write("case = tip_cantilever\nnelx = 6\nnely = 3\nfourier_m = 4\niters = 2\n")
commands = [
    ["run", "--case", "simply_supported", *grid, "--iters", "3", "--filter", "on",
     "--stress", "on", "--out-dir", "flags"],
    ["run", "--config", "run.cfg", "--out-dir", "config"],
    ["compare", "--case", "mid_cantilever", *grid, "--iters", "2", "--seeds", "0",
     "--out-dir", "compare"],
    ["run", "--case", "tip_cantilever", *grid, "--iters", "2", "--load-scale", "1e300",
     "--out-dir", "failed"],
]
codes = []
for args in commands:
    sys.argv = ["topofield", *args]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("topofield", run_name="__main__")
        except SystemExit as done:
            codes.append(done.code)
sys.setprofile(None)
print(json.dumps({
    "codes": codes,
    "entered": [[c.co_filename, c.co_qualname, c.co_firstlineno] for c in entered],
}))
"""


def _defined(path: Path):
    """(file, qualname, first line) of every code object compiled from ``path``."""
    stack, out = [compile(path.read_text(), str(path), "exec")], []
    while stack:
        code = stack.pop()
        out.append((str(path), code.co_qualname, code.co_firstlineno))
        stack.extend(c for c in code.co_consts if hasattr(c, "co_qualname"))
    return out


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects name their scope from 3.11")
def test_every_function_is_entered_by_a_command_or_named_with_its_reader(tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    proc = subprocess.run(
        [sys.executable, "-c", TRACE], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(proc.stdout)
    assert trace["codes"] == [0, 0, 0, 3]
    entered = {tuple(key) for key in trace["entered"]}
    defined = [key for file in sorted(PACKAGE.glob("*.py")) for key in _defined(file)]
    never = {f"{Path(file).stem}.{name}" for file, name, line in defined
             if (file, name, line) not in entered}
    assert never == set(NEVER_ENTERED)
