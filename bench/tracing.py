"""Spans around the calls the optimization loop makes into each layer.

:class:`Tracer` replaces, for the duration of a ``with`` block, the functions
that ``topofield.optimizer`` imported, the ``SimpAssembler`` methods and
``Tape.backward`` with wrappers that record a span per call: name, start, end,
parent, iteration and the tape nodes recorded inside it. Spans stay in memory;
:func:`layer_metrics` reduces them to per-iteration medians after the run.
Iterations are delimited by consecutive ``leaf_parameters`` calls. A name the
program no longer has is skipped, and the metrics built on it are absent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

# functions imported into (or defined in) topofield.optimizer that the loop calls
OPTIMIZER_NAMES = (
    "build_mesh",
    "build_element_graph",
    "normalize_centroids",
    "fourier_encode",
    "point_support_elements",
    "init_parameters",
    "leaf_parameters",
    "parameter_arrays",
    "predict_blueprint",
    "apply_passive",
    "apply_filter",
    "assemble_and_solve",
    "compliance",
    "centroid_stress",
    "p_norm_stress",
    "composite_loss",
    "adam_step",
)
ASSEMBLER_METHODS = ("assemble", "factorize", "solve", "density_vjp")
ITERATION_MARK = "leaf_parameters"
ROOT = "run_optimization"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    iteration: int = 0
    nodes: int = 0
    extra: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records spans while installed; ``capture`` keeps the arguments of the
    first call of each listed name (arrays copied) for a later replay."""

    capture: tuple = ()
    spans: list = field(default_factory=list)
    assemblers_built: int = 0
    installed: set = field(default_factory=set)
    captured: dict = field(default_factory=dict)
    iteration: int = 0
    _stack: list = field(default_factory=list)
    _tape: object = None
    _undo: list = field(default_factory=list)

    def __enter__(self):
        from topofield import autodiff, fea, optimizer

        for name in OPTIMIZER_NAMES:
            self._patch(optimizer, name, name)
        for name in ASSEMBLER_METHODS:
            self._patch(fea.SimpAssembler, name, name)
        self._patch(autodiff.Tape, "backward", "backward")
        init = fea.SimpAssembler.__init__

        def counted_init(obj, *args, **kwargs):
            self.assemblers_built += 1
            init(obj, *args, **kwargs)

        self._undo.append((fea.SimpAssembler, "__init__", init))
        self.installed.add("SimpAssembler")
        fea.SimpAssembler.__init__ = counted_init
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._undo.append((owner, attr, original))
        self.installed.add(name)
        setattr(owner, attr, self.wrap(name, original))

    def wrap(self, name: str, fn):
        """``fn`` wrapped so each call records a span called ``name``."""

        def traced(*args, **kwargs):
            if name == ITERATION_MARK:
                self.iteration += 1
                self._tape = args[0]
            if name in self.capture and name not in self.captured:
                self.captured[name] = _copy_args(args)
            return self.call(name, fn, *args, **kwargs)

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        tape = self._tape
        nodes = len(tape) if tape is not None else 0
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1,
                    iteration=self.iteration)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if tape is not None:
            span.nodes = len(tape) - nodes
        if name == "backward":
            span.extra = float(len(args[0]))
        elif name == "factorize":
            span.extra = _factor_nnz(out)
        if name in self.capture and f"{name}.out" not in self.captured:
            self.captured[f"{name}.out"] = out
        return out


def _copy_args(args):
    """Deep enough a copy that the optimizer's in-place updates leave it be."""
    from topofield.neuralfield import ChebLayerParams

    def copy(a):
        if isinstance(a, list) and a and isinstance(a[0], ChebLayerParams) and all(
            isinstance(x.bias, np.ndarray) for x in a
        ):
            return [ChebLayerParams([w.copy() for w in x.weights], x.bias.copy()) for x in a]
        return a.copy() if isinstance(a, np.ndarray) else a

    return tuple(copy(a) for a in args)


def _factor_nnz(factor):
    lower, upper = getattr(factor, "L", None), getattr(factor, "U", None)
    if lower is None or upper is None:
        return None
    return float(lower.nnz + upper.nnz)


def children_of(spans: list) -> dict:
    """Child span indices per parent index."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)
    return children


def self_time(spans: list, index: int, children: dict | None = None) -> float:
    """Duration of span ``index`` minus the union of its children's intervals."""
    if children is None:
        children = children_of(spans)
    parent = spans[index]
    intervals = sorted(
        (max(spans[c].start, parent.start), min(spans[c].end, parent.end))
        for c in children.get(index, ())
    )
    covered, reach = 0.0, parent.start
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return parent.duration - covered


# per-iteration metrics: name -> (span names, quantity)
PER_ITERATION = {
    "neuralfield.predict_blueprint_ms": (("predict_blueprint",), "ms"),
    "neuralfield.tape_nodes": (("predict_blueprint",), "nodes"),
    "amfilter.apply_filter_ms": (("apply_passive", "apply_filter"), "ms"),
    "amfilter.tape_nodes": (("apply_filter",), "nodes"),
    "fea.assemble_ms": (("assemble",), "ms"),
    "fea.factorize_self_ms": (("factorize",), "self_ms"),
    "fea.solve_ms": (("solve",), "ms"),
    "fea.solves": (("solve",), "calls"),
    "fea.factor_nnz": (("factorize",), "extra"),
    "fea.assemble_and_solve_self_ms": (("assemble_and_solve",), "self_ms"),
    "fea.density_vjp_ms": (("density_vjp",), "ms"),
    "fea.stress_ms": (("centroid_stress", "p_norm_stress"), "ms"),
    "autodiff.backward_ms": (("backward",), "ms"),
    "autodiff.backward_self_ms": (("backward",), "self_ms"),
    "autodiff.tape_nodes": (("backward",), "extra"),
    "optimizer.composite_loss_ms": (("composite_loss",), "ms"),
    "optimizer.adam_step_ms": (("adam_step",), "ms"),
}
# per-run metrics over the spans before the first iteration
PER_RUN = {
    "meshgraph.build_mesh_ms": "build_mesh",
    "meshgraph.build_element_graph_ms": "build_element_graph",
    "meshgraph.fourier_encode_ms": "fourier_encode",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced ``run_optimization`` call.

    Times are medians over iterations of the per-iteration sum, in ms; counts
    are medians of per-iteration counts. A metric whose spans were never
    installed is left out.
    """
    spans = tracer.spans
    children = children_of(spans)
    n_iter = max((s.iteration for s in spans), default=0)
    by_iter = [[] for _ in range(n_iter + 1)]
    for i, s in enumerate(spans):
        by_iter[s.iteration].append(i)
    out = {}
    for metric, names in PER_RUN.items():
        if names in tracer.installed:
            out[metric] = 1e3 * sum(spans[i].duration for i in by_iter[0] if spans[i].name == names)
    for metric, (names, kind) in PER_ITERATION.items():
        if not all(n in tracer.installed for n in names):
            continue
        values = []
        for idx in by_iter[1:]:
            hits = [i for i in idx if spans[i].name in names]
            if kind == "ms":
                values.append(1e3 * sum(spans[i].duration for i in hits))
            elif kind == "self_ms":
                values.append(1e3 * sum(self_time(spans, i, children) for i in hits))
            elif kind == "nodes":
                values.append(sum(spans[i].nodes for i in hits))
            elif kind == "calls":
                values.append(len(hits))
            elif kind == "extra":
                extras = [spans[i].extra for i in hits if spans[i].extra is not None]
                values.append(sum(extras) if extras else None)
        values = [v for v in values if v is not None]
        if values:
            out[metric] = float(np.median(values))
    if "SimpAssembler" in tracer.installed:
        out["fea.assemblers_built"] = float(tracer.assemblers_built)
    if ITERATION_MARK in tracer.installed and n_iter:
        out.update(_iteration_metrics(spans, by_iter))
    return out


def _iteration_metrics(spans: list, by_iter: list) -> dict:
    """optimizer.iteration_ms (one ``leaf_parameters`` call to the next, the
    last to the end of the run) and optimizer.loop_self_ms (that interval
    minus the layer spans at the top of the loop)."""
    root = next(i for i, s in enumerate(spans) if s.name == ROOT)
    marks = [i for i, s in enumerate(spans) if s.name == ITERATION_MARK]
    ends = [spans[j].start for j in marks[1:]] + [spans[root].end]
    total, loop_self = [], []
    for it, (mark, end) in enumerate(zip(marks, ends), start=1):
        length = end - spans[mark].start
        top = sum(spans[i].duration for i in by_iter[it] if spans[i].parent == root)
        total.append(1e3 * length)
        loop_self.append(1e3 * (length - top))
    return {
        "optimizer.iteration_ms": float(np.median(total)),
        "optimizer.loop_self_ms": float(np.median(loop_self)),
    }


def traced_run(run, case, capture: tuple = ()):
    """Call ``run(case)`` under a fresh tracer; return (result, tracer)."""
    with Tracer(capture=capture) as tracer:
        result = tracer.call(ROOT, run, case)
    return result, tracer


def dump_spans(tracer: Tracer) -> list:
    """Spans as plain rows for a JSON dump."""
    return [
        [s.name, s.start, s.end, s.parent, s.iteration, s.nodes, s.extra]
        for s in tracer.spans
    ]
