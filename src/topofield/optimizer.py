"""Composite loss, Adam updates, and the end-to-end optimization loop.

The Fourier features are built once per run; each iteration re-records the
rest of the pipeline on the tape: predict blueprint -> overhang filter ->
assemble/solve -> compliance and stress -> loss -> backward -> Adam. The
stress weight ramps up once the continuation ends, and the returned design
is the best feasible iterate, not simply the last.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .amfilter import DensityField, FilterParams, apply_filter, apply_passive
from .autodiff import NumericDomainError, Tape
from .fea import (
    DensityRangeError,
    MaterialModel,
    SolverFailureError,
    StressAggregate,
    assemble_and_solve,
    centroid_stress,
    compliance,
    p_norm_stress,
    point_support_elements,
)
from .meshgraph import build_element_graph, build_mesh, fourier_encode, normalize_centroids
from .neuralfield import (
    NetworkConfig,
    init_parameters,
    leaf_parameters,
    parameter_arrays,
    predict_blueprint,
)


# failures that end a run; after its first iteration, with a partial result
RUN_FAILURES = (SolverFailureError, NumericDomainError, DensityRangeError)

# iterations between stress-multiplier updates; updating every iteration lets
# the multiplier outrun Adam and the design oscillates between solid and void
MULTIPLIER_INTERVAL = 10
# share of the run over which the SIMP exponent and the filter sharpen
CONTINUATION_FRACTION = 0.5
# filter surrogates at the start of the continuation; they sharpen
# geometrically to the case's filter_epsilon and filter_sharpness
FILTER_EPSILON_START = 1e-3
FILTER_SHARPNESS_START = 10.0
# the learning rate is multiplied by LR_DECAY_FACTOR after this share of the run
LR_DECAY_AT = 0.85
LR_DECAY_FACTOR = 0.5
# the Fourier frequency draw is fixed; the case seed varies the network init
FOURIER_SEED = 0
# Chebyshev order of every network layer
CHEB_ORDER = 1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class LossSpec:
    """Weights and targets of the composite objective.

    compliance_scale is the first iteration's compliance, captured once and
    treated as a constant. With one_sided=True the stress term is the
    augmented Lagrangian of the inequality g <= 0 (g is the stress argument of
    :func:`composite_loss`) with multiplier stress_multiplier: it vanishes
    while g and the multiplier are both at or below zero. The two-sided
    variant squares the raw expression and ignores the multiplier.
    sigma_allow is not read here (the stress argument arrives already
    normalized); the acceptance gate's criterion 1 passes it.
    """

    volume_weight: float
    stress_weight: float
    volume_target: float
    sigma_allow: float
    elem_volumes: np.ndarray
    compliance_scale: float = 1.0
    one_sided: bool = True
    stress_multiplier: float = 0.0


def composite_loss(c, rho_printed, stress_pn, spec: LossSpec):
    """loss = C/J0 + volume_weight * (V/V* - 1)^2 + stress_weight * penalty^2.

    The one-sided penalty is max(0, g + mu / (2 stress_weight)) for the
    stress argument g and multiplier mu; its gradient is
    max(0, mu + 2 stress_weight g) dg, the augmented-Lagrangian force.
    """
    loss = c * (1.0 / spec.compliance_scale)
    ratio = ad.total(rho_printed * spec.elem_volumes) * (1.0 / spec.volume_target)
    loss = loss + spec.volume_weight * ((ratio - 1.0) * (ratio - 1.0))
    if spec.stress_weight != 0.0:
        if spec.one_sided:
            active = ad.relu(stress_pn + spec.stress_multiplier / (2.0 * spec.stress_weight))
        else:
            active = stress_pn
        loss = loss + spec.stress_weight * (active * active)
    return loss


@dataclass
class AdamState:
    """First/second moment buffers plus step count; the moment decay rates
    and the denominator guard are ADAM_BETA1, ADAM_BETA2 and ADAM_EPS."""

    m: list
    v: list
    step: int = 0

    @classmethod
    def for_parameters(cls, params: list) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(params: list, grads: list, state: AdamState, learning_rate: float) -> None:
    """In-place Adam update with bias correction, at this step's learning rate."""
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise NumericDomainError(
                f"non-finite gradient in parameter {i}: "
                f"max |g| = {np.abs(g[np.isfinite(g)]).max() if np.any(np.isfinite(g)) else np.nan}"
            )
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= learning_rate * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


@dataclass
class ConvergenceRecord:
    """Per-iteration history; row i is iteration i + 1, since the loop
    appends every completed iteration in order and stops at a failure."""

    compliance: list = field(default_factory=list)
    volfrac: list = field(default_factory=list)
    sigma_pn: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    seconds: list = field(default_factory=list)

    def append(self, c, vf, pn, loss_val, dt):
        self.compliance.append(float(c))
        self.volfrac.append(float(vf))
        self.sigma_pn.append(float(pn))
        self.loss.append(float(loss_val))
        self.seconds.append(float(dt))

    def __len__(self):
        return len(self.compliance)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iter,compliance,volfrac,sigma_pn,loss,seconds\n")
            rows = zip(self.compliance, self.volfrac, self.sigma_pn, self.loss, self.seconds)
            for it, (c, vf, pn, loss, dt) in enumerate(rows, start=1):
                fh.write(f"{it},{c:.10e},{vf:.10e},{pn:.10e},{loss:.10e},{dt:.6f}\n")


@dataclass
class OptimizationResult:
    """The returned iterate's fields and network weights (``parameters``,
    as they were when that iterate's blueprint was predicted), the whole
    history, and how the run ended."""

    printed: DensityField
    blueprint: DensityField
    record: ConvergenceRecord
    parameters: list
    best_iteration: int
    best_feasible: bool
    final_compliance: float
    final_volfrac: float
    final_sigma_pn: float
    aborted: bool
    abort_reason: str
    wall_time: float


class Schedule(NamedTuple):
    """The settings of one iteration: stress weight gamma, Adam learning
    rate, SIMP exponent and overhang-filter surrogates."""

    gamma: float
    learning_rate: float
    penal: float
    filter: FilterParams


def _schedule(it: int, case) -> Schedule:
    """The settings at iteration ``it``.

    gamma stays 0 until the continuation has finished and then ramps
    linearly over ``ramp_fraction`` of the run: the sqrt(E)-scaled stress of
    a gray field at a low SIMP exponent is inflated (it scales as
    rho^(-p/2)), so an earlier stress term would steer the design by a limit
    that the final design never reaches.

    The learning rate warms up linearly over the first 3% of the run and is
    multiplied by LR_DECAY_FACTOR after LR_DECAY_AT of it.

    Over the continuation, the first CONTINUATION_FRACTION of the run, the
    SIMP exponent ramps 1 -> penal and then holds. The early
    low-penalization phase is nearly convex, which keeps different seeds
    from scattering into unrelated local minima before the topology has
    formed. Over the same window the filter surrogates start soft and
    sharpen geometrically to the target: a hard filter from iteration 1
    starves shadowed regions of gradient and strands the design in poor
    basins.
    """
    continuation = max(1, int(round(CONTINUATION_FRACTION * case.iterations)))
    gamma = 0.0
    if case.stress_on:
        ramp = max(1, int(round(case.ramp_fraction * case.iterations)))
        gamma = case.gamma_max * min(1.0, max(0, it - continuation) / ramp)
    lr = case.learning_rate
    warmup = max(1, int(round(0.03 * case.iterations)))
    if it <= warmup:
        lr *= it / warmup
    if it > LR_DECAY_AT * case.iterations:
        lr *= LR_DECAY_FACTOR
    t = min(1.0, it / continuation)
    penal = 1.0 + (case.penal - 1.0) * t
    eps = FILTER_EPSILON_START ** (1.0 - t) * case.filter_epsilon**t
    sharp = FILTER_SHARPNESS_START ** (1.0 - t) * case.filter_sharpness**t
    return Schedule(gamma, lr, penal, FilterParams(eps, sharp))


@functools.cache
def _steady_heap() -> None:
    """Keep the memory an iteration frees mapped for the next one.

    Every iteration frees and reallocates arrays of the same sizes. Under
    glibc's default thresholds, whether the freed heap top goes back to the
    system, to be faulted in again one iteration later, turns on incidental
    heap layout, so the speed of a run did too: one 600-iteration 60x20 run
    took from 22,000 to 394,000 minor faults depending only on the length of
    its checkout's directory name. A fixed mmap threshold and a trim
    threshold above the heap of any run here keep those pages mapped. Only
    glibc has mallopt; elsewhere this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD, above the heap of any run here
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's largest


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_optimization(case) -> OptimizationResult:
    """Train the neural field against one benchmark case.

    The loop records the full pipeline per iteration and applies Adam to the
    network weights. Returns the printed field of the best feasible iterate
    (volume within tolerance of the target, aggregated stress within its
    tolerance when the constraint is active, lowest compliance among those);
    if no iterate is feasible, the one with the smallest constraint violation
    is returned instead. Iterates before the SIMP continuation ends count
    only when the run stops before reaching the final exponent.

    The stress constraint is sigma_PN <= ``stress_feasible_tol``, the same
    bound that decides feasibility, enforced by an augmented Lagrangian: the
    multiplier starts at 0 and every MULTIPLIER_INTERVAL iterations of the
    stress ramp becomes max(0, mu + 2 gamma (sigma_PN - tol)). A run whose
    stress stays within the bound at those updates follows the stress-free
    trajectory exactly; a run that reaches it settles onto it.

    Solver, density-range and numeric-domain failures (a non-finite C,
    sigma_PN or gradient among them) end the run with the history and fields
    gathered so far, or are raised as they are if no iteration completed.
    These checks name the cause, so numpy's overflow, invalid-value and
    division warnings are off for the run.
    """
    _steady_heap()
    mesh = build_mesh(case.nelx, case.nely, case.elem_size)
    graph = build_element_graph(mesh)
    features = fourier_encode(
        normalize_centroids(mesh), case.fourier_m, case.fourier_scale, FOURIER_SEED
    )
    fixed_dofs, f, passive = case.build_problem(mesh)
    agg = StressAggregate(
        case.sigma_allow,
        case.stress_exponent,
        excluded=point_support_elements(mesh, fixed_dofs),
    )
    config = NetworkConfig((2 * case.fourier_m, *case.hidden_widths, 1), CHEB_ORDER, case.seed)
    layers = init_parameters(config, volume_target=case.volume_fraction)
    arrays = parameter_arrays(layers)
    adam = AdamState.for_parameters(arrays)

    elem_vol = np.full(mesh.n_elems, mesh.elem_size**2)
    spec = LossSpec(
        volume_weight=case.alpha_max,
        stress_weight=0.0,
        volume_target=case.volume_fraction * elem_vol.sum(),
        sigma_allow=case.sigma_allow,
        elem_volumes=elem_vol,
    )

    tape = Tape()
    record = ConvergenceRecord()
    best = None  # (rank, iteration, printed, blueprint, network weights)
    aborted, abort_reason = False, ""
    start = time.perf_counter()

    for it in range(1, case.iterations + 1):
        t0 = time.perf_counter()
        schedule = _schedule(it, case)
        spec.stress_weight = schedule.gamma
        mat = MaterialModel(case.E0, case.Emin, case.nu, schedule.penal)
        tape.reset()
        leaves = leaf_parameters(tape, layers)
        try:
            b = predict_blueprint(features, graph, leaves)
            b = apply_passive(b, passive)
            rho = apply_filter(b, case.nelx, case.nely, schedule.filter) if case.filter_on else b
            u, _ = assemble_and_solve(rho, mesh, mat, fixed_dofs, f)
            c = compliance(u, f)
            if it == 1:
                spec.compliance_scale = max(float(c.value), 1e-30)
            stress = centroid_stress(u, rho, mesh, mat)
            pn = p_norm_stress(stress, agg)
            for name, value in (("compliance", c.value), ("sigma_PN", pn.value)):
                if not np.isfinite(value):
                    raise NumericDomainError(f"{name} is not finite: {float(value)}")
            excess = pn - case.stress_feasible_tol
            loss = composite_loss(c, rho, excess, spec)
            vf = float(rho.value @ elem_vol) / elem_vol.sum()
            vol_gap = max(abs(vf - case.volume_fraction) - case.volume_feasible_tol, 0.0)
            pn_gap = max(float(excess.value), 0.0) if case.stress_on else 0.0
            # lower ranks first: iterates at the final penalization before
            # all earlier ones (which count only for a run that stops before
            # reaching it), then smaller violation, then lower C; a feasible
            # iterate's violation is 0, so feasible ones come first and rank
            # by C alone
            rank = (schedule.penal != case.penal, vol_gap + pn_gap, float(c.value))
            # the weights that predicted this iterate, before the step moves them
            ranks_best = best is None or rank < best[0]
            weights = copy.deepcopy(layers) if ranks_best else None
            # one backward per tape: free the solve's factor before the network's VJP
            grads = tape.backward(loss, release=True)
            leaf_list = parameter_arrays(leaves)
            adam_step(arrays, [grads.of(leaf) for leaf in leaf_list], adam, schedule.learning_rate)
        except RUN_FAILURES as err:
            if best is None:
                raise
            aborted, abort_reason = True, str(err)
            break
        if spec.stress_weight > 0.0 and it % MULTIPLIER_INTERVAL == 0:
            spec.stress_multiplier = max(
                0.0, spec.stress_multiplier + 2.0 * spec.stress_weight * float(excess.value)
            )

        record.append(c.value, vf, pn.value, loss.value, time.perf_counter() - t0)
        if ranks_best:
            best = (rank, it, np.array(rho.value), np.array(b.value), weights)

    (_early, violation, _c), best_it, best_rho, best_b, best_layers = best
    idx = best_it - 1
    return OptimizationResult(
        printed=DensityField.from_flat(best_rho, case.nelx, case.nely, "printed"),
        blueprint=DensityField.from_flat(best_b, case.nelx, case.nely, "blueprint"),
        record=record,
        parameters=best_layers,
        best_iteration=best_it,
        best_feasible=not violation,
        final_compliance=record.compliance[idx],
        final_volfrac=record.volfrac[idx],
        final_sigma_pn=record.sigma_pn[idx],
        aborted=aborted,
        abort_reason=abort_reason,
        wall_time=time.perf_counter() - start,
    )
