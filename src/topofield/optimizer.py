"""Composite loss, Adam updates, and the end-to-end optimization loop.

The Fourier features and the first layer's Chebyshev basis are built once per
run; each iteration re-records the rest of the pipeline on the tape: predict
blueprint -> overhang filter -> assemble/solve -> compliance and stress ->
loss -> backward -> Adam. Penalty weights ramp up over the early iterations
and the returned design is the best feasible iterate, not simply the last.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .amfilter import DensityField, FilterParams, apply_filter, apply_passive
from .autodiff import NumericDomainError, SolverFailureError, Tape
from .fea import (
    DensityRangeError,
    MaterialModel,
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
    chebyshev_basis,
    init_parameters,
    leaf_parameters,
    parameter_arrays,
    predict_blueprint,
)


class NonFiniteGradientError(RuntimeError):
    """A gradient turned non-finite; the iteration cannot be applied."""


# failures that end a run early with a partial result instead of an exception
RUN_FAILURES = (SolverFailureError, NonFiniteGradientError, NumericDomainError, DensityRangeError)

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
    if stress_pn is not None and spec.stress_weight != 0.0:
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
    learning_rate: float = 0.01

    @classmethod
    def for_parameters(cls, params: list, learning_rate: float = 0.01) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            learning_rate=learning_rate,
        )


def adam_step(params: list, grads: list, state: AdamState) -> None:
    """In-place Adam update with bias correction."""
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(
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
        p -= state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


@dataclass
class ConvergenceRecord:
    """Per-iteration history; one row per completed iteration."""

    iterations: list = field(default_factory=list)
    compliance: list = field(default_factory=list)
    volfrac: list = field(default_factory=list)
    sigma_pn: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    seconds: list = field(default_factory=list)

    def append(self, it, c, vf, pn, loss_val, dt):
        self.iterations.append(int(it))
        self.compliance.append(float(c))
        self.volfrac.append(float(vf))
        self.sigma_pn.append(float(pn))
        self.loss.append(float(loss_val))
        self.seconds.append(float(dt))

    def __len__(self):
        return len(self.iterations)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iter,compliance,volfrac,sigma_pn,loss,seconds\n")
            for row in zip(
                self.iterations,
                self.compliance,
                self.volfrac,
                self.sigma_pn,
                self.loss,
                self.seconds,
            ):
                fh.write(
                    f"{row[0]},{row[1]:.10e},{row[2]:.10e},{row[3]:.10e},"
                    f"{row[4]:.10e},{row[5]:.6f}\n"
                )


@dataclass
class OptimizationResult:
    printed: DensityField
    blueprint: DensityField
    record: ConvergenceRecord
    parameters: list
    best_iteration: int
    best_feasible: bool
    final_compliance: float
    final_volfrac: float
    final_sigma_pn: float
    aborted: bool = False
    abort_reason: str = ""
    wall_time: float = 0.0


def _penalty_schedule(it: int, case) -> tuple[float, float]:
    """Volume weight alpha and stress weight gamma at iteration ``it``.

    Both ramp linearly over ``ramp_fraction`` of the run. gamma stays 0
    until the SIMP continuation has finished and only then starts its ramp:
    the sqrt(E)-scaled stress of a gray field at a low SIMP exponent is
    inflated (it scales as rho^(-p/2)), so an earlier stress term would
    steer the design by a limit that the final design never reaches.
    """
    ramp = max(1, int(round(case.ramp_fraction * case.iterations)))
    alpha = case.alpha_start + (case.alpha_max - case.alpha_start) * min(1.0, it / ramp)
    if not case.stress_on:
        return alpha, 0.0
    ramped = max(0, it - _continuation_length(case))
    return alpha, case.gamma_max * min(1.0, ramped / ramp)


def _learning_rate(it: int, case) -> float:
    lr = case.learning_rate
    warmup = max(1, int(round(0.03 * case.iterations)))
    if it <= warmup:
        lr *= it / warmup
    if it > LR_DECAY_AT * case.iterations:
        lr *= LR_DECAY_FACTOR
    return lr


def _continuation_length(case) -> int:
    """Iterations over which the SIMP exponent and the filter sharpen."""
    return max(1, int(round(CONTINUATION_FRACTION * case.iterations)))


def _penalization(it: int, case) -> float:
    """SIMP exponent continuation: ramp 1 -> penal, then hold.

    The early low-penalization phase is nearly convex, which keeps different
    seeds from scattering into unrelated local minima before the topology
    has formed.
    """
    t = min(1.0, it / _continuation_length(case))
    return 1.0 + (case.penal - 1.0) * t


def _filter_params(it: int, case) -> FilterParams:
    """Overhang-filter continuation: soften the surrogates early, then
    sharpen geometrically to the target over the same window as the SIMP
    ramp. A hard filter from iteration 1 starves shadowed regions of
    gradient and strands the design in poor basins."""
    t = min(1.0, it / _continuation_length(case))
    eps = FILTER_EPSILON_START ** (1.0 - t) * case.filter_epsilon**t
    sharp = FILTER_SHARPNESS_START ** (1.0 - t) * case.filter_sharpness**t
    return FilterParams(eps, sharp)


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

    Solver, gradient and numeric-domain failures abort the run but keep the
    history and fields gathered so far.
    """
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
    config = NetworkConfig(
        (2 * case.fourier_m, *case.hidden_widths, 1), case.cheb_order, case.seed
    )
    layers = init_parameters(config, volume_target=case.volume_fraction)
    basis = chebyshev_basis(features, graph, case.cheb_order)
    arrays = parameter_arrays(layers)
    adam = AdamState.for_parameters(arrays, case.learning_rate)

    elem_vol = np.full(mesh.n_elems, mesh.elem_size**2)
    spec = LossSpec(
        volume_weight=case.alpha_start,
        stress_weight=0.0,
        volume_target=case.volume_fraction * elem_vol.sum(),
        sigma_allow=case.sigma_allow,
        elem_volumes=elem_vol,
    )

    tape = Tape()
    record = ConvergenceRecord()
    best = None  # (rank, iteration, printed, blueprint)
    aborted, abort_reason = False, ""
    start = time.perf_counter()

    for it in range(1, case.iterations + 1):
        t0 = time.perf_counter()
        spec.volume_weight, spec.stress_weight = _penalty_schedule(it, case)
        adam.learning_rate = _learning_rate(it, case)
        penal_now = _penalization(it, case)
        mat = MaterialModel(case.E0, case.Emin, case.nu, penal_now)
        fparams = _filter_params(it, case)
        tape.reset()
        leaves = leaf_parameters(tape, layers)
        try:
            b = predict_blueprint(basis, graph, leaves)
            if passive is not None and passive.any():
                b = apply_passive(b, passive)
            rho = apply_filter(b, case.nelx, case.nely, fparams) if case.filter_on else b
            u, _system = assemble_and_solve(rho, mesh, mat, fixed_dofs, f)
            c = compliance(u, f)
            if it == 1:
                spec.compliance_scale = max(float(c.value), 1e-30)
            stress = centroid_stress(u, rho, mesh, mat)
            pn = p_norm_stress(stress, agg)
            excess = pn - case.stress_feasible_tol if case.stress_on else None
            loss = composite_loss(c, rho, excess, spec)
            grads = tape.backward(loss)
            leaf_list = parameter_arrays(leaves)
            adam_step(arrays, [grads.of(leaf) for leaf in leaf_list], adam)
        except RUN_FAILURES as err:
            aborted, abort_reason = True, str(err)
            break
        if spec.stress_weight > 0.0 and it % MULTIPLIER_INTERVAL == 0:
            spec.stress_multiplier = max(
                0.0, spec.stress_multiplier + 2.0 * spec.stress_weight * float(excess.value)
            )

        vf = float(rho.value @ elem_vol) / elem_vol.sum()
        record.append(it, c.value, vf, pn.value, loss.value, time.perf_counter() - t0)

        vol_gap = max(abs(vf - case.volume_fraction) - case.volume_feasible_tol, 0.0)
        pn_gap = (
            max(float(pn.value) - case.stress_feasible_tol, 0.0) if case.stress_on else 0.0
        )
        feasible = vol_gap == 0.0 and pn_gap == 0.0
        # lower ranks first: iterates at the final penalization before all
        # earlier ones (which count only for a run that stops before reaching
        # it), then feasible ones, then smaller violation, then lower C; a
        # feasible iterate's violation is 0, so feasible ones rank by C alone
        rank = (penal_now != case.penal, not feasible, vol_gap + pn_gap, float(c.value))
        if best is None or rank < best[0]:
            best = (rank, it, np.array(rho.value), np.array(b.value))

    if best is None:
        raise SolverFailureError(
            f"optimization aborted before completing one iteration: {abort_reason}"
        )
    (_early, infeasible, _violation, best_c), best_it, best_rho, best_b = best
    idx = best_it - 1
    result = OptimizationResult(
        printed=DensityField.from_flat(best_rho, case.nelx, case.nely, "printed"),
        blueprint=DensityField.from_flat(best_b, case.nelx, case.nely, "blueprint"),
        record=record,
        parameters=layers,
        best_iteration=best_it,
        best_feasible=not infeasible,
        final_compliance=float(best_c),
        final_volfrac=float(record.volfrac[idx]),
        final_sigma_pn=float(record.sigma_pn[idx]),
        aborted=aborted,
        abort_reason=abort_reason,
    )
    result.wall_time = time.perf_counter() - start
    return result
