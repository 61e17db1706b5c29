"""Reverse-mode differentiation on a dynamically recorded tape.

Every differentiable quantity in the pipeline is a :class:`DiffValue` bound to
a :class:`Tape`. Operations record their inputs and a vector-Jacobian closure;
:meth:`Tape.backward` replays the closures in reverse topological order and
accumulates adjoints additively. The equilibrium solve gets a custom adjoint
(one extra triangular solve on the same factorization) instead of being traced
element by element.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class NumericDomainError(ArithmeticError):
    """An operation was evaluated outside its numeric domain (division by
    zero, sqrt or fractional power of a negative, negative power of zero)."""

    def __init__(self, message: str, node: int | None = None):
        if node is not None:
            message = f"{message} (tape node {node})"
        super().__init__(message)
        self.node = node


class SolverFailureError(RuntimeError):
    """The reduced stiffness matrix could not be factorized (singular or
    indefinite)."""


class _Node:
    __slots__ = ("inputs", "vjp")

    def __init__(self, inputs, vjp):
        self.inputs = inputs
        self.vjp = vjp


class Tape:
    """Append-only record of operations; ids are topological by construction."""

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes: list[_Node] = []

    def __len__(self):
        return len(self._nodes)

    def reset(self):
        """Drop all recorded nodes so the tape can record a fresh pass."""
        self._nodes.clear()

    def leaf(self, value) -> "DiffValue":
        """Register an input value that gradients will be reported for."""
        return self._record(value, (), None)

    def _record(self, value, inputs, vjp) -> "DiffValue":
        val = np.asarray(value, dtype=float)
        nid = len(self._nodes)
        self._nodes.append(_Node(inputs, vjp))
        return DiffValue(self, nid, val)

    def backward(self, out: "DiffValue") -> "Gradients":
        """Accumulate d(out)/d(node) for every node reachable from ``out``.

        ``out`` must be scalar. Returns a :class:`Gradients` map; the tape is
        left intact and can be reset for a fresh forward pass.
        """
        if out.tape is not self:
            raise ValueError("output belongs to a different tape")
        if out.value.ndim != 0:
            raise ValueError(
                f"backward() requires a scalar output, got shape {out.value.shape}"
            )
        adjoints: dict[int, np.ndarray] = {out.nid: np.ones(())}
        for nid in range(out.nid, -1, -1):
            g = adjoints.get(nid)
            if g is None:
                continue
            node = self._nodes[nid]
            if node.vjp is None:
                continue
            for inp, gin in zip(node.inputs, node.vjp(g)):
                if gin is None:
                    continue
                acc = adjoints.get(inp)
                adjoints[inp] = gin if acc is None else acc + gin
        return Gradients(adjoints)


class Gradients:
    """Adjoint lookup returned by :meth:`Tape.backward`."""

    def __init__(self, adjoints: dict[int, np.ndarray]):
        self._adjoints = adjoints

    def of(self, x: "DiffValue") -> np.ndarray:
        """Gradient of the backward output w.r.t. ``x`` (zeros if unreached)."""
        g = self._adjoints.get(x.nid)
        if g is None:
            return np.zeros_like(x.value)
        return np.broadcast_to(g, x.value.shape).astype(float, copy=True)


class DiffValue:
    """A forward value plus its position on the tape."""

    __slots__ = ("tape", "nid", "value")

    def __init__(self, tape: Tape, nid: int, value: np.ndarray):
        self.tape = tape
        self.nid = nid
        self.value = value

    @property
    def shape(self):
        return self.value.shape

    def sum(self):
        return total(self)

    def reshape(self, shape):
        return reshape(self, shape)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __repr__(self):
        return f"DiffValue(nid={self.nid}, value={self.value!r})"


def _tape_of(*args) -> Tape:
    for a in args:
        if isinstance(a, DiffValue):
            return a.tape
    raise TypeError("at least one operand must be a DiffValue")


def _raw(x):
    return x.value if isinstance(x, DiffValue) else np.asarray(x, dtype=float)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _binary(a, b, value, vjp_a: Callable, vjp_b: Callable) -> DiffValue:
    tape = _tape_of(a, b)
    inputs, vjps = [], []
    if isinstance(a, DiffValue):
        inputs.append(a.nid)
        vjps.append((vjp_a, a.value.shape))
    if isinstance(b, DiffValue):
        inputs.append(b.nid)
        vjps.append((vjp_b, b.value.shape))

    def vjp(g):
        return tuple(_unbroadcast(fn(g), shape) for fn, shape in vjps)

    return tape._record(value, tuple(inputs), vjp)


def add(a, b) -> DiffValue:
    av, bv = _raw(a), _raw(b)
    return _binary(a, b, av + bv, lambda g: g, lambda g: g)


def sub(a, b) -> DiffValue:
    av, bv = _raw(a), _raw(b)
    return _binary(a, b, av - bv, lambda g: g, lambda g: -g)


def mul(a, b) -> DiffValue:
    av, bv = _raw(a), _raw(b)
    return _binary(a, b, av * bv, lambda g: g * bv, lambda g: g * av)


def div(a, b) -> DiffValue:
    tape = _tape_of(a, b)
    av, bv = _raw(a), _raw(b)
    if np.any(bv == 0.0):
        raise NumericDomainError("division by zero", node=len(tape))
    return _binary(a, b, av / bv, lambda g: g / bv, lambda g: -g * av / (bv * bv))


def power(x: DiffValue, exponent: float) -> DiffValue:
    """x**c for a constant real exponent c.

    The local derivative at x == 0 is defined as 0 when c < 1, which is the
    correct limit for the filter's power-sum surrogate and avoids 0**negative
    in the chain rule.
    """
    c = float(exponent)
    xv = x.value
    check_power_domain(xv, c, len(x.tape))
    val = xv ** c

    def vjp(g):
        if c == 0.0:
            return (np.zeros_like(xv),)
        return (g * power_derivative(xv, c),)

    return x.tape._record(val, (x.nid,), vjp)


def check_power_domain(xv: np.ndarray, c: float, node: int | None) -> None:
    """Raise :class:`NumericDomainError` where x**c leaves the reals."""
    if c != round(c) and np.any(xv < 0.0):
        raise NumericDomainError("fractional power of a negative base", node=node)
    if c < 0 and np.any(xv == 0.0):
        raise NumericDomainError("negative power of zero", node=node)


def power_derivative(xv: np.ndarray, c: float) -> np.ndarray:
    """d(x**c)/dx for c != 0, taken as 0 at x == 0 when c < 1."""
    if c >= 1.0:
        return c * xv ** (c - 1.0)
    # x^(c-1) overflows once x underflows into the subnormal band; the forward
    # value carries no precision there, so those entries get the same zero
    # derivative as the exact-zero case
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        local = np.where(xv != 0.0, c * xv ** (c - 1.0), 0.0)
        return np.where(np.isfinite(local), local, 0.0)


def sqrt(x: DiffValue) -> DiffValue:
    xv = x.value
    nid = len(x.tape)
    if np.any(xv < 0.0):
        raise NumericDomainError("sqrt of a negative value", node=nid)
    val = np.sqrt(xv)

    def vjp(g):
        with np.errstate(divide="ignore"):
            local = np.where(val > 0.0, 0.5 / np.where(val > 0.0, val, 1.0), 0.0)
        return (g * local,)

    return x.tape._record(val, (x.nid,), vjp)


def relu(x: DiffValue) -> DiffValue:
    xv = x.value
    mask = xv > 0.0
    return x.tape._record(np.where(mask, xv, 0.0), (x.nid,), lambda g: (g * mask,))


def sigmoid(x: DiffValue) -> DiffValue:
    xv = x.value
    z = np.exp(-np.abs(xv))
    val = np.where(xv >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))

    def vjp(g):
        return (g * val * (1.0 - val),)

    return x.tape._record(val, (x.nid,), vjp)


def clamp_straight_through(x: DiffValue, lo: float, hi: float) -> DiffValue:
    """Clip the forward value but pass the adjoint through unchanged.

    Used to bound pre-sigmoid activations: a plain clamp would kill the
    gradient exactly where the optimizer needs it to pull a saturated unit
    back into range."""
    return x.tape._record(np.clip(x.value, lo, hi), (x.nid,), lambda g: (g,))


def total(x: DiffValue) -> DiffValue:
    """Sum of all entries (scalar output)."""
    shape = x.value.shape

    def vjp(g):
        return (np.broadcast_to(g, shape).astype(float, copy=True),)

    return x.tape._record(x.value.sum(), (x.nid,), vjp)


def reshape(x: DiffValue, shape) -> DiffValue:
    orig = x.value.shape
    return x.tape._record(
        x.value.reshape(shape), (x.nid,), lambda g: (g.reshape(orig),)
    )


def gather(x: DiffValue, index) -> DiffValue:
    """Fancy-index along the first axis; backward scatter-adds."""
    idx = np.asarray(index)
    xv = x.value

    def vjp(g):
        out = np.zeros_like(xv)
        np.add.at(out, idx, g)
        return (out,)

    return x.tape._record(xv[idx], (x.nid,), vjp)


def concat(parts: Sequence[DiffValue]) -> DiffValue:
    """Concatenate 1-D values; backward splits the adjoint."""
    tape = _tape_of(*parts)
    sizes = [p.value.shape[0] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def vjp(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return tape._record(
        np.concatenate([p.value for p in parts]),
        tuple(p.nid for p in parts),
        vjp,
    )


def matmul(a, b) -> DiffValue:
    """Matrix product with either operand differentiable.

    The constant operand may be a scipy sparse matrix (used for the scaled
    Laplacian); differentiable operands are dense. Supports (m,k)@(k,),
    (m,k)@(k,n) and (k,)@(k,n).
    """
    tape = _tape_of(a, b)
    av_is_sparse = not isinstance(a, DiffValue) and hasattr(a, "tocsr")
    av = a if av_is_sparse else _raw(a)
    bv = _raw(b)
    a_nd = 2 if av_is_sparse else av.ndim
    if (a_nd == 0 or bv.ndim == 0) or (a_nd == 1 and bv.ndim == 1):
        raise ValueError("matmul requires matrix@vector, matrix@matrix or vector@matrix")
    ashape = av.shape
    if ashape[-1] != bv.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {ashape} @ {bv.shape}")
    val = av @ bv

    def vjp_a(g):
        if bv.ndim == 1:
            return np.outer(g, bv) if a_nd == 2 else g * bv
        if a_nd == 1:
            return bv @ g
        return g @ bv.T

    def vjp_b(g):
        if av_is_sparse:
            return av.T @ g
        if a_nd == 1:
            return np.outer(av, g) if bv.ndim == 2 else av * g
        return av.T @ g

    inputs, vjps = [], []
    if isinstance(a, DiffValue):
        inputs.append(a.nid)
        vjps.append(vjp_a)
    if isinstance(b, DiffValue):
        inputs.append(b.nid)
        vjps.append(vjp_b)

    def vjp(g):
        return tuple(fn(g) for fn in vjps)

    return tape._record(val, tuple(inputs), vjp)


def linear_solve(assembler, rho: DiffValue, f: np.ndarray) -> DiffValue:
    """Equilibrium displacements u with K(rho) u = f, differentiable in rho.

    ``assembler`` supplies the stiffness factorization and the density
    chain rule (see :class:`topofield.fea.SimpAssembler`). Forward: factor the
    reduced stiffness once and solve for the free DOFs. Backward: reuse the
    same factorization to solve K lam = u_bar (K symmetric), then accumulate
    -lam_e^T (dK_e/drho_e) u_e per element, with the SIMP modulus derivative
    supplying dK_e/drho_e.
    """
    factor = assembler.factorize(rho.value)
    u = assembler.solve(factor, np.asarray(f, dtype=float))

    def vjp(g):
        lam = assembler.solve(factor, g)
        return (assembler.density_vjp(rho.value, u, lam),)

    return rho.tape._record(u, (rho.nid,), vjp)
