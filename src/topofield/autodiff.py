"""Reverse-mode differentiation on a dynamically recorded tape.

Every differentiable quantity in the pipeline is a :class:`DiffValue` bound to
a :class:`Tape`. Operations record their inputs and a vector-Jacobian closure;
:meth:`Tape.backward` replays the closures in reverse topological order and
accumulates adjoints additively. The engine knows nothing of the pipeline: a
composite operation (the network, the overhang filter, the equilibrium solve)
is recorded by the module that owns it, as one node with a hand-written VJP.

A tape can be backpropagated as often as asked. A caller that backpropagates
each pass once passes ``release=True``: each VJP closure, the state it holds
(a solve's factor, a filter's rows) and the adjoint it consumed are then
dropped as soon as it has run, and a later ``backward`` that reaches a
released node raises ``RuntimeError`` until :meth:`Tape.reset`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class NumericDomainError(ArithmeticError):
    """An operation was evaluated outside its numeric domain (sqrt or fractional
    power of a negative, negative power of zero) or gave a non-finite result."""

    def __init__(self, message: str, node: int | None = None):
        if node is not None:
            message = f"{message} (tape node {node})"
        super().__init__(message)
        self.node = node


# a released node's VJP and adjoint; None would pass for a leaf or a zero
_RELEASED = object()


class Tape:
    """Append-only list of ``(input ids, vjp)`` nodes; ids are topological by construction."""

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes: list[tuple] = []

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
        self._nodes.append((inputs, vjp))
        return DiffValue(self, nid, val)

    def backward(self, out: "DiffValue", release: bool = False) -> "Gradients":
        """Accumulate d(out)/d(node) for every node reachable from ``out``.

        ``out`` must be scalar. Returns a :class:`Gradients` map. By default
        the tape is left intact, to backpropagate again or reset. With
        ``release=True`` each node's VJP closure and adjoint are dropped once
        the VJP has run; the node keeps its id, and a later ``backward`` that
        reaches it, or ``Gradients.of`` on it, raises ``RuntimeError`` naming
        it. Such a tape is backpropagated once.
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
            inputs, vjp = self._nodes[nid]
            if vjp is None:
                continue
            if vjp is _RELEASED:
                raise RuntimeError(f"tape node {nid} was released by backward(release=True)")
            g_inputs = vjp(g)
            if release:
                self._nodes[nid] = (inputs, _RELEASED)
                adjoints[nid] = _RELEASED
            for inp, gin in zip(inputs, g_inputs):
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
        if g is _RELEASED:
            raise RuntimeError(f"the adjoint of tape node {x.nid} was released by backward")
        return np.broadcast_to(g, x.value.shape).astype(float, copy=True)


class DiffValue:
    """A forward value plus its position on the tape."""

    __slots__ = ("tape", "nid", "value")

    def __init__(self, tape: Tape, nid: int, value: np.ndarray):
        self.tape = tape
        self.nid = nid
        self.value = value

    def sum(self):
        return total(self)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

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
    return x.tape._record(np.maximum(xv, 0.0), (x.nid,), lambda g: (g * mask,))


def logistic(xv: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), with no overflow for logits of either sign."""
    z = np.exp(-np.abs(xv))
    return np.where(xv >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(x: DiffValue) -> DiffValue:
    val = logistic(x.value)

    def vjp(g):
        return (g * val * (1.0 - val),)

    return x.tape._record(val, (x.nid,), vjp)


def total(x: DiffValue) -> DiffValue:
    """Sum of all entries (scalar output)."""
    shape = x.value.shape

    def vjp(g):
        return (np.broadcast_to(g, shape).astype(float, copy=True),)

    return x.tape._record(x.value.sum(), (x.nid,), vjp)


def gather(x: DiffValue, index) -> DiffValue:
    """Fancy-index along the first axis; backward scatter-adds."""
    idx = np.asarray(index)
    xv = x.value

    def vjp(g):
        out = np.zeros_like(xv)
        np.add.at(out, idx, g)
        return (out,)

    return x.tape._record(xv[idx], (x.nid,), vjp)


def matmul(a, b) -> DiffValue:
    """Matrix product (m,k)@(k,) or (m,k)@(k,n) with either operand
    differentiable.

    A constant left operand may be a scipy sparse matrix (used for the
    scaled Laplacian); differentiable operands are dense.
    """
    av = a if not isinstance(a, DiffValue) and hasattr(a, "tocsr") else _raw(a)
    bv = _raw(b)
    if av.ndim != 2 or bv.ndim not in (1, 2):
        raise ValueError("matmul requires matrix@vector or matrix@matrix")
    if av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {av.shape} @ {bv.shape}")
    return _binary(
        a, b, av @ bv,
        lambda g: np.outer(g, bv) if bv.ndim == 1 else g @ bv.T,
        lambda g: av.T @ g,
    )

