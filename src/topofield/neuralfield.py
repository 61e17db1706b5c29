"""Chebyshev spectral graph-convolution field over the element graph.

Each layer computes sum_k T_k(L_scaled) H W_k + bias without forming a
polynomial matrix: it projects first, P_k = H W_k one order at a time, and
sums T_k P_k by Clenshaw's recursion, so the Laplacian acts on the layer's
output width, one column for the head. H is the feature matrix in the first
layer and the previous layer's ReLU after it; the head is a sigmoid that
emits a blueprint density in (0, 1) per element.

:func:`predict_blueprint` records the whole network as one tape operation
with a hand-written VJP. A forward pass keeps only each layer's input and
the sigmoid output, and no VJP temporary outlives its last read. Values and
weight gradients equal the network composed on the tape node by node bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue, Tape
from .meshgraph import ElementGraph, is_integer


@dataclass
class ChebLayerParams:
    """Trainable weights of one Chebyshev layer: one matrix per polynomial
    order plus a bias vector."""

    weights: list
    bias: object


@dataclass(frozen=True)
class NetworkConfig:
    """Layer widths include the input (2m Fourier channels) and the scalar
    output head."""

    layer_widths: tuple
    cheb_order: int = 1
    seed: int = 0

    def __post_init__(self):
        if len(self.layer_widths) < 2:
            raise ValueError("need at least input and output widths")
        if self.layer_widths[-1] != 1:
            raise ValueError("output width must be 1 (scalar density head)")
        if not all(is_integer(w) and w >= 1 for w in self.layer_widths):
            raise ValueError(f"layer widths must be integers >= 1, got {self.layer_widths}")
        if not (is_integer(self.cheb_order) and self.cheb_order >= 0):
            raise ValueError(f"cheb_order must be an integer >= 0, got {self.cheb_order!r}")


def init_parameters(config: NetworkConfig, volume_target: float = 0.5) -> list[ChebLayerParams]:
    """Deterministic fan-in-scaled initialization.

    Weight matrices are uniform in +-sqrt(6/(fan_in+fan_out)); biases start at
    zero except the output bias, which is set to logit(volume_target) so the
    initial mean density sits near the volume budget.
    """
    rng = np.random.default_rng(config.seed)
    if not 0.0 < volume_target < 1.0:
        raise ValueError("volume_target must lie in (0, 1)")
    layers = []
    widths = config.layer_widths
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights = [
            rng.uniform(-bound, bound, (fan_in, fan_out))
            for _ in range(config.cheb_order + 1)
        ]
        layers.append(ChebLayerParams(weights, np.zeros(fan_out)))
    layers[-1].bias = np.full(1, math.log(volume_target / (1.0 - volume_target)))
    return layers


def _chebyshev_terms(lap, term: np.ndarray, order: int):
    """Yield H = ``term``, T_1 H, ..., T_K H by the recursion T_1 H = L H,
    T_k H = 2 L T_{k-1} H - T_{k-2} H, holding no term no later one reads."""
    prev = None
    for k in range(order + 1):
        if k:
            nxt = lap @ term
            if k > 1:
                nxt *= 2.0
                nxt -= prev
            prev, term = (term if k < order else None), nxt
        yield term


def _clenshaw(lap, h: np.ndarray, weights: list) -> np.ndarray:
    """sum_k T_k(L) H W_k by Clenshaw's recursion over P_k = H W_k, each
    formed by its own product when the recursion reads it: b_K = P_K,
    b_k = P_k + 2 L b_{k+1} - b_{k+2}, and the sum is b_0 = P_0 + L b_1 - b_2."""
    acc, prev = h @ weights[-1], None
    for k in range(len(weights) - 2, -1, -1):
        nxt = lap @ acc
        if k > 0:
            nxt *= 2.0
        nxt += h @ weights[k]
        if prev is not None:
            nxt -= prev
        prev, acc = acc, nxt
    return acc


def leaf_parameters(tape: Tape, layers: list[ChebLayerParams]) -> list[ChebLayerParams]:
    """Re-register numpy parameters as tape leaves for one forward/backward pass."""
    return [
        ChebLayerParams([tape.leaf(w) for w in layer.weights], tape.leaf(layer.bias))
        for layer in layers
    ]


def parameter_arrays(layers: list[ChebLayerParams]) -> list:
    """Flatten layer parameters into a stable list (weights then bias, per layer)."""
    flat = []
    for layer in layers:
        flat.extend(layer.weights)
        flat.append(layer.bias)
    return flat


_LOGIT_BOUND = 8.0


def predict_blueprint(
    features: np.ndarray,
    graph: ElementGraph,
    layers: list[ChebLayerParams],
) -> DiffValue:
    """Blueprint densities in (0, 1): stacked spectral layers, ReLU hidden,
    sigmoid head.

    features is the feature matrix, one row per element of ``graph``; it is
    a constant, so no adjoint of it is computed. The parameters must be tape
    values (see :func:`leaf_parameters`); any other parameter raises
    TypeError.

    The whole network is one tape operation (:class:`NetworkPass`) whose
    values and weight gradients equal the network composed on the tape node
    by node (each layer's products and recursion, then the clamp, the
    sigmoid and a reshape) bit for bit. Features whose rows do not match the
    graph's elements raise ValueError; so does, naming the layer, a layer
    with no weights, a weight or bias that does not fit its layer, or a head
    wider than 1.

    The head logits are bounded to +-8 with a straight-through clamp: the
    field can still go effectively solid/void (sigmoid(8) = 0.99966) but the
    head never saturates beyond recovery during training.
    """
    params = parameter_arrays(layers)
    if not all(isinstance(p, DiffValue) for p in params):
        raise TypeError("the network's parameters must be tape values (see leaf_parameters)")
    net = NetworkPass(features, graph, layers)
    out = net.value.reshape(net.value.shape[0])
    return params[0].tape._record(out, tuple(p.nid for p in params), net.vjp)


def _check_shapes(features_shape: tuple, n_elems: int, weights: list, biases: list) -> None:
    """Raise ValueError unless the features are a matrix with one row per
    element, or naming the first layer that has no weights, whose weights do
    not all map its input width to the width of its first weight, or whose
    bias does not have that width; the head's width must be 1."""
    if len(features_shape) != 2 or features_shape[0] != n_elems:
        raise ValueError(
            f"feature matrix shape {features_shape} does not match a graph of {n_elems} elements"
        )
    n, width = features_shape
    for index, (layer, bias) in enumerate(zip(weights, biases)):
        if not layer:
            raise ValueError(f"layer {index} has no weights")
        out = layer[0].shape[-1] if layer[0].ndim == 2 else None
        for k, weight in enumerate(layer):
            if weight.shape != (width, out):
                raise ValueError(f"layer {index}: inputs of shape {(n, width)} need weight {k} "
                                 f"of shape {(width, out)}, not {weight.shape}")
        if bias.shape != (out,):
            raise ValueError(f"layer {index}: bias of shape {bias.shape}, not {(out,)}")
        width = out
    if width != 1:
        raise ValueError(f"layer {len(weights) - 1}, the head, has width {width}, not 1")


class NetworkPass:
    """One forward pass of the network ``layers``, whose parameters are tape
    values, on the ``features`` of ``graph``'s elements.

    Every layer sums T_k(L) P_k by Clenshaw's recursion, forming each block
    P_k = H W_k of its input H when the recursion first reads it. The pass
    keeps those inputs and the sigmoid output, which its VJP reads; any number
    of passes can each run their VJP, in any order and as often as asked.
    """

    def __init__(self, features: np.ndarray, graph: ElementGraph, layers: list[ChebLayerParams]):
        self.lap = graph.laplacian_scaled
        self.weights = [[w.value for w in layer.weights] for layer in layers]
        biases = [layer.bias.value for layer in layers]
        h = np.asarray(features, dtype=float)
        _check_shapes(h.shape, self.lap.shape[0], self.weights, biases)
        self.inputs = []
        for index, (weights, bias) in enumerate(zip(self.weights, biases)):
            if index:
                h = np.maximum(out, 0.0, out=out)
            self.inputs.append(h)
            out = _clenshaw(self.lap, h, weights)
            out += bias
        # the head: a straight-through clamp of the logits, then the sigmoid
        self.value = ad.logistic(np.clip(out, -_LOGIT_BOUND, _LOGIT_BOUND))

    def vjp(self, g: np.ndarray) -> list:
        """Adjoints of the parameters, in :func:`parameter_arrays` order,
        given the adjoint g of the flat blueprint.

        L is symmetric entry for entry, so a layer's P_k has the adjoint
        T_k(L) G, G that of its pre-activation: dW_k = H^T T_k G, and
        dH = sum_k T_k G W_k^T is summed term by term in ascending k, as on
        the tape. The first layer's H is the features, whose adjoint is not
        formed."""
        val = self.value
        grad = np.asarray(g, dtype=float).reshape(val.shape) * val * (1.0 - val)
        adjoints = []
        for index in reversed(range(len(self.weights))):
            h, weights = self.inputs[index], self.weights[index]
            layer, bias = [], grad.sum(axis=0)
            # the recursion holds G from here on, and drops it once read
            terms, grad = _chebyshev_terms(self.lap, grad, len(weights) - 1), None
            for weight, term in zip(weights, terms):
                layer.append(h.T @ term)
                if index and grad is None:
                    grad = term @ weight.T
                elif index:
                    grad += term @ weight.T
            adjoints[:0] = [*layer, bias]
            if index:
                grad *= h > 0.0  # ReLU's mask: H > 0 exactly where its input was
        return adjoints


def save_parameters(path, layers: list[ChebLayerParams]) -> None:
    """Write the layers' arrays to ``path`` as a numpy .npz archive, named
    ``layer<i>.theta<k>`` and ``layer<i>.bias``."""
    arrays = {}
    for i, layer in enumerate(layers):
        arrays.update({f"layer{i}.theta{k}": w for k, w in enumerate(layer.weights)})
        arrays[f"layer{i}.bias"] = layer.bias
    with open(path, "wb") as fh:  # np.savez would append .npz to a name
        np.savez(fh, **arrays)
