"""Chebyshev spectral graph-convolution field over the element graph.

Each layer computes sum_k T_k(L_scaled) H W_k + bias using the three-term
Chebyshev recursion on matrix-vector products (dense polynomial matrices are
never formed). Hidden layers use ReLU; the output head is a sigmoid that
emits a blueprint density in (0, 1) per element.

:func:`predict_blueprint` records the whole network as one tape operation
with a hand-written VJP, like the overhang filter's sweep. Each forward pass
owns its activations and Chebyshev terms; only the VJP's n x width
temporaries live in buffers of the :class:`ChebyshevBasis` that a run builds
once, and no VJP reads them past its own return. Values and weight gradients
equal the network composed on the tape node by node bit for bit.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue, Tape
from .meshgraph import ElementGraph


@dataclass
class ChebLayerParams:
    """Trainable weights of one Chebyshev layer: one matrix per polynomial
    order plus a bias vector."""

    weights: list
    bias: object

    @property
    def order(self) -> int:
        return len(self.weights) - 1


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
        if self.cheb_order < 0:
            raise ValueError("cheb_order must be >= 0")


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


def _chebyshev_terms(lap, h: np.ndarray, order: int) -> list:
    """[H, T_1 H, ..., T_K H] by the three-term recursion
    T_1 H = L H, T_k H = 2 L T_{k-1} H - T_{k-2} H."""
    terms = [h]
    for k in range(1, order + 1):
        term = lap @ terms[-1]
        if k > 1:
            term *= 2.0
            term -= terms[-2]
        terms.append(term)
    return terms


class _Buffers:
    """Scratch arrays by name and shape, which every network VJP on one
    basis overwrites and none reads past its own return."""

    def __init__(self):
        self.arrays: dict = {}

    def get(self, name, shape: tuple, dtype=float) -> np.ndarray:
        key = (name, shape, dtype)
        arr = self.arrays.get(key)
        if arr is None:
            arr = self.arrays[key] = np.empty(shape, dtype)
        return arr


@dataclass(frozen=True, eq=False)
class ChebyshevBasis:
    """The first layer's constant terms [T_0 X, ..., T_K X] for one feature
    matrix X on one graph, and the scratch every network VJP on it reuses."""

    terms: tuple
    graph: ElementGraph
    _buffers: _Buffers = field(default_factory=_Buffers, init=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.terms) - 1


def chebyshev_basis(features: np.ndarray, graph: ElementGraph, order: int) -> ChebyshevBasis:
    """Build the first layer's Chebyshev terms once, off the tape.

    The features are constant through a run, so their products with the
    Laplacian are too; :func:`predict_blueprint` accepts the result in place
    of the features and then computes no adjoint of them.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] != graph.laplacian_scaled.shape[0]:
        raise ValueError(
            f"feature matrix shape {x.shape} does not match a graph of "
            f"{graph.laplacian_scaled.shape[0]} elements"
        )
    return ChebyshevBasis(tuple(_chebyshev_terms(graph.laplacian_scaled, x, order)), graph)


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
    features: ChebyshevBasis | np.ndarray,
    graph: ElementGraph,
    layers: list[ChebLayerParams],
) -> DiffValue:
    """Blueprint densities in (0, 1): stacked spectral layers, ReLU hidden,
    sigmoid head.

    features is the raw feature matrix or its :func:`chebyshev_basis` on
    ``graph``, which a loop builds once instead of once per call. Either way
    the first layer's terms are constants. The parameters must be tape values
    (see :func:`leaf_parameters`); any other parameter raises TypeError.

    The whole network is one tape operation (:class:`NetworkPass`) whose
    values and weight gradients equal the network composed on the tape node
    by node (each layer's recursion, then the clamp, the sigmoid and a
    reshape) bit for bit. A layer whose weights do not take the width of its
    input raises ValueError.

    The head logits are bounded to +-8 with a straight-through clamp: the
    field can still go effectively solid/void (sigmoid(8) = 0.99966) but the
    head never saturates beyond recovery during training.
    """
    first = layers[0]
    if isinstance(features, ChebyshevBasis):
        basis = features
        if basis.graph is not graph:
            raise ValueError("the Chebyshev basis was built on another graph")
        if basis.order != first.order:
            raise ValueError(
                f"basis of order {basis.order} for a layer of order {first.order}"
            )
    else:
        basis = chebyshev_basis(features, graph, first.order)
    params = parameter_arrays(layers)
    if not all(isinstance(p, DiffValue) for p in params):
        raise TypeError("the network's parameters must be tape values (see leaf_parameters)")
    net = NetworkPass(basis, layers)
    out = net.value.reshape(net.value.shape[0])
    return params[0].tape._record(out, tuple(p.nid for p in params), net.vjp)


class NetworkPass:
    """One forward pass of the network ``layers``, whose parameters are tape
    values, on ``basis``.

    The pass owns each hidden layer's ReLU output H and its terms
    T_1 H, ..., T_K H, which its VJP reads; any number of passes on one
    basis can each run their VJP, in any order and as often as asked. The
    VJP's n x width temporaries live in the basis's scratch, which no VJP
    reads past its own return.
    """

    def __init__(self, basis: ChebyshevBasis, layers: list[ChebLayerParams]):
        self.basis = basis
        self.weights = [[w.value for w in layer.weights] for layer in layers]
        self.biases = [layer.bias.value for layer in layers]
        lap = basis.graph.laplacian_scaled
        self.terms = [basis.terms]
        last = len(layers) - 1
        for index, (weights, bias) in enumerate(zip(self.weights, self.biases)):
            terms = self.terms[index]
            if terms[0].shape[1] != weights[0].shape[0]:
                raise ValueError(
                    f"feature matrix shape {terms[0].shape} does not match "
                    f"weight shape {weights[0].shape} of layer {index}"
                )
            out = terms[0] @ weights[0]
            for term, weight in zip(terms[1:], weights[1:]):
                out = out + term @ weight
            out = out + bias
            if index < last:
                h = np.maximum(out, 0.0)
                self.terms.append(_chebyshev_terms(lap, h, len(self.weights[index + 1]) - 1))
        # the head: a straight-through clamp of the logits, then the sigmoid
        self.value = ad.logistic(np.clip(out, -_LOGIT_BOUND, _LOGIT_BOUND))

    def vjp(self, g: np.ndarray) -> list:
        """Adjoints of the parameters, in :func:`parameter_arrays` order,
        given the adjoint g of the flat blueprint."""
        # the n x width temporaries come from the basis's scratch: allocated
        # per call, glibc returned them to the system and faulted them back
        # each time, about 5,500 minor page faults per iteration against 130
        # on a 120 x 40 beam, at 59-71 against 56 ms (1 BLAS thread)
        buffers = self.basis._buffers
        lap_t = self.basis.graph.laplacian_scaled.T
        val = self.value
        grad = np.asarray(g, dtype=float).reshape(val.shape) * val * (1.0 - val)
        adjoints = []
        for index in range(len(self.weights) - 1, -1, -1):
            terms, weights = self.terms[index], self.weights[index]
            layer = [term.T @ grad for term in terms]
            layer.append(grad.sum(axis=0))
            adjoints[:0] = layer
            if index == 0:
                break
            h = terms[0]
            adj = self._input_adjoint(grad, terms, weights, lap_t)
            mask = np.greater(h, 0.0, out=buffers.get("mask", h.shape, bool))
            grad = np.multiply(adj, mask, out=buffers.get("grad", h.shape))
        return adjoints

    def _input_adjoint(self, grad, terms, weights, lap_t) -> np.ndarray:
        """Adjoint of a layer's input H given the adjoint of its
        pre-activation, summed in the tape's order: the adjoint of T_j H is
        -adj(T_{j+2} H), plus L^T adj(T_{j+1} H) (times 2 for j > 0), plus
        grad W_j^T, each part present only if its term exists."""
        buffers = self.basis._buffers
        shape = terms[0].shape
        order = len(terms) - 1
        scratch = buffers.get("scratch", shape)
        adj = [None] * (order + 1)
        for j in range(order, -1, -1):
            acc = adj[j] = buffers.get(("adjoint", j % 3), shape)
            part = np.matmul(grad, weights[j].T, out=acc if j == order else scratch)
            if j < order:
                src = adj[j + 1]
                if j > 0:
                    src = np.multiply(src, 2.0, out=buffers.get("scaled", shape))
                lap_part = lap_t @ src
                if j + 2 <= order:  # L^T a - b is -b + L^T a bit for bit
                    lap_part -= adj[j + 2]
                np.add(lap_part, part, out=acc)
        return adj[0]


def save_parameters(path, layers: list[ChebLayerParams]) -> None:
    """Write the layers' arrays to ``path`` as a numpy .npz archive, named
    ``layer<i>.theta<k>`` and ``layer<i>.bias``."""
    arrays = {}
    for i, layer in enumerate(layers):
        arrays.update({f"layer{i}.theta{k}": w for k, w in enumerate(layer.weights)})
        arrays[f"layer{i}.bias"] = layer.bias
    with open(path, "wb") as fh:  # np.savez would append .npz to a name
        np.savez(fh, **arrays)


def load_parameters(path) -> list[ChebLayerParams]:
    """Load a checkpoint written by :func:`save_parameters`; any file that
    is not such an archive raises ValueError."""
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("it holds a bare array")
            arrays = {name: archive[name] for name in archive.files}
        # a damaged zip directory can also send a seek astray (OSError), or
        # name an unknown zip version (NotImplementedError) or flag an entry
        # as encrypted (RuntimeError)
        except (ValueError, EOFError, OSError, NotImplementedError, RuntimeError,
                zipfile.BadZipFile) as err:
            raise ValueError(f"{path}: not a topofield parameter checkpoint: {err}") from err
    layers = []
    i = 0
    while f"layer{i}.bias" in arrays:
        weights = []
        k = 0
        while f"layer{i}.theta{k}" in arrays:
            weights.append(arrays[f"layer{i}.theta{k}"])
            k += 1
        layers.append(ChebLayerParams(weights, arrays[f"layer{i}.bias"]))
        i += 1
    if not layers:
        raise ValueError(f"{path}: checkpoint holds no layers")
    return layers
