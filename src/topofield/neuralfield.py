"""Chebyshev spectral graph-convolution field over the element graph.

Each layer computes sum_k T_k(L_scaled) H W_k + bias using the three-term
Chebyshev recursion on matrix-vector products (dense polynomial matrices are
never formed). Hidden layers use ReLU; the output head is a sigmoid that
emits a blueprint density in (0, 1) per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue, Tape
from .meshgraph import ElementGraph, FourierFeatures

_CKPT_MAGIC = b"TOPOFIELD-PARAMS v1\n"


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


def init_parameters(
    config: NetworkConfig, seed: int | None = None, volume_target: float = 0.5
) -> list[ChebLayerParams]:
    """Deterministic fan-in-scaled initialization.

    Weight matrices are uniform in +-sqrt(6/(fan_in+fan_out)); biases start at
    zero except the output bias, which is set to logit(volume_target) so the
    initial mean density sits near the volume budget.
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
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


def cheb_layer_forward(
    h: DiffValue, graph: ElementGraph, params: ChebLayerParams, activation: str = "relu"
) -> DiffValue:
    """One spectral convolution: T_0 H = H, T_1 H = L H, T_k H recursively."""
    w0 = params.weights[0]
    in_dim = w0.shape[0] if not isinstance(w0, DiffValue) else w0.value.shape[0]
    if h.value.ndim != 2 or h.value.shape[1] != in_dim:
        raise ValueError(
            f"feature matrix shape {h.value.shape} does not match weight fan-in {in_dim}"
        )
    terms = _chebyshev_terms(h, graph.laplacian_scaled, params.order)
    return _combine(terms, params, activation)


def _chebyshev_terms(h, lap, order: int):
    """T_0 H, ..., T_order H, each made only when the previous one is used, so
    a DiffValue H records the recursion interleaved with the weight products;
    an ndarray H stays off the tape."""
    matmul = ad.matmul if isinstance(h, DiffValue) else (lambda a, b: a @ b)
    yield h
    t_prev, t_cur = None, h
    for k in range(1, order + 1):
        if k == 1:
            t_next = matmul(lap, h)
        else:
            t_next = 2.0 * matmul(lap, t_cur) - t_prev
        yield t_next
        t_prev, t_cur = t_cur, t_next


def _combine(terms, params: ChebLayerParams, activation: str) -> DiffValue:
    """T_0 H W_0 + T_1 H W_1 + ... + bias, summed in that order, then the
    activation."""
    out = None
    for term, weight in zip(terms, params.weights):
        product = ad.matmul(term, weight)
        out = product if out is None else out + product
    out = out + params.bias
    if activation == "relu":
        return ad.relu(out)
    if activation == "none":
        return out
    raise ValueError(f"unknown activation {activation!r}")


@dataclass(frozen=True, eq=False)
class ChebyshevBasis:
    """The first layer's constant terms [T_0 X, ..., T_K X] for one feature
    matrix X on one graph."""

    terms: tuple
    graph: ElementGraph

    @property
    def order(self) -> int:
        return len(self.terms) - 1


def chebyshev_basis(
    features: FourierFeatures | np.ndarray, graph: ElementGraph, order: int
) -> ChebyshevBasis:
    """Build the first layer's Chebyshev terms once, off the tape.

    The features are constant through a run, so their products with the
    Laplacian are too; :func:`predict_blueprint` accepts the result in place
    of the features and then records only the weight products of layer 0.
    """
    feats = features.features if isinstance(features, FourierFeatures) else features
    x = np.asarray(feats, dtype=float)
    if x.ndim != 2 or x.shape[0] != graph.laplacian_scaled.shape[0]:
        raise ValueError(
            f"feature matrix shape {x.shape} does not match a graph of "
            f"{graph.laplacian_scaled.shape[0]} elements"
        )
    return ChebyshevBasis(tuple(_chebyshev_terms(x, graph.laplacian_scaled, order)), graph)


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
    features: ChebyshevBasis | FourierFeatures | np.ndarray,
    graph: ElementGraph,
    layers: list[ChebLayerParams],
    tape: Tape | None = None,
) -> DiffValue:
    """Blueprint densities in (0, 1): stacked spectral layers, ReLU hidden,
    sigmoid head.

    features is the raw feature matrix or its :func:`chebyshev_basis` on
    ``graph``, which a loop builds once instead of once per call. Either way
    the first layer's terms are constants: the tape records no node for them
    and computes no adjoint of them.

    The head logits are bounded to +-8 with a straight-through clamp: the
    field can still go effectively solid/void (sigmoid(8) = 0.99966) but the
    head never saturates beyond recovery during training.
    """
    if tape is None:
        for layer in layers:
            if isinstance(layer.bias, DiffValue):
                tape = layer.bias.tape
                break
        else:
            raise ValueError("pass a tape when all parameters are constants")
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
    activations = ["relu"] * (len(layers) - 1) + ["none"]
    # each product needs a tape operand, and the basis is constant
    weights = [w if isinstance(w, DiffValue) else tape.leaf(w) for w in first.weights]
    h = _combine(basis.terms, ChebLayerParams(weights, first.bias), activations[0])
    for layer, activation in zip(layers[1:], activations[1:]):
        h = cheb_layer_forward(h, graph, layer, activation=activation)
    logits = ad.clamp_straight_through(h, -_LOGIT_BOUND, _LOGIT_BOUND)
    out = ad.sigmoid(logits)
    return ad.reshape(out, (out.value.shape[0],))


def save_parameters(path, layers: list[ChebLayerParams]) -> None:
    """Checkpoint format: magic line, then per array an ASCII header line
    "<name> <dim0>[,<dim1>]" followed by the raw little-endian float64 bytes
    (C order), terminated by an "end" line."""
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        for i, layer in enumerate(layers):
            arrays = [(f"layer{i}.theta{k}", w) for k, w in enumerate(layer.weights)]
            arrays.append((f"layer{i}.bias", layer.bias))
            for name, arr in arrays:
                arr = np.ascontiguousarray(np.asarray(arr, dtype="<f8"))
                shape = ",".join(str(d) for d in arr.shape)
                fh.write(f"{name} {shape}\n".encode())
                fh.write(arr.tobytes())
        fh.write(b"end\n")


def load_parameters(path) -> list[ChebLayerParams]:
    """Load a checkpoint written by :func:`save_parameters`."""
    with open(path, "rb") as fh:
        if fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a topofield parameter checkpoint")
        arrays: dict[str, np.ndarray] = {}
        while True:
            header = _read_line(fh)
            if header == "end":
                break
            name, shape_txt = header.rsplit(" ", 1)
            shape = tuple(int(d) for d in shape_txt.split(","))
            count = int(np.prod(shape))
            raw = fh.read(8 * count)
            if len(raw) != 8 * count:
                raise ValueError(f"{path}: truncated array {name!r}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
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


def _read_line(fh) -> str:
    chars = bytearray()
    while True:
        ch = fh.read(1)
        if not ch:
            raise ValueError("unexpected end of checkpoint file")
        if ch == b"\n":
            return chars.decode()
        chars.extend(ch)
