"""The spectral graph-convolution field: predict a blueprint from Fourier
features, then round-trip the parameters through the checkpoint format."""

import tempfile
from pathlib import Path

import numpy as np

from topofield import NetworkConfig, Tape, build_element_graph, build_mesh, init_parameters, predict_blueprint
from topofield.meshgraph import fourier_encode, normalize_centroids
from topofield.neuralfield import leaf_parameters, load_parameters, save_parameters

mesh = build_mesh(10, 5)
graph = build_element_graph(mesh)
feats = fourier_encode(normalize_centroids(mesh), m=16, scale=2.0, seed=0)

config = NetworkConfig(layer_widths=(32, 24, 24, 1), cheb_order=1, seed=0)
layers = init_parameters(config, volume_target=0.5)
print("layers:", [(len(l.weights), l.weights[0].shape, l.bias.shape) for l in layers])

tape = Tape()
b = predict_blueprint(feats, graph, leaf_parameters(tape, layers))
print(f"blueprint: shape {b.value.shape}, range ({b.value.min():.3f}, {b.value.max():.3f}), "
      f"mean {b.value.mean():.3f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "weights.ckpt"
    save_parameters(path, layers)
    print(f"\ncheckpoint: {path.stat().st_size} bytes "
          f"(name/shape header + little-endian float64 per array)")
    reloaded = load_parameters(path)
    same = all(
        np.array_equal(wa, wb)
        for la, lb in zip(layers, reloaded)
        for wa, wb in zip(la.weights + [la.bias], lb.weights + [lb.bias])
    )
    print("bit-identical after reload:", same)
