"""Walk through the geometric substrate: structured mesh, element graph,
scaled Laplacian, and Fourier-encoded centroid features."""

import numpy as np

from topofield import build_element_graph, build_mesh, fourier_encode
from topofield.meshgraph import normalize_centroids

mesh = build_mesh(6, 3)
print(f"mesh: {mesh.nelx} x {mesh.nely} elements, {mesh.n_nodes} nodes, {mesh.n_dofs} DOFs")
print("first element DOF indices:", mesh.dof_map[0])

graph = build_element_graph(mesh)
# every neighbour holds a nonzero Laplacian entry, so a row's length is the degree
print("\nelement degrees (grid layout, base layer last):")
print(np.flipud(np.diff(graph.laplacian_scaled.indptr).reshape(mesh.nely, mesh.nelx)))

eigs = np.linalg.eigvalsh(graph.laplacian_scaled.toarray())
print(f"\nscaled Laplacian spectrum: [{eigs.min():.6f}, {eigs.max():.6f}]  (bipartite grid: [-1, 1])")

feats = fourier_encode(normalize_centroids(mesh), m=8, scale=2.0, seed=0)
print(f"\nFourier features: shape {feats.shape}, entries in "
      f"[{feats.min():.3f}, {feats.max():.3f}]")
print("feature vector of element 0:", np.round(feats[0], 3))
