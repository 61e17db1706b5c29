"""Structured quad mesh, element-adjacency graph, and Fourier input features.

Elements are numbered layer-major: index e = (i-1)*nelx + (j-1) where layer
i = 1 sits on the base plate and i increases along the print direction.
Nodes are numbered the same way on the (nelx+1) x (nely+1) grid, with DOFs
(2n, 2n+1) for the x/y displacement of node n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class StructuredMesh:
    """Regular grid of bilinear quadrilateral elements.

    Attributes
    ----------
    nelx, nely : element counts along the span and the print direction.
    elem_size : physical edge length of the (square) elements.
    node_coords : (n_nodes, 2) nodal coordinates.
    elem_centroids : (n_elems, 2) element centroid coordinates.
    dof_map : (n_elems, 8) global displacement DOF indices per element, node
        order counter-clockwise from the bottom-left corner.
    """

    nelx: int
    nely: int
    elem_size: float
    node_coords: np.ndarray
    elem_centroids: np.ndarray
    dof_map: np.ndarray

    @property
    def n_elems(self) -> int:
        return self.nelx * self.nely

    @property
    def n_nodes(self) -> int:
        return (self.nelx + 1) * (self.nely + 1)

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_nodes

    def node_id(self, jx: int, iy: int) -> int:
        """Global node index at grid position (column jx, row iy)."""
        return iy * (self.nelx + 1) + jx


@dataclass(frozen=True)
class ElementGraph:
    """Element-adjacency graph with its scaled Laplacian."""

    adjacency: sp.csr_array
    laplacian_scaled: sp.csr_array


def build_mesh(nelx: int, nely: int, elem_size: float = 1.0) -> StructuredMesh:
    """Build a structured mesh of nelx x nely square bilinear quads.

    Raises ValueError for non-positive dimensions.
    """
    if nelx < 1 or nely < 1:
        raise ValueError(f"mesh dimensions must be positive, got {nelx}x{nely}")
    if not 0 < elem_size < np.inf:
        raise ValueError("elem_size must be positive and finite")
    h = float(elem_size)

    jx, iy = np.meshgrid(np.arange(nelx + 1), np.arange(nely + 1))
    node_coords = np.column_stack([jx.ravel() * h, iy.ravel() * h]).astype(float)

    ej, ei = np.meshgrid(np.arange(nelx), np.arange(nely))
    ej, ei = ej.ravel(), ei.ravel()
    elem_centroids = np.column_stack([(ej + 0.5) * h, (ei + 0.5) * h])

    # corner nodes counter-clockwise: bottom-left, bottom-right, top-right, top-left
    n_bl = ei * (nelx + 1) + ej
    n_br = n_bl + 1
    n_tr = n_bl + (nelx + 1) + 1
    n_tl = n_bl + (nelx + 1)
    corners = np.column_stack([n_bl, n_br, n_tr, n_tl])
    dof_map = np.empty((nelx * nely, 8), dtype=np.int64)
    dof_map[:, 0::2] = 2 * corners
    dof_map[:, 1::2] = 2 * corners + 1

    return StructuredMesh(nelx, nely, h, node_coords, elem_centroids, dof_map)


def build_element_graph(mesh: StructuredMesh) -> ElementGraph:
    """Element graph with 4-neighborhood edges (shared mesh edge).

    The normalized Laplacian is L = D^{-1/2} A D^{-1/2} - I, and ChebNet's
    scaled Laplacian is 2 L / lambda_max - I. The grid graph is bipartite
    (colour the elements like a chessboard), so lambda_max = -2 on any mesh
    with an edge and the scaled Laplacian is -D^{-1/2} A D^{-1/2}, whose
    spectrum spans [-1, 1] exactly. A lone element's row stays empty.
    """
    n = mesh.n_elems
    ids = np.arange(n).reshape(mesh.nely, mesh.nelx)
    pairs = np.vstack([
        np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()]),
        np.column_stack([ids[:-1, :].ravel(), ids[1:, :].ravel()]),
    ])
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    adjacency = sp.csr_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    degree = adjacency.sum(axis=1)
    # a lone element (degree 0) has an empty row, whatever scale it is given
    dhalf = sp.diags_array(1.0 / np.sqrt(np.maximum(degree, 1)), format="csr")
    return ElementGraph(adjacency, -(dhalf @ adjacency @ dhalf))


def normalize_centroids(mesh: StructuredMesh) -> np.ndarray:
    """Map element centroids onto [0, 1]^2, each axis independently."""
    c = mesh.elem_centroids.copy()
    c[:, 0] /= mesh.nelx * mesh.elem_size
    c[:, 1] /= mesh.nely * mesh.elem_size
    return c


def fourier_encode(centroids: np.ndarray, m: int, scale: float, seed: int) -> np.ndarray:
    """The (n, 2m) features [sin(2 pi B x), cos(2 pi B x)], one row per element.

    B is an (m, 2) matrix with i.i.d. Gaussian(0, scale^2) entries drawn from
    ``np.random.default_rng(seed).normal(0.0, scale, (m, 2))``; that draw is
    part of the reproducibility contract. Coordinates are expected in [0,1]^2
    (see :func:`normalize_centroids`).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= scale < np.inf:
        raise ValueError("scale must be non-negative and finite")
    pts = np.atleast_2d(np.asarray(centroids, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError("centroids must be finite")
    freq = np.random.default_rng(seed).normal(0.0, scale, (m, 2))
    phase = 2.0 * np.pi * (pts @ freq.T)
    return np.concatenate([np.sin(phase), np.cos(phase)], axis=1)
