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
    elem_centroids : (n_elems, 2) element centroid coordinates.
    dof_map : (n_elems, 8) global displacement DOF indices per element, node
        order counter-clockwise from the bottom-left corner.
    """

    nelx: int
    nely: int
    elem_size: float
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
    """Element-adjacency graph as its scaled Laplacian, whose off-diagonal
    pattern is the adjacency: every entry -1/sqrt(d_i d_j) is nonzero."""

    laplacian_scaled: sp.csr_array


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def build_mesh(nelx: int, nely: int, elem_size: float = 1.0) -> StructuredMesh:
    """Build a structured mesh of nelx x nely square bilinear quads.

    Raises ValueError for dimensions that are not positive integers.
    """
    if not (is_integer(nelx) and is_integer(nely)) or nelx < 1 or nely < 1:
        raise ValueError(f"mesh dimensions must be positive integers, got {nelx!r}x{nely!r}")
    if not 0 < elem_size < np.inf:
        raise ValueError("elem_size must be positive and finite")
    h = float(elem_size)

    ej, ei = np.meshgrid(np.arange(nelx), np.arange(nely))
    ej, ei = ej.ravel(), ei.ravel()
    elem_centroids = np.column_stack([(ej + 0.5) * h, (ei + 0.5) * h])

    # corner nodes counter-clockwise from the bottom-left one, as offsets from
    # it: bottom-left, bottom-right, top-right, top-left; x then y DOF of each
    corners = np.array([0, 1, nelx + 2, nelx + 1])
    dof_map = 2 * (ei * (nelx + 1) + ej)[:, None] + (2 * corners[:, None] + [0, 1]).ravel()

    return StructuredMesh(nelx, nely, h, elem_centroids, dof_map)


def build_element_graph(mesh: StructuredMesh) -> ElementGraph:
    """Element graph with 4-neighborhood edges (shared mesh edge).

    The normalized Laplacian is L = D^{-1/2} A D^{-1/2} - I, and ChebNet's
    scaled Laplacian is 2 L / lambda_max - I. The grid graph is bipartite
    (colour the elements like a chessboard), so lambda_max = -2 on any mesh
    with an edge and the scaled Laplacian is -D^{-1/2} A D^{-1/2}, whose
    spectrum spans [-1, 1] exactly. A lone element's row stays empty.
    It is written directly in canonical CSR: row e lists the neighbours
    e - nelx, e - 1, e + 1, e + nelx that exist, each holding -1/sqrt(d_e d_nbr).
    """
    nelx, nely, n = mesh.nelx, mesh.nely, mesh.n_elems
    # the neighbours below, left, right and above, where the mesh has them
    exists = np.ones((nely, nelx, 4), dtype=bool)
    exists[0, :, 0] = exists[:, 0, 1] = exists[:, -1, 2] = exists[-1, :, 3] = False
    degree = exists.sum(axis=2).ravel()
    indptr = np.concatenate([[0], np.cumsum(degree)])
    indices = (np.arange(n).reshape(n, 1) + np.array([-nelx, -1, 1, nelx]))[exists.reshape(n, 4)]
    # a lone element (degree 0) has an empty row, whatever scale it is given
    dhalf = 1.0 / np.sqrt(np.maximum(degree, 1))
    scaled = np.repeat(-dhalf, degree) * dhalf[indices]
    return ElementGraph(sp.csr_array((scaled, indices, indptr), shape=(n, n)))


def normalize_centroids(mesh: StructuredMesh) -> np.ndarray:
    """Map element centroids onto [0, 1]^2, each axis independently."""
    return mesh.elem_centroids / (np.array([mesh.nelx, mesh.nely]) * mesh.elem_size)


def fourier_encode(centroids: np.ndarray, m: int, scale: float, seed: int) -> np.ndarray:
    """The (n, 2m) features [sin(2 pi B x), cos(2 pi B x)], one row per element.

    B is an (m, 2) matrix with i.i.d. Gaussian(0, scale^2) entries drawn from
    ``np.random.default_rng(seed).normal(0.0, scale, (m, 2))``; that draw is
    part of the reproducibility contract. Coordinates are expected in [0,1]^2
    (see :func:`normalize_centroids`), as an (n, 2) matrix.

    The phase 2 pi B x is alpha + beta, alpha = 2 pi B[:, 0] x_1 and beta =
    2 pi B[:, 1] x_2: sin and cos run on each coordinate's distinct values
    only (nelx + nely per frequency on the grid) and angle addition joins
    them. The features equal the direct evaluation up to rounding, not bit
    for bit, and are clipped to [-1, 1].
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= scale < np.inf:
        raise ValueError("scale must be non-negative and finite")
    pts = np.asarray(centroids, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"centroids must be an (n, 2) matrix, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("centroids must be finite")
    freq = np.random.default_rng(seed).normal(0.0, scale, (m, 2))
    (x, ix), (y, iy) = (np.unique(pts[:, k], return_inverse=True) for k in (0, 1))
    alpha, beta = 2.0 * np.pi * np.outer(x, freq[:, 0]), 2.0 * np.pi * np.outer(y, freq[:, 1])
    sin_x, cos_x, sin_y, cos_y = np.sin(alpha), np.cos(alpha), np.sin(beta), np.cos(beta)
    # three n x m buffers ("clip" mode gathers into them unbuffered), taken
    # before the output: freed, they leave the heap below the features as the
    # direct phase, sin and cos would, and a run's peak memory turns on that
    u, v, w = np.empty((3, len(pts), m))
    out = np.empty((len(pts), 2 * m))
    sin, cos = out[:, :m], out[:, m:]
    for table, index, buf in ((sin_x, ix, u), (cos_x, ix, v), (cos_y, iy, w)):
        np.take(table, index, axis=0, out=buf, mode="clip")
    np.multiply(u, w, out=sin)  # sin alpha cos beta
    np.multiply(v, w, out=cos)  # cos alpha cos beta
    np.take(sin_y, iy, axis=0, out=w, mode="clip")
    sin += np.multiply(v, w, out=v)  # + cos alpha sin beta
    cos -= np.multiply(u, w, out=u)  # - sin alpha sin beta
    return np.clip(out, -1.0, 1.0, out=out)
