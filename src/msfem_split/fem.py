"""Bilinear (Q1) finite element machinery on structured fine grids.

Coefficients are piecewise constant per fine cell, so every stiffness
integral is exact: the element matrix is the coefficient value times the
reference rectangle stiffness.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp


def element_stiffness(hx, hy):
    """Exact Q1 stiffness for a hx x hy rectangle with unit coefficient.

    Node order (0,0),(1,0),(1,1),(0,1).
    """
    sx = np.array([[2, -2, -1, 1],
                   [-2, 2, 1, -1],
                   [-1, 1, 2, -2],
                   [1, -1, -2, 2]], dtype=float)
    sy = np.array([[2, 1, -1, -2],
                   [1, 2, -2, -1],
                   [-1, -2, 2, 1],
                   [-2, -1, 1, 2]], dtype=float)
    return (hy / hx) * sx / 6.0 + (hx / hy) * sy / 6.0


def _spd(cholesky, *args, **kwargs):
    """cholesky(*args, **kwargs), its failure reported as a non-SPD matrix."""
    try:
        return cholesky(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"matrix is not SPD: {exc}") from exc


def solve_spd(matrix, rhs):
    """Solve an SPD system by Cholesky factorization."""
    c = _spd(sla.cho_factor, matrix, lower=True, check_finite=False)
    return sla.cho_solve(c, rhs, check_finite=False)


def band_cholesky(bands):
    """solve(rhs) for SPD A in lower band storage: bands[d, j] = A[j+d, j]."""
    c = _spd(sla.cholesky_banded, bands, lower=True, check_finite=False)
    return lambda rhs: sla.cho_solve_banded((c, True), rhs, check_finite=False)


# Local blocks up to this order are factored for a whole stack of cells in one
# batched call and applied as explicit inverses; larger ones are banded, cell
# by cell.  Standard + J<=4 bases of 144 cells, 1 BLAS thread, 2-core Xeon:
# batched 20/40/73 ms against banded 33/38/41 ms at n=25/36/49.
BATCHED_MAX_N = 25


def _compressed_scatter(targets, cols, vals, n_cols):
    """(nonzero target rows, sparse map onto just those rows)."""
    rows, pos = np.unique(targets, return_inverse=True)
    return rows, sp.csr_matrix((vals, (pos, cols)),
                               shape=(len(rows), n_cols))


class LocalAssembler:
    """Per-coarse-cell Q1 assembly helper.

    All coarse cells share the same local geometry, so the sparse maps from
    the r^2 local coefficient values to the local matrices are built once
    per mesh.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        r = mesh.r
        n_loc = self.n_loc = (r + 1) ** 2
        self.ke = element_stiffness(mesh.hx, mesh.hy)
        self.conn = mesh.local_element_nodes
        self.interior = mesh.local_interior_mask
        self.interior_idx = np.flatnonzero(self.interior)
        nk = self.n_interior = mesh.n_interior

        # bilinear coarse-vertex hats on the local nodes, vertex order
        # (0,0),(1,0),(1,1),(0,1)
        s = np.tile(np.arange(r + 1) / r, r + 1)
        t = np.repeat(np.arange(r + 1) / r, r + 1)
        self.hats = np.column_stack(
            [(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t])

        # element stencil entries: row node a, column node b, element e
        a = np.repeat(self.conn, 4, axis=1).ravel()
        b = np.tile(self.conn, (1, 4)).ravel()
        e = np.repeat(np.arange(r * r), 16)
        vals = np.tile(self.ke.ravel(), r * r)
        # interior rows only, straight from the stencil: -> flattened M, and
        # -> v = (A @ hats)[interior]; each keeps only its nonzero rows
        pos = np.full(n_loc, -1)
        pos[self.interior_idx] = np.arange(nk)
        row = pos[a] >= 0
        both = row & (pos[b] >= 0)
        self._interior_scatter = _compressed_scatter(
            pos[a[both]] * nk + pos[b[both]], e[both], vals[both], r * r)
        self._vertex_scatter = _compressed_scatter(
            ((pos[a[row]] * 4)[:, None] + np.arange(4)).ravel(),
            np.repeat(e[row], 4),
            (vals[row, None] * self.hats[b[row]]).ravel(), r * r)

    def interior_matrices(self, kappa):
        """(..., nK, nK) interior stiffness for (..., r^2) coefficients."""
        return self._stack(self._interior_scatter, kappa, self.n_interior)

    def vertex_vectors(self, kappa):
        """(..., nK, 4) interior rows of the stiffness times the hats."""
        return self._stack(self._vertex_scatter, kappa, 4)

    def _stack(self, scatter, kappa, width):
        rows, matrix = scatter
        kappa = np.asarray(kappa, float)
        flat = kappa.reshape(-1, kappa.shape[-1])
        # filled row by row in C order: batched matmul and Cholesky run
        # several times slower on a transposed stack
        out = np.zeros((len(flat), self.n_interior * width))
        out[:, rows] = (matrix @ flat.T).T
        return out.reshape(kappa.shape[:-1] + (self.n_interior, width))

    def quadratic_form(self, kappa_local, values):
        """Exact energy (k grad v, grad v) over the coarse cell."""
        ve = values[self.conn]
        return float(np.einsum("e,ei,ij,ej->", kappa_local, ve, self.ke, ve))


@dataclass
class LocalOperators:
    """Interior-node stiffness matrices and vertex vectors of coarse cells.

    For one cell M0 and M1 are (n_interior, n_interior) and v0, v1 are
    (n_interior, 4) with one column per coarse vertex; for an array of
    cells each carries a leading cell axis.
    """

    cell: object
    assembler: LocalAssembler
    M0: np.ndarray
    M1: np.ndarray
    v0: np.ndarray
    v1: np.ndarray


def assemble_local_operators(mesh, cell, splitting, assembler=None):
    """Assemble M0, M1, v0 and v1 on a coarse cell or a sequence of cells."""
    asm = LocalAssembler(mesh) if assembler is None else assembler
    fine = mesh.cell_fine_cells(cell)
    k0 = splitting.k0[fine]
    k1 = splitting.k1[fine]
    if np.any(k0 <= 0.0):
        raise ValueError("k0 must be strictly positive on every fine cell")
    return LocalOperators(cell=cell, assembler=asm,
                          M0=asm.interior_matrices(k0),
                          M1=asm.interior_matrices(k1),
                          v0=asm.vertex_vectors(k0), v1=asm.vertex_vectors(k1))


def cell_cholesky(mats, bandwidth):
    """One Cholesky per matrix of a (cells, n, n) SPD stack.

    Returns solve(rhs) for right-hand sides of shape (cells, n, k).  Blocks
    above BATCHED_MAX_N are banded with the given half-bandwidth, r for a cell.
    """
    n = mats.shape[-1]
    if n > BATCHED_MAX_N:
        bands = np.zeros((len(mats), bandwidth + 1, n))
        for d in range(min(bandwidth, n - 1) + 1):
            bands[:, d, :n - d] = np.diagonal(mats, -d, axis1=1, axis2=2)
        solves = [band_cholesky(b) for b in bands]
        return lambda rhs: np.stack([s(b) for s, b in zip(solves, rhs)])
    inv_l = np.linalg.inv(_spd(np.linalg.cholesky, mats))
    inverse = inv_l.transpose(0, 2, 1) @ inv_l
    return lambda rhs: inverse @ rhs


# ---- global fine-grid machinery -------------------------------------------


def fine_stiffness(mesh, k):
    """Sparse global Q1 stiffness over all fine nodes."""
    k = np.asarray(k, float)
    conn = mesh.fine_element_nodes
    ke = element_stiffness(mesh.hx, mesh.hy)
    vals = (k[:, None, None] * ke).ravel()
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(mesh.n_fine_nodes, mesh.n_fine_nodes))


def fine_stiffness_band(mesh, k):
    """Stiffness on the free fine nodes in lower band storage.

    x runs fastest, so the half-bandwidth is the row length mesh.nxf.
    """
    free = ~mesh.boundary_node_mask()
    n = int(free.sum())
    pos = np.where(free, np.cumsum(free) - 1, -1)[mesh.fine_element_nodes]
    row, col = pos[:, :, None], pos[:, None, :]
    keep = (col >= 0) & (row >= col)
    ke = element_stiffness(mesh.hx, mesh.hy)
    vals = np.asarray(k, float)[:, None, None] * ke
    return np.bincount(((row - col) * n + col)[keep], vals[keep],
                       minlength=(mesh.nxf + 1) * n).reshape(-1, n)


def fine_load(mesh, f):
    """Global load vector for a cellwise-constant source."""
    f = np.asarray(f, float)
    conn = mesh.fine_element_nodes
    contrib = f * (mesh.hx * mesh.hy / 4.0)
    out = np.zeros(mesh.n_fine_nodes)
    np.add.at(out, conn.ravel(), np.repeat(contrib, 4))
    return out


def fine_reference_solve(mesh, k, f=None):
    """Galerkin solution of -div(k grad u) = f with zero Dirichlet data."""
    k = np.asarray(k, float)
    if np.any(k <= 0.0):
        raise ValueError("coefficient must be strictly positive")
    f = np.ones(mesh.n_fine_cells) if f is None else f
    free = ~mesh.boundary_node_mask()
    u = np.zeros(mesh.n_fine_nodes)
    u[free] = band_cholesky(fine_stiffness_band(mesh, k))(
        fine_load(mesh, f)[free])
    return u


def energy_norm(mesh, k, v):
    """Energy norm sqrt((k grad v, grad v)) over the whole domain."""
    ve = np.asarray(v, float)[mesh.fine_element_nodes]
    ke = element_stiffness(mesh.hx, mesh.hy)
    val = np.asarray(k, float) @ np.einsum("ei,ei->e", ve @ ke, ve)
    return float(np.sqrt(max(val, 0.0)))
