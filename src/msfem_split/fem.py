"""Bilinear (Q1) finite element machinery on structured fine grids.

Coefficients are piecewise constant per fine cell, so every stiffness
integral is exact: the element matrix is the coefficient value times the
reference rectangle stiffness.
"""

import ctypes
from dataclasses import dataclass
from functools import lru_cache, partial
from math import isqrt, prod

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cython_lapack


@lru_cache(maxsize=8)
def element_stiffness(hx, hy):
    """Exact Q1 stiffness for a hx x hy rectangle with unit coefficient.

    Node order (0,0),(1,0),(1,1),(0,1).  Built once per rectangle and
    shared by every caller, so the array is read-only.
    """
    sx = np.array([[2, -2, -1, 1],
                   [-2, 2, 1, -1],
                   [-1, 1, 2, -2],
                   [1, -1, -2, 2]], dtype=float)
    sy = np.array([[2, 1, -1, -2],
                   [1, 2, -2, -1],
                   [-1, -2, 2, 1],
                   [-2, -1, 1, 2]], dtype=float)
    ke = (hy / hx) * sx / 6.0 + (hx / hy) * sy / 6.0
    ke.flags.writeable = False
    return ke


# ---- banded Cholesky through LAPACK ----------------------------------------
#
# dpbtrf and dpbtrs are called through the C function pointers that
# scipy.linalg.cython_lapack exports, the routines scipy's f2py wrappers
# (cholesky_banded, cho_solve_banded, lapack.dpbtrf) call as well, so the
# bits are theirs.  A ctypes call releases the GIL while the routine runs,
# which those wrappers do not: a band factored on a worker thread overlaps
# Python work on the calling one.

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _lapack(name, *argtypes):
    """The ctypes function of cython_lapack's routine `name`."""
    capsule = cython_lapack.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *argtypes)(
        _capsule_pointer(capsule, _capsule_name(capsule)))


_INT = ctypes.POINTER(ctypes.c_int)
_DPBTRF = _lapack("dpbtrf", ctypes.c_char_p, _INT, _INT, ctypes.c_void_p,
                  _INT, _INT)
_DPBTRS = _lapack("dpbtrs", ctypes.c_char_p, _INT, _INT, _INT,
                  ctypes.c_void_p, _INT, ctypes.c_void_p, _INT, _INT)


def _ints(*values):
    """References to LAPACK integer arguments."""
    return [ctypes.byref(ctypes.c_int(v)) for v in values]


def _check_buffer(a, name, ndim):
    """Refuse an array that LAPACK may not read or write in place."""
    if a.dtype != np.float64 or a.ndim not in ndim or \
            not a.flags.f_contiguous or not a.flags.writeable:
        raise ValueError(f"{name} must be a writeable Fortran-ordered "
                         f"float64 array of {' or '.join(map(str, ndim))} "
                         f"dimensions")


def _band_factor(ab, block=None):
    """Factor SPD lower band storage ab (w, n) in place into its Cholesky L.

    ab is a writeable Fortran-ordered float64 array, ab[d, j] = A[j+d, j].
    A pivot that is not positive raises LinAlgError with its index and
    value; given block, as the index within the block of that order and
    the block's number, a cell of a block-diagonal band.
    """
    _check_buffer(ab, "ab", (2,))
    w, n = ab.shape
    info = ctypes.c_int()
    _DPBTRF(b"L", *_ints(n, w - 1), ab.ctypes.data, *_ints(w),
            ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"dpbtrf: argument {-info.value} is illegal")
    if info.value > 0:
        j = info.value - 1
        where = f"pivot {j} is {ab[0, j]:.3g}" if block is None else \
            f"pivot {j % block} is {ab[0, j]:.3g} in cell {j // block}"
        raise np.linalg.LinAlgError(f"matrix is not SPD: {where}")
    return ab


def _band_solve(c, b):
    """Solve L L^T x = b in place for c = _band_factor's L; b is (n,) or
    (n, k), writeable, Fortran-ordered float64.  Returns b."""
    _check_buffer(c, "c", (2,))
    _check_buffer(b, "b", (1, 2))
    w, n = c.shape
    if len(b) != n:
        raise ValueError(f"b has {len(b)} rows, the factor order {n}")
    info = ctypes.c_int()
    _DPBTRS(b"L", *_ints(n, w - 1, b.size // max(n, 1)), c.ctypes.data,
            *_ints(w), b.ctypes.data, *_ints(max(n, 1)), ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"dpbtrs: argument {-info.value} is illegal")
    return b


def _band_solver(c):
    """solve(rhs) of _band_factor's factor c, for rhs whose leading axes
    hold its n rows: (n,), (n, k) or, for cells, (cells, n / cells, k)."""
    n = c.shape[1]

    def solve(rhs):
        rhs = np.asarray(rhs)
        rows = prod(rhs.shape[:-1]) if rhs.ndim > 1 else rhs.size
        if rows != n:
            raise ValueError(f"rhs of shape {rhs.shape} has {rows} rows, "
                             f"the factor order {n}")
        x = np.array(rhs.reshape(n, -1), dtype=float, order="F")
        return _band_solve(c, x).reshape(rhs.shape)
    return solve


def band_cholesky(bands):
    """solve(rhs) for SPD A in lower band storage: bands[d, j] = A[j+d, j]."""
    return _band_solver(_band_factor(np.array(bands, dtype=float, order="F")))


# Local blocks up to this order are expanded to dense for a whole stack of
# cells: packed_inverses inverts them by spd_inverse and cell_matmul applies
# them by batched matmul.  Larger ones stay in band storage, factored as one
# block-diagonal band and applied one nonzero diagonal at a time.  1 BLAS
# thread, 2-core Xeon: standard + J<=4 bases of 144 cells take
# 1.0-1.5/5.1-6.0/12-19/46-58 ms batched against 3.3/5.2/8.5/13 ms banded
# at n=9/16/25/36, so the band is the faster from n=16 (r=5) on.
# Applying M1 to 4 columns takes 0.019 ms by dense matmul and 0.42 ms by
# diagonals over 256 cells at n=9, and 16 ms against 1.5 ms over 16 cells
# at n=841.
BATCHED_MAX_N = 9


def is_banded(n):
    """True when local blocks of order n take the banded regime.

    Their stacks are then factored as one block-diagonal band by the
    GIL-free LAPACK binding and applied one diagonal at a time; otherwise
    they are expanded to dense and treated by batched numpy, which holds
    the GIL.  The one test of the local-block regime.
    """
    return n > BATCHED_MAX_N


@lru_cache(maxsize=8)
def stencil_offsets(n):
    """Offsets of the nonzero diagonals of a local interior stiffness.

    The n interior nodes of a cell run row-major over rows of s = sqrt(n)
    nodes, so the 9-point stencil couples each node only with those at
    offsets 1 (next in its row) and s - 1, s and s + 1 (the row above).
    Local stacks store just these diagonals, in this order, 0 first: row i
    of a (..., w, n) stack holds bands[i, j] = M[j + d_i, j].  Up to s = 3
    (r = 4) the offsets are 0 .. s + 1, so the stack is the (r+1)-row
    lower band storage; from r = 5 on it has 5 rows instead of r + 1.
    """
    s = isqrt(n)
    if n < 1 or s * s != n:
        raise ValueError(f"{n} interior nodes do not form a square grid")
    return tuple(sorted({0, 1, s - 1, s, s + 1}))


def _stencil_rows(bands):
    """stencil_offsets of a (..., w, n) local stack, checked against w."""
    w, n = bands.shape[-2:]
    offsets = stencil_offsets(n)
    if len(offsets) != w:
        raise ValueError(f"a local stack on {n} nodes has {len(offsets)} "
                         f"stencil rows, not {w}")
    return offsets


def _stored_rows(offsets, size):
    """Row of each diagonal 0 .. size-1 in a stack of the diagonals at
    offsets, len(offsets) for those it does not store."""
    rows = np.full(max(size, offsets[-1] + 1), len(offsets))
    rows[list(offsets)] = np.arange(len(offsets))
    return rows


@lru_cache(maxsize=8)
def _band_index(n):
    """(n, n) flat positions in (w, n) local stencil storage, whose rows
    hold the diagonals at stencil_offsets(n); position w * n is a zero."""
    offsets = stencil_offsets(n)
    w = len(offsets)
    row, col = np.indices((n, n))
    stored = _stored_rows(offsets, n)[np.abs(row - col)]
    index = np.where(stored < w, stored * n + np.minimum(row, col), w * n)
    index.flags.writeable = False  # shared by every caller
    return index


def stencil_to_dense(bands):
    """(..., n, n) matrices of local stencil stacks (..., w, n), such as
    LocalOperators.M0; see stencil_offsets for their rows."""
    n = bands.shape[-1]
    w = len(_stencil_rows(bands))  # the rows checked against n
    flat = np.zeros(bands.shape[:-2] + (w * n + 1,))
    flat[..., :-1] = bands.reshape(bands.shape[:-2] + (w * n,))
    return np.take(flat, _band_index(n), axis=-1)


def _compressed_scatter(targets, cols, vals, n_cols):
    """(nonzero target rows, sparse map onto just those rows)."""
    rows, pos = np.unique(targets, return_inverse=True)
    return rows, sp.csr_matrix((vals, (pos, cols)),
                               shape=(len(rows), n_cols))


def _fill(scatter, flat, out):
    """out[rows] = map @ flat.T, for a zeroed (entries, ...) out."""
    rows, matrix = scatter
    out[rows] = matrix @ flat.T


def _stencil_band_scatter(conn, ke, pos, target):
    """Compressed map from element coefficients to a stiffness lower band.

    conn (elements, 4) holds each element's nodes and pos each node's
    index among the kept nodes, -1 for the others; target(d, j) is the flat
    position of the band entry A[j+d, j].  Each column of the map is one
    element, each nonzero row one band entry, which sums its elements in
    ascending order.
    """
    a = pos[np.repeat(conn, 4, axis=1)].ravel()
    b = pos[np.tile(conn, (1, 4))].ravel()
    lower = (b >= 0) & (a >= b)
    return _compressed_scatter(
        target(a[lower] - b[lower], b[lower]),
        np.repeat(np.arange(len(conn)), 16)[lower],
        np.tile(ke.ravel(), len(conn))[lower], len(conn))


class LocalAssembler:
    """Per-coarse-cell Q1 assembly helper.

    All coarse cells share the same local geometry, so the sparse maps from
    the r^2 local coefficient values to the local operators are built once
    per mesh.  The interior stiffness is a 9-point stencil on the (r-1)^2
    interior grid, row-major over rows of r - 1 nodes, so it is assembled
    straight into stencil band storage (..., w, nK): row i holds the
    diagonal at offset d_i = stencil_offsets(nK)[i], bands[i, j] =
    M[j+d_i, j].  That is 5 rows from r = 5 on, against the r + 1 rows of
    lower band storage, which it equals up to r = 4.  hat_stiffness
    (16, r^2) takes a cell's coefficient values to the row-major hat
    energies H^T A_K H.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        r = mesh.r
        n_loc = self.n_loc = (r + 1) ** 2
        self.ke = element_stiffness(mesh.hx, mesh.hy)
        self.conn = mesh.local_element_nodes
        self.interior_idx = np.flatnonzero(mesh.local_interior_mask)
        nk = self.n_interior = mesh.n_interior

        # bilinear coarse-vertex hats on the local nodes, vertex order
        # (0,0),(1,0),(1,1),(0,1)
        s = np.tile(np.arange(r + 1) / r, r + 1)
        t = np.repeat(np.arange(r + 1) / r, r + 1)
        self.hats = np.column_stack(
            [(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t])
        he = self.hats[self.conn]  # (elements, element node, vertex)
        self.hat_stiffness = np.einsum(
            "eai,ab,ebj->ije", he, self.ke, he).reshape(16, r * r)

        # interior rows only, straight from the stencil: -> the stored
        # diagonals of M, and -> v = (A @ hats)[interior]; each keeps only
        # its nonzero rows
        pos = np.full(n_loc, -1)
        pos[self.interior_idx] = np.arange(nk)
        offsets = stencil_offsets(nk)
        self._band_shape = (len(offsets), nk)
        stored = _stored_rows(offsets, r + 1)
        self._band_scatter = _stencil_band_scatter(
            self.conn, self.ke, pos, lambda d, j: stored[d] * nk + j)
        # element stencil entries: row node a, column node b, element e
        a = np.repeat(self.conn, 4, axis=1).ravel()
        b = np.tile(self.conn, (1, 4)).ravel()
        e = np.repeat(np.arange(r * r), 16)
        vals = np.tile(self.ke.ravel(), r * r)
        row = pos[a] >= 0
        self._vertex_scatter = _compressed_scatter(
            ((pos[a[row]] * 4)[:, None] + np.arange(4)).ravel(),
            np.repeat(e[row], 4),
            (vals[row, None] * self.hats[b[row]]).ravel(), r * r)

    def interior_bands(self, kappa, out=None):
        """(..., w, nK) interior stiffness stencil bands for (..., r^2)
        values; w = len(stencil_offsets(nK)).

        Given out, a float64 array of that shape with a (..., w*nK) view
        (C-ordered, or the cells-first view of _cells_last's storage), they
        are written there, only the stencil's entries: the others must be
        zero already, as in np.zeros or after an earlier call.
        """
        return self._stack(self._band_scatter, kappa, self._band_shape, out)

    def vertex_vectors(self, kappa):
        """(..., nK, 4) interior rows of the stiffness times the hats."""
        return self._stack(self._vertex_scatter, kappa, (self.n_interior, 4))

    def _stack(self, scatter, kappa, shape, out=None):
        kappa = np.asarray(kappa, float)
        flat = kappa.reshape(-1, kappa.shape[-1])
        # filled row by row in C order: batched matmul runs several times
        # slower on a transposed stack
        if out is None:
            out = np.zeros(kappa.shape[:-1] + shape)
        elif out.shape != kappa.shape[:-1] + shape or \
                out.dtype != np.float64 or not out.flags.writeable:
            raise ValueError(f"out must be a writeable float64 array of "
                             f"shape {kappa.shape[:-1] + shape}")
        rows = out.reshape(len(flat), -1)  # a copy would leave out unfilled
        if not np.may_share_memory(rows, out):
            raise ValueError(f"out has no {rows.shape} view to fill")
        _fill(scatter, flat, rows.T)
        return out


@lru_cache(maxsize=4)
def local_assembler(mesh):
    """The LocalAssembler of a mesh, built on its first use."""
    return LocalAssembler(mesh)


@dataclass
class LocalOperators:
    """Interior-node stiffness bands and vertex vectors of coarse cells.

    For one cell M0 and M1 are (w, n_interior) stencil band storage, the
    diagonals at offsets stencil_offsets(n_interior) (stencil_to_dense
    gives the matrices): w = 5 from r = 5 on, so at r = 30 the M0 of 16
    cells takes 0.51 MiB.  v0, v1 are (n_interior, 4) with one column per
    coarse vertex; for an array of cells each carries a leading cell axis.
    """

    cell: object
    assembler: LocalAssembler
    M0: np.ndarray
    M1: np.ndarray
    v0: np.ndarray
    v1: np.ndarray


def assemble_local_operators(mesh, cell, splitting):
    """Assemble M0, M1, v0 and v1 on a coarse cell or a sequence of cells."""
    mesh.check_fine_grid(splitting.mesh, "splitting")
    asm = local_assembler(mesh)
    fine = mesh.cell_fine_cells(cell)
    k0 = splitting.k0[fine]
    k1 = splitting.k1[fine]
    if np.any(k0 <= 0.0):
        raise ValueError("k0 must be strictly positive on every fine cell")
    return LocalOperators(cell=cell, assembler=asm,
                          M0=asm.interior_bands(k0),
                          M1=asm.interior_bands(k1),
                          v0=asm.vertex_vectors(k0), v1=asm.vertex_vectors(k1))


@lru_cache(maxsize=8)
def packed_index(n):
    """(n, n) positions of a symmetric matrix's entries in its row-major
    packed lower triangle: entry (i, j) with j <= i sits at i(i+1)/2 + j.

    The layout of packed_inverses' columns and of the GreenStore; a gather
    through it expands packed triangles to whole matrices.
    """
    row, col = np.indices((n, n))
    hi, lo = np.maximum(row, col), np.minimum(row, col)
    index = hi * (hi + 1) // 2 + lo
    index.flags.writeable = False  # shared by every caller
    return index


def _packed_order(entries):
    """Order n of a packed lower triangle of n(n+1)/2 entries."""
    n = (isqrt(8 * entries + 1) - 1) // 2
    if n * (n + 1) // 2 != entries:
        raise ValueError(f"{entries} entries are not a packed triangle")
    return n


def cell_solvers(*sums):
    """[solve(rhs)] of each sum of (cells, w, n) SPD local stencil stacks,
    such as cell_solvers((M0,), (M0, M1)) for M0 and M = M0 + M1.

    The solves take right-hand sides of shape (cells, n, k).  Blocks up to
    BATCHED_MAX_N are inverted for every sum by one packed_inverses call on
    the sums stacked one after the other, expanded to whole cells-first
    matrices through packed_index and applied as inverses; that is bit for
    bit one call per sum, since the sweep works per cell, but sweeps the
    stack n times instead of n times per sum.  A failing pivot then names
    its cell in that stack: cell i of sum s is cell s * cells + i.  Larger
    blocks are factored by _block_factor, one factor per sum, which sums
    the stacks into its own factor buffer.
    """
    n = sums[0][0].shape[-1]
    if is_banded(n):
        return [_band_solver(_block_factor(*stacks)) for stacks in sums]
    packed = packed_inverses(
        np.concatenate([sum(s[1:], s[0]) for s in sums]))
    inverses = np.take(packed.T, packed_index(n), axis=1)
    return [partial(np.matmul, a) for a in np.split(inverses, len(sums))]


def packed_inverses(bands, out=None):
    """(n(n+1)/2, cells) inverses of a (cells, w, n) SPD local stencil
    stack: column c holds cell c's packed lower triangle (packed_index).

    The one inverse of local blocks, and the one place that picks their
    regime (is_banded).  A caller that holds the stack's cells-last storage
    (w*n + 1, cells) (see _cells_last) passes it as bands, with out.  Up to
    BATCHED_MAX_N _cells_last gathers the storage into out if given (a
    C-ordered float64 (n(n+1)/2, cells) buffer) and spd_inverse inverts it
    in place; above, _block_factor's factor is solved against identity
    columns built in place in its Fortran-ordered right-hand side, and the
    triangles are copied out.  The bands are never written.
    """
    if bands.ndim == 2:
        if out is None:
            raise ValueError("cells-last storage takes an out")
        n, cells = _packed_order(len(out)), bands.shape[1]
        if len(bands) != len(stencil_offsets(n)) * n + 1:
            raise ValueError(f"storage has {len(bands)} rows at order {n}")
        storage, bands = bands, bands[:-1].T.reshape(cells, -1, n)
    else:
        cells, _, n = bands.shape
        storage = None
    if is_banded(n):
        eye = np.zeros((cells * n, n), order="F")
        eye[np.arange(cells * n), np.tile(np.arange(n), cells)] = 1.0
        inverses = _band_solve(_block_factor(bands), eye).reshape(cells, n, n)
        if out is None:
            out = np.empty((n * (n + 1) // 2, cells))
        for i in range(n):  # row by row: no stack-sized temporary
            out[i * (i + 1) // 2:][:i + 1] = inverses[:, i, :i + 1].T
        return out
    if storage is None:
        storage = np.zeros((len(_stencil_rows(bands)) * n + 1, cells))
        storage[:-1] = bands.reshape(cells, -1).T
    return spd_inverse(_cells_last(
        storage, np.empty((n * (n + 1) // 2, cells)) if out is None else out))


def _cells_last(storage, out):
    """Gather into out (n(n+1)/2, cells) the packed lower triangles of the
    matrices in cells-last storage (w*n + 1, cells): bands[c, i, j] at row
    i*n + j, column c; last row 0."""
    n = _packed_order(len(out))
    row, col = np.tril_indices(n)
    index = _band_index(n)[row, col]
    # mode="clip" gathers straight into out; the indices are all in range
    return np.take(storage, index, axis=0, out=out, mode="clip")


def _block_factor(*stacks):
    """Cholesky factor of the sum of (cells, w, n) local stencil stacks as
    one block-diagonal band of order cells*n, by a single pbtrf.

    A zeroed C-ordered (cells*n, d_max + 1) buffer is, transposed, that
    matrix's lower band storage.  Each stored diagonal at offset d is
    written once into the first n - d entries of the buffer's column d,
    the later stacks added to the first, so no separate sum is held beside
    it; the entries past each cell's end are never written and stay zero.
    """
    cells, w, n = stacks[0].shape
    offsets = _stencil_rows(stacks[0])
    ab = np.zeros((cells, n, offsets[-1] + 1))  # factored in place
    for i, d in enumerate(offsets):
        if d < n:
            ab[:, :n - d, d] = stacks[0][:, i, :n - d]
            for bands in stacks[1:]:
                ab[:, :n - d, d] += bands[:, i, :n - d]
    return _band_factor(ab.reshape(cells * n, -1).T, block=n)


def cell_matmul(bands):
    """matmul(x) = A @ x for x (cells, n, k), A a (cells, w, n) local
    stencil stack.

    Blocks up to BATCHED_MAX_N are expanded once and applied by batched
    matmul; larger ones one stored diagonal at a time, at the offsets 0, 1,
    r-2, r-1 and r, skipping any that is zero in every cell.
    """
    w, n = bands.shape[-2:]
    if not is_banded(n):
        return partial(np.matmul, stencil_to_dense(bands))
    offsets = _stencil_rows(bands)
    used = [(i, offsets[i]) for i in range(1, w) if offsets[i] < n and
            bands[..., i, :].any()]

    def matmul(x):
        y = bands[..., 0, :, None] * x
        for i, d in used:
            off = bands[..., i, :n - d, None]
            y[..., d:, :] += off * x[..., :n - d, :]
            y[..., :n - d, :] += off * x[..., d:, :]
        return y
    return matmul


def spd_inverse(a):
    """Invert a stack of SPD matrices in place, column c of a holding
    matrix c's packed lower triangle (packed_index); returns a.

    a is a writeable C-ordered float64 (n(n+1)/2, cells) array (anything
    else raises ValueError before any work), such as _cells_last's gather.
    Goodnight's symmetric sweep, vectorized over the cell axis: sweeping
    pivot k keeps the matrix symmetric, so the lower triangle is all it
    updates, and after the last pivot it holds -A^-1, which one exact
    negation turns into A^-1.  The pivots are those of the LDL^T
    factorization, so they are all positive exactly when the matrix is
    SPD; a pivot <= 0 raises, naming the first step that fails and, among
    its cells, the lowest pivot.  Step k reads column k into a row v, sets
    u = v / pivot and updates each lower row r as one contiguous
    (r + 1, cells) slice, a[r, :r+1] -= v[r] * u[:r+1], for r <= k + p
    only, p the stack's bandwidth read from its nonzero pattern: the rows
    past k + p are still those of A, so every update it skips would
    subtract a product with an exact +0.0, and for a stack without -0.0
    entries (none arises) the bits are those of the full sweep.  Its only
    temporaries are three (n, cells) rows.  Each step still touches up to
    the whole triangle, so the library calls it up to BATCHED_MAX_N only.
    """
    if a.dtype != np.float64 or a.ndim != 2 or not a.flags.c_contiguous \
            or not a.flags.writeable:
        raise ValueError("a must be a writeable C-ordered float64 "
                         "(n(n+1)/2, cells) array")
    n, cells = _packed_order(len(a)), a.shape[1]
    row, col = np.tril_indices(n)
    p = int((row - col)[a.any(axis=-1)].max(initial=0))
    v, u, t = np.empty((3, n, cells))
    # per row r: its slice of a, and the leading r + 1 rows of u and t
    rows = [(a[r * (r + 1) // 2:][:r + 1], u[:r + 1], t[:r + 1])
            for r in range(n)]
    for k, below in enumerate(_sweep_columns(n, p)):
        e = k + 1 + len(below)
        v[:k + 1] = rows[k][0]
        np.take(a, below, axis=0, out=v[k + 1:e], mode="clip")
        pivot = v[k]
        cell = np.argmin(pivot)  # a NaN pivot is the minimum as well
        if not pivot[cell] > 0.0:
            raise np.linalg.LinAlgError(
                f"matrix is not SPD: pivot {k} is {pivot[cell]:.3g} "
                f"in cell {cell}")
        np.divide(v[:e], pivot, out=u[:e])
        for r, (a_r, u_r, t_r) in enumerate(rows[:e]):
            if r != k:
                a_r -= np.multiply(u_r, v[r], out=t_r)
        a_k = rows[k][0]
        a_k[:k] = u[:k]
        np.divide(-1.0, pivot, out=a_k[k])
        a[below] = u[k + 1:e]
    return np.negative(a, out=a)


@lru_cache(maxsize=16)
def _sweep_columns(n, p):
    """Packed positions of column k below the diagonal in rows up to
    k + p, for each step k of spd_inverse at order n and bandwidth p."""
    below = []
    for k in range(n):
        r = np.arange(k + 1, min(n, k + p + 1))
        below.append(r * (r + 1) // 2 + k)
        below[-1].flags.writeable = False  # shared by every caller
    return below


@lru_cache(maxsize=8)
def _probe(n):
    """The residual probe z_i = 1 + i/n, distinct entries in [1, 2), and
    the sparse (n, n(n+1)/2) map that takes packed triangles G to G z."""
    z = 1.0 + np.arange(n) / n
    row, col = np.tril_indices(n)
    upper = row > col
    entries = np.arange(len(row))
    return z, sp.csr_matrix(
        (np.concatenate([z[col], z[row[upper]]]),
         (np.concatenate([row, col[upper]]),
          np.concatenate([entries, entries[upper]]))),
        shape=(n, len(row)))


def inverse_residuals(storage, packed):
    """(cells,) max|M0 (G z) - z| / max|z| of each cell, for the stencil
    stack M0 in cells-last storage (w*n + 1, cells) (see _cells_last), G
    its inverses as packed_inverses gives them and the fixed probe z of
    distinct entries 1 + i/n.

    Scaled by max|z|, it does not depend on the magnitude of M0, and
    exact inverses give 0.  G z is a sparse product over the packed
    entries and M0 (G z) sums the stored diagonals one at a time, so no
    BLAS call is made and each cell's value has the same bits in any
    stack and under any BLAS thread count.
    """
    n = _packed_order(len(packed))
    z, to_gz = _probe(n)
    y = to_gz @ packed
    residual = storage[:n] * y
    product = np.empty_like(y)
    for i, d in enumerate(stencil_offsets(n)[1:], 1):
        if d < n:
            band, part = storage[i * n:i * n + n - d], product[:n - d]
            residual[d:] += np.multiply(band, y[:n - d], out=part)
            residual[:n - d] += np.multiply(band, y[d:], out=part)
    residual -= z[:, None]
    return np.abs(residual, out=residual).max(axis=0) / z[-1]


# ---- global fine-grid machinery -------------------------------------------


class FineBand:
    """Fixed maps of the stiffness on the free fine nodes of one mesh.

    free holds the free fine nodes, row-major with x fastest, so the
    stiffness has half-bandwidth nxf and shape = (nxf + 1, n_free) lower
    band storage.  scatter takes the n_fine_cells coefficients straight
    into LAPACK's band layout: a C-ordered (n_free, nxf + 1) buffer whose
    transpose is that band storage, with entry (d, j) at j*(nxf + 1) + d.
    unit_load is the load of the source f = 1 on the free nodes.
    """

    def __init__(self, mesh):
        self.free = np.flatnonzero(~mesh.boundary_node_mask())
        self.unit_load = fine_load(mesh)[self.free]
        self.unit_load.flags.writeable = False
        w, n = self.shape = (mesh.nxf + 1, len(self.free))
        pos = np.full(mesh.n_fine_nodes, -1)
        pos[self.free] = np.arange(n)
        self.scatter = _stencil_band_scatter(
            mesh.fine_element_nodes, element_stiffness(mesh.hx, mesh.hy),
            pos, lambda d, j: j * w + d)


@lru_cache(maxsize=4)
def fine_band(mesh):
    """The FineBand of a mesh, built on its first use."""
    return FineBand(mesh)


def fine_stiffness_band(mesh, k):
    """Stiffness on the free fine nodes in (nxf + 1, n) lower band storage.

    x runs fastest, so the half-bandwidth is the row length mesh.nxf.  The
    band is a Fortran-ordered view of a fresh C-ordered (n, nxf + 1)
    buffer, the layout LAPACK's banded routines take without a copy.
    """
    maps = fine_band(mesh)
    w, n = maps.shape
    out = np.zeros(n * w)
    _fill(maps.scatter, np.asarray(k, float), out)
    return out.reshape(n, w).T


def fine_load(mesh):
    """Global load vector of the source f = 1."""
    contrib = np.full(mesh.n_fine_cells, mesh.hx * mesh.hy / 4.0)
    return np.bincount(mesh.fine_element_nodes.ravel(),
                       np.repeat(contrib, 4), minlength=mesh.n_fine_nodes)


def fine_reference_solver(mesh, k):
    """solve() of the Galerkin problem -div(k grad u) = 1, u = 0 on the
    boundary, on the fine grid.

    The band, the load and the solution vector are assembled here; solve()
    only factors the band in place and solves into the load, without the
    GIL, and returns the solution.  It allocates nothing large, so it can
    run on a worker thread beside other work.  Call it once.
    """
    k = np.asarray(k, float)
    if np.any(k <= 0.0):
        raise ValueError("coefficient must be strictly positive")
    maps = fine_band(mesh)
    band = fine_stiffness_band(mesh, k)
    load = maps.unit_load.copy()  # solved into in place
    u = np.zeros(mesh.n_fine_nodes)

    def solve():
        u[maps.free] = _band_solve(_band_factor(band), load)
        return u
    return solve


def energy_norm(mesh, k, v):
    """Energy norm sqrt((k grad v, grad v)) over the whole domain."""
    ve = np.asarray(v, float)[mesh.fine_element_nodes]
    ke = element_stiffness(mesh.hx, mesh.hy)
    # summed by einsum, not by a BLAS dot, which OpenBLAS splits over its
    # threads above 10 000 cells, so that the sum would depend on their count
    val = np.einsum("e,ei,ei->", np.asarray(k, float), ve @ ke, ve)
    return float(np.sqrt(max(val, 0.0)))
