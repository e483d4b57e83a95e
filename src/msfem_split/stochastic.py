"""Uncertainty propagation: Monte Carlo, Smolyak collocation, cost ratios.

The parameter-reduction collocation interpolates the per-cell interior
Green's inverses over the leading m random dimensions on a nested
Clenshaw-Curtis Smolyak grid, while the remaining dimensions enter every
sample exactly through the k1 operators.
"""

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse as sp

from . import basis as basis_mod
from . import fem
from . import field as field_mod
from . import msfem


def sample_theta(master_seed, index, n):
    """Reproducible i.i.d. uniform [-1,1] draw for one sample index."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng([int(master_seed), int(index)])
    return rng.uniform(-1.0, 1.0, n)


# ---- Clenshaw-Curtis Smolyak sparse grid -----------------------------------

# largest sparse grid a SparseGrid builds
MAX_GRID_NODES = 10 ** 6
# interpolation_weights values at most this many subgrid points at a time
# (8 MiB of float64): 52 points at m=16, L=3
MAX_VALUES = 2 ** 20


def _cc_points(level):
    """Nested 1D Clenshaw-Curtis nodes on [-1,1]."""
    if level == 0:
        return np.array([0.0])
    s = 2 ** level
    pts = -np.cos(np.pi * np.arange(s + 1) / s)
    pts[0], pts[-1] = -1.0, 1.0
    pts[s // 2] = 0.0
    return pts


def _lagrange_table(level, x):
    """1D Lagrange basis values (..., 2^level + 1) of a level at points x.

    Barycentric form with the closed-form Clenshaw-Curtis weights
    (-1)^j, halved at the end points; exact at the nodes.
    """
    pts = _cc_points(level)
    bw = (-1.0) ** np.arange(len(pts))
    bw[[0, -1]] *= 0.5
    d = x[..., None] - pts
    hit = np.abs(d) <= 1e-14
    t = bw / np.where(hit, 1.0, d)
    return np.where(hit.any(axis=-1, keepdims=True), hit,
                    t / t.sum(axis=-1, keepdims=True))


class SparseGrid:
    """Smolyak combination grid in m dimensions at level L.

    A node is identified by its integer indices on the finest
    Clenshaw-Curtis grid of 2^L + 1 points per axis: point p of level
    l >= 1 has index p * 2^(L - l), level 0 has index 2^L // 2.  Nodes are
    numbered in the sorted order of their index rows' keys (see
    _row_keys); to L=7 the indices are bytes, and that order is the
    lexicographic order of the nodes' coordinates.

    The subgrids sharing a level tuple form one pattern, kept as its
    (subgrids, k) array of active dimensions.  The combination map is a
    sparse (n_nodes, subgrid points) matrix with one column per subgrid
    point, pattern by pattern and subgrid by subgrid, as
    interpolation_weights forms their values, holding the subgrid's
    Smolyak coefficient in the row of the point's node.  A sign flip of a
    coordinate maps its index p to 2c - p for the index c = 2^L // 2 of
    0, on every level, so the grid is closed under sign flips (see
    reflection).
    """

    def __init__(self, m, L):
        check_sparse_grid(m, L)
        self.m = m
        self.L = L
        patterns = {}  # levels -> [dims of each subgrid]
        coeffs, rows = [], []
        # indices up to 2^L in the narrowest unsigned type, uint8 to L=7
        index_type = np.min_scalar_type(2 ** L)
        for dims, levels in _active_level_sets(m, L):
            t = sum(levels)
            coeff = (-1) ** (L - t) * comb(m - 1, L - t)
            if coeff == 0:
                continue
            shape = [2 ** lev + 1 for lev in levels]
            idx = np.full((int(np.prod(shape)), m), 2 ** L // 2, index_type)
            if dims:
                local = np.indices(shape).reshape(len(dims), -1).T
                idx[:, list(dims)] = local << (L - np.array(levels))
            patterns.setdefault(levels, []).append(dims)
            coeffs.append(coeff)
            rows.append(idx)
        sizes = [len(r) for r in rows]
        rows = np.concatenate(rows)
        self._keys, inverse = np.unique(_row_keys(rows), return_inverse=True)
        self._indices = self._keys.view(index_type).reshape(-1, m)
        self.nodes = _cc_points(L)[self._indices]
        self._patterns = [(levels, np.array(dims, dtype=int).reshape(
            len(dims), len(levels))) for levels, dims in patterns.items()]
        self._map = sp.csr_matrix(
            (np.repeat(np.array(coeffs, float), sizes),
             (inverse, np.arange(len(rows)))),
            shape=(len(self.nodes), len(rows)))

    @property
    def n_nodes(self):
        return len(self.nodes)

    def reflection(self, flip):
        """(n_nodes,) permutation p taking node i to node p[i], node i with
        the coordinates where flip (bool (m,)) holds negated.

        Read from the integer index rows, not from the node values: one
        binary search of the flipped rows' keys among the nodes'.
        """
        rows = self._indices
        flipped = np.where(flip, rows.dtype.type(2 ** self.L // 2 * 2) - rows,
                           rows)
        return np.searchsorted(self._keys, _row_keys(flipped))

    def interpolation_weights(self, theta):
        """Combination weights (..., n_nodes) at points theta (..., m).

        I_m f(theta) = sum_i w_i f(node_i).  Each pattern's tensor products
        are formed for all its subgrids at once, in the order
        ((t1*t2)*t3), and each node sums its subgrid points in the map's
        column order.  A point outside [-1, 1]^m, or not finite, is
        refused: the interpolant does not extrapolate.
        """
        theta = np.asarray(theta, float)
        if theta.ndim == 0 or theta.shape[-1] != self.m:
            raise ValueError(f"theta must have trailing length {self.m}")
        if not np.all(np.abs(theta) <= 1.0):  # NaN fails as well
            raise ValueError("theta must be finite and within [-1, 1]^m")
        x = theta.reshape(-1, self.m)
        w = np.empty((len(x), self.n_nodes))
        step = max(1, MAX_VALUES // self._map.shape[1])
        for start in range(0, len(x), step):
            w[start:start + step] = self._weights(x[start:start + step])
        return w.reshape(theta.shape[:-1] + (self.n_nodes,))

    def _weights(self, x):
        """(points, n_nodes) weights at points x (points, m)."""
        tables = {lev: _lagrange_table(lev, x)
                  for lev in range(1, self.L + 1)}
        blocks = []
        for levels, dims in self._patterns:
            vals = np.ones((len(x), len(dims), 1))
            for j, lev in enumerate(levels):
                t = tables[lev][:, dims[:, j]]  # (points, subgrids, 2^lev+1)
                vals = (vals[..., None] * t[:, :, None, :]).reshape(
                    len(x), len(dims), -1)
            blocks.append(vals.reshape(len(x), -1))
        return (self._map @ np.concatenate(blocks, axis=1).T).T


def _row_keys(rows):
    """Each index row of rows (n, m) as one opaque void item, so that rows
    sort and match as the bytes of their m indices, not column by
    column."""
    return np.ascontiguousarray(rows).view(
        np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _active_level_sets(m, L):
    """Multi-indices |levels| <= L as (active dims, their levels >= 1),
    the subgrids of each level tuple together."""
    yield (), ()
    for total in range(1, L + 1):
        for k in range(1, total + 1):
            for cuts in itertools.combinations(range(1, total), k - 1):
                parts = tuple(b - a for a, b in
                              zip((0,) + cuts, cuts + (total,)))
                for dims in itertools.combinations(range(m), k):
                    yield dims, parts


def smolyak_node_count(m, L):
    """Exact number of distinct nested CC Smolyak nodes."""
    if m < 0 or L < 0:
        raise ValueError(f"need m >= 0 and L >= 0, not m={m}, L={L}")
    # the x^0 .. x^L coefficients of (1 + 2x + 2x^2 + 4x^3 + 8x^4 + ...)^m
    axis = [1] + [2 ** max(1, lev - 1) for lev in range(1, L + 1)]
    counts = [1] + [0] * L
    for _ in range(m):
        counts = [sum(counts[i] * axis[t - i] for i in range(t + 1))
                  for t in range(L + 1)]
    return sum(counts)


def check_sparse_grid(m, L):
    """Refuse m < 1, L < 0 and a grid of more than MAX_GRID_NODES nodes."""
    if m < 1 or L < 0:
        raise ValueError("need m >= 1 and L >= 0")
    if smolyak_node_count(m, L) > MAX_GRID_NODES:
        raise MemoryError(f"a sparse grid of m={m}, L={L} would hold more "
                          f"than {MAX_GRID_NODES} nodes")


def build_sparse_grid(m, L):
    return SparseGrid(m, L)


def cost_ratios(n, m, q, L):
    """Collocation-point ratios of reduced vs full parameter dimension."""
    if m > n or q < 0:
        raise ValueError(f"need m <= n and q >= 0, not n={n}, m={m}, q={q}")
    return (float(q + 1) ** (m - n),
            smolyak_node_count(m, L) / smolyak_node_count(n, L))


# ---- precomputed Green's inverses ------------------------------------------


# largest GreenStore a precompute_green_inverses call builds, in bytes
MAX_STORE_BYTES = 2 * 1024 ** 3
# largest scaled residual fem.inverse_residuals of a store inverse
MAX_GREEN_RESIDUAL = 1e-10
# matrix entries, nodes * cells * nK^2, per block of the store build: as
# many whole nodes as fit, at least one.  A worker holds the GIL between
# numpy calls, so each call must run long enough for the other workers to
# overlap it; the symmetric sweep makes about twice the calls of the
# Gauss-Jordan before it, so its blocks are 4 times as wide.  Each worker
# fills and inverts one workspace for all its blocks: arrays allocated
# per block let glibc trim its heap after each block and the next fault
# the pages back (0.5M minor faults, 25% of the build).  The workspace is
# one allocation above 4 MiB, which numpy marks for transparent huge
# pages; a fill group's log fields (1 MiB on colloc-L3), the largest of
# the block's temporaries, stay small beside it.  Check ru_minflt in
# tests/reference.py store-digest after any change to the block loop.
# colloc-L3's 64-cell store (nK=9; 2-core Xeon, 1 BLAS thread, medians of
# 6) took 0.29 s on two workers with 8192-cell blocks (4.0k faults), 0.35
# s with 4096 (3.1k), 0.53 s with 2048 (1.6k), 0.35 s with 16384 (7.9k)
# and 0.45 s on one worker; filled node by node, 0.49 and 0.56 s
STORE_BLOCK_ENTRIES = 8192 * 81
# store nodes per block of the interpolation contraction.  OpenBLAS 0.3.31
# (Haswell kernels) cuts a long inner dimension into panels, and how it cuts
# depends on its thread count; a block at or below the panel size is summed
# in one panel, so blocks summed in node order do not depend on the panels.
# With the weights Fortran-ordered, each row's entries take the same
# arithmetic under any number of rows under one BLAS thread; C-ordered
# weights took other kernels for the last rows of some products, and other
# bits from 35 points on a 6-cell store.  Under two BLAS threads some row
# counts still take other bits on small stores (see _interpolated_green).
# That is a property of the BLAS build, not a guarantee, and tests check
# it.  On colloc-L3 (2-core Xeon, 1 BLAS thread) the interpolant of 5
# points takes 17-18 ms on two workers from the 64 representative cells; a
# store of all 256 cells took 33-39 ms, and 71-90 ms by one GEMM on one
# core
CONTRACT_BLOCK_NODES = 256
# columns of the dgemm micro-kernel's tile (8 in OpenBLAS's Haswell kernels).
# A column range that starts at a multiple of it is tiled as in the whole
# product, so each column takes the same arithmetic however the columns are
# shared out; a range starting elsewhere changes the last bits of some
# columns
CONTRACT_TILE_COLUMNS = 8


@dataclass
class GreenStore:
    """Per (sparse-grid node, representative cell) interior inverses of M0.

    M0^-1 is symmetric, so each inverse keeps only its row-major lower
    triangle: entry (i, j) with j <= i sits at i(i+1)/2 + j
    (fem.packed_index).

    Only one cell of each orbit under the store's reflections is kept (see
    precompute_green_inverses).  Mesh cell c is a representative mirrored
    by a group element g: its inverse at node n is the representative's at
    node node_perms[g, n] with the interior nodes mirrored by g.  Contract
    the store once per element, by the weights permuted by its node_perms,
    and lay the packed results side by side in element order: entry (a, b)
    of cell c is then entry unpack[c, a, b] (see _interpolated_green).
    Element 0 is the identity.
    """

    mesh: object
    model: object
    grid: SparseGrid
    matrices: np.ndarray  # (n_nodes, len(cells), n_K(n_K+1)/2)
    # the largest scaled residual of the build's check, <= MAX_GREEN_RESIDUAL
    residual: float
    cells: np.ndarray  # (representatives,) mesh cells, ascending
    node_perms: np.ndarray  # (elements, n_nodes)
    unpack: np.ndarray  # (n_cells, n_K, n_K)


def _mirror_group(mesh, model, grid):
    """GreenStore's cells, node_perms and unpack.

    Under the x and the y reflection R of the unit square each leading KLE
    mode has a parity s_d, phi_d o R = s_d phi_d exactly, so log k0(theta)
    o R = log k0(s theta) for every theta in [-1, 1]^m.  build_kle_model
    makes every mode symmetric or antisymmetric; a model with a leading
    mode that is neither is refused, naming the mode.

    The group holds the identity and the x, y and xy reflections, elements
    0 to 3.  A cell's representative lies in the lower-left quarter of the
    coarse grid, cx <= (nx - 1) // 2 and cy <= (ny - 1) // 2, middle row
    and column included; mirroring the representative by the cell's
    element and the node's parameters by the odd modes' signs gives the
    cell's coefficient at the node.
    """
    nx, ny, s = mesh.nx_coarse, mesh.ny_coarse, mesh.r - 1
    phi = model.eigenfunctions[:grid.m].reshape(-1, mesh.nyf, mesh.nxf)
    odd = []  # of the x, then the y reflection
    for axis, name in ((2, "x"), (1, "y")):
        mirrored = np.flip(phi, axis=axis)
        even = (mirrored == phi).all(axis=(1, 2))
        bad = ~(even | (mirrored == -phi).all(axis=(1, 2)))
        if bad.any():
            raise ValueError(
                f"KLE mode {np.argmax(bad)} is neither symmetric nor "
                f"antisymmetric under the {name} reflection")
        odd.append(~even)
    odd_x, odd_y = odd
    cx, cy = mesh.cell_coords(np.arange(mesh.n_coarse_cells))
    fx = cx > (nx - 1) // 2
    fy = cy > (ny - 1) // 2
    cells = np.flatnonzero(~fx & ~fy)
    rep = np.where(fy, ny - 1 - cy, cy) * nx + np.where(fx, nx - 1 - cx, cx)
    element = fx + 2 * fy
    node_perms = np.array([grid.reflection((x & odd_x) ^ (y & odd_y))
                           for y in (False, True) for x in (False, True)])
    # each cell's interior nodes, row-major over rows of s = r - 1 nodes,
    # mirrored by its element
    iy, ix = np.divmod(np.arange(s * s), s)
    perm = (np.where(fy[:, None], s - 1 - iy, iy) * s +
            np.where(fx[:, None], s - 1 - ix, ix))
    offset = (element * len(cells) + np.searchsorted(cells, rep)) * (
        s * s * (s * s + 1) // 2)
    unpack = fem.packed_index(s * s)[perm[:, :, None], perm[:, None, :]]
    unpack += offset[:, None, None]
    return cells, node_perms, unpack


def precompute_green_inverses(mesh, model, grid, m):
    """Assemble and invert M0(node) for every representative cell and grid
    node.

    Each KLE mode is exactly symmetric or antisymmetric under the x and y
    reflections of the unit square, and the Smolyak grid is closed under
    sign flips of its coordinates.  Mirroring a cell by a reflection g
    thus mirrors its M0 at node n into the M0 of the mirror cell at the
    node with the odd modes' parameters negated: G(g node, g cell) =
    P_g G(node, cell) P_g^T for the permutation P_g of the interior nodes.
    The store keeps one representative cell of each orbit (see
    GreenStore).

    The nodes are inverted by fem.packed_inverses in blocks of as many
    whole nodes as fit in STORE_BLOCK_ENTRIES matrix entries, at least one,
    on a pool of threads, one per CPU the process may run on, and each
    block writes its own rows of the store.  Each cell's inverse takes the
    same arithmetic as in a one-node stack, so the store holds the same
    bits under any worker count.  A node whose M0 is not SPD raises
    LinAlgError naming the node and its mesh cell, and one whose inverse
    fails the residual check (fem.inverse_residuals above
    MAX_GREEN_RESIDUAL in a cell) raises ValueError naming the node; of
    several such nodes, the lowest.  The store keeps the largest residual
    as its residual.  A model on another fine grid, or with a leading mode
    without a parity (see _mirror_group), is refused first, and a store
    of more than MAX_STORE_BYTES before any is allocated.
    """
    mesh.check_fine_grid(model.mesh, "model")
    if grid.m != m:
        raise ValueError("grid dimension must equal m")
    field_mod.check_kle_terms(m, model.n)
    cells, node_perms, unpack = _mirror_group(mesh, model, grid)
    n_k = mesh.n_interior
    n_cells = len(cells)
    entries = n_k * (n_k + 1) // 2
    need = grid.n_nodes * n_cells * entries * 8
    if need > MAX_STORE_BYTES:
        raise MemoryError(
            f"GreenStore needs {need} bytes > limit {MAX_STORE_BYTES}; "
            "reduce r or the interpolation level")
    asm = fem.local_assembler(mesh)
    fine = mesh.cell_fine_cells(cells)
    out = np.empty((grid.n_nodes, n_cells, entries))
    step = max(1, STORE_BLOCK_ENTRIES // (n_cells * n_k ** 2))
    # nodes per fill, whose log fields hold at most the block's coefficients
    sub = max(1, step * fine.size // mesh.n_fine_cells)
    buffers = threading.local()  # per worker (see STORE_BLOCK_ENTRIES)
    rows = asm.stencil_rows

    def bands(nodes, ids, out=None):
        """interior_bands of M0 at the grid points nodes on the fine cells
        ids (cells, r^2), node-major in the columns."""
        kappa = field_mod.log_field_partial(model, nodes, m)[:, ids]
        return asm.interior_bands(np.exp(kappa, out=kappa).reshape(
            -1, kappa.shape[-1]), out=out)

    def invert(start, stop):
        """Write the inverses of nodes start .. stop-1 into the store;
        returns their largest scaled residual."""
        width = (stop - start) * n_cells
        if not hasattr(buffers, "storage"):
            # one allocation (see STORE_BLOCK_ENTRIES)
            size = step * n_cells
            work = np.zeros((rows + entries) * size)
            buffers.storage = work[:rows * size].reshape(rows, size)
            buffers.packed = work[rows * size:]
        # the block's columns, so each row means the same in every block,
        # each node's its own n_cells of them
        storage = buffers.storage[:, :width]
        for i in range(0, stop - start, sub):
            nodes = grid.nodes[start + i:stop][:sub]
            bands(nodes, fine, storage[:, i * n_cells:(i + sub) * n_cells])
        G = fem.packed_inverses(storage, out=buffers.packed[
            :width * entries].reshape(entries, -1))
        residual = fem.inverse_residuals(storage, G).reshape(
            stop - start, n_cells).max(axis=1)
        fails = ~(residual <= MAX_GREEN_RESIDUAL)  # NaN fails as well
        if fails.any():
            i = np.argmax(fails)
            raise ValueError(f"Green's inverse at grid node {start + i} "
                             f"fails its residual check: {residual[i]:.3g} "
                             f"> {MAX_GREEN_RESIDUAL:g}")
        out[start:stop] = G.reshape(entries, stop - start, n_cells).transpose(
            1, 2, 0)
        return residual.max()

    def invert_block(start, stop):
        try:
            return invert(start, stop)
        except np.linalg.LinAlgError:
            # the stack reports the first pivot to fail in any of its
            # nodes, at column node * n_cells + representative; redone
            # node by node on every mesh cell, the lowest failing node is
            # named with its mesh cell, as a loop over the nodes names it
            all_fine = mesh.cell_fine_cells(np.arange(mesh.n_coarse_cells))
            for i in range(start, stop):
                try:
                    fem.packed_inverses(bands(grid.nodes[i:i + 1], all_fine))
                except np.linalg.LinAlgError as exc:
                    raise np.linalg.LinAlgError(
                        f"M0 at grid node {i}: {exc}") from exc
            raise  # not reached: a failing representative fails there too

    bounds = [(s, min(s + step, grid.n_nodes))
              for s in range(0, grid.n_nodes, step)]
    pool = ThreadPoolExecutor(_usable_cpus(len(bounds)))
    try:
        # in node order, so the first failure raised is the lowest node's
        residual = max(block.result() for block in
                       [pool.submit(invert_block, *b) for b in bounds])
    finally:
        pool.shutdown(cancel_futures=True)
    return GreenStore(mesh=mesh, model=model, grid=grid, matrices=out,
                      residual=residual, cells=cells, node_perms=node_perms,
                      unpack=unpack)


def _usable_cpus(cap):
    """CPUs this process may run on, at most cap."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, cap))


def _interpolated_green(store, theta0):
    """I_m M0^-1 of every mesh cell at points (..., m): (..., n_cells, nK,
    nK).

    The weights contract the store in blocks of CONTRACT_BLOCK_NODES nodes,
    summed in node order, on a pool of threads, one per CPU the process may
    run on; each worker sums one contiguous range of whole tiles of
    CONTRACT_TILE_COLUMNS columns.  Each entry takes the same arithmetic
    under any worker count.  Under one BLAS thread a point's entries take
    the same arithmetic under any number of points too (seen for 1 to 40
    points); under two they may not: on a 4x4, r=4 store of 180 packed
    columns, 11 to 23 points gave point 0 other bits than one point did,
    while colloc-L3's store of 2880 columns kept them for 1 to 40.

    The store holds representative cells only (see GreenStore), so each
    point contracts one row of weights per group element g, its weights
    permuted by node_perms[g]: row s * elements + g serves the cells of
    element g at point s.  Each point's rows then give every cell by one
    gather through the store's unpack, from its representative's lower
    triangle, so the interpolant is symmetric by construction.
    """
    theta0 = np.asarray(theta0, float)
    n_nodes = store.grid.n_nodes
    weights = store.grid.interpolation_weights(theta0).reshape(-1, n_nodes)
    weights = np.take(weights, store.node_perms, axis=1).reshape(-1, n_nodes)
    # Fortran-ordered for any number of rows (see CONTRACT_BLOCK_NODES); the
    # four elements give each product four rows or more, so none takes
    # OpenBLAS's one-row path, whose last bits differ
    weights = np.asfortranarray(weights)
    flat = store.matrices.reshape(n_nodes, -1)
    n_cols = flat.shape[1]
    packed = np.empty((len(weights), n_cols))

    def contract(start, stop):
        """Write columns start .. stop-1 of the weighted sum into packed."""
        acc = packed[:, start:stop]
        part = np.empty(acc.shape)
        for lo in range(0, n_nodes, CONTRACT_BLOCK_NODES):
            block = slice(lo, lo + CONTRACT_BLOCK_NODES)
            np.matmul(weights[:, block], flat[block, start:stop],
                      out=part if lo else acc)
            if lo:
                acc += part

    tiles = -(-n_cols // CONTRACT_TILE_COLUMNS)
    workers = _usable_cpus(tiles)
    cuts = [min(n_cols, tiles * i // workers * CONTRACT_TILE_COLUMNS)
            for i in range(workers + 1)]
    with ThreadPoolExecutor(workers) as pool:
        for done in [pool.submit(contract, *b) for b in zip(cuts, cuts[1:])]:
            done.result()
    packed = packed.reshape(-1, len(store.node_perms) * n_cols)
    return packed[:, store.unpack].reshape(
        theta0.shape[:-1] + store.unpack.shape)


# ---- sampling drivers ------------------------------------------------------


@dataclass(frozen=True)
class StochasticConfig:
    """Shared configuration of the Monte Carlo and collocation drivers.

    Refuses a model on another fine grid than mesh, an m outside [0,
    model.n], an empty J_list or one holding a negative J, and a negative
    seed.
    """

    mesh: object
    model: object
    m: int
    J_list: tuple
    seed: int

    def __post_init__(self):
        self.mesh.check_fine_grid(self.model.mesh, "model")
        field_mod.check_kle_terms(self.m, self.model.n)
        basis_mod.check_J_list(self.J_list)
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")


@dataclass
class SampleStatistics:
    """Both drivers' statistics: mean_error and var_error map each J to its
    errors' mean and variance, mean_uJh is the second field's mean."""

    N: int
    mean_error: dict
    var_error: dict
    mean_uh: np.ndarray
    var_uh: np.ndarray
    mean_uJh: np.ndarray
    eta_max: float


@dataclass
class MonteCarloStatistics(SampleStatistics):
    """Adds the mean |||u||| and each J's solution-level bound."""

    u_energy_mean: float
    bounds: dict


@dataclass
class CollocationStatistics(SampleStatistics):
    """Adds the per-sample errors and their means (see collocation_run)."""

    extra: dict


def _draw_thetas(config, N):
    """(N, n) draws of samples 0 .. N-1; refuses N < 1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return np.array([sample_theta(config.seed, s, config.model.n)
                     for s in range(N)])


def _variance(sum_, sumsq, N):
    return np.clip(sumsq / N - (sum_ / N) ** 2, 0.0, None)


def _sample_loop(config, thetas, J_list, step):
    """Run step(s, split) on each sample's splitting at config.m, in order.

    step returns the sample's errors (one per J), u_h, the driver's second
    field and its own record.  Returns the SampleStatistics fields, summed
    from zero by += in sample order, and the records.  A failure is raised
    as RuntimeError naming the sample; no later sample runs.
    """
    # each float 0.0 becomes an array at its first +=, as 0.0 + x is x
    err_sum = err_sq = uh_sum = uh_sq = second_sum = 0.0
    eta_max, records = 0.0, []
    for s, theta in enumerate(thetas):
        try:
            split = field_mod.split_kle(config.model, theta, config.m)
            errors, u_h, second, record = step(s, split)
        except Exception as exc:
            raise RuntimeError(f"sample {s} failed: {exc}") from exc
        eta_max = max(eta_max, split.eta_global)
        err_sum += errors
        err_sq += errors * errors
        uh_sum += u_h
        uh_sq += u_h * u_h
        second_sum += second
        records.append(record)
    N = len(thetas)
    return dict(N=N, mean_error=dict(zip(J_list, err_sum / N)),
                var_error=dict(zip(J_list, _variance(err_sum, err_sq, N))),
                mean_uh=uh_sum / N, var_uh=_variance(uh_sum, uh_sq, N),
                mean_uJh=second_sum / N, eta_max=eta_max), records


def monte_carlo_run(config, N):
    """Plain Monte Carlo over the full parameter space.

    Per sample: realize k, split at m, solve standard and iterative MsFEM
    plus the fine reference.  The errors are |||u_h - u_J|||, the second
    field is u_J at the largest J, and the bounds are the empirical
    solution-level bounds.  The fine solves run on one worker thread for
    the whole call (see msfem.sample_errors).
    """
    J_list = tuple(config.J_list)
    thetas = _draw_thetas(config, N)

    def step(s, split):
        rec = msfem.sample_errors(config.mesh, split, J_list,
                                  reference=True, pool=pool)
        return (np.array([rec.err[J] for J in J_list]), rec.u_h,
                rec.u_J[max(J_list)], (msfem.c_tilde(split), rec.u_energy))

    # one worker for the fine solves of every sample; its thread starts at
    # the first sample's first submit and has ended when the loop is left
    with ThreadPoolExecutor(1) as pool:
        stats, records = _sample_loop(config, thetas, J_list, step)
    c_tilde_max = max(c for c, _ in records)
    # the last running sum adds in sample order; np.sum would add pairwise
    u_energy_mean = np.cumsum([u for _, u in records])[-1] / N
    # no bound without eta_max < 1; callers must not read inf as a pass
    bounds = {J: msfem.solution_error_bound(J, stats["eta_max"], c_tilde_max,
                                            u_energy_mean)
              if stats["eta_max"] < 1.0 else np.inf for J in J_list}
    return MonteCarloStatistics(**stats, u_energy_mean=u_energy_mean,
                                bounds=bounds)


def collocation_run(config, N, store, J=None):
    """Parameter-reduction collocation against Monte Carlo references.

    Per sample reports the relative total error e, splitting error e_spl
    and collocation error e_col, all normalized by |||u_h|||, and the count
    of cells whose interpolant is not SPD, in extra beside the error means.
    The errors of the SampleStatistics are e and the second field is u_col.
    The store must be built for the config's mesh, model and m.

    The N interpolated inverses come from one contraction of the store,
    whose bits do not depend on the worker count and, under one BLAS
    thread, not on N; under more BLAS threads they may depend on N (see
    _interpolated_green).
    """
    if store.grid.m != config.m or store.mesh is not config.mesh or \
            store.model is not config.model:
        raise ValueError("store was not built for this config's m, mesh "
                         "and model")
    J = max(config.J_list) if J is None else J
    if J < 0:
        raise ValueError(f"J must be >= 0, not {J}")
    thetas = _draw_thetas(config, N)
    greens = _interpolated_green(store, thetas[:, :store.grid.m])

    def step(s, split):
        # with negative Smolyak weights an interpolant of SPD inverses can
        # be indefinite; count such cells, fail if none is SPD
        G, not_spd = greens[s], 0
        try:
            np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            not_spd = np.sum(np.linalg.eigvalsh(G)[:, 0] <= 0.0)
        if not_spd == len(G):
            raise ValueError("interpolated Green's inverse SPD in no cell")
        rec = msfem.sample_errors(config.mesh, split, [J], green=G)
        e, e_col = np.divide(rec.col[J], rec.norm_uh)
        return (np.array([e]), rec.u_h, rec.u_col[J],
                (e, rec.err[J] / rec.norm_uh, e_col, not_spd))

    stats, records = _sample_loop(config, thetas, (J,), step)
    errors = ("e", "e_spl", "e_col")
    extra = dict(zip(errors + ("green_not_spd",),
                     map(np.array, zip(*records))))
    extra.update({f"mean_{key}": float(extra[key].mean()) for key in errors})
    return CollocationStatistics(**stats, extra=extra)
