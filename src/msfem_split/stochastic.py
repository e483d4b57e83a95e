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
from math import comb, prod

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
    numbered in order of first appearance over the subgrids.

    The subgrids sharing a level tuple form one pattern, kept as its
    (subgrids, k) array of active dimensions.  The combination map is a
    sparse (n_nodes, subgrid points) matrix with one column per subgrid
    point, in subgrid order, holding the subgrid's Smolyak coefficient in
    the row of the point's node.
    """

    def __init__(self, m, L):
        if m < 1 or L < 0:
            raise ValueError("need m >= 1 and L >= 0")
        if smolyak_node_count(m, L) > MAX_GRID_NODES:
            raise MemoryError(
                f"sparse grid would hold more than {MAX_GRID_NODES} nodes")
        self.m = m
        self.L = L
        patterns = {}  # levels -> [dims of each subgrid]
        levels_of, coeffs, rows = [], [], []
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
            levels_of.append(levels)
            coeffs.append(coeff)
            rows.append(idx)
        sizes = [len(r) for r in rows]
        # each row as one opaque item: a sort of bytes, not of m columns.
        # Nodes are numbered by first appearance, so the sort's order of
        # the unique rows does not matter
        rows = np.concatenate(rows)
        _, first, inverse = np.unique(
            rows.view(np.dtype((np.void, rows.itemsize * m))).ravel(),
            return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.nodes = _cc_points(L)[rows[first[order]]]
        self._patterns = [(levels, np.array(dims, dtype=int).reshape(
            len(dims), len(levels))) for levels, dims in patterns.items()]
        # values come pattern by pattern: the rank of each subgrid point, in
        # subgrid order, under a stable sort by pattern is its column there
        pattern = {levels: i for i, levels in enumerate(patterns)}
        self._columns = np.argsort(np.argsort(
            np.repeat([pattern[lv] for lv in levels_of], sizes),
            kind="stable"))
        n_points = len(self._columns)
        self._map = sp.csr_matrix(
            (np.repeat(np.array(coeffs, float), sizes),
             (rank[inverse.ravel()], np.arange(n_points))),
            shape=(len(self.nodes), n_points))

    @property
    def n_nodes(self):
        return len(self.nodes)

    def interpolation_weights(self, theta):
        """Combination weights (..., n_nodes) at points theta (..., m).

        I_m f(theta) = sum_i w_i f(node_i).  Each pattern's tensor products
        are formed for all its subgrids at once, in the order
        ((t1*t2)*t3), and each node sums its subgrid points in subgrid
        order.
        """
        theta = np.asarray(theta, float)
        if theta.ndim == 0 or theta.shape[-1] != self.m:
            raise ValueError(f"theta must have trailing length {self.m}")
        x = theta.reshape(-1, self.m)
        w = np.empty((len(x), self.n_nodes))
        step = max(1, MAX_VALUES // len(self._columns))
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
        values = np.concatenate(blocks, axis=1)[:, self._columns]
        return (self._map @ values.T).T


def _active_level_sets(m, L):
    """Multi-indices |levels| <= L as (active dims, their levels >= 1)."""
    yield (), ()
    for total in range(1, L + 1):
        for k in range(1, total + 1):
            for dims in itertools.combinations(range(m), k):
                for cuts in itertools.combinations(range(1, total), k - 1):
                    parts = [b - a for a, b in
                             zip((0,) + cuts, cuts + (total,))]
                    yield dims, tuple(parts)


def smolyak_node_count(m, L):
    """Exact number of distinct nested CC Smolyak nodes."""
    if m < 0 or L < 0:
        raise ValueError(f"need m >= 0 and L >= 0, not m={m}, L={L}")
    # an active axis at level l adds 2 points at l = 1 and 2^(l-1) above
    return sum(prod(2 ** max(1, lev - 1) for lev in levels)
               for _, levels in _active_level_sets(m, L))


def build_sparse_grid(m, L):
    return SparseGrid(m, L)


def cost_ratios(n, m, q, L):
    """Collocation-point ratios of reduced vs full parameter dimension."""
    if m > n or q < 0:
        raise ValueError(f"need m <= n and q >= 0, not n={n}, m={m}, q={q}")
    alpha_ftc = float(q + 1) ** (m - n)
    alpha_sgc = smolyak_node_count(m, L) / smolyak_node_count(n, L)
    return alpha_ftc, alpha_sgc


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
# pages; the block's temporaries, the sweep's three rows the largest, stay
# small beside it.  Check ru_minflt in tests/reference.py store-digest
# after any change to the block loop.  colloc-L3's store (256 cells,
# nK=9; 2-core Xeon, 1 BLAS thread, two workers, medians of 8) builds in
# 0.96 s with 32-node blocks (this budget; 3.7k faults), 1.25 s with 16
# (3.2k), 1.58 s with 8 (2.0k) and 1.00 s with 64 (5.7k), where
# Gauss-Jordan on 8-node blocks took 1.44 s (3.9k)
STORE_BLOCK_ENTRIES = 8192 * 81
# store nodes per block of the interpolation contraction.  OpenBLAS 0.3.31
# (Haswell kernels) cuts a long inner dimension into panels, and how it cuts
# depends on its thread count; a block at or below the panel size is summed
# in one panel, so blocks summed in node order give the same bits under any
# BLAS thread count.  That is a property of the BLAS build, not a guarantee,
# and a test checks it.  On colloc-L3 (2-core Xeon, 1 BLAS thread) the
# interpolant of 5 points takes 46-58 ms on two workers, against 71-90 ms by
# one GEMM on one core
CONTRACT_BLOCK_NODES = 256
# columns of the dgemm micro-kernel's tile (8 in OpenBLAS's Haswell kernels).
# A column range that starts at a multiple of it is tiled as in the whole
# product, so each column takes the same arithmetic however the columns are
# shared out; a range starting elsewhere changes the last bits of some
# columns
CONTRACT_TILE_COLUMNS = 8


@dataclass
class GreenStore:
    """Per (sparse-grid node, coarse cell) interior inverses of M0.

    M0^-1 is symmetric, so each inverse keeps only its row-major lower
    triangle: entry (i, j) with j <= i sits at i(i+1)/2 + j
    (fem.packed_index).
    """

    mesh: object
    model: object
    grid: SparseGrid
    matrices: np.ndarray  # (n_nodes, n_cells, n_K(n_K+1)/2)
    # the largest scaled residual of the build's check, <= MAX_GREEN_RESIDUAL
    residual: float


def precompute_green_inverses(mesh, model, grid, m):
    """Assemble and invert M0(node) for every cell and grid node.

    The nodes are inverted by fem.packed_inverses in blocks of as many
    whole nodes as fit in STORE_BLOCK_ENTRIES matrix entries, at least one,
    on a pool of threads, one per CPU the process may run on, and each
    block writes its own rows of the store.  Each cell's inverse takes the
    same arithmetic as in a one-node stack, so the store holds the same
    bits under any worker count.  A node whose M0 is not SPD raises
    LinAlgError naming the node and its cell, and one whose inverse fails
    the residual check (fem.inverse_residuals above MAX_GREEN_RESIDUAL in
    a cell) raises ValueError naming the node; of several such nodes, the
    lowest.  The store keeps the largest residual as its residual.  A
    model on another fine grid is refused first.
    """
    mesh.check_fine_grid(model.mesh, "model")
    if grid.m != m:
        raise ValueError("grid dimension must equal m")
    if m > model.n:
        raise ValueError("m must not exceed the KLE truncation")
    n_k = mesh.n_interior
    n_cells = mesh.n_coarse_cells
    entries = n_k * (n_k + 1) // 2
    need = grid.n_nodes * n_cells * entries * 8
    if need > MAX_STORE_BYTES:
        raise MemoryError(
            f"GreenStore needs {need} bytes > limit {MAX_STORE_BYTES}; "
            "reduce r or the interpolation level")
    asm = fem.local_assembler(mesh)
    cell_ids = mesh.cell_fine_cells(np.arange(n_cells))
    out = np.empty((grid.n_nodes, n_cells, entries))
    step = max(1, STORE_BLOCK_ENTRIES // (n_cells * n_k ** 2))
    buffers = threading.local()  # per worker (see STORE_BLOCK_ENTRIES)
    rows = asm.stencil_rows

    def invert(start, stop):
        """Write the inverses of nodes start .. stop-1 into the store;
        returns their largest scaled residual."""
        cells = (stop - start) * n_cells
        if not hasattr(buffers, "storage"):
            # one allocation (see STORE_BLOCK_ENTRIES)
            size = step * n_cells
            work = np.zeros((rows + entries) * size)
            buffers.storage = work[:rows * size].reshape(rows, size)
            buffers.packed = work[rows * size:]
        # the block's columns, so each row means the same in every block,
        # each node's its own n_cells of them
        storage = buffers.storage[:, :cells]
        for i, node in enumerate(grid.nodes[start:stop]):
            kappa = np.exp(field_mod.log_field_partial(model, node, m))
            asm.interior_bands(kappa[cell_ids], out=storage[
                :, i * n_cells:(i + 1) * n_cells])
        G = fem.packed_inverses(storage, out=buffers.packed[
            :cells * entries].reshape(entries, -1))
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
            # nodes, at column node * n_cells + cell; redone node by node,
            # the lowest failing node is named with its own cell, as a loop
            # over the nodes names it
            for i in range(start, stop):
                try:
                    invert(i, i + 1)
                except np.linalg.LinAlgError as exc:
                    raise np.linalg.LinAlgError(
                        f"M0 at grid node {i}: {exc}") from exc
            raise  # not reached: the failing node fails alone as well

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
                      residual=residual)


def _usable_cpus(cap):
    """CPUs this process may run on, at most cap."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, cap))


def _interpolated_green(store, theta0):
    """I_m M0^-1 of every cell at points (..., m): (..., n_cells, nK, nK).

    The weights contract the store in blocks of CONTRACT_BLOCK_NODES nodes,
    summed in node order, on a pool of threads, one per CPU the process may
    run on; each worker sums one contiguous range of whole tiles of
    CONTRACT_TILE_COLUMNS columns.  Each entry takes the same arithmetic
    under any worker count, and a point's entries the same under any
    number of points.  The interpolant is unpacked from the lower
    triangle, so it is symmetric by construction.
    """
    theta0 = np.asarray(theta0, float)
    n_nodes = store.grid.n_nodes
    weights = store.grid.interpolation_weights(theta0).reshape(-1, n_nodes)
    # a one-row product takes a BLAS path of other bits: pad with a zero row
    n_points = len(weights)
    weights = np.pad(weights, ((0, int(n_points < 2)), (0, 0)))
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
    packed = packed[:n_points].reshape(
        theta0.shape[:-1] + store.matrices.shape[1:])
    return packed[..., fem.packed_index(store.mesh.n_interior)]


# ---- sampling drivers ------------------------------------------------------


@dataclass(frozen=True)
class StochasticConfig:
    """Shared configuration of the Monte Carlo and collocation drivers.

    Refuses a model on another fine grid than mesh, an m outside [0,
    model.n], and an empty J_list or one holding a negative J.
    """

    mesh: object
    model: object
    m: int
    J_list: tuple
    seed: int

    def __post_init__(self):
        self.mesh.check_fine_grid(self.model.mesh, "model")
        if not 0 <= self.m <= self.model.n:
            raise ValueError(f"m={self.m} outside [0, {self.model.n}]")
        basis_mod.check_J_list(self.J_list)


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
                                            u_energy_mean)[0]
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
    whose bits do not depend on N or on the worker or BLAS thread count.
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
    e, e_spl, e_col, not_spd = map(np.array, zip(*records))
    return CollocationStatistics(
        **stats, extra={"e": e, "e_spl": e_spl, "e_col": e_col,
                        "green_not_spd": not_spd,
                        "mean_e": float(e.mean()),
                        "mean_e_spl": float(e_spl.mean()),
                        "mean_e_col": float(e_col.mean())})
