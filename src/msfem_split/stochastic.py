"""Uncertainty propagation: Monte Carlo, Smolyak collocation, cost ratios.

The parameter-reduction collocation interpolates the per-cell interior
Green's inverses over the leading m random dimensions on a nested
Clenshaw-Curtis Smolyak grid, while the remaining dimensions enter every
sample exactly through the k1 operators.
"""

import itertools
from dataclasses import dataclass, field as dc_field
from math import comb

import numpy as np

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
    """

    def __init__(self, m, L):
        if m < 1 or L < 0:
            raise ValueError("need m >= 1 and L >= 0")
        if smolyak_node_count(m, L) > MAX_GRID_NODES:
            raise MemoryError(
                f"sparse grid would hold more than {MAX_GRID_NODES} nodes")
        self.m = m
        self.L = L
        subgrids = []  # (dims, levels, coeff)
        rows = []
        for dims, levels in _active_level_sets(m, L):
            t = sum(levels)
            coeff = (-1) ** (L - t) * comb(m - 1, L - t)
            if coeff == 0:
                continue
            shape = [2 ** lev + 1 for lev in levels]
            idx = np.full((int(np.prod(shape)), m), 2 ** L // 2)
            if dims:
                local = np.indices(shape).reshape(len(dims), -1).T
                idx[:, list(dims)] = local << (L - np.array(levels))
            subgrids.append((dims, levels, coeff))
            rows.append(idx)
        uniq, first, inverse = np.unique(np.concatenate(rows), axis=0,
                                         return_index=True,
                                         return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ids = np.split(rank[inverse.ravel()],
                       np.cumsum([len(r) for r in rows])[:-1])
        self._subgrids = [sg + (i,) for sg, i in zip(subgrids, ids)]
        self.nodes = _cc_points(L)[uniq[order]]

    @property
    def n_nodes(self):
        return len(self.nodes)

    def interpolation_weights(self, theta):
        """Combination weights (..., n_nodes) at points theta (..., m).

        I_m f(theta) = sum_i w_i f(node_i).
        """
        theta = np.asarray(theta, float)
        if theta.ndim == 0 or theta.shape[-1] != self.m:
            raise ValueError(f"theta must have trailing length {self.m}")
        x = theta.reshape(-1, self.m)
        tables = {lev: _lagrange_table(lev, x)
                  for lev in range(1, self.L + 1)}
        w = np.zeros((len(x), self.n_nodes))
        for dims, levels, coeff, ids in self._subgrids:
            vals = np.ones((len(x), 1))
            for d, lev in zip(dims, levels):
                vals = (vals[:, :, None] * tables[lev][:, None, d]).reshape(
                    len(x), -1)
            w[:, ids] += coeff * vals
        return w.reshape(theta.shape[:-1] + (self.n_nodes,))


def _active_level_sets(m, L):
    """Multi-indices |levels| <= L given as (active dims, their levels >= 1)."""
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

    def new_points(level):
        if level == 0:
            return 1
        if level == 1:
            return 2
        return 2 ** (level - 1)

    total = 0
    for dims, levels in _active_level_sets(m, L):
        prod = 1
        for lev in levels:
            prod *= new_points(lev)
        total += prod
    return total


def build_sparse_grid(m, L):
    return SparseGrid(m, L)


def cost_ratios(n, m, q, L):
    """Collocation-point ratios of reduced vs full parameter dimension."""
    if m > n:
        raise ValueError("need m <= n")
    alpha_ftc = float(q + 1) ** (m - n)
    alpha_sgc = smolyak_node_count(m, L) / smolyak_node_count(n, L)
    return alpha_ftc, alpha_sgc


# ---- precomputed Green's inverses ------------------------------------------


# largest GreenStore a precompute_green_inverses call builds, in bytes
MAX_STORE_BYTES = 2 * 1024 ** 3


@dataclass
class GreenStore:
    """Per (sparse-grid node, coarse cell) interior inverses of M0.

    M0^-1 is symmetric, so each inverse keeps only its row-major lower
    triangle: entry (i, j) with j <= i sits at i(i+1)/2 + j.
    """

    mesh: object
    model: object
    grid: SparseGrid
    m: int
    matrices: np.ndarray  # (n_nodes, n_cells, n_K(n_K+1)/2)


def precompute_green_inverses(mesh, model, grid, m):
    """Assemble, invert and pack M0(node) for every cell and grid node."""
    if grid.m != m:
        raise ValueError("grid dimension must equal m")
    if m > model.n:
        raise ValueError("m must not exceed the KLE truncation")
    n_k = mesh.n_interior
    n_cells = mesh.n_coarse_cells
    need = grid.n_nodes * n_cells * (n_k * (n_k + 1) // 2) * 8
    if need > MAX_STORE_BYTES:
        raise MemoryError(
            f"GreenStore needs {need} bytes > limit {MAX_STORE_BYTES}; "
            "reduce r or the interpolation level")
    asm = fem.LocalAssembler(mesh)
    cell_ids = mesh.cell_fine_cells(np.arange(n_cells))
    # flat positions of the lower triangle and of its mirror image
    row, col = np.tril_indices(n_k)
    lower, upper = row * n_k + col, col * n_k + row
    out = np.empty((grid.n_nodes, n_cells, len(lower)))
    for i, node in enumerate(grid.nodes):
        theta = np.zeros(model.n)
        theta[:m] = node
        k0 = np.exp(field_mod.log_field_partial(model, theta, m))
        G = np.linalg.inv(asm.interior_matrices(k0[cell_ids]))
        G = G.reshape(n_cells, -1)
        out[i] = G[:, lower]
        if not np.abs(out[i] - G[:, upper]).max() <= \
                1e-10 * np.abs(out[i]).max():
            raise ValueError(
                f"Green's inverse at grid node {i} not symmetric")
    return GreenStore(mesh=mesh, model=model, grid=grid, m=m, matrices=out)


def _interpolated_green(store, theta0):
    """I_m M0^-1 of every cell at points (..., m): (..., n_cells, nK, nK).

    The interpolant is unpacked from the lower triangle, so it is
    symmetric by construction.
    """
    theta0 = np.asarray(theta0, float)
    weights = store.grid.interpolation_weights(theta0)
    packed = weights @ store.matrices.reshape(store.grid.n_nodes, -1)
    packed = packed.reshape(theta0.shape[:-1] + store.matrices.shape[1:])
    row, col = np.indices((store.mesh.n_interior,) * 2)
    hi, lo = np.maximum(row, col), np.minimum(row, col)
    return packed[..., hi * (hi + 1) // 2 + lo]


# ---- sampling drivers ------------------------------------------------------


@dataclass
class StochasticConfig:
    """Shared configuration of the Monte Carlo and collocation drivers."""

    mesh: object
    model: object
    m: int
    J_list: tuple
    seed: int
    f: np.ndarray = None


@dataclass
class SampleStatistics:
    """Accumulated per-run statistics of the sampling drivers."""

    N: int
    J_list: tuple
    mean_error: dict
    var_error: dict
    mean_uh: np.ndarray
    var_uh: np.ndarray
    mean_uJh: np.ndarray
    var_uJh: np.ndarray
    eta_max: float
    c_tilde_max: float
    u_energy_mean: float
    bounds: dict
    extra: dict = dc_field(default_factory=dict)


def _finalize_var(sum_, sumsq, N):
    var = sumsq / N - (sum_ / N) ** 2
    return np.clip(var, 0.0, None)


def monte_carlo_run(config, N):
    """Plain Monte Carlo over the full parameter space.

    Per sample: realize k, split at m, solve standard and iterative MsFEM
    plus the fine reference, and accumulate means/variances and the
    empirical solution-level bound.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    mesh = config.mesh
    model = config.model
    J_list = tuple(config.J_list)
    f = config.f if config.f is not None else np.ones(mesh.n_fine_cells)

    err_sum, err_sq, relerr_sum = np.zeros((3, len(J_list)))
    sum_uh, sq_uh, sum_uJ, sq_uJ = np.zeros((4, mesh.n_fine_nodes))
    eta_max = 0.0
    ct_max = 0.0
    u_energy_sum = 0.0

    for s in range(N):
        try:
            theta = sample_theta(config.seed, s, model.n)
            split = field_mod.split_kle(model, theta, config.m)
            u_h, errs = msfem.solution_errors(mesh, split, J_list, f)
            norm_uh = fem.energy_norm(mesh, split.k, u_h)
            u_ref = fem.fine_reference_solve(mesh, split.k, f)
            u_energy_sum += fem.energy_norm(mesh, split.k, u_ref)
            eta_max = max(eta_max, split.eta_global)
            ct_max = max(ct_max, msfem.c_tilde(split))
            e = np.array([errs[J][1] for J in J_list])
            err_sum += e
            err_sq += e * e
            relerr_sum += e / norm_uh if norm_uh else 0.0
            u_J = errs[max(J_list)][0]
            sum_uJ += u_J
            sq_uJ += u_J ** 2
            sum_uh += u_h
            sq_uh += u_h ** 2
        except Exception as exc:
            raise RuntimeError(f"sample {s} failed: {exc}") from exc

    u_energy_mean = u_energy_sum / N
    # no bound without eta_max < 1; callers must not read inf as a pass
    bounds = {J: msfem.solution_error_bound(J, eta_max, ct_max,
                                            u_energy_mean)[0]
              if eta_max < 1.0 else np.inf for J in J_list}
    return SampleStatistics(
        N=N, J_list=J_list,
        mean_error=dict(zip(J_list, err_sum / N)),
        var_error=dict(zip(J_list, _finalize_var(err_sum, err_sq, N))),
        mean_uh=sum_uh / N, var_uh=_finalize_var(sum_uh, sq_uh, N),
        mean_uJh=sum_uJ / N, var_uJh=_finalize_var(sum_uJ, sq_uJ, N),
        eta_max=eta_max, c_tilde_max=ct_max,
        u_energy_mean=u_energy_mean, bounds=bounds,
        extra={"mean_rel_error": dict(zip(J_list, relerr_sum / N))})


def collocation_run(config, N, store, J=None):
    """Parameter-reduction collocation against Monte Carlo references.

    Per sample reports the relative total error e, splitting error e_spl
    and collocation error e_col, all normalized by |||u_h|||.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    mesh = config.mesh
    model = config.model
    if J is None:
        J = max(config.J_list)
    f = config.f if config.f is not None else np.ones(mesh.n_fine_cells)

    thetas = np.array([sample_theta(config.seed, s, model.n)
                       for s in range(N)])
    greens = _interpolated_green(store, thetas[:, :store.m])

    e_tot, e_spl, e_col = np.empty((3, N))
    not_spd = np.zeros(N, dtype=int)
    sum_uh, sq_uh, sum_ut, sq_ut = np.zeros((4, mesh.n_fine_nodes))
    eta_max = 0.0

    for s in range(N):
        try:
            theta = thetas[s]
            split = field_mod.split_kle(model, theta, config.m)
            eta_max = max(eta_max, split.eta_global)
            # with negative Smolyak weights an interpolant of SPD inverses
            # can be indefinite; count such cells, fail if none is SPD
            G = greens[s]
            try:
                np.linalg.cholesky(G)
            except np.linalg.LinAlgError:
                not_spd[s] = np.sum(np.linalg.eigvalsh(G)[:, 0] <= 0.0)
            if not_spd[s] == len(G):
                raise ValueError("interpolated Green's inverse SPD in no cell")
            u_h, u_J, u_t = msfem.msfem_solutions(mesh, split, [J], f, green=G)
            u_J, u_t = u_J[J], u_t[J]
            norm_uh = fem.energy_norm(mesh, split.k, u_h)
            e_tot[s] = fem.energy_norm(mesh, split.k, u_h - u_t) / norm_uh
            e_spl[s] = fem.energy_norm(mesh, split.k, u_h - u_J) / norm_uh
            e_col[s] = fem.energy_norm(mesh, split.k, u_J - u_t) / norm_uh
            sum_uh += u_h
            sq_uh += u_h ** 2
            sum_ut += u_t
            sq_ut += u_t ** 2
        except Exception as exc:
            raise RuntimeError(f"sample {s} failed: {exc}") from exc

    return SampleStatistics(
        N=N, J_list=(J,),
        mean_error={J: float(e_tot.mean())},
        var_error={J: float(e_tot.var())},
        mean_uh=sum_uh / N, var_uh=_finalize_var(sum_uh, sq_uh, N),
        mean_uJh=sum_ut / N, var_uJh=_finalize_var(sum_ut, sq_ut, N),
        eta_max=eta_max, c_tilde_max=0.0, u_energy_mean=0.0, bounds={},
        extra={"e": e_tot, "e_spl": e_spl, "e_col": e_col,
               "green_not_spd": not_spd,
               "mean_e": float(e_tot.mean()),
               "mean_e_spl": float(e_spl.mean()),
               "mean_e_col": float(e_col.mean())})
