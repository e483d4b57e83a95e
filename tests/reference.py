"""Test oracles: scalar per-(cell, vertex) bases and a sparse stiffness.

Each basis function takes the LocalOperators of one cell (M0, M1 as
stencil storage, the stored diagonals of the local stiffness) and one
vertex, expands the bands to dense and factors M0 or M0 + M1 with scipy's
dense Cholesky.  The library instead builds the
bases of all four vertices of a stack of cells through
basis.bubble_series, so comparing the two checks the stacking, the band
operators, the batched and banded factorizations and the lifting.

lift_cells forms the full local values l + E c of stacked corrections,
quadratic_form the exact energy of local values over one cell, eta the
contrast ratio of the domain or of coarse cells, and basis_error_bound the
computable basis-level bound of one cell and vertex from them;
msfem.basis_errors forms both from a sample's own bases instead.

fine_stiffness assembles the global Q1 stiffness as a scipy CSR matrix
over all fine nodes, independently of the library's band assemblers.
fine_stiffness_band sums the free-node band by one bincount over the
element stencils, in the element order of the library's cached sparse map,
so the two agree bit for bit.  band_solve solves a band system by scipy's
cholesky_banded and cho_solve_banded, the f2py wrappers of the dpbtrf and
dpbtrs that the library calls through ctypes, and fine_solve forms the fine
reference solution of the source f = 1 from it and that band, so both
agree with the library bit for bit as well.  band_to_dense expands lower
band storage, such as the coarse system's, to dense matrices,
storage_bands reads local stencil storage as lower band storage, and
cell_inverses expands fem.packed_inverses to whole cells-last matrices.
local_coarse_system forms the coarse Galerkin matrices element by element
from lifted bases, where the library assembles them from the local
operators, and assemble_coarse_system scatter-adds them into a dense
matrix over all coarse vertices.  build_basis_registry and
build_iterative_registries give those lifted bases for every cell.
run_cli runs the command line in a child process under a chosen BLAS
thread count, which a run inside the test process cannot change, and
child_output runs one of a few scripts there, also on a single CPU: a
GreenStore build, its interpolation, an energy norm, a sample with its
fine reference solve, a batched and a small banded Monte Carlo run and a
banded collocation run, each printing the hash of its result.
same_outputs compares two output directories byte for byte, and

    PYTHONPATH=src python tests/reference.py outputs DIR

runs every configs/*.cfg through run_cli under 1 and then 2 BLAS threads
into DIR/t<threads>/<config>, prints the SHA-256 of each output file and
exits 1 if a run fails or the two thread counts' outputs differ: the
byte check of a change that must keep every output bit,

    PYTHONPATH=src python tests/reference.py diff A B

compares two such trees file by file, printing "identical" or the
largest relative change of a CSV cell and its column: the check of a
change that may move CSV cells at round-off only; it exits 1 if the file
sets, a CSV's header or row count, a non-numeric cell or any other file
differ, and

    PYTHONPATH=src python tests/reference.py store-digest

builds the colloc-L3 benchmark workload's GreenStore and prints its
SHA-256, also with its nodes sorted by their coordinates, which no node
numbering changes, its representative cell count and stored MiB, the
build's seconds, its minor page faults with the transparent huge page
mode they ran under and how close its residual check came to failing:
the store's bit anchor.  full_sweep is the symmetric sweep over the
whole packed triangle on a copy, the oracle of fem.spd_inverse's
in-place, band-windowed sweep, and packed packs a cells-last stack for
it.
green_store_loop builds the inverses of every mesh cell one node at a
time, the oracle of precompute_green_inverses' threaded node blocks on
the representative cells, and interpolated_green_gemm contracts that full
store by one GEMM, the oracle of the node-blocked contraction of the
mirrored representatives.

The mesh geometry helpers and covariance_kernel are oracles for the mesh
addressing and the separable KLE.  smolyak_weights sums the Smolyak
combination formula one subgrid at a time, numbering each subgrid point
by a lookup of its coordinates among the grid's nodes, where
SparseGrid.interpolation_weights forms the tensor products per level
pattern and sums them through its sparse combination map; each node sums
the same products in the same order, so the two agree bit for bit.
shift_splitting, a repair of splittings with eta >= 1 that no experiment
runs, is kept here with its tests.
"""

import csv
import hashlib
import os
import resource
import subprocess
import sys
import time
from functools import partial
from math import comb, isqrt
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

import msfem_split
from msfem_split import basis, fem, field
from msfem_split import stochastic as st


def _child_env(threads):
    """Environment of a child that imports this checkout's msfem_split under
    `threads` BLAS threads."""
    src = str(Path(msfem_split.__file__).resolve().parents[1])
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                OMP_NUM_THREADS=str(threads),
                PYTHONPATH=os.pathsep.join(
                    filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cli(config, out, threads):
    """Exit code of `msfem_split.cli run` in a child with `threads` BLAS
    threads; the child is given at most 600 s."""
    cmd = [sys.executable, "-m", "msfem_split.cli", "run", str(config),
           "--out", str(out)]
    return subprocess.run(cmd, env=_child_env(threads), capture_output=True,
                          timeout=600).returncode


# every child script starts here: on one CPU when asked, and with digest()
_CHILD_PRELUDE = """
import hashlib, os, sys
import numpy as np
import msfem_split as ms
from msfem_split import fem, stochastic as st
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
"""

_CHILDREN = {
    # a GreenStore of 33 nodes of 64 representative cells at nK=4, in 9
    # blocks of 4 nodes: the size of the pool its build ran on and the
    # SHA-256 of its matrices
    "store": """
from concurrent.futures import ThreadPoolExecutor
pools = []
def pool(workers):
    pools.append(workers)
    return ThreadPoolExecutor(workers)
st.ThreadPoolExecutor = pool
st.STORE_BLOCK_ENTRIES = 4 * 64 * 4 ** 2
mesh = ms.build_mesh(16, 16, 3)
model = ms.build_kle_model(mesh, 1.0, 0.1, 0.1, 16)
store = ms.precompute_green_inverses(mesh, model, ms.build_sparse_grid(16, 1),
                                     16)
assert store.matrices.shape[1] == 64
print(*pools, digest(store.matrices))
""",
    # the interpolant of a 16-cell, 849-node store (not a multiple of
    # CONTRACT_BLOCK_NODES) at 5 points: the contraction's workers and the
    # SHA-256 of the interpolant
    "green": """
mesh = ms.build_mesh(4, 4, 4)
model = ms.build_kle_model(mesh, 1.0, 0.1, 0.1, 8)
store = ms.precompute_green_inverses(mesh, model, ms.build_sparse_grid(8, 3),
                                     8)
points = np.array([ms.sample_theta(12345, s, 8) for s in range(5)])
print(st._usable_cpus(10 ** 6), digest(st._interpolated_green(store, points)))
""",
    # fem.energy_norm over 16 384 fine cells, above the size at which
    # OpenBLAS splits a dot over its threads: the norm's bits in hex
    "energy": """
mesh = ms.build_mesh(32, 32, 4)
rng = np.random.default_rng(0)
k = rng.uniform(0.5, 2.0, mesh.n_fine_cells)
v = rng.standard_normal(mesh.n_fine_nodes)
print(fem.energy_norm(mesh, k, v).hex())
""",
    # one sample_errors with the fine reference on a 4x4, r=30 mesh, whose
    # 14 161 x 121 fine band is large enough for OpenBLAS to factor on
    # several threads, while the standard basis and then the fine solve run
    # on a worker beside the bubble series: the SHA-256 of u, of u_h and of
    # the u_J
    "reference": """
mesh = ms.build_mesh(4, 4, 30)
model = ms.build_kle_model(mesh, 2.25, 0.7, 0.04, 20)
split = ms.split_kle(model, ms.sample_theta(7, 0, 20), 16)
rec = ms.msfem.sample_errors(mesh, split, [1, 2], reference=True)
print(digest(rec.u), digest(rec.u_h), digest([rec.u_J[1], rec.u_J[2]]))
""",
    # a batched (r=4, nK=9) Monte Carlo run of 2 samples on a 16x16 mesh,
    # the mc-r4 benchmark workload's call: the SHA-256 of its means
    "mc-batched": """
mesh = ms.build_mesh(16, 16, 4)
model = ms.build_kle_model(mesh, 1.0, 0.1, 0.1, 20)
config = st.StochasticConfig(mesh=mesh, model=model, m=14,
                             J_list=(0, 1, 2, 3, 4), seed=12345)
stats = ms.monte_carlo_run(config, 2)
print(digest(np.concatenate([stats.mean_uh, stats.mean_uJh,
                             list(stats.mean_error.values()),
                             [stats.u_energy_mean]])))
""",
    # a banded (r=6, nK=25) Monte Carlo run of 2 samples on a 2x2 mesh:
    # the SHA-256 of its means
    "mc": """
mesh = ms.build_mesh(2, 2, 6)
model = ms.build_kle_model(mesh, 1.0, 0.3, 0.2, 6)
config = st.StochasticConfig(mesh=mesh, model=model, m=2, J_list=(0, 2),
                             seed=11)
stats = ms.monte_carlo_run(config, 2)
print(digest(np.concatenate([stats.mean_uh, stats.mean_uJh,
                             list(stats.mean_error.values()),
                             [stats.u_energy_mean]])))
""",
    # a banded collocation run of 2 samples against a 5-node store on the
    # same mesh: the SHA-256 of its means and per-sample errors
    "colloc": """
mesh = ms.build_mesh(2, 2, 6)
model = ms.build_kle_model(mesh, 1.0, 0.3, 0.2, 6)
store = ms.precompute_green_inverses(mesh, model, ms.build_sparse_grid(2, 1),
                                     2)
config = st.StochasticConfig(mesh=mesh, model=model, m=2, J_list=(1,),
                             seed=11)
stats = ms.collocation_run(config, 2, store)
print(digest(np.concatenate([stats.mean_uh, stats.mean_uJh,
                             stats.extra["e"], stats.extra["e_spl"]])))
""",
    # node counts whose C(m + L, L) level sets took seconds to enumerate
    # ((16, 9) 4.3 s) or would take minutes ((16, 12)), and the
    # SparseGrid guard that counts the latter
    "smolyak-count": """
print(st.smolyak_node_count(16, 9), st.smolyak_node_count(20, 7))
try:
    st.SparseGrid(16, 12)
except MemoryError:
    print("refused")
""",
}


def child_output(name, threads, one_cpu=False, timeout=600):
    """Words printed by child script `name` run in a child process under
    `threads` BLAS threads, on one CPU or on every CPU this one may use,
    within timeout seconds."""
    cmd = [sys.executable, "-c", _CHILD_PRELUDE + _CHILDREN[name],
           "one-cpu" if one_cpu else "all-cpus"]
    res = subprocess.run(cmd, env=_child_env(threads), capture_output=True,
                         text=True, timeout=timeout, check=True)
    return tuple(res.stdout.split())


def same_outputs(out1, out2):
    """True when two output directories hold byte-identical files."""
    names = sorted(p.name for p in Path(out1).iterdir())
    return names == sorted(p.name for p in Path(out2).iterdir()) and all(
        (Path(out1) / n).read_bytes() == (Path(out2) / n).read_bytes()
        for n in names)


def fine_stiffness(mesh, k):
    """Sparse global Q1 stiffness over all fine nodes."""
    k = np.asarray(k, float)
    conn = mesh.fine_element_nodes
    ke = fem.element_stiffness(mesh.hx, mesh.hy)
    vals = (k[:, None, None] * ke).ravel()
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(mesh.n_fine_nodes, mesh.n_fine_nodes))


def fine_stiffness_band(mesh, k):
    """(nxf + 1, n_free) lower band of the free-node stiffness, summed by
    one bincount over the element stencils in ascending element order."""
    free = ~mesh.boundary_node_mask()
    n = int(free.sum())
    pos = np.where(free, np.cumsum(free) - 1, -1)[mesh.fine_element_nodes]
    row, col = pos[:, :, None], pos[:, None, :]
    keep = (col >= 0) & (row >= col)
    ke = fem.element_stiffness(mesh.hx, mesh.hy)
    vals = np.asarray(k, float)[:, None, None] * ke
    return np.bincount(((row - col) * n + col)[keep], vals[keep],
                       minlength=(mesh.nxf + 1) * n).reshape(-1, n)


def band_solve(bands, rhs):
    """Solution of the SPD system in lower band storage bands, by scipy."""
    return sla.cho_solve_banded((sla.cholesky_banded(bands, lower=True),
                                 True), rhs)


def fine_solve(mesh, k):
    """Fine Galerkin solution of f = 1 from band_solve of
    fine_stiffness_band."""
    free = ~mesh.boundary_node_mask()
    u = np.zeros(mesh.n_fine_nodes)
    u[free] = band_solve(fine_stiffness_band(mesh, k),
                         fem.fine_load(mesh)[free])
    return u


def band_to_dense(bands):
    """(n, n, ...) symmetric matrices of lower band storage (w, n, ...),
    bands[d, j, ...] = A[j+d, j, ...], any cells last; the entries past
    each diagonal's end are not read."""
    w, n = bands.shape[:2]
    dense = np.zeros((n, n) + bands.shape[2:])
    for d in range(min(w, n)):
        j = np.arange(n - d)
        dense[j + d, j] = dense[j, j + d] = bands[d, :n - d]
    return dense


def storage_bands(storage):
    """(r+1, n, ...) lower band storage of local stencil storage
    (w*n + 1, ...), any cells last: its rows at the stencil offsets, zero
    between."""
    n = next(n for n in range(1, len(storage)) if isqrt(n) ** 2 == n and
             len(stencil_offsets(n)) * n + 1 == len(storage))
    offsets = stencil_offsets(n)
    bands = np.zeros((offsets[-1] + 1, n) + storage.shape[1:])
    bands[offsets] = storage[:-1].reshape(bands[offsets].shape)
    return bands


def cell_inverses(storage):
    """(n, n, cells) inverses of SPD local stencil storage (w*n + 1,
    cells): fem.packed_inverses expanded to whole matrices, with the cells
    last."""
    packed = fem.packed_inverses(storage)
    return np.take(packed, fem.packed_index(fem._packed_order(len(packed))),
                   axis=0)


def lift_cells(asm, interior):
    """(cells, n_loc, 4) local values l + E c of (cells, nK, 4) corrections."""
    out = np.repeat(asm.hats[None], len(interior), axis=0)
    out[:, asm.interior_idx] += interior
    return out


def quadratic_form(asm, kappa_local, values):
    """Exact energy (k grad v, grad v) of local values over one coarse cell,
    summed element by element."""
    ve = values[asm.conn]
    return float(np.einsum("e,ei,ij,ej->", kappa_local, ve, asm.ke, ve))


def eta(splitting, region=None):
    """Contrast ratio max |k1|/k0 over the whole domain or coarse cells.

    A float for the domain or one cell, an array for a sequence of cells.
    """
    if region is None:
        return splitting.eta_global
    mesh = splitting.mesh
    mesh._check_cell(region)
    ratio = np.abs(splitting.k1) / splitting.k0
    per_cell = ratio.reshape(mesh.ny_coarse, mesh.r, mesh.nx_coarse,
                             mesh.r).max(axis=(1, 3)).ravel()[region]
    return per_cell if np.ndim(region) else float(per_cell)


def basis_error_bound(asm, splitting, cell, vertex, J):
    """2 ||k1/sqrt(k k0)||_inf eta_K^(J+1) ||sqrt(k0) grad l||_K of one cell
    and vertex, from the cell's field values and quadratic_form."""
    fine = splitting.mesh.cell_fine_cells(cell)
    k0, k1, k = splitting.k0[fine], splitting.k1[fine], splitting.k[fine]
    sup = np.max(np.abs(k1) / np.sqrt(k * k0))
    grad_l = np.sqrt(quadratic_form(asm, k0, asm.hats[:, vertex]))
    return float(2.0 * sup * eta(splitting, cell) ** (J + 1) * grad_l)


def _dense(ops):
    """(M0, M1) of one cell as dense matrices."""
    return fem.stencil_to_dense(ops.M0), fem.stencil_to_dense(ops.M1)


def _lift(ops, vertex, interior):
    """Hat boundary data plus an interior correction, as full local values."""
    out = ops.assembler.hats[:, vertex].copy()
    out[ops.assembler.interior_idx] += interior
    return out


def _solve(matrix, rhs):
    return sla.cho_solve(sla.cho_factor(matrix, lower=True), rhs)


def standard_basis(ops, vertex):
    """Local values of phi = l - M^-1 v, M = M0 + M1."""
    M0, M1 = _dense(ops)
    v = ops.v0[:, vertex] + ops.v1[:, vertex]
    return _lift(ops, vertex, -_solve(M0 + M1, v))


def bubble_sequence(ops, vertex, J, G=None):
    """(Pi l, [xi_0 .. xi_J]) on the interior nodes.

    Pi l = M0^-1 v0, xi_0 = M0^-1 (M1 Pi l - v1) and
    xi_j = -M0^-1 M1 xi_{j-1}; given G, G @ replaces every M0^-1.
    """
    M0, M1 = _dense(ops)
    solve = partial(np.matmul, G) if G is not None else \
        partial(sla.cho_solve, sla.cho_factor(M0, lower=True))
    pi_l = solve(ops.v0[:, vertex])
    xis = [solve(M1 @ pi_l - ops.v1[:, vertex])]
    for _ in range(J):
        xis.append(-solve(M1 @ xis[-1]))
    return pi_l, xis


def iterative_basis_sequence(ops, vertex, J, G=None):
    """Local values of phi_0 .. phi_J, phi_J = l - Pi l + sum_{j<=J} xi_j."""
    pi_l, xis = bubble_sequence(ops, vertex, J, G)
    out = []
    acc = -pi_l
    for xi in xis:
        acc = acc + xi
        out.append(_lift(ops, vertex, acc))
    return out


def xi_direct(ops, vertex):
    """Limit of the bubble series: (M0 + M1) xi = M1 M0^-1 v0 - v1."""
    M0, M1 = _dense(ops)
    pi_l = _solve(M0, ops.v0[:, vertex])
    return _solve(M0 + M1, M1 @ pi_l - ops.v1[:, vertex])


# ---- coarse Galerkin stage from lifted bases --------------------------------


def _all_cells(mesh, splitting):
    return fem.assemble_local_operators(
        mesh, np.arange(mesh.n_coarse_cells), splitting)


def build_basis_registry(mesh, splitting, kind="standard", J=0):
    """(n_cells, n_loc, 4) lifted bases of every cell: standard, or
    iterative at J."""
    if kind == "standard":
        ops = _all_cells(mesh, splitting)
        return lift_cells(ops.assembler, basis.standard_bases(ops))
    if kind == "iterative":
        return build_iterative_registries(mesh, splitting, [J])[J]
    raise ValueError(f"unknown basis kind {kind!r}")


def build_iterative_registries(mesh, splitting, J_list, green=None):
    """{J: (n_cells, n_loc, 4)} lifted iterative bases, collocated given
    green."""
    ops = _all_cells(mesh, splitting)
    return {J: lift_cells(ops.assembler, c)
            for J, (c, _) in basis.iterative_bases(ops, J_list, green).items()}


def local_coarse_system(mesh, bases, k):
    """(local A (cells, 4, 4), local F (cells, 4)) of lifted bases.

    A_ij = sum over the cell's fine elements of (k grad phi_i, grad phi_j),
    F_i = (1, phi_i) by the nodal quadrature of the fine load.
    """
    k = np.asarray(k, float)
    f = np.ones(mesh.n_fine_cells)
    cells = np.arange(mesh.n_coarse_cells)
    fine = mesh.cell_fine_cells(cells)
    # element-wise quadratic form: (cells, elements, element node, vertex)
    be = bases[:, mesh.local_element_nodes]
    ke_be = fem.element_stiffness(mesh.hx, mesh.hy) @ be
    n = len(cells)
    local_A = np.matmul((k[fine][:, :, None, None] * be).reshape(n, -1, 4)
                        .transpose(0, 2, 1), ke_be.reshape(n, -1, 4))
    local_F = (f[fine][:, None, :] @ be.sum(axis=2))[:, 0] \
        * (mesh.hx * mesh.hy / 4)
    return local_A, local_F


def scatter_coarse_system(mesh, local_A, local_F):
    """Dense (A, F) over all coarse vertices, scatter-added cell by cell."""
    verts = mesh.cell_vertices(np.arange(mesh.n_coarse_cells))
    nv = mesh.n_coarse_vertices
    A = np.zeros((nv, nv))
    F = np.zeros(nv)
    np.add.at(A, (verts[:, :, None], verts[:, None, :]), local_A)
    np.add.at(F, verts, local_F)
    return A, F


def assemble_coarse_system(mesh, bases, k):
    """Dense Galerkin (A, F) of lifted bases over all coarse vertices."""
    return scatter_coarse_system(mesh, *local_coarse_system(mesh, bases, k))


def stencil_offsets(n):
    """Diagonals a local stencil stack on n interior nodes stores, in order.

    The nodes run row-major over rows of s = sqrt(n), so a node meets its
    9-point stencil neighbours 1, s - 1, s and s + 1 entries further on.
    """
    s = int(round(np.sqrt(n)))
    assert s * s == n
    return sorted({0, 1, s - 1, s, s + 1})


def lower_bands(A, w):
    """(w, n) lower band storage of a dense (n, n) matrix, zero-padded."""
    n = len(A)
    bands = np.zeros((w, n))
    for d in range(min(w, n)):
        bands[d, :n - d] = np.diagonal(A, -d)
    return bands


# ---- mesh geometry and the log-field covariance -----------------------------


def local_interior_nodes(mesh, cell):
    """Global fine-node ids of the (r-1)^2 interior local nodes."""
    return mesh.cell_fine_nodes(cell)[..., mesh.local_interior_mask]


def coarse_vertex_fine_node(mesh, vertex):
    """Fine-node id coinciding with a global coarse vertex."""
    vx = vertex % (mesh.nx_coarse + 1)
    vy = vertex // (mesh.nx_coarse + 1)
    return (vy * mesh.r) * (mesh.nxf + 1) + vx * mesh.r


def fine_node_coords(mesh):
    """(n_fine_nodes, 2) coordinates, row-major with x fastest."""
    x = np.linspace(0.0, 1.0, mesh.nxf + 1)
    y = np.linspace(0.0, 1.0, mesh.nyf + 1)
    xx, yy = np.meshgrid(x, y, indexing="xy")
    return np.column_stack([xx.ravel(), yy.ravel()])


def fine_cell_centers(mesh):
    """(n_fine_cells, 2) cell centers, row-major with x fastest."""
    x = (np.arange(mesh.nxf) + 0.5) * mesh.hx
    y = (np.arange(mesh.nyf) + 0.5) * mesh.hy
    xx, yy = np.meshgrid(x, y, indexing="xy")
    return np.column_stack([xx.ravel(), yy.ravel()])


def shift_splitting(splitting, margin=0.01):
    """Repair a splitting with eta >= 1 by a constant shift of k0 and k1.

    The shift s exceeds sup max((k1-k0)/2, -k0) by the given relative
    margin, which guarantees the shifted contrast ratio drops below one.
    Splittings already satisfying eta < 1 are returned unchanged.
    """
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    if splitting.eta_global < 1.0:
        return splitting
    bound = np.maximum((splitting.k1 - splitting.k0) / 2.0,
                       -splitting.k0).max()
    s = (1.0 + margin) * bound
    if s <= 0.0:
        s = margin * splitting.k0.max()
    return field.make_splitting(splitting.mesh, splitting.k0 + s,
                                splitting.k1 - s)


def covariance_kernel(p1, p2, sigma2, lx, ly):
    """Separable squared-exponential covariance of the log-field."""
    dx2 = (p1[:, None, 0] - p2[None, :, 0]) ** 2
    dy2 = (p1[:, None, 1] - p2[None, :, 1]) ** 2
    return sigma2 * np.exp(-dx2 / (2.0 * lx) - dy2 / (2.0 * ly))


def smolyak_weights(grid, theta):
    """Weights (..., n_nodes) of a SparseGrid, summed subgrid by subgrid."""
    m, L = grid.m, grid.L
    theta = np.asarray(theta, float)
    x = theta.reshape(-1, m)
    tables = {lev: st._lagrange_table(lev, x) for lev in range(1, L + 1)}
    node_id = {tuple(node): i for i, node in enumerate(grid.nodes)}
    finest = st._cc_points(L)
    w = np.zeros((len(x), grid.n_nodes))
    for dims, levels in st._active_level_sets(m, L):
        t = sum(levels)
        coeff = (-1) ** (L - t) * comb(m - 1, L - t)
        if coeff == 0:
            continue
        shape = [2 ** lev + 1 for lev in levels]
        idx = np.full((int(np.prod(shape)), m), 2 ** L // 2)
        if dims:
            local = np.indices(shape).reshape(len(dims), -1).T
            idx[:, list(dims)] = local << (L - np.array(levels))
        ids = [node_id[tuple(point)] for point in finest[idx]]
        vals = np.ones((len(x), 1))
        for d, lev in zip(dims, levels):
            vals = (vals[:, :, None] * tables[lev][:, None, d]).reshape(
                len(x), -1)
        w[:, ids] += coeff * vals
    return w.reshape(theta.shape[:-1] + (grid.n_nodes,))


def full_sweep(a):
    """Inverses of a packed (n(n+1)/2, cells) SPD stack by a full sweep.

    The symmetric sweep of fem.spd_inverse with every step updating the
    whole packed triangle, on a copy, each column k gathered through the
    triangle's index map: the oracle of its in-place, band-windowed sweep,
    which must equal it bit for bit, and of its pivot failures.
    """
    a = np.array(a, dtype=float, order="C")
    n = (isqrt(8 * len(a) + 1) - 1) // 2
    row, col = np.tril_indices(n)
    index = np.zeros((n, n), dtype=int)
    index[row, col] = index[col, row] = np.arange(len(row))
    for k in range(n):
        v = a[index[k]]
        pivot = v[k]
        cell = np.argmin(pivot)
        if not pivot[cell] > 0.0:
            raise np.linalg.LinAlgError(
                f"matrix is not SPD: pivot {k} is {pivot[cell]:.3g} "
                f"in cell {cell}")
        u = v / pivot
        a -= v[row] * u[col]
        a[index[k]] = u
        a[index[k, k]] = -1.0 / pivot
    return -a


def packed(a):
    """(n(n+1)/2, cells) packed lower triangles of a cells-last (n, n,
    cells) stack, C-ordered."""
    return np.ascontiguousarray(a[np.tril_indices(len(a))])


def green_store_loop(mesh, model, grid, m):
    """(n_nodes, n_cells, nK(nK+1)/2) packed inverses of every mesh cell,
    as GreenStore.matrices keeps its representatives', by a loop over the
    nodes, one stack per node.

    Each node's M0 storage is read as lower band storage by storage_bands.
    Up to fem.BATCHED_MAX_N it is expanded by band_to_dense, packed and
    inverted by full_sweep; above it each cell's (r+1)-row lower band is
    factored by scipy's banded Cholesky and solved against the identity.
    """
    asm = fem.local_assembler(mesh)
    cells = mesh.cell_fine_cells(np.arange(mesh.n_coarse_cells))
    n_k = mesh.n_interior
    row, col = np.tril_indices(n_k)
    out = np.empty((grid.n_nodes, len(cells), len(row)))
    for i, node in enumerate(grid.nodes):
        theta = np.zeros(model.n)
        theta[:m] = node
        k0 = np.exp(field.log_field_partial(model, theta, m))[cells]
        bands = storage_bands(asm.interior_bands(k0))
        if n_k <= fem.BATCHED_MAX_N:
            out[i] = full_sweep(packed(band_to_dense(bands))).T
        else:
            out[i] = np.array([band_solve(bands[..., c], np.eye(n_k))
                               for c in range(len(cells))])[:, row, col]
    return out


def interpolated_green_gemm(store, theta0):
    """I_m M0^-1 at points (..., m) from one GEMM over all grid nodes of
    the inverses of every mesh cell, as green_store_loop builds them."""
    theta0 = np.asarray(theta0, float)
    matrices = green_store_loop(store.mesh, store.model, store.grid,
                                store.grid.m)
    weights = store.grid.interpolation_weights(theta0)
    packed = weights @ matrices.reshape(store.grid.n_nodes, -1)
    packed = packed.reshape(theta0.shape[:-1] + matrices.shape[1:])
    row, col = np.indices((store.mesh.n_interior,) * 2)
    hi, lo = np.maximum(row, col), np.minimum(row, col)
    return packed[..., hi * (hi + 1) // 2 + lo]


def config_outputs(root):
    """Run every configs/*.cfg under 1 and 2 BLAS threads into
    root/t<threads>/<config>, printing "sha256  t<threads>/<config>/<file>"
    for each output file; 0 if every run passes and the two thread counts
    give the same bytes, else 1."""
    root = Path(root)
    configs = sorted((Path(__file__).resolve().parents[1] / "configs")
                     .glob("*.cfg"))
    ok = bool(configs)
    for threads in (1, 2):
        for config in configs:
            out = root / f"t{threads}" / config.stem
            ok &= run_cli(config, out, threads) == 0
            for path in sorted(out.glob("*")):
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                      f"{path.relative_to(root).as_posix()}")
    return 0 if ok and all(
        same_outputs(root / "t1" / c.stem, root / "t2" / c.stem)
        for c in configs) else 1


def _csv_change(path_a, path_b):
    """(largest relative change, its column) over the cells of two CSV
    files, or None if their headers, row counts, row lengths or
    non-numeric cells differ.  A change from zero is infinite."""
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return None
    worst = (0.0, "")
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        if len(row_a) != len(row_b):
            return None
        for column, x, y in zip(rows_a[0], row_a, row_b):
            if x == y:
                continue
            try:
                x, y = float(x), float(y)
            except ValueError:
                return None
            change = abs(y - x) / abs(x) if x else float("inf")
            worst = max(worst, (change, column))
    return worst


def diff_outputs(a, b):
    """Compare every file of the output trees a and b by relative path,
    printing "identical", the largest relative change of a CSV cell with
    its column, or how the file differs; 1 if the file sets differ, or a
    CSV's header, row count or non-numeric cells, or a file that is not a
    CSV, else 0."""
    a, b = Path(a), Path(b)
    names = sorted({p.relative_to(root).as_posix() for root in (a, b)
                    for p in root.rglob("*") if p.is_file()})
    ok = bool(names)
    for name in names:
        path_a, path_b = a / name, b / name
        if not (path_a.is_file() and path_b.is_file()):
            result = f"only in {a if path_a.is_file() else b}"
        elif path_a.read_bytes() == path_b.read_bytes():
            result = "identical"
        elif path_a.suffix != ".csv":
            result = "differs"
        else:
            change = _csv_change(path_a, path_b)
            result = ("header, rows or non-numeric cells differ"
                      if change is None else
                      f"largest relative change {change[0]:.2g} in column "
                      f"{change[1]}")
        ok &= result.startswith(("identical", "largest"))
        print(f"{result}  {name}")
    return 0 if ok else 1


def _huge_page_mode():
    """The transparent huge page mode the kernel runs, the bracketed word
    of /sys/kernel/mm/transparent_hugepage/enabled; unknown without it."""
    try:
        text = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
    except OSError:
        return "unknown"
    return next((w[1:-1] for w in text.split() if w.startswith("[")),
                "unknown")


def store_digest():
    """Build colloc-L3's GreenStore (16x16 mesh, r=4, sigma2=1, l=0.1,
    n=20, m=16, L=3) and print the SHA-256 of its matrices, again with
    its nodes in lexicographic order of their coordinates, how many of
    the mesh cells it keeps as representatives and the MiB it stores, the
    build's seconds, the minor page faults it took (ru_minflt) under the
    transparent huge page mode printed beside them, which they depend on,
    and its largest scaled residual against the check's bound; 0."""
    mesh = msfem_split.build_mesh(16, 16, 4)
    model = msfem_split.build_kle_model(mesh, 1.0, 0.1, 0.1, 20)
    grid = msfem_split.build_sparse_grid(16, 3)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    store = msfem_split.precompute_green_inverses(mesh, model, grid, 16)
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(f"sha256 {hashlib.sha256(store.matrices).hexdigest()}")
    # the same store with its nodes in lexicographic order of their
    # coordinates: equal across node numberings that keep each inverse
    order = np.lexsort(grid.nodes.T[::-1])
    print(f"sha256_by_coordinates "
          f"{hashlib.sha256(store.matrices[order]).hexdigest()}")
    print(f"cells {len(store.cells)} of {mesh.n_coarse_cells}")
    print(f"store_mib {store.matrices.nbytes / 2 ** 20:.1f}")
    print(f"build_s {seconds:.3f}")
    print(f"ru_minflt {faults} thp {_huge_page_mode()}")
    print(f"residual {store.residual:.3g} / {st.MAX_GREEN_RESIDUAL:g} = "
          f"{store.residual / st.MAX_GREEN_RESIDUAL:.3g}")
    return 0


USAGE = """usage: PYTHONPATH=src python tests/reference.py outputs DIR
       PYTHONPATH=src python tests/reference.py diff A B
       PYTHONPATH=src python tests/reference.py store-digest"""

if __name__ == "__main__":
    if sys.argv[1:2] == ["outputs"] and len(sys.argv) == 3:
        sys.exit(config_outputs(sys.argv[2]))
    if sys.argv[1:2] == ["diff"] and len(sys.argv) == 4:
        sys.exit(diff_outputs(sys.argv[2], sys.argv[3]))
    if sys.argv[1:] == ["store-digest"]:
        sys.exit(store_digest())
    sys.exit(USAGE)
