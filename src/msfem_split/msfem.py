"""Coarse-scale Galerkin assembly, downscaling, basis and solution errors.

The solution pipeline works on stacks over coarse cells: local operators
(fem.LocalOperators), factorizations and bases are arrays over cells,
built for every cell of the mesh at once.  The local operators carry the
splitting k = k0 + k1 they were read from, so the coarse stage and the
basis errors take them alone, never the coefficient a second time.

A basis is the vertex hats plus an interior correction, phi = H + E c (see
basis), so the local coarse matrix and load follow from the local operators
v = v0 + v1 and M = M0 + M1 already assembled for the bases:

    phi^T A_K phi = H^T A_K H + c^T v + v^T c + c^T M c
                  = H^T A_K H + v^T c + c^T r,
    phi^T W f = H^T W f + c^T W_I f,

with A_K the local stiffness, W the local load map, W_I its interior rows
and r = M c + v the Galerkin residual of the correction.  The bases hand
over r from work they have done: r = 0 for the standard basis
c = -M^-1 v, whose matrix is then the static-condensation Schur complement
H^T A_K H - v^T M^-1 v, and r = M1 xi_J for the iterative basis of order
J, the product its bubble series forms anyway (basis.iterative_bases).
Only a collocated basis, whose interpolated Green's inverse is not M0^-1,
pays for one product of M.  This only reorders the sum a(phi_i, phi_j) of
the MsFEM coarse matrix (Hou & Wu, J. Comput. Phys. 134, 1997).
The source is f = 1 throughout; H^T A_K H is a fixed linear map of a
cell's coefficient values (fem.LocalAssembler.hat_stiffness).

A sample's bases are built in one place, _bases; sample_errors measures
them at the solution level and basis_errors at the basis level.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp

from . import basis as basis_mod
from . import fem


class CoarseMaps:
    """Fixed maps and index arrays of the coarse stage of one mesh.

    unit_loads holds the loads H^T W f (4,) and W_I f (nK,) of the source
    f = 1, the same in every cell.  fine, nodes and vertices hold the
    fine cells, fine nodes and coarse vertices of every cell.  The free
    vertices run row-major over rows of nx_coarse - 1, so the coarse matrix
    has half-bandwidth nx_coarse; band_index holds the flat position in
    (nx_coarse + 1, n_free) lower band storage of each entry that band_keep
    selects from a (cells, 4, 4) stack, and load_index that of each load
    entry that load_keep selects.
    """

    def __init__(self, mesh):
        asm = self.assembler = fem.local_assembler(mesh)
        cells = np.arange(mesh.n_coarse_cells)
        self.fine = mesh.cell_fine_cells(cells)
        self.nodes = mesh.cell_fine_nodes(cells)
        self.vertices = mesh.cell_vertices(cells)

        conn, n_el = mesh.local_element_nodes, mesh.r ** 2
        load = sp.csr_matrix(
            (np.full(conn.size, mesh.hx * mesh.hy / 4.0),
             (conn.ravel(), np.repeat(np.arange(n_el), 4))),
            shape=(asm.n_loc, n_el))
        # summed by einsum, not by a BLAS GEMM, which OpenBLAS splits over
        # its threads on large meshes, so that the sums depend on their count
        ones = np.ones((1, n_el))
        self.unit_loads = (
            np.einsum("ce,qe->cq", ones, (load.T @ asm.hats).T)[0],
            (load[asm.interior_idx] @ ones.T)[:, 0])

        self.free = mesh.interior_coarse_vertices()
        n = self.n_free = len(self.free)
        self.band_rows = mesh.nx_coarse + 1
        pos = np.full(mesh.n_coarse_vertices, -1)
        pos[self.free] = np.arange(n)
        p = pos[self.vertices]
        row, col = p[:, :, None], p[:, None, :]
        self.band_keep = (col >= 0) & (row >= col)
        self.band_index = ((row - col) * n + col)[self.band_keep]
        self.load_keep = p >= 0
        self.load_index = p[self.load_keep]

    def bands(self, local_A):
        """Lower band storage of the free-vertex part of sum_K local_A."""
        shape = (self.band_rows, self.n_free)
        return np.bincount(self.band_index, local_A[self.band_keep],
                           minlength=shape[0] * shape[1]).reshape(shape)

    def load(self, local_F):
        """Free-vertex part of sum_K local_F."""
        return np.bincount(self.load_index, local_F[self.load_keep],
                           minlength=self.n_free)


@lru_cache(maxsize=4)
def coarse_maps(mesh):
    """The CoarseMaps of a mesh, built on its first use."""
    return CoarseMaps(mesh)


def local_coarse_systems(ops, bases):
    """{key: (local A (cells, 4, 4), local F (cells, 4))} of bases H + E c.

    ops is the LocalOperators stack of every cell of the mesh, whose
    splitting's k gives the hat energies, and bases maps each key to a
    (cells, nK, 4) correction c and its Galerkin residual r = M c + v, or
    None where r = 0 (c = -M^-1 v, the standard basis).
    """
    maps = coarse_maps(ops.assembler.mesh)
    shape = ops.v0.shape
    hat_F, interior_F = maps.unit_loads
    # summed by einsum, not by a BLAS GEMM, as CoarseMaps' loads
    hat_A = np.einsum("ce,qe->cq", ops.splitting.k[maps.fine],
                      ops.assembler.hat_stiffness).reshape(-1, 4, 4)
    vt = np.swapaxes(ops.v0 + ops.v1, 1, 2)
    out = {}
    for key, (c, r) in bases.items():
        bad = [a.shape for a in (c, r) if a is not None and a.shape != shape]
        if bad:
            raise ValueError(f"corrections and residuals must have shape "
                             f"{shape}, not {bad[0]}")
        A = hat_A + vt @ c
        if r is not None:
            A += np.swapaxes(c, 1, 2) @ r
        # order="F" puts the cells innermost, so each load sums its n terms
        # in order whatever the layout of c: with n innermost, einsum sums
        # in SIMD lanes, and the bits would follow the layout
        out[key] = (A, hat_F + np.einsum("cni,n->ci", c, interior_F,
                                         order="F"))
    return out


def coarse_solutions(ops, bases):
    """{key: fine-grid MsFEM solution} of the bases of local_coarse_systems.

    Every key's local matrices and loads are summed by np.bincount over the
    cells into the band storage of its coarse system first; each is then
    factored there by fem.band_cholesky and solved, which keeps the results
    independent of the BLAS thread count, and its coefficients are
    downscaled.
    """
    maps = coarse_maps(ops.assembler.mesh)
    systems = {key: (maps.bands(A), maps.load(F)) for key, (A, F)
               in local_coarse_systems(ops, bases).items()}
    out = {}
    for key, (bands, F) in systems.items():
        coeffs = np.zeros(ops.assembler.mesh.n_coarse_vertices)
        if maps.n_free:
            coeffs[maps.free] = fem.band_cholesky(bands)(F)
        out[key] = _downscale(maps, bases[key][0], coeffs)
    return out


def _downscale(maps, c, coeffs):
    """Fine-grid values of the bases H + E c weighted by vertex coeffs."""
    local = coeffs[maps.vertices]
    values = local @ maps.assembler.hats.T
    values[:, maps.assembler.interior_idx] += (c @ local[:, :, None])[..., 0]
    u = np.zeros(maps.assembler.mesh.n_fine_nodes)
    u[maps.nodes] = values
    return u


@dataclass
class SampleErrors:
    """Solutions of one splitting and their energy-norm errors.

    u_h is the standard MsFEM solution and norm_uh = |||u_h|||; u_J and err
    map each J to the iterative solution and |||u_h - u_J|||.  Given a
    green, u_col maps J to the collocated solution and col to
    (|||u_h - u_col|||, |||u_J - u_col|||); given reference, u is the fine
    solution and u_energy = |||u|||.  Fields not asked for are None.
    """

    u_h: np.ndarray
    norm_uh: float
    u_J: dict
    err: dict
    u_col: dict = None
    col: dict = None
    u: np.ndarray = None
    u_energy: float = None


def sample_errors(mesh, splitting, J_list, green=None, reference=False,
                  pool=None):
    """SampleErrors of the standard, iterative and collocated MsFEM.

    green is an (n_cells, nK, nK) stand-in for M0^-1, such as an
    interpolated Green's inverse; reference adds the fine solve.  All
    bases come from one assembly of the local operators.

    The fine solve is factored and solved on a worker thread, without the
    GIL, beside the MsFEM stage.  The worker is pool's, a one-worker
    ThreadPoolExecutor that the caller shuts down, such as one opened per
    driver call; without pool one is opened for this call.  Banded
    (fem.is_banded), the standard basis's factor and solves release the
    GIL too, so it is queued on the worker ahead of the fine solve, as the
    coarse systems need it before the norms need u; the fine band is
    assembled while it runs.  Batched, the standard basis holds the GIL
    and stays here, and the fine band is assembled and queued first.  Each
    order measured the lower peak RSS in its own regime.  A failure of any
    stage reaches the caller.  A coarse mesh without an interior vertex,
    whose MsFEM solutions are all zero, is refused before any work.
    """
    if min(mesh.nx_coarse, mesh.ny_coarse) < 2:
        raise ValueError(f"a {mesh.nx_coarse}x{mesh.ny_coarse} coarse mesh "
                         f"has no interior vertex")
    mesh.check_fine_grid(splitting.mesh, "splitting")
    basis_mod.check_J_list(J_list)
    if reference and pool is None:
        with ThreadPoolExecutor(1) as pool:
            return sample_errors(mesh, splitting, J_list, green,
                                 reference, pool)
    banded, standard = fem.is_banded(mesh.n_interior), None
    if reference and not banded:
        # solve holds the fine band until the sample ends: freed by the
        # worker mid-stage, the band (2 MiB at 16x16, r=4, mmapped) raised
        # glibc's mmap threshold while the first sample still allocated,
        # whose temporaries then grew the heap: peak RSS rose 0.4-1.8 MiB
        # in 4 of 5 runs of 300 driver calls
        solve = fem.fine_reference_solver(mesh, splitting.k)
        fine = pool.submit(solve)
    ops = fem.assemble_local_operators(
        mesh, np.arange(mesh.n_coarse_cells), splitting)
    if reference and banded:
        standard = pool.submit(basis_mod.standard_bases, ops).result
        fine = pool.submit(fem.fine_reference_solver(mesh, splitting.k))
    u = coarse_solutions(ops, _bases(ops, J_list, green, standard))
    norm = partial(fem.energy_norm, mesh, splitting.k)
    u_h, u_J = u["h"], {J: u["J", J] for J in J_list}
    out = SampleErrors(u_h, norm(u_h), u_J,
                       {J: norm(u_h - v) for J, v in u_J.items()})
    if green is not None:
        out.u_col = {J: u["col", J] for J in J_list}
        out.col = {J: (norm(u_h - v), norm(u_J[J] - v))
                   for J, v in out.u_col.items()}
    if reference:
        out.u = fine.result()
        out.u_energy = norm(out.u)
    return out


def _bases(ops, J_list, green, standard=None):
    """{key: (c, r)} of local_coarse_systems for every basis of a sample.

    The keys are ("J", J), ("col", J) given green, and "h" for the
    standard basis, whose corrections standard() returns if given.
    Otherwise M0 and M = M0 + M1 get one fem.cell_solvers call, a single
    inverse sweep in the batched regime.  The factors or inverses are
    dropped on return, before the coarse systems are assembled.
    """
    solve = None
    if standard is None:
        solve, solve_m = fem.cell_solvers((ops.M0,), (ops.M0, ops.M1))
        standard = partial(basis_mod.standard_bases, ops, solve_m)
    greens = {"J": None} if green is None else {"J": None, "col": green}
    bases = {(kind, J): cr for kind, G in greens.items() for J, cr in
             basis_mod.iterative_bases(ops, J_list, G, solve).items()}
    bases["h"] = (standard(), None)
    return bases


def basis_errors(ops, J_list):
    """{J: (error, bound)} of the iterative bases of a stack of cells.

    error is the energy error |||phi - phi_J|||_K and bound its computable
    bound 2 ||k1/sqrt(k k0)||_inf eta_K^(J+1) ||sqrt(k0) grad l||_K, each
    (cells, 4) over the cells of ops.cell and the four vertices, of the
    splitting of ops.  The bases are a sample's own (_bases).  The hats
    cancel in phi - phi_J = E d, d = c_h - c_J, so the error squared is
    d^T M d with M = M0 + M1.
    An empty J_list or one holding a negative J is refused before any
    factor work.
    """
    basis_mod.check_J_list(J_list)
    asm, split = ops.assembler, ops.splitting
    fine = asm.mesh.cell_fine_cells(ops.cell)
    k0, k1, k = split.k0[fine], split.k1[fine], split.k[fine]
    sup = np.max(np.abs(k1) / np.sqrt(k * k0), axis=1)[:, None]
    eta = np.max(np.abs(k1) / k0, axis=1)[:, None]
    # ||sqrt(k0) grad l||^2 from the diagonal rows of H^T A_K H, summed by
    # einsum, not by BLAS, so that it does not depend on the thread count
    grad_l = np.sqrt(np.einsum("ce,qe->cq", k0,
                               asm.hat_stiffness[[0, 5, 10, 15]]))
    bases = _bases(ops, J_list, None)
    c_h = bases.pop("h")[0]
    m = fem.cell_matmul(ops.M0 + ops.M1)
    out = {}
    for (_, J), (c, _) in bases.items():
        d = c_h - c
        error = np.sqrt(np.maximum(np.einsum("cni,cni->ci", d, m(d)), 0.0))
        out[J] = (error, 2.0 * sup * eta ** (J + 1) * grad_l)
    return out


def c_tilde(splitting):
    """sqrt(2) max_K ||sqrt(k0/k)||_inf entering the solution-level bounds."""
    return float(np.sqrt(2.0) * np.sqrt((splitting.k0 / splitting.k).max()))


def solution_error_bound(J, eta, c_tilde_value, u_energy):
    """Solution-level bound on |||u_h - u_Jh||| driven by eta^(J+1)."""
    if not eta < 1.0:
        raise ValueError("bound requires eta < 1")
    t = eta ** (J + 1)
    paren = t + t / (1.0 - t)
    return float(np.sqrt(c_tilde_value) * np.sqrt(paren) * u_energy)
