"""Coarse-scale Galerkin assembly, downscaling and solution-level bounds.

The solution pipeline works on stacks over coarse cells: local operators,
factorizations and bases are (cells, ...) arrays instead of per-(cell,
vertex) objects, built for every cell of the mesh at once.  The local
operators are stencil bands, so a stack of all cells stays small: at r=30
the M0 bands of 16 cells take 3.2 MiB, where dense blocks took 86 MiB.
The coarse system is solved in band storage as well, which keeps its
results independent of the BLAS thread count.
"""

from dataclasses import dataclass

import numpy as np

from . import basis as basis_mod
from . import fem


@dataclass
class CoarseSystem:
    """SPD coarse stiffness over interior coarse vertices plus its bases.

    bases is the (n_cells, n_loc, 4) stack the system was assembled from.
    """

    mesh: object
    A: np.ndarray
    F: np.ndarray
    free_vertices: np.ndarray
    bases: np.ndarray


def _all_cells(mesh, splitting):
    """Stacked LocalOperators of every coarse cell."""
    return fem.assemble_local_operators(
        mesh, np.arange(mesh.n_coarse_cells), splitting)


def build_basis_registry(mesh, splitting, kind="standard", J=0):
    """(n_cells, n_loc, 4) bases of every cell: standard, or iterative at J."""
    if kind == "standard":
        return basis_mod.standard_bases(_all_cells(mesh, splitting))
    if kind == "iterative":
        return build_iterative_registries(mesh, splitting, [J])[J]
    raise ValueError(f"unknown basis kind {kind!r}")


def build_iterative_registries(mesh, splitting, J_list, green=None):
    """{J: (n_cells, n_loc, 4)} iterative bases sharing one M0 factorization.

    Given green, an (n_cells, nK, nK) stand-in for M0^-1, the collocated
    bases instead.
    """
    return basis_mod.iterative_bases(_all_cells(mesh, splitting), J_list,
                                     green)


def assemble_coarse_system(mesh, bases, k, f=None):
    """Galerkin coarse system A_ij = sum_K (k grad phi_i, grad phi_j)_K."""
    shape = (mesh.n_coarse_cells, (mesh.r + 1) ** 2, 4)
    bases = np.asarray(bases, float)
    if bases.shape != shape:
        raise ValueError(f"bases must have shape {shape}, not {bases.shape}")
    k = np.asarray(k, float)
    f = np.ones(mesh.n_fine_cells) if f is None else np.asarray(f, float)
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
    verts = mesh.cell_vertices(cells)
    nv = mesh.n_coarse_vertices
    A = np.zeros((nv, nv))
    F = np.zeros(nv)
    np.add.at(A, (verts[:, :, None], verts[:, None, :]), local_A)
    np.add.at(F, verts, local_F)
    return CoarseSystem(mesh=mesh, A=A, F=F,
                        free_vertices=mesh.interior_coarse_vertices(),
                        bases=bases)


def solve_msfem(system):
    """Solve the coarse system and downscale onto the global fine grid.

    The free vertices run row-major over rows of nx_coarse - 1, so the
    coarse matrix has half-bandwidth nx_coarse and is factored in band
    storage by fem.band_cholesky.
    """
    mesh = system.mesh
    free = system.free_vertices
    coeffs = np.zeros(mesh.n_coarse_vertices)
    if free.size:
        A = system.A[np.ix_(free, free)]
        n = len(free)
        bands = np.zeros((mesh.nx_coarse + 1, n))
        for d in range(min(mesh.nx_coarse, n - 1) + 1):
            bands[d, :n - d] = np.diagonal(A, -d)
        coeffs[free] = fem.band_cholesky(bands)(system.F[free])
    cells = np.arange(mesh.n_coarse_cells)
    u = np.zeros(mesh.n_fine_nodes)
    u[mesh.cell_fine_nodes(cells)] = (
        system.bases @ coeffs[mesh.cell_vertices(cells)][:, :, None])[..., 0]
    return u


def msfem_solutions(mesh, splitting, J_list, f=None, green=None):
    """Standard, iterative and, given green, collocated MsFEM solutions.

    Returns (u_h, {J: u_J}, {J: collocated u_J} or None).  green is an
    (n_cells, nK, nK) stand-in for M0^-1, such as an interpolated Green's
    inverse.  All bases come from one assembly of the local operators.
    """
    ops = _all_cells(mesh, splitting)
    bases = {("h", 0): basis_mod.standard_bases(ops)}
    for J, b in basis_mod.iterative_bases(ops, J_list).items():
        bases[("J", J)] = b
    if green is not None:
        for J, b in basis_mod.iterative_bases(ops, J_list, green).items():
            bases[("col", J)] = b
    u = {key: solve_msfem(assemble_coarse_system(mesh, b, splitting.k, f))
         for key, b in bases.items()}
    u_col = None if green is None else {J: u[("col", J)] for J in J_list}
    return u[("h", 0)], {J: u[("J", J)] for J in J_list}, u_col


def solution_errors(mesh, splitting, J_list, f=None):
    """u_h and {J: (u_J, |||u_h - u_J|||)} for the standard/iterative MsFEM."""
    u_h, u_J, _ = msfem_solutions(mesh, splitting, J_list, f)
    return u_h, {J: (u, fem.energy_norm(mesh, splitting.k, u_h - u))
                 for J, u in u_J.items()}


def c_tilde(splitting):
    """sqrt(2) max_K ||sqrt(k0/k)||_inf entering the solution-level bounds."""
    return float(np.sqrt(2.0) * np.sqrt((splitting.k0 / splitting.k).max()))


def solution_error_bound(J, eta, c_tilde_value, u_energy, uh_error=0.0):
    """Solution-level bounds driven by eta^(J+1).

    Returns (bound on |||u_h - u_Jh|||, bound on |||u - u_Jh|||); the
    second needs the standard-MsFEM error |||u - u_h||| as uh_error.
    """
    if not eta < 1.0:
        raise ValueError("bound requires eta < 1")
    t = eta ** (J + 1)
    paren = t + t / (1.0 - t)
    b1 = np.sqrt(c_tilde_value) * np.sqrt(paren) * u_energy
    b2 = np.sqrt(2.0) * c_tilde_value * paren * u_energy + 2.0 * uh_error
    return float(b1), float(b2)
