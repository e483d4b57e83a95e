"""Multiscale basis construction on one coarse cell.

The standard basis solves a local Dirichlet problem with the full
coefficient; the iterative basis builds the same object from the k0
Green's operator, a projection of the boundary hat and a contraction
sequence of interior bubble corrections.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fem
from . import field as field_mod


@dataclass
class BasisFunction:
    """Local nodal values of one multiscale basis function.

    values covers the cell's (r+1)^2 local nodes; boundary entries carry
    the bilinear hat exactly.
    """

    cell: int
    vertex: int
    values: np.ndarray
    tag: str = "standard"


def _lift(ops, vertex, interior_values):
    """Hat boundary data plus an interior correction, as full local values."""
    asm = ops.assembler
    out = asm.hats[:, vertex].copy()
    out[asm.interior_idx] += interior_values
    return out


def standard_basis(ops, vertex):
    """Discrete k-harmonic extension of the bilinear hat: phi = l - M^-1 v."""
    interior = -fem.solve_spd(ops.M, ops.v[:, vertex])
    return BasisFunction(ops.cell, vertex, _lift(ops, vertex, interior))


def projection_pi_l(ops, vertex):
    """Interior values of the k0-orthogonal projection Pi l = M0^-1 v0."""
    return ops.solve_M0(ops.v0[:, vertex])


def bubble_sequence(ops, vertex, J):
    """Interior bubble corrections xi_0 .. xi_J.

    xi_0 = M0^-1 (M1 M0^-1 v0 - v1) and xi_j = -M0^-1 M1 xi_{j-1}; a single
    cached factorization of M0 serves every term.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    pi_l = ops.solve_M0(ops.v0[:, vertex])
    xi = ops.solve_M0(ops.M1 @ pi_l - ops.v1[:, vertex])
    seq = [xi]
    for _ in range(J):
        xi = -ops.solve_M0(ops.M1 @ xi)
        seq.append(xi)
    return seq


def iterative_basis(ops, vertex, J):
    """phi_J = l - Pi l + sum_{j<=J} xi_j on the local fine grid."""
    return iterative_basis_sequence(ops, vertex, J)[-1]


def iterative_basis_sequence(ops, vertex, J):
    """All partial-sum bases phi_0 .. phi_J (shared M0 factorization)."""
    pi_l = projection_pi_l(ops, vertex)
    bubbles = bubble_sequence(ops, vertex, J)
    out = []
    acc = -pi_l
    for j, xi in enumerate(bubbles):
        acc = acc + xi
        out.append(BasisFunction(ops.cell, vertex, _lift(ops, vertex, acc),
                                 tag=f"iterative({j})"))
    return out


# ---- batched over cells: (cells, n_loc, 4) stacks of all four vertices ----


def _lift_cells(asm, interior):
    out = np.repeat(asm.hats[None], len(interior), axis=0)
    out[:, asm.interior_idx] += interior
    return out


def standard_bases(ops):
    """standard_basis of every vertex of stacked LocalOperators.

    One Cholesky of M per cell, solved against all four vertex columns.
    """
    solve = fem.cell_cholesky(ops.M0 + ops.M1, ops.assembler.mesh.r)
    return _lift_cells(ops.assembler, -solve(ops.v0 + ops.v1))


def iterative_bases(ops, J_list, green=None):
    """iterative_basis_sequence of every vertex of stacked LocalOperators.

    Returns {J: (cells, n_loc, 4)} for J in J_list, from one Cholesky of M0
    per cell.  Given green, a (cells, nK, nK) stack applied in place of
    M0^-1 (an interpolated Green's inverse), the same recursion yields the
    collocated bases.
    """
    if min(J_list) < 0:
        raise ValueError("J must be >= 0")
    solve = partial(np.matmul, green) if green is not None else \
        fem.cell_cholesky(ops.M0, ops.assembler.mesh.r)
    pi_l = solve(ops.v0)
    xi = solve(ops.M1 @ pi_l - ops.v1)
    acc = -pi_l + xi
    out = {}
    for j in range(max(J_list) + 1):
        if j:
            xi = -solve(ops.M1 @ xi)
            acc = acc + xi
        if j in J_list:
            out[j] = _lift_cells(ops.assembler, acc)
    return out


def xi_direct(ops, vertex):
    """Limit of the bubble series: (M0 + M1) xi = M1 M0^-1 v0 - v1."""
    rhs = ops.M1 @ ops.solve_M0(ops.v0[:, vertex]) - ops.v1[:, vertex]
    return fem.solve_spd(ops.M, rhs)


def basis_error_bound(ops, vertex, J, splitting):
    """Computable energy-error bounds for |||phi - phi_J||| on the cell.

    Returns (contraction bound, rate bound): the first is
    2 ||k1/sqrt(k k0)||_inf eta^(J+1) ||sqrt(k0) grad l||, the second the
    explicit-rate variant C_l (2 b1 / sqrt(a0)) eta^(J+2) with all
    constants taken from the actual cellwise field values.
    """
    mesh = splitting.mesh
    cells = mesh.cell_fine_cells(ops.cell)
    k0 = splitting.k0[cells]
    k1 = splitting.k1[cells]
    k = splitting.k[cells]
    eta_k = field_mod.eta(splitting, ops.cell)
    asm = ops.assembler
    hat = asm.hats[:, vertex]

    sup = np.max(np.abs(k1) / np.sqrt(k * k0))
    grad_l = np.sqrt(asm.quadratic_form(k0, hat))
    b_contraction = 2.0 * sup * eta_k ** (J + 1) * grad_l

    c_l = np.sqrt(asm.quadratic_form(np.ones_like(k0), hat))
    b_rate = c_l * 2.0 * k0.max() / np.sqrt(k.min()) * eta_k ** (J + 2)
    return float(b_contraction), float(b_rate)


def basis_energy_error(ops, vertex, splitting, basis_fn, reference=None):
    """Energy norm |||phi - basis|||_K against the standard basis."""
    if reference is None:
        reference = standard_basis(ops, vertex)
    mesh = splitting.mesh
    k = splitting.k[mesh.cell_fine_cells(ops.cell)]
    diff = reference.values - basis_fn.values
    return np.sqrt(max(ops.assembler.quadratic_form(k, diff), 0.0))
