"""Multiscale basis construction on stacks of coarse cells.

The standard basis solves a local Dirichlet problem with the full
coefficient; the iterative basis builds the same object from the k0
Green's operator, a projection of the boundary hat and a contraction
series of interior bubble corrections.  The bases are built on (cells, ...)
stacks of LocalOperators for all four vertices at once; the basis-level
error and bound take the local values of one cell.
"""

from functools import partial

import numpy as np

from . import fem
from . import field as field_mod


def _lift_cells(asm, interior):
    """Hat boundary data plus interior corrections, as full local values."""
    out = np.repeat(asm.hats[None], len(interior), axis=0)
    out[:, asm.interior_idx] += interior
    return out


def standard_bases(ops):
    """Discrete k-harmonic extensions phi = l - M^-1 v, (cells, n_loc, 4).

    One Cholesky of M = M0 + M1 per cell, solved against all four vertex
    columns.
    """
    solve = fem.cell_cholesky(ops.M0 + ops.M1, ops.assembler.mesh.r)
    return _lift_cells(ops.assembler, -solve(ops.v0 + ops.v1))


def bubble_series(ops, J, green=None):
    """Projection Pi l = M0^-1 v0 and bubbles xi_0 .. xi_J of every cell.

    xi_0 = M0^-1 (M1 Pi l - v1) and xi_j = -M0^-1 M1 xi_{j-1}, from one
    Cholesky of M0 per cell.  Given green, a (cells, nK, nK) stack applied
    in place of M0^-1 (an interpolated Green's inverse), the same series
    yields the collocated bubbles.  Returns (pi_l, [xi_0, .., xi_J]), each
    (cells, nK, 4) on the interior nodes.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    solve = partial(np.matmul, green) if green is not None else \
        fem.cell_cholesky(ops.M0, ops.assembler.mesh.r)
    pi_l = solve(ops.v0)
    bubbles = [solve(ops.M1 @ pi_l - ops.v1)]
    for _ in range(J):
        bubbles.append(-solve(ops.M1 @ bubbles[-1]))
    return pi_l, bubbles


def iterative_bases(ops, J_list, green=None):
    """{J: (cells, n_loc, 4)} partial sums phi_J = l - Pi l + sum_{j<=J} xi_j.

    All J share one bubble_series; green is passed on to it.
    """
    if min(J_list) < 0:
        raise ValueError("J must be >= 0")
    pi_l, bubbles = bubble_series(ops, max(J_list), green)
    acc = -pi_l
    out = {}
    for j, xi in enumerate(bubbles):
        acc = acc + xi
        if j in J_list:
            out[j] = _lift_cells(ops.assembler, acc)
    return out


def basis_error_bound(asm, splitting, cell, vertex, J):
    """Computable energy-error bounds for |||phi - phi_J||| on one cell.

    Returns (contraction bound, rate bound): the first is
    2 ||k1/sqrt(k k0)||_inf eta^(J+1) ||sqrt(k0) grad l||, the second the
    explicit-rate variant C_l (2 b1 / sqrt(a0)) eta^(J+2) with all
    constants taken from the actual cellwise field values.
    """
    cells = splitting.mesh.cell_fine_cells(cell)
    k0 = splitting.k0[cells]
    k1 = splitting.k1[cells]
    k = splitting.k[cells]
    eta_k = field_mod.eta(splitting, cell)
    hat = asm.hats[:, vertex]

    sup = np.max(np.abs(k1) / np.sqrt(k * k0))
    grad_l = np.sqrt(asm.quadratic_form(k0, hat))
    b_contraction = 2.0 * sup * eta_k ** (J + 1) * grad_l

    c_l = np.sqrt(asm.quadratic_form(np.ones_like(k0), hat))
    b_rate = c_l * 2.0 * k0.max() / np.sqrt(k.min()) * eta_k ** (J + 2)
    return float(b_contraction), float(b_rate)


def basis_energy_error(asm, splitting, cell, reference, values):
    """Energy norm |||reference - values|||_K of two local value vectors."""
    k = splitting.k[splitting.mesh.cell_fine_cells(cell)]
    return np.sqrt(max(asm.quadratic_form(k, reference - values), 0.0))
