"""Multiscale basis construction on stacks of coarse cells.

The standard basis solves a local Dirichlet problem with the full
coefficient; the iterative basis builds the same object from the k0
Green's operator, a projection of the boundary hat and a contraction
series of interior bubble corrections.  The bases are built on (cells, ...)
stacks of LocalOperators for all four vertices at once, and travel as
interior corrections: phi = l + E c, with l the vertex hats, c a
(cells, nK, 4) correction and E the injection of the interior nodes.
The iterative bases come with their Galerkin residuals r = M c + v, which
the coarse assembly (msfem) takes in place of a product of M.  This module
only constructs bases: msfem builds a sample's set of them, keyed by kind
and J, and measures them at the basis and at the solution level.
"""

from functools import partial

import numpy as np

from . import fem


def standard_bases(ops, solve=None):
    """Corrections -M^-1 v of the k-harmonic extensions, (cells, nK, 4).

    One factorization or inverse of the band sum M = M0 + M1 per cell,
    applied to all four vertex columns: solve, a solve of M such as one of
    fem.cell_solvers, or by default fem.cell_solvers((ops.M0, ops.M1)),
    which sums the bands into its own factor buffer.  M c + v = 0, so the
    Galerkin residual of these bases is zero.
    """
    if solve is None:
        solve = fem.cell_solvers((ops.M0, ops.M1))[0]
    return -solve(ops.v0 + ops.v1)


def bubble_series(ops, J, solve=None):
    """Projection Pi l = M0^-1 v0, bubbles xi_0 .. xi_J of every cell and
    their products M1 xi_0 .. M1 xi_J.

    xi_0 = M0^-1 (M1 Pi l - v1) and xi_j = -M0^-1 M1 xi_{j-1}, from one
    factorization or inverse of M0 per cell (solve, such as one of
    fem.cell_solvers, or by default fem.cell_solvers((ops.M0,))) and one
    fem.cell_matmul of the M1 bands.  Each product M1 xi_j is the input of
    the next term, and the series forms M1 xi_J as well: by the recursion
    it is the Galerkin residual M c_J + v of the truncated basis (see
    iterative_bases).  A solve that applies a (cells, nK, nK) stand-in for
    M0^-1, such as partial(np.matmul, green) of an interpolated Green's
    inverse, yields the collocated bubbles.  Returns (pi_l, [xi_0, ..,
    xi_J], [M1 xi_0, .., M1 xi_J]), each (cells, nK, 4) on the interior
    nodes.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    if solve is None:
        solve = fem.cell_solvers((ops.M0,))[0]
    m1 = fem.cell_matmul(ops.M1)
    pi_l = solve(ops.v0)
    bubbles = [solve(m1(pi_l) - ops.v1)]
    products = [m1(bubbles[0])]
    for _ in range(J):
        bubbles.append(-solve(products[-1]))
        products.append(m1(bubbles[-1]))
    return pi_l, bubbles, products


def check_J_list(J_list):
    """Refuse an empty J_list or one holding a negative J."""
    if len(J_list) == 0 or min(J_list) < 0:
        raise ValueError(f"J_list must hold at least one J >= 0, not "
                         f"{J_list!r}")


def iterative_bases(ops, J_list, green=None, solve=None):
    """{J: (c, r)} of phi_J, each (cells, nK, 4): the correction
    c = -Pi l + sum_{j<=J} xi_j and its Galerkin residual r = M c + v.

    All J share one bubble_series of solve, a solve of M0 (see
    bubble_series), or given green, a (cells, nK, nK) stand-in for M0^-1
    such as an interpolated Green's inverse, of partial(np.matmul, green).
    With M0^-1 the recursion M0 xi_j = -M1 xi_{j-1} telescopes to
    M c_J + v = M1 xi_J, the series' own product.  An interpolated green
    is not M0^-1, so given green r is formed by one fem.cell_matmul of
    M = M0 + M1 per J.
    """
    check_J_list(J_list)
    if green is not None:
        solve = partial(np.matmul, green)
        m, v = fem.cell_matmul(ops.M0 + ops.M1), ops.v0 + ops.v1
    pi_l, bubbles, products = bubble_series(ops, max(J_list), solve)
    # the partial sums overwrite the series' own arrays, which no caller
    # sees, so they take no memory beside the products
    acc = np.negative(pi_l, out=pi_l)
    out = {}
    for j, xi in enumerate(bubbles):
        acc = np.add(acc, xi, out=xi)
        if j in J_list:
            out[j] = (acc, products[j] if green is None else m(acc) + v)
    return out

