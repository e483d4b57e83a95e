"""Scalar per-(cell, vertex) basis construction, kept as a test oracle.

Each function takes the LocalOperators of one cell (2D M0, M1) and one
vertex, and factors M0 or M0 + M1 with scipy's dense Cholesky.  The
library instead builds the bases of all four vertices of a stack of cells
through basis.bubble_series, so comparing the two checks the stacking, the
batched and banded factorizations and the lifting.
"""

from functools import partial

import numpy as np
import scipy.linalg as sla


def _lift(ops, vertex, interior):
    """Hat boundary data plus an interior correction, as full local values."""
    out = ops.assembler.hats[:, vertex].copy()
    out[ops.assembler.interior_idx] += interior
    return out


def _solve(matrix, rhs):
    return sla.cho_solve(sla.cho_factor(matrix, lower=True), rhs)


def standard_basis(ops, vertex):
    """Local values of phi = l - M^-1 v, M = M0 + M1."""
    v = ops.v0[:, vertex] + ops.v1[:, vertex]
    return _lift(ops, vertex, -_solve(ops.M0 + ops.M1, v))


def bubble_sequence(ops, vertex, J, G=None):
    """(Pi l, [xi_0 .. xi_J]) on the interior nodes.

    Pi l = M0^-1 v0, xi_0 = M0^-1 (M1 Pi l - v1) and
    xi_j = -M0^-1 M1 xi_{j-1}; given G, G @ replaces every M0^-1.
    """
    solve = partial(np.matmul, G) if G is not None else \
        partial(sla.cho_solve, sla.cho_factor(ops.M0, lower=True))
    pi_l = solve(ops.v0[:, vertex])
    xis = [solve(ops.M1 @ pi_l - ops.v1[:, vertex])]
    for _ in range(J):
        xis.append(-solve(ops.M1 @ xis[-1]))
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
    pi_l = _solve(ops.M0, ops.v0[:, vertex])
    return _solve(ops.M0 + ops.M1, ops.M1 @ pi_l - ops.v1[:, vertex])
