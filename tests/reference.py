"""Test oracles: scalar per-(cell, vertex) bases and a sparse stiffness.

Each basis function takes the LocalOperators of one cell (M0, M1 as
(r+1, nK) bands) and one vertex, expands the bands to dense and factors M0
or M0 + M1 with scipy's dense Cholesky.  The library instead builds the
bases of all four vertices of a stack of cells through
basis.bubble_series, so comparing the two checks the stacking, the band
operators, the batched and banded factorizations and the lifting.

fine_stiffness assembles the global Q1 stiffness as a scipy CSR matrix
over all fine nodes, independently of the library's band assemblers.
run_cli runs the command line in a child process under a chosen BLAS
thread count, which a run inside the test process cannot change.
"""

import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

import msfem_split
from msfem_split import fem


def run_cli(config, out, threads):
    """Exit code of `msfem_split.cli run` in a child with `threads` BLAS
    threads; the child is given at most 600 s."""
    src = str(Path(msfem_split.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "msfem_split.cli", "run", str(config),
           "--out", str(out), "--threads", str(threads)]
    return subprocess.run(cmd, env=env, capture_output=True,
                          timeout=600).returncode


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


def _dense(ops):
    """(M0, M1) of one cell as dense matrices."""
    return fem.band_to_dense(ops.M0), fem.band_to_dense(ops.M1)


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
