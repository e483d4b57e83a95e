import numpy as np
import pytest
import scipy.sparse.linalg as spla

from msfem_split import build_mesh
from msfem_split import fem
from msfem_split.basis import (basis_energy_error, basis_error_bound,
                               bubble_series, iterative_bases, standard_bases)
from msfem_split.field import make_splitting
from reference import xi_direct


def _random_splitting(mesh, rng, amp=0.8):
    k0 = np.exp(rng.uniform(-1, 1, mesh.n_fine_cells))
    k1 = amp * k0 * rng.uniform(-1, 1, mesh.n_fine_cells)
    return make_splitting(mesh, k0, k1)


def _oracle_solves(mesh, split, vertex, J):
    """Sequential fine FEM solves of the projection and bubble problems.

    Built from the global sparse assembly path on a one-cell mesh, fully
    independent of the LocalAssembler route.
    """
    assert mesh.n_coarse_cells == 1
    A0 = fem.fine_stiffness(mesh, split.k0)
    A1 = fem.fine_stiffness(mesh, split.k1)
    free = ~mesh.boundary_node_mask()
    hat = fem.LocalAssembler(mesh).hats[:, vertex]

    def solve0(rhs):
        out = np.zeros(mesh.n_fine_nodes)
        out[free] = spla.spsolve(A0[free][:, free].tocsc(), rhs[free])
        return out

    pi = solve0(A0 @ hat)
    xis = [solve0(A1 @ (pi - hat))]
    for _ in range(J):
        xis.append(solve0(-(A1 @ xis[-1])))
    return pi, xis


def test_degenerate_splitting_identity():
    # k0 = k1 = k/2 makes every iterative basis equal the standard one
    rng = np.random.default_rng(21)
    for trial in range(5):
        mesh = build_mesh(1, 1, rng.integers(3, 9))
        k = np.exp(rng.uniform(-1, 1, mesh.n_fine_cells))
        split = make_splitting(mesh, k / 2.0, k / 2.0)
        ops = fem.assemble_local_operators(mesh, [0], split)
        phi = standard_bases(ops)[0, :, trial % 4]
        bases = iterative_bases(ops, (0, 1, 5))
        for J in (0, 1, 5):
            phi_J = bases[J][0, :, trial % 4]
            assert np.abs(phi - phi_J).max() <= 1e-12


def test_bubble_oracle_equivalence():
    rng = np.random.default_rng(42)
    mesh = build_mesh(1, 1, 10)
    for trial in range(20):
        split = _random_splitting(mesh, rng)
        vertex = trial % 4
        ops = fem.assemble_local_operators(mesh, [0], split)
        pi_o, xis_o = _oracle_solves(mesh, split, vertex, 3)
        idx = fem.LocalAssembler(mesh).interior_idx
        pi_l, xis = bubble_series(ops, 3)
        assert np.abs(pi_l[0, :, vertex] - pi_o[idx]).max() <= 1e-10
        for xi, xi_o in zip(xis, xis_o):
            assert np.abs(xi[0, :, vertex] - xi_o[idx]).max() <= 1e-10


def test_standard_basis_oracle():
    rng = np.random.default_rng(17)
    mesh = build_mesh(1, 1, 8)
    split = _random_splitting(mesh, rng)
    ops = fem.assemble_local_operators(mesh, [0], split)
    A = fem.fine_stiffness(mesh, split.k)
    free = ~mesh.boundary_node_mask()
    phis = standard_bases(ops)[0]
    for vertex in range(4):
        hat = ops.assembler.hats[:, vertex]
        u = hat.copy()
        u[free] += spla.spsolve(A[free][:, free].tocsc(), -(A @ hat)[free])
        assert np.abs(phis[:, vertex] - u).max() <= 1e-10


def test_standard_basis_constant_k():
    mesh = build_mesh(1, 1, 6)
    split = make_splitting(mesh, np.full(36, 3.0), np.zeros(36))
    ops = fem.assemble_local_operators(mesh, [0], split)
    phis = standard_bases(ops)[0]
    for vertex in range(4):
        assert np.allclose(phis[:, vertex], ops.assembler.hats[:, vertex],
                           atol=1e-12)


def test_partition_of_unity_and_vertex_values():
    rng = np.random.default_rng(30)
    mesh = build_mesh(2, 2, 6)
    split = _random_splitting(mesh, rng)
    corner = {0: 0, 1: mesh.r, 2: (mesh.r + 1) ** 2 - 1,
              3: (mesh.r + 1) * mesh.r}
    for cell in range(mesh.n_coarse_cells):
        ops = fem.assemble_local_operators(mesh, [cell], split)
        phis = standard_bases(ops)[0]
        total = np.zeros((mesh.r + 1) ** 2)
        for vertex in range(4):
            phi = phis[:, vertex]
            total += phi
            for v2, node in corner.items():
                assert phi[node] == (1.0 if v2 == vertex else 0.0)
        assert np.abs(total - 1.0).max() <= 1e-12


def test_boundary_values_are_exact_hats():
    rng = np.random.default_rng(31)
    mesh = build_mesh(1, 1, 7)
    split = _random_splitting(mesh, rng)
    ops = fem.assemble_local_operators(mesh, [0], split)
    boundary = ~mesh.local_interior_mask
    std = standard_bases(ops)[0]
    it2 = iterative_bases(ops, [2])[2][0]
    for vertex in range(4):
        hat = ops.assembler.hats[:, vertex]
        for fn in (std[:, vertex], it2[:, vertex]):
            assert np.array_equal(fn[boundary], hat[boundary])


def test_projection_orthogonality():
    rng = np.random.default_rng(13)
    mesh = build_mesh(1, 1, 9)
    split = _random_splitting(mesh, rng)
    ops = fem.assemble_local_operators(mesh, [0], split)
    # on a 1x1 mesh the global fine stiffness is the local one
    A0 = fem.fine_stiffness(mesh, split.k0)
    idx = ops.assembler.interior_idx
    pi_l = bubble_series(ops, 0)[0][0]
    for vertex in range(4):
        pi = pi_l[:, vertex]
        full = np.zeros((mesh.r + 1) ** 2)
        full[idx] = pi
        resid = (A0 @ (full - ops.assembler.hats[:, vertex]))[idx]
        assert np.abs(resid).max() <= 1e-10


def test_bubbles_vanish_without_k1():
    mesh = build_mesh(1, 1, 5)
    split = make_splitting(mesh, np.exp(np.linspace(-1, 1, 25)), np.zeros(25))
    ops = fem.assemble_local_operators(mesh, [0], split)
    for xi in bubble_series(ops, 4)[1]:
        assert np.allclose(xi[0, :, 2], 0.0, atol=1e-14)
    scalar_ops = fem.assemble_local_operators(mesh, 0, split)
    assert np.allclose(xi_direct(scalar_ops, 2), 0.0, atol=1e-14)
    phi_J = iterative_bases(ops, [3])[3][0, :, 2]
    phi = standard_bases(ops)[0, :, 2]
    assert np.abs(phi_J - phi).max() <= 1e-12


def test_bubble_sequence_contraction_chain():
    rng = np.random.default_rng(77)
    mesh = build_mesh(1, 1, 10)
    for trial in range(5):
        split = _random_splitting(mesh, rng, amp=0.9)
        assert split.eta_global < 1.0
        ops = fem.assemble_local_operators(mesh, [0], split)
        vertex = trial % 4
        idx = ops.assembler.interior_idx
        hat = ops.assembler.hats[:, vertex]

        def k0_energy(interior):
            full = np.zeros((mesh.r + 1) ** 2)
            full[idx] = interior
            return np.sqrt(ops.assembler.quadratic_form(
                split.k0[mesh.cell_fine_cells(0)], full))

        grad_l = np.sqrt(ops.assembler.quadratic_form(
            split.k0[mesh.cell_fine_cells(0)], hat))
        xis = bubble_series(ops, 8)[1]
        norms = [k0_energy(xi[0, :, vertex]) for xi in xis]
        for j in range(1, len(norms)):
            assert norms[j] <= split.eta_global * norms[j - 1] + 1e-14
        for j, nj in enumerate(norms):
            assert nj <= 2.0 * split.eta_global ** (j + 1) * grad_l + 1e-14


def test_xi_direct_is_series_limit():
    rng = np.random.default_rng(55)
    mesh = build_mesh(1, 1, 8)
    split = _random_splitting(mesh, rng, amp=0.7)
    ops = fem.assemble_local_operators(mesh, [0], split)
    scalar_ops = fem.assemble_local_operators(mesh, 0, split)
    xis = bubble_series(ops, 80)[1]
    for vertex in range(4):
        target = xi_direct(scalar_ops, vertex)
        partial = np.zeros_like(target)
        for xi in xis:
            partial += xi[0, :, vertex]
            if np.abs(partial - target).max() <= 1e-8:
                break
        assert np.abs(partial - target).max() <= 1e-8


def test_xi_direct_pde_oracle():
    # (M0 + M1) xi = M1 M0^-1 v0 - v1 is the discrete form of
    # -div(k grad xi) = div(k1 grad (Pi - I) l)
    rng = np.random.default_rng(56)
    mesh = build_mesh(1, 1, 9)
    split = _random_splitting(mesh, rng)
    ops = fem.assemble_local_operators(mesh, 0, split)
    A = fem.fine_stiffness(mesh, split.k)
    A1 = fem.fine_stiffness(mesh, split.k1)
    free = ~mesh.boundary_node_mask()
    idx = fem.LocalAssembler(mesh).interior_idx
    for vertex in range(4):
        pi_o, _ = _oracle_solves(mesh, split, vertex, 0)
        hat = ops.assembler.hats[:, vertex]
        rhs = (A1 @ (pi_o - hat))[free]
        xi_o = spla.spsolve(A[free][:, free].tocsc(), rhs)
        full = np.zeros(mesh.n_fine_nodes)
        full[free] = xi_o
        assert np.abs(xi_direct(ops, vertex) - full[idx]).max() <= 1e-10


def test_iterative_basis_monotone_convergence():
    rng = np.random.default_rng(91)
    mesh = build_mesh(1, 1, 10)
    split = _random_splitting(mesh, rng, amp=0.9)
    assert split.eta_global < 1.0
    ops = fem.assemble_local_operators(mesh, [0], split)
    ref = standard_bases(ops)[0]
    bases = iterative_bases(ops, range(11))
    for vertex in range(4):
        errs = [basis_energy_error(ops.assembler, split, 0, ref[:, vertex],
                                   bases[J][0, :, vertex])
                for J in range(11)]
        assert all(b <= a + 1e-14 for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= errs[0] * split.eta_global ** 10 + 1e-14


def test_basis_error_bound_trivial_and_dominant():
    mesh = build_mesh(1, 1, 8)
    asm = fem.LocalAssembler(mesh)
    zero = make_splitting(mesh, np.ones(64), np.zeros(64))
    assert basis_error_bound(asm, zero, 0, 0, 3)[0] == 0.0

    rng = np.random.default_rng(93)
    split = _random_splitting(mesh, rng, amp=0.9)
    ops = fem.assemble_local_operators(mesh, [0], split, asm)
    ref = standard_bases(ops)[0]
    bases = iterative_bases(ops, range(6))
    for vertex in range(4):
        for J in range(6):
            err = basis_energy_error(asm, split, 0, ref[:, vertex],
                                     bases[J][0, :, vertex])
            assert err <= basis_error_bound(asm, split, 0, vertex, J)[0]


def test_negative_J_rejected():
    mesh = build_mesh(1, 1, 3)
    split = make_splitting(mesh, np.ones(9), np.zeros(9))
    ops = fem.assemble_local_operators(mesh, [0], split)
    with pytest.raises(ValueError):
        bubble_series(ops, -1)

