from functools import partial

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from msfem_split import build_mesh
from msfem_split import fem
from msfem_split.basis import bubble_series, iterative_bases, standard_bases
from msfem_split.field import make_splitting
from msfem_split.msfem import basis_errors
from reference import (basis_error_bound, fine_stiffness, lift_cells,
                       quadratic_form, xi_direct)


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
    A0 = fine_stiffness(mesh, split.k0)
    A1 = fine_stiffness(mesh, split.k1)
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
            phi_J = bases[J][0][0, :, trial % 4]
            assert np.abs(phi - phi_J).max() <= 1e-12


@pytest.mark.parametrize("r", [3, 4, 7])
def test_series_products_and_residuals(r):
    # bubble_series returns M1 xi_j as cell_matmul(M1) forms it, bit for
    # bit, and iterative_bases' residual M1 xi_J is M c_J + v, exactly for
    # M0^-1 up to round-off; r = 7 runs the banded regime
    mesh = build_mesh(3, 2, r)
    ops = fem.assemble_local_operators(
        mesh, np.arange(mesh.n_coarse_cells),
        _random_splitting(mesh, np.random.default_rng(r)))
    m1 = fem.cell_matmul(ops.M1)
    green = np.linalg.inv(fem.stencil_to_dense(ops.M0)) * 1.01
    for solve in (None, partial(np.matmul, green)):
        _, xis, products = bubble_series(ops, 4, solve)
        assert len(products) == len(xis) == 5
        for xi, product in zip(xis, products):
            assert np.array_equal(product, m1(xi))
    m = fem.stencil_to_dense(ops.M0 + ops.M1)
    v = ops.v0 + ops.v1
    scale = np.abs(v).max()
    for G in (None, green):
        for J, (c, res) in iterative_bases(ops, range(5), G).items():
            assert np.abs(res - (m @ c + v)).max() <= 1e-12 * scale, J
    assert np.abs(m @ standard_bases(ops) + v).max() <= 1e-12 * scale


def test_bubble_oracle_equivalence():
    rng = np.random.default_rng(42)
    mesh = build_mesh(1, 1, 10)
    for trial in range(20):
        split = _random_splitting(mesh, rng)
        vertex = trial % 4
        ops = fem.assemble_local_operators(mesh, [0], split)
        pi_o, xis_o = _oracle_solves(mesh, split, vertex, 3)
        idx = fem.LocalAssembler(mesh).interior_idx
        pi_l, xis, _ = bubble_series(ops, 3)
        assert np.abs(pi_l[0, :, vertex] - pi_o[idx]).max() <= 1e-10
        for xi, xi_o in zip(xis, xis_o):
            assert np.abs(xi[0, :, vertex] - xi_o[idx]).max() <= 1e-10


def test_standard_basis_oracle():
    rng = np.random.default_rng(17)
    mesh = build_mesh(1, 1, 8)
    split = _random_splitting(mesh, rng)
    ops = fem.assemble_local_operators(mesh, [0], split)
    A = fine_stiffness(mesh, split.k)
    free = ~mesh.boundary_node_mask()
    phis = lift_cells(ops.assembler, standard_bases(ops))[0]
    for vertex in range(4):
        hat = ops.assembler.hats[:, vertex]
        u = hat.copy()
        u[free] += spla.spsolve(A[free][:, free].tocsc(), -(A @ hat)[free])
        assert np.abs(phis[:, vertex] - u).max() <= 1e-10


def test_standard_basis_constant_k():
    mesh = build_mesh(1, 1, 6)
    split = make_splitting(mesh, np.full(36, 3.0), np.zeros(36))
    ops = fem.assemble_local_operators(mesh, [0], split)
    phis = lift_cells(ops.assembler, standard_bases(ops))[0]
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
        phis = lift_cells(ops.assembler, standard_bases(ops))[0]
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
    std = lift_cells(ops.assembler, standard_bases(ops))[0]
    it2 = lift_cells(ops.assembler, iterative_bases(ops, [2])[2][0])[0]
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
    A0 = fine_stiffness(mesh, split.k0)
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
    phi_J = iterative_bases(ops, [3])[3][0][0, :, 2]
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
            return np.sqrt(quadratic_form(
                ops.assembler, split.k0[mesh.cell_fine_cells(0)], full))

        grad_l = np.sqrt(quadratic_form(
            ops.assembler, split.k0[mesh.cell_fine_cells(0)], hat))
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
    A = fine_stiffness(mesh, split.k)
    A1 = fine_stiffness(mesh, split.k1)
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
    errors = basis_errors(ops, range(11))
    for vertex in range(4):
        errs = [errors[J][0][0, vertex] for J in range(11)]
        assert all(b <= a + 1e-14 for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= errs[0] * split.eta_global ** 10 + 1e-14


def test_basis_error_bound_trivial_and_dominant():
    mesh = build_mesh(1, 1, 8)
    zero = make_splitting(mesh, np.ones(64), np.zeros(64))
    zero_ops = fem.assemble_local_operators(mesh, [0], zero)
    assert np.all(basis_errors(zero_ops, [3])[3][1] == 0.0)

    rng = np.random.default_rng(93)
    split = _random_splitting(mesh, rng, amp=0.9)
    ops = fem.assemble_local_operators(mesh, [0], split)
    for err, bound in basis_errors(ops, range(6)).values():
        assert np.all(err <= bound)


@pytest.mark.parametrize("nx,ny,r", [(3, 2, 4), (2, 3, 7)])
def test_basis_errors_match_lifted_oracle(nx, ny, r):
    # nK = 9 and 36 fall on both sides of BATCHED_MAX_N
    mesh = build_mesh(nx, ny, r)
    split = _random_splitting(mesh, np.random.default_rng(nx + 10 * r),
                              amp=0.9)
    cells = np.arange(mesh.n_coarse_cells)
    ops = fem.assemble_local_operators(mesh, cells, split)
    asm = ops.assembler
    ref = lift_cells(asm, standard_bases(ops))
    lifted = {J: lift_cells(asm, c)
              for J, (c, _) in iterative_bases(ops, range(6)).items()}
    errors = basis_errors(ops, range(6))
    assert sorted(errors) == list(range(6))
    for J, (err, bound) in errors.items():
        assert err.shape == bound.shape == (len(cells), 4)
        for cell in cells:
            k = split.k[mesh.cell_fine_cells(cell)]
            for v in range(4):
                hat_energy = quadratic_form(asm, k, asm.hats[:, v])
                diff = ref[cell, :, v] - lifted[J][cell, :, v]
                assert abs(err[cell, v] ** 2 - quadratic_form(asm, k, diff)) \
                    <= 1e-15 * hat_energy
                oracle = basis_error_bound(asm, split, cell, v, J)
                assert abs(bound[cell, v] - oracle) <= 1e-13 * oracle


def test_splitting_on_another_fine_grid_is_refused():
    # a 32x8 field has as many fine cells as the 16x16 mesh's
    mesh = build_mesh(4, 4, 4)
    cells = np.arange(mesh.n_coarse_cells)
    other = _random_splitting(build_mesh(8, 2, 4), np.random.default_rng(3))
    grids = "splitting is on a 32x8 fine grid, not the mesh's 16x16"
    with pytest.raises(ValueError, match=grids):
        fem.assemble_local_operators(mesh, cells, other)


def test_basis_errors_of_splitting_on_another_coarse_mesh():
    # an 8x8, r=2 splitting has the 4x4, r=4 mesh's 16x16 fine grid: its
    # errors and bounds there are those of the same fields split on the
    # mesh itself, whose eta_K are the mesh's cells'
    mesh = build_mesh(4, 4, 4)
    other = _random_splitting(build_mesh(8, 8, 2),
                              np.random.default_rng(4), amp=0.9)
    own = make_splitting(mesh, other.k0, other.k1)
    cells = np.arange(mesh.n_coarse_cells)
    errors = basis_errors(fem.assemble_local_operators(mesh, cells, other),
                          range(3))
    expected = basis_errors(fem.assemble_local_operators(mesh, cells, own),
                            range(3))
    for J in range(3):
        assert np.array_equal(errors[J][0], expected[J][0])
        assert np.array_equal(errors[J][1], expected[J][1])


def test_negative_J_rejected():
    mesh = build_mesh(1, 1, 3)
    split = make_splitting(mesh, np.ones(9), np.zeros(9))
    ops = fem.assemble_local_operators(mesh, [0], split)
    with pytest.raises(ValueError):
        bubble_series(ops, -1)

