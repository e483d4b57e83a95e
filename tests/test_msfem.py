import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from msfem_split import (build_kle_model, build_mesh, build_sparse_grid,
                         fine_reference_solve, precompute_green_inverses,
                         sample_theta)
from msfem_split import basis as basis_mod
from msfem_split import fem
from msfem_split import msfem
from msfem_split import stochastic as st
from msfem_split.field import make_splitting, split_kle
from msfem_split.msfem import (assemble_coarse_system, error_report,
                               solution_error_bound, solve_msfem)


def _random_splitting(mesh, rng, amp=0.8):
    k0 = np.exp(rng.uniform(-1, 1, mesh.n_fine_cells))
    k1 = amp * k0 * rng.uniform(-1, 1, mesh.n_fine_cells)
    return make_splitting(mesh, k0, k1)


def test_constant_k_reduces_to_coarse_q1():
    mesh = build_mesh(4, 4, 3)
    k = np.full(mesh.n_fine_cells, 2.0)
    split = make_splitting(mesh, k, np.zeros_like(k))
    bases = msfem.build_basis_registry(mesh, split, "standard")
    system = assemble_coarse_system(mesh, bases, k)
    coarse = build_mesh(2, 2, 2)  # same 4x4 lattice viewed as fine cells
    A_q1 = fem.fine_stiffness(coarse, np.full(16, 2.0)).toarray()
    assert np.abs(system.A - A_q1).max() <= 1e-12


def test_coarse_system_symmetric():
    mesh = build_mesh(3, 3, 4)
    rng = np.random.default_rng(12)
    split = _random_splitting(mesh, rng)
    bases = msfem.build_basis_registry(mesh, split, "iterative", J=1)
    system = assemble_coarse_system(mesh, bases, split.k)
    assert np.abs(system.A - system.A.T).max() <= 1e-12


def test_single_cell_mesh_solution_is_zero():
    mesh = build_mesh(1, 1, 4)
    split = make_splitting(mesh, np.ones(16), np.zeros(16))
    bases = msfem.build_basis_registry(mesh, split, "standard")
    system = assemble_coarse_system(mesh, bases, split.k)
    assert system.free_vertices.size == 0
    assert np.allclose(solve_msfem(system), 0.0)


def test_zero_source_zero_solution():
    mesh = build_mesh(3, 3, 3)
    rng = np.random.default_rng(14)
    split = _random_splitting(mesh, rng)
    bases = msfem.build_basis_registry(mesh, split, "standard")
    system = assemble_coarse_system(mesh, bases, split.k,
                                    f=np.zeros(mesh.n_fine_cells))
    assert np.allclose(solve_msfem(system), 0.0)


def test_constant_k_solution_is_bilinear_prolongation():
    mesh = build_mesh(4, 4, 4)
    k = np.ones(mesh.n_fine_cells)
    split = make_splitting(mesh, k, np.zeros_like(k))
    bases = msfem.build_basis_registry(mesh, split, "standard")
    u = solve_msfem(assemble_coarse_system(mesh, bases, k))
    # coarse Q1 solve with consistent coarse load of f = 1
    uc = fine_reference_solve(build_mesh(2, 2, 2), np.ones(16))
    grid = u.reshape(mesh.nyf + 1, mesh.nxf + 1)
    cgrid = uc.reshape(5, 5)
    assert np.allclose(grid[::4, ::4], cgrid, atol=1e-12)
    # bilinear in between: midpoint of a coarse edge is the average
    assert np.isclose(grid[4, 2], (cgrid[1, 0] + cgrid[1, 1]) / 2.0)


def test_missing_basis_entry_rejected():
    mesh = build_mesh(2, 2, 3)
    rng = np.random.default_rng(15)
    split = _random_splitting(mesh, rng)
    bases = msfem.build_basis_registry(mesh, split, "standard")
    for malformed in (bases[1:], bases[:, :, :3], bases[:, 1:]):
        with pytest.raises(ValueError):
            assemble_coarse_system(mesh, malformed, split.k)
    with pytest.raises(ValueError):
        msfem.build_basis_registry(mesh, split, "spectral")


def test_solution_boundary_zero():
    mesh = build_mesh(3, 3, 5)
    rng = np.random.default_rng(16)
    split = _random_splitting(mesh, rng)
    bases = msfem.build_basis_registry(mesh, split, "iterative", J=0)
    u = solve_msfem(assemble_coarse_system(mesh, bases, split.k))
    assert np.allclose(u[mesh.boundary_node_mask()], 0.0)


def test_galerkin_optimality_spot_check():
    mesh = build_mesh(3, 3, 4)
    rng = np.random.default_rng(18)
    split = _random_splitting(mesh, rng)
    bases = msfem.build_basis_registry(mesh, split, "standard")
    system = assemble_coarse_system(mesh, bases, split.k)
    u_ref = fine_reference_solve(mesh, split.k)
    u_h = solve_msfem(system)
    best = fem.energy_norm(mesh, split.k, u_ref - u_h)
    free = system.free_vertices
    coeffs = np.zeros(mesh.n_coarse_vertices)
    coeffs[free] = fem.solve_spd(system.A[np.ix_(free, free)],
                                 system.F[free])
    for _ in range(5):
        pert = coeffs.copy()
        pert[free] += 0.05 * rng.standard_normal(free.size)
        u = np.zeros(mesh.n_fine_nodes)
        for cell in range(mesh.n_coarse_cells):
            verts = mesh.cell_vertices(cell)
            local = sum(pert[verts[v]] * bases[cell, :, v]
                        for v in range(4))
            u[mesh.cell_fine_nodes(cell)] = local
        assert fem.energy_norm(mesh, split.k, u_ref - u) >= best


def test_solution_error_bound_properties():
    bounds = [solution_error_bound(J, 0.5, 2.0, 1.0)[0] for J in range(6)]
    assert all(b > 0 for b in bounds)
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    tiny = solution_error_bound(0, 1e-9, 2.0, 1.0)[0]
    assert tiny < 1e-4
    with pytest.raises(ValueError):
        solution_error_bound(0, 1.0, 2.0, 1.0)


def test_c_tilde():
    mesh = build_mesh(1, 1, 2)
    split = make_splitting(mesh, np.full(4, 2.0), np.full(4, 2.0))
    # k0/k = 1/2 so c_tilde = sqrt(2) * sqrt(1/2) = 1
    assert np.isclose(msfem.c_tilde(split), 1.0)


def test_error_report():
    mesh = build_mesh(3, 3, 3)
    rng = np.random.default_rng(19)
    split = _random_splitting(mesh, rng)
    u_ref = fine_reference_solve(mesh, split.k)
    std = msfem.build_basis_registry(mesh, split, "standard")
    it0 = msfem.build_basis_registry(mesh, split, "iterative", J=0)
    u_h = solve_msfem(assemble_coarse_system(mesh, std, split.k))
    u_J = solve_msfem(assemble_coarse_system(mesh, it0, split.k))
    rep = error_report(mesh, u_ref, u_h, u_J, split.k)
    same = error_report(mesh, u_ref, u_ref, u_ref, split.k)
    assert same.err_ref_h == same.err_h_Jh == same.err_ref_Jh == 0.0
    assert rep.err_ref_Jh <= rep.err_ref_h + rep.err_h_Jh + 1e-12
    assert rep.rel_err_h_Jh >= 0.0
    with pytest.raises(ValueError):
        error_report(mesh, u_ref[:-1], u_h, u_J, split.k)


@settings(max_examples=40, deadline=None)
@given(nx=hst.integers(1, 3), ny=hst.integers(1, 3), r=hst.integers(2, 6),
       J=hst.integers(0, 4), m=hst.integers(1, 3),
       sigma2=hst.floats(0.05, 2.0), seed=hst.integers(0, 2 ** 31))
def test_batched_bases_match_scalar_and_invariants(nx, ny, r, J, m, sigma2,
                                                   seed):
    mesh = build_mesh(nx, ny, r)
    model = build_kle_model(mesh, sigma2, 0.3, 0.2, 4)
    theta = sample_theta(seed, 0, model.n)
    split = split_kle(model, theta, m)
    assume(split.eta_global < 1.0)
    store = precompute_green_inverses(mesh, model, build_sparse_grid(m, 1), m)
    std = msfem.build_basis_registry(mesh, split, "standard")
    its = msfem.build_iterative_registries(mesh, split, range(J + 1))
    col = st.interpolated_registry(store, theta, J)

    asm = fem.LocalAssembler(mesh)
    boundary = ~mesh.local_interior_mask
    for cell in range(mesh.n_coarse_cells):
        ops = fem.assemble_local_operators(mesh, cell, split, asm)
        for v in range(4):
            ref = basis_mod.standard_basis(ops, v).values
            assert np.abs(std[cell, :, v] - ref).max() <= 1e-12
            seq = basis_mod.iterative_basis_sequence(ops, v, J)
            for j in range(J + 1):
                assert np.abs(its[j][cell, :, v] - seq[j].values).max() \
                    <= 1e-12
            ref = st.interpolated_basis(store, store.grid, theta, cell, v, J,
                                        operators=ops).values
            assert np.abs(col[cell, :, v] - ref).max() <= 1e-12

    for bases in [std, col] + list(its.values()):
        assert np.abs(bases.sum(axis=2) - 1.0).max() <= 1e-12
        assert np.array_equal(bases[:, boundary],
                              np.broadcast_to(asm.hats[boundary],
                                              bases[:, boundary].shape))
        system = assemble_coarse_system(mesh, bases, split.k)
        free = system.free_vertices
        A = system.A[np.ix_(free, free)]
        assert np.abs(A - A.T).max(initial=0.0) <= \
            1e-12 * np.abs(A).max(initial=0.0)
        assert np.all(np.linalg.eigvalsh(A) > 0.0)

    green = st._interpolated_green(store, theta[:m])
    u_h, u_J, u_col = msfem.msfem_solutions(mesh, split, [J], green=green)
    for u, bases in ((u_h, std), (u_J[J], its[J]), (u_col[J], col)):
        alone = solve_msfem(assemble_coarse_system(mesh, bases, split.k))
        assert np.abs(u - alone).max() <= 1e-12
    e = fem.energy_norm(mesh, split.k, u_h - u_col[J])
    e_spl = fem.energy_norm(mesh, split.k, u_h - u_J[J])
    e_col = fem.energy_norm(mesh, split.k, u_J[J] - u_col[J])
    assert e <= e_spl + e_col + 1e-12


def test_chunked_bases_equal_whole_mesh(monkeypatch):
    mesh = build_mesh(3, 2, 5)
    rng = np.random.default_rng(21)
    split = _random_splitting(mesh, rng)
    green = np.linalg.inv(fem.assemble_local_operators(
        mesh, np.arange(mesh.n_coarse_cells), split).M0)
    whole = msfem.msfem_solutions(mesh, split, [0, 2], green=green)
    monkeypatch.setattr(msfem, "CHUNK_BYTES", 1)  # one cell per chunk
    chunked = msfem.msfem_solutions(mesh, split, [0, 2], green=green)
    assert np.abs(whole[0] - chunked[0]).max() <= 1e-14
    for a, b in zip(whole[1:], chunked[1:]):
        for J in (0, 2):
            assert np.abs(a[J] - b[J]).max() <= 1e-14


@pytest.mark.parametrize("r", range(2, 9))
def test_grid_bandwidth_holds_local_stencil(r):
    # interior nodes run row-major over rows of r - 1, so neighbours lie at
    # most r apart: the half-bandwidth cell_cholesky is given
    mesh = build_mesh(2, 2, r)
    ops = fem.assemble_local_operators(
        mesh, np.arange(mesh.n_coarse_cells),
        _random_splitting(mesh, np.random.default_rng(r)))
    for mats in (ops.M0, ops.M1):
        assert not np.any(np.tril(mats, -r - 1))
        assert not np.any(np.triu(mats, r + 1))
    if r > 2:  # the up-right neighbour sits exactly r away
        assert np.all(np.diagonal(ops.M0, -r, axis1=1, axis2=2).any(axis=1))


@pytest.mark.parametrize("nx,ny,r", [(2, 3, 2), (3, 2, 5), (2, 2, 7)])
def test_banded_and_batched_cholesky_agree(monkeypatch, nx, ny, r):
    mesh = build_mesh(nx, ny, r)
    rng = np.random.default_rng(r)
    split = _random_splitting(mesh, rng)
    green = np.linalg.inv(fem.assemble_local_operators(
        mesh, np.arange(mesh.n_coarse_cells), split).M0)
    results = []
    for limit in (10 ** 6, 0):  # all batched, then all banded
        monkeypatch.setattr(fem, "BATCHED_MAX_N", limit)
        results.append(msfem.msfem_solutions(mesh, split, [0, 3],
                                             green=green))
    batched, banded = results
    scale = np.abs(batched[0]).max()
    assert np.abs(batched[0] - banded[0]).max() <= 1e-12 * scale
    for a, b in zip(batched[1:], banded[1:]):
        for J in (0, 3):
            assert np.abs(a[J] - b[J]).max() <= 1e-12 * scale
