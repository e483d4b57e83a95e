import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as hst

from msfem_split import build_mesh, fine_reference_solve, solve_spd
from msfem_split import fem
from msfem_split.field import make_splitting


def _random_splitting(mesh, rng, amp=0.8):
    k0 = np.exp(rng.uniform(-1, 1, mesh.n_fine_cells))
    k1 = amp * k0 * rng.uniform(-1, 1, mesh.n_fine_cells)
    return make_splitting(mesh, k0, k1)


def test_element_stiffness_unit_square():
    ke = fem.element_stiffness(1.0, 1.0)
    assert np.allclose(np.diag(ke), 2.0 / 3.0)
    assert np.allclose(ke, ke.T)
    assert np.allclose(ke.sum(axis=1), 0.0)


def test_m0_single_interior_node():
    mesh = build_mesh(1, 1, 2)
    split = make_splitting(mesh, np.ones(4), np.zeros(4))
    ops = fem.assemble_local_operators(mesh, 0, split)
    assert np.allclose(ops.M0, [[8.0 / 3.0]])
    assert np.allclose(ops.M1, 0.0)
    assert np.allclose(ops.v1, 0.0)


def test_assembly_additivity():
    mesh = build_mesh(2, 2, 5)
    rng = np.random.default_rng(3)
    split = _random_splitting(mesh, rng)
    full = make_splitting(mesh, split.k, np.zeros_like(split.k))
    for cell in range(mesh.n_coarse_cells):
        ops = fem.assemble_local_operators(mesh, cell, split)
        ops_k = fem.assemble_local_operators(mesh, cell, full)
        assert np.allclose(ops.M0 + ops.M1, ops_k.M0, atol=1e-12)
        assert np.allclose(ops.v0 + ops.v1, ops_k.v0, atol=1e-12)


def test_local_assembler_stacks_any_leading_axes():
    mesh = build_mesh(2, 2, 3)
    asm = fem.LocalAssembler(mesh)
    cells = mesh.cell_fine_cells(np.arange(mesh.n_coarse_cells))
    kappa = np.exp(np.random.default_rng(5).uniform(
        -1, 1, (2, mesh.n_fine_cells)))[:, cells]
    for stack in (asm.interior_matrices, asm.vertex_vectors):
        out = stack(kappa)
        assert out.shape[:2] == kappa.shape[:2]
        assert np.array_equal(out, [stack(kappa[0]), stack(kappa[1])])


def test_nonpositive_k0_rejected():
    mesh = build_mesh(1, 1, 3)
    split = make_splitting(mesh, np.ones(9), np.zeros(9))
    split.k0[0] = -1.0
    with pytest.raises(ValueError):
        fem.assemble_local_operators(mesh, 0, split)


def test_m0_is_spd():
    mesh = build_mesh(2, 1, 6)
    rng = np.random.default_rng(11)
    for cell in range(mesh.n_coarse_cells):
        ops = fem.assemble_local_operators(mesh, cell,
                                           _random_splitting(mesh, rng))
        w = np.linalg.eigvalsh(ops.M0)
        assert w.min() > 0.0


def test_solve_spd_identity_and_zero():
    rhs = np.arange(5.0)
    assert np.allclose(solve_spd(np.eye(5), rhs), rhs)
    assert np.allclose(solve_spd(np.eye(5), np.zeros(5)), 0.0)


def test_solve_spd_residual():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((50, 50))
    mat = a @ a.T + 50 * np.eye(50)
    rhs = rng.standard_normal(50)
    x = solve_spd(mat, rhs)
    assert np.linalg.norm(mat @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_solve_spd_rejects_indefinite():
    with pytest.raises(np.linalg.LinAlgError):
        solve_spd(np.diag([1.0, -1.0]), np.ones(2))


def test_reference_solve_zero_source():
    mesh = build_mesh(4, 4, 2)
    u = fine_reference_solve(mesh, np.ones(mesh.n_fine_cells),
                             np.zeros(mesh.n_fine_cells))
    assert np.allclose(u, 0.0)


def test_reference_solve_poisson_max():
    # analytic double-sine series for -lap u = 1 on the unit square gives
    # max u = 0.0736713...
    mesh = build_mesh(8, 8, 8)
    u = fine_reference_solve(mesh, np.ones(mesh.n_fine_cells))
    assert abs(u.max() - 0.07367) < 1e-3


def test_reference_solve_energy_identity():
    mesh = build_mesh(4, 4, 4)
    rng = np.random.default_rng(5)
    k = np.exp(rng.uniform(-1, 1, mesh.n_fine_cells))
    f = rng.uniform(0.5, 1.5, mesh.n_fine_cells)
    u = fine_reference_solve(mesh, k, f)
    energy_sq = fem.energy_norm(mesh, k, u) ** 2
    work = fem.fine_load(mesh, f) @ u
    assert abs(energy_sq - work) <= 1e-8 * abs(work)


def test_reference_solve_rejects_bad_k():
    mesh = build_mesh(2, 2, 2)
    k = np.ones(mesh.n_fine_cells)
    k[3] = 0.0
    with pytest.raises(ValueError):
        fine_reference_solve(mesh, k)


def test_reference_solve_refinement_sanity():
    rng = np.random.default_rng(9)
    k_coarse = np.exp(rng.uniform(-1, 1, 8 * 8))

    def err(r):
        mesh = build_mesh(8, 8, r)
        k = np.repeat(np.repeat(k_coarse.reshape(8, 8), r, 0), r, 1).ravel()
        u = fine_reference_solve(mesh, k)
        fine = build_mesh(8, 8, 2 * r)
        kf = np.repeat(np.repeat(k_coarse.reshape(8, 8), 2 * r, 0),
                       2 * r, 1).ravel()
        uf = fine_reference_solve(fine, kf)
        # compare on the shared coarse-node lattice
        ug = u.reshape(8 * r + 1, 8 * r + 1)[::r, ::r]
        ugf = uf.reshape(16 * r + 1, 16 * r + 1)[::2 * r, ::2 * r]
        return np.abs(ug - ugf).max()

    assert err(4) < err(2)


def test_energy_norm_zero_and_linear():
    mesh = build_mesh(3, 3, 3)
    k = np.ones(mesh.n_fine_cells)
    assert fem.energy_norm(mesh, k, np.zeros(mesh.n_fine_nodes)) == 0.0
    x = mesh.fine_node_coords()[:, 0]
    assert abs(fem.energy_norm(mesh, k, x) - 1.0) < 1e-12


def test_energy_norm_homogeneity():
    mesh = build_mesh(2, 2, 3)
    rng = np.random.default_rng(2)
    k = np.exp(rng.uniform(-1, 1, mesh.n_fine_cells))
    v = rng.standard_normal(mesh.n_fine_nodes)
    assert np.isclose(fem.energy_norm(mesh, k, -3.0 * v),
                      3.0 * fem.energy_norm(mesh, k, v))


def test_energy_norm_region_consistency():
    mesh = build_mesh(2, 2, 4)
    rng = np.random.default_rng(4)
    k = np.exp(rng.uniform(-1, 1, mesh.n_fine_cells))
    v = rng.standard_normal(mesh.n_fine_nodes)
    total = fem.energy_norm(mesh, k, v) ** 2
    asm = fem.LocalAssembler(mesh)
    parts = sum(asm.quadratic_form(k[mesh.cell_fine_cells(c)],
                                   v[mesh.cell_fine_nodes(c)])
                for c in range(mesh.n_coarse_cells))
    assert np.isclose(total, parts)


@pytest.mark.parametrize("nx,ny,r", [(3, 2, 3), (2, 4, 5), (1, 3, 7),
                                     (4, 1, 2), (5, 2, 4)])
def test_reference_solve_matches_sparse_solve(nx, ny, r):
    mesh = build_mesh(nx, ny, r)
    rng = np.random.default_rng(nx * 100 + ny * 10 + r)
    k = np.exp(rng.uniform(-2, 2, mesh.n_fine_cells))
    f = rng.uniform(-1, 1, mesh.n_fine_cells)
    free = ~mesh.boundary_node_mask()
    A = fem.fine_stiffness(mesh, k)[free][:, free].tocsc()
    ref = np.zeros(mesh.n_fine_nodes)
    ref[free] = spla.spsolve(A, fem.fine_load(mesh, f)[free])
    u = fine_reference_solve(mesh, k, f)
    assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.all(u[~free] == 0.0)


@pytest.mark.parametrize("nx,ny,r", [(3, 2, 3), (2, 4, 5), (4, 1, 2)])
def test_fine_stiffness_band_holds_free_stiffness(nx, ny, r):
    # x runs fastest, so the band of width mesh.nxf holds every nonzero
    mesh = build_mesh(nx, ny, r)
    k = np.exp(np.random.default_rng(r).uniform(-1, 1, mesh.n_fine_cells))
    free = ~mesh.boundary_node_mask()
    A = fem.fine_stiffness(mesh, k)[free][:, free].toarray()
    n = len(A)
    assert not np.any(np.tril(A, -mesh.nxf - 1))
    band = fem.fine_stiffness_band(mesh, k)
    assert band.shape == (mesh.nxf + 1, n)
    for d in range(min(mesh.nxf, n - 1) + 1):
        assert np.allclose(band[d, :n - d], np.diagonal(A, -d),
                           rtol=1e-14, atol=0.0)
        assert not np.any(band[d, n - d:])


@pytest.mark.parametrize("r,n_cells", [(8, 6), (30, 2)])
def test_cell_cholesky_banded_matches_dense(r, n_cells):
    mesh = build_mesh(3, 2, r)
    assert mesh.n_interior > fem.BATCHED_MAX_N  # the banded branch
    rng = np.random.default_rng(r)
    ops = fem.assemble_local_operators(mesh, np.arange(n_cells),
                                       _random_splitting(mesh, rng))
    rhs = rng.standard_normal((n_cells, mesh.n_interior, 4))
    for mats in (ops.M0, ops.M0 + ops.M1):
        x = fem.cell_cholesky(mats, r)(rhs)
        for c in range(n_cells):
            ref = sla.cho_solve(sla.cho_factor(mats[c]), rhs[c])
            assert np.abs(x[c] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("r", [3, 6, 8])
def test_cell_cholesky_rejects_non_spd(r):
    # r=3 and r=6 (n=25) take the batched branch, r=8 the banded one
    mesh = build_mesh(2, 1, r)
    split = make_splitting(mesh, np.ones(mesh.n_fine_cells),
                           np.zeros(mesh.n_fine_cells))
    mats = fem.assemble_local_operators(mesh, np.arange(2), split).M0
    mats[1] *= -1.0
    with pytest.raises(np.linalg.LinAlgError, match="matrix is not SPD"):
        fem.cell_cholesky(mats, r)


def _spd_stack(rng, n, cells, shift):
    """Cells-last (n, n, cells) stack of SPD matrices X X^T + shift I."""
    x = rng.standard_normal((cells, n, n))
    return np.moveaxis(x @ x.transpose(0, 2, 1) + shift * np.eye(n), 0, -1)


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(1, 25), cells=hst.integers(1, 8),
       shift=hst.floats(0.1, 10.0), seed=hst.integers(0, 2 ** 31))
def test_spd_inverse_matches_inv(n, cells, shift, seed):
    a = _spd_stack(np.random.default_rng(seed), n, cells, shift)
    before = a.copy()
    inv = fem.spd_inverse(a)
    assert np.array_equal(a, before)  # the input is never written
    assert inv.shape == (n, n, cells)
    ref = np.linalg.inv(np.moveaxis(a, -1, 0))
    err = np.abs(np.moveaxis(inv, -1, 0) - ref).max()
    assert err <= 1e-12 * np.abs(ref).max()


def test_spd_inverse_leaves_one_cell_stack_alone():
    # a one-cell cells-last view of a cells-first stack is C-contiguous
    mats = np.moveaxis(_spd_stack(np.random.default_rng(0), 9, 1, 1.0), -1, 0)
    view = np.moveaxis(mats, 0, -1)
    assert view.flags.c_contiguous
    before = mats.copy()
    fem.spd_inverse(view)
    assert np.array_equal(mats, before)


def test_spd_inverse_rejects_indefinite():
    a = _spd_stack(np.random.default_rng(1), 4, 3, 1.0)
    a[..., 2] = [[2.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0],
                 [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    before = a.copy()
    with pytest.raises(np.linalg.LinAlgError,
                       match="matrix is not SPD: pivot 1 .* in cell 2"):
        fem.spd_inverse(a)
    assert np.array_equal(a, before)
