import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import isqrt

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as hst

from msfem_split import build_mesh
from msfem_split import fem
from msfem_split.field import make_splitting
import reference
from reference import fine_node_coords, fine_stiffness


def _random_splitting(mesh, rng, amp=0.8):
    k0 = np.exp(rng.uniform(-1, 1, mesh.n_fine_cells))
    k1 = amp * k0 * rng.uniform(-1, 1, mesh.n_fine_cells)
    return make_splitting(mesh, k0, k1)


def test_element_stiffness_unit_square():
    ke = fem.element_stiffness(1.0, 1.0)
    assert np.allclose(np.diag(ke), 2.0 / 3.0)
    assert np.allclose(ke, ke.T)
    assert np.allclose(ke.sum(axis=1), 0.0)
    # built once and shared, so read-only
    assert fem.element_stiffness(1.0, 1.0) is ke
    assert not ke.flags.writeable


def test_default_source_load_is_the_unit_load():
    # the solve reads the mesh's cached unit load, bit for bit the load of
    # f = 1, and, as it writes into its load, leaves the cache as it was
    mesh = build_mesh(3, 2, 4)
    k = np.exp(np.random.default_rng(3).uniform(-1, 1, mesh.n_fine_cells))
    free = fem.fine_band(mesh).free
    load = fem.fine_load(mesh)[free]
    ref = np.zeros(mesh.n_fine_nodes)
    ref[free] = fem._band_solve(
        fem._band_factor(fem.fine_stiffness_band(mesh, k)), load.copy())
    for _ in range(2):
        assert np.array_equal(fem.fine_reference_solver(mesh, k)(), ref)
    assert np.array_equal(fem.fine_band(mesh).unit_load, load)


def test_m0_single_interior_node():
    mesh = build_mesh(1, 1, 2)
    split = make_splitting(mesh, np.ones(4), np.zeros(4))
    ops = fem.assemble_local_operators(mesh, 0, split)
    assert np.allclose(fem.stencil_to_dense(ops.M0), [[8.0 / 3.0]])
    assert np.allclose(fem.stencil_to_dense(ops.M1), 0.0)
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


def test_local_operators_hold_their_splitting():
    # the splitting itself, not a copy: the coarse stage and the basis
    # errors read its coefficients instead of taking them again
    mesh = build_mesh(2, 2, 3)
    split = _random_splitting(mesh, np.random.default_rng(4))
    for cell in (0, [1, 3], np.arange(mesh.n_coarse_cells)):
        ops = fem.assemble_local_operators(mesh, cell, split)
        assert ops.splitting is split


def test_local_assembler_stacks_any_leading_axes():
    mesh = build_mesh(2, 2, 3)
    asm = fem.LocalAssembler(mesh)
    cells = mesh.cell_fine_cells(np.arange(mesh.n_coarse_cells))
    kappa = np.exp(np.random.default_rng(5).uniform(
        -1, 1, (2, mesh.n_fine_cells)))[:, cells]
    # the storage keeps them after its rows, the vertex vectors before
    for stack, axis in ((asm.interior_bands, 1), (asm.vertex_vectors, 0)):
        out = stack(kappa)
        assert out.shape[axis:axis + 2] == kappa.shape[:2]
        assert np.array_equal(
            out, np.stack([stack(kappa[0]), stack(kappa[1])], axis=axis))


def test_nonpositive_k0_rejected():
    mesh = build_mesh(1, 1, 3)
    split = make_splitting(mesh, np.ones(9), np.zeros(9))
    split.k0[0] = -1.0
    with pytest.raises(ValueError):
        fem.assemble_local_operators(mesh, 0, split)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_k0_rejected(bad):
    # a Splitting built around make_splitting; NaN failed no `<= 0` test
    mesh = build_mesh(1, 1, 3)
    split = make_splitting(mesh, np.ones(9), np.zeros(9))
    split.k0[4] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        fem.assemble_local_operators(mesh, 0, split)


def test_m0_is_spd():
    mesh = build_mesh(2, 1, 6)
    rng = np.random.default_rng(11)
    for cell in range(mesh.n_coarse_cells):
        ops = fem.assemble_local_operators(mesh, cell,
                                           _random_splitting(mesh, rng))
        w = np.linalg.eigvalsh(fem.stencil_to_dense(ops.M0))
        assert w.min() > 0.0


def _bands_of(mat, width):
    """Lower band storage (width + 1, n) of a dense matrix."""
    n = len(mat)
    bands = np.zeros((width + 1, n))
    for d in range(min(width, n - 1) + 1):
        bands[d, :n - d] = np.diagonal(mat, -d)
    return bands


def test_band_cholesky_identity_and_zero():
    rhs = np.arange(5.0)
    solve = fem.band_cholesky(np.ones((1, 5)))
    assert np.allclose(solve(rhs), rhs)
    assert np.allclose(solve(np.zeros(5)), 0.0)


def test_band_cholesky_residual():
    rng = np.random.default_rng(7)
    a = np.tril(np.triu(rng.standard_normal((50, 50)), -3), 3)
    mat = a @ a.T + 50 * np.eye(50)  # half-bandwidth 6
    rhs = rng.standard_normal(50)
    x = fem.band_cholesky(_bands_of(mat, 6))(rhs)
    assert np.linalg.norm(mat @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_band_cholesky_rejects_indefinite():
    with pytest.raises(np.linalg.LinAlgError, match="matrix is not SPD"):
        fem.band_cholesky(np.array([[1.0, -1.0]]))


def test_reference_solve_poisson_max():
    # analytic double-sine series for -lap u = 1 on the unit square gives
    # max u = 0.0736713...
    mesh = build_mesh(8, 8, 8)
    u = fem.fine_reference_solver(mesh, np.ones(mesh.n_fine_cells))()
    assert abs(u.max() - 0.07367) < 1e-3


def test_reference_solve_energy_identity():
    mesh = build_mesh(4, 4, 4)
    rng = np.random.default_rng(5)
    k = np.exp(rng.uniform(-1, 1, mesh.n_fine_cells))
    u = fem.fine_reference_solver(mesh, k)()
    energy_sq = fem.energy_norm(mesh, k, u) ** 2
    work = fem.fine_load(mesh) @ u
    assert abs(energy_sq - work) <= 1e-8 * abs(work)


def test_reference_solve_rejects_bad_k():
    mesh = build_mesh(2, 2, 2)
    k = np.ones(mesh.n_fine_cells)
    k[3] = 0.0
    with pytest.raises(ValueError):
        fem.fine_reference_solver(mesh, k)()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reference_solve_rejects_non_finite_k(bad):
    mesh = build_mesh(2, 2, 2)
    k = np.ones(mesh.n_fine_cells)
    k[3] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        fem.fine_reference_solver(mesh, k)


def test_reference_solve_refinement_sanity():
    rng = np.random.default_rng(9)
    k_coarse = np.exp(rng.uniform(-1, 1, 8 * 8))

    def err(r):
        mesh = build_mesh(8, 8, r)
        k = np.repeat(np.repeat(k_coarse.reshape(8, 8), r, 0), r, 1).ravel()
        u = fem.fine_reference_solver(mesh, k)()
        fine = build_mesh(8, 8, 2 * r)
        kf = np.repeat(np.repeat(k_coarse.reshape(8, 8), 2 * r, 0),
                       2 * r, 1).ravel()
        uf = fem.fine_reference_solver(fine, kf)()
        # compare on the shared coarse-node lattice
        ug = u.reshape(8 * r + 1, 8 * r + 1)[::r, ::r]
        ugf = uf.reshape(16 * r + 1, 16 * r + 1)[::2 * r, ::2 * r]
        return np.abs(ug - ugf).max()

    assert err(4) < err(2)


def test_energy_norm_zero_and_linear():
    mesh = build_mesh(3, 3, 3)
    k = np.ones(mesh.n_fine_cells)
    assert fem.energy_norm(mesh, k, np.zeros(mesh.n_fine_nodes)) == 0.0
    x = fine_node_coords(mesh)[:, 0]
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
    parts = sum(reference.quadratic_form(asm, k[mesh.cell_fine_cells(c)],
                                         v[mesh.cell_fine_nodes(c)])
                for c in range(mesh.n_coarse_cells))
    assert np.isclose(total, parts)


def test_energy_norm_independent_of_threads():
    # 16 384 fine cells: a BLAS dot in place of the einsum would be split
    # over the BLAS threads and change the norm's last bits
    assert reference.child_output("energy", 1) == \
        reference.child_output("energy", 2)


@pytest.mark.parametrize("nx,ny,r", [(3, 2, 3), (2, 4, 5), (1, 3, 7),
                                     (4, 1, 2), (5, 2, 4)])
def test_reference_solve_matches_sparse_solve(nx, ny, r):
    mesh = build_mesh(nx, ny, r)
    rng = np.random.default_rng(nx * 100 + ny * 10 + r)
    k = np.exp(rng.uniform(-2, 2, mesh.n_fine_cells))
    free = ~mesh.boundary_node_mask()
    A = fine_stiffness(mesh, k)[free][:, free].tocsc()
    ref = np.zeros(mesh.n_fine_nodes)
    ref[free] = spla.spsolve(A, fem.fine_load(mesh)[free])
    u = fem.fine_reference_solver(mesh, k)()
    assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.all(u[~free] == 0.0)


@pytest.mark.parametrize("nx,ny,r", [(3, 2, 3), (2, 4, 5), (4, 1, 2)])
def test_fine_stiffness_band_holds_free_stiffness(nx, ny, r):
    # x runs fastest, so the band of width mesh.nxf holds every nonzero
    mesh = build_mesh(nx, ny, r)
    k = np.exp(np.random.default_rng(r).uniform(-1, 1, mesh.n_fine_cells))
    free = ~mesh.boundary_node_mask()
    A = fine_stiffness(mesh, k)[free][:, free].toarray()
    n = len(A)
    assert not np.any(np.tril(A, -mesh.nxf - 1))
    band = fem.fine_stiffness_band(mesh, k)
    assert band.shape == (mesh.nxf + 1, n)
    for d in range(min(mesh.nxf, n - 1) + 1):
        assert np.allclose(band[d, :n - d], np.diagonal(A, -d),
                           rtol=1e-14, atol=0.0)
        assert not np.any(band[d, n - d:])


@pytest.mark.parametrize("nx,ny,r", [(3, 2, 2), (2, 3, 3), (4, 1, 5),
                                     (1, 2, 7)])
def test_fine_band_map_matches_bincount_oracle(nx, ny, r):
    mesh = build_mesh(nx, ny, r)
    rng = np.random.default_rng(nx * 100 + ny * 10 + r)
    k = np.exp(rng.uniform(-2, 2, mesh.n_fine_cells))
    oracle = reference.fine_stiffness_band(mesh, k)
    assert np.array_equal(fem.fine_stiffness_band(mesh, k), oracle)
    assert np.array_equal(fem.fine_reference_solver(mesh, k)(),
                          reference.fine_solve(mesh, k))


def test_fine_stiffness_band_is_fortran_view():
    mesh = build_mesh(3, 2, 4)
    band = fem.fine_stiffness_band(mesh, np.ones(mesh.n_fine_cells))
    n = (mesh.nxf - 1) * (mesh.nyf - 1)
    assert band.shape == (mesh.nxf + 1, n)
    assert band.flags.f_contiguous


def test_in_place_factor_writes_only_its_own_band():
    # the factor overwrites the band of its call, never the cached map or
    # the caller's k, so repeated calls agree
    mesh = build_mesh(2, 3, 4)
    rng = np.random.default_rng(13)
    k = np.exp(rng.uniform(-1, 1, mesh.n_fine_cells))
    k_in = k.copy()
    assert np.array_equal(fem.fine_stiffness_band(mesh, k),
                          fem.fine_stiffness_band(mesh, k))
    u = fem.fine_reference_solver(mesh, k)()
    assert np.array_equal(fem.fine_reference_solver(mesh, k)(), u)
    assert np.array_equal(fem.fine_stiffness_band(mesh, k),
                          reference.fine_stiffness_band(mesh, k))
    assert np.array_equal(k, k_in)


def test_fine_reference_solve_allocates_one_band():
    # no transposed copy of the band: the traced peak of one solve stays
    # within a quarter band of the band itself
    mesh = build_mesh(4, 4, 30)
    k = np.exp(np.random.default_rng(3).uniform(-1, 1, mesh.n_fine_cells))
    fem.fine_reference_solver(mesh, k)()  # builds the per-mesh map
    band_bytes = fem.fine_stiffness_band(mesh, k).nbytes
    tracemalloc.start()
    try:
        fem.fine_reference_solver(mesh, k)()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * band_bytes


@pytest.mark.parametrize("r,n_cells", [(8, 6), (30, 2)])
def test_cell_cholesky_banded_matches_dense(r, n_cells):
    mesh = build_mesh(3, 2, r)
    assert mesh.n_interior > fem.BATCHED_MAX_N  # the banded branch
    rng = np.random.default_rng(r)
    ops = fem.assemble_local_operators(mesh, np.arange(n_cells),
                                       _random_splitting(mesh, rng))
    rhs = rng.standard_normal((n_cells, mesh.n_interior, 4))
    for bands in (ops.M0, ops.M0 + ops.M1):
        x = fem.cell_solvers((bands,))[0](rhs)
        for c in range(n_cells):
            ref = sla.cho_solve(
                sla.cho_factor(fem.stencil_to_dense(bands[:, c])), rhs[c])
            assert np.abs(x[c] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("r", [8, 30])
def test_band_solves_match_scipy_bit_for_bit(r):
    # the ctypes binding calls the dpbtrf and dpbtrs that scipy's banded
    # wrappers call: band_cholesky on one cell's lower band storage, and the
    # banded cell_solvers on the block-diagonal band of a stencil stack,
    # built here entry by entry from each cell's (r+1)-row lower band
    mesh = build_mesh(3, 1, r)
    assert mesh.n_interior > fem.BATCHED_MAX_N  # the banded branch
    rng = np.random.default_rng(r)
    ops = fem.assemble_local_operators(mesh, np.arange(3),
                                       _random_splitting(mesh, rng))
    cells, n, w = ops.M0.shape[1], mesh.n_interior, r + 1
    rhs = rng.standard_normal((cells, n, 4))
    for stacks in ((ops.M0,), (ops.M0, ops.M1)):
        bands = reference.storage_bands(sum(stacks[1:], stacks[0]))
        assert bands.shape == (w, n, cells)
        for c in range(cells):
            solve = fem.band_cholesky(bands[..., c])
            for b in (rhs[c], rhs[c, :, 0]):
                assert np.array_equal(
                    solve(b), reference.band_solve(bands[..., c], b))
        block = np.zeros((w, cells * n))
        for c in range(cells):
            for d in range(w):
                block[d, c * n:(c + 1) * n - d] = bands[d, :n - d, c]
        ref = reference.band_solve(block, rhs.reshape(cells * n, 4))
        assert np.array_equal(fem.cell_solvers(stacks)[0](rhs),
                              ref.reshape(rhs.shape))


def test_band_binding_refuses_buffers_it_cannot_use_in_place():
    # LAPACK reads and writes the pointer as a Fortran-ordered float64
    # array, so anything else is refused before the call
    band = np.asfortranarray([[2.0, 2.0, 2.0], [1.0, 1.0, 0.0]])
    for bad in (np.ascontiguousarray(band), band.astype(np.float32),
                band[None]):
        with pytest.raises(ValueError, match="Fortran-ordered float64"):
            fem._band_factor(bad)
    c = fem._band_factor(band.copy(order="F"))
    with pytest.raises(ValueError, match="Fortran-ordered float64"):
        fem._band_solve(c, np.ones((3, 2)))
    with pytest.raises(ValueError, match="rows"):
        fem._band_solve(c, np.ones(4))
    # a solve reads the leading axes of its right-hand side as the rows
    for bad in (np.ones(6), np.ones((6, 1)), np.ones((2, 2, 1))):
        with pytest.raises(ValueError, match="rows"):
            fem.band_cholesky(band)(bad)


def test_band_factors_on_threads_match_serial():
    # the binding releases the GIL, so bands factored on several threads at
    # once run concurrently; each result is still the serial one
    mesh = build_mesh(2, 2, 12)
    rng = np.random.default_rng(4)
    ks = [np.exp(rng.uniform(-1, 1, mesh.n_fine_cells)) for _ in range(6)]
    serial = [fem.fine_reference_solver(mesh, k)() for k in ks]
    with ThreadPoolExecutor(3) as pool:
        for _ in range(5):
            futures = [pool.submit(fem.fine_reference_solver(mesh, k))
                       for k in ks]
            for u, future in zip(serial, futures):
                assert np.array_equal(future.result(timeout=60), u)


@pytest.mark.parametrize("r", [3, 6, 7, 8])
def test_cell_cholesky_rejects_non_spd(r):
    # r=3 takes the batched branch, r=6 (n=25), r=7 and r=8 the banded one
    mesh = build_mesh(2, 1, r)
    split = make_splitting(mesh, np.ones(mesh.n_fine_cells),
                           np.zeros(mesh.n_fine_cells))
    bands = fem.assemble_local_operators(mesh, np.arange(2), split).M0
    bands[:, 1] *= -1.0
    with pytest.raises(np.linalg.LinAlgError,
                       match="matrix is not SPD: pivot 0 .* in cell 1"):
        fem.cell_solvers((bands,))


def _local_bands(r, n_cells, seed):
    """M0 and M1 bands of n_cells cells of a random splitting."""
    mesh = build_mesh(n_cells, 1, r)
    split = _random_splitting(mesh, np.random.default_rng(seed))
    ops = fem.assemble_local_operators(mesh, np.arange(n_cells), split)
    return ops.M0, ops.M1


@pytest.mark.parametrize("r", [4, 7])
def test_cell_inverses_match_inv(r):
    # nK = 9, the largest batched order, and 36, banded
    M0, M1 = _local_bands(r, 3, r)
    for bands in (M0, M0 + M1):
        before = bands.copy()
        inv = reference.cell_inverses(bands)
        assert np.array_equal(bands, before)  # the bands are never written
        assert inv.shape == ((r - 1) ** 2, (r - 1) ** 2, 3)
        ref = np.linalg.inv(fem.stencil_to_dense(bands))
        err = np.abs(np.moveaxis(inv, -1, 0) - ref).max()
        assert err <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("r", [4, 7])
def test_packed_inverses_and_interior_bands_fill_given_buffers(r):
    # the batched regime gathers into out and inverts it in place, the
    # banded one copies its packed inverses there; a buffer reused for a
    # second stack holds that stack's bits, as fresh arrays would, and
    # cell_inverses expands the same bits to whole matrices.  The storage
    # is filled whatever the buffer's order; one of another shape or dtype,
    # or a read-only one, is refused
    M0, M1 = _local_bands(r, 3, r)
    n = (r - 1) ** 2
    bands, out = np.zeros(M0.shape), np.empty((n * (n + 1) // 2, 3))
    asm = fem.local_assembler(build_mesh(3, 1, r))
    kappa = np.exp(np.random.default_rng(r).uniform(-1, 1, (2, 3, r * r)))
    for k in kappa:
        assert asm.interior_bands(k, out=bands) is bands
        assert _same_bits(bands, asm.interior_bands(k))
        assert fem.packed_inverses(bands, out=out) is out
        assert _same_bits(out, fem.packed_inverses(bands))
        full = reference.cell_inverses(bands)
        assert _same_bits(reference.packed(full), out)
        assert _same_bits(full, full.transpose(1, 0, 2))
        fortran = np.zeros(M0.shape, order="F")
        assert asm.interior_bands(k, out=fortran) is fortran
        assert np.array_equal(fortran, bands)
    read_only = np.zeros(M0.shape)
    read_only.flags.writeable = False
    for bad in (np.zeros((len(M0), 4)), np.zeros(M0.shape, np.float32),
                np.zeros(M0.shape[::-1]), read_only):
        with pytest.raises(ValueError, match="writeable float64"):
            asm.interior_bands(kappa[0], out=bad)


@pytest.mark.parametrize("r", [2, 3, 4, 6])
def test_cells_last_fill_and_gather_match_dense(r):
    # interior_bands fills a column slice of zero-padded storage and
    # packed_inverses' gather packs it: the dense stack's lower triangles
    # bit for bit, inverted by the full sweep, for a full-width buffer and
    # then for a narrower column slice of it, whose rows the wider fill
    # wrote before; the banded regime (r=6) reads the same storage
    asm = fem.local_assembler(build_mesh(5, 1, r))
    n = asm.n_interior
    entries = n * (n + 1) // 2
    kappa = np.exp(np.random.default_rng(r).uniform(-1, 1, (2, 5, r * r)))
    buffer = np.zeros((asm.stencil_rows, 5))
    for cells, k in zip((5, 3), kappa):
        storage, k = buffer[:, :cells], k[:cells]
        assert asm.interior_bands(k, out=storage) is storage
        assert np.shares_memory(storage, buffer)
        dense = np.moveaxis(fem.stencil_to_dense(asm.interior_bands(k)),
                            0, -1)
        if not fem.is_banded(n):
            assert _same_bits(
                fem.packed_inverses(storage),
                reference.full_sweep(reference.packed(dense)))
        assert _same_bits(
            fem.packed_inverses(storage, np.empty((entries, cells))),
            fem.packed_inverses(asm.interior_bands(k)))
    # an out must hold a packed triangle of the storage's order per cell
    for shape in ((entries + 1, 3), (entries, 4)):
        with pytest.raises(ValueError, match="out must have shape"):
            fem.packed_inverses(storage, np.empty(shape))


@pytest.mark.parametrize("r", [4, 7])
def test_cell_inverses_reject_non_spd(r):
    M0, _ = _local_bands(r, 3, r)
    M0[:, 2] *= -1.0
    before = M0.copy()
    with pytest.raises(np.linalg.LinAlgError,
                       match="matrix is not SPD: pivot 0 .* in cell 2"):
        reference.cell_inverses(M0)
    assert np.array_equal(M0, before)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 7])
def test_cell_solvers_match_separate_calls_bit_for_bit(r):
    # batched (r <= 4): one cell_inverses call on the stacked sums M0 and
    # M0 + M1 is the two separate calls bit for bit, and each solve applies
    # its part as the separate inverse would; banded: one factor per sum,
    # each the one-sum call's
    M0, M1 = _local_bands(r, 3, r)
    rhs = np.random.default_rng(r).standard_normal((3, (r - 1) ** 2, 4))
    solves = fem.cell_solvers((M0,), (M0, M1))
    for solve, stacks in zip(solves, [(M0,), (M0, M1)], strict=True):
        if fem.is_banded((r - 1) ** 2):
            ref = fem.cell_solvers(stacks)[0](rhs)
        else:
            inv = reference.cell_inverses(sum(stacks[1:], stacks[0]))
            ref = np.ascontiguousarray(np.moveaxis(inv, -1, 0)) @ rhs
        assert np.array_equal(solve(rhs), ref)
    if not fem.is_banded((r - 1) ** 2):
        both = reference.cell_inverses(np.concatenate([M0, M0 + M1], axis=1))
        assert np.array_equal(both[..., :3], reference.cell_inverses(M0))
        assert np.array_equal(both[..., 3:], reference.cell_inverses(M0 + M1))


def test_stacked_cell_solvers_name_the_failing_cell():
    # a non-SPD cell 1 of the second sum is cell 3 + 1 of the stacked sums
    M0, M1 = _local_bands(4, 3, 4)
    M1[:, 1] = -2.0 * M0[:, 1]
    with pytest.raises(np.linalg.LinAlgError,
                       match="matrix is not SPD: pivot 0 .* in cell 4"):
        fem.cell_solvers((M0,), (M0, M1))


def test_band_to_dense_matches_loop():
    rng = np.random.default_rng(0)
    for w, n in ((1, 4), (3, 7), (5, 3), (7, 9)):
        bands = rng.standard_normal((w, n, 2))
        ref = np.zeros((n, n, 2))
        for c in range(2):
            for d in range(w):
                for j in range(n - d):
                    ref[j + d, j, c] = ref[j, j + d, c] = bands[d, j, c]
        before = bands.copy()
        assert np.array_equal(reference.band_to_dense(bands), ref)
        assert np.array_equal(reference.band_to_dense(bands[..., 1]),
                              ref[..., 1])
        assert np.array_equal(bands, before)


@pytest.mark.parametrize("r", [2, 3, 4, 6, 7, 9])
def test_cell_matmul_matches_dense(r):
    # n = 1, 4, 9, 25 batched; 36, 64 banded, where r=3's offsets r-2 and 1
    # would coincide
    M0, M1 = _local_bands(r, 3, r)
    x = np.random.default_rng(r).standard_normal((3, (r - 1) ** 2, 4))
    for bands in (M0, M1, M0 + M1):
        before, x_before = bands.copy(), x.copy()
        y = fem.cell_matmul(bands)(x)
        ref = fem.stencil_to_dense(bands) @ x
        assert np.abs(y - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(bands, before)
        assert np.array_equal(x, x_before)
        # one cell's column applies to one cell's (n, 4), as in the stack
        assert np.array_equal(fem.cell_matmul(bands[:, 1])(x[1]), y[1])


@pytest.mark.parametrize("r", [3, 6, 7, 9])
def test_cell_cholesky_matches_solve(r):
    # n = 4, 25 batched; 36, 64 banded
    M0, M1 = _local_bands(r, 3, r)
    rhs = np.random.default_rng(r).standard_normal((3, (r - 1) ** 2, 4))
    for bands in (M0, M0 + M1):
        before, rhs_before = bands.copy(), rhs.copy()
        x = fem.cell_solvers((bands,))[0](rhs)
        ref = np.linalg.solve(fem.stencil_to_dense(bands), rhs)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(bands, before)
        assert np.array_equal(rhs, rhs_before)


@pytest.mark.parametrize("r,limit", [(2, 0), (3, 0), (7, 25), (30, 9)])
def test_banded_cell_cholesky_reads_only_the_band(monkeypatch, r, limit):
    # the banded branch, forced on n = 1 and 4, where the band has more
    # rows than a block has columns and, at n = 1, the transposed stack is
    # already contiguous; at r = 7 and 30 the stencil stack keeps 5 of the
    # r + 1 diagonals.  Entries past a cell's end must not couple cells
    monkeypatch.setattr(fem, "BATCHED_MAX_N", limit)
    M0, M1 = _local_bands(r, 3, r)
    n = (r - 1) ** 2
    assert len(M0) == min(r + 1, 5) * n + 1
    rhs = np.random.default_rng(r).standard_normal((3, n, 4))
    offsets = reference.stencil_offsets(n)
    past_end = np.add.outer(offsets, np.arange(n)) >= n
    for bands in (M0, M0 + M1):
        before = bands.copy()
        x = fem.cell_solvers((bands,))[0](rhs)
        ref = np.linalg.solve(fem.stencil_to_dense(bands), rhs)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(bands, before)
        junk = bands.copy()
        junk[:-1][past_end.ravel()] = 1e3
        assert np.array_equal(fem.cell_solvers((junk,))[0](rhs), x)


@pytest.mark.parametrize("r", [2, 3, 5, 6, 7, 8, 30])
def test_local_bands_match_global_stiffness(r):
    # each cell's M0 is the interior-node block of the global sparse
    # stiffness assembled with k zero outside that cell; the stack keeps
    # the r + 1 rows of lower band storage up to r = 4, 5 stencil
    # diagonals from r = 5 on
    mesh = build_mesh(2, 2, r)
    split = _random_splitting(mesh, np.random.default_rng(r))
    ops = fem.assemble_local_operators(
        mesh, np.arange(mesh.n_coarse_cells), split)
    assert ops.M0.shape == (min(r + 1, 5) * mesh.n_interior + 1,
                            mesh.n_coarse_cells)
    for cell in range(mesh.n_coarse_cells):
        nodes = mesh.cell_fine_nodes(cell)[mesh.local_interior_mask]
        for k, bands in ((split.k0, ops.M0), (split.k1, ops.M1)):
            alone = np.zeros_like(k)
            fine = mesh.cell_fine_cells(cell)
            alone[fine] = k[fine]
            ref = fine_stiffness(mesh, alone)[nodes][:, nodes].toarray()
            err = np.abs(fem.stencil_to_dense(bands[:, cell]) - ref).max()
            assert err <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("r", [2, 3, 4, 5, 7, 30])
def test_interior_bands_are_rows_of_lower_band_storage(r):
    # the stencil storage differs from the (r+1)-row lower band storage
    # only by its sparse map's target: up to r = 4 it is that storage byte
    # for byte, and from r = 5 on it holds that storage's rows at the
    # stencil offsets, the rows it drops being zero
    mesh = build_mesh(2, 2, r)
    asm = fem.LocalAssembler(mesh)
    nk = mesh.n_interior
    pos = np.full(asm.n_loc, -1)
    pos[asm.interior_idx] = np.arange(nk)
    lower_map = fem._stencil_band_scatter(asm.conn, asm.ke, pos,
                                          lambda d, j: d * nk + j)
    kappa = np.exp(np.random.default_rng(r).uniform(
        -1, 1, (mesh.n_coarse_cells, r * r)))
    lower = np.zeros(((r + 1) * nk + 1, len(kappa)))
    fem._fill(lower_map, kappa, lower)
    bands = asm.interior_bands(kappa)
    offsets = reference.stencil_offsets(nk)
    assert fem.stencil_offsets(nk) == tuple(offsets)
    if r <= 4:
        assert bands.shape == lower.shape
        assert bands.tobytes() == lower.tobytes()
    lower = lower[:-1].reshape(r + 1, nk, -1)
    assert bands[:-1].tobytes() == lower[offsets].tobytes()
    assert not np.delete(lower, offsets, axis=0).any() and not bands[-1].any()
    assert np.array_equal(reference.storage_bands(bands), lower)
    assert np.array_equal(fem.stencil_to_dense(bands),
                          np.moveaxis(reference.band_to_dense(lower), -1, 0))


def test_stencil_stacks_of_the_wrong_width_are_refused():
    # storage (w*n + 1, cells) is read at the stencil offsets of its order
    # n, so its row count must be that of some n's w diagonals
    with pytest.raises(ValueError, match="square grid"):
        fem.stencil_offsets(12)
    M0, _ = _local_bands(7, 2, 0)
    M0_r4, _ = _local_bands(4, 2, 0)
    for bad in (np.zeros((8 * 36 + 1, 2)), M0[:4 * 36 + 1], M0[1:],
                M0_r4[:4 * 9 + 1], np.zeros((0, 2)), np.zeros((17 + 5, 2))):
        for use in (fem.stencil_to_dense, fem.cell_matmul,
                    fem.packed_inverses, reference.cell_inverses,
                    lambda bands: fem.cell_solvers((bands,))):
            with pytest.raises(ValueError, match="no local stencil storage"):
                use(bad)
    for n in (1, 4, 9, 16, 36):
        good = np.zeros((len(fem.stencil_offsets(n)) * n + 1, 2))
        assert fem.stencil_to_dense(good).shape == (2, n, n)


def _spd_stack(rng, n, cells, shift):
    """Cells-last (n, n, cells) stack of SPD matrices X X^T + shift I."""
    x = rng.standard_normal((cells, n, n))
    return np.moveaxis(x @ x.transpose(0, 2, 1) + shift * np.eye(n), 0, -1)


def _banded_spd_stack(rng, n, p, cells):
    """C-ordered cells-last (n, n, cells) stack of SPD matrices of
    bandwidth p: random entries within the band, some of them zero, a
    dominant diagonal and +0.0 outside; the entries at distance p are
    nonzero in the last cell."""
    i, j = np.indices((n, n))
    x = rng.standard_normal((cells, n, n))
    x *= (np.abs(i - j) <= p) & (rng.random((cells, n, n)) < 0.8)
    x[-1] += np.abs(i - j) == p
    x = np.tril(x) + np.tril(x, -1).transpose(0, 2, 1)
    x += np.eye(n) * (np.abs(x).sum(axis=2, keepdims=True) + 0.5)
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _unpacked(a):
    """(cells, n, n) whole matrices of a packed (n(n+1)/2, cells) stack."""
    n = (isqrt(8 * len(a) + 1) - 1) // 2
    return a.T[:, fem.packed_index(n)]


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(1, 25), cells=hst.integers(1, 8),
       shift=hst.floats(0.1, 10.0), seed=hst.integers(0, 2 ** 31))
def test_spd_inverse_matches_inv(n, cells, shift, seed):
    a = reference.packed(
        _spd_stack(np.random.default_rng(seed), n, cells, shift))
    before = a.copy()
    inv = fem.spd_inverse(a)
    assert inv is a  # inverted in place
    assert _same_bits(inv, reference.full_sweep(before))
    ref = np.linalg.inv(_unpacked(before))
    err = np.abs(_unpacked(inv) - ref).max()
    assert err <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("cells", [1, 2, 37, 2048])
def test_spd_inverse_matches_full_sweep_on_banded_stacks(cells):
    # the band-windowed sweep skips only updates by an exact +0.0, so it
    # is the full sweep bit for bit, zeros' sign bits included, at every
    # order up to BATCHED_MAX_N and every bandwidth
    rng = np.random.default_rng(cells)
    for n in range(1, fem.BATCHED_MAX_N + 1):
        for p in range(n):
            a = reference.packed(_banded_spd_stack(rng, n, p, cells))
            ref = reference.full_sweep(a)
            assert _same_bits(fem.spd_inverse(a), ref), (n, p)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_spd_inverse_matches_full_sweep_on_stencil_stacks(r):
    # packed_inverses' gather, bandwidth r, inverted in place: the full
    # sweep's bits on the packed dense stack
    M0, M1 = _local_bands(r, 5, r)
    for bands in (M0, M0 + M1):
        dense = np.moveaxis(fem.stencil_to_dense(bands), 0, -1)
        assert _same_bits(fem.packed_inverses(bands),
                          reference.full_sweep(reference.packed(dense)))


def _failure(invert, a):
    with pytest.raises(np.linalg.LinAlgError) as info:
        invert(a)
    return str(info.value)


@pytest.mark.parametrize("n,p", [(1, 0), (4, 1), (9, 4), (9, 8)])
@pytest.mark.parametrize("bad", ["nan", "negative"])
def test_spd_inverse_failures_match_full_sweep(n, p, bad):
    # a NaN entry within the band, or a diagonal entry too small for the
    # matrix to be SPD, in two cells: the same step fails with the same
    # lowest pivot and cell as in the full sweep
    rng = np.random.default_rng(n * 10 + p)
    for _ in range(10):
        a = _banded_spd_stack(rng, n, p, 7)
        for c in rng.choice(7, 2, replace=False):
            i = rng.integers(n)
            j = min(n - 1, i + rng.integers(p + 1))
            if bad == "nan":
                a[i, j, c] = a[j, i, c] = np.nan
            else:
                a[j, j, c] = -a[j, j, c] * rng.random()
        a = reference.packed(a)
        message = _failure(reference.full_sweep, a)
        assert message.startswith("matrix is not SPD: pivot ")
        assert _failure(fem.spd_inverse, a) == message


def test_spd_inverse_writes_one_cell_view_in_place():
    # a one-cell cells-last view of a cells-first packed stack is
    # C-contiguous, so it is accepted and the stack behind it holds the
    # inverse
    mats = reference.packed(
        _spd_stack(np.random.default_rng(0), 9, 1, 1.0)).T.copy()
    view = mats.T
    assert view.flags.c_contiguous
    ref = reference.full_sweep(view)
    fem.spd_inverse(view)
    assert _same_bits(mats[0], ref[:, 0])


def test_spd_inverse_rejects_indefinite():
    a = np.ascontiguousarray(_spd_stack(np.random.default_rng(1), 4, 3, 1.0))
    a[..., 2] = [[2.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0],
                 [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    with pytest.raises(np.linalg.LinAlgError,
                       match="matrix is not SPD: pivot 1 .* in cell 2"):
        fem.spd_inverse(reference.packed(a))


def test_spd_inverse_refuses_other_buffers():
    # it writes the caller's stack, so only one it may write as it is:
    # C-ordered, writeable, float64 and (n(n+1)/2, cells), with rows that
    # make a packed triangle; refused untouched
    a = reference.packed(_spd_stack(np.random.default_rng(2), 4, 3, 1.0))
    read_only = a.copy()
    read_only.flags.writeable = False
    for bad, match in ((np.asfortranarray(a), "writeable C-ordered float64"),
                       (a[:, ::2], "writeable C-ordered float64"),
                       (read_only, "writeable C-ordered float64"),
                       (a.astype(np.float32), "writeable C-ordered float64"),
                       (a[..., 0], "writeable C-ordered float64"),
                       (a[:4], "not a packed triangle")):
        before = bad.copy()
        with pytest.raises(ValueError, match=match):
            fem.spd_inverse(bad)
        assert _same_bits(bad, before)


@pytest.mark.parametrize("r", [2, 4, 6])
def test_inverse_residuals_match_dense(r):
    # max|M0 (G z) - z| / max|z| per cell, from the cells-last storage and
    # the packed inverses: round-off for the inverses, and for inverses
    # with one perturbed entry in a cell that cell's dense product, the
    # other cells' bits unchanged; the same bits in a stack of any width
    mesh = build_mesh(6, 1, r)
    asm = fem.local_assembler(mesh)
    n = asm.n_interior
    kappa = np.exp(np.random.default_rng(r).uniform(-1, 1, (6, r * r)))
    storage = asm.interior_bands(kappa)
    G = fem.packed_inverses(storage)
    res = fem.inverse_residuals(storage, G)
    assert res.max() <= 1e-13
    assert _same_bits(
        fem.inverse_residuals(storage[:, 2:4].copy(), G[:, 2:4].copy()),
        res[2:4])
    z = 1.0 + np.arange(n) / n
    assert len(set(z)) == n
    G[n * (n + 1) // 2 - 1, 3] *= 1 + 1e-6
    bad = fem.inverse_residuals(storage, G)
    gz = _unpacked(G[:, 3:4])[0] @ z
    ref = np.abs(fem.stencil_to_dense(storage[:, 3]) @ gz - z).max() / z.max()
    assert ref > 1e-8 and abs(bad[3] - ref) <= 1e-6 * ref
    assert _same_bits(np.delete(bad, 3), np.delete(res, 3))
