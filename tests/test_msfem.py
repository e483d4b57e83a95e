import hashlib
import threading
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from msfem_split import (build_kle_model, build_mesh, build_sparse_grid,
                         precompute_green_inverses, sample_theta)
from msfem_split import basis as basis_mod
from msfem_split import fem
from msfem_split import msfem
from msfem_split import stochastic as st
from msfem_split.field import make_splitting, split_kle
from msfem_split.msfem import coarse_solutions, solution_error_bound
from reference import (assemble_coarse_system, band_to_dense,
                       build_basis_registry, build_iterative_registries,
                       bubble_sequence, child_output, fine_stiffness,
                       iterative_basis_sequence, lift_cells,
                       local_coarse_system, lower_bands,
                       scatter_coarse_system, standard_basis,
                       stencil_offsets)


def _random_splitting(mesh, rng, amp=0.8):
    k0 = np.exp(rng.uniform(-1, 1, mesh.n_fine_cells))
    k1 = amp * k0 * rng.uniform(-1, 1, mesh.n_fine_cells)
    return make_splitting(mesh, k0, k1)


def _all_cells(mesh, split):
    return fem.assemble_local_operators(
        mesh, np.arange(mesh.n_coarse_cells), split)


def _one_basis(mesh, split, J=None):
    """Local operators and {"c": (c, r)} of the standard basis, or of the
    iterative one at J."""
    ops = _all_cells(mesh, split)
    c = (basis_mod.standard_bases(ops), None) if J is None else \
        basis_mod.iterative_bases(ops, [J])[J]
    return ops, {"c": c}


def _system(mesh, split):
    """(bands, F) of the standard basis's coarse system, summed by the
    mesh's coarse_maps from local_coarse_systems."""
    ops, bases = _one_basis(mesh, split)
    (A, F), = msfem.local_coarse_systems(ops, split.k, bases).values()
    maps = msfem.coarse_maps(mesh)
    return maps.bands(A), maps.load(F)


def _solution(mesh, split, J=None):
    """coarse_solutions of the standard basis, or of the iterative at J."""
    ops, bases = _one_basis(mesh, split, J)
    return coarse_solutions(ops, split.k, bases)["c"]


def _downscale(mesh, bases, coeffs):
    """Fine-grid values of lifted bases weighted by vertex coefficients."""
    cells = np.arange(mesh.n_coarse_cells)
    u = np.zeros(mesh.n_fine_nodes)
    u[mesh.cell_fine_nodes(cells)] = (
        bases @ coeffs[mesh.cell_vertices(cells)][:, :, None])[..., 0]
    return u


def _dense_solution(mesh, bases, k):
    """MsFEM solution of lifted bases by the oracle's dense system."""
    A, F = assemble_coarse_system(mesh, bases, k)
    free = mesh.interior_coarse_vertices()
    coeffs = np.zeros(mesh.n_coarse_vertices)
    if free.size:
        coeffs[free] = np.linalg.solve(A[np.ix_(free, free)], F[free])
    return _downscale(mesh, bases, coeffs)


def test_constant_k_reduces_to_coarse_q1():
    mesh = build_mesh(4, 4, 3)
    k = np.full(mesh.n_fine_cells, 2.0)
    split = make_splitting(mesh, k, np.zeros_like(k))
    bands, _ = _system(mesh, split)
    coarse = build_mesh(2, 2, 2)  # same 4x4 lattice viewed as fine cells
    A_q1 = fine_stiffness(coarse, np.full(16, 2.0)).toarray()
    free = mesh.interior_coarse_vertices()
    assert np.abs(band_to_dense(bands)
                  - A_q1[np.ix_(free, free)]).max() <= 1e-12


def test_coarse_system_symmetric():
    mesh = build_mesh(3, 3, 4)
    rng = np.random.default_rng(12)
    split = _random_splitting(mesh, rng)
    ops = _all_cells(mesh, split)
    (local_A, _), = msfem.local_coarse_systems(
        ops, split.k, basis_mod.iterative_bases(ops, [1])).values()
    assert np.abs(local_A - local_A.transpose(0, 2, 1)).max() <= \
        1e-12 * np.abs(local_A).max()


def test_single_cell_mesh_solution_is_zero():
    mesh = build_mesh(1, 1, 4)
    split = make_splitting(mesh, np.ones(16), np.zeros(16))
    bands, F = _system(mesh, split)
    assert bands.shape == (2, 0) and F.size == 0
    assert np.allclose(_solution(mesh, split), 0.0)


def test_constant_k_solution_is_bilinear_prolongation():
    mesh = build_mesh(4, 4, 4)
    k = np.ones(mesh.n_fine_cells)
    split = make_splitting(mesh, k, np.zeros_like(k))
    u = _solution(mesh, split)
    # coarse Q1 solve with consistent coarse load of f = 1
    uc = fem.fine_reference_solver(build_mesh(2, 2, 2), np.ones(16))()
    grid = u.reshape(mesh.nyf + 1, mesh.nxf + 1)
    cgrid = uc.reshape(5, 5)
    assert np.allclose(grid[::4, ::4], cgrid, atol=1e-12)
    # bilinear in between: midpoint of a coarse edge is the average
    assert np.isclose(grid[4, 2], (cgrid[1, 0] + cgrid[1, 1]) / 2.0)


def test_missing_basis_entry_rejected():
    mesh = build_mesh(2, 2, 3)
    rng = np.random.default_rng(15)
    split = _random_splitting(mesh, rng)
    ops = _all_cells(mesh, split)
    c = basis_mod.standard_bases(ops)
    for malformed in (c[1:], c[:, :, :3], c[:, 1:]):
        for basis in ((malformed, None), (malformed, c), (c, malformed)):
            with pytest.raises(ValueError):
                coarse_solutions(ops, split.k, {0: basis})


def test_solution_boundary_zero():
    mesh = build_mesh(3, 3, 5)
    rng = np.random.default_rng(16)
    split = _random_splitting(mesh, rng)
    u = _solution(mesh, split, J=0)
    assert np.allclose(u[mesh.boundary_node_mask()], 0.0)


def test_galerkin_optimality_spot_check():
    mesh = build_mesh(3, 3, 4)
    rng = np.random.default_rng(18)
    split = _random_splitting(mesh, rng)
    bases = build_basis_registry(mesh, split, "standard")
    bands, F = _system(mesh, split)
    u_ref = fem.fine_reference_solver(mesh, split.k)()
    u_h = _solution(mesh, split)
    best = fem.energy_norm(mesh, split.k, u_ref - u_h)
    free = mesh.interior_coarse_vertices()
    coeffs = np.zeros(mesh.n_coarse_vertices)
    coeffs[free] = np.linalg.solve(band_to_dense(bands), F)
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


def _kle_case(nx, ny, r):
    """KLE splitting and interpolated Green's inverse."""
    mesh = build_mesh(nx, ny, r)
    model = build_kle_model(mesh, 1.0, 0.3, 0.2, 4)
    theta = sample_theta(r, 0, model.n)
    split = split_kle(model, theta, 2)
    store = precompute_green_inverses(mesh, model, build_sparse_grid(2, 1), 2)
    green = st._interpolated_green(store, theta[:2] * 0.9)
    return mesh, split, green


@pytest.mark.parametrize("nx,ny,r", [(3, 2, 2), (2, 3, 3), (3, 2, 4),
                                     (2, 3, 7)])
def test_local_coarse_systems_match_element_oracle(nx, ny, r):
    # Phi^T A_K Phi = H^T A_K H + v^T c + c^T r against the
    # element-by-element quadratic form of the lifted bases; r = 7 runs
    # the banded regime (nK = 36 > BATCHED_MAX_N)
    mesh, split, green = _kle_case(nx, ny, r)
    ops = _all_cells(mesh, split)
    bases = {("h", 0): (basis_mod.standard_bases(ops), None)}
    for J, cr in basis_mod.iterative_bases(ops, range(5)).items():
        bases[("J", J)] = cr
    for J, cr in basis_mod.iterative_bases(ops, [0, 2], green).items():
        bases[("col", J)] = cr
    local = msfem.local_coarse_systems(ops, split.k, bases)
    assert local.keys() == bases.keys()
    for key, (c, _) in bases.items():
        ref_A, ref_F = local_coarse_system(
            mesh, lift_cells(ops.assembler, c), split.k)
        A, F = local[key]
        assert np.abs(A - ref_A).max() <= 1e-13 * np.abs(ref_A).max(), key
        assert np.abs(F - ref_F).max() <= 1e-13 * np.abs(ref_F).max(), key


@pytest.mark.parametrize("r", [2, 3, 4, 5, 7])
def test_coarse_matrices_from_residuals_match_explicit_form(r):
    # H^T A_K H + v^T c + c^T r, with r = 0 for the standard basis, the
    # series' M1 xi_J for the iterative ones and an explicit M c + v for
    # the collocated ones, against H^T A_K H + c^T v + v^T c + c^T M c
    # with M expanded to dense; r >= 5 runs the banded regime
    mesh, split, green = _kle_case(3, 2, r)
    ops = _all_cells(mesh, split)
    assert fem.is_banded(ops.assembler.n_interior) == (r >= 5)
    bases = {"h": (basis_mod.standard_bases(ops), None)}
    for kind, G in (("J", None), ("col", green)):
        for J, cr in basis_mod.iterative_bases(ops, range(5), G).items():
            bases[kind, J] = cr
    local = msfem.local_coarse_systems(ops, split.k, bases)
    m = fem.stencil_to_dense(ops.M0 + ops.M1)
    v = ops.v0 + ops.v1
    hat_A = np.einsum("ce,qe->cq", split.k[mesh.cell_fine_cells(ops.cell)],
                      ops.assembler.hat_stiffness).reshape(-1, 4, 4)
    for key, (c, _) in bases.items():
        ct = np.swapaxes(c, 1, 2)
        ref = hat_A + ct @ v + np.swapaxes(ct @ v, 1, 2) + ct @ m @ c
        A = local[key][0]
        assert np.abs(A - ref).max() <= 1e-12 * np.abs(ref).max(), key


@pytest.mark.parametrize("r", [3, 7])
def test_local_loads_sum_in_order_in_any_layout(r):
    # H^T W f + c^T W_I f adds its nK terms one after another, as a loop
    # does, whether c is C-ordered (batched) or has n contiguous (banded):
    # summed in SIMD lanes, the last bits would follow the layout
    mesh = build_mesh(3, 2, r)
    split = _random_splitting(mesh, np.random.default_rng(r))
    ops = _all_cells(mesh, split)
    hat_F, interior_F = msfem.coarse_maps(mesh).unit_loads
    c = np.random.default_rng(r + 1).standard_normal(ops.v0.shape)
    ref = np.zeros(c.shape[::2])
    for n, w in enumerate(interior_F):
        ref += c[:, n] * w
    ref = hat_F + ref
    n_last = np.ascontiguousarray(np.moveaxis(c, 2, 0))
    for layout in (c, np.moveaxis(n_last, 0, 2), np.asfortranarray(c)):
        F = msfem.local_coarse_systems(ops, split.k, {"h": (layout, None)})
        assert np.array_equal(F["h"][1], ref)


@pytest.mark.parametrize("nx,ny,r", [(3, 2, 3), (2, 4, 7)])
def test_downscaling_from_corrections_matches_lifted_bases(nx, ny, r):
    mesh = build_mesh(nx, ny, r)
    rng = np.random.default_rng(nx + 10 * r)
    ops = _all_cells(mesh, _random_splitting(mesh, rng))
    c = basis_mod.iterative_bases(ops, [1])[1][0]
    free = mesh.interior_coarse_vertices()
    coeffs = np.zeros(mesh.n_coarse_vertices)
    coeffs[free] = rng.uniform(-1.0, 1.0, free.size)
    u = msfem._downscale(msfem.coarse_maps(mesh), c, coeffs)
    ref = _downscale(mesh, lift_cells(ops.assembler, c), coeffs)
    assert np.abs(u - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("nx,ny", [(5, 3), (3, 6), (2, 2), (1, 3), (4, 1)])
def test_band_scatter_matches_dense_scatter(nx, ny):
    # summed cell by cell in the same order, so the bits agree
    mesh = build_mesh(nx, ny, 2)
    rng = np.random.default_rng(nx * 10 + ny)
    local_A = rng.standard_normal((mesh.n_coarse_cells, 4, 4))
    local_F = rng.standard_normal((mesh.n_coarse_cells, 4))
    A, F = scatter_coarse_system(mesh, local_A, local_F)
    free = mesh.interior_coarse_vertices()
    maps = msfem.coarse_maps(mesh)
    assert np.array_equal(maps.bands(local_A),
                          lower_bands(A[np.ix_(free, free)], nx + 1))
    assert np.array_equal(maps.load(local_F), F[free])


def test_solution_error_bound_properties():
    bounds = [solution_error_bound(J, 0.5, 2.0, 1.0) for J in range(6)]
    assert all(b > 0 for b in bounds)
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    tiny = solution_error_bound(0, 1e-9, 2.0, 1.0)
    assert tiny < 1e-4
    with pytest.raises(ValueError):
        solution_error_bound(0, 1.0, 2.0, 1.0)


def test_c_tilde():
    mesh = build_mesh(1, 1, 2)
    split = make_splitting(mesh, np.full(4, 2.0), np.full(4, 2.0))
    # k0/k = 1/2 so c_tilde = sqrt(2) * sqrt(1/2) = 1
    assert np.isclose(msfem.c_tilde(split), 1.0)


@pytest.mark.parametrize("mode", ["plain", "green", "reference"])
def test_sample_errors_norms_and_reference(mode):
    mesh = build_mesh(3, 2, 4)
    rng = np.random.default_rng(5)
    split = _random_splitting(mesh, rng)
    ops = _all_cells(mesh, split)
    green = np.linalg.inv(fem.stencil_to_dense(ops.M0)) if mode == "green" \
        else None
    J_list = [0, 2]
    rec = msfem.sample_errors(mesh, split, J_list, green=green,
                              reference=mode == "reference")

    def norm(v):
        return fem.energy_norm(mesh, split.k, v)

    assert np.array_equal(rec.norm_uh, norm(rec.u_h))
    assert list(rec.u_J) == list(rec.err) == J_list
    for J in J_list:
        assert np.array_equal(rec.err[J], norm(rec.u_h - rec.u_J[J]))
    if mode == "green":
        for J in J_list:
            u_col = rec.u_col[J]
            assert np.array_equal(rec.col[J], (norm(rec.u_h - u_col),
                                               norm(rec.u_J[J] - u_col)))
    else:
        assert rec.u_col is None and rec.col is None
    if mode == "reference":
        u = fem.fine_reference_solver(mesh, split.k)()
        assert np.array_equal(rec.u, u)
        assert np.array_equal(rec.u_energy, norm(u))
    else:
        assert rec.u is None and rec.u_energy is None


@pytest.mark.parametrize("J_list", [[], (), (1, -1), [-2]])
def test_entry_points_refuse_empty_or_negative_J_list(monkeypatch, J_list):
    # refused with StochasticConfig's message; sample_errors refuses
    # before either stage runs, so no fine band or local operator is built
    mesh = build_mesh(3, 2, 4)
    split = _random_splitting(mesh, np.random.default_rng(3))
    ops = _all_cells(mesh, split)
    match = r"J_list must hold at least one J >= 0, not "
    with pytest.raises(ValueError, match=match):
        msfem.basis_errors(ops, split, J_list)
    called = []
    for module, name in ((fem, "fine_reference_solver"),
                         (fem, "assemble_local_operators")):
        monkeypatch.setattr(module, name,
                            lambda *args, name=name: called.append(name))
    with pytest.raises(ValueError, match=match):
        msfem.sample_errors(mesh, split, J_list, reference=True)
    assert not called


@pytest.mark.parametrize("nx,ny", [(1, 4), (3, 1)])
def test_sample_errors_refuses_an_empty_coarse_space(monkeypatch, nx, ny):
    # without an interior coarse vertex u_h = u_J = 0: a mean error of 0
    # passed its bound, and a relative error divided by |||u_h||| = 0
    mesh = build_mesh(nx, ny, 4)
    split = _random_splitting(mesh, np.random.default_rng(nx))
    green = np.broadcast_to(np.eye(9), (mesh.n_coarse_cells, 9, 9))
    called = []
    for name in ("fine_reference_solver", "assemble_local_operators"):
        monkeypatch.setattr(fem, name,
                            lambda *args, name=name: called.append(name))
    for green, reference in ((None, True), (green, False)):
        with pytest.raises(ValueError, match=f"a {nx}x{ny} coarse mesh has "
                           "no interior vertex"):
            msfem.sample_errors(mesh, split, [0, 1], green=green,
                                reference=reference)
    assert not called


@pytest.mark.parametrize("r", [4, 5])
@pytest.mark.parametrize("J_list", [[], (1, -1)])
def test_basis_errors_refuses_J_list_before_factoring(monkeypatch, r,
                                                      J_list):
    # no inverse sweep (batched, r = 4) and no block factor (banded, r = 5)
    # is spent on a J_list that is refused
    mesh = build_mesh(3, 2, r)
    split = _random_splitting(mesh, np.random.default_rng(r))
    ops = _all_cells(mesh, split)
    counts = _counted_factors(monkeypatch, mesh)
    with pytest.raises(ValueError, match="J_list must hold at least one"):
        msfem.basis_errors(ops, split, J_list)
    assert not counts


def _counted_factors(monkeypatch, mesh):
    """Counter of the factorizations and inverses made from here on.

    Band factors count as "local" (a block-diagonal stack of cells),
    "fine" (the fine reference band, nxf + 1 rows) or "coarse"; each
    spd_inverse sweep counts once as "inverse".
    """
    counts = Counter()
    band_factor, spd_inverse = fem._band_factor, fem.spd_inverse

    def counted_band_factor(ab, block=None):
        counts["local" if block is not None else
               "fine" if len(ab) == mesh.nxf + 1 else "coarse"] += 1
        return band_factor(ab, block)

    def counted_spd_inverse(a):
        counts["inverse"] += 1
        return spd_inverse(a)

    monkeypatch.setattr(fem, "_band_factor", counted_band_factor)
    monkeypatch.setattr(fem, "spd_inverse", counted_spd_inverse)
    return counts


@pytest.mark.parametrize("r", [4, 5])
@pytest.mark.parametrize("mode", ["reference", "green", "basis"])
def test_sample_factorization_counts(monkeypatch, r, mode):
    # one sample's factorizations, whatever J: one spd_inverse sweep for
    # M0 and M together in the batched regime (r = 4), one block factor
    # each in the banded one (r = 5); one fine factor given reference; one
    # coarse factor per basis key; no local factor for the collocated
    # basis, whose green stands in for M0^-1.  basis_errors builds the
    # same bases and factors nothing else
    mesh = build_mesh(3, 2, r)
    split = _random_splitting(mesh, np.random.default_rng(r))
    ops = _all_cells(mesh, split)
    green = np.linalg.inv(fem.stencil_to_dense(ops.M0)) \
        if mode == "green" else None
    J_list = [0, 1, 4]
    counts = _counted_factors(monkeypatch, mesh)
    if mode == "basis":
        msfem.basis_errors(ops, split, J_list)
    else:
        msfem.sample_errors(mesh, split, J_list, green=green,
                            reference=mode == "reference")
    keys = {"reference": 1 + len(J_list), "green": 1 + 2 * len(J_list),
            "basis": 0}[mode]
    local = {"local": 2} if fem.is_banded(mesh.n_interior) else \
        {"inverse": 1}
    fine = {"fine": 1} if mode == "reference" else {}
    assert counts == Counter(coarse=keys, **local, **fine)


@pytest.mark.parametrize("r", [4, 5])
def test_sample_schedule(monkeypatch, r):
    # the overlap of each regime.  Batched (r = 4): the fine band is
    # assembled and its solve queued before the local operators, and the
    # standard basis stays on the calling thread.  Banded (r = 5): the
    # standard basis is queued on the worker after the local operators and
    # ahead of the fine solve, whose band is assembled while it runs
    mesh = build_mesh(3, 2, r)
    split = _random_splitting(mesh, np.random.default_rng(r))
    calls = []

    def recorded(name, call):
        def run(*args):
            calls.append((name, threading.get_ident()))
            return call(*args)
        return run

    solver = fem.fine_reference_solver
    monkeypatch.setattr(fem, "fine_reference_solver", recorded(
        "fine band", lambda *args: recorded("fine solve", solver(*args))))
    for module, name in ((fem, "assemble_local_operators"),
                         (basis_mod, "standard_bases")):
        monkeypatch.setattr(module, name,
                            recorded(name, getattr(module, name)))
    msfem.sample_errors(mesh, split, [0, 2], reference=True)
    here = threading.get_ident()
    mine = [name for name, thread in calls if thread == here]
    worker = [name for name, thread in calls if thread != here]
    assert len({thread for _, thread in calls}) == 2
    if fem.is_banded(mesh.n_interior):
        assert mine == ["assemble_local_operators", "fine band"]
        assert worker == ["standard_bases", "fine solve"]
    else:
        assert mine == ["fine band", "assemble_local_operators",
                        "standard_bases"]
        assert worker == ["fine solve"]


def test_overlapped_sample_independent_of_threads_and_cpus():
    # the fine band's pbtrf on the worker thread may split over OpenBLAS
    # threads while the MsFEM stage runs beside it, and at r=30 the
    # standard basis comes from the worker and the iterative ones from the
    # calling thread; u, u_h and the u_J keep their bits under 1 and 2 BLAS
    # threads and on one CPU, and equal those of the stages run one after
    # the other
    digests = child_output("reference", 1)
    assert child_output("reference", 2) == digests
    assert child_output("reference", 1, one_cpu=True) == digests
    mesh = build_mesh(4, 4, 30)
    model = build_kle_model(mesh, 2.25, 0.7, 0.04, 20)
    split = split_kle(model, sample_theta(7, 0, 20), 16)
    rec = msfem.sample_errors(mesh, split, [1, 2])
    serial = (fem.fine_reference_solver(mesh, split.k)(), rec.u_h,
              np.array([rec.u_J[1], rec.u_J[2]]))
    assert digests == tuple(hashlib.sha256(u.tobytes()).hexdigest()
                            for u in serial)


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
    green = st._interpolated_green(store, theta[:m])
    std = build_basis_registry(mesh, split, "standard")
    its = build_iterative_registries(mesh, split, range(J + 1))
    col = build_iterative_registries(mesh, split, [J], green=green)[J]

    boundary = ~mesh.local_interior_mask
    stack = fem.assemble_local_operators(
        mesh, np.arange(mesh.n_coarse_cells), split)
    series = [(G, basis_mod.bubble_series(
        stack, J, None if G is None else partial(np.matmul, G)))
        for G in (None, green)]
    for cell in range(mesh.n_coarse_cells):
        ops = fem.assemble_local_operators(mesh, cell, split)
        for v in range(4):
            ref = standard_basis(ops, v)
            assert np.abs(std[cell, :, v] - ref).max() <= 1e-12
            seq = iterative_basis_sequence(ops, v, J)
            for j in range(J + 1):
                assert np.abs(its[j][cell, :, v] - seq[j]).max() <= 1e-12
            ref = iterative_basis_sequence(ops, v, J, green[cell])[J]
            assert np.abs(col[cell, :, v] - ref).max() <= 1e-12
            for G, (pi_l, xis, _) in series:
                pi_ref, xis_ref = bubble_sequence(
                    ops, v, J, None if G is None else G[cell])
                assert np.abs(pi_l[cell, :, v] - pi_ref).max() <= 1e-12
                for xi, xi_ref in zip(xis, xis_ref, strict=True):
                    assert np.abs(xi[cell, :, v] - xi_ref).max() <= 1e-12

    for bases in [std, col] + list(its.values()):
        assert np.abs(bases.sum(axis=2) - 1.0).max() <= 1e-12
        assert np.array_equal(bases[:, boundary],
                              np.broadcast_to(stack.assembler.hats[boundary],
                                              bases[:, boundary].shape))
        A = assemble_coarse_system(mesh, bases, split.k)[0]
        free = mesh.interior_coarse_vertices()
        A = A[np.ix_(free, free)]
        assert np.abs(A - A.T).max(initial=0.0) <= \
            1e-12 * np.abs(A).max(initial=0.0)
        assert np.all(np.linalg.eigvalsh(A) > 0.0)

    if min(nx, ny) < 2:
        # no interior coarse vertex: every solution is zero, and refused
        with pytest.raises(ValueError, match="has no interior vertex"):
            msfem.sample_errors(mesh, split, [J], green=green)
        return
    rec = msfem.sample_errors(mesh, split, [J], green=green)
    for u, bases in ((rec.u_h, std), (rec.u_J[J], its[J]),
                     (rec.u_col[J], col)):
        alone = _dense_solution(mesh, bases, split.k)
        assert np.abs(u - alone).max() <= 1e-12
    (e, e_col), e_spl = rec.col[J], rec.err[J]
    assert e <= e_spl + e_col + 1e-12


@pytest.mark.parametrize("r", range(2, 9))
def test_grid_bandwidth_holds_local_stencil(r):
    # interior nodes run row-major over rows of r - 1, so neighbours lie
    # 1, r - 2, r - 1 and r apart: the stack keeps those diagonals and the
    # main one, all r + 1 rows of lower band storage up to r = 4 and 5 of
    # them from r = 5 on
    mesh = build_mesh(2, 2, r)
    ops = fem.assemble_local_operators(
        mesh, np.arange(mesh.n_coarse_cells),
        _random_splitting(mesh, np.random.default_rng(r)))
    offsets = stencil_offsets(mesh.n_interior)
    assert offsets == sorted({0, 1, r - 2, r - 1, r})
    n = mesh.n_interior
    assert ops.M0.shape == ops.M1.shape == (min(r + 1, 5) * n + 1,
                                            mesh.n_coarse_cells)
    assert len(offsets) == min(r + 1, 5)
    if r > 2:  # every stored diagonal holds a neighbour in every cell; the
        # up-right one, in the last row, sits exactly r away
        assert np.all(ops.M0[:-1].reshape(-1, n, mesh.n_coarse_cells).any(
            axis=1))


@pytest.mark.parametrize("nx,ny,r", [(2, 3, 2), (3, 2, 5), (2, 2, 7)])
def test_banded_and_batched_cholesky_agree(monkeypatch, nx, ny, r):
    mesh = build_mesh(nx, ny, r)
    rng = np.random.default_rng(r)
    split = _random_splitting(mesh, rng)
    ops = fem.assemble_local_operators(
        mesh, np.arange(mesh.n_coarse_cells), split)
    green = np.linalg.inv(fem.stencil_to_dense(ops.M0))
    results, series = [], []
    for limit in (10 ** 6, 0):  # all batched, then all banded
        monkeypatch.setattr(fem, "BATCHED_MAX_N", limit)
        rec = msfem.sample_errors(mesh, split, [0, 3], green=green)
        results.append((rec.u_h, rec.u_J, rec.u_col))
        series.append([basis_mod.bubble_series(ops, 3, solve)
                       for solve in (None, partial(np.matmul, green))])
    batched, banded = results
    scale = np.abs(batched[0]).max()
    assert np.abs(batched[0] - banded[0]).max() <= 1e-12 * scale
    for a, b in zip(batched[1:], banded[1:]):
        for J in (0, 3):
            assert np.abs(a[J] - b[J]).max() <= 1e-12 * scale
    for (pi_a, xis_a, _), (pi_b, xis_b, _) in zip(*series):
        scale = np.abs(pi_a).max()
        for a, b in zip([pi_a] + xis_a, [pi_b] + xis_b):
            assert np.abs(a - b).max() <= 1e-12 * scale


@pytest.mark.parametrize("nx,ny,r", [(16, 16, 2), (5, 3, 2), (3, 6, 2),
                                     (3, 2, 7)],
                         ids=["16-16", "5-3", "3-6", "3-2-7"])
def test_coarse_band_solve_matches_dense_solve(nx, ny, r):
    # free vertices run row-major over rows of nx - 1: half-bandwidth nx;
    # r = 7 runs the banded regime (nK = 36 > BATCHED_MAX_N) end to end
    mesh = build_mesh(nx, ny, r)
    split = _random_splitting(mesh, np.random.default_rng(nx * 10 + ny))
    ref = _dense_solution(mesh, build_basis_registry(mesh, split, "standard"),
                          split.k)
    u = _solution(mesh, split)
    assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()
