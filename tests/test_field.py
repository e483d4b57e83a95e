import numpy as np
import pytest

from msfem_split import build_mesh, build_kle_model, energy_ratio, eta
from msfem_split.field import (covariance_kernel, make_splitting,
                               realize_log_field, shift_splitting, split_kle,
                               split_lognormal)
from msfem_split.stochastic import sample_theta


def test_make_splitting_reconstruction():
    mesh = build_mesh(2, 2, 3)
    rng = np.random.default_rng(1)
    k0 = np.exp(rng.uniform(-1, 1, mesh.n_fine_cells))
    k1 = 0.5 * k0 * rng.uniform(-1, 1, mesh.n_fine_cells)
    split = make_splitting(mesh, k0, k1)
    assert np.allclose(split.k, k0 + k1, rtol=1e-12)


def test_make_splitting_rejects_nonpositive():
    mesh = build_mesh(1, 1, 2)
    with pytest.raises(ValueError):
        make_splitting(mesh, np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        make_splitting(mesh, np.ones(4), np.full(4, -1.0))


def test_eta_examples():
    mesh = build_mesh(1, 1, 2)
    same = make_splitting(mesh, np.ones(4), np.ones(4))
    assert eta(same) == 1.0
    zero = make_splitting(mesh, np.ones(4), np.zeros(4))
    assert eta(zero) == 0.0
    two = make_splitting(mesh, np.array([2.0, 4.0, 2.0, 4.0]),
                         np.array([1.0, 3.0, 1.0, 3.0]))
    assert eta(two) == 0.75


def test_eta_per_cell():
    mesh = build_mesh(2, 1, 2)
    k0 = np.ones(mesh.n_fine_cells)
    # row-major cells: fine columns 0,1 belong to coarse cell 0
    k1 = np.array([0.1, 0.1, 0.8, 0.8, 0.1, 0.2, 0.3, 0.8])
    split = make_splitting(mesh, k0, k1)
    assert eta(split, 0) == 0.2
    assert eta(split, 1) == 0.8
    assert eta(split) == 0.8


def test_shift_splitting_hand_example():
    # constant k0 = 1, k1 = 2: s = 1.01 * (2-1)/2 = 0.505 and
    # eta_shifted = 1.495/1.505
    mesh = build_mesh(1, 1, 2)
    split = make_splitting(mesh, np.ones(4), np.full(4, 2.0))
    shifted = shift_splitting(split, margin=0.01)
    assert np.allclose(shifted.k0, 1.505)
    assert np.allclose(shifted.k1, 1.495)
    assert np.isclose(shifted.eta_global, 1.495 / 1.505)
    assert shifted.eta_global < 1.0


def test_shift_splitting_noop_cases():
    mesh = build_mesh(1, 1, 2)
    ok = make_splitting(mesh, np.ones(4), np.full(4, -0.5))
    assert ok.eta_global == 0.5
    assert shift_splitting(ok) is ok
    with pytest.raises(ValueError):
        shift_splitting(ok, margin=0.0)


def test_shift_splitting_randomized_always_repairs():
    mesh = build_mesh(2, 2, 3)
    rng = np.random.default_rng(8)
    for _ in range(20):
        k0 = np.exp(rng.uniform(-1, 1, mesh.n_fine_cells))
        k1 = rng.uniform(0.5, 3.0, mesh.n_fine_cells) * k0
        split = make_splitting(mesh, k0, k1)
        fixed = shift_splitting(split)
        assert fixed.eta_global < 1.0
        assert np.allclose(fixed.k, split.k, rtol=1e-12)


def test_kle_eigenvalues_sorted_nonnegative():
    mesh = build_mesh(3, 3, 10)
    model = build_kle_model(mesh, 2.25, 0.2, 0.05, 20)
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert np.all(model.eigenvalues >= 0.0)


def test_kle_orthonormality():
    mesh = build_mesh(3, 3, 10)
    model = build_kle_model(mesh, 2.25, 0.2, 0.05, 20)
    area = 1.0 / mesh.n_fine_cells
    gram = area * model.eigenfunctions @ model.eigenfunctions.T
    assert np.abs(gram - np.eye(model.n)).max() <= 1e-8


def test_kle_full_rank_reconstruction():
    # at full rank the Nystrom eigenpairs reproduce the kernel matrix
    mesh = build_mesh(2, 2, 3)
    n = mesh.n_fine_cells
    model = build_kle_model(mesh, 1.5, 0.3, 0.2, n)
    centers = mesh.fine_cell_centers()
    kernel = covariance_kernel(centers, centers, 1.5, 0.3, 0.2)
    approx = (model.eigenvalues[:, None] * model.eigenfunctions).T \
        @ model.eigenfunctions
    assert np.abs(approx - kernel).max() <= 1e-8


def test_kle_generation_grid_injection():
    # refinements sharing the generation grid see the identical field
    coarse = build_mesh(4, 4, 15)   # 60x60, at the generation limit
    fine = build_mesh(4, 4, 30)     # 120x120, generated on 60x60
    mc = build_kle_model(coarse, 1.0, 0.1, 0.1, 5)
    mf = build_kle_model(fine, 1.0, 0.1, 0.1, 5)
    assert mf.generation_shape == (60, 60)
    assert np.allclose(mc.eigenvalues, mf.eigenvalues)
    inj = mf.eigenfunctions.reshape(5, 120, 120)[:, ::2, ::2]
    assert np.allclose(inj.reshape(5, -1), mc.eigenfunctions)


def test_kle_generation_grid_refuses_coarsening():
    # 65 cells divide by 13 at most, 134 cells by 2: far below the cap
    for mesh, nf, g in ((build_mesh(13, 13, 5), 65, 13),
                        (build_mesh(67, 1, 2), 134, 2)):
        with pytest.raises(ValueError, match=f"{nf} fine cells.* {g} cells"):
            build_kle_model(mesh, 1.0, 0.1, 0.1, 2)
    assert build_kle_model(build_mesh(4, 4, 30), 1.0, 0.1, 0.1,
                           2).generation_shape == (60, 60)


def _dense_reference(mesh, sigma2, lx, ly, n):
    """Leading eigenpairs of the 2D Nystrom matrix area * covariance."""
    centers = mesh.fine_cell_centers()
    area = 1.0 / mesh.n_fine_cells
    w, u = np.linalg.eigh(area * covariance_kernel(centers, centers,
                                                   sigma2, lx, ly))
    return w[::-1], u[:, ::-1].T[:n] / np.sqrt(area)


def test_kle_matches_dense_reference_distinct_modes():
    mesh = build_mesh(3, 2, 3)   # 9x6 cells, generation grid = fine grid
    n = 12
    model = build_kle_model(mesh, 1.5, 0.3, 0.1, n)
    w, phi = _dense_reference(mesh, 1.5, 0.3, 0.1, n)
    # every leading eigenvalue is simple, so each mode is unique up to sign
    assert np.all(-np.diff(w[:n + 1]) > 1e-2 * w[1:n + 1])
    assert np.allclose(model.eigenvalues, w[:n], rtol=1e-12, atol=0.0)
    for k in range(n):
        sign = np.sign(phi[k] @ model.eigenfunctions[k])
        assert np.abs(model.eigenfunctions[k] - sign * phi[k]).max() <= 1e-10


def test_kle_tied_modes_span_dense_reference_eigenspaces():
    mesh = build_mesh(2, 2, 4)   # 8x8 cells, lx == ly: tied pairs
    n = 10
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, n)
    w, phi = _dense_reference(mesh, 1.0, 0.2, 0.2, n + 1)
    assert np.allclose(model.eigenvalues, w[:n], rtol=1e-12, atol=0.0)
    # group the reference spectrum into clusters of equal eigenvalues
    starts = np.flatnonzero(np.r_[True, -np.diff(w) > 1e-8 * w[0]])
    assert n in starts, "truncation must not cut a tied eigenspace"
    assert np.any(np.diff(starts) == 2), "expected at least one tied pair"
    area = 1.0 / mesh.n_fine_cells
    for a, b in zip(starts, starts[1:]):
        if b > n:
            break
        ref = area * phi[a:b].T @ phi[a:b]
        got = area * model.eigenfunctions[a:b].T @ model.eigenfunctions[a:b]
        assert np.abs(got - ref).max() <= 1e-10


@pytest.mark.parametrize("shape, lx, ly", [((3, 3, 10), 0.2, 0.05),
                                           ((4, 4, 30), 0.7, 0.04),
                                           ((16, 16, 4), 0.1, 0.1)])
def test_kle_sign_rule_is_deterministic(shape, lx, ly):
    # Each mode is an outer product uy x ux on the generation grid.  Its
    # sign makes uy_a * ux_b > 0 at the first row a and first column b that
    # reach half the largest magnitude, a choice that round-off cannot
    # decide (unlike the largest magnitude, shared by mirror-image cells).
    mesh = build_mesh(*shape)
    model = build_kle_model(mesh, 1.0, lx, ly, 20)
    gx, gy = model.generation_shape
    px, py = mesh.nxf // gx, mesh.nyf // gy
    gen = model.eigenfunctions.reshape(20, mesh.nyf, mesh.nxf)[:, ::py, ::px]
    for phi in gen:
        mag = np.abs(phi)
        half = 0.5 * mag.max()
        a = np.argmax(mag.max(axis=1) >= half)
        b = np.argmax(mag.max(axis=0) >= half)
        assert phi[a, b] > 0.0
    again = build_kle_model(mesh, 1.0, lx, ly, 20)
    assert again.eigenvalues.tobytes() == model.eigenvalues.tobytes()
    assert again.eigenfunctions.tobytes() == model.eigenfunctions.tobytes()


def test_kle_invalid_arguments():
    mesh = build_mesh(1, 1, 3)
    with pytest.raises(ValueError):
        build_kle_model(mesh, -1.0, 0.1, 0.1, 2)
    with pytest.raises(ValueError):
        build_kle_model(mesh, 1.0, 0.1, 0.1, 10)  # n > 9 cells


def test_realize_log_field_trivial():
    mesh = build_mesh(2, 2, 3)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 6)
    assert np.allclose(realize_log_field(model, np.zeros(6)), 1.0)
    theta = sample_theta(0, 0, 6)
    assert np.all(realize_log_field(model, theta) > 0.0)
    with pytest.raises(ValueError):
        realize_log_field(model, np.zeros(5))


def test_realize_log_field_single_cell_series():
    mesh = build_mesh(2, 2, 3)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 6)
    theta = sample_theta(3, 1, 6)
    cell = 17
    series = sum(np.sqrt(model.eigenvalues[i]) *
                 model.eigenfunctions[i, cell] * theta[i]
                 for i in range(6))
    assert np.isclose(realize_log_field(model, theta)[cell], np.exp(series))


def test_split_kle_extremes():
    mesh = build_mesh(2, 2, 3)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 6)
    theta = sample_theta(1, 0, 6)
    full = split_kle(model, theta, 6)
    assert np.allclose(full.k1, 0.0, atol=1e-14)
    assert full.eta_global <= 1e-14
    none = split_kle(model, theta, 0)
    assert np.allclose(none.k0, 1.0)
    with pytest.raises(ValueError):
        split_kle(model, theta, 7)


def test_split_kle_eta_decreases_with_m():
    mesh = build_mesh(3, 3, 10)
    model = build_kle_model(mesh, 2.25, 0.2, 0.05, 20)
    theta = sample_theta(12345, 0, 20)
    etas = [split_kle(model, theta, m).eta_global for m in (5, 15, 17)]
    assert etas[0] > etas[1] > etas[2]
    assert etas[1] < 1.0 and etas[2] < 1.0


def test_split_lognormal():
    mesh = build_mesh(3, 3, 10)
    rng = np.random.default_rng(6)
    Y = rng.standard_normal(mesh.n_fine_cells)
    one = split_lognormal(mesh, Y, 1.0)
    assert np.allclose(one.k1, 0.0, atol=1e-14)
    assert one.eta_global <= 1e-14
    split = split_lognormal(mesh, Y, 0.4)
    assert np.allclose(split.k, np.exp(Y))
    # k0 = exp(0.4 Y) is far less heterogeneous than k1
    assert split.k0.max() / split.k0.min() < split.k.max() / split.k.min()
    with pytest.raises(ValueError):
        split_lognormal(mesh, Y, 0.0)


def test_energy_ratio():
    mesh = build_mesh(2, 2, 3)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 6)
    assert energy_ratio(model, 6) == 1.0
    assert energy_ratio(model, 0) == 0.0
    ratios = [energy_ratio(model, m) for m in range(7)]
    assert np.all(np.diff(ratios) >= 0.0)
    with pytest.raises(ValueError):
        energy_ratio(model, 7)

    model.eigenvalues = np.array([4.0, 1.0])
    model.n = 2
    assert np.isclose(energy_ratio(model, 1), 2.0 / 3.0)
