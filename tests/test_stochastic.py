import numpy as np
import pytest

from msfem_split import (build_kle_model, build_mesh, build_sparse_grid,
                         cost_ratios, precompute_green_inverses, sample_theta,
                         smolyak_node_count)
from msfem_split import basis as basis_mod
from msfem_split import fem
from msfem_split import msfem
from msfem_split import stochastic as st
from msfem_split.field import split_kle
from msfem_split.stochastic import (StochasticConfig, collocation_run,
                                    monte_carlo_run)


def test_sample_theta_range_and_reproducibility():
    theta = sample_theta(42, 7, 20)
    assert theta.shape == (20,)
    assert np.all(np.abs(theta) <= 1.0)
    assert np.array_equal(theta, sample_theta(42, 7, 20))
    assert not np.array_equal(theta, sample_theta(42, 8, 20))
    with pytest.raises(ValueError):
        sample_theta(42, 0, 0)


def test_sample_theta_statistics():
    draws = np.array([sample_theta(9, i, 4) for i in range(100000)])
    sigma = 1.0 / np.sqrt(3.0)
    assert np.all(np.abs(draws.mean(axis=0)) <= 3.0 * sigma / np.sqrt(1e5))


def test_smolyak_node_counts():
    assert build_sparse_grid(1, 0).n_nodes == 1
    assert np.allclose(build_sparse_grid(1, 0).nodes, 0.0)
    assert smolyak_node_count(10, 2) == 221
    assert smolyak_node_count(20, 2) == 841
    for m in (3, 7, 16):
        assert smolyak_node_count(m, 2) == 2 * m * m + 2 * m + 1
    # counting formula matches the constructed grid
    for m, L in ((3, 2), (5, 1), (2, 3)):
        assert build_sparse_grid(m, L).n_nodes == smolyak_node_count(m, L)


def test_sparse_grid_guards():
    with pytest.raises(ValueError):
        st.SparseGrid(0, 1)
    with pytest.raises(MemoryError):
        st.SparseGrid(100, 3)  # 1 353 801 nodes


def test_interpolation_exact_at_nodes():
    grid = build_sparse_grid(3, 2)
    data = np.sin(np.arange(grid.n_nodes, dtype=float))
    for i in range(0, grid.n_nodes, 5):
        w = grid.interpolation_weights(grid.nodes[i])
        assert abs(w @ data - data[i]) <= 1e-12
    # one batched call on all nodes gives the identity
    W = grid.interpolation_weights(grid.nodes)
    assert np.abs(W - np.eye(grid.n_nodes)).max() <= 1e-12


def test_interpolation_reproduces_low_degree_polynomials():
    grid = build_sparse_grid(2, 2)
    rng = np.random.default_rng(3)
    data = np.array([1.5 + 2.0 * x - 0.5 * y + x * y
                     for x, y in grid.nodes])
    for _ in range(10):
        p = rng.uniform(-1, 1, 2)
        w = grid.interpolation_weights(p)
        exact = 1.5 + 2.0 * p[0] - 0.5 * p[1] + p[0] * p[1]
        assert abs(w @ data - exact) <= 1e-10
    # one batched call equals the row-by-row calls
    P = rng.uniform(-1, 1, (7, 2))
    rows = np.array([grid.interpolation_weights(p) for p in P])
    assert np.abs(grid.interpolation_weights(P) - rows).max() <= 1e-15
    # at m=3, L=3 these degree-8 monomials are reproduced; x^9 needs more
    # than the 9 points of level 3
    grid = build_sparse_grid(3, 3)
    P = rng.uniform(-1, 1, (20, 3))
    W = grid.interpolation_weights(P)
    for f in (lambda x: x[..., 0] ** 8,
              lambda x: x[..., 0] ** 4 * x[..., 1] ** 2,
              lambda x: (x[..., 0] * x[..., 1] * x[..., 2]) ** 2):
        assert np.abs(W @ f(grid.nodes) - f(P)).max() <= 1e-10
    x9 = grid.nodes[:, 0] ** 9
    assert np.abs(W @ x9 - P[:, 0] ** 9).max() > 1e-3


def test_cost_ratios():
    a_ftc, a_sgc = cost_ratios(20, 10, 2, 2)
    assert a_ftc == 3.0 ** -10
    assert a_sgc == 221.0 / 841.0
    assert cost_ratios(5, 5, 3, 2) == (1.0, 1.0)
    with pytest.raises(ValueError):
        cost_ratios(5, 6, 2, 2)


def _small_setup(L=1, m=3, n=5):
    mesh = build_mesh(4, 4, 3)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, n)
    grid = build_sparse_grid(m, L)
    store = precompute_green_inverses(mesh, model, grid, m)
    return mesh, model, grid, store


def _unpacked(store):
    """Full (n_nodes, n_cells, nK, nK) inverses from the packed store."""
    n_k = store.mesh.n_interior
    full = np.zeros(store.matrices.shape[:2] + (n_k, n_k))
    row, col = np.tril_indices(n_k)
    full[..., row, col] = store.matrices
    full[..., col, row] = store.matrices
    return full


def test_green_store_shape_and_inverses():
    mesh, model, grid, store = _small_setup()
    n_k = mesh.n_interior
    assert store.matrices.shape == (grid.n_nodes, mesh.n_coarse_cells,
                                    n_k * (n_k + 1) // 2)
    full = _unpacked(store)
    asm = fem.LocalAssembler(mesh)
    for i in (0, grid.n_nodes - 1):
        theta = np.zeros(model.n)
        theta[:store.m] = grid.nodes[i]
        split = split_kle(model, theta, store.m)
        for cell in (0, 7):
            ops = fem.assemble_local_operators(mesh, cell, split, asm)
            prod = ops.M0 @ full[i, cell]
            assert np.abs(prod - np.eye(mesh.n_interior)).max() <= 1e-8


def test_green_store_guards():
    mesh, model, grid, _ = _small_setup()
    with pytest.raises(ValueError):
        precompute_green_inverses(mesh, model, build_sparse_grid(2, 1), 3)
    # 69 nodes x 16 cells x 353 661 packed entries: about 3.1e9 bytes
    mesh = build_mesh(4, 4, 30)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 5)
    with pytest.raises(MemoryError, match="limit"):
        precompute_green_inverses(mesh, model, build_sparse_grid(3, 3), 3)


def test_green_store_matches_independent_inverses(monkeypatch):
    mesh, model, grid, store = _small_setup(L=2)
    asm = fem.LocalAssembler(mesh)
    cells = mesh.cell_fine_cells(np.arange(mesh.n_coarse_cells))
    full = []
    for node in grid.nodes:
        theta = np.zeros(model.n)
        theta[:store.m] = node
        k0 = split_kle(model, theta, store.m).k0
        full.append(np.linalg.inv(asm.interior_matrices(k0[cells])))
    full = np.array(full)
    points = np.random.default_rng(3).uniform(-1.0, 1.0, (4, store.m))
    G = st._interpolated_green(store, points)
    ref = np.einsum("pn,n...->p...",
                    grid.interpolation_weights(points), full)
    assert G.shape == ref.shape
    assert np.abs(G - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(G, G.swapaxes(-1, -2))

    # a node whose inverse is not symmetric is refused at build
    exact = fem.LocalAssembler.interior_matrices

    def skewed(self, kappa):
        M = exact(self, kappa)
        skew = np.triu(np.ones(M.shape[-2:]), 1)
        return M + 1e-6 * np.abs(M).max() * (skew - skew.T)

    monkeypatch.setattr(fem.LocalAssembler, "interior_matrices", skewed)
    with pytest.raises(ValueError, match="grid node 0 not symmetric"):
        precompute_green_inverses(mesh, model, grid, store.m)


def test_interpolated_basis_exact_at_grid_node():
    mesh, model, grid, store = _small_setup(L=2)
    theta = np.zeros(model.n)
    theta[:store.m] = grid.nodes[5]
    theta[store.m:] = sample_theta(11, 0, model.n)[store.m:]
    split = split_kle(model, theta, store.m)
    green = st._interpolated_green(store, theta[:store.m])
    for cell in (0, 10):
        ops = fem.assemble_local_operators(mesh, [cell], split)
        exact = basis_mod.iterative_bases(ops, [2])[2]
        col = basis_mod.iterative_bases(ops, [2], green[[cell]])[2]
        assert np.abs(exact - col).max() <= 1e-10


def test_interpolated_basis_m_equals_n():
    mesh = build_mesh(2, 2, 3)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 3)
    grid = build_sparse_grid(3, 1)
    store = precompute_green_inverses(mesh, model, grid, 3)
    theta = grid.nodes[2].copy()
    split = split_kle(model, theta, 3)
    assert split.eta_global <= 1e-14
    ops = fem.assemble_local_operators(mesh, [1], split)
    green = st._interpolated_green(store, theta[:store.m])
    col = basis_mod.iterative_bases(ops, [0], green[[1]])[0][0, :, 3]
    std = basis_mod.standard_bases(ops)[0, :, 3]
    assert np.abs(col - std).max() <= 1e-10


def test_monte_carlo_single_sample():
    mesh, model, _, _ = _small_setup()
    config = StochasticConfig(mesh=mesh, model=model, m=3,
                              J_list=(0, 1), seed=123)
    stats = monte_carlo_run(config, 1)
    assert stats.N == 1
    assert np.allclose(stats.var_uh, 0.0, atol=1e-20)
    assert stats.var_error[0] <= 1e-20
    assert stats.mean_error[1] <= stats.mean_error[0] + 1e-15
    with pytest.raises(ValueError):
        monte_carlo_run(config, 0)


def test_monte_carlo_reproducible_and_bounded():
    mesh, model, _, _ = _small_setup()
    config = StochasticConfig(mesh=mesh, model=model, m=4,
                              J_list=(0, 2), seed=77)
    a = monte_carlo_run(config, 6)
    b = monte_carlo_run(config, 6)
    assert a.mean_error == b.mean_error
    assert np.array_equal(a.mean_uh, b.mean_uh)
    if a.eta_max < 1.0:
        for J in (0, 2):
            assert a.mean_error[J] <= a.bounds[J]


def test_collocation_run_triangle_inequality():
    mesh, model, grid, store = _small_setup(L=1)
    config = StochasticConfig(mesh=mesh, model=model, m=3,
                              J_list=(1,), seed=5)
    stats = collocation_run(config, 4, store)
    x = stats.extra
    assert np.all(x["e"] <= x["e_spl"] + x["e_col"] + 1e-12)
    assert np.all(x["e"] >= 0.0)
    again = collocation_run(config, 4, store)
    assert np.array_equal(x["e"], again.extra["e"])


def test_collocation_error_decreases_with_level():
    mesh, model, _, _ = _small_setup()
    config = StochasticConfig(mesh=mesh, model=model, m=3,
                              J_list=(1,), seed=5)
    means = []
    for L in (0, 1, 2):
        grid = build_sparse_grid(3, L)
        store = precompute_green_inverses(mesh, model, grid, 3)
        means.append(collocation_run(config, 4, store).extra["mean_e_col"])
    assert means[2] <= means[0]


def test_collocation_checks_interpolated_green():
    mesh, model, grid, store = _small_setup(L=2)
    config = StochasticConfig(mesh=mesh, model=model, m=3,
                              J_list=(1,), seed=5)
    assert not collocation_run(config, 3, store).extra["green_not_spd"].any()
    exact = store.matrices.copy()
    # one cell's inverse negated: counted in every sample, run completes
    store.matrices[:, 3] *= -1.0
    assert np.array_equal(
        collocation_run(config, 3, store).extra["green_not_spd"], [1, 1, 1])
    # no cell SPD: the store is wrong, and the first sample says so
    store.matrices[:] = -exact
    with pytest.raises(RuntimeError, match="sample 0 failed: .*SPD in no"):
        collocation_run(config, 3, store)


def test_interpolated_registry_with_exact_green_equals_iterative():
    mesh, model, grid, store = _small_setup(L=2)
    full = _unpacked(store)
    for i in range(grid.n_nodes):
        green = st._interpolated_green(store, grid.nodes[i])
        assert np.abs(green - full[i]).max() <= \
            1e-12 * np.abs(full[i]).max()
    theta = sample_theta(31, 0, model.n)
    split = split_kle(model, theta, store.m)
    asm = fem.LocalAssembler(mesh)
    exact_green = np.array([
        np.linalg.inv(fem.assemble_local_operators(mesh, c, split, asm).M0)
        for c in range(mesh.n_coarse_cells)])
    J_list = (0, 1, 2)
    iterative = msfem.build_iterative_registries(mesh, split, J_list)
    collocated = msfem.build_iterative_registries(mesh, split, J_list,
                                                  green=exact_green)
    for J in J_list:
        col = collocated[J]
        assert col.shape == iterative[J].shape
        assert np.abs(col - iterative[J]).max() <= 1e-12
