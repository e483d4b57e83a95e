import dataclasses
import os
import sys
import threading
import time

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
from reference import (build_iterative_registries, child_output,
                       green_store_loop, interpolated_green_gemm,
                       smolyak_weights)


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


@pytest.mark.parametrize("m,L", [(16, 3), (8, 2), (3, 3), (2, 2), (5, 1)])
def test_interpolation_weights_match_subgrid_loop(m, L):
    grid = build_sparse_grid(m, L)
    rng = np.random.default_rng(m * 10 + L)
    for points in (rng.uniform(-1, 1, m), rng.uniform(-1, 1, (4, m)),
                   rng.uniform(-1, 1, (2, 3, m))):
        w = grid.interpolation_weights(points)
        assert w.shape == points.shape[:-1] + (grid.n_nodes,)
        assert np.array_equal(w, smolyak_weights(grid, points))
    # the nodes, in several blocks of points at m=16, L=3, where every 8th
    # of the 6049 keeps the oracle's subgrid loop short
    nodes = grid.nodes[::8 if grid.n_nodes > 1000 else 1]
    assert np.array_equal(grid.interpolation_weights(nodes),
                          smolyak_weights(grid, nodes))


@pytest.mark.parametrize("m,L", [(3, 0), (1, 1), (3, 2), (16, 3)])
def test_sparse_grid_reflection(m, L):
    # the node permutation of a sign flip, read from the integer indices:
    # an involution taking each node to its mirror image, whose weights
    # are those of the mirrored point
    grid = build_sparse_grid(m, L)
    rng = np.random.default_rng(m * 10 + L)
    theta = rng.uniform(-1.0, 1.0, (3, m))
    for flip in (np.zeros(m, bool), np.ones(m, bool), rng.random(m) < 0.5):
        p = grid.reflection(flip)
        assert np.array_equal(p[p], np.arange(grid.n_nodes))
        mirrored = np.where(flip, -grid.nodes, grid.nodes)
        assert np.abs(grid.nodes[p] - mirrored).max() <= 1e-15
        W = grid.interpolation_weights(np.where(flip, -theta, theta))
        assert np.abs(W - grid.interpolation_weights(theta)[:, p]).max() \
            <= 1e-13 * np.abs(W).max()


def test_interpolation_weights_refuse_points_outside_the_cube():
    # the interpolant does not extrapolate, and NaN gave NaN weights
    grid = build_sparse_grid(3, 2)
    for bad in ([0.0, 1.5, 0.0], [np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0],
                [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0 - 1e-15]]):
        with pytest.raises(ValueError,
                           match=r"finite and within \[-1, 1\]\^m"):
            grid.interpolation_weights(bad)
    # the cube's faces are accepted
    corner = grid.interpolation_weights([1.0, -1.0, 1.0])
    assert abs(corner.sum() - 1.0) <= 1e-14
    mesh, model, grid, store = _small_setup()
    with pytest.raises(ValueError, match="within"):
        st._interpolated_green(store, np.full(3, 5.0))


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


@pytest.mark.parametrize("m,q,L,match", [
    (10, -1, 2, "q >= 0"), (-1, 2, 2, "m >= 0"), (10, 2, -1, "L >= 0"),
    (-1, 2, -1, "m=-1, L=-1")])
def test_cost_ratios_refuse_negative_inputs(m, q, L, match):
    # q = -1 would divide by zero, and m < 0 or L < 0 would count one node
    with pytest.raises(ValueError, match=match):
        cost_ratios(20, m, q, L)
    if q >= 0:
        with pytest.raises(ValueError, match=match):
            smolyak_node_count(m, L)


def _small_setup(L=1, m=3, n=5):
    mesh = build_mesh(4, 4, 3)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, n)
    grid = build_sparse_grid(m, L)
    store = precompute_green_inverses(mesh, model, grid, m)
    return mesh, model, grid, store


def _unpacked(matrices):
    """Full (n_nodes, cells, nK, nK) inverses from packed store matrices."""
    n_k = fem._packed_order(matrices.shape[-1])
    full = np.zeros(matrices.shape[:2] + (n_k, n_k))
    row, col = np.tril_indices(n_k)
    full[..., row, col] = matrices
    full[..., col, row] = matrices
    return full


def test_green_store_shape_and_inverses():
    mesh, model, grid, store = _small_setup()
    n_k = mesh.n_interior
    # the lower-left quarter of the 4x4 cells represents every cell
    assert np.array_equal(store.cells, [0, 1, 4, 5])
    assert store.matrices.shape == (grid.n_nodes, 4, n_k * (n_k + 1) // 2)
    full = _unpacked(store.matrices)
    for i in (0, grid.n_nodes - 1):
        theta = np.zeros(model.n)
        theta[:store.grid.m] = grid.nodes[i]
        split = split_kle(model, theta, store.grid.m)
        for j in (0, 3):
            ops = fem.assemble_local_operators(mesh, store.cells[j], split)
            prod = fem.stencil_to_dense(ops.M0) @ full[i, j]
            assert np.abs(prod - np.eye(mesh.n_interior)).max() <= 1e-8


def _asymmetric(model, mode, broken):
    """model with one mode changed by 1e-9 of itself on fine cells that
    break its parity: the column x = 0 under the x reflection only
    (broken = "x"), the row y = 0 under the y reflection only ("y"), the
    corner cell (0, 0) under both ("xy")."""
    mesh = model.mesh
    phi = model.eigenfunctions.copy().reshape(model.n, mesh.nyf, mesh.nxf)
    where = {"x": (slice(None), 0), "y": (0, slice(None)),
             "xy": (0, 0)}[broken]
    phi[mode][where] *= 1.0 + 1e-9
    return dataclasses.replace(model, eigenfunctions=phi.reshape(model.n, -1))


@pytest.mark.parametrize("mode,broken", [
    (0, "x"), (0, "xy"), (2, "xy"), (1, "y"),
    # a mode past m does not enter the coefficient at the nodes
    (4, "xy")])
def test_asymmetric_mode_is_refused_below_m(mode, broken):
    # a leading mode without a parity under a reflection, which only a
    # hand-edited model can have, is refused, naming the mode and the
    # first reflection it breaks; past m the store keeps the whole group,
    # each representative bitwise the oracle's, and the interpolant agrees
    # with the full store's
    mesh = build_mesh(4, 4, 3)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 5)
    model = _asymmetric(model, mode, broken)
    grid = build_sparse_grid(3, 2)
    if mode < 3:
        with pytest.raises(ValueError, match=(
                f"KLE mode {mode} is neither symmetric nor antisymmetric "
                f"under the {broken[0]} reflection")):
            precompute_green_inverses(mesh, model, grid, 3)
        return
    store = precompute_green_inverses(mesh, model, grid, 3)
    assert len(store.node_perms) == 4
    # the elements the cells are unpacked from
    entries = store.matrices.shape[2]
    assert len(np.unique(store.unpack[:, 0, 0] //
                         (len(store.cells) * entries))) == 4
    cx, cy = mesh.cell_coords(np.arange(mesh.n_coarse_cells))
    assert np.array_equal(store.cells, np.flatnonzero((cx <= 1) & (cy <= 1)))
    full = green_store_loop(mesh, model, grid, 3)
    assert np.array_equal(store.matrices, full[:, store.cells])
    points = np.random.default_rng(7).uniform(-1.0, 1.0, (3, 3))
    ref = interpolated_green_gemm(store, points)
    G = st._interpolated_green(store, points)
    assert np.abs(G - ref).max() <= 1e-12 * np.abs(ref).max()


def test_store_of_tail_modes_keeps_the_whole_group():
    # m = 60 reaches 1D modes that a plain eigh of the 64-cell axis mixes
    # across parities; solved per parity they keep it, so the store keeps
    # the lower-left quarter's 64 of the 256 cells under all 4 elements
    mesh = build_mesh(16, 16, 4)
    model = build_kle_model(mesh, 1.0, 0.1, 0.1, 80)
    store = precompute_green_inverses(mesh, model, build_sparse_grid(60, 1),
                                      60)
    assert len(store.node_perms) == 4
    assert len(store.cells) == 64


@pytest.mark.parametrize("r", [3, 7])
@pytest.mark.parametrize("nx,ny", [(4, 4), (2, 2), (3, 5), (5, 7)])
def test_interpolated_green_matches_full_store(nx, ny, r):
    # nK = 4 and 36, on either side of BATCHED_MAX_N: the representatives,
    # the lower-left quarter with an odd mesh's middle row and column,
    # mirrored into every cell give the interpolant of the full store, at
    # random points and at the nodes, where it is each cell's own inverse
    mesh = build_mesh(nx, ny, r)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 5)
    grid = build_sparse_grid(3, 2)
    store = precompute_green_inverses(mesh, model, grid, 3)
    assert len(store.node_perms) == 4
    assert len(store.cells) == (nx + 1) // 2 * ((ny + 1) // 2)
    points = np.concatenate([
        np.random.default_rng(nx * ny).uniform(-1.0, 1.0, (4, 3)),
        grid.nodes[::5]])
    ref = interpolated_green_gemm(store, points)
    G = st._interpolated_green(store, points)
    assert G.shape == ref.shape
    assert np.abs(G - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(G, G.swapaxes(-1, -2))


def test_green_store_guards(monkeypatch):
    mesh, model, grid, _ = _small_setup()
    with pytest.raises(ValueError):
        precompute_green_inverses(mesh, model, build_sparse_grid(2, 1), 3)
    # 441 nodes x 4 representative cells x 353 661 packed entries: about
    # 5.0e9 bytes stored (all 16 cells would take 2.0e10), refused before
    # a coefficient is assembled
    mesh = build_mesh(4, 4, 30)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 5)
    grid = build_sparse_grid(3, 5)
    assert grid.n_nodes * 4 * 353661 * 8 > st.MAX_STORE_BYTES
    monkeypatch.setattr(fem, "local_assembler", None)
    with pytest.raises(MemoryError, match="limit"):
        precompute_green_inverses(mesh, model, grid, 3)


def test_green_store_matches_independent_inverses():
    mesh, model, grid, store = _small_setup(L=2)
    asm = fem.LocalAssembler(mesh)
    cells = mesh.cell_fine_cells(np.arange(mesh.n_coarse_cells))
    full = []
    for node in grid.nodes:
        theta = np.zeros(model.n)
        theta[:store.grid.m] = node
        k0 = split_kle(model, theta, store.grid.m).k0
        full.append(np.linalg.inv(
            fem.stencil_to_dense(asm.interior_bands(k0[cells]))))
    full = np.array(full)
    points = np.random.default_rng(3).uniform(-1.0, 1.0, (4, store.grid.m))
    G = st._interpolated_green(store, points)
    ref = np.einsum("pn,n...->p...",
                    grid.interpolation_weights(points), full)
    assert G.shape == ref.shape
    assert np.abs(G - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(G, G.swapaxes(-1, -2))
    # the build's residual check came nowhere near its bound
    assert 0.0 < store.residual <= 1e-5 * st.MAX_GREEN_RESIDUAL


def test_green_store_above_batched_regime():
    # nK = 36 > BATCHED_MAX_N: the banded inverse beyond the batched sizes
    mesh = build_mesh(2, 2, 7)
    assert mesh.n_interior > fem.BATCHED_MAX_N
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 3)
    grid = build_sparse_grid(2, 1)
    store = precompute_green_inverses(mesh, model, grid, 2)
    asm = fem.LocalAssembler(mesh)
    cells = mesh.cell_fine_cells(store.cells)
    full = _unpacked(store.matrices)
    for i, node in enumerate(grid.nodes):
        theta = np.zeros(model.n)
        theta[:2] = node
        k0 = split_kle(model, theta, 2).k0
        ref = np.linalg.inv(
            fem.stencil_to_dense(asm.interior_bands(k0[cells])))
        assert np.abs(full[i] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("r", [3, 7])
def test_green_store_is_the_sample_path_inverse_bit_for_bit(r):
    # nK = 4 and 36, on either side of BATCHED_MAX_N: at each node the
    # store holds, bit for bit, fem.packed_inverses of the M0 that
    # assemble_local_operators builds on the representative cells for the
    # splitting whose first m parameters are the node and whose others
    # are 0; on 3x3 cells those are the 4 of the lower-left quarter, the
    # middle row and column included
    mesh = build_mesh(3, 3, r)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 3)
    grid = build_sparse_grid(2, 2)
    store = precompute_green_inverses(mesh, model, grid, 2)
    assert np.array_equal(store.cells, [0, 1, 3, 4])
    for i, node in enumerate(grid.nodes):
        theta = np.zeros(model.n)
        theta[:2] = node
        ops = fem.assemble_local_operators(
            mesh, store.cells, split_kle(model, theta, 2))
        G = fem.packed_inverses(ops.M0).T
        assert store.matrices[i].tobytes() == G.tobytes()


def _perturb_inverses(monkeypatch, mesh, model, grid, nodes):
    """Perturb by 1e-6 relative the first packed entry, the (0, 0) entry,
    of cell 0's inverse at the given grid nodes.

    The cell is found by its M0 bands in the storage that the store hands
    fem.packed_inverses, wherever it sits in a block.
    """
    asm = fem.LocalAssembler(mesh)
    cells = mesh.cell_fine_cells(np.arange(mesh.n_coarse_cells))
    targets = []
    for node in nodes:
        theta = np.zeros(model.n)
        theta[:grid.m] = grid.nodes[node]
        k0 = split_kle(model, theta, grid.m).k0
        targets.append(asm.interior_bands(k0[cells])[:, 0])
    exact = fem.packed_inverses

    def perturbed(storage, out=None):
        G = exact(storage, out)
        for c, cell in enumerate(storage.T):
            if any(np.array_equal(cell, t) for t in targets):
                G[0, c] *= 1.0 + 1e-6
        return G

    monkeypatch.setattr(fem, "packed_inverses", perturbed)


@pytest.mark.parametrize("r", [3, 7])
@pytest.mark.parametrize("nodes,named", [
    # node 3, the second node of the second 2-node block
    ((3,), 3),
    # nodes 4 and 2 in two blocks: the later block may finish first
    ((4, 2), 2)], ids=["one-node", "two-blocks"])
def test_green_store_refuses_inverse_failing_residual(monkeypatch, r, nodes,
                                                       named):
    # nK = 4 and 36, on either side of BATCHED_MAX_N: one packed entry off
    # by 1e-6 relative is far above the residual check's bound, and the
    # lowest failing node is named; cell 0 represents all 2x2 cells
    mesh = build_mesh(2, 2, r)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 3)
    grid = build_sparse_grid(2, 1)
    monkeypatch.setattr(st, "STORE_BLOCK_ENTRIES", 2 * mesh.n_interior ** 2)
    store = precompute_green_inverses(mesh, model, grid, 2)
    assert np.array_equal(store.cells, [0])
    assert 0.0 < store.residual <= 1e-3 * st.MAX_GREEN_RESIDUAL
    _perturb_inverses(monkeypatch, mesh, model, grid, nodes)
    with pytest.raises(ValueError, match=rf"^Green's inverse at grid node "
                       rf"{named} fails its residual check: \S+ > 1e-10$"):
        precompute_green_inverses(mesh, model, grid, 2)


def _inject_indefinite(monkeypatch, mesh, model, grid, faults):
    """Make M0 indefinite in chosen (node, cell)s: faults maps each to the
    pivot that fails, 0 or -1 (the last).

    A cell is found by its coefficient rows, wherever it sits in a stack;
    its M0 bands are patched, which both regimes of fem.packed_inverses read.
    """
    cells = mesh.cell_fine_cells(np.arange(mesh.n_coarse_cells))
    targets = []
    for (node, cell), pivot in faults.items():
        theta = np.zeros(model.n)
        theta[:grid.m] = grid.nodes[node]
        targets.append((split_kle(model, theta, grid.m).k0[cells[cell]],
                        pivot))

    def columns(kappa):
        for row, pivot in targets:
            for c in np.flatnonzero((kappa == row).all(axis=1)):
                yield c, pivot

    exact = fem.LocalAssembler.interior_bands

    def bands(self, kappa, out=None):
        B = exact(self, kappa, out)
        for c, pivot in columns(kappa):
            if pivot == 0:
                B[:, c] *= -1.0
            else:  # the last pivot alone sees it
                B[self.n_interior - 1, c] = -1.0
        return B

    monkeypatch.setattr(fem.LocalAssembler, "interior_bands", bands)


def _node(grid, theta):
    """The number of the grid node at coordinates theta."""
    return int(np.flatnonzero((grid.nodes == theta).all(axis=1))[0])


@pytest.mark.parametrize("r", [3, 7])
def test_green_store_refuses_indefinite_m0(monkeypatch, r):
    # nK = 4 and 36, on either side of BATCHED_MAX_N; on 3x3 cells the
    # representatives are cells 0, 1, 3 and 4, and the failure is named by
    # its mesh cell 3, not by its place 2 among them.  The node is off the
    # centre, where every cell has the same coefficient
    mesh = build_mesh(3, 3, r)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 3)
    grid = build_sparse_grid(2, 1)
    node = _node(grid, (1.0, 0.0))
    _inject_indefinite(monkeypatch, mesh, model, grid, {(node, 3): 0})
    with pytest.raises(np.linalg.LinAlgError,
                       match=f"grid node {node}: matrix is not SPD") as info:
        precompute_green_inverses(mesh, model, grid, 2)
    assert str(info.value).endswith(" in cell 3")


@pytest.mark.parametrize("r", [3, 7])
@pytest.mark.parametrize("faults", [
    # nodes 0 and 1, one 2-node block: node 1 stops the block's stack at
    # pivot 0, before node 0's last pivot is reached
    {((-1.0, 0.0), 3): -1, ((0.0, -1.0), 0): 0},
    # nodes 1 and 3, two blocks: the later block may finish first
    {((0.0, 1.0), 4): 0, ((0.0, -1.0), 3): -1},
], ids=["one-block", "two-blocks"])
def test_green_store_names_lowest_failing_node(monkeypatch, r, faults):
    # faults, each at a node given by its coordinates, in representative
    # cells of the 3x3 cells (0, 1, 3 and 4)
    mesh = build_mesh(3, 3, r)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 3)
    grid = build_sparse_grid(2, 1)
    # blocks of nodes 0-1, 2-3 and 4 on either side of BATCHED_MAX_N
    monkeypatch.setattr(st, "STORE_BLOCK_ENTRIES",
                        2 * 4 * mesh.n_interior ** 2)
    faults = {(_node(grid, theta), cell): pivot
              for (theta, cell), pivot in faults.items()}
    _inject_indefinite(monkeypatch, mesh, model, grid, faults)
    with pytest.raises(np.linalg.LinAlgError) as info:
        precompute_green_inverses(mesh, model, grid, 2)
    message = str(info.value)
    last = mesh.n_interior - 1
    lowest = min(node for node, _ in faults)
    assert f"grid node {lowest}: matrix is not SPD: pivot {last} " in message
    assert message.endswith(" in cell 3")


def test_green_store_failure_cancels_pending_blocks(monkeypatch):
    mesh = build_mesh(2, 2, 3)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 3)
    grid = build_sparse_grid(3, 2)  # 25 nodes, one per block
    monkeypatch.setattr(st, "STORE_BLOCK_ENTRIES", 1)
    exact = fem.packed_inverses
    calls = []

    def slow(bands, out=None):
        calls.append(None)
        time.sleep(0.05)  # so later blocks still queue when node 0 fails
        return exact(bands, out)

    monkeypatch.setattr(fem, "packed_inverses", slow)
    _inject_indefinite(monkeypatch, mesh, model, grid, {(0, 0): 0})
    with pytest.raises(np.linalg.LinAlgError, match="grid node 0: "):
        precompute_green_inverses(mesh, model, grid, 3)
    # node 0 twice (its block and the redo), and the few blocks already
    # running on the other workers
    assert len(calls) < grid.n_nodes // 2


@pytest.mark.parametrize("nx,r,step,L", [
    pytest.param(8, 3, 16, 2, id="8-3"), pytest.param(2, 7, 1, 2, id="2-7"),
    pytest.param(4, 7, None, 4, id="4-7-default-blocks")])
def test_green_store_matches_node_loop(monkeypatch, nx, r, step, L):
    # at r=3 blocks of 16 of the 25 nodes; at r=7 (nK=36) one node a block,
    # and on 4x4 cells the default budget's blocks of 128 of the 177 nodes,
    # the last partial; the nx/2 x nx/2 cells of the lower-left quarter are
    # stored
    mesh = build_mesh(nx, nx, r)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 5)
    grid = build_sparse_grid(3, L)
    cells = (nx // 2) ** 2
    entries = cells * mesh.n_interior ** 2
    if step is None:
        step = st.STORE_BLOCK_ENTRIES // entries
        assert 1 < step < grid.n_nodes and grid.n_nodes % step
    monkeypatch.setattr(st, "STORE_BLOCK_ENTRIES", step * entries)
    store = precompute_green_inverses(mesh, model, grid, 3)
    assert len(store.cells) == cells
    assert np.array_equal(store.matrices, green_store_loop(
        mesh, model, grid, 3)[:, store.cells])


def test_green_store_one_worker_reuses_its_buffers(monkeypatch):
    # one worker fills and inverts the same buffers for blocks of 2, 2 and
    # 1 nodes of the 4 representative cells: each node's product lands in
    # its columns of the block's column slice of one band buffer, whose
    # rows no block writes stay zero, and is gathered afresh into the
    # packed stack's prefix
    mesh = build_mesh(4, 4, 4)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 5)
    grid = build_sparse_grid(2, 1)
    monkeypatch.setattr(st, "STORE_BLOCK_ENTRIES",
                        2 * 4 * mesh.n_interior ** 2)
    monkeypatch.setattr(st, "_usable_cpus", lambda cap: 1)
    exact_bands, fills = fem.LocalAssembler.interior_bands, []
    exact, stacks = fem.packed_inverses, []

    def filled(self, kappa, out=None):
        fills.append(out.__array_interface__["data"][0])
        return exact_bands(self, kappa, out)

    def recorded(bands, out=None):
        stacks.append(out.__array_interface__["data"][0])
        return exact(bands, out)

    monkeypatch.setattr(fem.LocalAssembler, "interior_bands", filled)
    monkeypatch.setattr(fem, "packed_inverses", recorded)
    store = precompute_green_inverses(mesh, model, grid, 2)
    monkeypatch.undo()
    # nodes 0, 2 and 4 fill the buffer's first columns, 1 and 3 the next
    assert len(fills) == 5 and fills[0::2] == [fills[0]] * 3
    assert fills[1::2] == [fills[0] + 8 * 4] * 2
    assert len(stacks) == 3 and len(set(stacks)) == 1
    assert np.array_equal(store.matrices, green_store_loop(
        mesh, model, grid, 2)[:, store.cells])


def test_green_store_many_workers_stress(monkeypatch):
    # 8 workers on 1-node blocks, switching threads every microsecond: a
    # block written to the wrong rows or lost shows against the loop
    mesh = build_mesh(4, 4, 3)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 5)
    grid = build_sparse_grid(3, 2)
    monkeypatch.setattr(st, "STORE_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(st, "_usable_cpus", lambda cap: min(8, cap))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        store = precompute_green_inverses(mesh, model, grid, 3)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(store.matrices, green_store_loop(
        mesh, model, grid, 3)[:, store.cells])


def test_green_store_independent_of_threads_and_cpus():
    # 9 blocks: a pool of one worker per CPU, or of 9
    workers, digest = child_output("store", 1)
    assert int(workers) == min(9, len(os.sched_getaffinity(0)))
    assert child_output("store", 2) == (workers, digest)
    assert child_output("store", 1, one_cpu=True) == ("1", digest)


def test_interpolated_green_matches_one_gemm(monkeypatch):
    # 6 representative cells of 10 packed entries: 60 columns in 8 tiles,
    # shared unevenly by 2, 4 and 7 workers (cut at whole cells, 4 workers'
    # ranges would start inside tiles); 389 nodes are one whole block of
    # CONTRACT_BLOCK_NODES and part of another
    mesh = build_mesh(3, 5, 3)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 6)
    grid = build_sparse_grid(6, 3)
    assert st.CONTRACT_BLOCK_NODES < grid.n_nodes
    assert grid.n_nodes % st.CONTRACT_BLOCK_NODES
    store = precompute_green_inverses(mesh, model, grid, 6)
    points = np.random.default_rng(5).uniform(-1.0, 1.0, (5, 6))
    ref = interpolated_green_gemm(store, points)
    first = None
    for workers in (1, 2, 4, 7):
        monkeypatch.setattr(st, "_usable_cpus",
                            lambda cap, n=workers: min(n, cap))
        G = st._interpolated_green(store, points)
        assert G.shape == ref.shape
        assert np.abs(G - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(G, G.swapaxes(-1, -2))
        if first is None:
            first = G
        # every worker count sums each entry in the same order
        assert np.array_equal(G, first)


def test_interpolated_green_independent_of_point_count(monkeypatch):
    # a point's interpolant has the same bits however many points share the
    # contraction, one (given without a leading axis, and with one group
    # element padded with a zero row) included, and however many workers
    # share it: point s has rows s * elements + g for any N.  Stores of 6,
    # 9 and 15 representative cells of 10 packed entries: 60, 90 and 150
    # columns, 90 ending 2 columns past a whole tile, where C-ordered
    # weights changed bits with N
    points = np.random.default_rng(5).uniform(-1.0, 1.0, (8, 6))
    for nx, ny, columns in ((3, 5, 60), (5, 5, 90), (5, 9, 150)):
        mesh = build_mesh(nx, ny, 3)
        model = build_kle_model(mesh, 1.0, 0.2, 0.2, 6)
        store = precompute_green_inverses(mesh, model,
                                          build_sparse_grid(6, 3), 6)
        assert len(store.node_perms) == 4
        assert len(store.cells) * store.matrices.shape[2] == columns
        monkeypatch.undo()
        every = st._interpolated_green(store, points)
        for workers in (1, 2, 7):
            monkeypatch.setattr(st, "_usable_cpus",
                                lambda cap, n=workers: min(n, cap))
            for N in range(1, 9):
                G = st._interpolated_green(store, points[:N])
                assert np.array_equal(G, every[:N])
            for s in (0, 7):
                assert np.array_equal(
                    st._interpolated_green(store, points[s]), every[s])


def test_interpolated_green_independent_of_threads_and_cpus():
    workers, digest = child_output("green", 1)
    assert int(workers) == len(os.sched_getaffinity(0))
    assert child_output("green", 2) == (workers, digest)
    assert child_output("green", 1, one_cpu=True) == ("1", digest)


@pytest.mark.parametrize("driver", ["mc", "colloc"])
def test_banded_drivers_independent_of_threads_and_cpus(driver):
    # r=6 (nK=25) is banded: in Monte Carlo the standard basis and the fine
    # solve run on the worker, in collocation the store is inverted by the
    # banded packed_inverses; the runs keep their bits under 1 and 2 BLAS
    # threads and on one CPU
    digest = child_output(driver, 1)
    assert child_output(driver, 2) == digest
    assert child_output(driver, 1, one_cpu=True) == digest


def test_batched_monte_carlo_independent_of_threads():
    # a whole 16x16, r=4 driver call keeps the bits of its means under 1
    # and 2 BLAS threads; the banded 2x2, r=6 call is checked likewise by
    # test_banded_drivers_independent_of_threads_and_cpus
    assert child_output("mc-batched", 1) == child_output("mc-batched", 2)


@pytest.mark.parametrize("r", [3, 5])
def test_monte_carlo_fine_solves_share_one_worker(monkeypatch, r):
    # one worker per driver call, in both regimes: every sample's fine
    # solve runs on the same thread, which has ended when the call
    # returns, and the means are those of samples run one pool each
    mesh = build_mesh(2, 2, r)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 5)
    config = StochasticConfig(mesh=mesh, model=model, m=3, J_list=(0, 1),
                              seed=123)
    recs = [msfem.sample_errors(
        mesh, split_kle(model, sample_theta(123, s, model.n), 3), (0, 1),
        reference=True) for s in range(3)]
    solver, ran_on = fem.fine_reference_solver, []

    def recorded_solver(*args):
        solve = solver(*args)

        def recorded_solve():
            ran_on.append(threading.current_thread())
            return solve()
        return recorded_solve

    monkeypatch.setattr(fem, "fine_reference_solver", recorded_solver)
    threads = threading.active_count()
    stats = monte_carlo_run(config, 3)
    assert threading.active_count() == threads
    assert len(ran_on) == 3 and len(set(ran_on)) == 1
    assert ran_on[0] is not threading.main_thread()
    assert np.array_equal(stats.mean_uh, sum(rec.u_h for rec in recs) / 3)
    assert stats.u_energy_mean == sum(rec.u_energy for rec in recs) / 3


def test_interpolated_basis_exact_at_grid_node():
    mesh, model, grid, store = _small_setup(L=2)
    theta = np.zeros(model.n)
    theta[:store.grid.m] = grid.nodes[5]
    theta[store.grid.m:] = sample_theta(11, 0, model.n)[store.grid.m:]
    split = split_kle(model, theta, store.grid.m)
    green = st._interpolated_green(store, theta[:store.grid.m])
    for cell in (0, 10):
        ops = fem.assemble_local_operators(mesh, [cell], split)
        exact = basis_mod.iterative_bases(ops, [2])[2][0]
        col = basis_mod.iterative_bases(ops, [2], green[[cell]])[2][0]
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
    green = st._interpolated_green(store, theta[:store.grid.m])
    col = basis_mod.iterative_bases(ops, [0], green[[1]])[0][0][0, :, 3]
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


@pytest.mark.parametrize("stage", ["fine", "msfem"])
def test_overlapped_sample_failure_reaches_caller(monkeypatch, stage):
    # the fine solve runs on a worker thread beside the MsFEM stage: a
    # failure of either reaches the caller, and the worker, here still
    # busy when the MsFEM stage fails, has ended when the call returns
    mesh, model, _, _ = _small_setup()
    config = StochasticConfig(mesh=mesh, model=model, m=3, J_list=(0, 1),
                              seed=123)
    solver = fem.fine_reference_solver

    def fine_failure():
        raise np.linalg.LinAlgError("fine stage failed")

    def slow_solver(*args):
        solve = solver(*args)

        def slow_solve():
            time.sleep(0.2)
            return solve()
        return slow_solve

    def msfem_failure(ops, solve):
        raise np.linalg.LinAlgError("msfem stage failed")

    if stage == "fine":
        monkeypatch.setattr(fem, "fine_reference_solver",
                            lambda *args: fine_failure)
    else:
        monkeypatch.setattr(fem, "fine_reference_solver", slow_solver)
        monkeypatch.setattr(basis_mod, "standard_bases", msfem_failure)
    threads = threading.active_count()
    with pytest.raises(RuntimeError,
                       match=f"sample 0 failed: {stage} stage failed"):
        monte_carlo_run(config, 2)
    assert threading.active_count() == threads


@pytest.mark.parametrize("stage", ["standard", "fine assembly", "fine"])
def test_overlapped_banded_sample_failure_reaches_caller(monkeypatch, stage):
    # at r=5 (nK=16, banded) the standard basis runs on the worker, queued
    # before the fine solve: its failure reaches the caller, and so does a
    # fine stage failing while the standard basis is still on the worker,
    # in the band assembly on the calling thread or in the solve queued
    # behind it; the worker has ended when the call returns
    mesh = build_mesh(2, 2, 5)
    assert fem.is_banded(mesh.n_interior)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 5)
    config = StochasticConfig(mesh=mesh, model=model, m=3, J_list=(0, 1),
                              seed=123)
    standard, solver = basis_mod.standard_bases, fem.fine_reference_solver
    ran_on = []

    def slow_standard(ops):
        ran_on.append(threading.current_thread())
        if stage == "standard":
            raise np.linalg.LinAlgError("standard stage failed")
        time.sleep(0.2)
        return standard(ops)

    def failing_solver(*args):
        if stage == "fine assembly":
            raise ValueError("fine assembly stage failed")
        solver(*args)

        def fine_failure():
            raise np.linalg.LinAlgError("fine stage failed")
        return fine_failure

    monkeypatch.setattr(basis_mod, "standard_bases", slow_standard)
    if stage != "standard":
        monkeypatch.setattr(fem, "fine_reference_solver", failing_solver)
    threads = threading.active_count()
    with pytest.raises(RuntimeError,
                       match=f"sample 0 failed: {stage} stage failed"):
        monte_carlo_run(config, 2)
    assert threading.active_count() == threads
    assert len(ran_on) == 1 and ran_on[0] is not threading.current_thread()


@pytest.mark.parametrize("driver", ["mc", "colloc"])
def test_failing_sample_is_named_and_ends_the_run(monkeypatch, driver):
    # the third of four samples fails: the driver names it and runs no later
    # sample, and its worker threads have ended when the call returns
    mesh, model, _, store = _small_setup(L=1)
    config = StochasticConfig(mesh=mesh, model=model, m=3, J_list=(0, 1),
                              seed=5)
    sample_errors, ran = msfem.sample_errors, []

    def third_fails(*args, **kwargs):
        ran.append(args)
        if len(ran) == 3:
            raise np.linalg.LinAlgError("injected failure")
        return sample_errors(*args, **kwargs)

    monkeypatch.setattr(msfem, "sample_errors", third_fails)
    threads = threading.active_count()
    with pytest.raises(RuntimeError,
                       match="sample 2 failed: injected failure"):
        if driver == "mc":
            monte_carlo_run(config, 4)
        else:
            collocation_run(config, 4, store)
    assert len(ran) == 3
    assert threading.active_count() == threads


def _numbers(value):
    """Every number a statistics field holds, dict values included."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    else:
        yield np.asarray(value, dtype=float)


def test_driver_statistics_hold_only_finite_numbers():
    # every field of both drivers' results is a finite number or array of
    # them, so no placeholder (None reads as NaN) is left; and each result
    # has what the benchmark's checks read
    mesh, model, _, store = _small_setup(L=1)
    config = StochasticConfig(mesh=mesh, model=model, m=3, J_list=(0, 1),
                              seed=5)
    mc = monte_carlo_run(config, 2)
    col = collocation_run(config, 2, store)
    for stats in (mc, col):
        assert dataclasses.is_dataclass(stats)
        for f in dataclasses.fields(stats):
            assert all(np.isfinite(a).all()
                       for a in _numbers(getattr(stats, f.name))), f.name
    assert mc.eta_max < 1.0
    assert set(mc.bounds) == set(mc.mean_error) == {0, 1}
    assert not hasattr(col, "bounds") and not hasattr(mc, "extra")
    for key in ("e", "e_spl", "e_col", "green_not_spd"):
        assert col.extra[key].shape == (2,)


@pytest.mark.parametrize("J_list", [(), [], (1, -1), (-2,)])
def test_drivers_refuse_empty_or_negative_J_list(monkeypatch, J_list):
    # refused, naming the field, when either driver's config is made, so
    # no sample is drawn; the config is frozen, so it stays as checked
    mesh, model, _, store = _small_setup(L=1)
    drawn = []
    monkeypatch.setattr(st, "sample_theta", lambda *args: drawn.append(args))
    for driver in (lambda config: monte_carlo_run(config, 2),
                   lambda config: collocation_run(config, 2, store)):
        with pytest.raises(ValueError, match="J_list must hold at least "
                                             "one J >= 0"):
            driver(StochasticConfig(mesh=mesh, model=model, m=3,
                                    J_list=J_list, seed=5))
    config = StochasticConfig(mesh=mesh, model=model, m=3, J_list=(1,),
                              seed=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.J_list = J_list
    # collocation_run's own J as well
    with pytest.raises(ValueError, match="J must be >= 0, not -1"):
        collocation_run(config, 2, store, J=-1)
    assert not drawn


def test_config_refuses_negative_seed():
    # numpy's generator refused it only when the first sample was drawn
    mesh = build_mesh(2, 2, 3)
    model = build_kle_model(mesh, 1.0, 0.2, 0.2, 3)
    with pytest.raises(ValueError, match=r"^seed=-1 must be >= 0$"):
        StochasticConfig(mesh=mesh, model=model, m=2, J_list=(1,), seed=-1)
    assert StochasticConfig(mesh=mesh, model=model, m=2, J_list=(1,),
                            seed=0).seed == 0


@pytest.mark.parametrize("m", [6, -1])
def test_drivers_refuse_m_outside_the_kle_terms(monkeypatch, m):
    # m outside [0, n] is refused, naming m and the range, when either
    # driver's config is made, not reported as the failure of sample 0
    mesh, model, _, store = _small_setup(L=1, n=5)
    drawn = []
    monkeypatch.setattr(st, "sample_theta", lambda *args: drawn.append(args))
    for driver in (lambda config: monte_carlo_run(config, 2),
                   lambda config: collocation_run(config, 2, store)):
        with pytest.raises(ValueError, match=rf"^m={m} outside \[0, 5\]$"):
            driver(StochasticConfig(mesh=mesh, model=model, m=m,
                                    J_list=(0, 1), seed=5))
    assert not drawn


@pytest.mark.parametrize("nx, ny", [(8, 2), (8, 8)])
def test_field_from_another_fine_grid_is_refused(monkeypatch, nx, ny):
    # a model on a 32x8 fine grid has as many fine cells as the 16x16 mesh
    # and one on 32x32 has more; both are refused, naming both grids,
    # before a driver can sample, a store block is inverted or a sample's
    # stages run
    mesh = build_mesh(4, 4, 4)
    other = build_mesh(nx, ny, 4)
    model = build_kle_model(other, 1.0, 0.2, 0.2, 5)
    split = split_kle(model, sample_theta(5, 0, 5), 3)
    started = []
    for name in ("packed_inverses", "assemble_local_operators",
                 "fine_reference_solver"):
        monkeypatch.setattr(fem, name, lambda *args: started.append(args))
    grids = f"{4 * nx}x{4 * ny} fine grid, not the mesh's 16x16"
    with pytest.raises(ValueError, match=f"model is on a {grids}"):
        StochasticConfig(mesh=mesh, model=model, m=3, J_list=(1,), seed=5)
    with pytest.raises(ValueError, match=f"model is on a {grids}"):
        precompute_green_inverses(mesh, model, build_sparse_grid(3, 1), 3)
    for reference in (False, True):
        with pytest.raises(ValueError, match=f"splitting is on a {grids}"):
            msfem.sample_errors(mesh, split, [1], reference=reference)
    assert not started


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
    # one representative's inverse negated: the 4 cells of its orbit
    # counted in every sample, run completes
    store.matrices[:, 3] *= -1.0
    rep = store.unpack[:, 0, 0] // store.matrices.shape[2] % len(store.cells)
    assert np.sum(rep == 3) == 4
    assert np.array_equal(
        collocation_run(config, 3, store).extra["green_not_spd"], [4, 4, 4])
    # no cell SPD: the store is wrong, and the first sample says so
    store.matrices[:] = -exact
    with pytest.raises(RuntimeError, match="sample 0 failed: .*SPD in no"):
        collocation_run(config, 3, store)


def test_collocation_refuses_store_of_another_config():
    # a store at m=2 beside a k1 split at m=3 would pair the interpolant of
    # one M0 with the remainder of another
    mesh, model, grid, store = _small_setup(m=2)
    config = StochasticConfig(mesh=mesh, model=model, m=2,
                              J_list=(1,), seed=5)
    collocation_run(config, 1, store)
    other_mesh = build_mesh(4, 4, 3)
    other_model = build_kle_model(other_mesh, 1.0, 0.2, 0.2, 5)
    for bad in ({"m": 3}, {"mesh": other_mesh}, {"model": other_model},
                {"mesh": other_mesh, "model": other_model}):
        wrong = dataclasses.replace(config, **bad)
        with pytest.raises(ValueError, match="store was not built"):
            collocation_run(wrong, 1, store)


def test_interpolated_registry_with_exact_green_equals_iterative():
    mesh, model, grid, store = _small_setup(L=2)
    full = _unpacked(green_store_loop(mesh, model, grid, 3))
    for i in range(grid.n_nodes):
        green = st._interpolated_green(store, grid.nodes[i])
        assert np.abs(green - full[i]).max() <= \
            1e-12 * np.abs(full[i]).max()
    theta = sample_theta(31, 0, model.n)
    split = split_kle(model, theta, store.grid.m)
    exact_green = np.array([
        np.linalg.inv(fem.stencil_to_dense(
            fem.assemble_local_operators(mesh, c, split).M0))
        for c in range(mesh.n_coarse_cells)])
    J_list = (0, 1, 2)
    iterative = build_iterative_registries(mesh, split, J_list)
    collocated = build_iterative_registries(mesh, split, J_list,
                                            green=exact_green)
    for J in J_list:
        col = collocated[J]
        assert col.shape == iterative[J].shape
        assert np.abs(col - iterative[J]).max() <= 1e-12
