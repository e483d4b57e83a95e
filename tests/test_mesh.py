import numpy as np
import pytest

from msfem_split import build_mesh


def test_single_cell_counts():
    mesh = build_mesh(1, 1, 2)
    assert mesh.n_coarse_cells == 1
    assert mesh.n_interior == 1
    assert len(mesh.local_interior_nodes(0)) == 1


def test_reference_scale_meshes():
    mesh = build_mesh(12, 12, 10)
    assert (mesh.nxf, mesh.nyf) == (120, 120)
    mesh = build_mesh(16, 16, 4)
    assert (mesh.nxf, mesh.nyf) == (64, 64)


@pytest.mark.parametrize("bad", [(0, 1, 2), (1, 0, 2), (-1, 1, 2), (1, 1, 1)])
def test_invalid_arguments(bad):
    with pytest.raises(ValueError):
        build_mesh(*bad)


def test_interior_node_counts():
    mesh = build_mesh(3, 2, 10)
    for cell in range(mesh.n_coarse_cells):
        assert len(mesh.local_interior_nodes(cell)) == 81


def test_interior_nodes_deterministic():
    mesh = build_mesh(3, 3, 4)
    a = mesh.local_interior_nodes(4)
    b = mesh.local_interior_nodes(4)
    assert np.array_equal(a, b)


def test_out_of_range_cell():
    mesh = build_mesh(2, 2, 3)
    with pytest.raises(ValueError):
        mesh.cell_fine_nodes(4)
    with pytest.raises(ValueError):
        mesh.cell_fine_cells(-1)


def test_cell_addressing_accepts_sequences():
    mesh = build_mesh(3, 2, 4)
    for cells in ([0, 3], (5, 1, 2), [4]):
        arr = np.asarray(cells)
        for address in (mesh.cell_coords, mesh.cell_fine_nodes,
                        mesh.cell_fine_cells, mesh.local_interior_nodes,
                        mesh.cell_vertices):
            assert np.array_equal(address(cells), address(arr))


def test_cell_fine_cells_partition_domain():
    mesh = build_mesh(3, 4, 5)
    seen = np.concatenate([mesh.cell_fine_cells(c)
                           for c in range(mesh.n_coarse_cells)])
    assert len(seen) == mesh.n_fine_cells
    assert np.array_equal(np.sort(seen), np.arange(mesh.n_fine_cells))


def test_shared_edge_nodes_are_boundary_not_interior():
    # a fine node on an interior coarse edge belongs to exactly two cells,
    # always through their boundary (non-interior) node sets
    mesh = build_mesh(2, 1, 4)
    left = mesh.cell_fine_nodes(0)
    right = mesh.cell_fine_nodes(1)
    shared = np.intersect1d(left, right)
    assert len(shared) == mesh.nyf + 1
    assert not np.intersect1d(shared, mesh.local_interior_nodes(0)).size
    assert not np.intersect1d(shared, mesh.local_interior_nodes(1)).size


def test_corner_node_in_four_cells():
    mesh = build_mesh(2, 2, 3)
    sets = [set(mesh.cell_fine_nodes(c)) for c in range(4)]
    center = mesh.coarse_vertex_fine_node(4)
    assert all(center in s for s in sets)


def test_coarse_vertices_coincide_with_fine_nodes():
    mesh = build_mesh(3, 2, 4)
    coords = mesh.fine_node_coords()
    for cell in range(mesh.n_coarse_cells):
        cx, cy = mesh.cell_coords(cell)
        verts = mesh.cell_vertices(cell)
        nodes = [mesh.coarse_vertex_fine_node(v) for v in verts]
        expect = np.array([[cx, cy], [cx + 1, cy],
                           [cx + 1, cy + 1], [cx, cy + 1]], float)
        expect[:, 0] /= mesh.nx_coarse
        expect[:, 1] /= mesh.ny_coarse
        assert np.allclose(coords[nodes], expect)


def test_boundary_mask_count():
    mesh = build_mesh(2, 3, 5)
    mask = mesh.boundary_node_mask()
    nx, ny = mesh.nxf + 1, mesh.nyf + 1
    assert mask.sum() == 2 * nx + 2 * ny - 4


def test_interior_coarse_vertices():
    mesh = build_mesh(3, 3, 2)
    assert np.array_equal(mesh.interior_coarse_vertices(),
                          [5, 6, 9, 10])
    assert build_mesh(1, 1, 2).interior_coarse_vertices().size == 0
