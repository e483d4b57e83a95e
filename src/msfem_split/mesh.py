"""Two-level structured discretization of the unit square.

A coarse quadrilateral grid covers [0,1]^2 and every coarse cell carries a
conforming r x r local fine grid.  All orderings are row-major (x fastest).
"""

import numpy as np


def _q1_connectivity(nx, ny):
    """(nx*ny, 4) node ids per cell of an nx x ny grid, row-major.

    Node order (0,0),(1,0),(1,1),(0,1).
    """
    yy, xx = np.divmod(np.arange(nx * ny), nx)
    n0 = yy * (nx + 1) + xx
    return np.column_stack([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1])


class MeshHierarchy:
    """Coarse grid of nx_coarse x ny_coarse cells, each refined r x r."""

    def __init__(self, nx_coarse, ny_coarse, r):
        if nx_coarse < 1 or ny_coarse < 1:
            raise ValueError("coarse cell counts must be >= 1")
        if r < 2:
            raise ValueError("refinement factor r must be >= 2")
        self.nx_coarse = int(nx_coarse)
        self.ny_coarse = int(ny_coarse)
        self.r = int(r)

        self.nxf = self.nx_coarse * self.r
        self.nyf = self.ny_coarse * self.r
        self.hx = 1.0 / self.nxf
        self.hy = 1.0 / self.nyf
        self.n_fine_cells = self.nxf * self.nyf
        self.n_fine_nodes = (self.nxf + 1) * (self.nyf + 1)
        self.n_coarse_cells = self.nx_coarse * self.ny_coarse
        self.n_coarse_vertices = (self.nx_coarse + 1) * (self.ny_coarse + 1)

        r = self.r
        # local node/cell index templates shared by every coarse cell
        jj, ii = np.meshgrid(np.arange(r + 1), np.arange(r + 1), indexing="ij")
        self._local_node_offsets = (jj * (self.nxf + 1) + ii).ravel()
        jj, ii = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
        self._local_cell_offsets = (jj * self.nxf + ii).ravel()
        # node ids per fine cell, of the global fine grid and of the local
        # grid of one coarse cell
        self.fine_element_nodes = _q1_connectivity(self.nxf, self.nyf)
        self.local_element_nodes = _q1_connectivity(r, r)
        interior = np.zeros((r + 1, r + 1), dtype=bool)
        interior[1:r, 1:r] = True
        self.local_interior_mask = interior.ravel()
        self.n_interior = (r - 1) ** 2

    # ---- coarse-cell addressing -------------------------------------------
    # cell may be one index or an array of them; an array gives one row per
    # cell

    def _check_cell(self, cell):
        cell = np.asarray(cell)
        if np.any((cell < 0) | (cell >= self.n_coarse_cells)):
            raise ValueError(f"coarse cell index {cell} out of range")

    def cell_coords(self, cell):
        self._check_cell(cell)
        cell = np.asarray(cell)
        return cell % self.nx_coarse, cell // self.nx_coarse

    def cell_fine_nodes(self, cell):
        """Global fine-node ids of the (r+1)^2 local nodes, row-major."""
        cx, cy = self.cell_coords(cell)
        origin = (cy * self.r) * (self.nxf + 1) + cx * self.r
        return np.add.outer(origin, self._local_node_offsets)

    def cell_fine_cells(self, cell):
        """Global fine-cell ids of the r^2 local cells, row-major."""
        cx, cy = self.cell_coords(cell)
        origin = (cy * self.r) * self.nxf + cx * self.r
        return np.add.outer(origin, self._local_cell_offsets)

    def local_interior_nodes(self, cell):
        """Global fine-node ids of the (r-1)^2 interior local nodes."""
        return self.cell_fine_nodes(cell)[..., self.local_interior_mask]

    def cell_vertices(self, cell):
        """Global coarse-vertex ids in the order (0,0),(1,0),(1,1),(0,1)."""
        cx, cy = self.cell_coords(cell)
        w = self.nx_coarse + 1
        return np.stack([cy * w + cx, cy * w + cx + 1,
                         (cy + 1) * w + cx + 1, (cy + 1) * w + cx], axis=-1)

    # ---- geometry ----------------------------------------------------------

    def fine_node_coords(self):
        x = np.linspace(0.0, 1.0, self.nxf + 1)
        y = np.linspace(0.0, 1.0, self.nyf + 1)
        xx, yy = np.meshgrid(x, y, indexing="xy")
        return np.column_stack([xx.ravel(), yy.ravel()])

    def fine_cell_centers(self):
        x = (np.arange(self.nxf) + 0.5) * self.hx
        y = (np.arange(self.nyf) + 0.5) * self.hy
        xx, yy = np.meshgrid(x, y, indexing="xy")
        return np.column_stack([xx.ravel(), yy.ravel()])

    def boundary_node_mask(self):
        mask = np.zeros((self.nyf + 1, self.nxf + 1), dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        return mask.ravel()

    def coarse_vertex_fine_node(self, vertex):
        """Fine-node id coinciding with a global coarse vertex."""
        vx = vertex % (self.nx_coarse + 1)
        vy = vertex // (self.nx_coarse + 1)
        return (vy * self.r) * (self.nxf + 1) + vx * self.r

    def interior_coarse_vertices(self):
        vy, vx = np.mgrid[1:self.ny_coarse, 1:self.nx_coarse]
        return (vy * (self.nx_coarse + 1) + vx).ravel()


def build_mesh(nx_coarse, ny_coarse, r):
    """Construct the two-level hierarchy on the unit square."""
    return MeshHierarchy(nx_coarse, ny_coarse, r)
