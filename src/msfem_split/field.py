"""Coefficient fields, splittings k = k0 + k1, and the KLE machinery.

Fields are numpy arrays of per-fine-cell constant values (row-major over the
global fine grid).  Random log-coefficients use a truncated Karhunen-Loeve
expansion; eigenpairs come from a dense Nystrom discretization of the
covariance kernel on cell centers.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

# dense eigendecomposition is used up to this many generation cells;
# above it only the leading eigenpairs are extracted iteratively
_DENSE_EIG_LIMIT = 2000

# largest per-axis generation grid for the dense covariance matrix
MAX_GENERATION_CELLS = 64


@dataclass
class Splitting:
    """Cellwise splitting k = k0 + k1 with its contrast ratios."""

    mesh: object
    k0: np.ndarray
    k1: np.ndarray
    k: np.ndarray
    eta_global: float
    eta_per_cell: np.ndarray


def make_splitting(mesh, k0, k1):
    """Validate a cellwise splitting and compute its contrast ratios."""
    k0 = np.asarray(k0, float)
    k1 = np.asarray(k1, float)
    if k0.shape != (mesh.n_fine_cells,) or k1.shape != (mesh.n_fine_cells,):
        raise ValueError("field length must equal the fine-cell count")
    if np.any(k0 <= 0.0):
        raise ValueError("k0 must be strictly positive")
    k = k0 + k1
    if np.any(k <= 0.0):
        raise ValueError("k = k0 + k1 must be strictly positive")
    ratio = np.abs(k1) / k0
    blocks = ratio.reshape(mesh.ny_coarse, mesh.r, mesh.nx_coarse, mesh.r)
    eta_cell = blocks.max(axis=(1, 3)).ravel()
    return Splitting(mesh=mesh, k0=k0, k1=k1, k=k,
                     eta_global=float(ratio.max()),
                     eta_per_cell=eta_cell)


def eta(splitting, region=None):
    """Contrast ratio max |k1|/k0 over a coarse cell or the whole domain."""
    if region is None:
        return splitting.eta_global
    splitting.mesh._check_cell(region)
    return float(splitting.eta_per_cell[region])


def shift_splitting(splitting, margin=0.01):
    """Repair a splitting with eta >= 1 by a constant shift of k0 and k1.

    The shift s exceeds sup max((k1-k0)/2, -k0) by the given relative
    margin, which guarantees the shifted contrast ratio drops below one.
    Splittings already satisfying eta < 1 are returned unchanged.
    """
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    if splitting.eta_global < 1.0:
        return splitting
    bound = np.maximum((splitting.k1 - splitting.k0) / 2.0,
                       -splitting.k0).max()
    s = (1.0 + margin) * bound
    if s <= 0.0:
        s = margin * splitting.k0.max()
    return make_splitting(splitting.mesh, splitting.k0 + s, splitting.k1 - s)


# ---- Karhunen-Loeve expansion ---------------------------------------------


@dataclass
class KLEModel:
    """Truncated KLE of the log-coefficient on a mesh's fine cells."""

    mesh: object
    mean_field: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # (n, n_fine_cells)
    n: int
    sigma2: float
    lx: float
    ly: float
    generation_shape: tuple


def covariance_kernel(p1, p2, sigma2, lx, ly):
    """Separable squared-exponential covariance of the log-field."""
    dx2 = (p1[:, None, 0] - p2[None, :, 0]) ** 2
    dy2 = (p1[:, None, 1] - p2[None, :, 1]) ** 2
    return sigma2 * np.exp(-dx2 / (2.0 * lx) - dy2 / (2.0 * ly))


def _generation_axis(nf, max_cells):
    """Largest divisor of the fine-cell count not exceeding max_cells."""
    g = min(nf, max_cells)
    while nf % g:
        g -= 1
    return g


def build_kle_model(mesh, sigma2, lx, ly, n, mean_field=None,
                    max_generation=MAX_GENERATION_CELLS):
    """Nystrom eigenpairs of the covariance operator on fine-cell centers.

    Grids above max_generation cells per axis are handled by solving the
    eigenproblem on the largest divisor grid and injecting the piecewise
    constant eigenfunctions onto the fine cells, so refinements of the same
    generation grid see the identical random field.
    """
    if sigma2 <= 0.0 or lx <= 0.0 or ly <= 0.0:
        raise ValueError("sigma2, lx and ly must be positive")
    gx = _generation_axis(mesh.nxf, max_generation)
    gy = _generation_axis(mesh.nyf, max_generation)
    n_gen = gx * gy
    if not 1 <= n <= n_gen:
        raise ValueError(f"truncation n={n} outside [1, {n_gen}]")

    x = (np.arange(gx) + 0.5) / gx
    y = (np.arange(gy) + 0.5) / gy
    xx, yy = np.meshgrid(x, y, indexing="xy")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    area = 1.0 / n_gen
    cov = covariance_kernel(pts, pts, sigma2, lx, ly)
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise RuntimeError("numerical covariance lost symmetry")
    B = area * cov

    if n_gen <= _DENSE_EIG_LIMIT or n > n_gen // 4:
        w, u = sla.eigh(B)
        w = w[::-1][:n]
        u = u[:, ::-1][:, :n]
    else:
        w, u = spla.eigsh(B, k=n, which="LA", v0=np.ones(n_gen))
        order = np.argsort(w)[::-1]
        w = w[order]
        u = u[:, order]
    w = np.clip(w, 0.0, None)

    # orthonormal w.r.t. the area-weighted inner product, fixed sign
    b = u.T / np.sqrt(area)
    flip = b[np.arange(n), np.abs(b).argmax(axis=1)] < 0
    b[flip] *= -1.0

    # inject generation-cell values onto the fine cells
    px = mesh.nxf // gx
    py = mesh.nyf // gy
    b_gen = b.reshape(n, gy, gx)
    b_fine = np.repeat(np.repeat(b_gen, py, axis=1), px, axis=2)
    b_fine = b_fine.reshape(n, mesh.n_fine_cells)

    if mean_field is None:
        mean_field = np.zeros(mesh.n_fine_cells)
    else:
        mean_field = np.asarray(mean_field, float)
        if mean_field.shape != (mesh.n_fine_cells,):
            raise ValueError("mean field length must equal the fine-cell count")

    return KLEModel(mesh=mesh, mean_field=mean_field, eigenvalues=w,
                    eigenfunctions=b_fine, n=n, sigma2=sigma2, lx=lx, ly=ly,
                    generation_shape=(gx, gy))


def log_field_partial(model, theta, m):
    """Log-coefficient using only the first m KLE terms."""
    theta = np.asarray(theta, float)
    Y = model.mean_field.copy()
    if m > 0:
        Y += (np.sqrt(model.eigenvalues[:m]) * theta[:m]) @ \
            model.eigenfunctions[:m]
    return Y


def realize_log_field(model, theta):
    """Coefficient k = exp(Y) for a full parameter vector."""
    theta = np.asarray(theta, float)
    if theta.shape != (model.n,):
        raise ValueError(f"theta must have length {model.n}")
    return np.exp(log_field_partial(model, theta, model.n))


def split_kle(model, theta, m):
    """Splitting with k0 from the first m KLE terms and k1 = k - k0."""
    theta = np.asarray(theta, float)
    if theta.shape != (model.n,):
        raise ValueError(f"theta must have length {model.n}")
    if not 0 <= m <= model.n:
        raise ValueError(f"m={m} outside [0, {model.n}]")
    k = realize_log_field(model, theta)
    k0 = np.exp(log_field_partial(model, theta, m))
    return make_splitting(model.mesh, k0, k - k0)


def split_lognormal(mesh, Y, sc):
    """Strength-factor splitting of a log-normal field exp(Y).

    k0 = exp(sc * Y) and k1 = exp(Y) - exp(sc * Y).
    """
    if not 0.0 < sc <= 1.0:
        raise ValueError("strength factor sc must lie in (0, 1]")
    Y = np.asarray(Y, float)
    k0 = np.exp(sc * Y)
    return make_splitting(mesh, k0, np.exp(Y) - k0)


def energy_ratio(model, m):
    """Fraction of sum sqrt(lambda_i) captured by the first m terms."""
    if not 0 <= m <= model.n:
        raise ValueError(f"m={m} outside [0, {model.n}]")
    roots = np.sqrt(model.eigenvalues)
    total = roots.sum()
    if total == 0.0:
        return 1.0 if m == model.n else 0.0
    return float(roots[:m].sum() / total)


# ---- export ----------------------------------------------------------------


def field_to_rows(mesh, values):
    """(cell, x-center, y-center, value) rows for CSV export."""
    centers = mesh.fine_cell_centers()
    return [(i, centers[i, 0], centers[i, 1], values[i])
            for i in range(mesh.n_fine_cells)]
