"""Coefficient fields, splittings k = k0 + k1, and the KLE machinery.

Fields are numpy arrays of per-fine-cell constant values (row-major over the
global fine grid).  Random log-coefficients use a truncated Karhunen-Loeve
expansion; its eigenpairs are products of 1D Nystrom eigenpairs of the
separable covariance kernel on cell centers.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

# largest per-axis generation grid of the KLE; finer meshes whose cell
# counts share it see the identical random field
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


def _generation_axis(nf):
    """Largest divisor of the fine-cell count up to MAX_GENERATION_CELLS.

    Raises rather than coarsen the field below half the resolution the
    cap allows.
    """
    cap = min(nf, MAX_GENERATION_CELLS)
    g = cap
    while nf % g:
        g -= 1
    if 2 * g < cap:
        raise ValueError(
            f"an axis of {nf} fine cells would get a KLE generation grid of "
            f"only {g} cells")
    return g


def _axis_eigenpairs(g, length):
    """Nystrom eigenpairs of exp(-dx^2/2l) on the g cell centers of [0, 1].

    Eigenvalues descend and are clipped at zero; eigenvectors are scaled to
    unit norm in the cell-area inner product.  Each eigenvector is symmetric
    or antisymmetric, so its largest magnitude sits at mirror-image cells
    and round-off picks which one is larger; the sign therefore makes the
    first entry of at least half the largest magnitude positive.
    """
    x = (np.arange(g) + 0.5) / g
    K = np.exp(-(x[:, None] - x[None, :]) ** 2 / (2.0 * length)) / g
    if not np.array_equal(K, K.T):
        raise RuntimeError("numerical covariance lost symmetry")
    w, u = sla.eigh(K)
    w, u = np.clip(w[::-1], 0.0, None), u[:, ::-1]
    mag = np.abs(u)
    first = (mag >= 0.5 * mag.max(axis=0)).argmax(axis=0)
    return w, u * (np.sign(u[first, np.arange(g)]) * np.sqrt(g))


def build_kle_model(mesh, sigma2, lx, ly, n, mean_field=None):
    """Nystrom eigenpairs of the covariance operator on a generation grid.

    The kernel is separable and the grid a tensor grid, so the eigenpairs
    are products of the 1D pairs of each axis, ordered by descending
    eigenvalue; exact ties (identical axes) keep row-major (y, x) mode
    order.  The generation grid has at most MAX_GENERATION_CELLS cells per
    axis, dividing the fine grid, and the piecewise constant eigenfunctions
    are injected onto the fine cells, so refinements of the same generation
    grid see the identical random field.
    """
    if sigma2 <= 0.0 or lx <= 0.0 or ly <= 0.0:
        raise ValueError("sigma2, lx and ly must be positive")
    gx = _generation_axis(mesh.nxf)
    gy = _generation_axis(mesh.nyf)
    if not 1 <= n <= gx * gy:
        raise ValueError(f"truncation n={n} outside [1, {gx * gy}]")

    wx, ux = _axis_eigenpairs(gx, lx)
    wy, uy = _axis_eigenpairs(gy, ly)
    # the outer product before sigma2, so that tied products are bitwise equal
    products = sigma2 * np.outer(wy, wx).ravel()
    modes = np.argsort(-products, kind="stable")[:n]
    j, i = np.divmod(modes, gx)
    b_gen = uy.T[j, :, None] * ux.T[i, None, :]

    # inject generation-cell values onto the fine cells
    px = mesh.nxf // gx
    py = mesh.nyf // gy
    b_fine = np.repeat(np.repeat(b_gen, py, axis=1), px, axis=2)
    b_fine = b_fine.reshape(n, mesh.n_fine_cells)

    if mean_field is None:
        mean_field = np.zeros(mesh.n_fine_cells)
    else:
        mean_field = np.asarray(mean_field, float)
        if mean_field.shape != (mesh.n_fine_cells,):
            raise ValueError("mean field length must equal the fine-cell count")

    return KLEModel(mesh=mesh, mean_field=mean_field,
                    eigenvalues=products[modes], eigenfunctions=b_fine, n=n,
                    sigma2=sigma2, lx=lx, ly=ly, generation_shape=(gx, gy))


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
