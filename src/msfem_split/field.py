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
    """Cellwise splitting k = k0 + k1 with its contrast max |k1|/k0."""

    mesh: object
    k0: np.ndarray
    k1: np.ndarray
    k: np.ndarray
    eta_global: float


def make_splitting(mesh, k0, k1):
    """Validate a cellwise splitting and compute its contrast."""
    k0 = np.asarray(k0, float)
    k1 = np.asarray(k1, float)
    if k0.shape != (mesh.n_fine_cells,) or k1.shape != (mesh.n_fine_cells,):
        raise ValueError("field length must equal the fine-cell count")
    if not np.all((k0 > 0.0) & (k0 < np.inf)):  # NaN fails as well
        raise ValueError("k0 must be strictly positive and finite")
    k = k0 + k1
    if not np.all((k > 0.0) & (k < np.inf)):  # so k1 is finite too
        raise ValueError("k = k0 + k1 must be strictly positive and finite")
    return Splitting(mesh=mesh, k0=k0, k1=k1, k=k,
                     eta_global=float((np.abs(k1) / k0).max()))


# ---- Karhunen-Loeve expansion ---------------------------------------------


@dataclass
class KLEModel:
    """Truncated KLE of the log-coefficient on a mesh's fine cells."""

    mesh: object
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # (n, n_fine_cells)
    n: int
    generation_shape: tuple


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

    The kernel commutes with the mirror c -> g-1-c, so it is solved once
    per parity, on the normalized e_c +- e_(g-1-c) of the lower half's
    cells c and the middle cell of an odd g: each eigenvector is exactly
    symmetric or antisymmetric.  Eigenvalues descend (even first on a tie)
    and are clipped at zero; eigenvectors are scaled to unit norm in the
    cell-area inner product.  A largest magnitude sits at mirror-image
    cells, so the sign makes the first entry of at least half the largest
    magnitude positive.
    """
    x = (np.arange(g) + 0.5) / g
    K = np.exp(-(x[:, None] - x[None, :]) ** 2 / (2.0 * length)) / g
    h, c = g // 2, np.arange(g // 2)
    q = np.zeros((g, g))  # the even basis vectors, then the odd ones
    q[c, c] = q[g - 1 - c, c] = q[c, g - h + c] = np.sqrt(0.5)
    q[g - 1 - c, g - h + c] = -np.sqrt(0.5)
    if g % 2:
        q[h, h] = 1.0
    w, u = [], []
    for part in np.split(q, [g - h], axis=1):
        lam, v = sla.eigh(part.T @ K @ part)
        w.append(lam[::-1])
        u.append(part @ v[:, ::-1])  # one nonzero term per entry: exact
    order = np.argsort(-np.concatenate(w), kind="stable")
    w = np.clip(np.concatenate(w)[order], 0.0, None)
    u = np.hstack(u)[:, order]
    mag = np.abs(u)
    first = (mag >= 0.5 * mag.max(axis=0)).argmax(axis=0)
    return w, u * (np.sign(u[first, np.arange(g)]) * np.sqrt(g))


def build_kle_model(mesh, sigma2, lx, ly, n):
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

    return KLEModel(mesh=mesh, eigenvalues=products[modes],
                    eigenfunctions=b_fine, n=n, generation_shape=(gx, gy))


def log_field_partial(model, theta, m):
    """Log-coefficients (..., n_fine_cells) of parameters (..., n) from the
    first m KLE terms, zero for m = 0, by one matrix-vector product per row
    over the whole fine grid (one GEMM, or fewer cells, moves last bits)."""
    coef = np.sqrt(model.eigenvalues[:m]) * np.asarray(theta, float)[..., :m]
    return np.matmul(coef[..., None, :], model.eigenfunctions[:m])[..., 0, :]


def realize_log_field(model, theta):
    """Coefficient k = exp(Y) for a full parameter vector."""
    if np.shape(theta) != (model.n,):
        raise ValueError(f"theta must have length {model.n}")
    return np.exp(log_field_partial(model, theta, model.n))


def check_kle_terms(m, n):
    """Refuse an m outside [0, n], the terms of a KLE truncated at n."""
    if not 0 <= m <= n:
        raise ValueError(f"m={m} outside [0, {n}]")


def split_kle(model, theta, m):
    """Splitting with k0 from the first m KLE terms and k1 = k - k0."""
    check_kle_terms(m, model.n)
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
    check_kle_terms(m, model.n)
    roots = np.sqrt(model.eigenvalues)
    total = roots.sum()
    if total == 0.0:
        return 1.0 if m == model.n else 0.0
    return float(roots[:m].sum() / total)
