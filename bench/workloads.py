"""The benchmark's workloads: inputs, set-up, one driver call and its checks.

Everything goes through the package's top-level API, so the workloads keep
working when the per-cell internals change.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

import msfem_split as ms

# collocation: largest accepted relative energy error of one sample
COLLOC_TOLERANCE = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    nx: int           # coarse cells per axis
    r: int            # fine cells per coarse cell and axis
    sigma2: float
    lx: float
    ly: float
    n: int            # KLE truncation
    m: int            # k0 = leading m KLE terms
    J_list: tuple
    seed: int         # reference config seed, the default
    second_seed: int  # held out: check a claim on it after the change
    N: int            # samples per driver call
    L: int = None     # sparse-grid level; None for Monte Carlo


WORKLOADS = {w.name: w for w in (
    # 9x9 local blocks: per-call Python and wrapper overhead dominates
    Workload(
        "mc-r4",
        nx=16, r=4, sigma2=1.0, lx=0.1, ly=0.1, n=20, m=14,
        J_list=(0, 1, 2, 3, 4), seed=12345, second_seed=23456, N=2),
    # 841x841 local blocks: dense local factorization dominates
    Workload(
        "mc-r30",
        nx=4, r=30, sigma2=2.25, lx=0.7, ly=0.04, n=20, m=16,
        J_list=(1, 2), seed=7, second_seed=8, N=1),
    # 6049 Smolyak nodes: a 1 GB store of Green's inverses is written once
    # in set-up and read on every driver call instead of factorizing
    Workload(
        "colloc-L3",
        nx=16, r=4, sigma2=1.0, lx=0.1, ly=0.1, n=20, m=16,
        J_list=(1,), seed=12345, second_seed=23456, N=5, L=3),
)}


def tiny(w):
    """The same workload on a 4x4 mesh with r=4 and N=2."""
    return dataclasses.replace(w, nx=4, r=4, N=2)


def call_seed(seed, i):
    """Master seed of driver call i; call 0 uses the workload seed itself."""
    return seed + i * 2 ** 32


def set_up(w):
    """Mesh, KLE model and, for collocation, the Green's-inverse store."""
    mesh = ms.build_mesh(w.nx, w.nx, w.r)
    model = ms.build_kle_model(mesh, w.sigma2, w.lx, w.ly, w.n)
    store = None
    if w.L is not None:
        grid = ms.build_sparse_grid(w.m, w.L)
        store = ms.precompute_green_inverses(mesh, model, grid, w.m)
    return mesh, model, store


def drive(w, state, seed):
    """One call of the workload's sampling driver over N samples."""
    mesh, model, store = state
    config = ms.StochasticConfig(mesh=mesh, model=model, m=w.m,
                                 J_list=w.J_list, seed=seed)
    if store is None:
        return ms.monte_carlo_run(config, w.N)
    return ms.collocation_run(config, w.N, store, J=w.J_list[0])


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    else:
        yield np.asarray(value, dtype=float)


def check(w, stats):
    """(passed, error/bound or None) for each check on one driver result."""
    finite = all(np.isfinite(a).all()
                 for f in dataclasses.fields(stats)
                 for a in _numbers(getattr(stats, f.name)))
    out = [(finite, None)]
    if w.L is None:
        # an infinite bound (eta_max >= 1) is a failure, not a pass
        for J in w.J_list:
            bound = stats.bounds.get(J, np.inf)
            err = stats.mean_error[J]
            ok = stats.eta_max < 1.0 and np.isfinite(bound) and err <= bound
            out.append((bool(ok), err / bound if bound > 0 else np.inf))
    else:
        e, e_spl, e_col = (np.asarray(stats.extra[k])
                           for k in ("e", "e_spl", "e_col"))
        if e.shape != (w.N,):
            return out + [(False, None)]
        for es, sp, co in zip(e, e_spl, e_col):
            tri = sp + co + 1e-12
            out.append((bool(es <= tri), es / tri))
            out.append((bool(es <= COLLOC_TOLERANCE), es / COLLOC_TOLERANCE))
    return out
