"""Acceptance suite: one test per criterion, one pass/fail line each.

Heavy configurations mirror the library's reference experiments.  Two
frozen seeds are used: DET_SEED fixes the single parameter draw of the
deterministic experiments and STO_SEED drives the sampling streams of the
stochastic ones; both are documented in the repository docs.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from msfem_split import (build_kle_model, build_mesh, build_sparse_grid,
                         cost_ratios, precompute_green_inverses, sample_theta,
                         smolyak_node_count)
from msfem_split import basis as basis_mod
from msfem_split import fem
from msfem_split import msfem
from msfem_split import stochastic as st
from msfem_split.field import make_splitting, split_kle, split_lognormal
from reference import fine_stiffness, quadratic_form, run_cli, same_outputs

DET_SEED = 7
STO_SEED = 12345


def _report(num, label, ok, detail=""):
    print(f"\nCRITERION {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed{detail}"


def _random_splitting(mesh, rng, amp=0.8):
    k0 = np.exp(rng.uniform(-1, 1, mesh.n_fine_cells))
    k1 = amp * k0 * rng.uniform(-1, 1, mesh.n_fine_cells)
    return make_splitting(mesh, k0, k1)


def test_criterion_01_degenerate_splitting_identity():
    rng = np.random.default_rng(101)
    ok = True
    for trial in range(10):
        mesh = build_mesh(1, 1, int(rng.integers(3, 12)))
        k = np.exp(rng.uniform(-1.5, 1.5, mesh.n_fine_cells))
        split = make_splitting(mesh, k / 2.0, k / 2.0)
        ops = fem.assemble_local_operators(mesh, [0], split)
        phi = basis_mod.standard_bases(ops)[0]
        bases = basis_mod.iterative_bases(ops, (0, 1, 5))
        for vertex in range(4):
            for J in (0, 1, 5):
                phi_J = bases[J][0][0, :, vertex]
                ok &= bool(np.abs(phi[:, vertex] - phi_J).max() <= 1e-12)
    _report(1, "degenerate splitting identity", ok)


def test_criterion_02_oracle_equivalence():
    mesh = build_mesh(1, 1, 10)
    asm = fem.LocalAssembler(mesh)
    free = ~mesh.boundary_node_mask()
    idx = asm.interior_idx
    rng = np.random.default_rng(102)
    ok = True
    for trial in range(20):
        split = _random_splitting(mesh, rng)
        vertex = trial % 4
        ops = fem.assemble_local_operators(mesh, [0], split)
        A0 = fine_stiffness(mesh, split.k0)
        A1 = fine_stiffness(mesh, split.k1)
        A0ff = A0[free][:, free].tocsc()
        hat = asm.hats[:, vertex]

        def solve0(rhs):
            out = np.zeros(mesh.n_fine_nodes)
            out[free] = spla.spsolve(A0ff, rhs[free])
            return out

        pi_l, xis, _ = basis_mod.bubble_series(ops, 4)
        pi_o = solve0(A0 @ hat)
        ok &= bool(np.abs(pi_l[0, :, vertex] - pi_o[idx]).max() <= 1e-10)
        xi_o = solve0(A1 @ (pi_o - hat))
        for xi in xis:
            ok &= bool(np.abs(xi[0, :, vertex] - xi_o[idx]).max() <= 1e-10)
            xi_o = solve0(-(A1 @ xi_o))
    _report(2, "matrix form equals sequential PDE solves", ok)


def test_criterion_03_contraction_chain():
    mesh = build_mesh(1, 1, 10)
    asm = fem.LocalAssembler(mesh)
    rng = np.random.default_rng(103)
    ok = True
    for trial in range(10):
        split = _random_splitting(mesh, rng, amp=0.95)
        assert split.eta_global < 1.0
        ops = fem.assemble_local_operators(mesh, [0], split)
        vertex = trial % 4
        k0 = split.k0[mesh.cell_fine_cells(0)]
        hat = asm.hats[:, vertex]

        def k0_norm(interior):
            full = np.zeros((mesh.r + 1) ** 2)
            full[asm.interior_idx] = interior
            return np.sqrt(quadratic_form(asm, k0, full))

        grad_l = np.sqrt(quadratic_form(asm, k0, hat))
        norms = [k0_norm(xi[0, :, vertex])
                 for xi in basis_mod.bubble_series(ops, 8)[1]]
        eta = split.eta_global
        for j in range(1, 9):
            ok &= bool(norms[j] <= eta * norms[j - 1] + 1e-14)
        for j in range(9):
            ok &= bool(norms[j] <= 2.0 * eta ** (j + 1) * grad_l + 1e-14)
    _report(3, "contraction chain of bubble norms", ok)


def test_criterion_04_basis_bound_dominance():
    mesh = build_mesh(1, 1, 30)
    model = build_kle_model(mesh, 2.25, 0.2, 0.05, 20)
    theta = sample_theta(DET_SEED, 0, 20)
    ok = True
    for m in (15, 17):
        split = split_kle(model, theta, m)
        ok &= bool(split.eta_global < 1.0)
        ops = fem.assemble_local_operators(mesh, [0], split)
        errors = msfem.basis_errors(ops, split, range(11))
        for vertex in range(4):
            errs = [errors[J][0][0, vertex] for J in range(11)]
            for J, err in enumerate(errs):
                ok &= bool(err <= errors[J][1][0, vertex])
            ok &= all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
    _report(4, "basis error below bound, monotone decay", ok)


def test_criterion_05_convergence_rate_slopes():
    mesh = build_mesh(1, 1, 30)
    rng = np.random.default_rng([DET_SEED, 1])
    Y = rng.standard_normal(mesh.n_fine_cells)
    ok = True
    for J in (0, 2, 4):
        etas, errs = [], []
        for sc in (0.80, 0.84, 0.88, 0.92, 0.96):
            split = split_lognormal(mesh, Y, sc)
            assert split.eta_global < 1.0
            ops = fem.assemble_local_operators(mesh, [0], split)
            err = msfem.basis_errors(ops, split, [J])[J][0][0, 0]
            etas.append(split.eta_global)
            errs.append(err)
        slope = float(np.polyfit(np.log(etas), np.log(errs), 1)[0])
        ok &= bool(J + 1.5 <= slope <= J + 2.5)
    _report(5, "log-log error slopes near J+2", ok)


def test_criterion_06_solution_bound():
    mesh = build_mesh(12, 12, 10)
    model = build_kle_model(mesh, 2.25, 0.7, 0.04, 20)
    theta = sample_theta(DET_SEED, 0, 20)
    J_list = [0, 1, 2, 3, 4]
    ok = True
    for m in (16, 18):
        split = split_kle(model, theta, m)
        ok &= bool(split.eta_global < 1.0)
        rec = msfem.sample_errors(mesh, split, J_list, reference=True)
        norm_uh = rec.norm_uh
        ct = msfem.c_tilde(split)
        vals = []
        for J in J_list:
            err = rec.err[J]
            bound = msfem.solution_error_bound(J, split.eta_global, ct,
                                               rec.u_energy)
            ok &= bool(err <= bound)
            vals.append(err)
        ok &= all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        ok &= bool(vals[0] / norm_uh >= 2.0 * vals[2] / norm_uh)
    _report(6, "solution error below bound, factor 2 drop J=0 to J=2", ok)


def test_criterion_07_mesh_insensitivity():
    theta = sample_theta(DET_SEED, 0, 20)
    J = 1

    def err_for(nx, r):
        mesh = build_mesh(nx, nx, r)
        model = build_kle_model(mesh, 2.25, 0.7, 0.04, 20)
        split = split_kle(model, theta, 16)
        assert split.eta_global < 1.0
        return msfem.sample_errors(mesh, split, [J]).err[J]

    ok = True
    refine = [err_for(12, r) for r in (10, 20, 30)]
    ok &= bool(max(refine) < 2.0 * min(refine))
    coarse = [err_for(nx, 120 // nx) for nx in (4, 12, 20)]
    ok &= bool(max(coarse) < 2.0 * min(coarse))
    _report(7, "error insensitive to fine and coarse mesh", ok)


def test_criterion_08_stochastic_bound_smoke():
    mesh = build_mesh(16, 16, 4)
    model = build_kle_model(mesh, 1.0, 0.1, 0.1, 20)
    ok = True
    for m in (14, 18):
        config = st.StochasticConfig(mesh=mesh, model=model, m=m,
                                     J_list=(0, 1, 2, 3, 4), seed=STO_SEED)
        stats = st.monte_carlo_run(config, 50)
        ok &= bool(stats.eta_max < 1.0)
        for J in config.J_list:
            ok &= bool(stats.mean_error[J] <= stats.bounds[J])
        diff = np.linalg.norm(stats.mean_uh - stats.mean_uJh)
        ok &= bool(diff <= 0.02 * np.linalg.norm(stats.mean_uh))
    _report(8, "sampled error below stochastic bound, mean fields match", ok)


def _collocation_stats(mesh, model, m, L_list):
    """Per-level collocation statistics at J=1 over 5 samples."""
    config = st.StochasticConfig(mesh=mesh, model=model, m=m,
                                 J_list=(1,), seed=STO_SEED)
    results = {}
    for L in L_list:
        store = precompute_green_inverses(mesh, model,
                                          build_sparse_grid(m, L), m)
        results[L] = st.collocation_run(config, 5, store, J=1).extra
    return results


def test_criterion_09_collocation_accuracy():
    # The accuracy clauses use the inputs of configs/colloc_table.cfg
    # (m=16).  The dominance clauses use one run at m=8 on the same mesh,
    # field, seed and J: at m=16 the splitting error (8e-6) stays below the
    # collocation error until about L=5; the L=4 store (about 1.1 GiB of
    # its 64 representative cells) fits the GreenStore limit, but e_col,
    # falling 4-5x per level, would still be above e_spl there.  At m=8,
    # e_spl is 6.8e-4 and e_col falls from 3.8e-3 at L=1 to 1.35e-4 at L=3.
    mesh = build_mesh(16, 16, 4)
    model = build_kle_model(mesh, 1.0, 0.1, 0.1, 20)
    m_acc, m_dec = 16, 8
    # lx == ly makes the KLE spectrum come in exactly tied pairs; a cut
    # inside a pair keeps the first mode of the pair in the KLE's fixed
    # (y, x) order (relative gap 0 at m=16, 55% at m=8).
    ev = model.eigenvalues
    gap = (ev[m_dec - 1] - ev[m_dec]) / ev[m_dec - 1]
    assert gap >= 0.1, (f"m={m_dec} is not at a spectral gap of the KLE: "
                        f"relative gap {gap:.2e}")
    acc = _collocation_stats(mesh, model, m_acc, (1, 2, 3))
    dec = _collocation_stats(mesh, model, m_dec, (1, 3))
    means = [acc[L]["mean_e"] for L in (1, 2, 3)]
    clauses = {
        "per-sample errors <= 1%":
            all(bool(np.all(acc[L]["e"] <= 0.01)) for L in (1, 2, 3)),
        "mean error nonincreasing in L":
            all(b <= a for a, b in zip(means, means[1:])),
        "collocation error dominant at L=1":
            bool(dec[1]["mean_e_col"] >= dec[1]["mean_e_spl"]),
        "splitting error dominant at L=3":
            bool(dec[3]["mean_e_spl"] >= dec[3]["mean_e_col"]),
    }
    for label, passed in clauses.items():
        print(f"\n  criterion 9 clause [{label}]: "
              f"{'PASS' if passed else 'FAIL'}")
    failing = [label for label, passed in clauses.items() if not passed]
    table = [f"m={m} L={L}: mean e={x['mean_e']:.3e} "
             f"e_spl={x['mean_e_spl']:.3e} e_col={x['mean_e_col']:.3e}"
             for m, res in ((m_acc, acc), (m_dec, dec))
             for L, x in res.items()]
    _report(9, "collocation errors small, expected dominance pattern",
            not failing,
            detail="; failing clauses: " + ", ".join(failing) + "\n"
            + "\n".join(table))


def test_criterion_10_exact_counts():
    ok = smolyak_node_count(10, 2) == 221
    ok &= smolyak_node_count(20, 2) == 841
    a_ftc, a_sgc = cost_ratios(20, 10, 2, 2)
    ok &= a_ftc == 3.0 ** -10
    ok &= a_sgc == 221.0 / 841.0
    _report(10, "exact node counts and cost ratios", ok)


def test_criterion_11_determinism(tmp_path):
    # reruns in child processes with 1 and 2 BLAS threads; the
    # solution-bound run solves a 225-vertex coarse system, the mc-stats
    # run overlaps each sample's fine solve on its worker, and the
    # colloc-decomp run builds its 849-node store and contracts it in
    # 256-node blocks on thread pools
    configs = (
        "experiment = basis-bound\nfield = lognormal\nr = 10\n"
        "sc_list = 0.85,0.95\nJ_list = 0,1,2\nseed = 12345\n",
        "experiment = solution-bound\nnx = 16\nny = 16\nr = 2\n"
        "sigma2 = 1.0\nlx = 0.1\nly = 0.1\nn = 8\nm_list = 6\n"
        "J_list = 0,1\nseed = 3\n",
        "experiment = mc-stats\nnx = 16\nny = 16\nr = 4\nsigma2 = 1.0\n"
        "lx = 0.1\nly = 0.1\nn = 20\nm_list = 14\nJ_list = 0,1,2,3,4\n"
        "N = 4\nseed = 12345\n",
        "experiment = colloc-decomp\nnx = 8\nny = 8\nr = 4\nsigma2 = 1.0\n"
        "lx = 0.1\nly = 0.1\nn = 20\nm = 8\nJ = 1\nL_list = 3\nN = 2\n"
        "seed = 12345\n")
    ok = True
    for i, text in enumerate(configs):
        cfg = tmp_path / f"exp{i}.cfg"
        cfg.write_text(text, encoding="utf-8")
        out1, out2 = tmp_path / f"{i}-a", tmp_path / f"{i}-b"
        ok &= run_cli(cfg, out1, 1) == 0
        ok &= run_cli(cfg, out2, 2) == 0
        ok &= same_outputs(out1, out2)
    _report(11, "byte-identical rerun", ok)
