"""Reproducible experiment runner.

Parses a flat ``key = value`` config, dispatches one named experiment and
writes CSV tables, a run manifest and a pass/fail summary.  Identical
config and seed always produce byte-identical output files.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__
from . import fem
from . import field as field_mod
from . import mesh as mesh_mod
from . import msfem
from . import stochastic as st

EXPERIMENTS = ("basis-bound", "basis-slope", "solution-bound", "mesh-sweep",
               "mc-stats", "colloc-table", "colloc-decomp", "cost-ratios")

_INT_KEYS = {"nx", "ny", "r", "n", "m", "q", "L", "N", "seed", "fine", "J"}
_FLOAT_KEYS = {"sigma2", "lx", "ly", "sc"}
_LIST_INT_KEYS = {"m_list", "J_list", "L_list", "nx_list", "r_list"}
_LIST_FLOAT_KEYS = {"sc_list"}
_STR_KEYS = {"experiment", "field", "out"}
_KNOWN = (_INT_KEYS | _FLOAT_KEYS | _LIST_INT_KEYS | _LIST_FLOAT_KEYS
          | _STR_KEYS)


class ConfigError(Exception):
    pass


def parse_config(path):
    """Read and validate a flat key = value config file."""
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (t.strip() for t in line.split("=", 1))
            if key not in _KNOWN:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in cfg:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                if key in _INT_KEYS:
                    cfg[key] = int(value)
                elif key in _FLOAT_KEYS:
                    cfg[key] = float(value)
                elif key in _LIST_INT_KEYS | _LIST_FLOAT_KEYS:
                    kind = int if key in _LIST_INT_KEYS else float
                    cfg[key] = [kind(t) for t in value.split(",") if t.strip()]
                else:
                    cfg[key] = value
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            if cfg[key] == []:
                raise ConfigError(f"{path}:{lineno}: empty list for {key!r}")
    if "experiment" not in cfg:
        raise ConfigError(f"{path}: missing required key 'experiment'")
    if cfg["experiment"] not in EXPERIMENTS:
        raise ConfigError(
            f"{path}: unknown experiment {cfg['experiment']!r}; "
            f"choose one of {', '.join(EXPERIMENTS)}")
    if cfg.get("field", "kle") not in ("kle", "lognormal"):
        raise ConfigError(f"{path}: unknown field {cfg['field']!r}")
    _validate_required(cfg, path)
    return cfg


_MESH = {"nx", "ny", "r"}
_KLE = {"sigma2", "lx", "ly", "n"}
# keys each experiment reads: (required, optional); every run also reads
# experiment, seed and out
_READS = {
    "basis-bound": ({"r"}, {"field", "J_list"}),
    "basis-slope": ({"r", "J_list", "sc_list"}, {"field"}),
    "solution-bound": (_MESH | _KLE | {"m_list", "J_list"}, set()),
    "mesh-sweep": (_KLE | {"m", "J_list"}, {"r_list", "nx_list"}),
    "mc-stats": (_MESH | _KLE | {"m_list", "J_list", "N"}, set()),
    "colloc-table": (_MESH | _KLE | {"m", "J", "L_list"}, {"N"}),
    "colloc-decomp": (_MESH | _KLE | {"m", "J", "L_list", "N"}, set()),
    "cost-ratios": ({"n", "m", "q", "L"}, set()),
}


def _validate_required(cfg, path):
    """Refuse a config missing a key its experiment needs, or setting one
    it never reads: one a run would list in its manifest to no effect."""
    experiment = cfg["experiment"]
    required, optional = _READS[experiment]
    if experiment == "basis-bound":
        if cfg.get("field", "kle") == "kle":
            required, optional = required | _KLE - {"n"}, \
                optional | {"n", "m_list" if "m_list" in cfg else "m"}
        elif not ({"sc", "sc_list"} & set(cfg)):
            raise ConfigError(f"{path}: lognormal field needs sc or sc_list")
        else:
            optional = optional | {"sc_list" if "sc_list" in cfg else "sc"}
    if experiment == "basis-slope" and cfg.get("field") == "kle":
        raise ConfigError(f"{path}: experiment 'basis-slope' runs the "
                          f"lognormal splitting only, not field = kle")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(
            f"{path}: experiment {experiment!r} missing keys "
            f"{sorted(missing)}")
    if experiment == "mesh-sweep":
        if not ({"r_list", "nx_list"} & set(cfg)):
            raise ConfigError(f"{path}: mesh-sweep needs r_list and/or "
                              "nx_list")
        fine = cfg.get("fine", 120)
        for nx in cfg.get("nx_list", []):
            if nx < 1 or fine % nx:
                raise ConfigError(
                    f"{path}: fine={fine} not divisible by nx={nx}")
        optional = optional | {key for key, by in (("nx", "r_list"), (
            "fine", "nx_list")) if by in cfg}
    unread = set(cfg) - required - optional - {"experiment", "seed", "out"}
    if unread:
        raise ConfigError(f"{path}: experiment {experiment!r} never reads "
                          f"keys {sorted(unread)}")


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_manifest(outdir, cfg, seed):
    lines = [f"msfem-split {__version__}", f"seed = {seed}"]
    for key in sorted(cfg):
        lines.append(f"{key} = {cfg[key]}")
    with open(os.path.join(outdir, "manifest.txt"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---- experiment implementations -------------------------------------------


def _frozen_theta(seed, n):
    return st.sample_theta(seed, 0, n)


def _no_bound(label, eta):
    """The failed check of a splitting whose eta >= 1 admits no bound."""
    return f"{label} no bound: eta {eta:.3g} >= 1", False


def _bound_check(label, err, bound, eta):
    """error <= bound; without eta < 1 there is no bound, which fails."""
    if eta < 1.0 and np.isfinite(bound):
        return f"{label} error<=bound", bool(err <= bound)
    return _no_bound(label, eta)


def _cell0_vertex0_errors(mesh, split, J_list):
    """{J: (error, bound)} of basis_errors for vertex 0 of coarse cell 0."""
    ops = fem.assemble_local_operators(mesh, [0], split)
    return {J: (float(err[0, 0]), float(bound[0, 0])) for J, (err, bound)
            in msfem.basis_errors(ops, split, J_list).items()}


def _exp_basis_bound(cfg, seed):
    mesh = mesh_mod.build_mesh(1, 1, cfg["r"])
    J_list = cfg.get("J_list", list(range(11)))
    rows = []
    checks = []
    if cfg.get("field", "kle") == "kle":
        n = cfg.get("n", 20)
        model = field_mod.build_kle_model(mesh, cfg["sigma2"], cfg["lx"],
                                          cfg["ly"], n)
        theta = _frozen_theta(seed, n)
        sweeps = [("m", m, field_mod.split_kle(model, theta, m))
                  for m in cfg.get("m_list", [cfg.get("m", n - 2)])]
    else:
        rng = np.random.default_rng([seed, 1])
        Y = rng.standard_normal(mesh.n_fine_cells)
        sweeps = [("sc", sc, field_mod.split_lognormal(mesh, Y, sc))
                  for sc in cfg.get("sc_list", [cfg.get("sc", 0.9)])]
    for label, value, split in sweeps:
        errors = _cell0_vertex0_errors(mesh, split, J_list)
        prev = None
        for J in J_list:
            err, bound = errors[J]
            rows.append((value, J, split.eta_global, err, bound))
            checks.append(_bound_check(f"{label}={value} J={J}", err, bound,
                                       split.eta_global))
            if prev is not None:
                checks.append((f"{label}={value} J={J} monotone",
                               err <= prev + 1e-15))
            prev = err
    header = ["param", "J", "eta", "error", "bound"]
    return [("basis_bound.csv", header, rows)], checks


def _exp_basis_slope(cfg, seed):
    mesh = mesh_mod.build_mesh(1, 1, cfg["r"])
    rng = np.random.default_rng([seed, 1])
    Y = rng.standard_normal(mesh.n_fine_cells)
    checks = []
    points = []
    for sc in cfg["sc_list"]:
        split = field_mod.split_lognormal(mesh, Y, sc)
        if split.eta_global >= 1.0:
            checks.append(_no_bound(f"sc={sc}", split.eta_global))
            continue
        points.append((sc, split.eta_global, _cell0_vertex0_errors(
            mesh, split, cfg["J_list"])))
    rows = []
    slope_rows = []
    for J in cfg["J_list"]:
        etas, errs = [], []
        for sc, eta, errors in points:
            err = errors[J][0]
            rows.append((J, sc, eta, err))
            if eta > 0.0 and err > 0.0:
                etas.append(eta)
                errs.append(err)
        if len(etas) < 2:
            checks.append((f"J={J} no slope: {len(etas)} points with "
                           f"0 < eta < 1 and error > 0", False))
            continue
        slope = float(np.polyfit(np.log(etas), np.log(errs), 1)[0])
        slope_rows.append((J, slope))
        checks.append((f"J={J} slope {slope:.2f} in [{J + 1.5}, {J + 2.5}]",
                       J + 1.5 <= slope <= J + 2.5))
    return [("basis_slope.csv", ["J", "sc", "eta", "error"], rows),
            ("basis_slope_fits.csv", ["J", "slope"], slope_rows)], checks


def _exp_solution_bound(cfg, seed):
    mesh = mesh_mod.build_mesh(cfg["nx"], cfg["ny"], cfg["r"])
    model = field_mod.build_kle_model(mesh, cfg["sigma2"], cfg["lx"],
                                     cfg["ly"], cfg["n"])
    theta = _frozen_theta(seed, cfg["n"])
    rows = []
    checks = []
    for m in cfg["m_list"]:
        split = field_mod.split_kle(model, theta, m)
        eta = split.eta_global
        rec = msfem.sample_errors(mesh, split, cfg["J_list"], reference=True)
        ct = msfem.c_tilde(split)
        prev = None
        for J in cfg["J_list"]:
            err = rec.err[J]
            bound = msfem.solution_error_bound(
                J, eta, ct, rec.u_energy)[0] if eta < 1.0 else np.inf
            rows.append((m, J, eta, err, err / rec.norm_uh, bound))
            checks.append(_bound_check(f"m={m} J={J}", err, bound, eta))
            if prev is not None:
                checks.append((f"m={m} J={J} monotone", err <= prev + 1e-15))
            prev = err
    header = ["m", "J", "eta", "error", "rel_error", "bound"]
    return [("solution_bound.csv", header, rows)], checks


def _exp_mesh_sweep(cfg, seed):
    rows = []
    checks = []
    meshes = []
    if "r_list" in cfg:
        nx = cfg.get("nx", 12)
        meshes += [(nx, r) for r in cfg["r_list"]]
    if "nx_list" in cfg:
        fine = cfg.get("fine", 120)
        meshes += [(nx, fine // nx) for nx in cfg["nx_list"]]
    by_J = {J: [] for J in cfg["J_list"]}
    for nx, r in meshes:
        mesh = mesh_mod.build_mesh(nx, nx, r)
        model = field_mod.build_kle_model(mesh, cfg["sigma2"], cfg["lx"],
                                         cfg["ly"], cfg["n"])
        theta = _frozen_theta(seed, cfg["n"])
        split = field_mod.split_kle(model, theta, cfg["m"])
        rec = msfem.sample_errors(mesh, split, cfg["J_list"], reference=True)
        for J in cfg["J_list"]:
            err_ref = fem.energy_norm(mesh, split.k, rec.u - rec.u_J[J])
            rows.append((nx, r, J, err_ref, rec.err[J]))
            by_J[J].append(rec.err[J])
    for J, vals in by_J.items():
        lo, hi = min(vals), max(vals)
        checks.append((f"J={J} err_h_Jh spread {hi / lo:.2f} < 2",
                       hi < 2.0 * lo))
    header = ["nx_coarse", "r", "J", "err_ref_Jh", "err_h_Jh"]
    return [("mesh_sweep.csv", header, rows)], checks


def _exp_mc_stats(cfg, seed):
    mesh = mesh_mod.build_mesh(cfg["nx"], cfg["ny"], cfg["r"])
    model = field_mod.build_kle_model(mesh, cfg["sigma2"], cfg["lx"],
                                     cfg["ly"], cfg["n"])
    rows = []
    checks = []
    for m in cfg["m_list"]:
        config = st.StochasticConfig(mesh=mesh, model=model, m=m,
                                     J_list=tuple(cfg["J_list"]), seed=seed)
        stats = st.monte_carlo_run(config, cfg["N"])
        e_m = field_mod.energy_ratio(model, m)
        for J in cfg["J_list"]:
            bound = stats.bounds[J]
            rows.append((m, J, e_m, stats.mean_error[J], stats.var_error[J],
                         stats.eta_max, bound))
            checks.append(_bound_check(f"m={m} J={J} mean",
                                       stats.mean_error[J], bound,
                                       stats.eta_max))
    header = ["m", "J", "energy_ratio", "mean_error", "var_error",
              "eta_max", "bound"]
    return [("mc_stats.csv", header, rows)], checks


def _colloc_runs(cfg, seed, N):
    """(L, collocation_run statistics) for each L of L_list, from one mesh,
    model and StochasticConfig; only the grid and its store depend on L."""
    mesh = mesh_mod.build_mesh(cfg["nx"], cfg["ny"], cfg["r"])
    model = field_mod.build_kle_model(mesh, cfg["sigma2"], cfg["lx"],
                                     cfg["ly"], cfg["n"])
    config = st.StochasticConfig(mesh=mesh, model=model, m=cfg["m"],
                                 J_list=(cfg["J"],), seed=seed)
    for L in cfg["L_list"]:
        grid = st.build_sparse_grid(cfg["m"], L)
        store = st.precompute_green_inverses(mesh, model, grid, cfg["m"])
        yield L, st.collocation_run(config, N, store, J=cfg["J"])


def _exp_colloc_table(cfg, seed):
    n_samples = cfg.get("N", 5)
    rows = []
    checks = []
    means = []
    for L, stats in _colloc_runs(cfg, seed, n_samples):
        e = stats.extra["e"]
        not_spd = stats.extra["green_not_spd"]
        for s in range(n_samples):
            rows.append((s, L, 100.0 * e[s], not_spd[s]))
            checks.append((f"sample={s} L={L} rel error <= 1%",
                           e[s] <= 0.01))
        means.append(stats.extra["mean_e"])
    for a, b, L in zip(means, means[1:], cfg["L_list"][1:]):
        checks.append((f"mean error nonincreasing at L={L}", b <= a))
    header = ["sample", "L", "rel_error_pct", "green_not_spd"]
    return [("colloc_table.csv", header, rows)], checks


def _exp_colloc_decomp(cfg, seed):
    rows = []
    checks = []
    for L, stats in _colloc_runs(cfg, seed, cfg["N"]):
        x = stats.extra
        rows.append((L, x["mean_e"], x["mean_e_spl"], x["mean_e_col"]))
        tri = np.all(x["e"] <= x["e_spl"] + x["e_col"] + 1e-12)
        checks.append((f"L={L} triangle inequality", bool(tri)))
    return [("colloc_decomp.csv", ["L", "e", "e_spl", "e_col"], rows)], checks


def _exp_cost_ratios(cfg, seed):
    a_ftc, a_sgc = st.cost_ratios(cfg["n"], cfg["m"], cfg["q"], cfg["L"])
    rows = [(cfg["n"], cfg["m"], cfg["q"], cfg["L"], a_ftc, a_sgc,
             st.smolyak_node_count(cfg["m"], cfg["L"]),
             st.smolyak_node_count(cfg["n"], cfg["L"]))]
    header = ["n", "m", "q", "L", "alpha_ftc", "alpha_sgc", "H_m", "H_n"]
    return [("cost_ratios.csv", header, rows)], []


_RUNNERS = {
    "basis-bound": _exp_basis_bound,
    "basis-slope": _exp_basis_slope,
    "solution-bound": _exp_solution_bound,
    "mesh-sweep": _exp_mesh_sweep,
    "mc-stats": _exp_mc_stats,
    "colloc-table": _exp_colloc_table,
    "colloc-decomp": _exp_colloc_decomp,
    "cost-ratios": _exp_cost_ratios,
}


def run_experiment(cfg, outdir, seed=None):
    """Run one experiment; returns True iff all bound checks passed."""
    seed = cfg.get("seed", 12345) if seed is None else seed
    os.makedirs(outdir, exist_ok=True)
    tables, checks = _RUNNERS[cfg["experiment"]](cfg, seed)
    _write_manifest(outdir, cfg, seed)
    for name, header, rows in tables:
        write_csv(os.path.join(outdir, name), header, rows)
    ok = all(passed for _, passed in checks)
    with open(os.path.join(outdir, "summary.txt"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(f"experiment: {cfg['experiment']}\n")
        for label, passed in checks:
            fh.write(f"{'PASS' if passed else 'FAIL'}  {label}\n")
        fh.write("result: " + ("PASS" if ok else "FAIL") + "\n")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="msfem-split",
        description="Splitting-based MsFEM experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--seed", type=int, default=None)
    val_p = sub.add_parser("validate", help="validate a config file")
    val_p.add_argument("config")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"ok: {cfg['experiment']}")
        return 0

    outdir = args.out or os.environ.get("MSFEM_SPLIT_OUT") \
        or cfg.get("out", "results")
    try:
        ok = run_experiment(cfg, outdir, seed=args.seed)
    except (MemoryError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {outdir}; checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
