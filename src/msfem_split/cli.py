"""Reproducible experiment runner.

Parses a flat ``key = value`` config, dispatches one named experiment and
writes CSV tables, a run manifest and a pass/fail summary.  Each value an
experiment reads has one key and must be given, so the manifest lists
every value the run used; only the seed (12345 unless set, and always on
the manifest's second line) and the output directory have defaults.
Identical config and seed always produce byte-identical output files.
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

# the type of every config key; [kind] is a comma-separated list of kind
_TYPES = {
    "experiment": str, "field": str, "out": str, "seed": int,
    "nx": int, "ny": int, "r": int, "n": int, "m": int, "q": int, "L": int,
    "N": int, "J": int, "fine": int, "sigma2": float, "lx": float,
    "ly": float, "m_list": [int], "J_list": [int], "L_list": [int],
    "nx_list": [int], "r_list": [int], "sc_list": [float],
}


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
            if key not in _TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in cfg:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            kind = _TYPES[key]
            items = value.split(",")
            if isinstance(kind, list) and not all(t.strip() for t in items):
                what = "empty element in list" if value else "empty list"
                raise ConfigError(f"{path}:{lineno}: {what} for {key!r}")
            try:
                cfg[key] = ([kind[0](t) for t in items]
                            if isinstance(kind, list) else kind(value))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            # the checks over a list compare its entries in list order
            if isinstance(kind, list) and any(
                    b <= a for a, b in zip(cfg[key], cfg[key][1:])):
                raise ConfigError(
                    f"{path}:{lineno}: {key!r} must be strictly increasing")
    if "experiment" not in cfg:
        raise ConfigError(f"{path}: missing required key 'experiment'")
    if cfg["experiment"] not in EXPERIMENTS:
        raise ConfigError(
            f"{path}: unknown experiment {cfg['experiment']!r}; "
            f"choose one of {', '.join(EXPERIMENTS)}")
    if "field" in cfg and cfg["field"] not in ("kle", "lognormal"):
        raise ConfigError(f"{path}: unknown field {cfg['field']!r}")
    if cfg.get("seed", 0) < 0:
        raise ConfigError(f"{path}: seed must be >= 0, not {cfg['seed']}")
    _validate_required(cfg, path)
    return cfg


def _validate_required(cfg, path):
    """Refuse a config missing a key its experiment needs, or setting one
    it never reads: one a run would list in its manifest to no effect."""
    experiment = cfg["experiment"]
    _, required, beside = _EXPERIMENTS[experiment]
    for (key, value), keys in beside.items():
        if cfg.get(key) == value:
            required = required | keys
    missing = required - set(cfg)
    if missing:
        raise ConfigError(
            f"{path}: experiment {experiment!r} missing keys "
            f"{sorted(missing)}")
    if experiment == "mesh-sweep":
        for nx in cfg["nx_list"]:
            if nx < 1 or cfg["fine"] % nx:
                raise ConfigError(
                    f"{path}: fine={cfg['fine']} not divisible by nx={nx}")
        for nx, r in _sweep_meshes(cfg):
            if r < 2:
                raise ConfigError(f"{path}: mesh-sweep mesh nx={nx}, r={r}: "
                                  "refinement factor r must be >= 2")
    unread = set(cfg) - required - {"experiment", "seed", "out"}
    if unread:
        raise ConfigError(f"{path}: experiment {experiment!r} never reads "
                          f"keys {sorted(unread)}")


def _check_entries(cfg):
    """Refuse a bad list entry or N by the library's checks, before work."""
    for m in cfg.get("m_list", ()):
        field_mod.check_kle_terms(m, cfg["n"])
    for L in cfg.get("L_list", ()):
        st.check_sparse_grid(cfg["m"], L)
    if cfg.get("N", 1) < 1:
        raise ValueError("N must be >= 1")


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
        lines.append(f"{key} = {seed if key == 'seed' else cfg[key]}")
    with open(os.path.join(outdir, "manifest.txt"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---- experiment implementations -------------------------------------------


def _kle_model(cfg, mesh):
    return field_mod.build_kle_model(mesh, cfg["sigma2"], cfg["lx"],
                                     cfg["ly"], cfg["n"])


def _no_bound(label, eta):
    """The failed check of a splitting whose eta >= 1 admits no bound."""
    return f"{label} no bound: eta {eta:.3g} >= 1", False


def _bound_check(label, err, bound, eta):
    """error <= bound; without eta < 1 there is no bound, which fails."""
    if eta < 1.0 and np.isfinite(bound):
        return f"{label} error<=bound", bool(err <= bound)
    return _no_bound(label, eta)


def _error_checks(label, J_list, errs, bounds, eta):
    """Each J's error<=bound check, each but the first J's followed by
    whether its error is at most the previous J's."""
    checks = []
    for i, (J, err, bound) in enumerate(zip(J_list, errs, bounds)):
        checks.append(_bound_check(f"{label} J={J}", err, bound, eta))
        if i:
            checks.append((f"{label} J={J} monotone",
                           err <= errs[i - 1] + 1e-15))
    return checks


def _cell0_vertex0_errors(mesh, split, J_list):
    """{J: (error, bound)} of basis_errors for vertex 0 of coarse cell 0."""
    ops = fem.assemble_local_operators(mesh, [0], split)
    return {J: (float(err[0, 0]), float(bound[0, 0])) for J, (err, bound)
            in msfem.basis_errors(ops, J_list).items()}


def _exp_basis_bound(cfg, seed):
    mesh = mesh_mod.build_mesh(1, 1, cfg["r"])
    J_list = cfg["J_list"]
    rows, checks = [], []
    if cfg["field"] == "kle":
        model = _kle_model(cfg, mesh)
        theta = st.sample_theta(seed, 0, cfg["n"])
        sweeps = [("m", m, field_mod.split_kle(model, theta, m))
                  for m in cfg["m_list"]]
    else:
        Y = np.random.default_rng([seed, 1]).standard_normal(
            mesh.n_fine_cells)
        sweeps = [("sc", sc, field_mod.split_lognormal(mesh, Y, sc))
                  for sc in cfg["sc_list"]]
    for label, value, split in sweeps:
        errors = _cell0_vertex0_errors(mesh, split, J_list)
        errs, bounds = zip(*(errors[J] for J in J_list))
        rows += [(value, J, split.eta_global, err, bound)
                 for J, err, bound in zip(J_list, errs, bounds)]
        checks += _error_checks(f"{label}={value}", J_list, errs, bounds,
                                split.eta_global)
    header = ["param", "J", "eta", "error", "bound"]
    return [("basis_bound.csv", header, rows)], checks


def _exp_basis_slope(cfg, seed):
    mesh = mesh_mod.build_mesh(1, 1, cfg["r"])
    Y = np.random.default_rng([seed, 1]).standard_normal(mesh.n_fine_cells)
    checks, points = [], []
    for sc in cfg["sc_list"]:
        split = field_mod.split_lognormal(mesh, Y, sc)
        if split.eta_global >= 1.0:
            checks.append(_no_bound(f"sc={sc}", split.eta_global))
            continue
        points.append((sc, split.eta_global, _cell0_vertex0_errors(
            mesh, split, cfg["J_list"])))
    rows, slope_rows = [], []
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
    model = _kle_model(cfg, mesh)
    theta = st.sample_theta(seed, 0, cfg["n"])
    J_list = cfg["J_list"]
    rows, checks = [], []
    for m in cfg["m_list"]:
        split = field_mod.split_kle(model, theta, m)
        eta = split.eta_global
        rec = msfem.sample_errors(mesh, split, J_list, reference=True)
        ct = msfem.c_tilde(split)
        errs = [rec.err[J] for J in J_list]
        bounds = [msfem.solution_error_bound(J, eta, ct, rec.u_energy)
                  if eta < 1.0 else np.inf for J in J_list]
        rows += [(m, J, eta, err, err / rec.norm_uh, bound)
                 for J, err, bound in zip(J_list, errs, bounds)]
        checks += _error_checks(f"m={m}", J_list, errs, bounds, eta)
    header = ["m", "J", "eta", "error", "rel_error", "bound"]
    return [("solution_bound.csv", header, rows)], checks


def _sweep_meshes(cfg):
    """(nx, r) of each mesh-sweep mesh: r_list's, then nx_list's."""
    return ([(cfg["nx"], r) for r in cfg["r_list"]]
            + [(nx, cfg["fine"] // nx) for nx in cfg["nx_list"]])


def _exp_mesh_sweep(cfg, seed):
    rows = []
    by_J = {J: [] for J in cfg["J_list"]}
    theta = st.sample_theta(seed, 0, cfg["n"])
    # (nx, r) -> (err_ref_Jh, err_h_Jh) of each J: a mesh listed twice,
    # through r_list and nx_list, is solved once
    errors = {}
    for nx, r in _sweep_meshes(cfg):
        if (nx, r) not in errors:
            mesh = mesh_mod.build_mesh(nx, nx, r)
            model = _kle_model(cfg, mesh)
            split = field_mod.split_kle(model, theta, cfg["m"])
            rec = msfem.sample_errors(mesh, split, cfg["J_list"],
                                      reference=True)
            errors[nx, r] = [
                (fem.energy_norm(mesh, split.k, rec.u - rec.u_J[J]),
                 rec.err[J]) for J in cfg["J_list"]]
        for J, (err_ref, err) in zip(cfg["J_list"], errors[nx, r]):
            rows.append((nx, r, J, err_ref, err))
            by_J[J].append(err)
    checks = [(f"J={J} err_h_Jh spread {max(v) / min(v):.2f} < 2",
               max(v) < 2.0 * min(v)) for J, v in by_J.items()]
    header = ["nx_coarse", "r", "J", "err_ref_Jh", "err_h_Jh"]
    return [("mesh_sweep.csv", header, rows)], checks


def _exp_mc_stats(cfg, seed):
    mesh = mesh_mod.build_mesh(cfg["nx"], cfg["ny"], cfg["r"])
    model = _kle_model(cfg, mesh)
    rows, checks = [], []
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


def _colloc_runs(cfg, seed):
    """(L, collocation_run statistics) for each L of L_list, from one mesh,
    model and StochasticConfig; only the grid and its store depend on L."""
    mesh = mesh_mod.build_mesh(cfg["nx"], cfg["ny"], cfg["r"])
    model = _kle_model(cfg, mesh)
    config = st.StochasticConfig(mesh=mesh, model=model, m=cfg["m"],
                                 J_list=(cfg["J"],), seed=seed)
    for L in cfg["L_list"]:
        grid = st.build_sparse_grid(cfg["m"], L)
        store = st.precompute_green_inverses(mesh, model, grid, cfg["m"])
        yield L, st.collocation_run(config, cfg["N"], store, J=cfg["J"])


def _exp_colloc_table(cfg, seed):
    rows, checks, means = [], [], []
    for L, stats in _colloc_runs(cfg, seed):
        e = stats.extra["e"]
        not_spd = stats.extra["green_not_spd"]
        for s in range(cfg["N"]):
            rows.append((s, L, 100.0 * e[s], not_spd[s]))
            checks.append((f"sample={s} L={L} rel error <= 1%",
                           e[s] <= 0.01))
        means.append(stats.extra["mean_e"])
    for a, b, L in zip(means, means[1:], cfg["L_list"][1:]):
        checks.append((f"mean error nonincreasing at L={L}", b <= a))
    header = ["sample", "L", "rel_error_pct", "green_not_spd"]
    return [("colloc_table.csv", header, rows)], checks


def _exp_colloc_decomp(cfg, seed):
    rows, checks = [], []
    for L, stats in _colloc_runs(cfg, seed):
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


_MESH = {"nx", "ny", "r"}
_KLE = {"sigma2", "lx", "ly", "n"}
_COLLOC = _MESH | _KLE | {"m", "J", "L_list", "N"}
# each experiment's runner, the keys it reads, and the keys it reads beside
# a (key, value) of the config; every run also reads experiment, seed and out
_EXPERIMENTS = {
    "basis-bound": (_exp_basis_bound, {"r", "field", "J_list"}, {
        ("field", "kle"): _KLE | {"m_list"},
        ("field", "lognormal"): {"sc_list"}}),
    "basis-slope": (_exp_basis_slope, {"r", "J_list", "sc_list"}, {}),
    "solution-bound": (_exp_solution_bound,
                       _MESH | _KLE | {"m_list", "J_list"}, {}),
    "mesh-sweep": (_exp_mesh_sweep, _KLE | {
        "m", "J_list", "nx", "r_list", "nx_list", "fine"}, {}),
    "mc-stats": (_exp_mc_stats, _MESH | _KLE | {"m_list", "J_list", "N"}, {}),
    "colloc-table": (_exp_colloc_table, _COLLOC, {}),
    "colloc-decomp": (_exp_colloc_decomp, _COLLOC, {}),
    "cost-ratios": (_exp_cost_ratios, {"n", "m", "q", "L"}, {}),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(cfg, outdir, seed=None):
    """Run one experiment; returns True iff all bound checks passed.

    A negative seed, and a bad list entry or N (_check_entries), are
    refused before any work, and outdir is made only once the experiment
    has returned: a failed run leaves no directory behind.
    """
    seed = cfg.get("seed", 12345) if seed is None else seed
    if seed < 0:
        raise ValueError(f"seed must be >= 0, not {seed}")
    _check_entries(cfg)
    tables, checks = _EXPERIMENTS[cfg["experiment"]][0](cfg, seed)
    os.makedirs(outdir, exist_ok=True)
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
        _check_entries(cfg)
        if args.command == "run" and args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, not {args.seed}")
    except (ConfigError, MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"ok: {cfg['experiment']}")
        return 0

    outdir = args.out or cfg.get("out", "results")
    try:
        ok = run_experiment(cfg, outdir, seed=args.seed)
    except (MemoryError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {outdir}; checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
