import re
from pathlib import Path

import numpy as np
import pytest
import scipy

from msfem_split import (build_kle_model, build_mesh, build_sparse_grid,
                         precompute_green_inverses)
from msfem_split import cli
from msfem_split import msfem
from msfem_split import stochastic as st
from msfem_split.cli import (EXPERIMENTS, ConfigError, main, parse_config,
                             run_experiment)
from msfem_split.stochastic import StochasticConfig, collocation_run
from reference import diff_outputs, run_cli, same_outputs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PINNED = Path(__file__).resolve().parent / "pinned"


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


COST_CFG = """# smallest experiment
experiment = cost-ratios
n = 20
m = 10
q = 2
L = 2
"""

BASIS_CFG = """experiment = basis-bound
field = lognormal
r = 8
sc_list = 0.9
J_list = 0,1,2
seed = 4
"""

# 16 x 16 coarse cells with r=2 give 225 free coarse vertices: enough that a
# dense LAPACK Cholesky of the coarse system, in place of the band solve,
# changes its last bits between 1 and 2 BLAS threads.  A GEMM over the 256
# cells or a dot over the 1024 fine cells is too small for OpenBLAS to
# split, so those kernels need a larger mesh to be caught
SOLUTION_CFG = """experiment = solution-bound
nx = 16
ny = 16
r = 2
sigma2 = 1.0
lx = 0.1
ly = 0.1
n = 8
m_list = 6
J_list = 0,1
seed = 3
"""


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", _write(tmp_path, COST_CFG)]) == 0
    assert "cost-ratios" in capsys.readouterr().out


def test_unknown_key_rejected(tmp_path):
    # no experiment reads margin, so a config may not set it; sc was the
    # scalar spelling of sc_list
    for key, value in (("bogus", "1"), ("margin", "0.5"), ("sc", "0.5")):
        path = _write(tmp_path, COST_CFG + f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(path)
        assert main(["validate", path]) == 2


def test_unknown_experiment_rejected(tmp_path):
    path = _write(tmp_path, "experiment = warp-drive\n")
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config(path)


def test_missing_and_duplicate_keys(tmp_path):
    with pytest.raises(ConfigError, match="missing"):
        parse_config(_write(tmp_path, "experiment = cost-ratios\nn = 20\n"))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(_write(tmp_path, COST_CFG + "n = 21\n"))
    with pytest.raises(ConfigError, match="expected"):
        parse_config(_write(tmp_path, "experiment cost-ratios\n"))
    with pytest.raises(ConfigError,
                       match="missing required key 'experiment'"):
        parse_config(_write(tmp_path, "n = 20\nm = 10\n"))


def test_unparsable_value_rejected(tmp_path, capsys):
    # the error names the file, line and value; no traceback
    path = _write(tmp_path, BASIS_CFG.replace("r = 8", "r = four"))
    with pytest.raises(ConfigError,
                       match=rf"{re.escape(path)}:3: .*'four'"):
        parse_config(path)
    assert main(["validate", path]) == 2
    assert "'four'" in capsys.readouterr().err


def test_unknown_experiment_writes_nothing(tmp_path):
    path = _write(tmp_path, "experiment = warp-drive\n")
    out = tmp_path / "results"
    assert main(["run", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_cost_ratios_run(tmp_path):
    path = _write(tmp_path, COST_CFG)
    out = tmp_path / "res"
    assert main(["run", path, "--out", str(out)]) == 0
    csv = (out / "cost_ratios.csv").read_text().splitlines()
    assert csv[0] == "n,m,q,L,alpha_ftc,alpha_sgc,H_m,H_n"
    row = csv[1].split(",")
    assert float(row[4]) == 3.0 ** -10
    assert (int(row[6]), int(row[7])) == (221, 841)
    assert (out / "manifest.txt").exists()
    assert "result: PASS" in (out / "summary.txt").read_text()


def test_cost_ratios_negative_inputs_fail_with_an_error(tmp_path, capsys):
    # refused by the library: an error line and exit 1, no traceback
    for i, text in enumerate((
            COST_CFG.replace("q = 2", "q = -1"),
            COST_CFG.replace("m = 10", "m = -1").replace("L = 2", "L = -1"))):
        out = tmp_path / f"res{i}"
        assert main(["run", _write(tmp_path, text), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: need ")
        assert not (out / "cost_ratios.csv").exists()


def test_unknown_field_rejected(tmp_path):
    # any field but kle ran the lognormal splitting under its name
    path = _write(tmp_path, BASIS_CFG.replace("lognormal", "gaussian"))
    with pytest.raises(ConfigError, match="unknown field 'gaussian'"):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_basis_bound_run_and_determinism(tmp_path):
    # each config run twice, in child processes with 1 and 2 BLAS threads
    for cfg, name in ((SOLUTION_CFG, "sol.cfg"), (BASIS_CFG, "exp.cfg")):
        path = _write(tmp_path, cfg, name)
        out1, out2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        assert run_cli(path, out1, 1) == 0
        assert run_cli(path, out2, 2) == 0
        assert same_outputs(out1, out2)
    rows = (out1 / "basis_bound.csv").read_text().splitlines()
    assert rows[0] == "param,J,eta,error,bound"
    for line in rows[1:]:
        vals = line.split(",")
        assert float(vals[3]) <= float(vals[4])


def _tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    return root


def test_diff_outputs_reports_round_off_and_refuses_other_changes(
        tmp_path, capsys):
    base = {"x/r.csv": "p,err,check\n1,0.5,PASS\n2,0,PASS\n",
            "x/summary.txt": "result: PASS\n"}
    a = _tree(tmp_path / "a", base)
    moved = dict(base, **{"x/r.csv": "p,err,check\n1,0.5000001,PASS\n"
                                     "2,0,PASS\n"})
    assert diff_outputs(a, _tree(tmp_path / "b", moved)) == 0
    assert capsys.readouterr().out.splitlines() == [
        "largest relative change 2e-07 in column err  x/r.csv",
        "identical  x/summary.txt"]
    for i, (name, text, line) in enumerate([
            ("x/extra.csv", "p\n", f"only in {tmp_path / 'c0'}"),
            ("x/r.csv", "p,error,check\n1,0.5,PASS\n2,0,PASS\n",
             "header, rows or non-numeric cells differ"),
            ("x/r.csv", "p,err,check\n1,0.5,PASS\n",
             "header, rows or non-numeric cells differ"),
            ("x/r.csv", "p,err,check\n1,0.5,FAIL\n2,0,PASS\n",
             "header, rows or non-numeric cells differ"),
            ("x/summary.txt", "result: FAIL\n", "differs")]):
        changed = _tree(tmp_path / f"c{i}", dict(base, **{name: text}))
        assert diff_outputs(a, changed) == 1
        assert f"{line}  {name}" in capsys.readouterr().out.splitlines()
    # a change from zero is infinite, and still numeric
    zero = dict(base, **{"x/r.csv": "p,err,check\n1,0.5,PASS\n2,1,PASS\n"})
    assert diff_outputs(a, _tree(tmp_path / "z", zero)) == 0
    assert ("largest relative change inf in column err  x/r.csv"
            in capsys.readouterr().out.splitlines())


def test_seed_override_changes_results(tmp_path):
    path = _write(tmp_path, BASIS_CFG)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", path, "--out", str(out1)]) == 0
    assert main(["run", path, "--out", str(out2), "--seed", "5"]) == 0
    assert (out1 / "basis_bound.csv").read_bytes() != \
        (out2 / "basis_bound.csv").read_bytes()
    # the manifest lists the seed that took effect, not the config's too
    manifest1 = (out1 / "manifest.txt").read_text(encoding="utf-8")
    manifest2 = (out2 / "manifest.txt").read_text(encoding="utf-8")
    assert manifest1.splitlines().count("seed = 4") == 2
    assert manifest2 == manifest1.replace("seed = 4", "seed = 5")


def test_negative_seed_rejected_before_run(tmp_path, capsys):
    # a negative seed reached numpy's generator only once the run had made
    # its output directory; in the config or by --seed it is a config error
    path = _write(tmp_path, BASIS_CFG.replace("seed = 4", "seed = -3"))
    with pytest.raises(ConfigError, match="seed must be >= 0, not -3"):
        parse_config(path)
    assert main(["validate", path]) == 2
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 2
    assert main(["run", _write(tmp_path, BASIS_CFG, "ok.cfg"), "--out",
                 str(out), "--seed", "-2"]) == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0, not -3" in err
    assert "error: --seed must be >= 0, not -2" in err
    assert not out.exists()


@pytest.mark.parametrize("text", [COST_CFG, BASIS_CFG.replace(
    "basis-bound", "basis-slope").replace("field = lognormal\n", "").replace(
    "0.9", "0.8,0.9")], ids=["cost-ratios", "basis-slope"])
def test_run_experiment_refuses_negative_seed(tmp_path, text):
    # the library entry refused nothing: cost-ratios wrote seed = -1 into
    # its manifest, basis-slope left an empty directory behind numpy's error
    cfg = parse_config(_write(tmp_path, text))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="seed must be >= 0, not -1"):
        run_experiment(cfg, str(out), seed=-1)
    assert not out.exists()
    assert run_experiment(cfg, str(out), seed=0)
    assert "seed = 0" in (out / "manifest.txt").read_text(encoding="utf-8")


def test_failed_run_leaves_no_directory(tmp_path):
    # N = 0 is refused by run_experiment before any work
    cfg = parse_config(_write(tmp_path, COLLOC_TABLE_CFG + "N = 0\n"))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="N must be >= 1"):
        run_experiment(cfg, str(out))
    assert not out.exists()


def test_csv_17_significant_digits(tmp_path):
    path = _write(tmp_path, BASIS_CFG)
    out = tmp_path / "digits"
    assert main(["run", path, "--out", str(out)]) == 0
    rows = (out / "basis_bound.csv").read_text().splitlines()[1:]
    errors = [row.split(",")[3] for row in rows]
    # round-trips exactly through float parsing
    for text in errors:
        assert format(float(text), ".17g") == text


def test_mc_stats_without_bound_fails(tmp_path):
    # m=1 of a high-variance field leaves eta_max >= 1: no finite bound
    cfg = parse_config(_write(tmp_path, """experiment = mc-stats
nx = 2
ny = 2
r = 2
sigma2 = 4.0
lx = 0.3
ly = 0.3
n = 4
m_list = 1
J_list = 0
N = 2
"""))
    out = tmp_path / "out"
    assert run_experiment(cfg, str(out)) is False
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "FAIL  m=1 J=0 mean no bound: eta" in summary
    assert "result: FAIL" in summary


def test_solution_bound_without_bound_fails(tmp_path):
    # m=1 of a high-variance field leaves eta = 2.27 >= 1: no bound at m=1,
    # while m=18 still reports its check
    cfg = parse_config(_write(tmp_path, """experiment = solution-bound
nx = 2
ny = 2
r = 3
sigma2 = 9.0
lx = 0.3
ly = 0.3
n = 20
m_list = 1,18
J_list = 0,1
"""))
    out = tmp_path / "out"
    assert run_experiment(cfg, str(out)) is False
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "FAIL  m=1 J=0 no bound: eta 2.27 >= 1" in summary
    assert "m=18 J=0 error<=bound" in summary
    assert "result: FAIL" in summary
    rows = (out / "solution_bound.csv").read_text().splitlines()
    assert rows[1].startswith("1,0,") and rows[1].endswith(",inf")


def test_basis_bound_without_bound_fails(tmp_path):
    # sc=0.1 leaves eta = max |exp(0.9 Y) - 1| >= 1
    cfg = parse_config(_write(tmp_path, BASIS_CFG.replace("0.9", "0.1")))
    out = tmp_path / "out"
    assert run_experiment(cfg, str(out)) is False
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "FAIL  sc=0.1 J=0 no bound: eta" in summary


def test_colloc_table_reports_indefinite_green_counts(tmp_path):
    cfg = parse_config(_write(tmp_path, """experiment = colloc-table
nx = 4
ny = 4
r = 3
sigma2 = 1.0
lx = 0.1
ly = 0.1
n = 10
m = 6
J = 1
L_list = 1,2
N = 5
seed = 12345
"""))
    out = tmp_path / "out"
    run_experiment(cfg, str(out))
    lines = (out / "colloc_table.csv").read_text().splitlines()
    assert lines[0] == "sample,L,rel_error_pct,green_not_spd"
    rows = [line.split(",") for line in lines[1:]]
    mesh = build_mesh(4, 4, 3)
    model = build_kle_model(mesh, 1.0, 0.1, 0.1, 10)
    config = StochasticConfig(mesh=mesh, model=model, m=6, J_list=(1,),
                              seed=12345)
    for L in (1, 2):
        store = precompute_green_inverses(mesh, model,
                                          build_sparse_grid(6, L), 6)
        counts = collocation_run(config, 5, store).extra["green_not_spd"]
        assert [int(row[3]) for row in rows if row[1] == str(L)] == \
            list(counts)
    # at L=1 one sample's interpolant is indefinite in some cells
    assert any(int(row[3]) for row in rows)


@pytest.mark.parametrize("config,key", [
    ("solution_bound.cfg", "m_list"), ("mc_stats.cfg", "m_list"),
    ("basis_slope.cfg", "sc_list"), ("basis_slope.cfg", "J_list"),
    ("colloc_table.cfg", "L_list"), ("mesh_sweep.cfg", "r_list"),
    ("mesh_sweep.cfg", "nx_list"),
    pytest.param(BASIS_CFG, "sc_list", id="lognormal-basis-bound-sc_list")])
def test_empty_list_rejected(tmp_path, config, key):
    if config.endswith(".cfg"):
        config = (CONFIGS / config).read_text(encoding="utf-8")
    lines = config.splitlines()
    lineno = next(i for i, line in enumerate(lines, 1)
                  if line.startswith(f"{key} ="))
    lines[lineno - 1] = f"{key} ="
    path = _write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}:{lineno}: empty list for '{key}'")):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["validate", path]) == 2
    assert main(["run", path, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("config,key,value,message", [
    # basis-bound's monotone check and colloc-table's nonincreasing check
    # compare in list order, so these failed valid runs
    ("basis_bound.cfg", "J_list", "2,0,1", "must be strictly increasing"),
    ("colloc_table.cfg", "L_list", "3,1", "must be strictly increasing"),
    ("mesh_sweep.cfg", "r_list", "10,10,30", "must be strictly increasing"),
    ("basis_slope.cfg", "sc_list", "0.96,0.8", "must be strictly increasing"),
    # were read as [1, 2] and [0, 1]
    ("basis_bound.cfg", "J_list", "1,,2", "empty element in list for"),
    ("mc_stats.cfg", "J_list", "0,1,", "empty element in list for")])
def test_unordered_or_gapped_list_rejected(tmp_path, config, key, value,
                                           message):
    lines = (CONFIGS / config).read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, 1)
                  if line.startswith(f"{key} ="))
    lines[lineno - 1] = f"{key} = {value}"
    path = _write(tmp_path, "\n".join(lines) + "\n")
    named = (f"'{key}' {message}" if message.startswith("must")
             else f"{message} '{key}'")
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}:{lineno}: {named}")):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["validate", path]) == 2
    assert main(["run", path, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_config_valid(path):
    assert parse_config(path)["experiment"] in EXPERIMENTS


def _shipped(name, edit=None):
    lines = (CONFIGS / name).read_text(encoding="utf-8").splitlines()
    return "\n".join(lines if edit is None else edit(lines)) + "\n"


@pytest.mark.parametrize("text,message", [
    (_shipped("mc_stats.cfg") + "field = lognormal\nsc_list = 0.5\n",
     "experiment 'mc-stats' never reads keys ['field', 'sc_list']"),
    (_shipped("basis_bound.cfg") + "sc_list = 0.5\n",
     "experiment 'basis-bound' never reads keys ['sc_list']"),
    (_shipped("basis_bound.cfg") + "m = 5\n",
     "experiment 'basis-bound' never reads keys ['m']"),
    (BASIS_CFG + "sigma2 = 1.0\nm_list = 3\n",
     "experiment 'basis-bound' never reads keys ['m_list', 'sigma2']"),
    (_shipped("basis_slope.cfg") + "field = kle\n",
     "experiment 'basis-slope' never reads keys ['field']"),
    (_shipped("mesh_sweep.cfg") + "ny = 12\n",
     "experiment 'mesh-sweep' never reads keys ['ny']"),
    (COST_CFG + "J_list = 1\nN = 2\n",
     "experiment 'cost-ratios' never reads keys ['J_list', 'N']")],
    ids=["mc-stats-field", "kle-basis-bound-sc", "m-beside-m_list",
         "lognormal-basis-bound-kle", "basis-slope-kle", "mesh-sweep-ny",
         "cost-ratios"])
def test_keys_the_experiment_never_reads_rejected(tmp_path, text, message):
    # a key no run of the experiment reads would reach its manifest as if
    # it had taken effect
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["validate", path]) == 2
    assert main(["run", path, "--out", str(out)]) == 2
    assert not out.exists()


SLOPE_CFG = """experiment = basis-slope
r = 6
sc_list = {}
J_list = 0,2
seed = 1
"""


def test_basis_slope_without_bound_fails(tmp_path):
    # both strength factors leave eta >= 1
    cfg = parse_config(_write(tmp_path, SLOPE_CFG.format("0.5,0.6")))
    out = tmp_path / "out"
    assert run_experiment(cfg, str(out)) is False
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "FAIL  sc=0.5 no bound: eta" in summary
    assert "FAIL  sc=0.6 no bound: eta" in summary
    for J in (0, 2):
        assert f"FAIL  J={J} no slope: 0 points" in summary
    assert (out / "basis_slope.csv").read_text() == "J,sc,eta,error\n"


def test_basis_slope_needs_two_points_with_error(tmp_path):
    # sc = 1 makes k1 = 0, so eta = 0 and every basis is exact
    cfg = parse_config(_write(tmp_path, SLOPE_CFG.format("0.9,1.0")))
    out = tmp_path / "out"
    assert run_experiment(cfg, str(out)) is False
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    for J in (0, 2):
        assert f"FAIL  J={J} no slope: 1 points" in summary
    rows = (out / "basis_slope.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1:] for row in rows if row.startswith("0,")][1] \
        == ["1", "0", "0"]


def test_mesh_sweep_solves_each_mesh_once(tmp_path, monkeypatch):
    # (2, 3) is listed through both r_list and nx_list: solved once, its
    # rows written twice, in the order listed
    cfg = parse_config(_write(tmp_path, """experiment = mesh-sweep
sigma2 = 2.25
lx = 0.7
ly = 0.04
n = 8
m = 6
J_list = 0,1
nx = 2
r_list = 2,3
nx_list = 2,3
fine = 6
"""))
    exact = msfem.sample_errors
    calls, inside = [], []

    def counted(mesh, *args, **kwargs):
        # sample_errors calls itself to open its pool: count the outer call
        if not inside:
            calls.append((mesh.nx_coarse, mesh.r))
        inside.append(None)
        try:
            return exact(mesh, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(msfem, "sample_errors", counted)
    out = tmp_path / "out"
    run_experiment(cfg, str(out))
    assert calls == [(2, 2), (2, 3), (3, 2)]
    rows = (out / "mesh_sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [
        [nx, r, J] for nx, r in (("2", "2"), ("2", "3"), ("2", "3"),
                                 ("3", "2")) for J in ("0", "1")]
    assert rows[2:4] == rows[4:6]


def _mesh_sweep_cfg(edit):
    lines = (CONFIGS / "mesh_sweep.cfg").read_text(encoding="utf-8")
    return "\n".join(edit(lines.splitlines())) + "\n"


@pytest.mark.parametrize("edit,message", [
    (lambda lines: [line for line in lines
                    if not line.startswith(("r_list", "nx_list"))],
     "experiment 'mesh-sweep' missing keys ['nx_list', 'r_list']"),
    (lambda lines: [line.replace("4,12,20", "4,7,20") for line in lines],
     "fine=120 not divisible by nx=7"),
    (lambda lines: [line.replace("120", "100") for line in lines],
     "fine=100 not divisible by nx=12"),
    (lambda lines: [line.replace("4,12,20", "4,12,120") for line in lines],
     "mesh-sweep mesh nx=120, r=1: refinement factor r must be >= 2"),
    (lambda lines: [line.replace("10,20,30", "1,10") for line in lines],
     "mesh-sweep mesh nx=12, r=1: refinement factor r must be >= 2")],
    ids=["no-lists", "nx-7", "fine-100", "nx-120", "r-1"])
def test_mesh_sweep_rejected_before_run(tmp_path, edit, message):
    # each mesh has r >= 2: validate passed nx=120 at fine=120 and r_list
    # entry 1, and run failed only after solving the meshes before them
    path = _write(tmp_path, _mesh_sweep_cfg(edit))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["validate", path]) == 2
    assert main(["run", path, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("name,old,new,message", [
    ("mc_stats.cfg", "m_list = 14,18", "m_list = 14,30",
     "m=30 outside [0, 20]"),
    ("solution_bound.cfg", "m_list = 16,18", "m_list = 16,30",
     "m=30 outside [0, 20]"),
    ("colloc_table.cfg", "N = 5", "N = 0", "N must be >= 1"),
    ("colloc_table.cfg", "L_list = 1,2,3", "L_list = 1,2,3,9",
     "a sparse grid of m=16, L=9 would hold more than 1000000 nodes")],
    ids=["mc-m", "solution-m", "colloc-N", "colloc-L"])
def test_bad_list_entry_or_N_refused_before_any_work(
        tmp_path, monkeypatch, capsys, name, old, new, message):
    # validate printed ok for each, and run failed only after the work of
    # the entries before the bad one: 50 samples at m=14, the solve at
    # m=16, the L=1 store, or the stores of L = 1, 2 and 3
    text = (CONFIGS / name).read_text(encoding="utf-8")
    assert old in text
    path = _write(tmp_path, text.replace(old, new))
    called = []
    for fn in ("monte_carlo_run", "precompute_green_inverses"):
        monkeypatch.setattr(st, fn, lambda *a, fn=fn, **k: called.append(fn))
    monkeypatch.setattr(msfem, "sample_errors",
                        lambda *a, **k: called.append("sample_errors"))
    out = tmp_path / "out"
    for argv in (["validate", path], ["run", path, "--out", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises((MemoryError, ValueError), match=re.escape(message)):
        run_experiment(parse_config(path), str(out))
    assert not called and not out.exists()


COLLOC_TABLE_CFG = """experiment = colloc-table
nx = 2
ny = 2
r = 2
sigma2 = 1.0
lx = 0.3
ly = 0.3
n = 4
m = 2
J = 1
L_list = 1
"""


def test_colloc_table_sample_count_from_N(tmp_path):
    with pytest.raises(ConfigError, match=re.escape("missing keys ['N']")):
        parse_config(_write(tmp_path, COLLOC_TABLE_CFG))
    for count in (5, 3):
        cfg = parse_config(_write(tmp_path,
                                  COLLOC_TABLE_CFG + f"N = {count}\n"))
        out = tmp_path / f"out{count}"
        run_experiment(cfg, str(out))
        rows = (out / "colloc_table.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == \
            [str(s) for s in range(count)]


def test_colloc_table_sample_list_rejected(tmp_path):
    path = _write(tmp_path, COLLOC_TABLE_CFG + "sample_list = 0,1\n")
    with pytest.raises(ConfigError, match="unknown key 'sample_list'"):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["validate", path]) == 2
    assert main(["run", path, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("name,key", [
    ("basis_bound.cfg", "field"), ("basis_bound.cfg", "n"),
    ("basis_bound.cfg", "J_list"), ("basis_bound.cfg", "m_list"),
    ("mesh_sweep.cfg", "nx"), ("mesh_sweep.cfg", "fine"),
    ("colloc_table.cfg", "N")])
def test_every_value_read_is_required(tmp_path, name, key):
    # each of these had a silent default, which the manifest did not list
    path = _write(tmp_path, _shipped(name, lambda lines: [
        line for line in lines if not line.startswith(f"{key} =")]))
    experiment = parse_config(CONFIGS / name)["experiment"]
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}: experiment {experiment!r} missing keys ['{key}']")):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_key_types_and_reads_agree():
    # every typed key is read by some experiment, and every key read has a
    # type: a key left in one table and not the other fails here
    read = {"experiment", "seed", "out"}
    for _, required, beside in cli._EXPERIMENTS.values():
        read |= required | set().union(*beside.values())
        assert {key for key, _ in beside} <= required
    assert read == set(cli._TYPES)
    assert EXPERIMENTS == tuple(cli._EXPERIMENTS)


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "sub"
    assert main(["run", _write(tmp_path, COST_CFG), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("experiment,extra,message", [
    ("mc-stats", "m_list = 2\nN = 2\n",
     "error: sample 0 failed: a 1x4 coarse mesh has no interior vertex"),
    ("solution-bound", "m_list = 2\n",
     "error: a 1x4 coarse mesh has no interior vertex")],
    ids=["mc-stats", "solution-bound"])
def test_empty_coarse_space_fails_with_an_error(tmp_path, capsys,
                                                experiment, extra, message):
    # mc-stats passed with mean_error 0, solution-bound divided by
    # |||u_h||| = 0
    path = _write(tmp_path, f"""experiment = {experiment}
nx = 1
ny = 4
r = 4
sigma2 = 1.0
lx = 0.3
ly = 0.3
n = 4
J_list = 0,1
""" + extra)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.skipif(
    (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"),
    reason="tests/pinned was written under numpy 2.4.6 and scipy 1.17.1; "
           "other BLAS builds may move last bits")
@pytest.mark.parametrize("name", ["solution_bound", "mesh_sweep"])
def test_solution_level_csv_bits_pinned(tmp_path, name):
    # a banded solution-bound and a mesh-sweep keep the bits of their CSVs
    # under tests/pinned: summing local_coarse_systems' loads without
    # order="F" moves both in the last digits, as no tolerance test sees
    assert run_experiment(parse_config(PINNED / f"{name}.cfg"), str(tmp_path))
    assert (tmp_path / f"{name}.csv").read_bytes() == \
        (PINNED / f"{name}.csv").read_bytes()
