import os
import re
from pathlib import Path

import numpy as np
import pytest

from msfem_split import (build_kle_model, build_mesh, build_sparse_grid,
                         precompute_green_inverses)
from msfem_split.cli import (EXPERIMENTS, ConfigError, main, parse_config,
                             run_experiment)
from msfem_split.stochastic import StochasticConfig, collocation_run
from reference import run_cli, same_outputs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
    # no experiment reads margin, so a config may not set it
    for key, value in (("bogus", "1"), ("margin", "0.5")):
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


def test_seed_override_changes_results(tmp_path):
    path = _write(tmp_path, BASIS_CFG)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", path, "--out", str(out1)]) == 0
    assert main(["run", path, "--out", str(out2), "--seed", "5"]) == 0
    assert (out1 / "basis_bound.csv").read_bytes() != \
        (out2 / "basis_bound.csv").read_bytes()


def test_out_env_override(tmp_path):
    path = _write(tmp_path, COST_CFG)
    out = tmp_path / "from_env"
    old = os.environ.get("MSFEM_SPLIT_OUT")
    os.environ["MSFEM_SPLIT_OUT"] = str(out)
    try:
        assert main(["run", path]) == 0
    finally:
        if old is None:
            del os.environ["MSFEM_SPLIT_OUT"]
        else:
            os.environ["MSFEM_SPLIT_OUT"] = old
    assert (out / "cost_ratios.csv").exists()


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


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_config_valid(path):
    assert parse_config(path)["experiment"] in EXPERIMENTS


def _shipped(name, edit=None):
    lines = (CONFIGS / name).read_text(encoding="utf-8").splitlines()
    return "\n".join(lines if edit is None else edit(lines)) + "\n"


@pytest.mark.parametrize("text,message", [
    (_shipped("mc_stats.cfg") + "field = lognormal\nsc = 0.5\n",
     "experiment 'mc-stats' never reads keys ['field', 'sc']"),
    (_shipped("basis_bound.cfg") + "sc = 0.5\n",
     "experiment 'basis-bound' never reads keys ['sc']"),
    (_shipped("basis_bound.cfg") + "m = 5\n",
     "experiment 'basis-bound' never reads keys ['m']"),
    (BASIS_CFG + "sigma2 = 1.0\nm_list = 3\n",
     "experiment 'basis-bound' never reads keys ['m_list', 'sigma2']"),
    (_shipped("basis_slope.cfg").replace("lognormal", "kle"),
     "experiment 'basis-slope' runs the lognormal splitting only"),
    (_shipped("mesh_sweep.cfg", lambda lines: [
        line for line in lines if not line.startswith("r_list")]),
     "experiment 'mesh-sweep' never reads keys ['nx']"),
    (COST_CFG + "J_list = 1\nN = 2\n",
     "experiment 'cost-ratios' never reads keys ['J_list', 'N']")],
    ids=["mc-stats-field", "kle-basis-bound-sc", "m-beside-m_list",
         "lognormal-basis-bound-kle", "basis-slope-kle", "mesh-sweep-nx",
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
field = lognormal
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


def _mesh_sweep_cfg(edit):
    lines = (CONFIGS / "mesh_sweep.cfg").read_text(encoding="utf-8")
    return "\n".join(edit(lines.splitlines())) + "\n"


@pytest.mark.parametrize("edit,message", [
    (lambda lines: [line for line in lines
                    if not line.startswith(("r_list", "nx_list"))],
     "mesh-sweep needs r_list and/or nx_list"),
    (lambda lines: [line.replace("4,12,20", "4,7,20") for line in lines],
     "fine=120 not divisible by nx=7"),
    (lambda lines: [line.replace("120", "100") for line in lines
                    if not line.startswith("r_list")],
     "fine=100 not divisible by nx=12")],
    ids=["no-lists", "nx-7", "fine-100"])
def test_mesh_sweep_rejected_before_run(tmp_path, edit, message):
    path = _write(tmp_path, _mesh_sweep_cfg(edit))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["validate", path]) == 2
    assert main(["run", path, "--out", str(out)]) == 2
    assert not out.exists()


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
    for extra, count in (("", 5), ("N = 3\n", 3)):
        cfg = parse_config(_write(tmp_path, COLLOC_TABLE_CFG + extra))
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
