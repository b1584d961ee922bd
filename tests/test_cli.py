import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import piezoshunt as ps
from piezoshunt import timesim
from piezoshunt.cli import run_command
from piezoshunt.config import load_config
from piezoshunt.errors import ConfigError


def test_empty_config_applies_defaults():
    cfg = load_config("")
    assert cfg.n_patches == 5
    assert cfg.coverage == 0.9
    assert cfg.n_modes == 5
    assert cfg.target_mode == 1
    assert cfg.objective == "min-damping-ratio"


def test_empty_patches_section_applies_defaults():
    cfg = load_config("[patches]\n")
    assert cfg.n_patches == 5 and cfg.coverage == 0.9


def test_config_si_suffixes_and_comments():
    cfg = load_config("""
# scenario
[patches]
Cp = 100n   # farads
gamma = 1m

[network]
R = 80k
""")
    assert cfg.cp == pytest.approx(1e-7)
    assert cfg.gamma == pytest.approx(1e-3)
    assert cfg.r == pytest.approx(8e4)


def test_config_rejects_zero_mode_count():
    with pytest.raises(ConfigError, match=r"\[beam\] mode count must lie in \[1, 12\], got 0"):
        load_config("[beam]\nM = 0\n")


@pytest.mark.parametrize("section, key, value", [
    ("beam", "L", "0"), ("beam", "EI", "-1"), ("beam", "rhoA", "0"), ("beam", "zeta", "1"),
    ("beam", "M", "13"), ("patches", "N", "0"), ("patches", "coverage", "1.5"),
    ("patches", "Cp", "0"), ("network", "R", "-1"), ("network", "L", "0"),
    ("optimize", "target_mode", "6"), ("simulate", "dt", "0"), ("simulate", "T", "-1"),
])
def test_config_rejects_each_bad_value_with_its_section(section, key, value):
    with pytest.raises(ConfigError) as info:
        load_config(f"[{section}]\n{key} = {value}\n")
    assert info.value.section == section
    assert str(info.value).startswith(f"[{section}] ")


def test_config_rejects_unknown_key_with_location():
    with pytest.raises(ConfigError, match=r"\[patches\] line 2: unknown key"):
        load_config("[patches]\nwidth = 3\n")


def test_config_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown section"):
        load_config("[plasma]\nx = 1\n")


def test_config_rejects_malformed_number():
    with pytest.raises(ConfigError, match="malformed number"):
        load_config("[beam]\nL = fast\n")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("section, key", [("beam", "zeta"), ("patches", "Cp"),
                                          ("patches", "gamma"), ("network", "L")])
def test_config_rejects_non_finite_number_with_location(section, key, token):
    with pytest.raises(ConfigError, match=rf"\[{section}\] line 3: malformed number"):
        load_config(f"[{section}]\n\n{key} = {token}\n")


@pytest.mark.parametrize("command, text", [
    ("optimize", "[patches]\ngamma = nan\n"),
    ("eig", "[patches]\nCp = inf\n"),
])
def test_non_finite_config_is_validation_error(tmp_path, capsys, command, text):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    assert run_command([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "line 2: malformed number" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_non_finite_netlist_is_validation_error(tmp_path, capsys):
    netlist = tmp_path / "net.lst"
    netlist.write_text("piezo 1 n1\nbranch b1 n1 gnd R=1 L=nan\n")
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[patches]\nN = 1\n")
    rc = run_command(["simulate", "--config", str(cfg), "--netlist", str(netlist),
                      "--out", str(tmp_path)])
    assert rc == 1
    assert "line 2: malformed number" in capsys.readouterr().err


def test_config_rejects_key_outside_section():
    with pytest.raises(ConfigError, match="outside any section"):
        load_config("L = 1\n")


def test_config_bounds_must_pair():
    with pytest.raises(ConfigError, match="R_min and R_max"):
        load_config("[optimize]\nR_min = 1\n")
    with pytest.raises(ConfigError, match=re.escape("got only ['L_max', 'R_min']")):
        load_config("[optimize]\nR_min = 1\nL_max = 10\n")


@pytest.mark.parametrize("text, line", [
    ("[beam]\nM = 5\nM = 6\n", 3),
    ("[beam]\nM = 5\n[patches]\nN = 2\n[beam]\nM = 6\n", 6),
], ids=["same_header", "section_again"])
def test_config_rejects_a_repeated_key_with_its_line(text, line):
    with pytest.raises(ConfigError, match=rf"^\[beam\] line {line}: repeated key 'M'$"):
        load_config(text)


@pytest.mark.parametrize("keys", ["R_min = 1\nR_max = 10\n", "L_min = 1\nL_max = 10\n"],
                         ids=["R_only", "L_only"])
def test_config_search_box_needs_all_four_keys(tmp_path, capsys, keys):
    text = "[optimize]\n" + keys
    with pytest.raises(ConfigError, match=r"\[optimize\].*R_min and R_max") as info:
        load_config(text)
    assert info.value.section == "optimize"
    # every subcommand loads the config, so the half box fails before any work
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    assert run_command(["eig", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "[optimize]" in capsys.readouterr().err
    assert not (tmp_path / "eig.csv").exists()


def test_config_search_box_is_one_field():
    cfg = load_config("[optimize]\nR_min = 1\nR_max = 10k\nL_min = 2\nL_max = 20k\n")
    assert cfg.bounds == ((1.0, 1e4), (2.0, 2e4))
    assert load_config("").bounds is None
    with pytest.raises(ConfigError, match=r"\[optimize\] R bounds must satisfy 0 < R_min < R_max"):
        load_config("[optimize]\nR_min = 10\nR_max = 1\nL_min = 1\nL_max = 10\n")
    with pytest.raises(ConfigError, match=r"\[optimize\] L bounds must satisfy 0 < L_min < L_max"):
        load_config("[optimize]\nR_min = 1\nR_max = 10\nL_min = 0\nL_max = 10\n")


def _python_with_package(*args):
    """Run a fresh interpreter that imports this checkout's piezoshunt."""
    src = str(Path(ps.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_module_entry_point_runs_a_subcommand(tmp_path):
    proc = _python_with_package("-m", "piezoshunt.cli", "modes", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "modes.csv").read_text().startswith("mode,betaL,")


def test_package_imports_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference, and
    # numpy.polynomial (quadrature nodes, fits) is only the tests' oracles' business
    proc = _python_with_package("-c", "import piezoshunt, piezoshunt.cli, sys; "
                                "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
                                "assert not [m for m in sys.modules "
                                "if m.startswith('numpy.polynomial')], 'numpy.polynomial'")
    assert proc.returncode == 0, proc.stderr


def test_modes_command_writes_csv(tmp_path):
    rc = run_command(["modes", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "modes.csv").read_text().splitlines()
    assert lines[0] == "mode,betaL,omega_rad_s,zeta,norm"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[1] == "1.87510407"  # 9 significant digits
    assert abs(float(first[2]) - 3.5160153) < 1e-6


def test_eig_command_tags_split_when_uncoupled(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[patches]\ngamma = 0\n")
    rc = run_command(["eig", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "eig.csv").read_text().splitlines()[1:]
    tags = [row.split(",")[-1] for row in rows]
    assert tags.count("mechanical") == 10
    assert tags.count("electrical") == 2
    assert len(rows) == 12


def test_frf_command_emits_grid_rows(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[beam]\nM = 3\n")
    rc = run_command(["frf", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "frf.csv").read_text().splitlines()
    assert lines[0] == "omega_rad_s,mag_m_per_N,phase_rad"
    assert len(lines) == 2001
    # grid spans [0.1 w1, 1.2 w3]
    basis = ps.modal_basis(ps.BeamSpec(1, 1, 1), 3)
    assert float(lines[1].split(",")[0]) == pytest.approx(0.1 * basis.omega[0], rel=1e-6)
    assert float(lines[-1].split(",")[0]) == pytest.approx(1.2 * basis.omega[2], rel=1e-6)


def test_optimize_command_trace(tmp_path, capsys):
    rc = run_command(["optimize", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kappa" in out and "optimum" in out
    lines = (tmp_path / "optimize_trace.csv").read_text().splitlines()
    assert len(lines) == 10  # header + 9 starts
    assert lines[0].startswith("start,R0,L0,R_opt,L_opt")


def test_simulate_command_reports_energy_residual(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[simulate]\nT = 5\n")
    rc = run_command(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert "energy_residual" in capsys.readouterr().out
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t_s,tip_m,energy_J"
    assert len(lines) > 100


def test_builder_error_surfaced_with_config_location(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[patches]\nN = 1\n\n[network]\ntopology = transmission_line\n")
    rc = run_command(["eig", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "[network]" in err and "transmission_line" in err


def test_missing_config_file_is_validation_error(tmp_path, capsys):
    rc = run_command(["eig", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert rc == 1


def test_topology_override_flag(tmp_path):
    rc = run_command(["eig", "--topology", "multi_shunt", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "eig.csv").read_text().splitlines()[1:]
    assert len(rows) == 20  # 2*5 + 5 + 5 states


def test_netlist_override_flag(tmp_path):
    netlist = tmp_path / "net.lst"
    lines = [f"piezo {i} n{i}" for i in range(1, 6)]
    lines += [f"branch b{i} n{i} gnd R=100 L=160k" for i in range(1, 6)]
    netlist.write_text("\n".join(lines))
    rc = run_command(["eig", "--netlist", str(netlist), "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "eig.csv").read_text().splitlines()[1:]
    assert len(rows) == 20


def test_bad_netlist_exit_code(tmp_path, capsys):
    netlist = tmp_path / "net.lst"
    netlist.write_text("piezo 1 n1\nbranch b1 n1 n1 R=1 L=1\n")
    rc = run_command(["eig", "--netlist", str(netlist), "--out", str(tmp_path)])
    assert rc == 1
    assert "self-loop" in capsys.readouterr().err


def test_nine_significant_digit_serialization(tmp_path):
    run_command(["modes", "--out", str(tmp_path)])
    for row in (tmp_path / "modes.csv").read_text().splitlines()[1:]:
        for cell in row.split(",")[1:]:
            mantissa = cell.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
            assert len(mantissa) <= 9


def test_simulate_computes_energy_history_once(tmp_path, monkeypatch):
    calls = []
    history = timesim.energy_history
    monkeypatch.setattr(timesim, "energy_history",
                        lambda *args: calls.append(1) or history(*args))
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[simulate]\nT = 5\n")
    assert run_command(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_compare_builds_basis_and_patches_once(tmp_path, monkeypatch):
    from piezoshunt import cli

    calls = []
    for name in ("modal_basis", "uniform_layout"):
        build = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, _b=build, _n=name: calls.append(_n) or _b(*args))
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[beam]\nM = 2\n[patches]\nN = 2\n")
    assert run_command(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert calls == ["modal_basis", "uniform_layout"]
    topologies = [row.split(",")[0] for row in (tmp_path / "compare.csv").read_text().splitlines()]
    assert topologies == ["topology", "single_shunt", "multi_shunt", "transmission_line"]


def test_csv_writer_matches_the_per_value_join(tmp_path):
    from piezoshunt import cli

    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, 1e300, 123456789.5, -2.5e-7]
    rng = np.random.default_rng(7)
    floats = [*specials, *rng.standard_normal(2990) * 10.0 ** rng.integers(-30, 30, 2990)]
    n = len(floats)  # more rows than one formatting block
    assert n > cli._CSV_BLOCK
    ints = rng.integers(-2**62, 2**62, n)
    singles = rng.standard_normal(n).astype(np.float32)
    singles[:5] = [0.0, -0.0, np.inf, -np.inf, np.nan]
    columns = {
        "float": floats,                                    # Python floats
        "float64": -np.array(floats),                       # a float array
        "float32": singles,                                 # another float type
        "int": [int(v) for v in ints],                      # Python ints
        "int64": ints,                                      # an int array
        "uint8": rng.integers(0, 256, n).astype(np.uint8),
        "bool": rng.random(n) < 0.5,
        "str": [("a,b", "mechanical", "zero")[j % 3] for j in range(n)],
    }

    path = tmp_path / "table.csv"
    cli._write_csv(path, list(columns), list(columns.values()))
    cells = [[v.item() if isinstance(v, np.generic) else v for v in col]
             for col in columns.values()]
    expected = ",".join(columns) + "\n" + "".join(
        ",".join(cli._fmt(v) if not isinstance(v, str) else v for v in row) + "\n"
        for row in zip(*cells))
    assert path.read_text() == expected
    cli._write_csv(path, ["a", "b"], [[], np.array([])])
    assert path.read_text() == "a,b\n"


@pytest.mark.parametrize("flag, value", [("--netlist", "missing.lst"),
                                         ("--topology", "multi_shunt")])
def test_compare_rejects_the_network_flags(tmp_path, capsys, flag, value):
    rc = run_command(["compare", flag, value, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out" / "compare.csv").exists()


def test_compare_accepts_the_shared_network_config_keys(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[beam]\nM = 2\n[patches]\nN = 2\n[network]\ntopology = multi_shunt\n"
                   f"netlist = {tmp_path / 'missing.lst'}\n")
    assert run_command(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "compare.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["single_shunt", "multi_shunt",
                                                   "transmission_line"]


def test_per_branch_optimize_reduces_the_system_once(tmp_path, monkeypatch):
    from piezoshunt import reduction

    calls = []
    reduce = reduction.reduce
    monkeypatch.setattr(reduction, "reduce", lambda *args: calls.append(args) or reduce(*args))
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[beam]\nM = 2\n[patches]\nN = 2\n[network]\ntopology = multi_shunt\n"
                   "[optimize]\nper_branch = true\n")
    assert run_command(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
