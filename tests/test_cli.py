import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import piezoshunt as ps
from piezoshunt import timesim
from piezoshunt.cli import _COMMANDS, _parser, run_command
from piezoshunt.config import _SCHEMA, TOPOLOGIES, load_config
from piezoshunt.errors import ConfigError, NumericalError


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
    # the output directory is the command line's --out
    with pytest.raises(ConfigError, match=r"line 1: unknown section \[output\]"):
        load_config("[output]\ndir = out\n")


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
    cfg.write_text(f"[patches]\nN = 1\n[network]\nnetlist = {netlist}\n")
    rc = run_command(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
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
    # numpy is the only runtime dependency; scipy, sympy and mpmath are test-only
    # references, and numpy.polynomial (quadrature nodes, fits) is only the tests'
    # oracles' business.  Only a fresh interpreter shows it: the suite imports them.
    proc = _python_with_package("-c", "import piezoshunt, piezoshunt.cli, sys; "
                                "top = {m.split('.')[0] for m in sys.modules}; "
                                "assert not top & {'scipy', 'sympy', 'mpmath'}, top; "
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
    assert "branch" not in out  # a uniform tuning has no branch values to print
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


def test_simulate_refuses_a_run_from_rest(tmp_path, capsys):
    # simulate applies no force, so a run from rest would be all zeros
    text = "[simulate]\ninitial = zero\n"
    message = "[simulate] line 2: expected one of ('tip_displacement', 'tip_impulse'), got 'zero'"
    with pytest.raises(ConfigError) as info:
        load_config(text)
    assert str(info.value) == message
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    assert run_command(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_simulate_too_short_for_the_energy_residual_writes_no_csv(tmp_path, capsys):
    # the residual is refused before the trajectory is written
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[simulate]\nT = 1e-6\n")
    assert run_command(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: energy residual needs at least 3 samples\n"
    assert not list(tmp_path.glob("*.csv"))


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
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[network]\ntopology = multi_shunt\n")
    rc = run_command(["eig", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "eig.csv").read_text().splitlines()[1:]
    assert len(rows) == 20  # 2*5 + 5 + 5 states


#: Five grounded branches, one per default patch: 20 states, where the default
#: single shunt has 12 and the default-size transmission line 19.
FIVE_BRANCH_NETLIST = "\n".join([f"piezo {i} n{i}" for i in range(1, 6)]
                                + [f"branch b{i} n{i} gnd R=100 L=160k" for i in range(1, 6)])


def test_netlist_override_flag(tmp_path):
    netlist = tmp_path / "net.lst"
    netlist.write_text(FIVE_BRANCH_NETLIST)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"[network]\ntopology = transmission_line\nnetlist = {netlist}\n")
    rc = run_command(["eig", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "eig.csv").read_text().splitlines()[1:]
    assert len(rows) == 20


def test_bad_netlist_exit_code(tmp_path, capsys):
    netlist = tmp_path / "net.lst"
    netlist.write_text("piezo 1 n1\nbranch b1 n1 n1 R=1 L=1\n")
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"[network]\nnetlist = {netlist}\n")
    rc = run_command(["eig", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "self-loop" in capsys.readouterr().err


def test_relative_netlist_path_is_read_from_the_config_directory(tmp_path, monkeypatch):
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "net.lst").write_text(FIVE_BRANCH_NETLIST)
    (tmp_path / "in" / "s.cfg").write_text("[network]\nnetlist = net.lst\n")
    monkeypatch.chdir(tmp_path)
    assert run_command(["eig", "--config", os.path.join("in", "s.cfg"), "--out", "out"]) == 0
    assert len((tmp_path / "out" / "eig.csv").read_text().splitlines()[1:]) == 20


@pytest.mark.parametrize("bad", ["config", "netlist"])
def test_non_utf8_input_is_validation_error(tmp_path, capsys, bad):
    netlist = tmp_path / "net.lst"
    netlist.write_bytes(b"piezo 1 n1\nbranch b1 n1 gnd R=1 L=1\n"
                        + (b"# \xff\n" if bad == "netlist" else b""))
    cfg = tmp_path / "s.cfg"
    text = f"[patches]\nN = 1\n[network]\nnetlist = {netlist}\n".encode()
    cfg.write_bytes(b"\xff\xfe" + text if bad == "config" else text)
    rc = run_command(["eig", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    path = cfg if bad == "config" else netlist
    assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode")
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("flag, value", [("--topology", "multi_shunt"),
                                         ("--netlist", "net.lst")])
def test_the_network_flags_are_refused(tmp_path, capsys, flag, value):
    # the config file describes the run: [network] topology and netlist
    with pytest.raises(SystemExit) as info:
        run_command(["eig", flag, value, "--out", str(tmp_path)])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_readme_names_the_config_keys_and_the_options():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    ini = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    blocks = re.split(r"^\[(\w+)\]$", ini, flags=re.M)[1:]  # section, body, section, ...
    keys = {section: set(re.findall(r"^#?\s*(\w+)\s*=", body, re.M))  # commented ones too
            for section, body in zip(blocks[::2], blocks[1::2])}
    assert keys == {section: set(schema) for section, schema in _SCHEMA.items()}
    synopsis = re.search(r"^piezoshunt <subcommand> (.*)$", text, re.M).group(1)
    for command in _COMMANDS:
        options = {f"--{dest}" for dest in vars(_parser().parse_args([command]))}
        assert set(re.findall(r"--\w+", synopsis)) == options - {"--command"}


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

    def cell(v):  # the per-value reference, independent of the writer's formats
        if isinstance(v, str):
            return v
        return str(int(v)) if isinstance(v, int) else f"{v:.9g}"  # a bool is an int
    expected = ",".join(columns) + "\n" + "".join(
        ",".join(map(cell, row)) + "\n" for row in zip(*cells))
    assert path.read_text() == expected
    cli._write_csv(path, ["a", "b"], [[], np.array([])])
    assert path.read_text() == "a,b\n"


def test_compare_accepts_the_shared_network_config_keys(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[beam]\nM = 2\n[patches]\nN = 2\n[network]\ntopology = multi_shunt\n"
                   "termination = both_ends\n")
    assert run_command(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "compare.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["single_shunt", "multi_shunt",
                                                   "transmission_line"]


def test_compare_rejects_the_netlist_config_key(tmp_path, capsys):
    # a netlist from the config would be silently ignored
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"[beam]\nM = 2\n[patches]\nN = 2\n[network]\n"
                   f"netlist = {tmp_path / 'missing.lst'}\n")
    rc = run_command(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: compare always runs the three built-in "
                                       "topologies; [network] netlist does not apply\n")
    assert not (tmp_path / "out").exists()


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


def test_per_branch_optimize_prints_the_tuned_branch_values(tmp_path, capsys):
    # its "optimum (R, L)" are geometric-mean scales; the branch values are the answer
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[beam]\nM = 2\n[patches]\nN = 2\ncoverage = 0.9\nCp = 1e-7\ngamma = 1e-4\n"
                   "[network]\ntopology = multi_shunt\nR = 8e4\nL = 1.6e5\n"
                   "[optimize]\nper_branch = true\n")
    assert run_command(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()

    beam = ps.BeamSpec(length=1.0, bending_stiffness=1.0, mass_per_length=1.0)
    sys_ = ps.assemble(ps.modal_basis(beam, 2),
                       ps.uniform_layout(beam, 2, coverage=0.9, cp=1e-7, gamma=1e-4),
                       ps.build_multi_shunt(2, 8e4, 1.6e5))
    tr = ps.tune(sys_, "min-damping-ratio", seed=ps.closed_form_seed(ps.reduce(sys_, 1)),
                 per_branch=True)
    assert len(tr.r_branches) == 2
    r_line, l_line = (", ".join("%.9g" % v for v in values)
                      for values in (tr.r_branches, tr.l_branches))
    at = next(j for j, line in enumerate(out) if line.startswith("optimum (R, L)"))
    assert out[at + 1:at + 3] == [f"branch R (ohm)   = {r_line}", f"branch L (H)     = {l_line}"]


def test_numerical_error_exits_2_with_its_message(tmp_path, capsys, monkeypatch):
    from piezoshunt import coupled

    def fail(sys_):
        raise NumericalError("eigenproblem failed")
    monkeypatch.setattr(coupled, "eigen", fail)
    assert run_command(["eig", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "numerical error: eigenproblem failed\n" and captured.out == ""
    assert not (tmp_path / "eig.csv").exists()


@pytest.mark.parametrize("command, table, warnings", [
    ("optimize", "optimize_trace.csv",
     ["the returned optimum did not converge within the iteration cap; best found returned"]),
    ("compare", "compare.csv", [f"{topology}: {objective} tuning did not converge"
                                for topology in TOPOLOGIES
                                for objective in ("min-damping-ratio", "hinf")]),
])
def test_unconverged_tuning_warns_and_still_writes_its_csv(tmp_path, capsys, monkeypatch,
                                                           command, table, warnings):
    from piezoshunt import reduction

    # cases without a Newton polish, which would certify the returned point: optimize
    # tunes per branch, and compare's reduced tunes meet a failed polish
    monkeypatch.setattr(reduction, "NM_MAX_ITER", 1)  # no simplex can shrink in one step
    monkeypatch.setattr(reduction, "_polish", lambda *args: None)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[beam]\nM = 2\n[patches]\nN = 2\n[network]\ntopology = multi_shunt\n"
                   "[optimize]\nper_branch = true\n")
    assert run_command([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("warning: ")] == [
        f"warning: {message}" for message in warnings]
    header, *rows = (tmp_path / table).read_text().splitlines()
    flags = [j for j, name in enumerate(header.split(",")) if name.endswith("converged")]
    assert len(rows) == (9 if command == "optimize" else len(TOPOLOGIES))
    assert {row.split(",")[j] for row in rows for j in flags} == {"0"}
