"""Default-scenario CLI outputs compared with the files in tests/golden/.

Float columns must agree to rtol 1e-6; the start index, the converged flags
and the string columns must match exactly.  A golden file is regenerated only
for an intended change of results, by running the subcommand with the config
given below (the default scenario for modes.csv, eig.csv, frf.csv and compare.csv).
"""

import os

import numpy as np
import pytest

from piezoshunt.cli import run_command

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
EXACT_COLUMNS = ("start", "converged", "mindr_converged", "hinf_converged",
                 "tag", "topology")

CASES = {
    "mdr": ("optimize_trace_mdr.csv", ""),
    "hinf": ("optimize_trace_hinf.csv", "[optimize]\nobjective = hinf\n"),
    "per_branch_multi_shunt": ("optimize_trace_per_branch_multi_shunt.csv",
                               "[network]\ntopology = multi_shunt\n[optimize]\nper_branch = true\n"),
}


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, np.array(rows, dtype=str)


def _assert_matches_golden(path, golden):
    header, want = _read_csv(os.path.join(GOLDEN, golden))
    got_header, got = _read_csv(path)
    assert got_header == header
    assert got.shape == want.shape
    exact = [j for j, name in enumerate(header) if name in EXACT_COLUMNS]
    close = [j for j in range(len(header)) if j not in exact]
    np.testing.assert_array_equal(got[:, exact], want[:, exact])
    np.testing.assert_allclose(got[:, close].astype(float), want[:, close].astype(float),
                               rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("golden, config", CASES.values(), ids=list(CASES))
def test_optimize_trace_matches_golden(tmp_path, golden, config):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config)
    assert run_command(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _assert_matches_golden(tmp_path / "optimize_trace.csv", golden)


@pytest.mark.parametrize("command", ["modes", "eig", "frf", "compare"])
def test_default_scenario_matches_golden(tmp_path, command):
    assert run_command([command, "--out", str(tmp_path)]) == 0
    _assert_matches_golden(tmp_path / f"{command}.csv", f"{command}.csv")


def test_compare_on_a_grounded_line_at_mode_2_matches_golden(tmp_path):
    # damped beam, M = 6, N = 3, the line grounded at both ends, tuned to mode 2
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("[beam]\nzeta = 0.002\nM = 6\n[patches]\nN = 3\n"
                   "[network]\ntermination = both_ends\n[optimize]\ntarget_mode = 2\n")
    assert run_command(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _assert_matches_golden(tmp_path / "compare.csv", "compare_m6_both_ends.csv")
