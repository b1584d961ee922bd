"""Default-scenario CLI outputs compared with the files in tests/golden/.

Float columns must agree to rtol 1e-6; the start index and the converged flag
must match exactly.  A golden file is regenerated only for an intended change
of results, by running `piezoshunt optimize` with the config given below.
"""

import os

import numpy as np
import pytest

from piezoshunt.cli import run_command

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
EXACT_COLUMNS = ("start", "converged")

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
    return header, np.array(rows, dtype=float)


@pytest.mark.parametrize("golden, config", CASES.values(), ids=list(CASES))
def test_optimize_trace_matches_golden(tmp_path, golden, config):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config)
    assert run_command(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    header, want = _read_csv(os.path.join(GOLDEN, golden))
    got_header, got = _read_csv(tmp_path / "optimize_trace.csv")
    assert got_header == header
    assert got.shape == want.shape
    exact = [header.index(name) for name in EXACT_COLUMNS]
    close = [j for j in range(len(header)) if j not in exact]
    np.testing.assert_array_equal(got[:, exact], want[:, exact])
    np.testing.assert_allclose(got[:, close], want[:, close], rtol=1e-6, atol=0.0)
