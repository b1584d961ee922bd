"""Self-tests of the benchmark: span arithmetic, seeding, oracles and fault detection."""

import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(1, os.path.join(os.path.dirname(BENCH), "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

import piezoshunt as ps  # noqa: E402
from piezoshunt import cli, coupled, reduction, timesim  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("c", 8.0, 12.0, 0),  # overlaps b and runs past its parent
        Span("root", 20.0, 21.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0, 1.0])
    table = tracing.summarize(spans)
    assert table["root"] == pytest.approx((2, 11.0, 3.0))
    assert table["a"] == pytest.approx((1, 3.0, 2.0))


def test_merge_keeps_parents_and_sums_counts():
    first, second = Tracer(), Tracer()
    first.spans = [Span("setup", 0.0, 1.0, -1)]
    second.spans = [Span("pass", 2.0, 5.0, -1), Span("x", 3.0, 4.0, 0)]
    first.counts["n"], second.counts["n"] = 2, 3
    merged = tracing.merge(first, second)
    assert [sp.parent for sp in merged.spans] == [-1, -1, 1]
    assert merged.metrics()["pass.self_s"] == pytest.approx(2.0)
    assert merged.counts["n"] == 5


def test_install_reaches_importers_and_restores_them():
    originals = [(reduction, "state_matrix"), (timesim, "state_matrix"), (cli, "modal_basis"),
                 (reduction, "_frf_values"), (ps, "tune"), (np.linalg, "solve")]
    before = [getattr(mod, name) for mod, name in originals]
    tracer = Tracer()
    with tracer.install():
        assert all(getattr(mod, name) is not fn for (mod, name), fn in zip(originals, before))
        basis = ps.modal_basis(ps.BeamSpec(1.0, 1.0, 1.0), 2)
        patches = ps.uniform_layout(basis.beam, 2)
        sys_ = ps.assemble(basis, patches, ps.build_single_shunt(2, 8e4, 1.6e5))
        timesim.max_eigen_magnitude(sys_)
    assert [getattr(mod, name) for mod, name in originals] == before
    metrics = tracer.metrics()
    assert metrics["beam.modal_basis.calls"] == 1
    assert metrics["coupled.state_matrix.calls"] == 1
    assert metrics["linalg.eigvals.calls"] == 1


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, workload):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for path in (first, second, other):
        path.mkdir()
    _, rec_a = scenarios.write_inputs(workload, 11, first)
    _, rec_b = scenarios.write_inputs(workload, 11, second)
    _, rec_c = scenarios.write_inputs(workload, 12, other)
    assert sorted(os.listdir(first)) == sorted(rec_a)
    for fname in rec_a:
        assert (first / fname).read_bytes() == (second / fname).read_bytes()
    assert rec_a == rec_b
    assert any(rec_a[f]["sha256"] != rec_c[f]["sha256"] for f in rec_a)


def test_every_seed_stays_in_range():
    for seed in range(200):
        for sc in scenarios.scenarios("poles-m12", seed):
            assert scenarios.check_ranges(sc) == []


def test_generated_files_parse_to_the_generated_values(tmp_path):
    scs, _ = scenarios.write_inputs("poles-m12", 5, tmp_path)
    for sc in scs:
        cfg = ps.load_config((tmp_path / sc.config_file).read_text())
        assert (cfg.coverage, cfg.cp, cfg.gamma, cfg.zeta) == (sc.coverage, sc.cp, sc.gamma, sc.zeta)
        if sc.with_netlist:
            net = ps.parse_netlist((tmp_path / sc.netlist_file).read_text())
            assert len(net.branches) == len(scenarios.branches(sc)[0])


def test_oracle_modes_are_mass_normalized():
    beta_l = oracles.wavenumbers(12)
    x = np.linspace(0.0, 1.0, 200001)
    weights = np.full(x.size, x[1] - x[0])
    weights[[0, -1]] *= 0.5
    phi = oracles.mode_values(beta_l, 1.0, 1.0, x, 0)
    gram = (phi * weights) @ phi.T
    assert np.allclose(gram, np.eye(12), atol=1e-6)
    assert abs(math.cos(beta_l[0]) * math.cosh(beta_l[0]) + 1.0) < 1e-12


def test_oracle_model_matches_the_package_equations():
    sc = scenarios.scenarios("poles-m12", 3)[0]
    basis = ps.modal_basis(ps.BeamSpec(1.0, 1.0, 1.0, sc.zeta), sc.n_modes)
    patches = ps.uniform_layout(basis.beam, sc.n_patches, sc.coverage, sc.cp, sc.gamma)
    net = ps.parse_netlist(scenarios.netlist_text(sc))
    sys_ = ps.assemble(basis, patches, net)
    model = oracles.Model(sc)
    assert np.allclose(model.a, ps.state_matrix(sys_), rtol=1e-12, atol=1e-12 * np.abs(model.a).max())
    omega = np.linspace(0.5, 200.0, 50)
    assert np.allclose(oracles.frf(model, omega, chunk=7), ps.frf(sys_, omega).g, rtol=1e-9)
    assert oracles.ground_free_components(sc) == 0
    floating = replace(sc, termination="none")
    assert oracles.ground_free_components(floating) == 1


def test_perturbed_frf_raises_fail_ratio(tmp_path, monkeypatch):
    exact = coupled._frf_values

    def perturbed(a, b, c, omega):
        g, pole = exact(a, b, c, omega)
        return g * (1.0 + 1e-7), pole

    monkeypatch.setattr(coupled, "_frf_values", perturbed)
    result, record = run.measure("response", 4, 0.0, True, str(tmp_path))
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"]["fail_ratio"]["value"] > 0
    assert "frf.csv magnitude" in record["failures"][0]["faults"][0]
