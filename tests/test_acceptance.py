"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Expected values marked as derived come from the independent oracles in
_oracles.py, never from the code paths under test.
"""

import time

import numpy as np
import scipy.linalg

import piezoshunt as ps
from piezoshunt.cli import run_command
from piezoshunt.coupled import eigen, state_matrix, total_energy
from piezoshunt.reduction import _min_damping, closed_form_seed, tune, validate_reduction
from piezoshunt.timesim import energy_history, integrate, max_eigen_magnitude

from _oracles import bisect_wavenumber, decay_rate, grid_search, match_spectra, modal_gram
from conftest import make_benchmark


def _report(num, description, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}  {description}  [{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def _topology_netlists(n, r, lind):
    return {
        "single_shunt": ps.build_single_shunt(n, r, lind),
        "multi_shunt": ps.build_multi_shunt(n, r, lind),
        "transmission_line": ps.build_transmission_line(n, r, lind),
    }


def test_criterion_01_wavenumbers():
    t0 = time.time()
    got = ps.solve_wavenumbers(3)
    frozen = [1.8751041, 4.6940911, 7.8547574]
    ok = all(abs(g - f) < 1e-6 for g, f in zip(got, frozen))
    ok &= all(abs(g - bisect_wavenumber(k)) < 1e-8 for g, k in zip(got, range(1, 4)))
    _report(1, "first three cantilever wavenumbers within 1e-6 of bisection oracle",
            ok, time.time() - t0, 1.0)


def test_criterion_02_orthonormality(basis5):
    t0 = time.time()
    gram = modal_gram(basis5)
    ok = bool(np.max(np.abs(gram - np.eye(5))) < 1e-8)
    _report(2, "M=5 modal Gram matrix within 1e-8 of identity",
            ok, time.time() - t0, 1.0)


def test_criterion_03_energy_consistency(basis5, patches5):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    ok = True
    for net in _topology_netlists(5, 150.0, 1.2e5).values():
        sys_ = ps.assemble(basis5, patches5, net)
        a = state_matrix(sys_)
        m, p = basis5.m, sys_.nm.n_nodes
        w2 = basis5.omega**2
        floor = basis5.omega[0] ** 2
        for _ in range(100):
            x = rng.standard_normal(sys_.n_states)
            h, p_diss = total_energy(sys_, x)
            grad = np.concatenate([
                w2 * x[:m], x[m:2 * m],
                sys_.cap * x[2 * m:2 * m + p],
                sys_.nm.l_b * x[2 * m + p:],
            ])
            ok &= bool(abs(grad @ (a @ x) + p_diss) <= 1e-8 * max(h, floor))
    _report(3, "energy balance |dH/dt + P_diss| <= 1e-8 max(H, w1^2) on 100 random states x 3 topologies",
            ok, time.time() - t0, 1.0)


def test_criterion_04_passivity(basis5, patches5):
    t0 = time.time()
    rng = np.random.default_rng(99)
    ok = True
    for kind in ("single_shunt", "multi_shunt", "transmission_line"):
        for trial in range(50):
            r = 0.0 if trial == 0 else 10.0 ** rng.uniform(-2, 5)
            lind = 10.0 ** rng.uniform(0, 6)
            net = _topology_netlists(5, r, lind)[kind]
            vals = np.linalg.eigvals(state_matrix(ps.assemble(basis5, patches5, net)))
            ok &= bool(np.max(vals.real) <= 1e-9 * np.max(np.abs(vals)))
    _report(4, "max Re(lambda) <= 1e-9 max|lambda| over 50 random (R, L) draws x 3 topologies",
            ok, time.time() - t0, 10.0)


def test_criterion_05_decoupling(unit_beam):
    t0 = time.time()
    ok = True
    for zeta in (0.0, 0.015):
        beam = ps.BeamSpec(1.0, 1.0, 1.0, zeta=zeta)
        basis = ps.modal_basis(beam, 5)
        arr = ps.uniform_layout(beam, 5, coverage=0.9, cp=100e-9, gamma=0.0)
        for net in _topology_netlists(5, 200.0, 1e5).values():
            sys_ = ps.assemble(basis, arr, net)
            mech = []
            for w, z in zip(basis.omega, basis.zeta):
                mech.append(complex(-z * w, w * np.sqrt(1 - z * z)))
                mech.append(complex(-z * w, -w * np.sqrt(1 - z * z)))
            p, b = sys_.nm.n_nodes, sys_.nm.n_branches
            elec = np.zeros((p + b, p + b))
            elec[:p, p:] = -sys_.nm.b_inc / sys_.cap[:, None]
            elec[p:, :p] = sys_.nm.b_inc.T / sys_.nm.l_b[:, None]
            elec[p:, p:] = -np.diag(sys_.nm.r_b / sys_.nm.l_b)
            expected = np.concatenate([mech, np.linalg.eigvals(elec)])
            got = np.linalg.eigvals(state_matrix(sys_))
            ok &= bool(match_spectra(expected, got) < 1e-10)
    _report(5, "gamma=0 spectra equal union of analytic mechanical and standalone network poles (1e-10)",
            ok, time.time() - t0, 1.0)


def test_criterion_06_floating_line_zero_mode(basis5, patches5):
    t0 = time.time()
    floating = eigen(ps.assemble(basis5, patches5, ps.build_transmission_line(5, 100.0, 1e5)))
    terminated = eigen(ps.assemble(basis5, patches5,
                                   ps.build_transmission_line(5, 100.0, 1e5, "both_ends")))
    ok = floating.tags.count("zero") == 1 and terminated.tags.count("zero") == 0
    _report(6, "unterminated line has exactly one zero-tagged mode, terminated has none",
            ok, time.time() - t0, 1.0)


def test_criterion_07_optimizer_vs_grid(bench_m1):
    t0 = time.time()
    rm = ps.reduce(bench_m1, 1)
    ok = abs(rm.kappa - 0.1) < 1e-9

    tr = tune(rm, "min-damping-ratio")
    r0, l0 = closed_form_seed(rm)
    r_grid = np.geomspace(r0 / 4.0, r0 * 4.0, 200)
    l_grid = np.geomspace(l0 / 2.0, l0 * 2.0, 200)
    objective = lambda r, l: _min_damping(np.linalg.eigvals(rm.a_matrix(r, l)), band=None)
    _, r_best, l_best = grid_search(objective, r_grid, l_grid)
    cell_r = np.log10(r_grid[1] / r_grid[0])
    cell_l = np.log10(l_grid[1] / l_grid[0])
    ok &= bool(abs(np.log10(tr.r / r_best)) <= cell_r)
    ok &= bool(abs(np.log10(tr.l / l_best)) <= cell_l)

    vals = np.linalg.eigvals(rm.a_matrix(tr.r, tr.l))
    upper = vals[vals.imag > 0]
    zetas = np.sort(-upper.real / np.abs(upper))
    ok &= len(zetas) == 2
    ok &= bool(abs(zetas[0] - zetas[1]) <= 0.01 * zetas[1])
    ok &= bool(0.2 * rm.kappa <= zetas[0] and zetas[1] <= 0.6 * rm.kappa)
    _report(7, "simplex optimum matches 200x200 log-grid within one cell; pole pairs equal damping",
            ok, time.time() - t0, 30.0)


def test_criterion_08_reduction_validation(bench_m5):
    t0 = time.time()
    rm = ps.reduce(bench_m5, 1)
    ok = abs(rm.kappa - 0.1) < 0.01

    tr = tune(rm, "min-damping-ratio")
    report = validate_reduction(bench_m5, rm, tr)
    ok &= bool(report.pole_error < 0.05)
    retuned = tune(bench_m5, tr.kind, target_mode=rm.target_mode, seed=(tr.r, tr.l))
    retune_gap = (retuned.objective - report.full_objective) / abs(retuned.objective)
    ok &= bool(retune_gap < 0.10)

    # cross-check the retuned full-model optimum against a coarse grid oracle
    band = (0.5 * rm.omega_m, 2.0 * rm.omega_m)
    objective = lambda r, l: _min_damping(
        np.linalg.eigvals(state_matrix(bench_m5.rescaled(r, l))), band=band)
    r_grid = np.geomspace(tr.r / 2.0, tr.r * 2.0, 40)
    l_grid = np.geomspace(tr.l / 1.5, tr.l * 1.5, 40)
    grid_best, _, _ = grid_search(objective, r_grid, l_grid)
    ok &= bool(retuned.objective >= grid_best - 1e-6)
    _report(8, "reduced tuning on complete model: pole error < 5%, re-tune gap < 10%",
            ok, time.time() - t0, 60.0)


def test_criterion_09_time_eigen_agreement(unit_beam, bench_m5):
    t0 = time.time()
    # decay of the dominant (least damped in-band) pair vs its eigenvalue
    rm = ps.reduce(bench_m5, 1)
    tr = tune(rm, "min-damping-ratio")
    sys_t = bench_m5.rescaled(tr.r, tr.l)
    sol = eigen(sys_t)
    w1 = sys_t.basis.omega[0]
    pairs = [(v, j) for j, v in enumerate(sol.values)
             if v.imag > 0 and 0.5 * w1 <= abs(v) <= 2.0 * w1]
    lam, j = max(pairs, key=lambda item: item[0].real)
    x0 = np.real(sol.vectors[:, j])
    x0 /= np.linalg.norm(x0)
    dt = 0.5 * 0.05 * 2.0 * np.pi / max_eigen_magnitude(sys_t)
    traj = integrate(sys_t, x0, dt, 20 * 2 * np.pi / w1)
    fitted = decay_rate(traj.times, traj.states @ sys_t.output_map)
    ok = bool(abs(fitted + lam.real) <= 0.05 * abs(lam.real))

    # lossless drift over 100 periods and fourth-order trajectory convergence;
    # the branch inductance matches the electrical resonance to mode 1
    bench = make_benchmark(unit_beam, 1, 1)
    lossless = bench.rescaled(0.0, (1.0 / bench.patches.cp[0]) / bench.basis.omega[0] ** 2)
    period = 2 * np.pi / lossless.basis.omega[0]
    y0 = np.zeros(4)
    y0[0] = 1.0
    traj_lossless = integrate(lossless, y0, period / 200, 100 * period)
    h, _ = energy_history(lossless, traj_lossless)
    ok &= bool(abs(h[-1] - h[0]) / h[0] < 1e-6)

    a = state_matrix(lossless)
    errors = []
    for div in (400, 800):
        tr_ = integrate(lossless, y0, period / div, 10 * period)
        exact = scipy.linalg.expm(a * tr_.times[-1]) @ y0
        errors.append(np.linalg.norm(tr_.states[-1] - exact) / np.linalg.norm(exact))
    factor = errors[0] / errors[1]
    ok &= bool(12.0 <= factor <= 20.0)
    _report(9, f"decay rate within 5% of -Re(lambda); drift < 1e-6; halving factor {factor:.1f} in [12, 20]",
            ok, time.time() - t0, 60.0)


def test_criterion_10_compare_pipeline(tmp_path):
    t0 = time.time()
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    ok = run_command(["compare", "--out", str(out_a)]) == 0
    ok &= run_command(["compare", "--out", str(out_b)]) == 0

    text_a = (out_a / "compare.csv").read_bytes()
    text_b = (out_b / "compare.csv").read_bytes()
    ok &= text_a == text_b

    lines = text_a.decode().splitlines()
    header = lines[0].split(",")
    ok &= len(lines) == 4
    ok &= [row.split(",")[0] for row in lines[1:]] == [
        "single_shunt", "multi_shunt", "transmission_line"]
    for column in ("kappa", "R_opt", "L_opt", "reduced_objective",
                   "full_objective", "pole_error", "hinf_peak_m_per_N"):
        ok &= column in header
    _report(10, "compare emits deterministic 3-row CSV with both objectives",
            ok, time.time() - t0, 300.0)
