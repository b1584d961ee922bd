import dataclasses
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import piezoshunt as ps
from piezoshunt import bfgs, cli, coupled, optima, reduction
from piezoshunt.circuits import branch_fault
from piezoshunt.config import load_config
from piezoshunt.coupled import state_matrix
from piezoshunt.errors import ConfigError, ParameterError
from piezoshunt.reduction import (
    BOUNDS_FACTORS_L,
    BOUNDS_FACTORS_R,
    ReducedModel,
    _band,
    _min_damping,
    _objective,
    _objective_value,
    _target_omega,
    closed_form_seed,
    electrical_modes,
    hinf_grid,
    reduce,
    tune,
    validate_reduction,
)

from _oracles import (frf_pointwise, generalized_eigh, match_spectra, min_damping_pointwise,
                      min_norm_enumerated, nelder_mead_array, nelder_mead_lists, tune_sequential)


def test_multi_shunt_uniform_electrical_modes():
    cp = 100e-9
    nm = ps.network_matrices(ps.build_multi_shunt(5, 10.0, 1.0), 5)
    ems = electrical_modes(nm, np.full(5, cp))
    assert np.allclose(ems.mu, 1.0 / cp, rtol=1e-12)
    # C-orthonormality
    gram = ems.shapes.T @ np.diag(np.full(5, cp)) @ ems.shapes
    assert np.max(np.abs(gram - np.eye(5))) < 1e-9


def test_floating_line_zero_mode_is_uniform():
    nm = ps.network_matrices(ps.build_transmission_line(5, 10.0, 1.0), 5)
    ems = electrical_modes(nm, np.full(5, 100e-9))
    assert ems.mu[0] == 0.0
    u = ems.shapes[:, 0]
    assert np.max(np.abs(u - u[0])) < 1e-9 * abs(u[0])


def test_line_modes_match_path_laplacian_oracle():
    cp = 100e-9
    nm = ps.network_matrices(ps.build_transmission_line(5, 10.0, 1.0), 5)
    ems = electrical_modes(nm, np.full(5, cp))
    pattern = np.sort([2.0 - 2.0 * np.cos(j * np.pi / 5) for j in range(5)]) / cp
    assert np.allclose(ems.mu, pattern, atol=1e-9 * pattern.max())


def _random_network(kind, rng):
    """Netlist over n patches with log-uniform, unequal branch inductances."""
    n = int(rng.integers(2, 7))
    if kind == "random_graph":
        nodes = [f"n{i}" for i in range(1, n + 1)]
        ends = [(node, rng.choice([x for x in nodes + [ps.circuits.GROUND] if x != node]))
                for node in nodes]
        ends += [tuple(rng.choice(nodes, size=2, replace=False)) for _ in range(rng.integers(0, n))]
        net = ps.Netlist(branches=[ps.circuits.Branch(f"b{j}", str(a), str(b), 1.0, 1.0)
                                   for j, (a, b) in enumerate(ends)],
                         piezo={i: f"n{i}" for i in range(1, n + 1)})
    elif kind == "transmission_line_both_ends":
        net = ps.build_transmission_line(n, 1.0, 1.0, termination="both_ends")
    else:
        net = getattr(ps, f"build_{kind}")(n, 1.0, 1.0)
    branches = [dataclasses.replace(br, l=10.0 ** rng.uniform(-3, 3)) for br in net.branches]
    return ps.network_matrices(ps.Netlist(branches=branches, piezo=net.piezo), n)


def _random_spd(p, rng):
    """Full symmetric positive-definite capacitance metric around 100 nF."""
    g = rng.normal(size=(p, p))
    return 100e-9 * (g @ g.T / p + np.diag(rng.uniform(0.5, 2.0, p)))


@pytest.mark.parametrize("kind", ["single_shunt", "multi_shunt", "transmission_line",
                                  "transmission_line_both_ends", "random_graph"])
def test_electrical_modes_match_generalized_eigh_oracle(kind):
    rng = np.random.default_rng(20)
    for _ in range(20):
        nm = _random_network(kind, rng)
        cap = _random_spd(nm.n_nodes, rng)
        ems = electrical_modes(nm, cap)
        k_e = nm.b_inc @ np.diag(1.0 / nm.s_shape) @ nm.b_inc.T
        mu_ref, shapes_ref = generalized_eigh(k_e, cap)
        scale = np.max(np.abs(mu_ref))
        assert np.max(np.abs(ems.mu - mu_ref)) <= 1e-12 * scale
        pivot = shapes_ref[np.argmax(np.abs(shapes_ref), axis=0), np.arange(nm.n_nodes)]
        shapes_ref *= np.sign(pivot)
        for j in range(nm.n_nodes):
            gap = np.min(np.abs(np.delete(mu_ref, j) - mu_ref[j]), initial=scale)
            if gap > 1e-3 * scale:  # well separated: the shape is determined
                ref = shapes_ref[:, j]
                assert np.linalg.norm(ems.shapes[:, j] - ref) <= 1e-9 * np.linalg.norm(ref)


@pytest.mark.parametrize("cap", [[1e-7, 0.0], [1e-7, -1e-7], [1e-7, np.nan], [np.inf, 1e-7],
                                 [[1e-7, 2e-7], [2e-7, 1e-7]], [[1e-7, np.nan], [np.nan, 1e-7]]],
                         ids=["zero", "negative", "nan", "inf", "indefinite", "nan_coupling"])
def test_electrical_modes_reject_bad_capacitance(cap):
    nm = ps.network_matrices(ps.build_multi_shunt(2, 10.0, 1.0), 2)
    with pytest.raises(ParameterError, match="positive definite"):
        electrical_modes(nm, cap)


def test_electrical_modes_reject_asymmetric_capacitance():
    # the Cholesky factor reads only the lower triangle, which here is diagonal
    nm = ps.network_matrices(ps.build_multi_shunt(2, 10.0, 1.0), 2)
    with pytest.raises(ParameterError, match="symmetric"):
        electrical_modes(nm, [[1e-7, 5e-7], [0.0, 1e-7]])
    ems = electrical_modes(nm, [[1e-7, 1e-20], [0.0, 1e-7]])  # within 1e-12 of max|C|
    assert np.allclose(ems.mu, 1e7, rtol=1e-12)


def test_single_shunt_reduction_is_exact_m1(bench_m1):
    rm = ps.reduce(bench_m1, 1)
    total_cp = np.sum(bench_m1.patches.cp)
    theta = ps.coupling_matrix(bench_m1.basis, bench_m1.patches)
    expected_alpha = np.sum(theta[0]) / np.sqrt(total_cp)
    assert rm.alpha == pytest.approx(expected_alpha, rel=1e-12)
    assert rm.kappa == pytest.approx(0.1, rel=1e-12)
    full = np.linalg.eigvals(state_matrix(bench_m1.rescaled(123.0, 2.0)))
    red = np.linalg.eigvals(rm.a_matrix(123.0, 2.0))
    assert match_spectra(full, red) < 1e-10


def test_zero_coupling_reduction(basis5, unit_beam):
    arr = ps.uniform_layout(unit_beam, 5, coverage=0.9, cp=100e-9, gamma=0.0)
    sys_ = ps.assemble(basis5, arr, ps.build_single_shunt(5, 100.0, 1e5))
    rm = ps.reduce(sys_, 1)
    assert rm.alpha == 0.0 and rm.kappa == 0.0
    for model in (rm, dataclasses.replace(rm, alpha=1.0, omega_m=0.0)):  # kappa = 1 / 0
        with pytest.raises(ParameterError):
            closed_form_seed(model)


def test_multi_shunt_shape_aligns_with_coupling_row(basis5, unit_beam):
    # tiny gamma: the quasi-static correction vanishes and the degenerate
    # eigenspace selection must align with the C-normalized coupling row, whose
    # coupling is the row's C^-1/2 norm (the strongest single mode reaches 0.78 of it)
    arr = ps.uniform_layout(unit_beam, 5, coverage=0.9, cp=100e-9, gamma=1e-9)
    sys_ = ps.assemble(basis5, arr, ps.build_multi_shunt(5, 10.0, 1.0))
    rm = ps.reduce(sys_, 1)
    assert rm.alpha == pytest.approx(np.linalg.norm(sys_.theta_tilde[0] / np.sqrt(sys_.cap)),
                                     rel=1e-9)


def test_kappa_matches_full_model_veering_split(basis5, patches5):
    rm0 = ps.reduce(ps.assemble(basis5, patches5, ps.build_multi_shunt(5, 0.0, 1.0)), 1)
    l_matched = rm0.mu_star / basis5.omega[0] ** 2
    sys_ = ps.assemble(basis5, patches5, ps.build_multi_shunt(5, 0.0, l_matched))
    vals = np.linalg.eigvals(state_matrix(sys_))
    w1 = basis5.omega[0]
    upper = np.sort(vals.imag[(vals.imag > 0.8 * w1) & (vals.imag < 1.25 * w1)])
    split = (upper[-1] - upper[0]) / w1
    assert split == pytest.approx(rm0.kappa, rel=0.03)


def test_kappa_follows_an_edited_alpha():
    # kappa is read from alpha and omega_m, so the simplex, the polish and the
    # reported objective all see the edited model
    rm = reduce(_default_system("single_shunt"), 1)
    rm2 = dataclasses.replace(rm, alpha=2 * rm.alpha)
    assert rm2.kappa == rm2.alpha / rm2.omega_m
    tr = tune(rm2, "hinf")
    grid = hinf_grid(rm2.omega_m)
    dense = np.linspace(grid[0], grid[-1], 200_001)
    assert tr.polished
    assert -tr.objective == pytest.approx(np.sqrt(rm2.gain_sq(tr.r, tr.l, dense).max()), rel=1e-6)
    assert tune(rm2, "min-damping-ratio").polished


def test_seed_places_electrical_frequency():
    rm = ps.ReducedModel(target_mode=1, omega_m=3.5160153, zeta_m=0.0,
                         mu_star=1e7, alpha=0.35160153, tip_gain=2.0)
    r0, l0 = closed_form_seed(rm)
    omega_e = np.sqrt(rm.mu_star / l0)
    assert omega_e == pytest.approx(3.5336, abs=5e-4)
    assert omega_e == pytest.approx(rm.omega_m * np.sqrt(1.01), rel=1e-12)
    # loop damping ratio kappa / sqrt(2)
    assert r0 / l0 == pytest.approx(2.0 * (0.1 / np.sqrt(2)) * omega_e, rel=1e-12)


def test_doubling_capacitance_halves_seed_inductance(unit_beam):
    from conftest import make_benchmark
    rm1 = ps.reduce(make_benchmark(unit_beam, 1, 1, cp=100e-9), 1)
    rm2 = ps.reduce(make_benchmark(unit_beam, 1, 1, cp=200e-9), 1)
    # at a fixed electrical-frequency target lbar0 = mu*/omega_e^2, so the
    # ratio follows mu* exactly
    assert rm2.mu_star / rm1.mu_star == pytest.approx(0.5, rel=1e-12)


def test_seed_within_factor_two_of_optimum(bench_m1):
    rm = ps.reduce(bench_m1, 1)
    r0, l0 = closed_form_seed(rm)
    seed_obj = _min_damping(np.linalg.eigvals(rm.a_matrix(r0, l0)), band=None)
    tr = tune(rm, "min-damping-ratio")
    assert tr.objective <= 2.0 * seed_obj
    assert tr.objective >= seed_obj


def test_tune_objective_dominates_every_start(bench_m1):
    tr = tune(ps.reduce(bench_m1, 1), "min-damping-ratio")
    for start in tr.starts:
        assert tr.objective >= start.seed_objective - 1e-12
        assert tr.objective >= start.objective - 1e-12
    assert tr.converged and tr.improving


def test_tune_flags_non_improving_when_uncoupled(basis5, unit_beam):
    arr = ps.uniform_layout(unit_beam, 5, coverage=0.9, cp=100e-9, gamma=0.0)
    sys_ = ps.assemble(basis5, arr, ps.build_single_shunt(5, 100.0, 1e5))
    rm = ps.reduce(sys_, 1)
    tr = tune(rm, "min-damping-ratio", seed=(100.0, 1e5))
    assert not tr.improving
    assert tr.objective == pytest.approx(0.0, abs=1e-15)


def test_hinf_argmax_invariant_under_output_scaling(bench_m1):
    rm = ps.reduce(bench_m1, 1)
    scaled = dataclasses.replace(rm, tip_gain=10.0 * rm.tip_gain)
    tr = tune(rm, "hinf")
    tr_scaled = tune(scaled, "hinf")
    assert tr_scaled.r == pytest.approx(tr.r, rel=1e-6)
    assert tr_scaled.l == pytest.approx(tr.l, rel=1e-6)
    assert tr_scaled.objective == pytest.approx(100.0 * tr.objective, rel=1e-9)


def test_optimum_nondecreasing_in_coupling(unit_beam):
    from conftest import make_benchmark
    objectives = []
    for kappa in (0.02, 0.05, 0.1, 0.15, 0.2):
        rm = ps.reduce(make_benchmark(unit_beam, 1, 1, kappa=kappa), 1)
        objectives.append(tune(rm, "min-damping-ratio").objective)
    assert all(a <= b + 1e-9 for a, b in zip(objectives, objectives[1:]))


def test_tune_respects_bounds(bench_m1):
    rm = ps.reduce(bench_m1, 1)
    r0, l0 = closed_form_seed(rm)
    bounds = ((0.5 * r0, 1.1 * r0), (0.9 * l0, 1.1 * l0))
    tr = tune(rm, "min-damping-ratio", bounds=bounds)
    assert bounds[0][0] <= tr.r <= bounds[0][1]
    assert bounds[1][0] <= tr.l <= bounds[1][1]


@pytest.mark.parametrize("seed", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf),
                                  (0.0, 1.0), (1.0, -2.0)],
                         ids=["R_nan", "R_inf", "L_nan", "L_inf", "R_zero", "L_negative"])
def test_tune_rejects_seed_outside_log_space(bench_m1, seed):
    rm = ps.reduce(bench_m1, 1)
    r0, l0 = closed_form_seed(rm)
    seed = (seed[0] * r0, seed[1] * l0)
    with pytest.raises(ParameterError, match=re.escape(f"got ({seed[0]}, {seed[1]})")):
        tune(rm, seed=seed)


@pytest.mark.parametrize("r_box, l_box", [
    ((np.nan, 1e2), (1e-2, 1e2)),
    ((1e-2, 1e2), (1e-2, np.nan)),
    ((1e2, 1e-2), (1e-2, 1e2)),
    ((1e-2, 1e2), (1e2, 1e-2)),
    ((0.0, 1e2), (1e-2, 1e2)),
    ((1e-2, 1e2), (-1.0, 1e2)),
    ((1e-2, np.inf), (1e-2, 1e2)),
    ((1e-2, 1e2), (1e-2, np.inf)),
], ids=["R_nan", "L_nan", "R_reversed", "L_reversed", "R_zero", "L_negative", "R_inf", "L_inf"])
def test_tune_rejects_box_outside_log_space(bench_m1, r_box, l_box):
    rm = ps.reduce(bench_m1, 1)
    r0, l0 = closed_form_seed(rm)
    bounds = (tuple(r0 * v for v in r_box), tuple(l0 * v for v in l_box))
    (r_lo, r_hi), (l_lo, l_hi) = bounds
    with pytest.raises(ParameterError, match=re.escape(f"R [{r_lo}, {r_hi}], L [{l_lo}, {l_hi}]")):
        tune(rm, seed=(r0, l0), bounds=bounds)


@pytest.mark.parametrize("r_box, l_box", [
    ((10.0, 1.0), (1.0, 10.0)),
    ((1.0, 10.0), (0.0, 10.0)),
    ((-1.0, 10.0), (1.0, 10.0)),
    ((1.0, 10.0), (5.0, 5.0)),
], ids=["R_reversed", "L_zero", "R_negative", "L_empty"])
def test_tune_and_config_share_the_box_rule(bench_m1, r_box, l_box):
    with pytest.raises(ParameterError) as direct:
        tune(ps.reduce(bench_m1, 1), bounds=(r_box, l_box))
    text = "[optimize]\n" + "".join(f"{x}_{end} = {v}\n" for x, box in zip("RL", (r_box, l_box))
                                      for end, v in zip(("min", "max"), box))
    with pytest.raises(ConfigError) as loaded:
        load_config(text)
    assert str(loaded.value) == f"[optimize] {direct.value}"


@pytest.mark.parametrize("seed, bounds", [
    ((1e303, 1.0), None),                            # the default box overflows
    ((1e-323, 1.0), ((1e-2, 1e2), (1e-2, 1e2))),     # the 0.1x start underflows to 0
    ((1e308, 1.0), ((1e-2, 1e2), (1e-2, 1e2))),      # the 10x start overflows
], ids=["default_box_overflow", "start_underflow", "start_overflow"])
def test_tune_rejects_a_seed_whose_starts_or_box_leave_the_floats(bench_m1, seed, bounds):
    # the suite turns a RuntimeWarning into an error, so none comes first
    with pytest.raises(ParameterError, match=r"^tuning seed .*" + re.escape(f"got {seed}")):
        tune(ps.reduce(bench_m1, 1), seed=seed, bounds=bounds)


@pytest.mark.parametrize("per_branch", [False, True], ids=["uniform", "per_branch"])
def test_tune_rejects_starts_and_box_ends_whose_log_round_trip_overflows(bench_m1, per_branch):
    # the 10x start is a float, but 10 ** log10 of it rounds past the largest one
    model = bench_m1 if per_branch else ps.reduce(bench_m1, 1)
    seed = (sys.float_info.max / 10, 1.0)
    with pytest.raises(ParameterError, match=r"^tuning seed .*" + re.escape(f"got {seed}")):
        tune(model, seed=seed, bounds=((1, 2), (1, 2)), per_branch=per_branch)
    with pytest.raises(ParameterError, match=r"^R bounds must satisfy"):
        tune(model, seed=(1.5, 1.5), bounds=((1, sys.float_info.max), (1, 2)),
             per_branch=per_branch)


def test_tune_full_system_agrees_with_reduced(bench_m5):
    rm = ps.reduce(bench_m5, 1)
    tr_red = tune(rm, "min-damping-ratio")
    tr_full = tune(bench_m5, "min-damping-ratio", target_mode=1)
    assert tr_full.objective == pytest.approx(tr_red.objective, rel=0.05)
    assert tr_full.r == pytest.approx(tr_red.r, rel=0.25)


def test_validate_exact_for_single_mode(bench_m1):
    rm = ps.reduce(bench_m1, 1)
    tr = tune(rm, "min-damping-ratio")
    report = validate_reduction(bench_m1, rm, tr)
    assert report.pole_error < 1e-9
    assert report.full_objective == pytest.approx(tr.objective, abs=1e-12)
    retuned = tune(bench_m1, tr.kind, target_mode=rm.target_mode, seed=(tr.r, tr.l))
    retune_gap = (retuned.objective - report.full_objective) / abs(retuned.objective)
    assert 0.0 <= retune_gap < 1e-4  # optimizer re-polish only


@pytest.mark.parametrize("zeta", [0.0, 0.01])
@pytest.mark.parametrize("objective", ["min-damping-ratio", "hinf"])
def test_validate_exact_for_a_floating_line_with_one_mode(objective, zeta):
    # one beam mode, two patches on a floating line: one nonzero electrical mode and a
    # zero mode whose held charge stiffens the beam mode, so the reduction is exact
    # (undamped, without that stiffness the pole errors were 2.2e-2 and 7.7e-3; damped,
    # with it but at the beam mode's damping ratio, 2.5e-3 and 7.2e-5)
    beam = ps.BeamSpec(length=1.0, bending_stiffness=1.0, mass_per_length=1.0, zeta=zeta)
    patches = ps.uniform_layout(beam, 2, coverage=0.9, cp=100e-9, gamma=1e-4)
    sys_ = ps.assemble(ps.modal_basis(beam, 1), patches,
                       ps.build_transmission_line(2, 100.0, 1e5))
    assert sys_.nm.floating == 1
    rm = reduce(sys_, 1)
    tr = tune(rm, objective)
    report = validate_reduction(sys_, rm, tr)
    assert report.pole_error < 1e-9
    if objective == "min-damping-ratio":
        assert report.full_objective == pytest.approx(tr.objective, rel=1e-10)


@st.composite
def _floating_pairs(draw):
    """One beam mode on a floating two-node network: 1-3 parallel n1-n2 branches of
    random shape and 2-5 patches, each with its own Cp, signed gamma and coverage, split
    over both nodes."""
    zeta = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.02)))
    beam = ps.BeamSpec(length=1.0, bending_stiffness=1.0, mass_per_length=1.0, zeta=zeta)
    n = draw(st.integers(2, 5))
    cell = 1.0 / n
    half = [0.5 * cell * draw(st.floats(0.1, 1.0)) for _ in range(n)]
    centers = (np.arange(n) + 0.5) * cell
    patches = ps.PatchArray(
        a=centers - half, b=centers + half,
        cp=[10.0 ** draw(st.floats(-8.0, -6.0)) for _ in range(n)],
        gamma=[draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-5.0, -3.0))
               for _ in range(n)])
    sides = draw(st.lists(st.sampled_from(["n1", "n2"]), min_size=n, max_size=n)
                 .filter(lambda s: len(set(s)) == 2))
    branches = [ps.circuits.Branch(f"b{j}", "n1", "n2", 1.0, 10.0 ** draw(st.floats(-1.0, 1.0)))
                for j in range(draw(st.integers(1, 3)))]
    net = ps.Netlist(branches=branches, piezo={i + 1: side for i, side in enumerate(sides)})
    return ps.assemble(ps.modal_basis(beam, 1), patches, net)


@settings(max_examples=200, deadline=None)
@given(sys_=_floating_pairs(), decades=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_reduction_is_exact_on_random_floating_pairs(sys_, decades):
    # one nonzero electrical mode and one zero mode: at M = 1 the reduction is exact, and
    # the zero mode, uniform in the node voltages, stiffens the beam mode by
    # alpha0^2 = (sum_p Thetat[0,p])^2 / sum_p C_p, at the beam mode's damping 2 zeta w
    assert sys_.nm.floating == 1 and sys_.nm.n_nodes == 2
    rm = reduce(sys_)
    r0, l0 = closed_form_seed(rm)
    r, l = r0 * 10.0 ** decades[0], l0 * 10.0 ** decades[1]
    full = ps.eigen(sys_.rescaled(r, l)).values
    for lam in np.linalg.eigvals(rm.a_matrix(r, l)):
        assert np.min(np.abs(full - lam)) <= 1e-9 * abs(lam)
    omega_1, zeta_1 = sys_.basis.omega[0], sys_.basis.zeta[0]
    expected = np.sqrt(omega_1**2 + sys_.theta_tilde[0].sum() ** 2 / sys_.cap.sum())
    assert rm.omega_m == pytest.approx(expected, rel=1e-12)
    assert rm.zeta_m * rm.omega_m == pytest.approx(zeta_1 * omega_1, rel=1e-12)


def test_validate_reduction_runs_no_optimizer(bench_m5, monkeypatch):
    rm = ps.reduce(bench_m5, 1)
    tr = tune(rm, "min-damping-ratio")
    expected = validate_reduction(bench_m5, rm, tr)

    def refuse(*args, **kwargs):
        raise AssertionError("validate_reduction ran an optimizer")

    monkeypatch.setattr(reduction, "tune", refuse)
    monkeypatch.setattr(reduction, "_nelder_mead", refuse)
    report = validate_reduction(bench_m5, rm, tr)
    assert report.pole_error == expected.pole_error
    assert report.full_objective == expected.full_objective


@pytest.mark.parametrize("objective", ["min-damping-ratio", "hinf"])
def test_validate_reduction_reads_one_spectrum_per_model(bench_m5, monkeypatch, objective):
    # the two spectra that the pole error needs give the min damping too, and the
    # complete hinf is the public FRF: no tuner kernel is built
    rm = ps.reduce(bench_m5, 1)
    tr = tune(rm, objective)
    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for mod, name in ((np.linalg, "eig"), (np.linalg, "eigvals"), (coupled, "state_matrix"),
                      (reduction, "state_matrix"), (coupled, "frf"), (reduction, "frf"),
                      (reduction, "_objective")):
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    validate_reduction(bench_m5, rm, tr)
    assert "_objective" not in calls and calls.count("eig") == 1
    assert calls.count("eigvals") == 1  # the reduced spectrum of the pole error
    if objective == "hinf":
        assert calls.count("frf") == 1
    else:
        assert calls.count("state_matrix") == 1
        assert "frf" not in calls


@pytest.mark.parametrize("objective", ["min-damping-ratio", "hinf"])
@pytest.mark.parametrize("topology", ["single_shunt", "multi_shunt", "transmission_line"])
def test_validated_objectives_are_the_tuners_definitions_bit_for_bit(topology, objective):
    sys_ = _default_system(topology)
    rm = reduce(sys_, 1)
    tr = tune(rm, objective)
    report = validate_reduction(sys_, rm, tr)
    omega_t = _target_omega(sys_, rm.target_mode)  # each model's band from its own mode
    band, full_grid, grid = _band(omega_t), hinf_grid(omega_t), hinf_grid(rm.omega_m)
    point = ([tr.r], [tr.l])
    full = float(_objective(sys_, objective, band, full_grid)(*point)[0])
    reduced = float(_objective(rm, objective, None, grid)(*point)[0])
    assert report.full_objective.hex() == full.hex()
    if objective == "hinf":  # the exact band peak, which no sample of the grid exceeds
        assert tr.objective == -optima._band_peak(rm, tr.r, tr.l, grid) <= reduced
    else:
        assert tr.objective.hex() == reduced.hex()


def test_validate_rejects_per_branch_result(unit_beam):
    # the geometric-mean scales tr.r, tr.l are not the tuned branch values
    basis = ps.modal_basis(unit_beam, 2)
    arr = ps.uniform_layout(unit_beam, 2, coverage=0.9, cp=100e-9, gamma=2e-4)
    sys_ = ps.assemble(basis, arr, ps.build_multi_shunt(2, 100.0, 1e5))
    tr = tune(sys_, "min-damping-ratio", per_branch=True)
    with pytest.raises(ParameterError, match="per-branch"):
        validate_reduction(sys_, ps.reduce(sys_, 1), tr)


def test_per_branch_tuning_not_worse_than_uniform(unit_beam):
    basis = ps.modal_basis(unit_beam, 2)
    arr = ps.uniform_layout(unit_beam, 2, coverage=0.9, cp=100e-9, gamma=2e-4)
    sys_ = ps.assemble(basis, arr, ps.build_multi_shunt(2, 100.0, 1e5))
    uniform = tune(sys_, "min-damping-ratio", target_mode=1)
    per_branch = tune(sys_, "min-damping-ratio", target_mode=1, per_branch=True)
    assert per_branch.r_branches is not None and per_branch.l_branches is not None
    assert per_branch.objective >= 0.95 * uniform.objective


def test_per_branch_scales_share_units_with_uniform_tuning(unit_beam):
    # unequal branch inductances give s_shape = [1, 4]
    basis = ps.modal_basis(unit_beam, 2)
    arr = ps.uniform_layout(unit_beam, 2, coverage=0.9, cp=100e-9, gamma=2e-4)
    sys_ = ps.assemble(basis, arr, ps.build_multi_shunt(2, [5e4, 9e4], [1e5, 4e5]))
    tr = tune(sys_, "min-damping-ratio", per_branch=True)

    def geomean(v):
        return float(np.exp(np.mean(np.log(v))))

    assert tr.r == pytest.approx(geomean(tr.r_branches / sys_.nm.s_shape), rel=1e-12)
    assert tr.l == pytest.approx(geomean(tr.l_branches / sys_.nm.s_shape), rel=1e-12)
    tuned = sys_.with_branch_values(tr.r_branches, tr.l_branches)
    band = _band(float(basis.omega[0]))
    assert _min_damping(np.linalg.eigvals(state_matrix(tuned)), band=band) == tr.objective


@pytest.mark.parametrize("seed", [None, (1e5, 1e5)], ids=["own_seed", "given_seed"])
@pytest.mark.parametrize("target_mode", [0, -1, 2])
def test_tune_rejects_target_mode_out_of_range(bench_m1, target_mode, seed):
    with pytest.raises(ParameterError, match="target mode"):
        tune(bench_m1, target_mode=target_mode, seed=seed)


def test_tune_reduced_accepts_only_its_own_target_mode(bench_m5):
    rm = reduce(bench_m5, 1)
    for target_mode, match in [(7.5, "must be an integer"), (0, "must lie in"),
                               (2, r"must lie in \[1, 1\], got 2")]:
        with pytest.raises(ParameterError, match=f"target mode {match}"):
            tune(rm, target_mode=target_mode)
    assert tune(rm, target_mode=1) == tune(rm)


@pytest.mark.parametrize("call, match", [
    (lambda sys_: reduce(sys_, 1.5), "target mode must be an integer"),
    (lambda sys_: reduce(sys_, 2.0), "target mode must be an integer"),
    (lambda sys_: reduce(sys_, True), "target mode must be an integer"),
    (lambda sys_: tune(sys_, target_mode=1.5), "target mode must be an integer"),
    (lambda sys_: ps.eval_mode(sys_.basis, 1.5, 0.5), "mode index must be an integer"),
    (lambda sys_: ps.eval_mode(sys_.basis, 2, 0.5), "mode index must lie in"),
    (lambda sys_: ps.solve_wavenumbers(2.5), "mode count must be an integer"),
    (lambda sys_: ps.uniform_layout(sys_.basis.beam, 2.5), "patch count must be an integer"),
    (lambda sys_: ps.build_single_shunt(2.5, 1.0, 0.1), "patch count must be an integer"),
    (lambda sys_: ps.build_single_shunt(True, 1.0, 0.1), "patch count must be an integer"),
    (lambda sys_: ps.build_multi_shunt(2.5, 1.0, 0.1), "patch count must be an integer"),
    (lambda sys_: ps.build_transmission_line(2.5, 1.0, 0.1), "patch count must be an integer"),
    (lambda sys_: ps.build_transmission_line(1, 1.0, 0.1), "patch count must lie in"),
], ids=["reduce-1.5", "reduce-2.0", "reduce-bool", "tune-1.5", "eval_mode-1.5",
        "eval_mode-range", "wavenumbers-2.5", "layout-2.5", "single-2.5", "single-bool",
        "multi-2.5", "line-2.5", "line-range"])
def test_counts_and_mode_indices_are_integers_in_range(bench_m1, call, match):
    with pytest.raises(ParameterError, match=match):
        call(bench_m1)


def test_unknown_objective_rejected(bench_m1):
    with pytest.raises(ParameterError):
        tune(ps.reduce(bench_m1, 1), "h2")
    with pytest.raises(ParameterError):
        ps.reduce(bench_m1, 2)


def test_per_branch_start_objective_ignores_bounds(bench_m1):
    # starts outside the search box are still evaluated, as in uniform tuning
    r0, l0 = closed_form_seed(reduce(bench_m1))
    bounds = ((0.5 * r0, 20.0 * r0), (0.5 * l0, 20.0 * l0))
    per_branch = tune(bench_m1, per_branch=True, bounds=bounds)
    uniform = tune(bench_m1, bounds=bounds)
    for pb, un in zip(per_branch.starts, uniform.starts):
        assert np.isfinite(pb.seed_objective)
        assert pb.seed_objective == pytest.approx(un.seed_objective, rel=1e-9)


@pytest.mark.parametrize("per_branch", [False, True], ids=["uniform", "per_branch"])
def test_infeasible_starts_are_not_converged(bench_m1, per_branch):
    # the 0.1 x seed starts lie outside the box: every vertex costs inf and
    # the simplex shrinks in place, which is no convergence
    r0, l0 = closed_form_seed(reduce(bench_m1))
    bounds = ((0.5 * r0, 20.0 * r0), (0.5 * l0, 20.0 * l0))
    tr = tune(bench_m1, per_branch=per_branch, bounds=bounds)
    infeasible = [s for s in tr.starts if not np.isfinite(s.objective)]
    assert infeasible and not any(s.converged for s in infeasible)
    for s in tr.starts:
        if np.isfinite(s.objective) and not s.converged:
            # a BFGS start whose line search ran into the box's wall: every trial past it
            # costs inf, and no weak Wolfe step remains (the one branch's scales are r, l)
            assert per_branch and any(np.isclose(v, end, rtol=1e-6) for v, side in
                                      zip((s.r_opt, s.l_opt), bounds) for end in side)
    assert tr.converged and np.isfinite(tr.objective)

    # a box that holds none of the nine starts leaves every start infeasible
    boxed = tune(bench_m1, per_branch=per_branch,
                 bounds=((2.0 * r0, 5.0 * r0), (2.0 * l0, 5.0 * l0)))
    assert not any(np.isfinite(s.objective) for s in boxed.starts)
    assert not boxed.converged


# -- closed-form transfer function of the reduced model ----------------------

TOPOLOGIES = [ps.build_single_shunt, ps.build_multi_shunt, ps.build_transmission_line]
TOPOLOGY_IDS = ["single_shunt", "multi_shunt", "transmission_line"]


def _frf_gain_sq(rm, r, l, omega):
    """|G|^2 from a dense solve of the state resolvent per point: the oracle of `ReducedModel.gain_sq`."""
    b, c = np.array([0.0, rm.tip_gain, 0.0, 0.0]), np.array([rm.tip_gain, 0.0, 0.0, 0.0])
    g, _ = frf_pointwise(rm.a_matrix(r, l), b, c, omega)
    return np.abs(g) ** 2


def _log10_box(lo, hi):
    """log10 of a seed factor in [lo, hi], with both ends drawn often."""
    return st.one_of(st.sampled_from([np.log10(lo), np.log10(hi)]),
                     st.floats(np.log10(lo), np.log10(hi)))


@settings(max_examples=150, deadline=None)
@given(log_omega=st.floats(-1.0, 4.0), zeta_m=st.one_of(st.just(0.0), st.floats(1e-4, 0.1)),
       log_kappa=st.floats(-3.0, np.log10(0.5)), log_mu=st.floats(3.0, 9.0),
       gain=st.floats(0.1, 3.0),
       log_r=st.one_of(st.none(), _log10_box(*BOUNDS_FACTORS_R)),
       log_l=_log10_box(*BOUNDS_FACTORS_L))
def test_closed_form_gain_matches_frf_kernel(log_omega, zeta_m, log_kappa, log_mu, gain,
                                             log_r, log_l):
    omega_m, kappa = 10.0 ** log_omega, 10.0 ** log_kappa
    rm = ReducedModel(target_mode=1, omega_m=omega_m, zeta_m=zeta_m, mu_star=10.0 ** log_mu,
                      alpha=kappa * omega_m, tip_gain=gain)
    r0, l0 = closed_form_seed(rm)
    r = 0.0 if log_r is None else r0 * 10.0 ** log_r  # None draws a short circuit
    l = l0 * 10.0 ** log_l
    grid = hinf_grid(omega_m)
    ref = _frf_gain_sq(rm, r, l, grid)
    # both evaluations lose accuracy next to a pole in proportion to the log
    # slope d ln|G|^2 / d ln(omega), which sets the bound there; elsewhere it is 1e-12
    step = 1e-6
    slope = np.abs(np.log(_frf_gain_sq(rm, r, l, grid * (1 + step))
                          / _frf_gain_sq(rm, r, l, grid * (1 - step)))) / (2 * step)
    assume(np.all(np.isfinite(ref)) and np.all(np.isfinite(slope)))
    got = rm.gain_sq(r, l, grid)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, slope) * ref)


def test_hinf_objective_is_minus_inf_on_a_pole_sample():
    # undamped and shorted (R = 0): the denominator (wm^2 - x)(eps - x) - alpha^2 x
    # vanishes exactly at x = 1 for wm = 3, eps = mu*/lbar = 9/8 and alpha = 1
    rm = ReducedModel(target_mode=1, omega_m=3.0, zeta_m=0.0, mu_star=1.125, alpha=1.0,
                      tip_gain=1.0)
    grid = np.array([0.5, 1.0, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gain_sq = rm.gain_sq(0.0, 1.0, grid)
        (objective,) = reduction._objective(rm, "hinf", grid=grid)([0.0], [1.0])
    assert not np.isfinite(gain_sq[1]) and np.all(np.isfinite(gain_sq[[0, 2]]))
    assert objective == -np.inf
    b, c = np.array([0.0, rm.tip_gain, 0.0, 0.0]), np.array([rm.tip_gain, 0.0, 0.0, 0.0])
    _, pole = frf_pointwise(rm.a_matrix(0.0, 1.0), b, c, grid)
    assert pole.tolist() == [False, True, False]


def _undamped_reduction(build, basis5, patches5):
    rm = reduce(ps.assemble(basis5, patches5, build(5, 100.0, 1e5)), 1)
    assert rm.zeta_m == 0.0
    return rm


@pytest.mark.parametrize("build", TOPOLOGIES, ids=TOPOLOGY_IDS)
def test_den_hartog_fixed_points(build, basis5, patches5):
    # at zeta_m = 0 every resistance passes through the same two points of |G|,
    # the roots of 2 (eps - x)(wm^2 - x) + alpha^2 (eps - 2x) = 0 in x = omega^2
    rm = _undamped_reduction(build, basis5, patches5)
    r0, l0 = closed_form_seed(rm)
    eps, w2, a2 = rm.mu_star / l0, rm.omega_m**2, rm.alpha**2
    s = eps + w2 + a2
    root = np.sqrt(s * s - 2.0 * eps * (2.0 * w2 + a2))
    x = np.array([(s - root) / 2.0, (s + root) / 2.0, s / 2.0])  # last: between them
    gains = np.array([rm.gain_sq(r0 * f, l0, np.sqrt(x)) for f in 10.0 ** np.arange(-2.0, 2.5)])
    np.testing.assert_allclose(gains[:, :2], np.broadcast_to(gains[0, :2], (5, 2)),
                               rtol=1e-10, atol=0.0)
    assert np.ptp(gains[:, 2]) > 0.1 * gains[0, 2]  # elsewhere |G| does depend on R


@pytest.mark.parametrize("build", TOPOLOGIES, ids=TOPOLOGY_IDS)
def test_pole_placement_optimum_is_the_coalescence_point(build, basis5, patches5):
    # zeta_m = 0: eps = wm^2 (1 + kappa^2)^2 and rho = 2 kappa wm sqrt(1 + kappa^2)
    # merge the two pole pairs at damping ratio kappa / 2 (Krenk 2005)
    rm = _undamped_reduction(build, basis5, patches5)
    kappa, w = rm.kappa, rm.omega_m
    lbar = rm.mu_star / (w**2 * (1.0 + kappa**2) ** 2)
    rbar = 2.0 * kappa * w * np.sqrt(1.0 + kappa**2) * lbar
    values = np.linalg.eigvals(rm.a_matrix(rbar, lbar))
    assert _min_damping(values, band=None) == pytest.approx(kappa / 2.0, rel=1e-6)
    assert np.array_equal(np.sort_complex(values), np.sort_complex(np.conj(values)))

    tr = tune(rm)
    # the Newton polish: the double pole, R lowered by COALESCENCE_OFFSET, where
    # eigvals resolves the two pairs and the objective is what eigvals gives
    assert tr.polished
    assert tr.r == pytest.approx(rbar * (1.0 - optima.COALESCENCE_OFFSET), rel=1e-12)
    assert tr.l == pytest.approx(lbar, rel=1e-12)
    assert kappa / 2.0 * (1.0 - 1e-6) <= tr.objective <= kappa / 2.0 * (1.0 + 1e-7)
    assert tr.objective == _min_damping(np.linalg.eigvals(rm.a_matrix(tr.r, tr.l)), None)


def _dense_peaks(rm, r, l, points=1_000_001):
    """(largest value, sorted local maxima) of |G| on a dense linear grid over the hinf band.

    The largest value is refined on 1001 samples between the neighbours of the best
    sample: a peak falls short of the exact one by about the square of the spacing.
    """
    grid = hinf_grid(rm.omega_m)
    omega = np.linspace(grid[0], grid[-1], points)
    gain = np.sqrt(rm.gain_sq(r, l, omega))
    inner = gain[1:-1]
    best = np.argmax(gain)
    fine = np.linspace(omega[max(best - 1, 0)], omega[min(best + 1, points - 1)], 1001)
    peak = max(gain[best], np.sqrt(rm.gain_sq(r, l, fine)).max())
    return peak, np.sort(inner[(inner > gain[:-2]) & (inner >= gain[2:])])


def _winner(starts):
    """The start `tune` picks: the best objective, ties broken by (R, L)."""
    return min(starts, key=lambda s: (-s.objective, s.r_opt, s.l_opt))


@pytest.mark.parametrize("zeta_m", [0.0, 0.001, 0.005])
@pytest.mark.parametrize("build", TOPOLOGIES, ids=TOPOLOGY_IDS)
def test_polished_optima_beat_the_full_tolerance_simplex(build, basis5, patches5, zeta_m):
    rm = dataclasses.replace(_undamped_reduction(build, basis5, patches5), zeta_m=zeta_m)
    mdr = tune(rm)
    reference = tune_sequential(rm)  # nine starts at NM_REL_TOL, no polish
    assert mdr.polished and mdr.objective >= _winner(reference).objective
    assert mdr.objective == _min_damping(np.linalg.eigvals(rm.a_matrix(mdr.r, mdr.l)), None)

    hinf = tune(rm, "hinf")
    reference = tune_sequential(rm, "hinf")
    peak, maxima = _dense_peaks(rm, hinf.r, hinf.l)
    assert hinf.polished and len(maxima) == 2
    assert maxima[0] == pytest.approx(maxima[1], rel=1e-8)  # the equal-peak point
    winner = _winner(reference)
    assert peak <= _dense_peaks(rm, winner.r_opt, winner.l_opt)[0]
    # the objective is minus the band peak, which no sample exceeds
    assert -hinf.objective == pytest.approx(peak, rel=1e-10)
    assert -hinf.objective >= peak * (1.0 - 1e-15)


@pytest.mark.parametrize("objective", ["min-damping-ratio", "hinf"])
def test_polish_outside_the_box_falls_back_to_the_full_tolerance_simplex(bench_m1, objective):
    rm = reduce(bench_m1)
    r0, l0 = closed_form_seed(rm)
    # R of the coalescence point is about 1.4 r0, of the equal-peak point about 0.87 r0
    bounds = ((0.95 * r0, 1.1 * r0), (0.9 * l0, 1.1 * l0))
    tr = tune(rm, objective, bounds=bounds)
    assert not tr.polished
    assert bounds[0][0] <= tr.r <= bounds[0][1] and bounds[1][0] <= tr.l <= bounds[1][1]
    # the winner's start alone at NM_REL_TOL, as the sequential reference runs it
    winner = tr.starts.index(_winner(tr.starts))
    full = tune_sequential(rm, objective, bounds=bounds)[winner]
    assert (tr.r, tr.l) == (full.r_opt, full.l_opt)
    grid = hinf_grid(rm.omega_m)
    assert tr.objective == _objective_value(objective, rm, tr.r, tr.l, grid=grid)


@pytest.mark.parametrize("objective", ["min-damping-ratio", "hinf"])
def test_converged_describes_the_search_that_returned_the_point(bench_m1, monkeypatch, objective):
    # a box without the polished point: the winner's start runs again at NM_REL_TOL
    rm = reduce(bench_m1)
    r0, l0 = closed_form_seed(rm)
    bounds = ((0.95 * r0, 1.1 * r0), (0.9 * l0, 1.1 * l0))
    tr = tune(rm, objective, bounds=bounds)
    assert not tr.polished and tr.converged
    # a cap that the global stage's winner meets but its full-tolerance rerun does not
    winner = _winner(tr.starts)
    assert winner.converged
    monkeypatch.setattr(reduction, "NM_MAX_ITER", winner.iterations + 1)
    capped = tune(rm, objective, bounds=bounds)
    assert _winner(capped.starts) == winner and not capped.polished
    assert not capped.converged


def test_polish_refuses_a_nonpositive_root_and_peaks_off_the_band_peak(bench_m1, monkeypatch):
    rm = reduce(bench_m1)
    r0, l0 = closed_form_seed(rm)
    grid, bounds = hinf_grid(rm.omega_m), ((1e-2 * r0, 1e6 * r0), (1e-4 * l0, 1e4 * l0))
    value = _objective_value("hinf", rm, r0, l0, grid=grid)
    point, steps, omegas = optima._equal_peaks(rm, r0, l0, grid)
    assert reduction._polish(rm, "hinf", r0, l0, value, grid, bounds)[3] == steps
    # the same scales with stationary points that are not the band peak
    monkeypatch.setattr(reduction, "_equal_peaks", lambda *args: (point, steps, 0.99 * omegas))
    assert reduction._polish(rm, "hinf", r0, l0, value, grid, bounds) is None
    # a coalescence root at R < 0 is outside every box, without a log10 warning
    monkeypatch.setattr(reduction, "_coalescence", lambda *args: ((-r0, l0), steps))
    assert reduction._polish(rm, "min-damping-ratio", r0, l0, 0.0, None, bounds) is None


def test_hinf_polish_survives_scales_whose_quintic_overflows(bench_m1):
    # rho = R / L overflows: the band peak is inf, and no LAPACK error escapes
    tr = tune(reduce(bench_m1), "hinf", seed=(1e150, 1e-150))
    assert tr.objective == -np.inf and not tr.polished


GOLDEN_COMPARE_CONFIGS = {
    "default": "",
    "m6_both_ends": ("[beam]\nzeta = 0.002\nM = 6\n[patches]\nN = 3\n"
                     "[network]\ntermination = both_ends\n[optimize]\ntarget_mode = 2\n"),
}


@pytest.mark.parametrize("text", GOLDEN_COMPARE_CONFIGS.values(), ids=list(GOLDEN_COMPARE_CONFIGS))
def test_reduced_tunes_of_the_golden_compares_take_the_newton_path(monkeypatch, text):
    # the six reduced tunes of each golden `compare` run no simplex: one record of
    # the exact start, its optimum and at most ten Newton steps
    def no_simplex(*args):
        raise AssertionError("the simplex ran")
    monkeypatch.setattr(reduction, "_lockstep", no_simplex)
    cfg = load_config(text)
    basis, patches = cli._basis_and_patches(cfg)
    for topology in TOPOLOGY_IDS:
        rm = reduce(ps.assemble(basis, patches, cli._builtin_netlist(cfg, topology)),
                    cfg.target_mode)
        for objective in ("min-damping-ratio", "hinf"):
            tr = tune(rm, objective, bounds=cfg.bounds)
            (record,) = tr.starts
            assert tr.polished and tr.converged and record.converged
            assert 1 <= record.iterations <= 10
            assert (record.r_opt, record.l_opt, record.objective) == (tr.r, tr.l, tr.objective)


def _random_reduced_models(count, seed=20):
    """`count` ReducedModels: kappa log-uniform on [0.01, 0.6], zm uniform on
    [0, min(10 kappa, 0.99)] (every tenth zm = 0), wm, mu* and the tip gain log-uniform."""
    rng = np.random.default_rng(seed)
    for j in range(count):
        kappa = 10.0 ** rng.uniform(-2.0, np.log10(0.6))
        zeta_m = 0.0 if j % 10 == 0 else rng.uniform(0.0, min(10.0 * kappa, 0.99))
        omega_m = 10.0 ** rng.uniform(-1.0, 4.0)
        yield ReducedModel(target_mode=1, omega_m=omega_m, zeta_m=zeta_m,
                           mu_star=10.0 ** rng.uniform(3.0, 9.0), alpha=kappa * omega_m,
                           tip_gain=10.0 ** rng.uniform(-1.0, 1.0))


def test_newton_path_is_no_worse_than_the_simplex_fallback_on_random_models(monkeypatch):
    # the fallback is the nine starts, the polish of their winner and the rerun:
    # forced by refusing the first try, the one `_polish` from the exact start
    polish = reduction._polish

    def fallback(rm, objective, rbar, lbar, value, grid, bounds, continued=False):
        return None if continued else polish(rm, objective, rbar, lbar, value, grid, bounds)

    models = list(_random_reduced_models(200))
    assert sum(rm.zeta_m > rm.kappa for rm in models) > 50
    assert max(rm.zeta_m / rm.kappa for rm in models) > 9.0
    for objective in ("min-damping-ratio", "hinf"):
        results = [tune(rm, objective) for rm in models]
        first = [len(tr.starts) == 1 for tr in results]
        if objective == "min-damping-ratio":
            # the continued coalescence is refused only where the plateau of four real
            # poles wins, which the fallback reaches
            assert all(f or tr.objective == 1.0 for f, tr in zip(first, results))
            assert sum(tr.objective == 1.0 for tr in results) >= 5
        else:  # equal peaks on many models
            assert sum(first) >= 70
        with monkeypatch.context() as patch:
            patch.setattr(reduction, "_polish", fallback)
            for rm, tr in zip(models, results):
                if len(tr.starts) == 1:  # a refused first try is the fallback path already
                    want = tune(rm, objective).objective
                    assert tr.objective >= want - 1e-9 * abs(want), (rm, objective)


def test_no_local_simplex_improves_a_newton_path_pole_placement():
    # the coalescence is the optimum also with mechanical damping: split along the
    # double pair's ray, both pairs keep its damping ratio, and a local simplex from the
    # returned point gains at most 2e-7 relative (a split by R alone lost up to 1.35e-5)
    from scipy.optimize import minimize

    checked = 0
    for rm in _random_reduced_models(200):
        tr = tune(rm)
        if len(tr.starts) != 1:
            continue
        checked += 1

        def cost(z):
            a = rm.a_matrix(10.0 ** z[0], 10.0 ** z[1])
            return -float(reduction._min_damping(np.linalg.eigvals(a), None))

        z0 = np.log10([tr.r, tr.l])
        found = minimize(cost, z0, method="Nelder-Mead",
                         options={"initial_simplex": [z0, z0 + (1e-3, 0.0), z0 + (0.0, 1e-3)],
                                  "xatol": 1e-12, "fatol": 1e-16, "maxiter": 60})
        assert -found.fun <= tr.objective + 2e-7 * tr.objective, rm
    assert checked >= 180  # 193 of the 200 take the Newton path


def test_hinf_optimum_whose_second_peak_is_the_band_end_is_polished():
    # zm = 2.1 kappa: the equal peaks are one interior maximum and |G| at the band's
    # lower end, which `_equal_peaks` pins there; the simplex alone stopped 2.7e-7 short
    rm = list(_random_reduced_models(59))[58]
    tr = tune(rm, "hinf")
    assert tr.polished and tr.converged
    grid = hinf_grid(rm.omega_m)
    dense = np.linspace(grid[0], grid[-1], 100001)
    gain = np.sqrt(rm.gain_sq(tr.r, tr.l, dense))
    inner = gain[1:-1]
    (peak,) = np.nonzero((inner > gain[:-2]) & (inner >= gain[2:]))[0] + 1
    assert gain[0] > gain[-1]
    assert gain[peak] == pytest.approx(gain[0], rel=1e-8)
    assert -tr.objective == pytest.approx(gain[0], rel=1e-12)


def test_continued_coalescence_is_quick_where_zeta_m_is_many_times_kappa():
    # 2 zm = 20 kappa: twenty continuation solves, each from the last root stepped
    # along its tangent; from the last root alone they took 263 Newton steps
    rm = ReducedModel(target_mode=1, omega_m=3.0, zeta_m=0.118, mu_star=1e6,
                      alpha=0.0118 * 3.0, tip_gain=1.0)
    (r, l), steps = optima._coalescence(rm, *optima._undamped_coalescence(rm), continued=True)
    assert steps <= 60
    # the two pole pairs coincide, up to the split of COALESCENCE_OFFSET (about 1e-4)
    poles = np.linalg.eigvals(rm.a_matrix(r, l))
    upper = poles[poles.imag > 0]
    assert len(upper) == 2 and abs(upper[0] - upper[1]) <= 1e-3 * abs(upper[0])


@pytest.mark.parametrize("kappa", [0.1, 0.3, 0.6])
def test_coalescence_is_critically_damped_at_the_closed_form_zeta(kappa):
    # the characteristic polynomial of `_coalescence` at 2 zm = (2 - t) c,
    # R = (2 + t) c and E = c^4 is (sigma + c)^4
    t = np.sqrt(2.0 * kappa)
    c = np.sqrt(1.0 + kappa + t)
    z, big_r, big_e = (2.0 - t) * c, (2.0 + t) * c, c**4
    poly = np.polyadd(np.polymul([1.0, z, 1.0], [1.0, big_r, big_e]),
                      kappa**2 * np.array([1.0, big_r, 0.0]))
    np.testing.assert_allclose(poly, np.poly([-c] * 4), rtol=1e-12)
    # just below, Newton reaches it from the undamped coalescence; from there on
    # the simplex runs, and past it finds the plateau where all four poles are real
    for zeta_m, newton in ((0.5 * z * (1.0 - 1e-6), True), (0.5 * z, False),
                           (0.5 * z + 0.001, False)):
        rm = ReducedModel(target_mode=1, omega_m=3.5, zeta_m=zeta_m, mu_star=1e7,
                          alpha=kappa * 3.5, tip_gain=2.0)
        tr = tune(rm)
        assert (len(tr.starts) == 1) == newton
        assert tr.objective > 0.9999
    assert tr.objective == 1.0


@pytest.mark.parametrize("zeta_m", [0.0, 0.003])
@pytest.mark.parametrize("y", [0.8, 1.0, 1.3])
def test_log_gain_derivatives_match_central_differences(zeta_m, y):
    z, k = 2.0 * zeta_m, 0.01

    def at(p):  # p = (y, ln R, ln E)
        return optima._log_gain_derivatives(np.exp(p[1]), np.exp(p[2]), z, k, p[0])

    point = np.array([y, np.log(0.14), np.log(1.02)])
    _, grad, hess = at(point)
    step = 1e-6
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = step
        (h_plus, g_plus, _), (h_minus, g_minus, _) = at(point + dp), at(point - dp)
        assert grad[i] == pytest.approx((h_plus - h_minus) / (2 * step), rel=1e-6, abs=1e-6)
        np.testing.assert_allclose(np.array(hess)[:, i],
                                   (np.array(g_plus) - np.array(g_minus)) / (2 * step),
                                   rtol=1e-5, atol=1e-5)
    # h is ln |G|^2 up to a constant
    rm = ReducedModel(target_mode=1, omega_m=2.0, zeta_m=zeta_m, mu_star=3.0, alpha=0.2,
                      tip_gain=1.0)
    rbar, lbar = 0.14 * 2.0 * 3.0 / (1.02 * 4.0), 3.0 / (1.02 * 4.0)
    h = [optima._log_gain_derivatives(0.14, 1.02, z, k, v)[0] for v in (y, 1.1)]
    gain_sq = rm.gain_sq(rbar, lbar, 2.0 * np.sqrt([y, 1.1]))
    assert h[0] - h[1] == pytest.approx(np.log(gain_sq[0] / gain_sq[1]), rel=1e-9, abs=1e-12)


def _rosenbrock(z):
    return (1.0 - z[0]) ** 2 + 100.0 * (z[1] - z[0] ** 2) ** 2


def _walled_quadratic(z):
    """Shifted 10-D quadratic with its minimum just outside a box wall at z < 0.3.

    Every other slab of width 1/40 across sum(z) is walled off too: a convex
    feasible set would let every contraction succeed, and no shrink would run.
    """
    if (z >= 0.3).any() or int(np.floor(40.0 * np.sum(z))) % 2:
        return np.inf
    return float(np.sum((z - np.linspace(-0.5, 0.31, 10)) ** 2))


def _run_alone(f, z0):
    """One `_nelder_mead` search driven by `_lockstep`, one `f` call per point."""
    (result,) = reduction._lockstep(lambda points: np.array([f(z) for z in points]), [z0],
                                    reduction._nelder_mead)
    return result


@pytest.mark.parametrize("f, z0, kinds", [
    (_rosenbrock, [-1.2, 1.0], {"expand", "reflect", "contract"}),
    (_walled_quadratic, np.linspace(-1.0, 0.2, 10), {"expand", "reflect", "contract", "shrink"}),
    (lambda z: np.inf, [0.5, -2.0, 3.0], {"shrink"}),  # no feasible start
], ids=["rosenbrock", "walled_quadratic_10d", "infeasible"])
def test_array_simplex_follows_the_list_simplex_bit_for_bit(f, z0, kinds):
    steps = []
    z_ref, f_ref, iterations_ref, converged_ref = nelder_mead_lists(
        f, np.array(z0, dtype=float), steps)
    for z, f_best, iterations, converged in (_run_alone(f, np.array(z0, dtype=float)),
                                             nelder_mead_array(f, np.array(z0, dtype=float))):
        assert [float(v).hex() for v in z] == [float(v).hex() for v in z_ref]
        assert (f_best, iterations, converged) == (f_ref, iterations_ref, converged_ref)
    assert set(steps) == kinds  # the paths compared take these steps


@st.composite
def _walled_quadratics(draw):
    """(f, starts): a walled quadratic in 1-4 dimensions and 1-5 starts, the last infeasible.

    Like `_walled_quadratic`, every other slab across sum(z) is infeasible,
    so contractions fail and shrinks run; the last start lies outside the box
    wall, where every vertex costs inf and only shrinks run.
    """
    d = draw(st.integers(1, 4))
    coords = st.floats(-1.0, 1.0, allow_nan=False)
    center = np.array(draw(st.lists(coords, min_size=d, max_size=d)))
    wall, slabs = draw(st.floats(0.2, 1.0)), draw(st.sampled_from([10.0, 40.0, 160.0]))
    starts = draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=0, max_size=4))

    def f(z):
        if (np.abs(z) >= wall).any() or int(np.floor(slabs * np.sum(z))) % 2:
            return np.inf
        return float(np.sum((z - center) ** 2))

    return f, [np.array(z) for z in starts] + [np.full(d, 2.0)]


@settings(max_examples=60, deadline=None)
@given(problem=_walled_quadratics())
def test_lockstep_searches_equal_separate_runs(problem):
    f, starts = problem
    batches = []

    def batch(points):
        batches.append(len(points))
        return np.array([f(z) for z in points])

    got = reduction._lockstep(batch, starts, reduction._nelder_mead)
    steps, calls = [], []

    def counted(z):
        calls.append(z)
        return f(z)

    want = [nelder_mead_lists(counted, z0, steps) for z0 in starts]
    for (z, f_best, iterations, converged), (z_ref, *ref) in zip(got, want):
        assert [float(v).hex() for v in z] == [float(v).hex() for v in z_ref]
        assert [f_best, iterations, converged] == ref
    assert "shrink" in steps
    # the same evaluations, one batch per round: as many as the longest search asks for
    assert sum(batches) == len(calls)
    rounds = [len(batches)]
    for z0 in starts:
        batches.clear()
        reduction._lockstep(batch, [z0], reduction._nelder_mead)
        rounds.append(len(batches))
    assert rounds[0] == max(rounds[1:])


def _plateaued_quadratic(d):
    """A d-dimensional quadratic costing inf outside |z| < 1 and on every other slab across sum(z).

    From z0 = 0 every vertex but z0 lies on the infeasible slab, a tie of d
    values at inf; from outside the wall every vertex ties.
    """
    center = np.linspace(-0.4, 0.3, d)

    def f(z):
        if (np.abs(z) >= 1.0).any() or int(np.floor(30.0 * np.sum(z))) % 2:
            return np.inf
        return float(np.sum((z - center) ** 2))
    return f


@settings(max_examples=200, deadline=None)
@given(points=st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d), min_size=1, max_size=6)))
def test_min_norm_is_the_hull_point_nearest_the_origin(points):
    assert bfgs._min_norm(points) == pytest.approx(min_norm_enumerated(points), abs=1e-9)


def test_min_norm_finds_the_origin_and_the_nearest_face():
    # the origin inside the hull of a cross, and the middle of a segment
    assert bfgs._min_norm([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]) <= 1e-15
    assert bfgs._min_norm([[1.0, 1.0], [1.0, -1.0], [3.0, 0.0]]) == pytest.approx(1.0)
    # the stationarity test settles the far case on its bound alone
    assert not bfgs._stationary([[5.0, 0.0], [4.0, 1.0]], 1.0)
    assert bfgs._stationary([[1.0, 0.0], [-1.0, 1e-9]], 1e-6)


@pytest.mark.parametrize("d", [4, 10, 16])
def test_tied_vertices_keep_their_order(d):
    f = _plateaued_quadratic(d)
    rng = np.random.default_rng(d)
    starts = [np.zeros(d), np.full(d, 0.02), *np.round(rng.uniform(-0.3, 0.3, (4, d)), 2),
              np.full(d, 2.0)]
    got = reduction._lockstep(lambda points: np.array([f(z) for z in points]), starts,
                              reduction._nelder_mead)
    tied = []
    for z0, (z, f_best, iterations, converged) in zip(starts, got):
        sorted_values = []
        z_ref, *ref = nelder_mead_lists(f, z0, sorted_values=sorted_values)
        assert [float(v).hex() for v in z] == [float(v).hex() for v in z_ref]
        assert [f_best, iterations, converged] == ref
        tied.append(any(a == b for values in sorted_values for a, b in zip(values, values[1:])))
    # equal values were sorted on the paths built to meet them
    assert tied[0] and tied[-1]
    assert got[0][1] < np.inf and got[-1][1] == np.inf


def _pole_model():
    """Undamped and shorted at (R, L) = (0, 1): omega = 1 is an exact pole of |G|^2."""
    return ReducedModel(target_mode=1, omega_m=3.0, zeta_m=0.0, mu_star=1.125, alpha=1.0,
                        tip_gain=1.0)


@settings(max_examples=100, deadline=None)
@given(log_omega=st.floats(-1.0, 4.0), zeta_m=st.one_of(st.just(0.0), st.floats(1e-4, 0.1)),
       log_kappa=st.floats(-3.0, np.log10(0.5)), log_mu=st.floats(3.0, 9.0),
       gain=st.floats(0.1, 3.0),
       factors=st.lists(st.tuples(st.floats(-2.0, 6.0), st.floats(-4.0, 4.0)),
                        min_size=1, max_size=6),
       pole=st.booleans(),
       bad=st.one_of(st.none(), st.tuples(st.integers(0, 5), st.booleans(),
                                          st.sampled_from([np.nan, -1.0, 0.0, np.inf]))))
def test_prepared_reduced_kernels_equal_the_public_model_row_by_row(
        log_omega, zeta_m, log_kappa, log_mu, gain, factors, pole, bad):
    omega_m, kappa = 10.0 ** log_omega, 10.0 ** log_kappa
    rm = ReducedModel(target_mode=1, omega_m=omega_m, zeta_m=zeta_m, mu_star=10.0 ** log_mu,
                      alpha=kappa * omega_m, tip_gain=gain)
    grid = hinf_grid(omega_m)
    r0, l0 = closed_form_seed(rm)
    r = [r0 * 10.0 ** fr for fr, _ in factors]
    l = [l0 * 10.0 ** fl for _, fl in factors]
    if pole:  # the pole model, its pole row and the pole on the grid
        rm, grid = _pole_model(), np.array([0.5, 1.0, 1.5])
        r, l = r + [0.0], l + [1.0]
    if bad is not None:
        j, on_l, value = bad
        j %= len(r)
        if on_l:
            l[j] = value
        elif value != 0.0:  # R = 0 is admissible
            r[j] = value
    fault = branch_fault(np.min(r), np.min(l)) or branch_fault(np.max(r), np.max(l))
    if fault:  # the public entries admit; the kernels only ever see what `tune` admitted
        for public in (lambda: rm.a_matrix(np.array(r), np.array(l)),
                       lambda: rm.gain_sq(np.array(r)[:, None], np.array(l)[:, None], grid)):
            with pytest.raises(ParameterError) as got:
                public()
            assert str(got.value) == f"branch rescaling: each branch {fault}"
        return

    hinf = reduction._objective(rm, "hinf", grid=grid)
    mdr = reduction._objective(rm, "min-damping-ratio")
    stacked = rm._gain_sq(np.array(r)[:, None], np.array(l)[:, None], grid)
    a_stack = rm._a_matrix(r, l)
    want_hinf, want_mdr = [], []
    for j, (r_j, l_j) in enumerate(zip(r, l)):
        gain_sq = rm.gain_sq(r_j, l_j, grid)
        assert [v.hex() for v in stacked[j].tolist()] == [v.hex() for v in gain_sq.tolist()]
        assert ([v.hex() for v in a_stack[j].ravel().tolist()]
                == [v.hex() for v in rm.a_matrix(r_j, l_j).ravel().tolist()])
        peak = gain_sq.max()
        want_hinf.append(-np.sqrt(peak) if np.isfinite(peak) else -np.inf)
        want_mdr.append(_min_damping(np.linalg.eigvals(rm.a_matrix(r_j, l_j)), None))
    assert [float(v).hex() for v in hinf(r, l)] == [float(v).hex() for v in want_hinf]
    assert [float(v).hex() for v in mdr(r, l)] == [float(v).hex() for v in want_mdr]
    if pole:
        assert hinf(r, l)[-1] == -np.inf


@pytest.mark.parametrize("objective", ["min-damping-ratio", "hinf"])
def test_reduced_tune_admits_its_scales_where_they_enter_not_every_round(monkeypatch, objective):
    # the seed rule and the search box admit every scale the simplex evaluates, so
    # only the public matrix and gain calls at single points admit: a count that does
    # not grow with the lockstep rounds (one call per round would be about 90 and 400)
    calls = []
    admitted = reduction._admitted
    monkeypatch.setattr(reduction, "_admitted", lambda *args: calls.append(1) or admitted(*args))
    rm = reduce(_default_system("single_shunt"), 1)
    tr = tune(rm, objective)
    assert tr.polished and len(tr.starts) == 1
    assert len(calls) <= 3
    # a box without the optimum: the nine starts, then the rerun of their winner
    calls.clear()
    r0, l0 = closed_form_seed(rm)
    r_box = (0.05 * r0, 1.1 * r0) if objective == "min-damping-ratio" else (0.9 * r0, 20.0 * r0)
    tr = tune(rm, objective, bounds=(r_box, (0.05 * l0, 20.0 * l0)))
    assert not tr.polished and sum(s.iterations for s in tr.starts) > 50
    assert len(calls) <= 3  # the scores of the seed, the winner and the rerun


@pytest.mark.parametrize("case", ["uniform-mdr", "uniform-hinf", "per_branch-mdr"])
def test_complete_model_tune_admits_its_branch_values_where_they_enter(unit_beam, monkeypatch,
                                                                      case):
    # the seed, the stack of seed and starts, and the box's corners: three admissions
    # whatever the number of lockstep rounds (one per round would be well over a hundred)
    kind, objective = case.split("-")
    sys_ = _small_system(unit_beam, ps.build_multi_shunt)
    r0, l0 = closed_form_seed(reduce(sys_))
    # a 400-point FRF per evaluation: a box that holds one start of the nine keeps it short
    bounds = ((0.5 * r0, 2.0 * r0), (0.5 * l0, 2.0 * l0)) if objective == "hinf" else None
    calls = []
    admitted = reduction._admitted
    monkeypatch.setattr(reduction, "_admitted", lambda *args: calls.append(1) or admitted(*args))
    tr = tune(sys_, "hinf" if objective == "hinf" else "min-damping-ratio", bounds=bounds,
              per_branch=kind == "per_branch")
    assert sum(s.iterations for s in tr.starts) > 20
    assert len(calls) <= 3


TUNE_FIELDS = ("r0", "l0", "r_opt", "l_opt", "objective", "seed_objective")


def _bits(starts, r_branches=None, l_branches=None):
    """Every StartRecord field and branch value, floats as float.hex."""
    records = [tuple(float(getattr(s, k)).hex() for k in TUNE_FIELDS) + (s.iterations, s.converged)
               for s in starts]
    branches = [None if v is None else [float(x).hex() for x in v] for v in (r_branches, l_branches)]
    return records, branches


def _small_system(beam, build, m=3, n=3):
    basis = ps.modal_basis(beam, m)
    patches = ps.uniform_layout(beam, n, coverage=0.9, cp=100e-9, gamma=1e-4)
    return ps.assemble(basis, patches, build(n, 100.0, 1.0))


@pytest.mark.parametrize("case", ["reduced-mdr", "reduced-hinf", "full-mdr", "full-hinf"])
@pytest.mark.parametrize("build", TOPOLOGIES, ids=TOPOLOGY_IDS)
def test_tune_equals_the_sequential_multi_start_bit_for_bit(unit_beam, build, case):
    kind, objective = case.split("-")
    objective = "hinf" if objective == "hinf" else "min-damping-ratio"
    sys_ = _small_system(unit_beam, build)
    model = reduce(sys_) if kind == "reduced" else sys_
    bounds = None
    if case == "full-hinf":
        # a 400-point FRF per evaluation: a box that holds one start of the nine
        # keeps it short, and the other eight search outside it, unevaluated
        r0, l0 = closed_form_seed(reduce(sys_))
        bounds = ((0.5 * r0, 2.0 * r0), (0.5 * l0, 2.0 * l0))
    if kind == "reduced":
        # a box without the optimum sends the tune down the fallback path; it holds the
        # starts at 0.1 and 1 (mdr, optimum at R about 1.4 r0) or 1 and 10 (hinf, 0.87 r0)
        # times the seed's R, and all three of its L
        r0, l0 = closed_form_seed(model)
        r_box = (0.05 * r0, 1.2 * r0) if objective == "min-damping-ratio" else (0.9 * r0, 20 * r0)
        bounds = (r_box, (0.05 * l0, 20.0 * l0))
    tr = tune(model, objective, bounds=bounds)
    assert kind != "reduced" or not tr.polished
    # a ReducedModel's simplex is the global stage, at its own looser tolerance
    rel_tol = reduction._GLOBAL_REL_TOL if kind == "reduced" else reduction.NM_REL_TOL
    want = tune_sequential(model, objective, bounds=bounds, rel_tol=rel_tol)
    assert _bits(tr.starts) == _bits(want)


def _multi_shunt_m3(beam):
    return _small_system(beam, ps.build_multi_shunt)


def _counted_tune(monkeypatch, sys_, per_branch):
    """(result, counts) of `tune(sys_)`: state matrices built, eig and eigvals calls and
    their rows, and the lockstep rounds."""
    counts = {"state_matrix": 0, "eig": 0, "eigvals": 0, "rows": 0, "rounds": 0}

    def build(*args):
        counts["state_matrix"] += 1
        return state_matrix(*args)

    def counted(name, solve):
        def decompose(a):
            counts[name] += 1
            counts["rows"] += len(a)
            return solve(a)
        return decompose

    lockstep = reduction._lockstep

    def rounds(batch, starts, search):
        def one_round(z):
            counts["rounds"] += 1
            return batch(z)
        return lockstep(one_round, starts, search)

    monkeypatch.setattr(coupled, "state_matrix", build)
    monkeypatch.setattr(reduction, "state_matrix", build)
    monkeypatch.setattr(reduction, "_lockstep", rounds)
    for name in ("eig", "eigvals"):
        monkeypatch.setattr(reduction.np.linalg, name, counted(name, getattr(np.linalg, name)))
    return tune(sys_, per_branch=per_branch), counts


def test_per_branch_tune_builds_the_state_matrix_once(unit_beam, monkeypatch):
    tr, counts = _counted_tune(monkeypatch, _multi_shunt_m3(unit_beam), True)
    assert counts["state_matrix"] <= 2  # not once per evaluation
    # every round's points are one stack: one eig call per round, not per point
    assert counts["rows"] > 500 and counts["eig"] <= counts["rows"] / 3
    # the BFGS rounds, at most the line search's trials per iteration of the longest
    # search, and one eigvals stack that scores the starts and the optima
    assert counts["eig"] == counts["rounds"]
    assert counts["eig"] <= 1 + bfgs._WOLFE_TRIALS * max(s.iterations for s in tr.starts)
    assert counts["eigvals"] == 1


def test_uniform_tune_builds_the_state_matrix_once(unit_beam, monkeypatch):
    # the simplex runs in the per-branch BFGS's `_multi_start`: one eigvals stack per round,
    # the seed's score and one stack that scores the starts and the optima
    tr, counts = _counted_tune(monkeypatch, _multi_shunt_m3(unit_beam), False)
    assert counts["state_matrix"] <= 2
    assert counts["rows"] > 500 and counts["eigvals"] <= counts["rows"] / 3
    assert counts["eig"] == 0 and sum(s.iterations for s in tr.starts) > 50
    assert counts["rounds"] <= counts["eigvals"] <= counts["rounds"] + 2


@pytest.mark.parametrize("build", TOPOLOGIES, ids=TOPOLOGY_IDS)
def test_bfgs_lockstep_equals_each_start_alone_bit_for_bit(unit_beam, monkeypatch, build):
    sys_ = _small_system(unit_beam, build)
    together = tune(sys_, per_branch=True)
    lockstep = reduction._lockstep
    monkeypatch.setattr(reduction, "_lockstep", lambda batch, starts, search: [
        lockstep(batch, [z0], search)[0] for z0 in starts])
    alone = tune(sys_, per_branch=True)
    assert (_bits(together.starts, together.r_branches, together.l_branches)
            == _bits(alone.starts, alone.r_branches, alone.l_branches))
    # the searches end in different rounds, so the stacks shrink as they go
    assert len({s.iterations for s in together.starts}) > 1


def _seed_and_box(rm):
    r0, l0 = closed_form_seed(rm)
    return r0, l0, ((0.5 * r0, 2.0 * r0), (0.5 * l0, 2.0 * l0))


@pytest.mark.parametrize("bad", ["three_items", "array_item", "scalar", "string", "bool_item"])
def test_tune_rejects_a_malformed_seed(bench_m1, bad):
    rm = reduce(bench_m1)
    r0, l0, _ = _seed_and_box(rm)
    seed = {"three_items": (r0, l0, "junk"), "array_item": (np.array([r0]), l0), "scalar": r0,
            "string": "ab", "bool_item": (True, l0)}[bad]
    with pytest.raises(ParameterError, match=r"^tuning seed must be a pair \(R, L\)"):
        tune(rm, seed=seed)


@pytest.mark.parametrize("bad", ["three_bounds", "one_side", "scalar", "string_item"])
def test_tune_rejects_malformed_bounds(bench_m1, bad):
    rm = reduce(bench_m1)
    r0, l0, (r_box, l_box) = _seed_and_box(rm)
    bounds = {"three_bounds": ((1, 2, 3), (1, 2)), "one_side": (r_box,), "scalar": 1.0,
              "string_item": (r_box, ("1", "2"))}[bad]
    with pytest.raises(ParameterError, match=r"^tuning bounds must be \(\(R_min, R_max\)"):
        tune(rm, seed=(r0, l0), bounds=bounds)


def test_tune_accepts_seed_and_bounds_as_arrays(bench_m1):
    rm = reduce(bench_m1)
    r0, l0, box = _seed_and_box(rm)
    want = tune(rm, seed=(r0, l0), bounds=box)
    got = tune(rm, seed=np.array([r0, l0]), bounds=np.array(box))
    assert (got.r, got.l, got.objective) == (want.r, want.l, want.objective)


def test_stacked_min_damping_equals_one_spectrum_at_a_time():
    rng = np.random.default_rng(5)
    spectra = [np.linalg.eigvals(rng.standard_normal((6, 6))) for _ in range(6)]
    spectra += [np.zeros(6, dtype=complex),                    # all zero modes
                np.array([1e-12, -1.0, -2.0, 3j, -3j, 0.0]),   # real, zero and undamped
                np.full(6, 1e3 * (-0.01 + 1j))]                # all outside the band
    stack = np.array(spectra)
    for band in (None, (0.5, 5.0)):
        got = _min_damping(stack, band)
        want = [min_damping_pointwise(v, band) for v in spectra]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
        assert [float(_min_damping(v, band)).hex() for v in spectra] == [v.hex() for v in want]
    assert _min_damping(stack[-1], (0.5, 5.0)) == -np.inf


# -- the corner (1e6 r0, 1e-4 l0) of the default search box ------------------

def _default_system(topology):
    cfg = load_config("")
    return ps.assemble(*cli._basis_and_patches(cfg), cli._builtin_netlist(cfg, topology))


@pytest.mark.parametrize("topology", TOPOLOGY_IDS)
def test_reduced_min_damping_at_the_box_corner_is_its_smallest_pole_damping(topology):
    # a magnitude threshold once dropped the lightly damped pair there, next to a
    # relaxation pole of |lambda| ~ 6e9, and the objective read its best value 1.0
    rm = reduce(_default_system(topology), 1)
    r0, l0 = closed_form_seed(rm)
    r, l = r0 * BOUNDS_FACTORS_R[1], l0 * BOUNDS_FACTORS_L[0]
    poles = np.linalg.eigvals(rm.a_matrix(r, l))
    upper = poles[poles.imag >= 0]
    want = np.min(-upper.real / np.abs(upper))
    assert want < 1e-6
    got = _objective_value("min-damping-ratio", rm, r, l)
    assert got != 1.0 and got == pytest.approx(want, rel=1e-12)
    # the tuner's stacked kernel at one point gives the bits of the public matrix's spectrum
    assert float(_objective(rm, "min-damping-ratio")([r], [l])[0]).hex() == got.hex()


@pytest.mark.parametrize("topology", TOPOLOGY_IDS)
def test_full_min_damping_at_the_box_corner_is_the_in_band_minimum(topology):
    sys_ = _default_system(topology)
    rm = reduce(sys_, 1)
    r0, l0 = closed_form_seed(rm)
    r, l = r0 * BOUNDS_FACTORS_R[1], l0 * BOUNDS_FACTORS_L[0]
    poles = np.linalg.eigvals(state_matrix(sys_.rescaled(r, l)))
    freq = np.abs(poles)
    lo, hi = _band(rm.omega_m)
    inside = (freq >= lo) & (freq <= hi) & (poles.imag >= 0)
    want = np.min(-poles.real[inside] / freq[inside])
    # the complete model's public definition, the one `validate_reduction` reports
    got = float(_min_damping(coupled.eigen(sys_.rescaled(r, l)).values, (lo, hi)))
    assert np.isfinite(got) and got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("topology, zeros", [("single_shunt", 0), ("multi_shunt", 0),
                                             ("transmission_line", 1)])
@pytest.mark.parametrize("factors", [(1e6, 1e-4), (1e5, 1e-3)], ids=["corner", "near_corner"])
def test_zero_tags_near_the_box_corner_count_the_floating_components(topology, zeros, factors):
    sys_ = _default_system(topology)
    r0, l0 = closed_form_seed(reduce(sys_, 1))
    sol = coupled.eigen(sys_.rescaled(r0 * factors[0], l0 * factors[1]))
    assert sol.tags.count("zero") == zeros
