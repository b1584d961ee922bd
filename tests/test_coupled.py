import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import piezoshunt as ps
from piezoshunt.beam import tip_compliance
from piezoshunt.coupled import _frf_values, eigen, frf, state_matrix, total_energy
from piezoshunt.errors import ParameterError
from piezoshunt.reduction import ReducedModel

from _oracles import char_poly_roots, frf_pointwise, match_spectra, tags_pointwise


def _mechanical_poles(basis):
    poles = []
    for w, z in zip(basis.omega, basis.zeta):
        poles.append(complex(-z * w, w * np.sqrt(1 - z * z)))
        poles.append(complex(-z * w, -w * np.sqrt(1 - z * z)))
    return np.array(poles)


def _electrical_block_poles(nm, cap):
    """Standalone network spectrum from its own first-order block."""
    p, b = nm.n_nodes, nm.n_branches
    a = np.zeros((p + b, p + b))
    a[:p, p:] = -nm.b_inc / cap[:, None]
    a[p:, :p] = nm.b_inc.T / nm.l_b[:, None]
    a[p:, p:] = -np.diag(nm.r_b / nm.l_b)
    return np.linalg.eigvals(a)


def test_state_dimensions(basis5, patches5):
    sys1 = ps.assemble(basis5, patches5, ps.build_single_shunt(5, 1.0, 1.0))
    assert sys1.n_states == 12
    sys2 = ps.assemble(basis5, patches5, ps.build_transmission_line(5, 1.0, 1.0))
    assert sys2.n_states == 19
    assert state_matrix(sys2).shape == (19, 19)


def test_assemble_patch_netlist_mismatch(basis5, patches5):
    with pytest.raises(ParameterError):
        ps.assemble(basis5, patches5, ps.build_single_shunt(4, 1.0, 1.0))


def test_uncoupled_rlc_loop_frequency(unit_beam):
    # L = 1 H with Cp = 1 uF and R = 0: electrical pair at +- j 1000 rad/s
    basis = ps.modal_basis(unit_beam, 1)
    arr = ps.uniform_layout(unit_beam, 1, coverage=1.0, cp=1e-6, gamma=0.0)
    sys_ = ps.assemble(basis, arr, ps.build_single_shunt(1, 0.0, 1.0))
    vals = np.linalg.eigvals(state_matrix(sys_))
    elec = vals[np.abs(np.abs(vals) - 1000.0) < 1.0]
    assert len(elec) == 2
    assert np.allclose(sorted(elec.imag), [-1000.0, 1000.0], rtol=1e-10)


def test_decoupled_spectrum_matches_union(unit_beam):
    beam = ps.BeamSpec(1.0, 1.0, 1.0, zeta=0.015)
    basis = ps.modal_basis(beam, 5)
    arr = ps.uniform_layout(unit_beam, 5, coverage=0.9, cp=100e-9, gamma=0.0)
    for net in (ps.build_single_shunt(5, 200.0, 1e5),
                ps.build_multi_shunt(5, 200.0, 1e5),
                ps.build_transmission_line(5, 200.0, 1e5)):
        sys_ = ps.assemble(basis, arr, net)
        expected = np.concatenate([
            _mechanical_poles(basis),
            _electrical_block_poles(sys_.nm, sys_.cap),
        ])
        got = np.linalg.eigvals(state_matrix(sys_))
        assert match_spectra(expected, got) < 1e-10


def test_parallel_capacitance_in_single_shunt(basis5, unit_beam):
    # electrical resonance must see C_eff = 5 Cp when gamma = 0
    cp, lind = 100e-9, 2e5
    arr = ps.uniform_layout(unit_beam, 5, coverage=0.9, cp=cp, gamma=0.0)
    sys_ = ps.assemble(basis5, arr, ps.build_single_shunt(5, 0.0, lind))
    vals = np.linalg.eigvals(state_matrix(sys_))
    omega_e = 1.0 / np.sqrt(lind * 5 * cp)
    elec = vals[np.abs(np.abs(vals) - omega_e) < 0.01 * omega_e]
    assert len(elec) == 2
    assert np.max(np.abs(np.abs(elec.imag) - omega_e)) < 1e-10 * omega_e


def test_multi_shunt_distinct_inductances_give_distinct_loops(basis5, unit_beam):
    cp = 100e-9
    arr = ps.uniform_layout(unit_beam, 5, coverage=0.9, cp=cp, gamma=0.0)
    l_list = [1e5, 2e5, 3e5, 4e5, 5e5]
    sys_ = ps.assemble(basis5, arr, ps.build_multi_shunt(5, 0.0, l_list))
    vals = np.linalg.eigvals(state_matrix(sys_))
    for lind in l_list:
        omega_e = 1.0 / np.sqrt(lind * cp)
        hits = vals[np.abs(np.abs(vals) - omega_e) < 1e-9 * omega_e]
        assert len(hits) == 2


def test_lossless_eigenvalues_purely_imaginary(bench_m5):
    lossless = bench_m5.rescaled(0.0, 1.6e5)
    sol = eigen(lossless)
    assert np.max(np.abs(sol.values.real)) <= 1e-9 * np.max(sol.freq)


@pytest.mark.parametrize(
    "build", [ps.build_single_shunt, ps.build_multi_shunt, ps.build_transmission_line],
    ids=["single_shunt", "multi_shunt", "transmission_line"],
)
def test_conjugate_closure(build, basis5, patches5):
    sol = eigen(ps.assemble(basis5, patches5, build(5, 120.0, 1.5e5)))
    assert np.array_equal(np.sort_complex(sol.values), np.sort_complex(np.conj(sol.values)))


def test_state_matrix_follows_replaced_fields(bench_m5):
    sys_ = bench_m5.rescaled(120.0, 1.5e5)
    a = state_matrix(sys_)
    doubled = dataclasses.replace(sys_, cap=2.0 * sys_.cap)
    rows_v = slice(2 * sys_.basis.m, 2 * sys_.basis.m + sys_.nm.n_nodes)
    assert np.array_equal(state_matrix(doubled)[rows_v], a[rows_v] / 2.0)
    assert match_spectra(eigen(doubled).values, np.linalg.eigvals(state_matrix(doubled))) < 1e-12
    with pytest.raises(dataclasses.FrozenInstanceError):
        sys_.cap = 2.0 * sys_.cap


@pytest.mark.parametrize("r, l, value", [(np.nan, 1e5, "nan"), (np.inf, 1e5, "inf"),
                                         (100.0, np.nan, "nan"), (100.0, np.inf, "inf")],
                         ids=["R_nan", "R_inf", "L_nan", "L_inf"])
def test_rescaled_rejects_non_finite_branch_values(basis5, patches5, r, l, value):
    sys_ = ps.assemble(basis5, patches5, ps.build_multi_shunt(5, 100.0, 1e5))
    quantity = "inductance" if np.isfinite(r) else "resistance"
    with pytest.raises(ParameterError, match=f"{quantity}, got {value}"):
        sys_.rescaled(r, l)
    # one bad branch among good ones
    r_b, l_b = np.full(5, 100.0), np.full(5, 1e5)
    r_b[2], l_b[2] = r, l
    with pytest.raises(ParameterError, match=f"{quantity}, got {value}"):
        sys_.with_branch_values(r_b, l_b)


def test_branch_lists_of_wrong_length_rejected(basis5, patches5):
    sys_ = ps.assemble(basis5, patches5, ps.build_multi_shunt(5, 100.0, 1e5))
    for call in (lambda: sys_.with_branch_values([1.0, 2.0], 1e5),
                 lambda: sys_.rescaled([1.0, 2.0], 1.0),
                 lambda: sys_.a_matrix(np.ones(2), 1.0)):
        with pytest.raises(ParameterError, match="scalar or a list of length 5"):
            call()
    # scalars and length-B lists pass, and agree
    per_branch = sys_.rescaled(np.full(5, 100.0), [1e5] * 5)
    assert np.array_equal(state_matrix(per_branch), state_matrix(sys_.rescaled(100.0, 1e5)))


@pytest.mark.parametrize("r, l, fault", [(1.0, np.nan, "inductance, got nan"),
                                         (1.0, np.inf, "inductance, got inf"),
                                         (-5.0, 1.0, "resistance, got -5.0"),
                                         (np.nan, 1.0, "resistance, got nan")],
                         ids=["L_nan", "L_inf", "R_negative", "R_nan"])
def test_both_a_matrix_implementations_admit_the_same_branch_values(bench_m5, r, l, fault):
    # the reduced and the complete model share one tuning interface and one branch
    # rule, and the reduced model's closed-form gain admits what its matrix admits
    rm = ps.reduce(bench_m5, 1)
    for model in (rm, bench_m5):
        with pytest.raises(ParameterError, match=fault):
            model.a_matrix(r, l)
    with pytest.raises(ParameterError, match=fault):
        rm.gain_sq(r, l, np.ones(3))
    assert np.all(np.isfinite(rm.a_matrix(0.0, 1.0)))
    assert np.all(np.isfinite(bench_m5.a_matrix(0.0, 1.0)))


def test_char_poly_cross_check(unit_beam):
    basis = ps.modal_basis(unit_beam, 2)
    arr = ps.uniform_layout(unit_beam, 2, coverage=0.8, cp=100e-9, gamma=2e-4)
    sys_ = ps.assemble(basis, arr, ps.build_multi_shunt(2, 50.0, 2e5))
    a = state_matrix(sys_)
    assert match_spectra(np.linalg.eigvals(a), char_poly_roots(a)) < 1e-6


def test_floating_line_zero_mode_count(basis5, patches5):
    sol = eigen(ps.assemble(basis5, patches5, ps.build_transmission_line(5, 100.0, 1e5)))
    assert sol.tags.count("zero") == 1
    sol_t = eigen(ps.assemble(basis5, patches5,
                              ps.build_transmission_line(5, 100.0, 1e5, "both_ends")))
    assert sol_t.tags.count("zero") == 0


@pytest.mark.parametrize(
    "build", [ps.build_single_shunt, ps.build_multi_shunt, ps.build_transmission_line],
    ids=["single_shunt", "multi_shunt", "transmission_line"],
)
def test_eigen_tags_match_pointwise_oracle(build, basis5, patches5):
    # strong coupling mixes the modes, so both sides of the energy comparison occur
    strong = ps.PatchArray(a=patches5.a, b=patches5.b, cp=patches5.cp, gamma=30 * patches5.gamma)
    sys_ = ps.assemble(basis5, strong, build(5, 120.0, 1.5e5))
    sol = eigen(sys_)
    assert sol.tags == tags_pointwise(sys_, sol.values, sol.vectors)
    assert {"mechanical", "electrical"} <= set(sol.tags)
    assert all(type(tag) is str for tag in sol.tags)


def test_gamma_zero_tags_split_exactly(basis5, unit_beam):
    arr = ps.uniform_layout(unit_beam, 5, coverage=0.9, cp=100e-9, gamma=0.0)
    sol = eigen(ps.assemble(basis5, arr, ps.build_single_shunt(5, 100.0, 1e5)))
    assert sol.tags.count("mechanical") == 10
    assert sol.tags.count("electrical") == 2


def test_global_gamma_flip_is_similarity(basis5, patches5):
    flipped = ps.PatchArray(a=patches5.a, b=patches5.b, cp=patches5.cp,
                            gamma=-patches5.gamma)
    for net in (ps.build_single_shunt(5, 50.0, 2e5),
                ps.build_transmission_line(5, 50.0, 2e5)):
        v1 = np.linalg.eigvals(state_matrix(ps.assemble(basis5, patches5, net)))
        v2 = np.linalg.eigvals(state_matrix(ps.assemble(basis5, flipped, net)))
        assert match_spectra(v1, v2) < 1e-9


def test_per_patch_gamma_flip_similarity_on_isolated_loops(basis5, patches5):
    # one patch per grounded loop: flipping a single patch flips that loop's
    # coordinates only, an exact similarity
    net = ps.build_multi_shunt(5, 50.0, 2e5)
    base = np.linalg.eigvals(state_matrix(ps.assemble(basis5, patches5, net)))
    for i in range(5):
        g = patches5.gamma.copy()
        g[i] = -g[i]
        flipped = ps.PatchArray(a=patches5.a, b=patches5.b, cp=patches5.cp, gamma=g)
        v = np.linalg.eigvals(state_matrix(ps.assemble(basis5, flipped, net)))
        assert match_spectra(base, v) < 1e-9


def test_energy_identity_on_random_states(bench_m5):
    rng = np.random.default_rng(7)
    a = state_matrix(bench_m5)
    m, p = bench_m5.basis.m, bench_m5.nm.n_nodes
    w2 = bench_m5.basis.omega**2
    floor = bench_m5.basis.omega[0] ** 2
    for _ in range(100):
        x = rng.standard_normal(bench_m5.n_states)
        h, p_diss = total_energy(bench_m5, x)
        grad = np.concatenate([
            w2 * x[:m], x[m:2 * m],
            bench_m5.cap * x[2 * m:2 * m + p],
            bench_m5.nm.l_b * x[2 * m + p:],
        ])
        assert abs(grad @ (a @ x) + p_diss) <= 1e-8 * max(h, floor)


def test_total_energy_rest_state(bench_m5):
    h, p_diss = total_energy(bench_m5, np.zeros(bench_m5.n_states))
    assert h == 0.0 and p_diss == 0.0


def test_dissipation_zero_when_lossless(bench_m5):
    lossless = bench_m5.rescaled(0.0, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        _, p_diss = total_energy(lossless, rng.standard_normal(lossless.n_states))
        assert p_diss == 0.0


def test_frf_static_limit_matches_modal_compliance(bench_m5):
    w1 = bench_m5.basis.omega[0]
    value = frf(bench_m5.rescaled(8e4, 1.6e5), np.array([1e-6 * w1])).magnitude[0]
    assert value == pytest.approx(tip_compliance(bench_m5.basis), rel=1e-3)


def test_frf_peaks_at_resonances_when_uncoupled(basis5, unit_beam):
    arr = ps.uniform_layout(unit_beam, 5, coverage=0.9, cp=100e-9, gamma=0.0)
    sys_ = ps.assemble(basis5, arr, ps.build_single_shunt(5, 100.0, 1e5))
    w1 = basis5.omega[0]
    near = frf(sys_, np.array([w1 * (1 + 1e-9)])).magnitude[0]
    away = frf(sys_, np.array([w1 * 1.05])).magnitude[0]
    assert near > 1e6 * away


def test_tuned_peak_below_open_circuit(bench_m5):
    rm = ps.reduce(bench_m5, 1)
    tr = ps.tune(rm, "min-damping-ratio")
    w1 = bench_m5.basis.omega[0]
    grid = np.linspace(0.8 * w1, 1.25 * w1, 1200)
    tuned = np.max(frf(bench_m5.rescaled(tr.r, tr.l), grid).magnitude)
    open_circuit = np.max(frf(bench_m5.rescaled(1e9, tr.l), grid).magnitude)
    assert tuned < open_circuit


def test_frf_rejects_nonpositive_grid(bench_m5):
    with pytest.raises(ParameterError):
        frf(bench_m5, np.array([0.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_frf_rejects_non_finite_grid(bench_m5, bad):
    # a non-finite sample is a bad input, not a pole
    with pytest.raises(ParameterError, match="finite positive"):
        frf(bench_m5, np.array([1.0, bad]))


def _reduced_model(omega_m, zeta_m, alpha, mu_star):
    return ReducedModel(target_mode=1, omega_m=omega_m, zeta_m=zeta_m, u_star=np.ones(1),
                        mu_star=mu_star, alpha=alpha, kappa=alpha / omega_m,
                        in_gain=1.3, out_gain=-0.7)


_decades = st.floats(-3.0, 3.0)


@st.composite
def _reduced_systems(draw):
    """(a, b, c, omega_1) of a two-DOF absorber model, damped or not."""
    omega_m = 10.0 ** draw(st.floats(-1.0, 3.0))
    zeta_m = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    kappa = draw(st.floats(0.0, 0.5))
    rm = _reduced_model(omega_m, zeta_m, kappa * omega_m, mu_star=1.0)
    lbar = 10.0 ** draw(_decades) / omega_m**2
    rbar = draw(st.sampled_from([0.0, 1.0])) * 10.0 ** draw(_decades) * lbar * omega_m
    return rm.a_matrix(rbar, lbar), rm.force_map, rm.output_map, omega_m


@st.composite
def _full_systems(draw):
    """(a, b, c, omega_1) of an assembled beam, patch array and RL network."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(2, 5))
    beam = ps.BeamSpec(length=1.0, bending_stiffness=1.0, mass_per_length=1.0,
                       zeta=draw(st.sampled_from([0.0, 0.01])))
    r = draw(st.sampled_from([0.0, 1.0])) * 10.0 ** draw(st.floats(0.0, 4.0))
    lind = 10.0 ** draw(_decades)
    net = draw(st.sampled_from([
        ps.build_single_shunt(n, r, lind),
        ps.build_multi_shunt(n, r, lind),
        ps.build_transmission_line(n, r, lind, "both_ends"),
        ps.build_transmission_line(n, r, lind),
    ]))
    basis = ps.modal_basis(beam, m)
    patches = ps.uniform_layout(beam, n, coverage=0.9, cp=100e-9,
                                gamma=draw(st.sampled_from([-1e-3, 1e-4, 1e-3])))
    sys_ = ps.assemble(basis, patches, net)
    return state_matrix(sys_), sys_.force_map, sys_.output_map, float(basis.omega[0])


@settings(max_examples=60, deadline=None)
@given(system=st.one_of(_reduced_systems(), _full_systems()),
       points=st.integers(1, 300).filter(lambda k: k % 64 != 0),
       span=st.tuples(st.floats(0.05, 1.0), st.floats(1.0, 40.0)))
def test_frf_kernel_matches_pointwise_oracle(system, points, span):
    a, b, c, omega_1 = system
    omega = np.linspace(span[0] * omega_1, span[1] * omega_1, points)
    g, pole = _frf_values(a, b, c, omega)
    g_ref, pole_ref = frf_pointwise(a, b, c, omega)
    np.testing.assert_array_equal(pole, pole_ref)
    assert np.all(g[pole] == np.inf)
    np.testing.assert_allclose(g[~pole], g_ref[~pole], rtol=1e-12, atol=0.0)


def test_frf_kernel_flags_only_the_exact_pole_of_a_chunk():
    # undamped, uncoupled absorber: j*2 is an exact eigenvalue, so that point's
    # matrix is exactly singular and its whole chunk takes the per-point path
    rm = _reduced_model(omega_m=2.0, zeta_m=0.0, alpha=0.0, mu_star=1.0)
    a, b, c = rm.a_matrix(0.1, 0.5), rm.force_map, rm.output_map
    omega = np.linspace(0.5, 3.5, 150)
    omega[70] = 2.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(2j * np.eye(4) - a, b)
    g, pole = _frf_values(a, b, c, omega)
    g_ref, pole_ref = frf_pointwise(a, b, c, omega)
    assert np.flatnonzero(pole).tolist() == [70]
    np.testing.assert_array_equal(pole, pole_ref)
    assert g[70] == np.inf and np.all(np.isfinite(g[~pole]))
    np.testing.assert_allclose(g[~pole], g_ref[~pole], rtol=1e-12, atol=0.0)
