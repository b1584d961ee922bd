import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import piezoshunt as ps
from piezoshunt import cli, coupled, reduction
from piezoshunt.beam import modal_force_vector
from piezoshunt.config import load_config
from piezoshunt.circuits import GROUND, Branch, Netlist, parse_netlist
from piezoshunt.coupled import eigen, frf, state_matrix, total_energy
from piezoshunt.errors import ParameterError
from piezoshunt.reduction import _a_stack, _min_damping, _objective, hinf_grid

from _oracles import (char_poly_roots, conserved_charges, frf_mpmath, frf_pointwise, loop_currents,
                      match_spectra, objective_pointwise, tags_pointwise, tip_compliance,
                      zero_mode_count)


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
    # the netlist builder and the system copies share one per-branch rule
    for call in (lambda: ps.build_multi_shunt(5, [1.0, 2.0], 1e5),
                 lambda: sys_.with_branch_values([1.0, 2.0], 1e5),
                 lambda: sys_.rescaled([1.0, 2.0], 1.0)):
        with pytest.raises(ParameterError) as got:
            call()
        assert str(got.value) == "resistance must be a scalar or a list of length 5, got shape (2,)"
    # scalars and length-B lists pass, and agree
    per_branch = sys_.rescaled(np.full(5, 100.0), [1e5] * 5)
    assert np.array_equal(state_matrix(per_branch), state_matrix(sys_.rescaled(100.0, 1e5)))


@pytest.mark.parametrize("r, l, fault", [(1.0, np.nan, "inductance, got nan"),
                                         (1.0, np.inf, "inductance, got inf"),
                                         (1.0, 0.0, "inductance, got 0.0"),
                                         (-5.0, 1.0, "resistance, got -5.0"),
                                         (np.nan, 1.0, "resistance, got nan"),
                                         (np.inf, 1.0, "resistance, got inf")],
                         ids=["L_nan", "L_inf", "L_zero", "R_negative", "R_nan", "R_inf"])
def test_both_a_matrix_implementations_admit_the_same_branch_values(bench_m5, r, l, fault):
    # one branch rule with one message: both models' public matrices, the reduced
    # model's closed-form gain, the system copies and `tune`'s entry, where a complete
    # model's seed is admitted as branch scales before the log-space seed rule
    # (bench_m5 is a single shunt: its branch pattern is 1, so rescaling keeps the values).
    # No objective kernel admits: `tune` admits every value they see where it enters.
    rm = ps.reduce(bench_m5, 1)
    grid = hinf_grid(rm.omega_m)
    calls = [lambda: rm.a_matrix(r, l), lambda: rm.gain_sq(r, l, grid),
             lambda: bench_m5.rescaled(r, l), lambda: bench_m5.with_branch_values(r, l)]
    for objective, per_branch in (("min-damping-ratio", False), ("hinf", False),
                                  ("min-damping-ratio", True)):
        calls.append(lambda objective=objective, per_branch=per_branch: ps.tune(
            bench_m5, objective, seed=(r, l), per_branch=per_branch))
    messages = set()
    for call in calls:
        with pytest.raises(ParameterError) as got:
            call()
        messages.add(str(got.value))
    (message,) = messages
    assert message.startswith("branch rescaling: each branch needs ") and message.endswith(fault)
    assert np.all(np.isfinite(rm.a_matrix(0.0, 1.0)))
    assert np.all(np.isfinite(_a_stack(bench_m5)([0.0], [1.0])))


def test_zero_tags_and_min_damping_filter_agree_on_the_floating_line(basis5, patches5):
    sys_ = ps.assemble(basis5, patches5, ps.build_transmission_line(5, 100.0, 1e5))
    sol = eigen(sys_)
    zero = np.array(sol.tags) == "zero"
    assert sys_.nm.zero_modes == zero.sum() == 1  # the graph's count: one floating component
    assert zero[0] and sol.zeta[zero] == 0.0  # the smallest |lambda|, as documented
    # the tagged mode is a tiny positive real eigenvalue: with band None, for spectra
    # without zero modes, its -Re/|lambda| = -1 would be the minimum
    assert sol.values[zero].real > 0 and sol.values[zero].imag == 0
    assert _min_damping(sol.values, None) == -1.0
    upper = sol.values.imag >= 0
    assert _min_damping(sol.values[~zero], None) == np.min(sol.zeta[~zero & upper])
    # the complete model's band excludes it
    band = reduction._band(sys_.basis.omega[0])
    inside = (sol.freq >= band[0]) & (sol.freq <= band[1])
    assert not inside[zero].any()
    assert _min_damping(sol.values, band) == np.min(sol.zeta[inside & upper])


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


@pytest.mark.parametrize("grid", [[[1.0, 2.0]], 1.0], ids=["two_dim", "scalar"])
def test_frf_rejects_a_grid_that_is_not_one_dimensional(bench_m5, grid):
    with pytest.raises(ParameterError, match="FRF grid must be one-dimensional"):
        frf(bench_m5, grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_frf_rejects_non_finite_grid(bench_m5, bad):
    # a non-finite sample is a bad input, not a pole
    with pytest.raises(ParameterError, match="finite positive"):
        frf(bench_m5, np.array([1.0, bad]))


@st.composite
def _full_systems(draw):
    """An assembled beam, patch array and RL network, damped or not."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(2, 5))
    beam = ps.BeamSpec(length=1.0, bending_stiffness=1.0, mass_per_length=1.0,
                       zeta=draw(st.sampled_from([0.0, 0.01])))
    r = draw(st.sampled_from([0.0, 1.0])) * 10.0 ** draw(st.floats(0.0, 4.0))
    lind = 10.0 ** draw(st.floats(-3.0, 3.0))
    net = draw(st.sampled_from([
        ps.build_single_shunt(n, r, lind),
        ps.build_multi_shunt(n, r, lind),
        ps.build_transmission_line(n, r, lind, "both_ends"),
        ps.build_transmission_line(n, r, lind),
    ]))
    basis = ps.modal_basis(beam, m)
    patches = ps.uniform_layout(beam, n, coverage=0.9, cp=100e-9,
                                gamma=draw(st.sampled_from([-1e-3, 1e-4, 1e-3])))
    return ps.assemble(basis, patches, net)


@st.composite
def _random_networks(draw):
    """(netlist, assembled system) on an arbitrary valid netlist: branches between random
    vertices of P nodes and gnd, each node an endpoint with at least one piezo,
    R in {0} U [1e-2, 1e6] and L in [1e-3, 1e5], parallel branches allowed."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(p, 5))
    nodes = [f"n{i}" for i in range(1, p + 1)]
    ends = [(node, draw(st.sampled_from([v for v in nodes + [GROUND] if v != node])))
            for node in nodes]
    ends += draw(st.lists(st.lists(st.sampled_from(nodes + [GROUND]), min_size=2, max_size=2,
                                   unique=True), max_size=4))
    resistance = st.one_of(st.just(0.0), st.floats(-2.0, 6.0).map(lambda e: 10.0 ** e))
    inductance = st.floats(-3.0, 5.0).map(lambda e: 10.0 ** e)
    branches = [Branch(f"b{j}", a, b, draw(resistance), draw(inductance))
                for j, (a, b) in enumerate(ends)]
    piezo = {i: nodes[i - 1] if i <= p else draw(st.sampled_from(nodes)) for i in range(1, n + 1)}
    beam = ps.BeamSpec(length=1.0, bending_stiffness=1.0, mass_per_length=1.0,
                       zeta=draw(st.sampled_from([0.0, 0.01])))
    patches = ps.uniform_layout(beam, n, coverage=0.9, cp=100e-9,
                                gamma=draw(st.sampled_from([-1e-3, 1e-4, 1e-3])))
    net = Netlist(branches=tuple(branches), piezo=piezo)
    return net, ps.assemble(ps.modal_basis(beam, draw(st.integers(1, 3))), patches, net)


def _netlist_text(net):
    return "".join([f"piezo {i} {node}\n" for i, node in net.piezo.items()]
                   + [f"branch {b.name} {b.node_a} {b.node_b} R={b.r!r} L={b.l!r}\n"
                      for b in net.branches])


@settings(max_examples=300, deadline=None)
@given(case=_random_networks())
def test_physics_invariants_hold_on_random_networks(case):
    net, sys_ = case
    assert parse_netlist(_netlist_text(net)) == net
    m, p = sys_.basis.m, sys_.nm.n_nodes
    a = state_matrix(sys_)
    # energy identity Q A + A^T Q = -2 D, Q = diag(w^2, 1, C, L_b), D = diag(0, 2 zeta w, 0, R_b)
    q = np.diag(np.concatenate((sys_.basis.omega**2, np.ones(m), sys_.cap, sys_.nm.l_b)))
    d = np.diag(np.concatenate((np.zeros(m), 2.0 * sys_.basis.zeta * sys_.basis.omega,
                                np.zeros(p), sys_.nm.r_b)))
    qa = q @ a
    np.testing.assert_allclose(qa + qa.T, -2.0 * d, rtol=0.0, atol=1e-13 * np.abs(qa).max())
    # and Q b = (0, phi_tip, 0, 0), so x^T Q (A x + b u) = eta'^T f - P_diss with f = phi_tip u
    np.testing.assert_array_equal(q @ sys_.force_map, np.concatenate(
        (np.zeros(m), modal_force_vector(sys_.basis), np.zeros(p + sys_.nm.n_branches))))
    sol = eigen(sys_)
    assert sol.values.real.max() <= 1e-9 * sol.freq.max()  # passive
    assert np.array_equal(np.sort_complex(sol.values), np.sort_complex(np.conj(sol.values)))
    # the graph's count is the null spaces' count, and it alone sets the zero tags: no gap
    # between the tagged modes and the rest is asserted, since slow real relaxation modes
    # of a stiff network can lie as close to 0 as the rounded zeros
    k = zero_mode_count(sys_.nm)
    assert sys_.nm.zero_modes == k and sys_.nm.floating == conserved_charges(sys_.nm).shape[1]
    assert sol.tags.count("zero") == k and set(sol.tags[:k]) <= {"zero"}
    assert np.all(sol.zeta[:k] == 0.0)
    mu = reduction.electrical_modes(sys_.nm, sys_.cap).mu  # its zeros: the floating count
    assert np.all(mu[:sys_.nm.floating] == 0.0) and np.all(mu[sys_.nm.floating:] > 0.0)
    if m == 1 and len(mu) == sys_.nm.floating + 1:
        # one beam mode and one nonzero electrical mode, floating or not: the reduction is
        # exact where every branch has the same R/L, for parallel branches then act as one
        r0, l0 = sys_.nm.r_b[0], sys_.nm.l_b[0]
        full = eigen(sys_.rescaled(r0, l0)).values
        reduced = np.linalg.eigvals(reduction.reduce(sys_).a_matrix(r0, l0))
        for lam in reduced:
            assert np.min(np.abs(full - lam)) <= 1e-9 * abs(lam)
    # each conserved charge (Thetat y, 0, C y, 0) and loop flux (0, 0, 0, L_b c) is a
    # left null vector of A
    charges = [np.concatenate((sys_.theta_tilde @ y, np.zeros(m), sys_.cap * y,
                               np.zeros(sys_.nm.n_branches))) for y in conserved_charges(sys_.nm).T]
    fluxes = [np.concatenate((np.zeros(2 * m + p), sys_.nm.l_b * c))
              for c in loop_currents(sys_.nm).T]
    for w in charges + fluxes:
        assert np.abs(w @ a).max() <= 1e-13 * np.abs(w).max() * np.abs(a).max()


@settings(max_examples=60, deadline=None)
@given(sys_=_full_systems(),
       points=st.integers(1, 300).filter(lambda k: k % 64 != 0),
       span=st.tuples(st.floats(0.05, 1.0), st.floats(1.0, 40.0)))
def test_frf_kernel_matches_pointwise_oracle(sys_, points, span):
    omega_1 = float(sys_.basis.omega[0])
    omega = np.linspace(span[0] * omega_1, span[1] * omega_1, points)
    table = frf(sys_, omega)
    a, b, c = state_matrix(sys_), sys_.force_map, sys_.output_map
    g_lu, pole_lu = frf_pointwise(a, b, c, omega)
    np.testing.assert_array_equal(table.pole, pole_lu)
    assert np.all(table.g[table.pole] == np.inf)
    finite = np.flatnonzero(~table.pole)
    if finite.size == 0:
        return
    # the dense LU of the state resolvent is itself off by more than 1e-12 next to
    # the poles and zeros of G, so the sample where the two disagree most is
    # checked against 34 digits of the model; not of `state_matrix`, whose rounded
    # quotients move G by up to 1e-8 where a stiff shunt nearly shorts a resonance
    gap = np.abs(table.g[finite] - g_lu[finite]) / np.abs(g_lu[finite])
    j = finite[np.argmax(gap)]
    (ref,), (slope,) = frf_mpmath(sys_, omega[j:j + 1], 34)
    # rounding the model data moves a sample in proportion to the log slope
    # d ln|G|^2 / d ln(omega), which sets the bound there; elsewhere it is 1e-12.
    # The slope is the local one: a difference quotient over +-1e-6 straddles a
    # pole closer than that and reads a slope as much as 1e4 times too small
    assert abs(table.g[j] - ref) <= 1e-12 * max(1.0, slope) * abs(ref)


def _uncoupled_undamped_pole_case(unit_beam):
    """No coupling and no damping, and a grid holding w_1: there the kernel's row and column
    of mode 1 are exactly zero, so that point's matrix is exactly singular."""
    basis = ps.modal_basis(unit_beam, 3)
    patches = ps.uniform_layout(unit_beam, 2, coverage=0.9, cp=100e-9, gamma=0.0)
    sys_ = ps.assemble(basis, patches, ps.build_multi_shunt(2, 10.0, 1e5))
    w1 = float(basis.omega[0])
    omega = np.linspace(0.5 * w1, 3.5 * w1, 150)
    omega[70] = w1
    return sys_, omega


def test_frf_kernel_flags_only_the_exact_pole_of_a_chunk(unit_beam):
    # the singular point's whole chunk takes the per-point path
    sys_, omega = _uncoupled_undamped_pole_case(unit_beam)
    basis, w1 = sys_.basis, omega[70]
    table = frf(sys_, omega)
    assert np.flatnonzero(table.pole).tolist() == [70]
    assert table.g[70] == np.inf and np.all(np.isfinite(table.g[~table.pole]))
    # uncoupled and undamped, G is the modal sum of phi_k(L)^2 / (w_k^2 - w^2)
    phi, w = modal_force_vector(basis), omega[~table.pole, None]
    modal = np.sum(phi**2 / ((basis.omega - w) * (basis.omega + w)), axis=1)
    np.testing.assert_allclose(table.g[~table.pole], modal, rtol=1e-12, atol=0.0)
    # the per-point path gives the chunk's other samples the bits of the stacked solve
    near = omega.copy()
    near[70] = np.nextafter(w1, 0.0)
    stacked = frf(sys_, near)
    assert not stacked.pole.any()
    np.testing.assert_array_equal(stacked.g[~table.pole], table.g[~table.pole])


def test_hinf_gradient_row_at_an_exact_pole_is_minus_inf(unit_beam):
    # the grid's peak is the pole, where the charge-form solve is nan: the row is
    # [-inf, 0, ...], with no floating-point warning on the way
    sys_, grid = _uncoupled_undamped_pole_case(unit_beam)
    (row,) = reduction._gradients(sys_, "hinf", None, grid)([[10.0, 10.0]], [[1e5, 1e5]])
    assert row[0] == -np.inf and row[1:].tolist() == [0.0] * 4


#: G of the default scenario at the five samples of the default `frf` grid where
#: a dense LU solve of its 12-state resolvent errs most (up to 3e-12 relative):
#: `frf_mpmath(sys, omega[index], 40)`, rounded to complex.
DEFAULT_FRF_REFERENCE = {
    1518: -1.2550713958442144e-06 - 2.2297070495962663e-13j,
    877: -5.340928354937968e-06 - 6.09882928479706e-12j,
    1522: 1.8595134983147056e-05 - 2.517460320512207e-13j,
    1517: -6.092651084569586e-06 - 2.1622032102849358e-13j,
    1515: -1.562535981012655e-05 - 2.0321908149031676e-13j,
}


#: The same at the two samples next to the resonance of mode 5 (199.86 rad/s), where
#: w_5^2 - w^2 formed as a difference of squares would cost the kernel 1.9e-13.
DEFAULT_FRF_RESONANCE = {
    1665: 0.14233599969241784 - 4.602212349904768e-08j,
    1666: -0.20236044049278917 - 9.235917778671444e-08j,
}


def _default_frf_case():
    """The default scenario's system and the grid of `piezoshunt frf`."""
    sys_ = cli._build_system(load_config(""))
    omega = np.linspace(0.1 * sys_.basis.omega[0], 1.2 * sys_.basis.omega[-1], 2000)
    return sys_, omega


@pytest.mark.parametrize("pinned, rtol", [(DEFAULT_FRF_REFERENCE, 1e-13),
                                           (DEFAULT_FRF_RESONANCE, 1e-14)],
                         ids=["lu_worst", "resonance"])
def test_frf_kernel_matches_pinned_40_digit_values_on_the_default_grid(pinned, rtol):
    sys_, omega = _default_frf_case()
    ref = np.array(list(pinned.values()))
    g = frf(sys_, omega).g[list(pinned)]
    assert np.all(np.abs(g - ref) <= rtol * np.abs(ref))


def test_pinned_frf_values_are_the_40_digit_model():
    sys_, omega = _default_frf_case()
    pinned = DEFAULT_FRF_REFERENCE | DEFAULT_FRF_RESONANCE
    got, _ = frf_mpmath(sys_, omega[list(pinned)], 40)
    np.testing.assert_array_equal(got, list(pinned.values()))


UNEQUAL_NETLIST = """
piezo 1 n1
piezo 2 n2
piezo 3 n3
branch b1 n1 gnd R=100 L=1
branch b2 n2 n1 R=50 L=2.5
branch b3 n3 gnd R=80 L=0.7
"""


def _branch_systems(unit_beam):
    basis = ps.modal_basis(unit_beam, 3)
    patches = ps.uniform_layout(unit_beam, 3, coverage=0.9, cp=100e-9, gamma=1e-4)
    nets = {
        "single_shunt": ps.build_single_shunt(3, 120.0, 1.5e5),
        "multi_shunt": ps.build_multi_shunt(3, 120.0, 1.5e5),
        "transmission_line": ps.build_transmission_line(3, 120.0, 1.5e5),
        "transmission_line_both_ends": ps.build_transmission_line(3, 120.0, 1.5e5, "both_ends"),
        "parsed_unequal": ps.parse_netlist(UNEQUAL_NETLIST),
    }
    return {name: ps.assemble(basis, patches, net) for name, net in nets.items()}


def _assert_bitwise_equal(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))  # -0.0 too


@pytest.mark.parametrize("name", ["multi_shunt", "parsed_unequal"])
def test_hinf_objective_row_is_the_frf_peak_bit_for_bit(unit_beam, name):
    sys_ = _branch_systems(unit_beam)[name]
    grid = hinf_grid(float(sys_.basis.omega[0]))
    b = sys_.nm.n_branches
    per_branch = (np.array([np.full(b, 80.0), np.linspace(50.0, 150.0, b)]),
                  np.array([np.full(b, 1.5e5), np.linspace(1e5, 2e5, b)]))
    scalar = ([80.0, 120.0], [1.5e5, 1e5])  # rows as the reduced tuning's validation passes them
    for r, l in (per_branch, scalar):
        peaks = _objective(sys_, "hinf", grid=grid)(r, l)
        for j in range(2):
            table = frf(sys_.with_branch_values(np.multiply(r[j], sys_.nm.s_shape),
                                                np.multiply(l[j], sys_.nm.s_shape)), grid)
            assert peaks[j] == -np.max(np.abs(table.g))


@pytest.mark.parametrize("objective, rtol", [("min-damping-ratio", 1e-6), ("hinf", 1e-8)])
@pytest.mark.parametrize("name", ["multi_shunt", "parsed_unequal"])
def test_per_branch_gradients_match_central_differences(unit_beam, name, objective, rtol):
    # d value / d log10 scale against central differences of the public objective,
    # evaluated from a fresh build at each point (h = 1e-6 in log10 units)
    sys_ = _branch_systems(unit_beam)[name]
    w1 = float(sys_.basis.omega[0])
    band, grid = reduction._band(w1), hinf_grid(w1)
    b = sys_.nm.n_branches
    rng = np.random.default_rng(7)
    r0, l0 = ps.closed_form_seed(ps.reduce(sys_))
    z = np.log10(np.concatenate((r0 * 10.0 ** rng.uniform(-0.3, 0.3, b),
                                 l0 * 10.0 ** rng.uniform(-0.05, 0.05, b))))

    def value(z):
        return objective_pointwise(objective, sys_, 10.0 ** z[:b], 10.0 ** z[b:], band, grid)

    (row,) = reduction._gradients(sys_, objective, band, grid)(
        [(10.0 ** z[:b]).tolist()], [(10.0 ** z[b:]).tolist()])
    h, steps = 1e-6, np.eye(2 * b) * 1e-6
    central = np.array([(value(z + e) - value(z - e)) / (2.0 * h) for e in steps])
    assert row[0] == pytest.approx(value(z), rel=1e-12)
    assert np.max(np.abs(row[1:] - central)) <= rtol * np.max(np.abs(central))
    assert np.all(row[1:] != 0.0)


def test_rewritten_branch_rows_equal_a_fresh_build(unit_beam):
    rng = np.random.default_rng(11)
    systems = _branch_systems(unit_beam)
    assert not np.all(systems["parsed_unequal"].nm.s_shape == 1.0)
    for name, sys_ in systems.items():
        a = state_matrix(sys_)
        b = sys_.nm.n_branches
        scales = [(100.0, 2e5), (0.0, 1.0), (np.float64(3.5e3), 7e4),
                  (10.0 ** rng.uniform(1, 4, b), 10.0 ** rng.uniform(3, 6, b)),
                  (10.0 ** rng.uniform(1, 4, b), 5e4), (100.0, 2e5)]
        for r, l in scales:  # one buffer throughout: no earlier value survives
            nm = sys_.rescaled(r, l).nm
            coupled._write_branch_rows(a, sys_.nm.b_inc, nm.r_b, nm.l_b)
            got = a
            _assert_bitwise_equal(got, state_matrix(sys_.rescaled(r, l)))
            # both blocks as their defining formulas write them, zeros as -0.0
            p = nm.b_inc.shape[0]
            _assert_bitwise_equal(got[-b:, -b - p:-b], nm.b_inc.T / nm.l_b[:, None])
            _assert_bitwise_equal(got[-b:, -b:], -np.diag(nm.r_b / nm.l_b))


@pytest.mark.parametrize("r, l", [(np.nan, 1e5), (-1.0, 1e5), (np.inf, 1e5),
                                  (100.0, np.nan), (100.0, -1.0), (100.0, np.inf)])
def test_rewritten_branch_rows_admit_what_rescaled_admits(unit_beam, monkeypatch, r, l):
    # the tuner's path admits at `tune`'s entry, before any kernel is built: the seed's
    # branch values are the products with s_shape that `rescaled` forms
    sys_ = _branch_systems(unit_beam)["parsed_unequal"]
    with pytest.raises(ParameterError) as want:
        sys_.rescaled(r, l)
    assert str(want.value).startswith("branch rescaling: each branch ")
    monkeypatch.setattr(reduction, "_objective", None)  # a kernel build fails with TypeError
    for per_branch in (False, True):
        with pytest.raises(ParameterError) as got:
            ps.tune(sys_, seed=(r, l), per_branch=per_branch)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kind", ["R", "L"])
def test_tune_admits_the_box_corners_times_the_branch_pattern(unit_beam, monkeypatch, kind):
    # the box's upper end is a float with room for the log round trip, but times the
    # largest s_shape entry it leaves the floats: refused at entry, not at the first
    # round that reaches it
    sys_ = _branch_systems(unit_beam)["parsed_unequal"]
    assert sys_.nm.s_shape.max() > 2.0
    huge = 1e308
    bounds = ((50.0, huge), (1e4, 1e6)) if kind == "R" else ((50.0, 500.0), (1e4, huge))
    with pytest.raises(ParameterError) as want, np.errstate(over="ignore"):
        sys_.rescaled(*[end[1] * reduction._ROUND_TRIP for end in bounds])
    monkeypatch.setattr(reduction, "_objective", None)  # a kernel build fails with TypeError
    for per_branch in (False, True):
        with pytest.raises(ParameterError) as got:
            ps.tune(sys_, seed=(100.0, 1e5), bounds=bounds, per_branch=per_branch)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith("got inf")


@pytest.mark.parametrize("case", ["scalar_rows", "per_branch_rows"])
def test_reused_stack_equals_fresh_builds(unit_beam, monkeypatch, case):
    # one row, rows A (k = 3), then B (k = 9), then A again: each matrix is what a
    # fresh build gives, and the template is never written
    sys_ = _branch_systems(unit_beam)["parsed_unequal"]
    templates = []
    monkeypatch.setattr(reduction, "state_matrix",
                        lambda s: templates.append(state_matrix(s)) or templates[-1])
    a_matrix = _a_stack(sys_)
    (template,) = templates
    pristine = template.copy()
    rng = np.random.default_rng(17)

    def rows(k):
        shape = (k, sys_.nm.n_branches) if case == "per_branch_rows" else (k,)
        r, l = 10.0 ** rng.uniform(1, 4, shape), 10.0 ** rng.uniform(3, 6, shape)
        return (r, l) if case == "per_branch_rows" else (r.tolist(), l.tolist())

    rows_a, rows_b = rows(3), rows(9)
    stacks = []
    for r, l in (rows(1), rows_a, rows_b, rows_a):
        stacks.append(a_matrix(r, l))
        assert len(stacks[-1]) == len(r)
        for a, r_j, l_j in zip(stacks[-1], r, l):
            _assert_bitwise_equal(a, state_matrix(sys_.rescaled(r_j, l_j)))
        _assert_bitwise_equal(template, pristine)  # never written
        assert not np.shares_memory(stacks[-1], template)


def test_stacked_branch_rows_equal_one_matrix_at_a_time(unit_beam):
    rng = np.random.default_rng(13)
    for name, sys_ in _branch_systems(unit_beam).items():
        base = state_matrix(sys_)
        b = sys_.nm.n_branches
        r_b = 10.0 ** rng.uniform(1, 4, (5, b))
        l_b = 10.0 ** rng.uniform(3, 6, (5, b))
        r_b[1] = 0.0  # short circuits: the current block is all signed zeros
        stack = np.repeat(base[None], 5, axis=0)
        coupled._write_branch_rows(stack, sys_.nm.b_inc, r_b, l_b)
        for a, r, l in zip(stack, r_b, l_b):
            one = base.copy()
            coupled._write_branch_rows(one, sys_.nm.b_inc, r, l)
            _assert_bitwise_equal(a, one)
            _assert_bitwise_equal(a, state_matrix(sys_.with_branch_values(r, l)))


def test_branch_pattern_is_computed_once_per_network(unit_beam):
    sys_ = _branch_systems(unit_beam)["parsed_unequal"]
    nm = sys_.nm
    assert nm.s_shape is nm.s_shape
    np.testing.assert_array_equal(nm.s_shape, nm.l_b / nm.l_b[0])
    scaled = sys_.rescaled(3.0, 7.0).nm  # recomputed from the new inductances
    _assert_bitwise_equal(scaled.s_shape, scaled.l_b / scaled.l_b[0])
    assert "s_shape" not in repr(nm)
