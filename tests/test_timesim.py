import re

import numpy as np
import pytest
import scipy.linalg

import piezoshunt as ps
from piezoshunt import cli
from piezoshunt.config import load_config
from piezoshunt.coupled import eigen, state_matrix
from piezoshunt.errors import ConfigError, NumericalError, ParameterError
from piezoshunt.timesim import energy_history, energy_residual, integrate, max_eigen_magnitude

from _oracles import decay_rate, energy_pointwise, rk4_stepwise

TOPOLOGIES = [ps.build_single_shunt, ps.build_multi_shunt, ps.build_transmission_line]


@pytest.fixture(scope="module")
def lossless_m1(unit_beam):
    """Single-mode single shunt, R = 0, electrical branch matched to mode 1."""
    from conftest import make_benchmark
    sys_ = make_benchmark(unit_beam, 1, 1)
    l_matched = (1.0 / sys_.patches.cp[0]) / sys_.basis.omega[0] ** 2
    return sys_.rescaled(0.0, l_matched)


def _period(sys_):
    return 2.0 * np.pi / sys_.basis.omega[0]


def test_zero_state_stays_zero(lossless_m1):
    traj = integrate(lossless_m1, np.zeros(4), _period(lossless_m1) / 200, 2.0)
    assert np.all(traj.states == 0.0)


def test_time_step_precondition_cites_bound(lossless_m1):
    with pytest.raises(ParameterError, match="spectral bound"):
        integrate(lossless_m1, np.zeros(4), _period(lossless_m1), 2.0)


@pytest.mark.parametrize("dt, t_final, name", [
    (np.nan, 2.0, "time step"), (np.inf, 2.0, "time step"), (0.0, 2.0, "time step"),
    (0.01, np.nan, "final time"), (0.01, np.inf, "final time"), (0.01, -1.0, "final time"),
])
def test_time_inputs_must_be_finite_and_positive(lossless_m1, dt, t_final, name):
    with pytest.raises(ParameterError, match=f"{name} must be finite and positive"):
        integrate(lossless_m1, np.zeros(4), dt, t_final)


@pytest.mark.parametrize("dt, t_final, name", [
    ("0.01", 2.0, "time step"), (True, 2.0, "time step"), (0.01, [2.0], "final time"),
])
def test_time_inputs_must_be_real_numbers(lossless_m1, dt, t_final, name):
    with pytest.raises(ParameterError, match=f"^{name} must be a real number, got "):
        integrate(lossless_m1, np.zeros(4), dt, t_final)


@pytest.mark.parametrize("key, dt, t_final", [
    ("dt", 0.0, 2.0), ("dt", -0.5, 2.0), ("T", 0.01, 0.0), ("T", 0.01, -1.0),
])
def test_integrate_and_config_share_the_time_rule(lossless_m1, key, dt, t_final):
    with pytest.raises(ParameterError) as direct:
        integrate(lossless_m1, np.zeros(4), dt, t_final)
    value = dt if key == "dt" else t_final
    with pytest.raises(ConfigError) as loaded:
        load_config(f"[simulate]\n{key} = {value}\n")
    assert str(loaded.value) == f"[simulate] {direct.value}"
    auto = load_config(f"[simulate]\n{key} = auto\n")
    assert (auto.dt, auto.t_final) == (None, None)
    assert integrate(lossless_m1, np.zeros(4), auto.dt, auto.t_final).n_samples > 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_initial_state_must_be_finite(lossless_m1, bad):
    # the caller's input is refused, not reported as a divergence at sample 1
    dt = _period(lossless_m1) / 200
    with pytest.raises(ParameterError, match="^initial state must be finite$"):
        integrate(lossless_m1, np.array([0.0, bad, 0.0, 0.0]), dt, 50 * dt)


@pytest.mark.parametrize("dt, t_final", [
    (0.01, 0.01 * 2**56),  # 2 EiB, past any address space: MemoryError, no page touched
    (0.01, 1e300),         # past numpy's size limit: ValueError
    (1e-10, 1e300),        # a sample count past the float range: OverflowError
])
def test_unstorable_trajectory_is_a_parameter_error(lossless_m1, dt, t_final):
    named = re.escape(f"final time {t_final} at time step {dt} needs ")
    with pytest.raises(ParameterError, match=f"^{named}\\S+ samples, too many to store$"):
        integrate(lossless_m1, np.zeros(4), dt, t_final)


def test_forcing_and_trajectory_arguments_are_refused(lossless_m1):
    dt = _period(lossless_m1) / 200
    with pytest.raises(TypeError):
        integrate(lossless_m1, np.zeros(4), None, dt, 50 * dt)
    traj = integrate(lossless_m1, np.zeros(4), dt, 50 * dt)
    with pytest.raises(TypeError):
        energy_residual(lossless_m1, traj)


def test_free_divergence_past_first_block_reports_its_sample(lossless_m1):
    # the state is finite until its oscillation carries a component past the
    # float range, after the first 64-sample block
    period = _period(lossless_m1)
    dt = period / 200
    x0 = np.array([1e305, 0.0, 0.0, 0.0])
    with pytest.raises(NumericalError) as info:
        integrate(lossless_m1, x0, dt, 40 * period)
    k = int(re.search(r"sample (\d+) ", str(info.value)).group(1))
    assert k > 64
    assert f"state diverged at sample {k} (t = {k * dt:.6e})" == str(info.value)
    traj = integrate(lossless_m1, x0, dt, (k - 1) * dt)
    assert traj.n_samples == k
    assert np.all(np.isfinite(traj.states))


def _random_run(build, basis5, patches5, steps):
    sys_ = ps.assemble(basis5, patches5, build(5, 30.0, 0.5)).rescaled(2e4, 3e5)
    x0 = np.random.default_rng(7).standard_normal(sys_.n_states)
    dt = 0.5 * 0.05 * 2 * np.pi / max_eigen_magnitude(sys_)
    return sys_, x0, dt, steps * dt


@pytest.mark.parametrize("steps", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("build", TOPOLOGIES)
def test_free_run_matches_stepwise_rk4(build, basis5, patches5, steps):
    sys_, x0, dt, t_final = _random_run(build, basis5, patches5, steps)
    traj = integrate(sys_, x0, dt, t_final)
    times, states = rk4_stepwise(sys_, x0, dt, t_final)
    np.testing.assert_array_equal(traj.times, times)
    assert traj.states.shape == (steps + 1, sys_.n_states)
    assert np.max(np.abs(traj.states - states)) <= 1e-13 * np.max(np.abs(states))


def test_auto_time_step_and_final_time_are_the_explicit_rule_bit_for_bit():
    sys_ = cli._build_system(load_config(""))
    x0 = cli._initial_state(sys_, "tip_displacement")
    dt = 0.8 * 0.05 * 2.0 * np.pi / max_eigen_magnitude(sys_)
    t_final = 20.0 * 2.0 * np.pi / sys_.basis.omega[0]
    auto, explicit = integrate(sys_, x0, None, None), integrate(sys_, x0, dt, t_final)
    assert auto.dt == dt
    np.testing.assert_array_equal(auto.times, explicit.times)
    np.testing.assert_array_equal(auto.states, explicit.states)


@pytest.mark.parametrize("initial", ["tip_displacement", "tip_impulse"])
def test_default_simulate_run_matches_stepwise_rk4(initial):
    # the CLI's `simulate` run with dt and T on auto (28 426 steps)
    sys_ = cli._build_system(load_config(""))
    x0 = cli._initial_state(sys_, initial)
    traj = integrate(sys_, x0, None, None)
    _, states = rk4_stepwise(sys_, x0, traj.dt, 20 * _period(sys_))
    assert traj.states.shape == states.shape
    scale = np.max(np.abs(states), axis=0)
    assert np.all(np.abs(traj.states - states) <= 1e-10 * scale)


def test_lossless_energy_drift(lossless_m1):
    period = _period(lossless_m1)
    x0 = np.zeros(4)
    x0[0] = 1.0
    traj = integrate(lossless_m1, x0, period / 200, 100 * period)
    h, _ = energy_history(lossless_m1, traj)
    assert abs(h[-1] - h[0]) / h[0] < 1e-6


def test_energy_drift_halving_factor_is_fifth_order(lossless_m1):
    # secular energy error of classical RK4 on a lossless linear system comes
    # from |R(i theta)|^2 = 1 - theta^6/72: fifth order globally, so halving
    # dt divides the drift by ~32 (not the generic fourth-order 16)
    period = _period(lossless_m1)
    x0 = np.zeros(4)
    x0[0] = 1.0
    drifts = []
    for div in (200, 400):
        traj = integrate(lossless_m1, x0, period / div, 100 * period)
        h, _ = energy_history(lossless_m1, traj)
        drifts.append(abs(h[-1] - h[0]) / h[0])
    assert drifts[0] / drifts[1] == pytest.approx(32.0, rel=0.1)


def test_trajectory_error_fourth_order_under_halving(lossless_m1):
    period = _period(lossless_m1)
    x0 = np.zeros(4)
    x0[0] = 1.0
    a = state_matrix(lossless_m1)
    errors = []
    for div in (400, 800):
        traj = integrate(lossless_m1, x0, period / div, 10 * period)
        exact = scipy.linalg.expm(a * traj.times[-1]) @ x0
        errors.append(np.linalg.norm(traj.states[-1] - exact) / np.linalg.norm(exact))
    assert 12.0 <= errors[0] / errors[1] <= 20.0


def test_energy_residual_zero_trajectory(lossless_m1):
    traj = integrate(lossless_m1, np.zeros(4), _period(lossless_m1) / 200, 1.0)
    assert energy_residual(*energy_history(lossless_m1, traj), traj.dt) == 0.0


def test_energy_residual_lossless(lossless_m1):
    x0 = np.zeros(4)
    x0[0] = 1.0
    traj = integrate(lossless_m1, x0, _period(lossless_m1) / 200, 20 * _period(lossless_m1))
    assert energy_residual(*energy_history(lossless_m1, traj), traj.dt) < 1e-6


def test_energy_residual_needs_three_samples(lossless_m1):
    dt = _period(lossless_m1) / 200
    traj = integrate(lossless_m1, np.zeros(4), dt, dt)
    with pytest.raises(ParameterError):
        energy_residual(*energy_history(lossless_m1, traj), traj.dt)


def test_energy_never_increases_with_damping(bench_m5):
    sys_ = bench_m5.rescaled(5e4, 1.6e5)
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal(sys_.n_states)
    dt = 0.5 * 0.05 * 2 * np.pi / max_eigen_magnitude(sys_)
    traj = integrate(sys_, x0, dt, 5 * _period(sys_))
    h, _ = energy_history(sys_, traj)
    tol = 1e-9 * h[0]
    assert np.all(np.diff(h) <= tol)


@pytest.mark.parametrize("build", TOPOLOGIES)
def test_energy_history_equals_pointwise_sums(build, basis5, patches5):
    sys_ = ps.assemble(basis5, patches5, build(5, 30.0, 0.5)).rescaled(2e4, 3e5)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(sys_.n_states)
    dt = 0.5 * 0.05 * 2 * np.pi / max_eigen_magnitude(sys_)
    traj = integrate(sys_, x0, dt, 300 * dt)
    h, p_diss = energy_history(sys_, traj)
    h_ref, p_ref = energy_pointwise(sys_, traj.states)
    np.testing.assert_array_equal(h, h_ref)
    np.testing.assert_array_equal(p_diss, p_ref)
    with pytest.raises(ParameterError):
        energy_history(sys_, ps.Trajectory(dt, traj.times, traj.states[:, 1:]))


def test_decay_rate_matches_dominant_eigenvalue(bench_m5):
    rm = ps.reduce(bench_m5, 1)
    tr = ps.tune(rm, "min-damping-ratio")
    sys_ = bench_m5.rescaled(tr.r, tr.l)
    sol = eigen(sys_)
    # least-damped in-band pair dominates the late-time response
    w1 = sys_.basis.omega[0]
    candidates = [
        (v, j) for j, v in enumerate(sol.values)
        if v.imag > 0 and 0.5 * w1 <= abs(v) <= 2.0 * w1
    ]
    lam, j = max(candidates, key=lambda item: item[0].real)
    x0 = np.real(sol.vectors[:, j])
    x0 /= np.linalg.norm(x0)
    dt = 0.5 * 0.05 * 2 * np.pi / max_eigen_magnitude(sys_)
    traj = integrate(sys_, x0, dt, 20 * 2 * np.pi / w1)
    tip = traj.states @ sys_.output_map
    fitted = decay_rate(traj.times, tip)
    assert fitted == pytest.approx(-lam.real, rel=0.05)


def test_decay_rate_needs_enough_peaks():
    with pytest.raises(ParameterError):
        decay_rate(np.linspace(0, 1, 50), np.exp(-np.linspace(0, 1, 50)))

