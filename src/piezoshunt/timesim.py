"""Fixed-step time integration of the coupled model.

Used to validate tuning results in the time domain: free-decay rates against
eigenvalues, and the energy balance dH/dt = -P_diss along unforced
trajectories.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .coupled import _energies, state_matrix
from .errors import NumericalError, ParameterError

#: The time step must resolve the fastest mode: dt <= DT_FRACTION * 2 pi / max|lambda|.
DT_FRACTION = 0.05

#: Free runs advance this many samples per stacked product of step-matrix powers.
BLOCK = 64


@dataclass(frozen=True)
class Trajectory:
    dt: float
    times: np.ndarray
    states: np.ndarray  # (n_samples, n_states)

    @property
    def n_samples(self):
        return self.times.size


def max_eigen_magnitude(sys):
    """Spectral radius of the state matrix (sets the admissible time step)."""
    return float(np.max(np.abs(np.linalg.eigvals(state_matrix(sys)))))


def _time_fault(name, value):
    """Why `value`, the time step or the final time `name`, is no finite positive real number
    (a bool is none), or None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return f"{name} must be a real number, got {value!r}"
    if not 0 < value < np.inf:  # chained: nan fails it too
        return f"{name} must be finite and positive, got {value}"
    return None


def integrate(sys, x0, forcing, dt, t_final):
    """Classical 4-stage Runge-Kutta over x' = A x + b u(t).

    `forcing` is a callable t -> force in newtons, or None for free response,
    which is advanced in blocks of BLOCK samples (see `_propagate_free`).
    Raises ParameterError when dt exceeds the spectral bound or x0 is not
    finite, and NumericalError (with the first bad sample index) on divergence.
    """
    if fault := _time_fault("final time", t_final) or _time_fault("time step", dt):
        raise ParameterError(fault)
    lam_max = max_eigen_magnitude(sys)
    if lam_max > 0:
        dt_max = DT_FRACTION * 2.0 * np.pi / lam_max
        if dt > dt_max * (1.0 + 1e-12):
            raise ParameterError(
                f"time step {dt:.3e} exceeds the spectral bound "
                f"{DT_FRACTION} * 2 pi / max|lambda| = {dt_max:.3e}"
            )

    a = state_matrix(sys)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (sys.n_states,):
        raise ParameterError(f"initial state must have length {sys.n_states}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ParameterError("initial state must be finite")

    n_steps = int(np.ceil(t_final / dt - 1e-12))
    states = np.empty((n_steps + 1, x.size))
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):  # divergence handled below
        if forcing is None:
            _propagate_free(a, dt, states)
        else:
            _step_forced(a, sys.force_map, forcing, dt, states)
    return Trajectory(dt=dt, times=dt * np.arange(n_steps + 1), states=states)


def _diverged(m, dt):
    return NumericalError(f"state diverged at sample {m} (t = {m * dt:.6e})")


def _propagate_free(a, dt, states):
    """Fill states[1:] from states[0] with x_(m+1) = P x_m, P = R(dt A) the RK4 step matrix.

    One classical RK4 step of x' = A x is exactly the degree-4 Taylor
    polynomial R(hA) of exp(hA).  Powers P^1..P^BLOCK are stacked once so a
    block of samples is one matrix-vector product; the samples agree with the
    per-step recurrence to rounding, not bit for bit.
    """
    n = a.shape[0]
    eye = np.eye(n)
    ha = dt * a
    step = eye + ha / 4.0  # Horner form of I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24
    for d in (3.0, 2.0, 1.0):
        step = eye + (ha @ step) / d
    powers = np.empty((BLOCK, n, n))
    powers[0] = step
    for j in range(1, BLOCK):
        powers[j] = step @ powers[j - 1]
    powers = powers.reshape(BLOCK * n, n)  # row block j-1 holds P^j

    x = states[0]
    for start in range(1, states.shape[0], BLOCK):
        k = min(BLOCK, states.shape[0] - start)
        block = (powers[:k * n] @ x).reshape(k, n)
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise _diverged(start + int(np.argmin(finite)), dt)
        states[start:start + k] = block
        x = block[-1]


def _step_forced(a, b, forcing, dt, states):
    """Fill states[1:] from states[0] by classical RK4 steps of x' = A x + b u(t)."""
    def rhs(t, y):
        return a @ y + b * forcing(t)

    x = states[0]
    t = 0.0
    for m in range(1, states.shape[0]):
        k1 = rhs(t, x)
        k2 = rhs(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = rhs(t + dt, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise _diverged(m, dt)
        states[m] = x
        t = m * dt


def energy_history(sys, traj):
    """(H, P_diss) sampled along the trajectory, each as `total_energy` gives it."""
    states = np.asarray(traj.states, dtype=float)
    if states.ndim != 2 or states.shape[1] != sys.n_states:
        raise ParameterError(
            f"trajectory states must have {sys.n_states} columns, got shape {states.shape}")
    return _energies(sys, states)


def energy_residual(sys, traj):
    """Max |dH/dt + P_diss| / max(H(0), eps) over interior samples.

    Uses centered differences; zero for an exact passive integration of an
    unforced trajectory, small for a sufficiently resolved one.
    """
    return _energy_residual(*energy_history(sys, traj), traj.dt)


def _energy_residual(h, p, dt):
    """`energy_residual` from sampled (H, P_diss) histories at step dt."""
    if h.size < 3:
        raise ParameterError("energy residual needs at least 3 samples")
    dh = (h[2:] - h[:-2]) / (2.0 * dt)
    resid = np.abs(dh + p[1:-1])
    return float(np.max(resid) / max(h[0], 1e-300))

