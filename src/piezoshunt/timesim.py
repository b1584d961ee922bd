"""Fixed-step time integration of the coupled model.

Used to validate tuning results in the time domain: free-decay rates against
eigenvalues, and the energy balance dH/dt = -P_diss along unforced
trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupled import _energies, state_matrix
from .errors import NumericalError, ParameterError

#: The time step must resolve the fastest mode: dt <= DT_FRACTION * 2 pi / max|lambda|.
DT_FRACTION = 0.05


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


def integrate(sys, x0, forcing, dt, t_final):
    """Classical 4-stage Runge-Kutta over x' = A x + b u(t).

    `forcing` is a callable t -> force in newtons, or None for free response.
    Raises ParameterError when dt exceeds the spectral bound and
    NumericalError (with the first bad sample index) on divergence.
    """
    if not 0 < t_final < np.inf:  # chained: nan fails it too
        raise ParameterError(f"final time must be finite and positive, got {t_final}")
    if not 0 < dt < np.inf:
        raise ParameterError(f"time step must be finite and positive, got {dt}")
    lam_max = max_eigen_magnitude(sys)
    if lam_max > 0:
        dt_max = DT_FRACTION * 2.0 * np.pi / lam_max
        if dt > dt_max * (1.0 + 1e-12):
            raise ParameterError(
                f"time step {dt:.3e} exceeds the spectral bound "
                f"{DT_FRACTION} * 2 pi / max|lambda| = {dt_max:.3e}"
            )

    a = state_matrix(sys)
    b = sys.force_map
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (sys.n_states,):
        raise ParameterError(f"initial state must have length {sys.n_states}, got {x.shape}")

    n_steps = int(np.ceil(t_final / dt - 1e-12))
    states = np.empty((n_steps + 1, x.size))
    states[0] = x

    if forcing is None:
        def rhs(t, y):
            return a @ y
    else:
        def rhs(t, y):
            return a @ y + b * forcing(t)

    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence handled below
        for m in range(1, n_steps + 1):
            k1 = rhs(t, x)
            k2 = rhs(t + 0.5 * dt, x + 0.5 * dt * k1)
            k3 = rhs(t + 0.5 * dt, x + 0.5 * dt * k2)
            k4 = rhs(t + dt, x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise NumericalError(f"state diverged at sample {m} (t = {m * dt:.6e})")
            states[m] = x
            t = m * dt

    return Trajectory(dt=dt, times=dt * np.arange(n_steps + 1), states=states)


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


def decay_rate(times, signal, min_peaks=5):
    """Decay rate of |signal| from a least-squares fit of its log peak envelope.

    Picks strict local maxima of |signal| and fits log(peak) vs time; the
    returned rate is positive for a decaying envelope.
    """
    mag = np.abs(np.asarray(signal, dtype=float))
    interior = (mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:])
    idx = np.nonzero(interior)[0] + 1
    idx = idx[mag[idx] > 0]
    if idx.size < min_peaks:
        raise ParameterError(f"envelope fit needs at least {min_peaks} peaks, found {idx.size}")
    slope, _ = np.polyfit(np.asarray(times)[idx], np.log(mag[idx]), 1)
    return float(-slope)
