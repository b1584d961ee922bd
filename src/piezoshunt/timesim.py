"""Free response of the coupled model by fixed-step RK4.

`integrate` runs the free response x' = A x, `energy_history` samples the
stored energy H and the dissipated power P_diss along it, and
`energy_residual` measures how far that history departs from dH/dt = -P_diss.
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
    return _spectral_radius(state_matrix(sys))


def _spectral_radius(a):
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _time_fault(name, value):
    """Why `value`, the time step or the final time `name`, is neither None ("auto") nor a
    finite positive real number (a bool is none); None when it is admitted."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return f"{name} must be a real number, got {value!r}"
    if not 0 < value < np.inf:  # chained: nan fails it too
        return f"{name} must be finite and positive, got {value}"
    return None


def integrate(sys, x0, dt, t_final):
    """Free response of x' = A x from x0 by classical RK4, in blocks of BLOCK samples.

    `dt = None` is 80% of the spectral bound, 0.8 * DT_FRACTION * 2 pi / max|lambda|,
    and `t_final = None` is 20 periods of mode 1, 20 * 2 pi / omega_1.

    Raises ParameterError when dt exceeds the spectral bound, x0 is not
    finite or the samples up to t_final cannot be stored, and NumericalError
    (with the first bad sample index) on divergence.
    """
    if fault := _time_fault("final time", t_final) or _time_fault("time step", dt):
        raise ParameterError(fault)
    a = state_matrix(sys)
    lam_max = _spectral_radius(a)
    dt = 0.8 * DT_FRACTION * 2.0 * np.pi / lam_max if dt is None else dt
    t_final = 20.0 * 2.0 * np.pi / sys.basis.omega[0] if t_final is None else t_final
    if lam_max > 0:
        dt_max = DT_FRACTION * 2.0 * np.pi / lam_max
        if dt > dt_max * (1.0 + 1e-12):
            raise ParameterError(
                f"time step {dt:.3e} exceeds the spectral bound "
                f"{DT_FRACTION} * 2 pi / max|lambda| = {dt_max:.3e}"
            )

    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (sys.n_states,):
        raise ParameterError(f"initial state must have length {sys.n_states}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ParameterError("initial state must be finite")

    n_samples = np.ceil(t_final / dt - 1e-12) + 1
    try:
        states = np.empty((int(n_samples), x.size))
    except (MemoryError, OverflowError, ValueError):  # beyond memory, numpy's limit or a float
        raise ParameterError(
            f"final time {t_final} at time step {dt} needs {n_samples:.3e} samples, "
            "too many to store") from None
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):  # divergence handled below
        _propagate_free(a, dt, states)
    return Trajectory(dt=dt, times=dt * np.arange(len(states)), states=states)


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


def energy_history(sys, traj):
    """(H, P_diss) sampled along the trajectory, each as `total_energy` gives it."""
    states = np.asarray(traj.states, dtype=float)
    if states.ndim != 2 or states.shape[1] != sys.n_states:
        raise ParameterError(
            f"trajectory states must have {sys.n_states} columns, got shape {states.shape}")
    return _energies(sys, states)


def energy_residual(h, p_diss, dt):
    """Max |dH/dt + P_diss| / max(H(0), eps) over interior samples.

    `h` and `p_diss` are the histories `energy_history` returns for a
    trajectory sampled at step `dt`.  Uses centered differences; zero for an
    exact passive integration, small for a sufficiently resolved one.
    """
    if h.size < 3:
        raise ParameterError("energy residual needs at least 3 samples")
    dh = (h[2:] - h[:-2]) / (2.0 * dt)
    resid = np.abs(dh + p_diss[1:-1])
    return float(np.max(resid) / max(h[0], 1e-300))
