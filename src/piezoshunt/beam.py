"""Modal basis of a clamped-free Euler-Bernoulli beam.

The cantilever's flexural modes serve as the mechanical reduction space for
the coupled electromechanical model.  Mode shapes are mass-normalized so that
each modal mass equals 1, which makes the modal equations of motion

    eta_k'' + 2*zeta_k*omega_k*eta_k' + omega_k**2 * eta_k = f_k(t)

with unit mass on the left.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, integer_fault

#: Largest supported mode count.  The closed-form cosh/sinh mode shape loses
#: accuracy rapidly for higher wavenumbers; low-frequency damping only needs
#: the first few modes.
MAX_MODES = 12

_NORM_PANELS = 512  # minimum panel count for the normalization quadrature

#: Roots of 1 + cos(x)*cosh(x) = 0, the k-th in ((k-1)*pi, k*pi), as Brent's
#: method finds them on cos(x) + sech(x) with xtol = rtol = 1e-15.
_WAVENUMBERS = (1.8751040687119611, 4.694091132974175, 7.854757438237614, 10.995540734875467,
                14.13716839104647, 17.278759532088237, 20.42035225104125, 23.561944901806445,
                26.7035375555183, 29.845130209102816, 32.98672286269284, 36.12831551628262)


@dataclass(frozen=True)
class BeamSpec:
    """Geometric and material description of the host cantilever.

    Parameters
    ----------
    length : float
        Beam length L in meters.
    bending_stiffness : float
        Flexural rigidity EI in N*m^2.
    mass_per_length : float
        Mass per unit length rho*A in kg/m.
    zeta : float or sequence of float
        Modal damping ratio(s).  A scalar is shared by every mode; a sequence
        supplies per-mode values (must cover all retained modes).
    """

    length: float
    bending_stiffness: float
    mass_per_length: float
    zeta: float | tuple[float, ...] = 0.0

    def __post_init__(self):
        for name, value in (("length L", self.length), ("stiffness EI", self.bending_stiffness),
                            ("mass per length rhoA", self.mass_per_length)):
            if not 0 < value < np.inf:  # chained: nan fails it too
                raise ParameterError(f"beam {name} must be finite and positive, got {value}")
        zeta = self.zeta
        if np.isscalar(zeta):
            zeta = (float(zeta),)
        else:
            zeta = tuple(float(z) for z in zeta)
        for z in zeta:
            if not 0.0 <= z < 1.0:
                raise ParameterError(f"modal damping ratio must lie in [0, 1), got {z}")
        object.__setattr__(self, "zeta", zeta)

    def modal_damping(self, m):
        """Per-mode damping ratios for the first `m` modes."""
        if len(self.zeta) == 1:
            return np.full(m, self.zeta[0])
        if len(self.zeta) < m:
            raise ParameterError(
                f"{m} modes requested but only {len(self.zeta)} damping ratios given"
            )
        return np.asarray(self.zeta[:m])


def solve_wavenumbers(m):
    """First `m` dimensionless cantilever wavenumbers beta*L, ascending.

    Roots of 1 + cos(x)*cosh(x) = 0, read from the tabulated `_WAVENUMBERS`.
    """
    if fault := integer_fault(m, 1, MAX_MODES):
        raise ParameterError(f"mode count {fault}")
    return list(_WAVENUMBERS[:m])


def _shape_coefficients(beta_l):
    """Stable (sigma, 1-sigma) for the clamped-free shape at wavenumber beta*L.

    sigma = (cosh + cos)/(sinh + sin) tends to 1 exponentially fast; the
    rearranged difference avoids the catastrophic cancellation that would
    otherwise corrupt modes above ~8.
    """
    s, c = np.sin(beta_l), np.cos(beta_l)
    denom = np.sinh(beta_l) + s
    delta = (s - c - np.exp(-beta_l)) / denom  # equals 1 - sigma exactly
    return 1.0 - delta, delta


@dataclass(frozen=True)
class ModalBasis:
    """Mass-normalized modal basis of a cantilever beam.

    Attributes
    ----------
    beam : BeamSpec
    m : int
        Number of retained modes.
    beta_l : ndarray, shape (m,)
        Dimensionless wavenumbers, strictly increasing.
    omega : ndarray, shape (m,)
        Natural frequencies in rad/s, omega_k = beta_l_k**2 * sqrt(EI/rhoA)/L**2.
    norm : ndarray, shape (m,)
        Scale factors making the modal mass of every mode equal 1.
    zeta : ndarray, shape (m,)
        Per-mode damping ratios resolved from the beam spec.
    """

    beam: BeamSpec
    m: int
    beta_l: np.ndarray
    omega: np.ndarray
    norm: np.ndarray
    zeta: np.ndarray


def modal_basis(beam, m):
    """Build the first `m` mass-normalized cantilever modes of `beam`."""
    beta_l = np.asarray(solve_wavenumbers(m))
    omega = beta_l**2 * np.sqrt(beam.bending_stiffness / beam.mass_per_length) / beam.length**2
    zeta = beam.modal_damping(m)

    norm = np.empty(m)
    for k in range(m):
        raw = lambda x: beam.mass_per_length * _raw_shape(beam, beta_l[k], x, 0) ** 2
        coarse = _panel_quad(raw, 0.0, beam.length, _NORM_PANELS)
        fine = _panel_quad(raw, 0.0, beam.length, 2 * _NORM_PANELS)
        if abs(fine - coarse) > 1e-8 * abs(fine):
            raise NumericalError(
                f"mode {k + 1} normalization quadrature did not converge "
                f"(refinement residual {abs(fine - coarse) / abs(fine):.2e})"
            )
        norm[k] = 1.0 / np.sqrt(fine)

    return ModalBasis(beam=beam, m=m, beta_l=beta_l, omega=omega, norm=norm, zeta=zeta)


# 4-point Gauss-Legendre rule on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)


def _panel_quad(f, a, b, panels):
    """Composite 4-point Gauss-Legendre quadrature with fixed panels."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    x = (mid[:, None] + half * _GL_X[None, :]).ravel()
    w = np.broadcast_to(half * _GL_W, (panels, _GL_X.size)).ravel()
    return float(np.dot(w, f(x)))


def _raw_shape(beam, beta_l, x, order):
    """Unnormalized clamped-free shape (order 0) or slope (order 1) at `x`."""
    beta = beta_l / beam.length
    z = beta * np.asarray(x, dtype=float)
    sigma, delta = _shape_coefficients(beta_l)
    if order == 0:
        return np.exp(-z) + delta * np.sinh(z) - np.cos(z) + sigma * np.sin(z)
    return beta * (-np.exp(-z) + delta * np.cosh(z) + np.sin(z) + sigma * np.cos(z))


def eval_mode(basis, k, x, order=0):
    """Evaluate mode shape phi_k (order 0) or its slope phi_k' (order 1).

    `k` is 1-based; `x` may be a scalar or an array within [0, L].
    """
    if fault := integer_fault(k, 1, basis.m):
        raise ParameterError(f"mode index {fault}")
    if order not in (0, 1):
        raise ParameterError(f"order must be 0 or 1, got {order}")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0) or np.any(xa > basis.beam.length):
        raise ParameterError(f"position {x} outside beam span [0, {basis.beam.length}]")
    val = basis.norm[k - 1] * _raw_shape(basis.beam, basis.beta_l[k - 1], xa, order)
    return float(val) if np.isscalar(x) else val


def modal_force_vector(basis, x_f=None):
    """Modal projection of a transverse point force at `x_f` (default: tip)."""
    if x_f is None:
        x_f = basis.beam.length
    return np.array([eval_mode(basis, k, x_f) for k in range(1, basis.m + 1)])


def modal_gram(basis, panels=2 * _NORM_PANELS):
    """Gram matrix of rhoA-weighted mode products; identity for an exact basis."""
    g = np.empty((basis.m, basis.m))
    for j in range(1, basis.m + 1):
        for k in range(j, basis.m + 1):
            f = lambda x: basis.beam.mass_per_length * eval_mode(basis, j, x) * eval_mode(basis, k, x)
            g[j - 1, k - 1] = g[k - 1, j - 1] = _panel_quad(f, 0.0, basis.beam.length, panels)
    return g


def tip_compliance(basis, m=None):
    """Truncated static tip compliance sum(phi_k(L)^2 / omega_k^2) over k<=m.

    Converges monotonically from below to the closed form L^3/(3 EI).
    """
    if m is None:
        m = basis.m
    phi_tip = modal_force_vector(basis)
    return float(np.sum(phi_tip[:m] ** 2 / basis.omega[:m] ** 2))
