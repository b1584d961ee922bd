"""Modal basis of a clamped-free Euler-Bernoulli beam.

The cantilever's flexural modes serve as the mechanical reduction space for
the coupled electromechanical model.  Mode shapes are mass-normalized so that
each modal mass equals 1, which makes the modal equations of motion

    eta_k'' + 2*zeta_k*omega_k*eta_k' + omega_k**2 * eta_k = f_k(t)

with unit mass on the left.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, integer_fault

#: Largest supported mode count.  The closed-form cosh/sinh mode shape loses
#: accuracy rapidly for higher wavenumbers; low-frequency damping only needs
#: the first few modes.
MAX_MODES = 12

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
    zeta : float
        Modal damping ratio in [0, 1), shared by every mode.  Per-mode ratios
        are set on the basis: ``dataclasses.replace(basis, zeta=...)``, whose
        `zeta` the equations of motion read.
    """

    length: float
    bending_stiffness: float
    mass_per_length: float
    zeta: float = 0.0

    def __post_init__(self):
        for name, value in (("length L", self.length), ("stiffness EI", self.bending_stiffness),
                            ("mass per length rhoA", self.mass_per_length)):
            if not 0 < value < np.inf:  # chained: nan fails it too
                raise ParameterError(f"beam {name} must be finite and positive, got {value}")
        if not (isinstance(self.zeta, numbers.Real) and 0.0 <= self.zeta < 1.0):
            raise ParameterError(f"modal damping ratio must be one number in [0, 1), "
                                 f"got {self.zeta!r}")
        object.__setattr__(self, "zeta", float(self.zeta))


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
        Scale factors 1/sqrt(rhoA*L), which make the modal mass of every mode 1.
    zeta : ndarray, shape (m,)
        Per-mode damping ratios, which the equations read; `modal_basis`
        sets each to the beam spec's `zeta`.
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
    zeta = np.full(m, beam.zeta)

    # the raw shape cosh - cos - sigma*(sinh - sin) has integral of its square over
    # [0, L] equal to L (Blevins 1979, table 8-1), so every modal mass is rhoA*L
    norm = np.full(m, 1.0 / np.sqrt(beam.mass_per_length * beam.length))
    return ModalBasis(beam=beam, m=m, beta_l=beta_l, omega=omega, norm=norm, zeta=zeta)


def _raw_shape(beam, beta_l, x, order):
    """Unnormalized clamped-free shape (order 0) or slope (order 1) at `x`.

    `beta_l` and `x` broadcast: ``beta_l[:, None]`` against an array of
    positions gives one row per mode.
    """
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
    if not np.all((0 <= xa) & (xa <= basis.beam.length)):  # as chained, nan fails it
        raise ParameterError(f"position {x} outside beam span [0, {basis.beam.length}]")
    val = basis.norm[k - 1] * _raw_shape(basis.beam, basis.beta_l[k - 1], xa, order)
    return float(val) if np.isscalar(x) else val


def modal_force_vector(basis):
    """Modal projection phi_k(L) of a transverse point force at the tip, the one load point."""
    return basis.norm * _raw_shape(basis.beam, basis.beta_l, basis.beam.length, 0)
