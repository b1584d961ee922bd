"""Surface-bonded piezoelectric transducer arrays and their modal coupling.

Each patch is modeled as a pair of moment couples at its ends: bending the
beam changes the relative rotation of the patch edges, inducing charge
gamma_i * (phi_k'(b_i) - phi_k'(a_i)) per unit modal coordinate.  Patch mass
and stiffness loading of the beam are neglected (thin-patch assumption), so
the mechanical basis stays the bare-beam modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beam import _raw_shape
from .errors import ParameterError, integer_fault


@dataclass(frozen=True)
class PatchArray:
    """N transducers with ends (a_i, b_i), capacitance Cp_i and coupling gamma_i.

    Patches must be ordered left to right and non-overlapping.  gamma may be
    negative (poling direction); capacitances must be positive.
    """

    a: np.ndarray
    b: np.ndarray
    cp: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        cp = np.broadcast_to(np.asarray(self.cp, dtype=float), a.shape).copy()
        gamma = np.broadcast_to(np.asarray(self.gamma, dtype=float), a.shape).copy()
        if a.size < 1:
            raise ParameterError("patch array needs at least one transducer")
        if a.shape != b.shape:
            raise ParameterError("patch end arrays must have equal length")
        if not np.all(np.isfinite([a, b, cp, gamma])):
            raise ParameterError("patch ends, capacitances and couplings must be finite")
        if np.any(b <= a):
            raise ParameterError("every patch needs a_i < b_i")
        if a[0] < 0:
            raise ParameterError("first patch starts before the clamped end")
        if np.any(b[:-1] > a[1:] + 1e-15):
            raise ParameterError("patches overlap or are out of order")
        if np.any(cp <= 0):
            raise ParameterError("patch capacitances must be positive")
        for name, arr in (("a", a), ("b", b), ("cp", cp), ("gamma", gamma)):
            object.__setattr__(self, name, arr)

    @property
    def n(self):
        return self.a.size


def uniform_layout(beam, n, coverage=0.9, cp=100e-9, gamma=1e-4):
    """N identical patches centered in N equal cells spanning the beam.

    `coverage` is the total patch length divided by the beam length; 1 gives
    contiguous patches tiling [0, L].
    """
    if fault := integer_fault(n, 1):
        raise ParameterError(f"patch count {fault}")
    if not 0 < coverage <= 1:
        raise ParameterError(f"coverage must lie in (0, 1], got {coverage}")
    cell = beam.length / n
    patch_len = coverage * cell
    centers = (np.arange(n) + 0.5) * cell
    return PatchArray(
        a=centers - 0.5 * patch_len,
        b=centers + 0.5 * patch_len,
        cp=np.full(n, float(cp)),
        gamma=np.full(n, float(gamma)),
    )


def coupling_matrix(basis, patches):
    """M x N electromechanical coupling Theta_ki = gamma_i*(phi_k'(b_i) - phi_k'(a_i))."""
    length = basis.beam.length
    if patches.b[-1] > length + 1e-12 or patches.a[-1] > length:
        raise ParameterError("patches extend beyond the beam span")
    slope = lambda x: basis.norm[:, None] * _raw_shape(basis.beam, basis.beta_l[:, None], x, 1)
    return patches.gamma * (slope(np.minimum(patches.b, length)) - slope(patches.a))

