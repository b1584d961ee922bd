"""Coupled electromechanical model: assembly, eigenstructure, FRF, energy.

State layout x = (eta, eta_dot, v, i) with M modal coordinates, P node
voltages and B branch currents.  The governing equations are

    eta_k'' = -2 zeta_k w_k eta_k' - w_k^2 eta_k + sum_p Thetat[k,p] v_p + f_k
    C v'    = -Thetat^T eta' - B_inc i
    L_b i'  = B_inc^T v - R_b i

where Thetat accumulates the patch coupling columns onto their attached
nodes.  The signs are the unique energy-consistent choice: with

    H = 1/2 (|eta'|^2 + sum w_k^2 eta_k^2) + 1/2 v^T C v + 1/2 i^T L_b i

they satisfy dH/dt = eta'^T f - P_diss, P_diss = sum 2 zeta w eta'^2 + i^T R i >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .beam import modal_force_vector
from .circuits import branch_fault, network_matrices
from .errors import NumericalError, ParameterError
from .patches import coupling_matrix

#: Relative magnitude below which an eigenvalue is tagged as a zero/rigid mode.
ZERO_MODE_RTOL = 1e-9

#: Frequencies per stacked FRF solve: enough to amortize the per-call overhead,
#: few enough that the complex matrix stack stays small (2.5 MB at n = 49).
_FRF_CHUNK = 64


@dataclass(frozen=True)
class CoupledSystem:
    """Assembled beam + patch array + RL network model.

    The dataclass is frozen and caches nothing, so derived quantities such as
    `state_matrix` always follow its fields, also after `dataclasses.replace`.
    `rescaled` returns a copy with branch parameters R_b = rbar * s_shape,
    L_b = lbar * s_shape, where s_shape is the branch inductance pattern
    normalized by the first branch.
    """

    basis: object
    patches: object
    nm: object
    theta: np.ndarray        # M x N patch coupling
    theta_tilde: np.ndarray  # M x P node-accumulated coupling
    cap: np.ndarray          # P node capacitances

    @property
    def n_states(self):
        return 2 * self.basis.m + self.nm.n_nodes + self.nm.n_branches

    @property
    def s_shape(self):
        """The network's branch inductance pattern, `NetworkMatrices.s_shape`."""
        return self.nm.s_shape

    @property
    def force_map(self):
        """Input vector b: tip force enters the modal acceleration rows."""
        b = np.zeros(self.n_states)
        b[self.basis.m:2 * self.basis.m] = modal_force_vector(self.basis)
        return b

    @property
    def output_map(self):
        """Output vector c: transverse displacement at the tip."""
        c = np.zeros(self.n_states)
        c[:self.basis.m] = modal_force_vector(self.basis)
        return c

    def rescaled(self, rbar, lbar):
        """Copy with R_b = rbar*s_shape, L_b = lbar*s_shape; scalar or per-branch scales."""
        return self.with_branch_values(self._per_branch(rbar, "resistance") * self.s_shape,
                                       self._per_branch(lbar, "inductance") * self.s_shape)

    def a_matrix(self, rbar, lbar):
        """State matrix at branch scales (rbar, lbar), as `ReducedModel.a_matrix`."""
        return state_matrix(self.rescaled(rbar, lbar))

    def with_branch_values(self, r_b, l_b):
        """Copy of the system with per-branch (R, L) vectors; a scalar is shared by all."""
        r_b, l_b = self._per_branch(r_b, "resistance"), self._per_branch(l_b, "inductance")
        # each rule is an interval, and min/max propagate nan: no per-branch loop
        if fault := branch_fault(r_b.min(), l_b.min()) or branch_fault(r_b.max(), l_b.max()):
            raise ParameterError(f"branch rescaling: each branch {fault}")
        return replace(self, nm=replace(self.nm, r_b=r_b, l_b=l_b))

    def _per_branch(self, values, name):
        """`values` as a new float vector over the B branches: a scalar or length B."""
        values, n = np.asarray(values, dtype=float), self.nm.n_branches
        if values.shape not in ((), (n,)):
            raise ParameterError(f"{name} must be a scalar or a list of length {n}, "
                                 f"got shape {values.shape}")
        return np.full(n, values)  # a third of the cost of broadcast_to(...).copy()


def assemble(basis, patches, net):
    """Assemble the coupled model from a modal basis, patch array and netlist."""
    n = patches.n
    nm = network_matrices(net, n)
    theta = coupling_matrix(basis, patches)

    node_index = {name: p for p, name in enumerate(nm.node_names)}
    theta_tilde = np.zeros((basis.m, nm.n_nodes))
    cap = np.zeros(nm.n_nodes)
    for idx, node in net.piezo.items():
        p = node_index[node]
        theta_tilde[:, p] += theta[:, idx - 1]
        cap[p] += patches.cp[idx - 1]
    return CoupledSystem(basis=basis, patches=patches, nm=nm, theta=theta,
                         theta_tilde=theta_tilde, cap=cap)


def state_matrix(sys):
    """First-order state matrix A of x' = A x + b u."""
    m, p, bn = sys.basis.m, sys.nm.n_nodes, sys.nm.n_branches
    n = 2 * m + p + bn
    a = np.zeros((n, n))
    sl_eta = slice(0, m)
    sl_vel = slice(m, 2 * m)
    sl_v = slice(2 * m, 2 * m + p)
    sl_i = slice(2 * m + p, n)

    a[sl_eta, sl_vel] = np.eye(m)
    a[sl_vel, sl_eta] = -np.diag(sys.basis.omega**2)
    a[sl_vel, sl_vel] = -np.diag(2.0 * sys.basis.zeta * sys.basis.omega)
    a[sl_vel, sl_v] = sys.theta_tilde
    a[sl_v, sl_vel] = -sys.theta_tilde.T / sys.cap[:, None]
    a[sl_v, sl_i] = -sys.nm.b_inc / sys.cap[:, None]
    a[sl_i, sl_v] = sys.nm.b_inc.T / sys.nm.l_b[:, None]
    a[sl_i, sl_i] = -np.diag(sys.nm.r_b / sys.nm.l_b)
    return a


@dataclass(frozen=True)
class EigenSolution:
    """Eigenvalues with per-mode frequency, damping ratio and dominance tag."""

    values: np.ndarray   # complex, conjugate-closed, sorted by (|lambda|, -Im)
    vectors: np.ndarray  # columns aligned with values
    freq: np.ndarray     # |lambda| in rad/s
    zeta: np.ndarray     # -Re(lambda)/|lambda| (0 for zero modes)
    tags: tuple[str, ...]  # "mechanical" | "electrical" | "zero"


def eigen(sys):
    """Complex eigenstructure of the assembled system."""
    a = state_matrix(sys)
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed on {a.shape[0]}x{a.shape[0]} state matrix "
            f"(1-norm {np.linalg.norm(a, 1):.3e})"
        ) from exc

    order = np.lexsort((values.real, -values.imag, np.abs(values)))
    values = values[order]
    vectors = vectors[:, order]

    scale = np.max(np.abs(values))
    freq = np.abs(values)
    with np.errstate(invalid="ignore", divide="ignore"):
        zeta = np.where(freq > 0, -values.real / np.where(freq > 0, freq, 1.0), 0.0)

    # a C-ordered copy: row sums of the transposed view may differ in the last ulp
    kin, strain, cap, ind, _ = _energy_terms(sys, np.abs(vectors).T.copy())
    tags = np.where(freq < ZERO_MODE_RTOL * scale, "zero",
                    np.where(0.5 * (kin + strain) > 0.5 * (cap + ind), "mechanical", "electrical"))
    return EigenSolution(values=values, vectors=vectors, freq=freq, zeta=zeta,
                         tags=tuple(tags.tolist()))


@dataclass(frozen=True)
class FRFTable:
    """Force-to-displacement transfer samples on a positive frequency grid."""

    omega: np.ndarray
    g: np.ndarray          # complex G(j omega)
    pole: np.ndarray       # True where j*omega hit an undamped eigenvalue

    @property
    def magnitude(self):
        return np.abs(self.g)

    @property
    def phase(self):
        return np.angle(self.g)


def _frf_values(a, b, c, omega):
    """Sample c^T (j w I - a)^-1 b on the grid, flagging singular points.

    The grid is solved in chunks of `_FRF_CHUNK` frequencies, one stacked
    LAPACK solve each; LAPACK factors every matrix of a stack as it would a
    single one, and the (1 x n) @ (n x 1) product reproduces `c @ x`, so the
    samples equal those of a per-point loop bit for bit.  A chunk holding an
    exactly singular point falls back to that loop.
    """
    n = a.shape[0]
    eye = np.eye(n)
    c_row = np.asarray(c).astype(complex)[:, None]
    g = np.empty(len(omega), dtype=complex)
    stack = np.empty((min(len(omega), _FRF_CHUNK), n, n), dtype=complex)
    for start in range(0, len(omega), _FRF_CHUNK):
        chunk = slice(start, start + _FRF_CHUNK)
        w = omega[chunk]
        mats = stack[:len(w)]
        np.multiply(1j * w[:, None, None], eye, out=mats)  # one reused buffer
        mats -= a
        try:
            x = np.linalg.solve(mats, np.broadcast_to(b[:, None], (len(mats), n, 1)))
        except np.linalg.LinAlgError:
            g[chunk] = [_frf_point(mat, b, c) for mat in mats]
        else:
            g[chunk] = (np.swapaxes(x, 1, 2) @ c_row)[:, 0, 0]
    pole = ~np.isfinite(g)
    g[pole] = complex(np.inf, 0.0)
    return g, pole


def _frf_point(mat, b, c):
    """c^T mat^-1 b for one frequency; inf where mat is exactly singular."""
    try:
        return c @ np.linalg.solve(mat, b)
    except np.linalg.LinAlgError:
        return complex(np.inf, 0.0)


def frf(sys, omega):
    """Frequency response from the force input to the displacement output."""
    omega = np.asarray(omega, dtype=float)
    if not np.all((0 < omega) & (omega < np.inf)):  # nan fails both
        raise ParameterError("FRF grid must contain finite positive frequencies only")
    g, pole = _frf_values(state_matrix(sys), sys.force_map, sys.output_map, omega)
    return FRFTable(omega=omega, g=g, pole=pole)


def total_energy(sys, x):
    """(H, P_diss): stored energy and dissipated power at state `x`."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n_states,):
        raise ParameterError(f"state vector must have length {sys.n_states}, got {x.shape}")
    h, p_diss = _energies(sys, x[None, :])
    return float(h[0]), float(p_diss[0])


def _energies(sys, states):
    """(H, P_diss) of every row of the (k, n_states) array `states`."""
    kin, strain, cap, ind, p_diss = _energy_terms(sys, states)
    return 0.5 * (kin + strain + cap + ind), p_diss


def _energy_terms(sys, states):
    """Row sums of the (k, n_states) array `states`: twice the kinetic, modal
    strain, capacitive and inductive energies, then the dissipated power."""
    m, p = sys.basis.m, sys.nm.n_nodes
    eta, vel = states[:, :m], states[:, m:2 * m]
    v, cur = states[:, 2 * m:2 * m + p], states[:, 2 * m + p:]
    return (np.sum(vel**2, axis=1), np.sum(sys.basis.omega**2 * eta**2, axis=1),
            np.sum(sys.cap * v**2, axis=1), np.sum(sys.nm.l_b * cur**2, axis=1),
            np.sum(2.0 * sys.basis.zeta * sys.basis.omega * vel**2, axis=1)
            + np.sum(sys.nm.r_b * cur**2, axis=1))
