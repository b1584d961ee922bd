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

The frequency response is solved in charge form (Hagood & von Flotow 1991):
with branch charges q, i = q', each branch obeys L_b q'' + R_b q' = B_inc^T v
and the node equation integrates to C v = -Thetat^T eta - B_inc q, so one
complex system in (eta, v, q) of order M + P + B per frequency w > 0 replaces
the 2M + P + B of the state resolvent; see `_frf_values`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .beam import modal_force_vector
from .circuits import branch_fault, network_matrices, per_branch
from .errors import NumericalError, ParameterError
from .patches import coupling_matrix

#: Frequencies per stacked FRF solve: enough to amortize the per-call overhead,
#: few enough that the complex matrix stack stays small (1.4 MB at order 37).
_FRF_CHUNK = 64


@dataclass(frozen=True)
class CoupledSystem:
    """Assembled beam + patch array + RL network model.

    The equations read `basis` (w_k, zeta_k and the tip force vector), `nm`
    (B_inc, R_b, L_b), `theta_tilde` and `cap`.  `patches` is the array that
    `assemble` built them from: `coupling_matrix(basis, patches)` rebuilds
    the per-patch coupling Theta.  The dataclass is frozen and caches
    nothing, so derived quantities such as `state_matrix` always follow its
    fields, also after `dataclasses.replace`.  `rescaled` returns a copy with
    branch parameters R_b = rbar * s_shape, L_b = lbar * s_shape, where
    s_shape = `nm.s_shape` is the branch inductance pattern normalized by the
    first branch.
    """

    basis: object
    patches: object
    nm: object
    theta_tilde: np.ndarray  # M x P node-accumulated coupling
    cap: np.ndarray          # P node capacitances

    @property
    def n_states(self):
        return 2 * self.basis.m + self.nm.n_nodes + self.nm.n_branches

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
        """Copy with R_b = rbar*s, L_b = lbar*s, s = `nm.s_shape`; scalar or per-branch scales."""
        n, s_shape = self.nm.n_branches, self.nm.s_shape
        return self.with_branch_values(per_branch(rbar, n, "resistance") * s_shape,
                                       per_branch(lbar, n, "inductance") * s_shape)

    def with_branch_values(self, r_b, l_b):
        """Copy of the system with per-branch (R, L) vectors; a scalar is shared by all."""
        n = self.nm.n_branches
        r_b, l_b = _admitted(per_branch(r_b, n, "resistance"), per_branch(l_b, n, "inductance"))
        return replace(self, nm=replace(self.nm, r_b=r_b, l_b=l_b))


def _admitted(r_b, l_b):
    """(r_b, l_b) unchanged, or ParameterError unless every branch passes `branch_fault`."""
    r, l = np.asarray(r_b), np.asarray(l_b)  # the methods cost half of np.min and np.max
    # each rule is an interval, and min/max propagate nan: no per-branch loop
    if fault := branch_fault(r.min(), l.min()) or branch_fault(r.max(), l.max()):
        raise ParameterError(f"branch rescaling: each branch {fault}")
    return r_b, l_b


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
    return CoupledSystem(basis=basis, patches=patches, nm=nm, theta_tilde=theta_tilde, cap=cap)


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
    _write_branch_rows(a, sys.nm.b_inc, sys.nm.r_b, sys.nm.l_b)
    return a


def _write_branch_rows(a, b_inc, r_b, l_b):
    """Write the rows L_b i' = B_inc^T v - R_b i of the state matrix `a` in place.

    `a` may be a stack of state matrices along leading axes, with (r_b, l_b)
    stacked along the same axes.  Every entry of those rows is written, the
    off-diagonal zeros of the current block as -0.0 (the entries of
    `-np.diag(r_b / l_b)`), so no earlier branch value survives a rewrite.
    """
    p, bn = b_inc.shape
    i0 = a.shape[-1] - bn
    a[..., i0:, i0 - p:i0] = b_inc.T / l_b[..., :, None]
    current = a[..., i0:, i0:]
    current[...] = -0.0
    diag = np.arange(bn)
    current[..., diag, diag] = -(r_b / l_b)


@dataclass(frozen=True)
class EigenSolution:
    """Eigenvalues with per-mode frequency, damping ratio and dominance tag."""

    values: np.ndarray   # complex, conjugate-closed, sorted by (|lambda|, -Im)
    vectors: np.ndarray  # columns aligned with values
    freq: np.ndarray     # |lambda| in rad/s
    zeta: np.ndarray     # -Re(lambda)/|lambda| (0 for zero modes)
    tags: tuple[str, ...]  # "mechanical" | "electrical" | "zero"


def eigen(sys):
    """Complex eigenstructure of the assembled system.  Its k = `nm.zero_modes` smallest
    |lambda|, a count from the network graph, are tagged "zero" with zeta = 0, as is an exact 0."""
    a = state_matrix(sys)
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed on {a.shape[0]}x{a.shape[0]} state matrix "
            f"(1-norm {np.linalg.norm(a, 1):.3e})"
        ) from exc

    order = np.lexsort((values.real, -values.imag, np.abs(values)))
    values, vectors = values[order], vectors[:, order]

    freq = np.abs(values)
    k = sys.nm.zero_modes  # the first k: `values` are sorted by |lambda|
    zeta = np.divide(-values.real, freq, out=np.zeros(len(freq)), where=freq > 0)
    zeta[:k] = 0.0

    # a C-ordered copy: row sums of the transposed view may differ in the last ulp
    kin, strain, cap, ind, _ = _energy_terms(sys, np.abs(vectors).T.copy())
    tags = np.where(0.5 * (kin + strain) > 0.5 * (cap + ind), "mechanical", "electrical")
    tags[:k] = "zero"
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


def _charge_form(sys):
    """What `_frf_values` takes from `sys` and no branch value changes, built once per model.

    (template, w_k, damp, rhs): the constant matrix of the (eta, v, q) system
    with zeros where D(w) and Z(w) go, the M modal frequencies, the M + P
    leading entries of the damping diagonal (2 zeta_k w_k, then zeros) and the
    right-hand side (phi_tip, 0, 0) as an (n, 1) complex column.
    """
    m, p = sys.basis.m, sys.nm.n_nodes
    n = m + p + sys.nm.n_branches
    template = np.zeros((n, n))
    template[:m, m:m + p] = -sys.theta_tilde
    template[m:m + p, :m] = -sys.theta_tilde.T
    template[m:m + p, m:m + p] = -np.diag(sys.cap)
    template[m:m + p, m + p:] = -sys.nm.b_inc
    template[m + p:, m:m + p] = -sys.nm.b_inc.T
    damp = np.concatenate((2.0 * sys.basis.zeta * sys.basis.omega, np.zeros(p)))
    rhs = np.zeros((n, 1), dtype=complex)
    rhs[:m, 0] = modal_force_vector(sys.basis)
    return template, sys.basis.omega, damp, rhs


def _frf_values(form, r_b, l_b, omega):
    """Sample G(j w) of a `_charge_form` at branch values (r_b, l_b) on the grid; flag poles.

    With branch charges q (i = q') each frequency w > 0 solves the second-order
    equations of the module docstring as one symmetric system in (eta, v, q),

        [ D(w)         -Thetat    0      ] [eta]   [phi_tip]
        [ -Thetat^T    -C         -B_inc ] [ v ] = [   0   ]
        [ 0            -B_inc^T   Z(w)   ] [ q ]   [   0   ]

    D = diag(w_k^2 - w^2 + 2j zeta_k w_k w), Z = diag(R_b j w - L_b w^2), and
    G = phi_tip^T eta: order M + P + B instead of the 2M + P + B of the state
    resolvent.  Thetat, C and B_inc enter as given, and LAPACK's pivoting
    picks the elimination order at each frequency.  Eliminating v ahead of
    time (order M + B) or q (order M + P) forms products with C^-1 or Z^-1
    whose rounding cancels digits where a branch impedance is small against
    the capacitive one: next to a resonance for v, and for a floating network
    at low frequency for q.  The grid is solved in chunks of `_FRF_CHUNK`
    frequencies, one stacked LAPACK solve each; LAPACK factors every matrix of
    a stack as it would a single one.  A chunk holding an exactly singular
    point is solved point by point with the same bits, and that point is a
    pole, stored as inf.
    """
    template, omega_k, damp, rhs = form
    n, m, mp = len(rhs), len(omega_k), len(damp)
    damp = np.concatenate((damp, r_b))
    phi_col = rhs[:m]
    g = np.empty(len(omega), dtype=complex)
    stack = np.empty((min(len(omega), _FRF_CHUNK), n, n), dtype=complex)
    for start in range(0, len(omega), _FRF_CHUNK):
        chunk = slice(start, start + _FRF_CHUNK)
        w = omega[chunk]
        mats = stack[:len(w)]  # one reused buffer
        mats[...] = template
        diag = mats.reshape(len(w), n * n)[:, ::n + 1]
        # w_k^2 - w^2 as (w_k - w)(w_k + w): no cancellation next to a resonance
        diag.real[:, :m] = (omega_k - w[:, None]) * (omega_k + w[:, None])
        diag.real[:, mp:] = -(w * w)[:, None] * l_b
        diag.imag = w[:, None] * damp
        try:
            x = np.linalg.solve(mats, np.broadcast_to(rhs, (len(w), n, 1)))
        except np.linalg.LinAlgError:
            g[chunk] = [_frf_point(mat, rhs, phi_col) for mat in mats]
        else:
            g[chunk] = _tip(x, phi_col)
    pole = ~np.isfinite(g)
    g[pole] = complex(np.inf, 0.0)
    return g, pole


def _tip(x, phi_col):
    """phi_tip^T eta of solutions x (..., n, 1) as (1 x M) @ (M x 1) products: the same
    bits for a stack as for each of its solutions alone."""
    return (np.swapaxes(x[..., :len(phi_col), :], -1, -2) @ phi_col)[..., 0, 0]


def _frf_point(mat, rhs, phi_col):
    """G for one frequency; inf where mat is exactly singular."""
    try:
        return _tip(np.linalg.solve(mat, rhs), phi_col)
    except np.linalg.LinAlgError:
        return complex(np.inf, 0.0)


def frf(sys, omega):
    """Frequency response from the force input to the displacement output."""
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 1 or not np.all((0 < omega) & (omega < np.inf)):  # nan fails both
        raise ParameterError("FRF grid must be one-dimensional, of finite positive frequencies only")
    g, pole = _frf_values(_charge_form(sys), sys.nm.r_b, sys.nm.l_b, omega)
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
