"""Two-DOF reduction of the coupled model and electrical-parameter tuning.

The reduction keeps one mechanical mode and one electrical network mode.
Electrical modes are defined by the topology alone: writing the branch
inductances as L_b = lbar * s_shape with a fixed shape diagonal, the
generalized eigenproblem

    B_inc s_shape^-1 B_inc^T u = mu C u,      u^T C u = 1

yields tuning-independent voltage shapes whose resonances are
w_e = sqrt(mu / lbar).  Projecting onto the target mechanical mode k and the
max-coupling shape u* gives the two-DOF absorber model

    eta'' = -2 zm wm eta' - wm^2 eta + alpha vbar + f
    vbar' = -alpha eta' - ibar
    ibar' = (mu*/lbar) vbar - (rbar/lbar) ibar

with dimensionless coupling kappa = |alpha| / wm.  Tuning maximizes either
the minimum damping ratio over a band around the target mode (pole
placement) or the negated FRF peak (hinf), via multi-start Nelder-Mead in
(log rbar, log lbar).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beam import eval_mode
from .circuits import branch_fault
from .coupled import ZERO_MODE_RTOL, CoupledSystem, _frf_values, eigen
from .coupled import state_matrix  # noqa: F401  bench/tests/test_bench.py patches it here
from .errors import NumericalError, ParameterError, integer_fault

#: Default tuning band around the target mode for the pole-placement objective.
BAND_FACTORS = (0.5, 2.0)

#: Nelder-Mead initial step (log10 units), iteration cap and relative size tolerance.
NM_STEP, NM_MAX_ITER, NM_REL_TOL = 0.05, 500, 1e-6

#: Default hinf grid: linear samples over [0.5, 1.6] * target frequency.
HINF_GRID_FACTORS = (0.5, 1.6)
HINF_GRID_POINTS = 400

#: Default log-space search box, multiplicative around the seed.
BOUNDS_FACTORS_R = (1e-2, 1e6)
BOUNDS_FACTORS_L = (1e-4, 1e4)


@dataclass(frozen=True)
class ElectricalModeSet:
    """C-orthonormal standing-wave modes of the bare network."""

    mu: np.ndarray      # generalized eigenvalues, ascending, >= 0
    shapes: np.ndarray  # P x K, column j normalized to u^T C u = 1


def electrical_modes(nm, cap):
    """Solve B s^-1 B^T u = mu C u for the network's voltage mode shapes.

    `cap` is the capacitance metric: a vector of node capacitances or a full
    symmetric positive-definite matrix (symmetric to 1e-12 of its largest
    entry).  C = Lc Lc^T (Cholesky) turns it into
    Lc^-1 K Lc^-T y = mu y with u = Lc^-T y (Golub & Van Loan, sec. 8.7).
    """
    cap = np.asarray(cap, dtype=float)
    c_mat = np.diag(cap) if cap.ndim == 1 else cap
    try:
        if not np.all(np.isfinite(c_mat)):  # cholesky would pass nan and inf through
            raise np.linalg.LinAlgError("non-finite capacitance")
        inv = np.linalg.inv(np.linalg.cholesky(c_mat))
    except np.linalg.LinAlgError as exc:
        raise ParameterError("node capacitances must be positive definite") from exc
    # cholesky reads only the lower triangle
    if np.max(np.abs(c_mat - c_mat.T)) > 1e-12 * np.max(np.abs(c_mat)):
        raise ParameterError("capacitance matrix must be symmetric")
    k_e = nm.b_inc @ np.diag(1.0 / nm.s_shape) @ nm.b_inc.T
    try:
        mu, y = np.linalg.eigh(inv @ k_e @ inv.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("electrical eigenproblem failed") from exc
    shapes = inv.T @ y
    mu = np.where(np.abs(mu) < 1e-12 * max(np.max(np.abs(mu)), 1e-300), 0.0, mu)
    if np.any(mu < 0):
        raise NumericalError(f"negative electrical eigenvalue {mu.min():.3e}")
    # canonical sign: largest-magnitude component positive (in place, exact)
    pivot = shapes[np.argmax(np.abs(shapes), axis=0), np.arange(shapes.shape[1])]
    shapes *= np.where(pivot < 0, -1.0, 1.0)
    return ElectricalModeSet(mu=mu, shapes=shapes)


@dataclass(frozen=True)
class ReducedModel:
    """Two-DOF electromechanical absorber model around one beam mode."""

    target_mode: int
    omega_m: float
    zeta_m: float
    u_star: np.ndarray
    mu_star: float
    alpha: float      # modal coupling, >= 0 by shape-sign convention
    kappa: float      # alpha / omega_m
    in_gain: float    # phi_k at the force location
    out_gain: float   # phi_k at the observation location

    def a_matrix(self, rbar, lbar):
        """State matrix of (eta, eta', vbar, ibar) at branch scales (rbar, lbar)."""
        if fault := branch_fault(rbar, lbar):
            raise ParameterError(f"reduced-model branch {fault}")
        w, z, al = self.omega_m, self.zeta_m, self.alpha
        # built from one flat list: a third cheaper than nested rows, same entries
        return np.array([0.0, 1.0, 0.0, 0.0,
                         -w * w, -2.0 * z * w, al, 0.0,
                         0.0, -al, 0.0, -1.0,
                         0.0, 0.0, self.mu_star / lbar, -rbar / lbar]).reshape(4, 4)

    def gain_sq(self, rbar, lbar, omega):
        """|G(j omega)|^2 from the force input to the output at branch scales (rbar, lbar).

        Closed form of the RL-shunt absorber (Thomas, Ducarne & Deu 2012):
        with rho = rbar/lbar and eps = mu*/lbar,

            G(s) = g_in g_out (s^2 + rho s + eps)
                   / [(s^2 + 2 zm wm s + wm^2)(s^2 + rho s + eps) + alpha^2 s (s + rho)],

        evaluated in real arithmetic in x = omega^2.  A sample at an exact
        pole is not finite; no floating-point warning is raised for it.
        """
        if fault := branch_fault(rbar, lbar):
            raise ParameterError(f"reduced-model branch {fault}")
        w, al2 = self.omega_m, self.alpha * self.alpha
        rho, eps, c2 = rbar / lbar, self.mu_star / lbar, 2.0 * self.zeta_m * w
        x = omega * omega
        e, m = eps - x, w * w - x
        with np.errstate(all="ignore"):
            re = m * e - (c2 * rho + al2) * x
            im = omega * (m * rho + c2 * e + al2 * rho)
            num = e * e + rho * rho * x
            return (self.in_gain * self.out_gain) ** 2 * num / (re * re + im * im)

    @property
    def force_map(self):
        return np.array([0.0, self.in_gain, 0.0, 0.0])

    @property
    def output_map(self):
        return np.array([self.out_gain, 0.0, 0.0, 0.0])


def _target_omega(sys, target_mode):
    """Natural frequency of beam mode `target_mode`, an integer checked to lie in [1, M]."""
    if fault := integer_fault(target_mode, 1, sys.basis.m):
        raise ParameterError(f"target mode {fault}")
    return float(sys.basis.omega[target_mode - 1])


def reduce(sys, target_mode=1):
    """Project the coupled system onto mode `target_mode` and one network mode.

    The electrical shape is chosen to maximize the modal coupling
    |Thetat[k,:] u| over the non-zero electrical modes; within a degenerate
    eigenvalue group the coupling row is projected onto the eigenspace, which
    makes the choice deterministic.

    The truncated mechanical modes respond quasi-statically to the node
    voltages, loading the network with the extra capacitance
    sum_{j != k} Thetat[j]^T Thetat[j] / w_j^2.  That correction is folded
    into the capacitance metric of the electrical eigenproblem; without it
    the reduced-model optimum sits measurably off the complete model's
    optimum.  For a single retained mode the correction vanishes and the
    reduction is exact.
    """
    omega_m = _target_omega(sys, target_mode)
    c_eff = np.diag(sys.cap).copy()
    for j in range(sys.basis.m):
        if j != target_mode - 1:
            row = sys.theta_tilde[j]
            c_eff += np.outer(row, row) / sys.basis.omega[j] ** 2
    ems = electrical_modes(sys.nm, c_eff)
    mu_max = max(np.max(ems.mu), 1e-300)
    nonzero = np.nonzero(ems.mu >= 1e-12 * mu_max)[0]
    if nonzero.size == 0:
        raise ParameterError("all electrical modes are zero modes; reduction impossible")

    theta_row = sys.theta_tilde[target_mode - 1]
    # group degenerate eigenvalues so the selection is basis independent
    groups = np.split(nonzero, np.nonzero(np.diff(ems.mu[nonzero]) > 1e-9 * mu_max)[0] + 1)

    best = None
    for group in groups:
        u_basis = ems.shapes[:, group]
        t = u_basis.T @ theta_row
        strength = float(np.linalg.norm(t))
        if strength > 0:
            u = u_basis @ (t / strength)
        else:
            u = u_basis[:, 0]
        mu_g = float(np.mean(ems.mu[group]))
        if best is None or strength > best[0] + 1e-15 * abs(best[0]):
            best = (strength, mu_g, u)

    alpha, mu_star, u_star = best
    tip_gain = eval_mode(sys.basis, target_mode, sys.basis.beam.length)
    return ReducedModel(
        target_mode=target_mode,
        omega_m=omega_m,
        zeta_m=float(sys.basis.zeta[target_mode - 1]),
        u_star=u_star,
        mu_star=mu_star,
        alpha=alpha,
        kappa=alpha / omega_m,
        in_gain=tip_gain,
        out_gain=tip_gain,
    )


def closed_form_seed(rm):
    """Frequency-matching starting point (rbar0, lbar0) for the tuner.

    Places the electrical resonance at w_m * sqrt(1 + kappa^2) and sets the
    electrical loop damping ratio to kappa / sqrt(2).  A heuristic only; the
    numerical optimum from `tune` is authoritative.
    """
    if rm.kappa <= 0:
        raise ParameterError("closed-form seed needs nonzero electromechanical coupling")
    omega_e = rm.omega_m * np.sqrt(1.0 + rm.kappa**2)
    lbar0 = rm.mu_star / omega_e**2
    rbar0 = np.sqrt(2.0) * rm.kappa * lbar0 * omega_e
    return float(rbar0), float(lbar0)


@dataclass(frozen=True)
class StartRecord:
    r0: float
    l0: float
    r_opt: float
    l_opt: float
    objective: float
    seed_objective: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class TuningResult:
    """Optimized branch scales with achieved objective and run provenance."""

    r: float
    l: float
    objective: float
    kind: str
    converged: bool
    improving: bool
    seed: tuple[float, float]
    starts: tuple[StartRecord, ...]
    r_branches: np.ndarray | None = None
    l_branches: np.ndarray | None = None


def _nelder_mead(f, z0):
    """Minimize f over R^d with a plain Nelder-Mead simplex.

    Converges when the simplex diameter drops below NM_REL_TOL relative to the
    vertex magnitude, or after NM_MAX_ITER iterations.  Returns
    (z_best, f_best, iterations, converged).
    """
    d = len(z0)
    simplex = [np.asarray(z0, dtype=float)]
    for j in range(d):
        vertex = simplex[0].copy()
        vertex[j] += NM_STEP
        simplex.append(vertex)
    values = [f(v) for v in simplex]

    iterations = 0
    converged = False
    while iterations < NM_MAX_ITER:
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]

        diameter = max(np.max(np.abs(v - simplex[0])) for v in simplex[1:])
        scale = 1.0 + max(np.max(np.abs(v)) for v in simplex)
        if diameter < NM_REL_TOL * scale:
            converged = True
            break

        iterations += 1
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]

        reflected = centroid + (centroid - worst)
        f_r = f(reflected)
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = f(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            f_c = f(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                for j in range(1, d + 1):
                    simplex[j] = simplex[0] + 0.5 * (simplex[j] - simplex[0])
                    values[j] = f(simplex[j])

    best = int(np.argmin(values))
    return simplex[best], values[best], iterations, converged


def _min_damping(values, band):
    """Smallest damping ratio over non-zero eigenvalues inside the band."""
    scale = np.max(np.abs(values))
    if scale == 0:
        return -np.inf
    freq = np.abs(values)
    keep = freq >= ZERO_MODE_RTOL * scale
    if band is not None:
        keep &= (freq >= band[0]) & (freq <= band[1])
    keep &= values.imag >= -1e-12 * scale  # one representative per pair
    if not np.any(keep):
        return -np.inf
    return float(np.min(-values[keep].real / freq[keep]))


def hinf_grid(omega_t):
    """Frequency samples of the hinf objective around the target frequency omega_t."""
    return np.linspace(HINF_GRID_FACTORS[0] * omega_t, HINF_GRID_FACTORS[1] * omega_t,
                       HINF_GRID_POINTS)


def _band(omega_t):
    """Pole-placement band of the complete model around the target frequency."""
    return (BAND_FACTORS[0] * omega_t, BAND_FACTORS[1] * omega_t)


def _objective_value(objective, model, r, l, band=None, grid=None, maps=None):
    """Objective of a ReducedModel or CoupledSystem at scales (r, l); larger is better.

    "min-damping-ratio" is the smallest damping ratio inside `band` (None
    for all poles); "hinf" is the negated largest |G| on `grid`, the
    `hinf_grid` of the target frequency, and -inf when a sample is a pole.
    `maps` is the model's (force_map, output_map) when the caller built it.
    """
    if objective == "min-damping-ratio":
        return _min_damping(np.linalg.eigvals(model.a_matrix(r, l)), band=band)
    if isinstance(model, ReducedModel):
        peak = model.gain_sq(r, l, grid).max()
        return -float(np.sqrt(peak)) if np.isfinite(peak) else -np.inf
    b, c = maps or (model.force_map, model.output_map)
    g, _ = _frf_values(model.a_matrix(r, l), b, c, grid)  # poles are stored as inf
    return -float(np.max(np.abs(g)))


def tune(model, objective="min-damping-ratio", *, target_mode=1, seed=None,
         bounds=None, per_branch=False):
    """Optimize branch scales (rbar, lbar) by multi-start simplex descent in log space.

    `model` is a ReducedModel or a CoupledSystem (for the latter the target
    mode fixes the evaluation band and the seed comes from its own
    reduction).  The nine starts are the closed-form seed scaled by the 3x3
    factor grid {1/10, 1, 10}^2; the best final objective wins, ties broken
    by lexicographic (rbar, lbar).

    With `per_branch` each branch b of a CoupledSystem gets its own scales,
    R_b = rbar_b * s_shape_b and L_b = lbar_b * s_shape_b, searched in the same
    box from the same starts; each start reports the geometric means of its
    scales, and the result also holds the branch values.
    """
    if objective not in ("min-damping-ratio", "hinf"):
        raise ParameterError(f"unknown objective {objective!r}")
    if isinstance(model, CoupledSystem):
        omega_t = _target_omega(model, target_mode)
        band = _band(omega_t)
        n = model.nm.n_branches if per_branch else 1
    elif per_branch:
        raise ParameterError("per-branch tuning needs the full coupled system")
    elif isinstance(model, ReducedModel):
        omega_t, band, n = model.omega_m, None, 1
    else:
        raise ParameterError(f"cannot tune a {type(model).__name__}")
    # built once: the grid and the input/output maps do not depend on the branch values
    grid, maps = ((hinf_grid(omega_t), (model.force_map, model.output_map))
                  if objective == "hinf" else (None, None))

    def evaluate(r, l):
        return _objective_value(objective, model, r, l, band, grid, maps)

    if seed is None:
        rm = model if isinstance(model, ReducedModel) else reduce(model, target_mode)
        seed = closed_form_seed(rm)
    r0, l0 = float(seed[0]), float(seed[1])
    if not (0 < r0 < np.inf and 0 < l0 < np.inf):  # the search runs in log10 space
        raise ParameterError(f"tuning seed must be finite and positive, got ({r0}, {l0})")

    def decode(z):
        if per_branch:
            return 10.0 ** z[:n], 10.0 ** z[n:]
        # scalar powers: the vectorized power may differ in the last ulp,
        # which moves the simplex path
        return 10.0 ** z[0], 10.0 ** z[1]

    def summary(z):  # the (rbar, lbar) a start reports
        if per_branch:
            return tuple(float(np.exp(np.mean(np.log(v)))) for v in decode(z))
        return decode(z)

    if bounds is None:
        bounds = (np.multiply(BOUNDS_FACTORS_R, r0), np.multiply(BOUNDS_FACTORS_L, l0))
    (r_lo, r_hi), (l_lo, l_hi) = bounds
    if not (0 < r_lo < r_hi < np.inf and 0 < l_lo < l_hi < np.inf):
        raise ParameterError(f"tuning box must satisfy 0 < lo < hi < inf for R and L, "
                             f"got R [{r_lo}, {r_hi}], L [{l_lo}, {l_hi}]")
    lo = np.repeat(np.log10([r_lo, l_lo]), n)
    hi = np.repeat(np.log10([r_hi, l_hi]), n)

    def cost(z):
        if np.any(z < lo) or np.any(z > hi):
            return np.inf
        value = evaluate(*decode(z))
        return -value if np.isfinite(value) else np.inf

    seed_objective = evaluate(r0, l0)
    runs = []
    for fr in (0.1, 1.0, 10.0):
        for fl in (0.1, 1.0, 10.0):
            z_start = np.log10(np.repeat([r0 * fr, l0 * fl], n))
            start_obj = evaluate(*decode(z_start))
            z_opt, f_opt, iterations, converged = _nelder_mead(cost, z_start)
            (r_start, l_start), (r_opt, l_opt) = summary(z_start), summary(z_opt)
            rec = StartRecord(
                r0=r_start, l0=l_start, r_opt=r_opt, l_opt=l_opt,
                objective=-f_opt, seed_objective=start_obj,
                iterations=iterations,
                # a simplex that shrank outside the box found no feasible point
                converged=converged and bool(np.isfinite(f_opt)),
            )
            runs.append((rec, z_opt))

    winner, z_opt = min(runs, key=lambda run: (-run[0].objective, run[0].r_opt, run[0].l_opt))
    records = tuple(rec for rec, _ in runs)
    r_branches, l_branches = ((v * model.s_shape for v in decode(z_opt)) if per_branch
                              else (None, None))
    improving = winner.objective > seed_objective + 1e-9 * max(abs(seed_objective), 1e-300)
    return TuningResult(
        r=winner.r_opt, l=winner.l_opt, objective=winner.objective,
        kind=objective, converged=any(r.converged for r in records),
        improving=improving, seed=(r0, l0), starts=records,
        r_branches=r_branches, l_branches=l_branches,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Reduced-vs-complete model comparison at the tuned parameters."""

    r: float
    l: float
    pole_error: float          # worst relative distance, reduced pair -> full pole
    reduced_objective: float   # tr.kind objective of the reduced model, band-free
    full_objective: float      # the same on the complete model (min damping: in its band)
    mode_table: tuple[tuple, ...]  # (mode, omega_k, re, im, zeta) per low mode


def validate_reduction(sys, rm, tr):
    """Evaluate the reduced-model tuning on the complete model; runs no optimizer.  A re-tune
    gap needs `tune(sys, tr.kind, target_mode=rm.target_mode, seed=(tr.r, tr.l))`."""
    if tr.r_branches is not None:  # its geometric-mean scales were never tuned
        raise ParameterError("cannot validate a per-branch tuning result")
    r, l = tr.r, tr.l
    sol = eigen(sys.rescaled(r, l))

    red_vals = np.linalg.eigvals(rm.a_matrix(r, l))
    red_pairs = red_vals[red_vals.imag > 1e-12 * np.max(np.abs(red_vals))]
    pole_error = max((float(np.min(np.abs(sol.values - lam)) / abs(lam)) for lam in red_pairs),
                     default=0.0)

    grid = hinf_grid(rm.omega_m) if tr.kind == "hinf" else None
    reduced_objective = _objective_value(tr.kind, rm, r, l, grid=grid)
    full_objective = _objective_value(tr.kind, sys, r, l, _band(rm.omega_m), grid)

    table = []
    upper = sol.values[sol.values.imag >= 0]
    for k in range(1, min(3, sys.basis.m) + 1):
        omega_k = float(sys.basis.omega[k - 1])
        nearest = upper[np.argmin(np.abs(upper - 1j * omega_k))]
        zeta = float(-nearest.real / abs(nearest)) if abs(nearest) > 0 else 0.0
        table.append((k, omega_k, float(nearest.real), float(nearest.imag), zeta))

    return ValidationReport(
        r=r, l=l,
        pole_error=pole_error,
        reduced_objective=reduced_objective,
        full_objective=full_objective,
        mode_table=tuple(table),
    )
