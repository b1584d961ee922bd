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

import numbers
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import add, gt, lt

import numpy as np

from .beam import eval_mode
from .coupled import (CoupledSystem, _admitted, _charge_form, _frf_values, _nonzero_modes,
                      _write_branch_rows, eigen)
from .coupled import state_matrix  # bench/tests/test_bench.py patches this binding
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
        """State matrix of (eta, eta', vbar, ibar) at branch scales (rbar, lbar).

        Arrays of scales give a stack of matrices along their (broadcast) axes.
        """
        a = np.empty(np.broadcast_shapes(np.shape(rbar), np.shape(lbar)) + (4, 4))
        a[...] = self._a_template()
        return self._write_scales(a, rbar, lbar)

    def _a_template(self):
        """The state matrix with the two entries that the scales set left at zero."""
        w, z, al = self.omega_m, self.zeta_m, self.alpha
        return np.array(((0.0, 1.0, 0.0, 0.0),
                         (-w * w, -2.0 * z * w, al, 0.0),
                         (0.0, -al, 0.0, -1.0),
                         (0.0, 0.0, 0.0, 0.0)))

    def _write_scales(self, a, rbar, lbar):
        """Write the entries that the admitted scales (arrays or float lists) set into
        the (..., 4, 4) template copies `a`; returns `a`."""
        _admitted(rbar, lbar)
        lbar = np.asarray(lbar)
        a[..., 3, 2] = self.mu_star / lbar
        a[..., 3, 3] = -np.asarray(rbar) / lbar
        return a

    def gain_sq(self, rbar, lbar, omega):
        """|G(j omega)|^2 from the force input to the output at branch scales (rbar, lbar).

        Closed form of the RL-shunt absorber (Thomas, Ducarne & Deu 2012):
        with rho = rbar/lbar and eps = mu*/lbar,

            G(s) = g_in g_out (s^2 + rho s + eps)
                   / [(s^2 + 2 zm wm s + wm^2)(s^2 + rho s + eps) + alpha^2 s (s + rho)],

        evaluated in real arithmetic in x = omega^2.  A sample at an exact
        pole is not finite; no floating-point warning is raised for it.  The
        scales and `omega` broadcast against each other.
        """
        _admitted(rbar, lbar)
        return self._gain_sq(rbar, lbar, omega, *self._grid_terms(omega))

    def _grid_terms(self, omega):
        """The terms of `gain_sq` the scales leave alone: x = omega^2, wm^2 - x and (g_in g_out)^2."""
        x = omega * omega
        return x, self.omega_m * self.omega_m - x, (self.in_gain * self.out_gain) ** 2

    def _gain_sq(self, rbar, lbar, omega, x, m, gain2):
        """`gain_sq` from the `_grid_terms` (x, m, gain2) of `omega`, without the admission."""
        al2 = self.alpha * self.alpha
        rho, eps, c2 = rbar / lbar, self.mu_star / lbar, 2.0 * self.zeta_m * self.omega_m
        e = eps - x
        with np.errstate(all="ignore"):
            re = m * e - (c2 * rho + al2) * x
            im = omega * (m * rho + c2 * e + al2 * rho)
            num = e * e + rho * rho * x
            return gain2 * num / (re * re + im * im)

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
    nonzero = np.nonzero(ems.mu > 0)[0]  # `electrical_modes` has set every zero mode to 0
    if nonzero.size == 0:
        raise ParameterError("all electrical modes are zero modes; reduction impossible")

    theta_row = sys.theta_tilde[target_mode - 1]
    # group degenerate eigenvalues so the selection is basis independent
    groups = np.split(nonzero, np.nonzero(np.diff(ems.mu[nonzero]) > 1e-9 * ems.mu.max())[0] + 1)

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


def _nelder_mead(z0):
    """Minimize over R^d with a plain Nelder-Mead simplex, asking for values as it goes.

    A generator: each `yield` hands out the points the search needs next,
    a list of k points of d Python floats each, and takes back their k
    values, Python floats and never nan: the d+1 vertices at the start, one
    point per reflect, expand or contract step and d points per shrink.
    `_lockstep` drives it.  The simplex is d+1 vertex lists and their values
    a list, kept sorted best first as a stable sort orders them, so vertices
    of equal value keep their order.  The arithmetic is that of one
    (d+1, d) array: the centroid is summed vertex by vertex from vertex 0,
    as `np.add.reduce` sums rows.  Converges when the simplex diameter drops
    below NM_REL_TOL relative to the vertex magnitude, or after NM_MAX_ITER
    iterations.  Returns (z_best, f_best, iterations, converged), z_best a
    fresh float array.
    """
    z0 = np.asarray(z0, dtype=float).tolist()
    d = len(z0)
    simplex = [z0] + [z0[:j] + [z0[j] + NM_STEP] + z0[j + 1:] for j in range(d)]
    values = (yield simplex)
    # at least every |coordinate| so far: the cheap half of the convergence test
    bound = max(0.0, *map(abs, chain.from_iterable(simplex)))

    iterations = 0
    converged = False
    resort = True  # more than the last vertex is new: at the start and after a shrink
    while iterations < NM_MAX_ITER:
        if resort:
            order = sorted(range(d + 1), key=values.__getitem__)
            simplex, values = [simplex[i] for i in order], [values[i] for i in order]
        else:  # the rest is in order: the last vertex goes where a stable sort puts it
            at = bisect_right(values, values[-1], 0, d)
            simplex.insert(at, simplex.pop())
            values.insert(at, values.pop())

        if _simplex_converged(simplex, bound):
            converged = True
            break

        iterations += 1
        centroid = simplex[0]
        for vertex in simplex[1:-1]:
            centroid = list(map(add, centroid, vertex))
        centroid = [c / d for c in centroid]
        worst = simplex[-1]

        reflected = [c + (c - w) for c, w in zip(centroid, worst)]
        (f_r,) = yield [reflected]
        resort = False
        if f_r < values[0]:
            expanded = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            (f_e,) = yield [expanded]
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
            (f_c,) = yield [contracted]
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                first = simplex[0]
                simplex[1:] = [[a + 0.5 * (b - a) for a, b in zip(first, vertex)]
                               for vertex in simplex[1:]]
                values[1:] = yield simplex[1:]
                resort = True
        new = simplex[1:] if resort else simplex[-1:]
        bound = max(bound, *map(abs, chain.from_iterable(new)))

    best = min(range(d + 1), key=values.__getitem__)
    return np.array(simplex[best]), float(values[best]), iterations, converged


def _simplex_converged(simplex, bound):
    """Whether every vertex of the sorted simplex lies within NM_REL_TOL * (1 + its largest
    |coordinate|) of the best one, coordinate by coordinate; False when a coordinate is nan.

    `bound` is at least every |coordinate|, so an offset of NM_REL_TOL * (1 + bound) or
    more decides the test without scanning the whole simplex.
    """
    best = simplex[0]
    loose = NM_REL_TOL * (1.0 + bound)
    for vertex in simplex[1:]:
        for a, b in zip(vertex, best):
            if abs(a - b) >= loose:
                return False
    offsets = [abs(a - b) for vertex in simplex[1:] for a, b in zip(vertex, best)]
    if any(v != v for v in offsets):  # a nan coordinate makes an offset nan
        return False
    scale = 1.0 + max(abs(v) for v in chain.from_iterable(simplex))
    return max(offsets) < NM_REL_TOL * scale


def _lockstep(batch, starts):
    """Run one `_nelder_mead` search per start, all of them advancing together.

    Each round stacks the points every unfinished search asks for into one
    (k, d) array and makes one `batch` call, which maps it to an array of
    the k values; one `tolist` hands every search its values as Python
    floats.  When `batch` gives each row the value it gives that row alone,
    every search sees the values a separate run sees, so the results, in
    start order, equal separate runs bit for bit.
    """
    searches = [_nelder_mead(z0) for z0 in starts]
    results = [None] * len(searches)
    pending = [(j, search, next(search)) for j, search in enumerate(searches)]
    while pending:
        values = batch(np.array([point for _, _, points in pending for point in points])).tolist()
        waiting, offset = [], 0
        for j, search, points in pending:
            reply, offset = values[offset:offset + len(points)], offset + len(points)
            try:
                waiting.append((j, search, search.send(reply)))
            except StopIteration as done:
                results[j] = done.value
        pending = waiting
    return results


def _min_damping(values, band):
    """Smallest damping ratio over non-zero eigenvalues inside the band.

    Reduces along the last axis, so a stack of spectra gives one ratio per
    spectrum; -inf for a spectrum with no eigenvalue to keep.
    """
    freq = np.abs(values)
    scale = freq.max(axis=-1, keepdims=True)
    keep = _nonzero_modes(freq, scale)
    if band is not None:
        keep &= freq >= band[0]
        keep &= freq <= band[1]
    keep &= values.imag >= -1e-12 * scale  # one representative per pair
    ratio = np.divide(-values.real, freq, out=np.full(freq.shape, np.inf), where=keep)
    return np.where(keep.any(axis=-1), ratio.min(axis=-1), -np.inf)[()]


def hinf_grid(omega_t):
    """Frequency samples of the hinf objective around the target frequency omega_t."""
    return np.linspace(HINF_GRID_FACTORS[0] * omega_t, HINF_GRID_FACTORS[1] * omega_t,
                       HINF_GRID_POINTS)


def _band(omega_t):
    """Pole-placement band of the complete model around the target frequency."""
    return (BAND_FACTORS[0] * omega_t, BAND_FACTORS[1] * omega_t)


def _branch_values(s_shape, r, l):
    """The admitted (k, B) branch values R_b, L_b of k rows of scales, as `_objective` takes them."""
    return _admitted(*(np.reshape(v, (len(v), -1)) * s_shape for v in (r, l)))


def _a_stack(model):
    """(r, l) -> the state matrices of a ReducedModel or CoupledSystem at k rows of scales.

    The rows are as `_objective` takes them.  A stack of template copies, grown
    to the largest k so far, is reused: each call rewrites only the entries the
    scales set and returns a view valid until the next call, bit for bit
    `model.a_matrix(r_j, l_j)` or `state_matrix(model.rescaled(r_j, l_j))`.
    """
    if isinstance(model, ReducedModel):
        template, write = model._a_template(), model._write_scales
    else:
        template, b_inc, s_shape = state_matrix(model), model.nm.b_inc, model.s_shape

        def write(a, r, l):
            _write_branch_rows(a, b_inc, *_branch_values(s_shape, r, l))
            return a
    stack = np.empty((0,) + template.shape)

    def a_matrix(r, l):
        nonlocal stack
        if len(r) > len(stack):
            stack = np.repeat(template[None], len(r), axis=0)
        return write(stack[:len(r)], r, l)
    return a_matrix


def _objective(model, objective, band=None, grid=None):
    """(r, l) -> `objective` of a ReducedModel or CoupledSystem at k rows of scales; larger is better.

    What does not depend on the scales is prepared here, once.  The rows are
    lists of k floats or, for a CoupledSystem, (k, B) per-branch scales.
    "min-damping-ratio" is the smallest damping ratio inside `band` (None
    for all poles); "hinf" is the negated largest |G| on `grid`, the
    `hinf_grid` of the target frequency, and -inf when a sample is a pole.
    Each row gets the value it gets alone: LAPACK factors every matrix of a
    stack as it would a single one.
    """
    if objective == "min-damping-ratio":
        a_matrix = _a_stack(model)
        return lambda r, l: _min_damping(np.linalg.eigvals(a_matrix(r, l)), band=band)
    if isinstance(model, ReducedModel):
        x, m, gain2 = model._grid_terms(grid)

        def values(r, l):
            _admitted(r, l)
            gain_sq = model._gain_sq(np.array(r)[:, None], np.array(l)[:, None], grid, x, m, gain2)
            peak = gain_sq.max(axis=-1)
            return np.where(np.isfinite(peak), -np.sqrt(peak), -np.inf)
        return values
    form = _charge_form(model)
    # one kernel call per row; poles are stored as inf
    return lambda r, l: np.array([-np.max(np.abs(_frf_values(form, r_b, l_b, grid)[0]))
                                  for r_b, l_b in zip(*_branch_values(model.s_shape, r, l))])


def _objective_value(objective, model, r, l, band=None, grid=None):
    """`_objective` at the one point (r, l), scalar or per-branch scales, as a float."""
    r, l = (np.asarray(v, dtype=float)[None].tolist() for v in (r, l))
    return float(_objective(model, objective, band, grid)(r, l)[0])


def _two(value):
    """The items of `value` when it is a sequence of two, else None."""
    try:
        return tuple(value) if len(value) == 2 else None
    except TypeError:
        return None


def _real_pair(value):
    """The items of `value` when it is a sequence of two real numbers, else None."""
    items = _two(value)
    if items and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in items):
        return items
    return None


def _box_fault(bounds):
    """Why `bounds` is no box ((R_min, R_max), (L_min, L_max)), 0 < min < max < inf, or None."""
    box = [_real_pair(side) for side in _two(bounds) or ()]
    if len(box) != 2 or None in box:
        return (f"tuning bounds must be ((R_min, R_max), (L_min, L_max)) "
                f"of real numbers, got {bounds!r}")
    for x, (lo, hi) in zip("RL", box):
        if not 0 < lo < hi < np.inf:  # chained: nan fails it too
            return (f"{x} bounds must satisfy 0 < {x}_min < {x}_max < inf, "
                    f"got R [{box[0][0]}, {box[0][1]}], L [{box[1][0]}, {box[1][1]}]")
    return None


def tune(model, objective="min-damping-ratio", *, target_mode=None, seed=None,
         bounds=None, per_branch=False):
    """Optimize branch scales (rbar, lbar) by multi-start simplex descent in log space.

    `model` is a ReducedModel or a CoupledSystem (for the latter the target
    mode, 1 by default, fixes the evaluation band and the seed comes from its
    own reduction).  A ReducedModel fixes its own mode: a `target_mode` given
    with one must equal `model.target_mode`.  The nine starts are the
    closed-form seed scaled by the 3x3 factor grid {1/10, 1, 10}^2; the best
    final objective wins, ties broken by lexicographic (rbar, lbar).  The
    starts advance in lockstep, each round's points evaluated as one stack,
    with the results of nine separate runs.

    With `per_branch` each branch b of a CoupledSystem gets its own scales,
    R_b = rbar_b * s_shape_b and L_b = lbar_b * s_shape_b, searched in the same
    box from the same starts; each start reports 10 to the mean log10 scale
    of each kind, and the result also holds the branch values.
    """
    if objective not in ("min-damping-ratio", "hinf"):
        raise ParameterError(f"unknown objective {objective!r}")
    if isinstance(model, CoupledSystem):
        target_mode = 1 if target_mode is None else target_mode
        omega_t = _target_omega(model, target_mode)
        band = _band(omega_t)
        n = model.nm.n_branches if per_branch else 1
    elif per_branch:
        raise ParameterError("per-branch tuning needs the full coupled system")
    elif isinstance(model, ReducedModel):
        if target_mode is not None:
            fault = integer_fault(target_mode, 1)
            if fault is None and target_mode != model.target_mode:
                fault = f"must be the reduced model's mode {model.target_mode}, got {target_mode}"
            if fault:
                raise ParameterError(f"target mode {fault}")
        omega_t, band, n = model.omega_m, None, 1
    else:
        raise ParameterError(f"cannot tune a {type(model).__name__}")
    grid = hinf_grid(omega_t) if objective == "hinf" else None
    evaluate = _objective(model, objective, band, grid)

    if seed is None:
        rm = model if isinstance(model, ReducedModel) else reduce(model, target_mode)
        seed = closed_form_seed(rm)
    if (pair := _real_pair(seed)) is None:
        raise ParameterError(f"tuning seed must be a pair (R, L) of real numbers, got {seed!r}")
    r0, l0 = float(pair[0]), float(pair[1])
    # log10 space needs finite positive starts and default box (Python float products never warn)
    factors = ((BOUNDS_FACTORS_R, BOUNDS_FACTORS_L) if bounds is None else ((0.1, 10.0),) * 2)
    spans = tuple((v * lo, v * hi) for v, (lo, hi) in zip((r0, l0), factors))
    if not all(0 < lo and hi < np.inf for lo, hi in spans):
        raise ParameterError(f"tuning seed must be finite and positive, and so must its starts "
                             f"(0.1 to 10 times it){' and default box' if bounds is None else ''}, "
                             f"got ({r0}, {l0})")
    bounds = spans if bounds is None else bounds
    if fault := _box_fault(bounds):
        raise ParameterError(fault)

    def decode(rows):  # k points of 2n floats -> (rbar, lbar) rows, of k floats or (k, n) scales
        if per_branch:  # the vectorized power, elementwise over the stack
            powers = 10.0 ** np.array(rows)
            return powers[:, :n], powers[:, n:]
        # scalar powers: the vectorized power may differ in the last ulp,
        # which moves the simplex path
        return [10.0 ** row[0] for row in rows], [10.0 ** row[1] for row in rows]

    def summary(z):  # the (rbar, lbar) a start reports; the mean of one value is that value
        return tuple(10.0 ** float(np.mean(z[k:k + n])) for k in (0, n))

    lo, hi = (np.repeat(np.log10(side), n).tolist() for side in zip(*bounds))  # [R, L] ends

    def costs(z):  # what the searches minimize: inf outside the box and where not finite
        rows = z.tolist()
        inside = [j for j, row in enumerate(rows)
                  if not (any(map(lt, row, lo)) or any(map(gt, row, hi)))]
        out = [np.inf] * len(rows)
        if inside:
            values = evaluate(*decode([rows[j] for j in inside])).tolist()
            for j, value in zip(inside, values):
                if -np.inf < value < np.inf:
                    out[j] = -value
        return np.array(out)

    z_starts = np.array([np.log10(np.repeat([r0 * fr, l0 * fl], n))
                         for fr in (0.1, 1.0, 10.0) for fl in (0.1, 1.0, 10.0)])
    # the seed and the starts in one stack; like the seed, a start is evaluated
    # also outside the box
    seed_rows = (np.full(n, r0), np.full(n, l0)) if per_branch else (r0, l0)
    r_starts, l_starts = ([v0, *v] for v0, v in zip(seed_rows, decode(z_starts.tolist())))
    seed_objective, *start_objectives = evaluate(r_starts, l_starts).tolist()
    runs = []
    for z_start, start_obj, (z_opt, f_opt, iterations, converged) in zip(
            z_starts, start_objectives, _lockstep(costs, z_starts)):
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
    r_branches, l_branches = ((v[0] * model.s_shape for v in decode([z_opt.tolist()])) if per_branch
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
