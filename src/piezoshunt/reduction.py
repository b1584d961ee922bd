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
placement) or the negated FRF peak (hinf).  Its global stage is a
multi-start Nelder-Mead in (log rbar, log lbar).  On the complete model
that is the whole search.  On a ReducedModel the simplex stops at a loose
tolerance and a Newton polish (`optima`) solves the optimality conditions
exactly: the coalescence of the two pole pairs (Krenk 2005) for pole
placement and the equal-peak point (Soltani et al. 2014) for hinf.  A
failed polish falls back to the winning start run alone at the full
simplex tolerance.
"""

from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import add, gt, lt

import numpy as np

from .beam import modal_force_vector
from .coupled import (CoupledSystem, _admitted, _charge_form, _frf_values, _write_branch_rows,
                      eigen, frf)
from .coupled import state_matrix  # bench/tests/test_bench.py patches this binding
from .errors import NumericalError, ParameterError, integer_fault
from .optima import _band_peak, _coalescence, _equal_peaks

#: Default tuning band around the target mode for the pole-placement objective.
BAND_FACTORS = (0.5, 2.0)

#: Nelder-Mead initial step (log10 units), iteration cap and relative size tolerance.
NM_STEP, NM_MAX_ITER, NM_REL_TOL = 0.05, 500, 1e-6

#: Simplex tolerance of a ReducedModel's global stage, which the Newton polish finishes.
_GLOBAL_REL_TOL = 1e-3

#: The nine starts: the seed scaled by every pair of these factors.
START_FACTORS = (0.1, 1.0, 10.0)

#: 10 ** log10(v) errs by less than this factor for every positive float v.
_ROUND_TRIP = 1.0 + 1e-12

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
    The `nm.floating` smallest mu, one per ground-free component, are set to 0.
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
    mu[:nm.floating] = 0.0  # eigh sorts mu ascending
    if np.any(mu < 0):
        raise NumericalError(f"negative electrical eigenvalue {mu.min():.3e}")
    # canonical sign: largest-magnitude component positive (in place, exact)
    pivot = shapes[np.argmax(np.abs(shapes), axis=0), np.arange(shapes.shape[1])]
    shapes *= np.where(pivot < 0, -1.0, 1.0)
    return ElectricalModeSet(mu=mu, shapes=shapes)


@dataclass(frozen=True)
class ReducedModel:
    """Two-DOF electromechanical absorber model around one beam mode.

    The force enters and the displacement is read at the tip, so one gain,
    phi_k at the tip, scales both the input and the output.  The coupling
    `kappa` = alpha / omega_m is computed on read, so it follows an edited
    alpha or omega_m.  The public `a_matrix` and `gain_sq` admit their scales
    and call `_a_matrix` and `_gain_sq`, which `tune`'s kernels call directly.
    """

    target_mode: int
    omega_m: float
    zeta_m: float
    mu_star: float
    alpha: float      # modal coupling, >= 0 by shape-sign convention
    tip_gain: float   # phi_k at the tip

    @property
    def kappa(self):
        return self.alpha / self.omega_m

    def a_matrix(self, rbar, lbar):
        """State matrix of (eta, eta', vbar, ibar) at branch scales (rbar, lbar).

        Arrays of scales give a stack of matrices along their (broadcast) axes.
        """
        _admitted(rbar, lbar)
        return self._a_matrix(rbar, lbar)

    def _a_matrix(self, rbar, lbar):
        """`a_matrix` of scales (floats, arrays or float lists), without the admission."""
        lbar = np.asarray(lbar)
        w, al, loss = self.omega_m, self.alpha, -np.asarray(rbar) / lbar  # the broadcast shape
        a = np.empty(loss.shape + (4, 4))
        a[...] = ((0.0, 1.0, 0.0, 0.0),
                  (-w * w, -2.0 * self.zeta_m * w, al, 0.0),
                  (0.0, -al, 0.0, -1.0),
                  (0.0, 0.0, 0.0, 0.0))
        a[..., 3, 2] = self.mu_star / lbar
        a[..., 3, 3] = loss
        return a

    def gain_sq(self, rbar, lbar, omega):
        """|G(j omega)|^2 from the force input to the output at branch scales (rbar, lbar).

        Closed form of the RL-shunt absorber (Thomas, Ducarne & Deu 2012):
        with rho = rbar/lbar, eps = mu*/lbar and g the tip gain,

            G(s) = g^2 (s^2 + rho s + eps)
                   / [(s^2 + 2 zm wm s + wm^2)(s^2 + rho s + eps) + alpha^2 s (s + rho)],

        evaluated in real arithmetic in x = omega^2.  A sample at an exact
        pole is not finite; no floating-point warning is raised for it.  The
        scales and `omega` broadcast against each other.
        """
        _admitted(rbar, lbar)
        return self._gain_sq(rbar, lbar, omega)

    def _gain_sq(self, rbar, lbar, omega):
        """`gain_sq` without the admission."""
        x = omega * omega
        m, gain2 = self.omega_m * self.omega_m - x, (self.tip_gain * self.tip_gain) ** 2
        al2 = self.alpha * self.alpha
        rho, eps, c2 = rbar / lbar, self.mu_star / lbar, 2.0 * self.zeta_m * self.omega_m
        e = eps - x
        with np.errstate(all="ignore"):
            re = m * e - (c2 * rho + al2) * x
            im = omega * (m * rho + c2 * e + al2 * rho)
            num = e * e + rho * rho * x
            return gain2 * num / (re * re + im * im)


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
    optimum.  The dropped nonzero electrical modes act as shorts, but the
    `nm.floating` zero modes u0 hold their charge, an open circuit: their
    voltage -alpha0 eta, alpha0 = Thetat[k] u0, adds sum alpha0^2 to the
    modal stiffness.  It is folded into `omega_m`, so every closed form
    carries it, and `zeta_m` keeps the damping 2 zeta_k w_k of the beam mode.
    At M = 1 the reduction is then exact for one nonzero electrical mode,
    floating or not (tuned, two patches: a single shunt and a floating line
    have pole errors of about 4e-12, a line grounded at both ends 1.4e-2).
    """
    omega_k = _target_omega(sys, target_mode)
    c_eff = np.diag(sys.cap).copy()
    for j in range(sys.basis.m):
        if j != target_mode - 1:
            row = sys.theta_tilde[j]
            c_eff += np.outer(row, row) / sys.basis.omega[j] ** 2
    ems = electrical_modes(sys.nm, c_eff)
    nonzero = np.arange(sys.nm.floating, len(ems.mu))  # never empty: b_inc has rank >= 1

    theta_row = sys.theta_tilde[target_mode - 1]
    # group degenerate eigenvalues so the selection is basis independent
    groups = np.split(nonzero, np.nonzero(np.diff(ems.mu[nonzero]) > 1e-9 * ems.mu.max())[0] + 1)

    best = None
    for group in groups:
        strength = float(np.linalg.norm(ems.shapes[:, group].T @ theta_row))
        if best is None or strength > best[0] + 1e-15 * abs(best[0]):
            best = (strength, float(np.mean(ems.mu[group])))

    alpha, mu_star = best
    alpha0 = ems.shapes[:, :sys.nm.floating].T @ theta_row
    omega_m = float(np.sqrt(omega_k**2 + alpha0 @ alpha0))  # omega_k bit for bit when grounded
    return ReducedModel(
        target_mode=target_mode,
        omega_m=omega_m,
        zeta_m=float(sys.basis.zeta[target_mode - 1]) * (omega_k / omega_m),
        mu_star=mu_star,
        alpha=alpha,
        tip_gain=float(modal_force_vector(sys.basis)[target_mode - 1]),
    )


def closed_form_seed(rm):
    """Frequency-matching starting point (rbar0, lbar0) for the tuner.

    Places the electrical resonance at w_m * sqrt(1 + kappa^2) and sets the
    electrical loop damping ratio to kappa / sqrt(2).  A heuristic only; the
    numerical optimum from `tune` is authoritative.
    """
    if not (rm.alpha > 0 and rm.omega_m > 0):  # kappa = alpha / omega_m > 0
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
    """Optimized branch scales with achieved objective and run provenance.

    `converged` describes the returned (r, l): True when the Newton polish
    gave it, or when the search that produced it converged, that is the
    fallback run of a failed polish or, on a CoupledSystem, the winner's
    own simplex.  A start's `StartRecord.converged` describes its simplex only.
    """

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
    polished: bool = False  # (r, l) came from the Newton polish, not its fallback


def _nelder_mead(z0, rel_tol=NM_REL_TOL):
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
    below `rel_tol` relative to the vertex magnitude, or after NM_MAX_ITER
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

        if _simplex_converged(simplex, bound, rel_tol):
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


def _simplex_converged(simplex, bound, rel_tol):
    """Whether every vertex of the sorted simplex lies within rel_tol * (1 + its largest
    |coordinate|) of the best one, coordinate by coordinate; False when a coordinate is nan.

    `bound` is at least every |coordinate|, so an offset of rel_tol * (1 + bound) or
    more decides the test without scanning the whole simplex.
    """
    best = simplex[0]
    loose = rel_tol * (1.0 + bound)
    for vertex in simplex[1:]:
        for a, b in zip(vertex, best):
            if abs(a - b) >= loose:
                return False
    offsets = [abs(a - b) for vertex in simplex[1:] for a, b in zip(vertex, best)]
    if any(v != v for v in offsets):  # a nan coordinate makes an offset nan
        return False
    scale = 1.0 + max(abs(v) for v in chain.from_iterable(simplex))
    return max(offsets) < rel_tol * scale


def _lockstep(batch, starts, rel_tol=NM_REL_TOL):
    """Run one `_nelder_mead` search per start, all of them advancing together.

    Each round stacks the points every unfinished search asks for into one
    (k, d) array and makes one `batch` call, which maps it to an array of
    the k values; one `tolist` hands every search its values as Python
    floats.  When `batch` gives each row the value it gives that row alone,
    every search sees the values a separate run sees, so the results, in
    start order, equal separate runs bit for bit.  Each search converges at
    `rel_tol`.
    """
    searches = [_nelder_mead(z0, rel_tol) for z0 in starts]
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
    """Smallest damping ratio -Re/|lambda| over the eigenvalues |lambda| > 0 inside the band.

    Reduces along the last axis, so a stack of spectra gives one ratio per
    spectrum; -inf for a spectrum with no eigenvalue to keep.  With band None it is
    for spectra without zero modes, as the two-DOF model's (det A = wm^2 mu*/lbar > 0);
    a CoupledSystem's band, from 0.5 times the target frequency, excludes them.
    Of each conjugate pair the member with Im >= 0 is kept: numpy's real
    eigensolvers return exact conjugates and an exact 0 imaginary part for a real
    eigenvalue, and both members of a pair have the same ratio.
    """
    freq = np.abs(values)
    keep = freq > 0
    if band is not None:
        keep &= freq >= band[0]
        keep &= freq <= band[1]
    keep &= values.imag >= 0
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
    """The (k, B) branch values R_b, L_b of k rows of scales, as `_objective` takes them.

    Products with `s_shape`, as `rescaled` forms them; `tune` admits them where they enter.
    """
    return tuple(np.reshape(v, (len(v), -1)) * s_shape for v in (r, l))


def _a_stack(sys):
    """(r, l) -> the state matrices of the CoupledSystem `sys` at k rows of scales.

    The rows are as `_objective` takes them.  Each call writes the branch rows
    into a fresh stack of copies of one prepared state matrix, bit for bit
    `state_matrix(sys.rescaled(r_j, l_j))`.
    """
    template, b_inc, s_shape = state_matrix(sys), sys.nm.b_inc, sys.nm.s_shape

    def a_matrix(r, l):
        a = np.repeat(template[None], len(r), axis=0)
        _write_branch_rows(a, b_inc, *_branch_values(s_shape, r, l))
        return a
    return a_matrix


def _objective(model, objective, band=None, grid=None):
    """(r, l) -> `objective` of a ReducedModel or CoupledSystem at k rows of scales; larger is better.

    The kernel of `tune`'s rounds; values reported at one point come from
    `_objective_value` and `validate_reduction`, which read the public
    definitions.  A ReducedModel's kernels are its `_a_matrix` and `_gain_sq`;
    a CoupledSystem's state matrix and charge form are prepared here, once.
    The rows are lists of k floats or, for a CoupledSystem, (k, B) per-branch scales.
    "min-damping-ratio" is the smallest damping ratio inside `band` (None
    for all poles); "hinf" is the negated largest |G| on `grid`, the
    `hinf_grid` of the target frequency, and -inf when a sample is a pole.
    Each row gets the value it gets alone: LAPACK factors every matrix of a
    stack as it would a single one.  The kernels admit nothing: `tune`
    admits every scale and branch value they see where it enters.
    """
    reduced = isinstance(model, ReducedModel)
    if objective == "min-damping-ratio":
        a_matrix = model._a_matrix if reduced else _a_stack(model)
        return lambda r, l: _min_damping(np.linalg.eigvals(a_matrix(r, l)), band=band)
    if reduced:
        def values(r, l):
            peak = model._gain_sq(np.array(r)[:, None], np.array(l)[:, None], grid).max(axis=-1)
            return np.where(np.isfinite(peak), -np.sqrt(peak), -np.inf)
        return values
    form = _charge_form(model)
    # one kernel call per row; poles are stored as inf
    return lambda r, l: np.array([-np.max(np.abs(_frf_values(form, r_b, l_b, grid)[0]))
                                  for r_b, l_b in zip(*_branch_values(model.nm.s_shape, r, l))])


def _objective_value(objective, rm, r, l, grid=None):
    """The objective `tune` reports for the ReducedModel `rm` at the one point (r, l).

    "hinf" is minus the exact `_band_peak` on the band of `grid`;
    "min-damping-ratio" is the smallest damping ratio of the spectrum of
    `rm.a_matrix(r, l)`.  Returns a float.
    """
    if objective == "hinf":
        return -_band_peak(rm, r, l, grid)
    return float(_min_damping(np.linalg.eigvals(rm.a_matrix(r, l)), None))


def _polish(rm, objective, rbar, lbar, value, grid, bounds):
    """(rbar, lbar, objective) of the exact optimum that Newton finds from the global
    stage's winner (rbar, lbar), or None when the polish fails.

    `value` is the winner's objective on the simplex (for hinf, the winner
    is scored again by its `_band_peak`).  The polish fails when Newton
    fails, when its point lies outside `bounds` or when it scores worse than
    the winner.
    """
    if objective == "hinf":
        value = _objective_value(objective, rm, rbar, lbar, grid=grid)
        point = _equal_peaks(rm, rbar, lbar, grid)
    else:
        point = _coalescence(rm, rbar, lbar)
    if point is None:
        return None
    # on the lattice 10 ** log10(v) that the simplex decodes: a tune seeded with the
    # result starts its centre search exactly there
    point = [10.0 ** z for z in np.log10(point).tolist()]
    if not all(lo <= v <= hi for v, (lo, hi) in zip(point, bounds)):
        return None
    polished = _objective_value(objective, rm, *point, grid=grid)
    return (*point, polished) if polished >= value else None


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
        # chained: nan fails it too; the upper end keeps room for the log10 round trip
        if not (0 < lo < hi and float(hi) * _ROUND_TRIP < np.inf):
            return (f"{x} bounds must satisfy 0 < {x}_min < {x}_max < inf, "
                    f"got R [{box[0][0]}, {box[0][1]}], L [{box[1][0]}, {box[1][1]}]")
    return None


def tune(model, objective="min-damping-ratio", *, target_mode=None, seed=None,
         bounds=None, per_branch=False):
    """Optimize branch scales (rbar, lbar): a multi-start simplex in log space, then,
    on a ReducedModel, an exact Newton polish.

    `model` is a ReducedModel or a CoupledSystem (for the latter the target
    mode, 1 by default, fixes the evaluation band and the seed comes from its
    own reduction).  A ReducedModel fixes its own mode: a `target_mode` given
    with one must equal `model.target_mode`.  The nine starts are the
    closed-form seed scaled by the factor grid START_FACTORS^2; the best
    final objective wins, ties broken by lexicographic (rbar, lbar).  The
    starts advance in lockstep, each round's points evaluated as one stack,
    with the results of nine separate runs.  They converge at NM_REL_TOL on
    a CoupledSystem, whose result is the winner.

    A CoupledSystem's band and hinf grid sit on the beam mode's w_k, which
    the target poles of a strongly coupled floating network leave (M = 1,
    N = 2, gamma = 1e-3: tuned poles at 2.156 w_k; see `validate_reduction`).

    Scales are admitted where they enter, never per round: by the seed rule
    and the box.  A CoupledSystem's branch values, products with `s_shape`,
    may leave the floats, so `rescaled`'s rule admits its seed (before the
    seed rule), the stack of seed and starts, and the box's corners.

    On a ReducedModel the simplex is a global stage at the looser
    _GLOBAL_REL_TOL, and `_polish` finishes its winner: the pole coalescence
    (`_coalescence`) or the equal-peak point (`_equal_peaks`).  When the
    polish fails, the winner's start runs again alone at NM_REL_TOL, and
    `polished` is False.  `objective` is `_objective_value` at the returned
    (r, l): the smallest damping ratio of `eigvals`, or minus the exact band
    peak (`_band_peak`); the StartRecords keep the simplex stage's values.
    `converged` is that of the search that gave (r, l); see TuningResult.

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
        if target_mode is not None and (
                fault := integer_fault(target_mode, model.target_mode, model.target_mode)):
            raise ParameterError(f"target mode {fault}")
        omega_t, band, n = model.omega_m, None, 1
    else:
        raise ParameterError(f"cannot tune a {type(model).__name__}")
    reduced = isinstance(model, ReducedModel)
    if seed is None:
        seed = closed_form_seed(model if reduced else reduce(model, target_mode))
    if (pair := _real_pair(seed)) is None:
        raise ParameterError(f"tuning seed must be a pair (R, L) of real numbers, got {seed!r}")
    r0, l0 = float(pair[0]), float(pair[1])

    def admit(r, l):  # a complete model's branch values at k rows of scales; an inf is refused
        with np.errstate(over="ignore"):
            _admitted(*_branch_values(model.nm.s_shape, r, l))

    if not reduced:  # its seed is first a pair of branch scales, as in `rescaled`
        admit([r0], [l0])
    # log10 space needs finite positive starts and default box, with room for the
    # round trip 10 ** log10(v) (Python float products never warn)
    low, high = START_FACTORS[0], START_FACTORS[-1]
    factors = ((BOUNDS_FACTORS_R, BOUNDS_FACTORS_L) if bounds is None else ((low, high),) * 2)
    spans = tuple((v * lo, v * hi) for v, (lo, hi) in zip((r0, l0), factors))
    if not all(0 < lo and hi * _ROUND_TRIP < np.inf for lo, hi in spans):
        raise ParameterError(f"tuning seed must be finite and positive, and so must its starts "
                             f"({low:g} to {high:g} times it)"
                             f"{' and default box' if bounds is None else ''}, got ({r0}, {l0})")
    bounds = spans if bounds is None else bounds
    if fault := _box_fault(bounds):
        raise ParameterError(fault)

    def decode(rows):  # k points of 2n floats -> (rbar, lbar) rows, of k floats or (k, n) scales
        # scalar powers: numpy's vectorized power may differ from them in the last
        # ulp, by CPU, which moves the simplex path
        powers = [[10.0 ** v for v in row] for row in rows]
        if per_branch:
            return [p[:n] for p in powers], [p[n:] for p in powers]
        return [p[0] for p in powers], [p[1] for p in powers]

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
                         for fr in START_FACTORS for fl in START_FACTORS])
    # the seed and the starts in one stack; like the seed, a start is evaluated
    # also outside the box
    seed_rows = (np.full(n, r0), np.full(n, l0)) if per_branch else (r0, l0)
    r_starts, l_starts = ([v0, *v] for v0, v in zip(seed_rows, decode(z_starts.tolist())))
    if not reduced:  # this stack, and the box's corners widened for the log round trip:
        # every in-box row lies between them
        admit(r_starts, l_starts)
        admit(*([end[0] / _ROUND_TRIP, end[1] * _ROUND_TRIP] for end in bounds))
    grid = hinf_grid(omega_t) if objective == "hinf" else None
    evaluate = _objective(model, objective, band, grid)
    seed_objective, *start_objectives = evaluate(r_starts, l_starts).tolist()
    runs = []
    for z_start, start_obj, (z_opt, f_opt, iterations, converged) in zip(
            z_starts, start_objectives,
            _lockstep(costs, z_starts, _GLOBAL_REL_TOL if reduced else NM_REL_TOL)):
        (r_start, l_start), (r_opt, l_opt) = summary(z_start), summary(z_opt)
        rec = StartRecord(
            r0=r_start, l0=l_start, r_opt=r_opt, l_opt=l_opt,
            objective=-f_opt, seed_objective=start_obj,
            iterations=iterations,
            # a simplex that shrank outside the box found no feasible point
            converged=converged and bool(np.isfinite(f_opt)),
        )
        runs.append((rec, z_opt, z_start))

    winner, z_opt, z_start = min(runs, key=lambda run: (-run[0].objective, run[0].r_opt,
                                                        run[0].l_opt))
    records = tuple(rec for rec, *_ in runs)
    r, l, value, polished = winner.r_opt, winner.l_opt, winner.objective, False
    converged = winner.converged
    if reduced:
        finish = _polish(model, objective, r, l, value, grid, bounds)
        if finish is None:  # the winner's start alone, at the full tolerance
            ((z_opt, f_opt, _, converged),) = _lockstep(costs, [z_start])
            converged = converged and f_opt < np.inf  # as a StartRecord's
            r, l = summary(z_opt)
            value = _objective_value(objective, model, r, l, grid=grid) if f_opt < np.inf else -np.inf
        else:
            (r, l, value), polished, converged = finish, True, True
    r_branches, l_branches = ((v[0] * model.nm.s_shape for v in decode([z_opt.tolist()]))
                              if per_branch else (None, None))
    improving = value > seed_objective + 1e-9 * max(abs(seed_objective), 1e-300)
    return TuningResult(
        r=r, l=l, objective=value,
        kind=objective, converged=converged,
        improving=improving, seed=(r0, l0), starts=records,
        r_branches=r_branches, l_branches=l_branches, polished=polished,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Reduced-vs-complete model comparison at the tuned parameters (tr.r, tr.l).

    The reduced model's objective there is `tr.objective`.
    """

    pole_error: float      # worst relative distance, reduced pair -> full pole
    full_objective: float  # tr.kind objective of the complete model (min damping: in its band)


def validate_reduction(sys, rm, tr):
    """Evaluate the reduced-model tuning on the complete model; runs no optimizer.  A re-tune
    gap needs `tune(sys, tr.kind, target_mode=rm.target_mode, seed=(tr.r, tr.l))`.

    Every number is read from the public definitions at (tr.r, tr.l): the
    complete model's `eigen` spectrum (minimum damping inside `_band`) or its
    `frf` on the `hinf_grid` (minus the largest magnitude), and the reduced
    model's `a_matrix` spectrum.  The complete model's band and grid sit on
    the beam mode (`_target_omega`), as in `tune`, while the reduced model's
    `tr.objective` sits on `rm.omega_m`, which a floating network stiffens.
    So the complete model's band and grid miss target poles that a
    strongly coupled floating network moves off the beam mode: at M = 1,
    N = 2, gamma = 1e-3 the tuned line's poles sit at 2.156 w_k and its
    `full_objective` reads -inf, though the reduction is exact there.
    The pole error compares each reduced pole with Im > 0, one per conjugate pair
    (the reduced eigenvalues are exact conjugates), with the nearest complete-model pole.
    """
    if tr.r_branches is not None:  # its geometric-mean scales were never tuned
        raise ParameterError("cannot validate a per-branch tuning result")
    r, l = tr.r, tr.l
    tuned = sys.rescaled(r, l)
    sol = eigen(tuned)

    red_vals = np.linalg.eigvals(rm.a_matrix(r, l))
    red_pairs = red_vals[red_vals.imag > 0]
    pole_error = max((float(np.min(np.abs(sol.values - lam)) / abs(lam)) for lam in red_pairs),
                     default=0.0)

    omega_t = _target_omega(sys, rm.target_mode)
    if tr.kind == "hinf":
        full_objective = -float(np.max(frf(tuned, hinf_grid(omega_t)).magnitude))
    else:
        full_objective = float(_min_damping(sol.values, _band(omega_t)))
    return ValidationReport(pole_error=pole_error, full_objective=full_objective)
