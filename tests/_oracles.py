"""Independent reference computations used by the tests.

Everything here is deliberately written against the defining equations, not
against the library code paths it checks.
"""

import itertools
import math

import mpmath
import numpy as np
import scipy.linalg

from piezoshunt.beam import _raw_shape, eval_mode, modal_force_vector, solve_wavenumbers
from piezoshunt.coupled import CoupledSystem, _charge_form, _residue_frf, state_matrix
from piezoshunt.errors import ParameterError
from piezoshunt.reduction import (BOUNDS_FACTORS_L, BOUNDS_FACTORS_R, NM_MAX_ITER, NM_REL_TOL,
                                  NM_STEP, ReducedModel, StartRecord, _band, closed_form_seed,
                                  hinf_grid, reduce)


def characteristic_residual(x):
    """Scaled clamped-free characteristic function cos(x) + sech(x).

    Equivalent to 1 + cos(x)*cosh(x) = 0 divided through by cosh(x); the
    division keeps the residual O(1) so root quality is measurable in double
    precision for every supported mode (the raw product grows like cosh).
    """
    return np.cos(x) + 1.0 / np.cosh(x)


def bisect_wavenumber(k, iterations=200):
    """k-th root of 1 + cos(x)*cosh(x) = 0 by plain bisection on ((k-1)pi, k pi)."""
    f = lambda x: 1.0 + math.cos(x) * math.cosh(x)
    lo, hi = (k - 1) * math.pi + 1e-9, k * math.pi
    flo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# 4-point Gauss-Legendre rule on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)


def panel_quad(f, a, b, panels):
    """Composite 4-point Gauss-Legendre quadrature with fixed panels."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    x = (mid[:, None] + half * _GL_X[None, :]).ravel()
    w = np.broadcast_to(half * _GL_W, (panels, _GL_X.size)).ravel()
    return float(np.dot(w, f(x)))


def quadrature_norms(beam, m, panels=1024):
    """1/sqrt(modal mass) of the raw cantilever shapes, the mass by `panel_quad`."""
    return np.array([1.0 / np.sqrt(panel_quad(
        lambda x: beam.mass_per_length * _raw_shape(beam, beta_l, x, 0) ** 2,
        0.0, beam.length, panels)) for beta_l in solve_wavenumbers(m)])


def modal_gram(basis, panels=1024):
    """Gram matrix of rhoA-weighted mode products; identity for an exact basis."""
    g = np.empty((basis.m, basis.m))
    for j in range(1, basis.m + 1):
        for k in range(j, basis.m + 1):
            f = lambda x: basis.beam.mass_per_length * eval_mode(basis, j, x) * eval_mode(basis, k, x)
            g[j - 1, k - 1] = g[k - 1, j - 1] = panel_quad(f, 0.0, basis.beam.length, panels)
    return g


def tip_compliance(basis, m=None):
    """Truncated static tip compliance sum(phi_k(L)^2 / omega_k^2) over k<=m.

    Converges monotonically from below to the closed form L^3/(3 EI).
    """
    if m is None:
        m = basis.m
    phi_tip = modal_force_vector(basis)
    return float(np.sum(phi_tip[:m] ** 2 / basis.omega[:m] ** 2))


def node_capacitances(patches):
    """Diagonal N x N matrix of the blocked patch capacitances."""
    return np.diag(patches.cp)


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


def generalized_eigh(k, c):
    """(mu, shapes) of K u = mu C u with u^T C u = 1, by LAPACK's sygvd routine."""
    return scipy.linalg.eigh(k, c)


def char_poly_roots(a):
    """Eigenvalues via Faddeev-LeVerrier characteristic coefficients + np.roots."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.eye(n)
    for k in range(1, n + 1):
        am = a @ m
        c = -np.trace(am) / k
        coeffs[k] = c
        m = am + c * np.eye(n)
    return np.roots(coeffs)


def match_spectra(values_a, values_b):
    """Greedy nearest matching; returns the worst distance over max magnitude."""
    values_a = np.asarray(values_a, dtype=complex)
    pool = list(np.asarray(values_b, dtype=complex))
    scale = max(np.max(np.abs(values_a)), np.max(np.abs(values_b)), 1e-300)
    worst = 0.0
    for lam in values_a:
        dists = [abs(lam - other) for other in pool]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j] / scale)
        pool.pop(j)
    return worst


def grid_search(objective, r_values, l_values):
    """Dense evaluation of objective(r, l); returns (best_value, r, l)."""
    best = (-np.inf, None, None)
    for r in r_values:
        for l in l_values:
            val = objective(r, l)
            if val > best[0]:
                best = (val, r, l)
    return best


def frf_pointwise(a, b, c, omega):
    """c^T (j w I - a)^-1 b by one dense solve per grid point; poles as inf.

    A point whose solve raises (exactly singular) or gives a non-finite value
    is stored as inf and flagged in the returned boolean array.
    """
    n = a.shape[0]
    eye = np.eye(n)
    g = np.empty(len(omega), dtype=complex)
    pole = np.zeros(len(omega), dtype=bool)
    for idx, w in enumerate(omega):
        try:
            x = np.linalg.solve(1j * w * eye - a, b)
            val = c @ x
        except np.linalg.LinAlgError:
            val = complex(np.inf, 0.0)
        if not np.isfinite(val.real) or not np.isfinite(val.imag):
            pole[idx] = True
            val = complex(np.inf, 0.0)
        g[idx] = val
    return g, pole


def frf_mpmath(sys, omega, dps):
    """(G, slope) of `sys` at `dps` digits for each w of `omega`, rounded to complex and float.

    G = c^T (j w I - A)^-1 b and slope = |d ln|G|^2 / d ln w| = |2 w Re(G'/G)|,
    with G' = -j c^T (j w I - A)^-2 b, the factor by which a relative error in
    the model data can grow in G at w.  A is the state matrix of the defining
    equations, its quotients formed at `dps` digits from the model's float
    parameters: the float `state_matrix` rounds them, which alone moves G by
    up to 8.4e-9 relative next to a resonance under a low-impedance shunt.
    """
    with mpmath.workdps(dps):
        a = _state_matrix_mpmath(sys)
        n = a.rows
        b = mpmath.matrix(sys.force_map.tolist())
        c = sys.output_map.tolist()
        g, slope = [], []
        for w in omega:
            mat = -a
            for k in range(n):
                mat[k, k] += mpmath.mpc(0, w)
            x = mpmath.lu_solve(mat, b)
            y = mpmath.lu_solve(mat, x)
            value = mpmath.fsum(c[k] * x[k] for k in range(n))
            derivative = -1j * mpmath.fsum(c[k] * y[k] for k in range(n))
            g.append(complex(value))
            slope.append(float(abs(2 * w * mpmath.re(derivative / value))))
    return np.array(g), np.array(slope)


def _state_matrix_mpmath(sys):
    """The state matrix of the equations in `coupled`'s docstring at the working precision."""
    m, p, bn = sys.basis.m, sys.nm.n_nodes, sys.nm.n_branches
    mpf = mpmath.mpf
    a = mpmath.zeros(2 * m + p + bn)
    for k in range(m):
        w, z = mpf(sys.basis.omega[k]), mpf(sys.basis.zeta[k])
        a[k, m + k] = 1
        a[m + k, k] = -w * w
        a[m + k, m + k] = -2 * z * w
        for j in range(p):
            a[m + k, 2 * m + j] = mpf(sys.theta_tilde[k, j])
            a[2 * m + j, m + k] = -mpf(sys.theta_tilde[k, j]) / mpf(sys.cap[j])
    for j in range(p):
        for b in range(bn):
            a[2 * m + j, 2 * m + p + b] = -mpf(sys.nm.b_inc[j, b]) / mpf(sys.cap[j])
            a[2 * m + p + b, 2 * m + j] = mpf(sys.nm.b_inc[j, b]) / mpf(sys.nm.l_b[b])
    for b in range(bn):
        a[2 * m + p + b, 2 * m + p + b] = -mpf(sys.nm.r_b[b]) / mpf(sys.nm.l_b[b])
    return a


def rk4_stepwise(sys, x0, dt, t_final):
    """(times, states) of classical RK4 over x' = A x, one step at a time.

    The per-step loop `timesim.integrate` ran before free runs were block
    propagated.  A comes from the package's `state_matrix`; no input or
    step-bound checks are made.
    """
    a = state_matrix(sys)
    n_steps = int(np.ceil(t_final / dt - 1e-12))
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((n_steps + 1, x.size))
    states[0] = x
    for m in range(1, n_steps + 1):
        k1 = a @ x
        k2 = a @ (x + 0.5 * dt * k1)
        k3 = a @ (x + 0.5 * dt * k2)
        k4 = a @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[m] = x
    return dt * np.arange(n_steps + 1), states


def energy_pointwise(sys, states):
    """(H, P_diss) per state from the defining sums, one state at a time."""
    m, p = sys.basis.m, sys.nm.n_nodes
    h = np.empty(len(states))
    p_diss = np.empty(len(states))
    for k, x in enumerate(states):
        eta, vel = x[:m], x[m:2 * m]
        v, cur = x[2 * m:2 * m + p], x[2 * m + p:]
        h[k] = 0.5 * (np.sum(vel**2) + np.sum(sys.basis.omega**2 * eta**2)
                      + np.sum(sys.cap * v**2) + np.sum(sys.nm.l_b * cur**2))
        p_diss[k] = (np.sum(2.0 * sys.basis.zeta * sys.basis.omega * vel**2)
                     + np.sum(sys.nm.r_b * cur**2))
    return h, p_diss


def conserved_charges(nm):
    """Orthonormal basis (P x k) of the node vectors y with y^T b_inc = 0: one
    indicator per ground-free component, whose total charge no branch changes."""
    return scipy.linalg.null_space(nm.b_inc.T)


def loop_currents(nm):
    """Orthonormal basis (B x k) of the branch vectors c on the R = 0 branches with
    b_inc c = 0: the loops of those branches, gnd a vertex, whose flux is conserved."""
    lossless = np.asarray(nm.r_b) == 0
    loops = np.zeros((nm.n_branches, 0))
    if lossless.any():
        null = scipy.linalg.null_space(nm.b_inc[:, lossless])
        loops = np.zeros((nm.n_branches, null.shape[1]))
        loops[lossless] = null
    return loops


def zero_mode_count(nm):
    """Zero eigenvalues of the coupled model from the null spaces of the incidence
    matrix: a conserved charge per ground-free component plus a flux per loop."""
    return conserved_charges(nm).shape[1] + loop_currents(nm).shape[1]


def tags_pointwise(sys, values, vectors):
    """Dominance tag per eigenpair, one eigenvector at a time.

    "zero" for the `zero_mode_count` smallest |lambda|; otherwise
    "mechanical" if the modal kinetic plus strain energy of |w| exceeds the
    capacitive plus inductive energy, else "electrical".
    """
    m, p = sys.basis.m, sys.nm.n_nodes
    zero = set(np.argsort(np.abs(values), kind="stable")[:zero_mode_count(sys.nm)].tolist())
    tags = []
    for j in range(len(values)):
        if j in zero:
            tags.append("zero")
            continue
        w = vectors[:, j]
        eta, vel = w[:m], w[m:2 * m]
        v, cur = w[2 * m:2 * m + p], w[2 * m + p:]
        mech = 0.5 * (np.sum(np.abs(vel) ** 2) + np.sum(sys.basis.omega**2 * np.abs(eta) ** 2))
        elec = 0.5 * (np.sum(sys.cap * np.abs(v) ** 2) + np.sum(sys.nm.l_b * np.abs(cur) ** 2))
        tags.append("mechanical" if mech > elec else "electrical")
    return tuple(tags)


def nelder_mead_lists(f, z0, steps=None, sorted_values=None, rel_tol=NM_REL_TOL):
    """Nelder-Mead with the simplex as a Python list of vertex arrays.

    The list-based loop `reduction._nelder_mead` ran before its simplex became
    one array; same steps, constants and return value (z, f, iterations,
    converged).  Vertices are sorted stably: vertices of equal value keep
    their order.  A `steps` list, when given, receives the name of the step
    each iteration takes: "expand", "reflect", "contract" or "shrink"; a
    `sorted_values` list receives the vertex values after each sort.  The
    simplex converges at diameter `rel_tol` relative to the vertex magnitude.
    """
    steps = [] if steps is None else steps
    sorted_values = [] if sorted_values is None else sorted_values
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
        order = np.argsort(values, kind="stable")  # vertices of equal value keep their order
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        sorted_values.append(values.copy())

        diameter = max(np.max(np.abs(v - simplex[0])) for v in simplex[1:])
        scale = 1.0 + max(np.max(np.abs(v)) for v in simplex)
        if diameter < rel_tol * scale:
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
            steps.append("expand" if f_e < f_r else "reflect")
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
            steps.append("reflect")
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            f_c = f(contracted)
            steps.append("contract" if f_c < values[-1] else "shrink")
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                for j in range(1, d + 1):
                    simplex[j] = simplex[0] + 0.5 * (simplex[j] - simplex[0])
                    values[j] = f(simplex[j])

    best = int(np.argmin(values))
    return simplex[best], values[best], iterations, converged


def nelder_mead_array(f, z0, rel_tol=NM_REL_TOL):
    """Nelder-Mead with the simplex as one array, calling `f` once per point.

    The loop `reduction._nelder_mead` ran before its searches were driven in
    lockstep; same steps, constants, tolerance and return value (z, f,
    iterations, converged) as `nelder_mead_lists`.
    """
    z0 = np.asarray(z0, dtype=float)
    d = len(z0)
    simplex = np.tile(z0, (d + 1, 1))
    simplex[np.arange(1, d + 1), np.arange(d)] += NM_STEP
    values = np.array([f(v) for v in simplex])

    iterations = 0
    converged = False
    while iterations < NM_MAX_ITER:
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]

        diameter = np.abs(simplex[1:] - simplex[0]).max()
        scale = 1.0 + np.abs(simplex).max()
        if diameter < rel_tol * scale:
            converged = True
            break

        iterations += 1
        centroid = simplex[:-1].mean(axis=0)
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
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                values[1:] = [f(v) for v in simplex[1:]]

    best = int(np.argmin(values))
    return simplex[best].copy(), float(values[best]), iterations, converged


def min_damping_pointwise(values, band):
    """Smallest damping ratio -Re/|lambda| of one spectrum, over the eigenvalues
    |lambda| > 0 inside `band` (None: all) and with Im >= 0 (one per conjugate
    pair); -inf when none is left."""
    freq = np.abs(values)
    scale = freq.max()
    keep = freq > 0
    if band is not None:
        keep &= (freq >= band[0]) & (freq <= band[1])
    keep &= values.imag >= -1e-12 * scale
    if not keep.any():
        return -np.inf
    return float((-values[keep].real / freq[keep]).min())


def min_norm_enumerated(points):
    """Length of the shortest vector in the convex hull of `points` (rows), by enumeration.

    The shortest vector is the affine hull's shortest point of some face
    whose weights are all nonnegative; every subset of the points is tried.
    """
    points = np.asarray(points, dtype=float)
    best = np.inf
    for size in range(1, len(points) + 1):
        for subset in itertools.combinations(range(len(points)), size):
            q = points[list(subset)]
            kkt = np.ones((size + 1, size + 1))
            kkt[:size, :size], kkt[size, size] = q @ q.T, 0.0
            w = np.linalg.lstsq(kkt, np.eye(size + 1)[size], rcond=None)[0][:size]
            if np.all(w >= -1e-12) and abs(w.sum() - 1.0) < 1e-9:
                best = min(best, float(np.linalg.norm(w @ q)))
    return best


def objective_pointwise(objective, model, r, l, band, grid):
    """One objective evaluation from freshly built matrices; larger is better.

    A CoupledSystem is rescaled to (r, l), scalar or per-branch scales, and
    its state matrix and charge form are built anew; its |G| is read from the
    residues of that one state matrix, a stack of one row (the public `frf`
    is the charge form, to 1e-10 of the peak).  A ReducedModel's state matrix
    is written out from the two-DOF equations, its |G|^2 is its closed-form
    `gain_sq` at the one point.
    """
    if isinstance(model, CoupledSystem):
        sys_ = model.rescaled(r, l)
        if objective == "min-damping-ratio":
            return min_damping_pointwise(np.linalg.eigvals(state_matrix(sys_)), band)
        _, magnitude, _, _ = _residue_frf(_charge_form(sys_), state_matrix(sys_)[None],
                                          sys_.nm.r_b[None], sys_.nm.l_b[None], grid)
        return -float(np.max(magnitude))  # poles are stored as inf
    if objective == "min-damping-ratio":
        w, z, al = model.omega_m, model.zeta_m, model.alpha
        a = np.array([[0.0, 1.0, 0.0, 0.0],
                      [-w * w, -2.0 * z * w, al, 0.0],
                      [0.0, -al, 0.0, -1.0],
                      [0.0, 0.0, model.mu_star / l, -r / l]])
        return min_damping_pointwise(np.linalg.eigvals(a), band)
    peak = model.gain_sq(r, l, grid).max()
    return -float(np.sqrt(peak)) if np.isfinite(peak) else -np.inf


def tune_sequential(model, objective="min-damping-ratio", *, target_mode=None, bounds=None,
                    nelder_mead=nelder_mead_array, rel_tol=NM_REL_TOL):
    """The `StartRecord`s of a uniform `reduction.tune`'s simplex, one start after another.

    The multi-start loop `tune` ran before its starts advanced in lockstep:
    the nine starts of the 3x3 factor grid around the closed-form seed, each
    a separate `nelder_mead` run over log10 scales in the box, one
    `objective_pointwise` call per point, each run converging at `rel_tol`.
    The records are in start order.
    """
    if isinstance(model, ReducedModel):
        omega_t, band, rm = model.omega_m, None, model
    else:
        target_mode = target_mode or 1
        omega_t = float(model.basis.omega[target_mode - 1])
        band, rm = _band(omega_t), reduce(model, target_mode)
    grid = hinf_grid(omega_t) if objective == "hinf" else None
    r0, l0 = closed_form_seed(rm)

    def decode(z):
        return 10.0 ** z[0], 10.0 ** z[1]

    if bounds is None:
        bounds = (np.multiply(BOUNDS_FACTORS_R, r0), np.multiply(BOUNDS_FACTORS_L, l0))
    (r_lo, r_hi), (l_lo, l_hi) = bounds
    lo, hi = np.log10([r_lo, l_lo]), np.log10([r_hi, l_hi])

    def cost(z):
        if ((z < lo) | (z > hi)).any():
            return np.inf
        value = objective_pointwise(objective, model, *decode(z), band, grid)
        return -value if np.isfinite(value) else np.inf

    starts = []
    for fr in (0.1, 1.0, 10.0):
        for fl in (0.1, 1.0, 10.0):
            z_start = np.log10([r0 * fr, l0 * fl])
            start_obj = objective_pointwise(objective, model, *decode(z_start), band, grid)
            z_opt, f_opt, iterations, converged = nelder_mead(cost, z_start, rel_tol=rel_tol)
            starts.append(StartRecord(*decode(z_start), *decode(z_opt),
                                      objective=-f_opt, seed_objective=start_obj,
                                      iterations=iterations,
                                      converged=converged and bool(np.isfinite(f_opt))))
    return tuple(starts)


def coalescence_continued(zeta_m, kappa):
    """(R, E, a, b) of the double pair, by Newton on the four coefficient equations.

    (s^2 + z s + 1)(s^2 + R s + E) + k s (s + R) = (s^2 + a s + b)^2, with
    z = 2 zeta_m and k = kappa^2, matched coefficient by coefficient.  The
    root at z = 0, R = 2 kappa sqrt(1 + k) and E = (1 + k)^2, is continued to
    z in n = ceil(z / kappa) equal steps, each solve started from the last
    root stepped along its tangent du/dz = -J^-1 dF/dz, dF/dz = (1, R, E, 0):
    with fewer steps Newton picks a worse root where zeta_m >> kappa.
    """
    k = kappa * kappa
    q = 1.0 + k

    def residual(u, z):
        big_r, big_e, a, b = u
        return np.array([big_r + z - 2.0 * a, big_e + z * big_r + q - a * a - 2.0 * b,
                         z * big_e + q * big_r - 2.0 * a * b, big_e - b * b])

    def jacobian(u, z):
        _, _, a, b = u
        return np.array([[1.0, 0.0, -2.0, 0.0], [z, 1.0, -2.0 * a, -2.0],
                         [q, z, -2.0 * b, -2.0 * a], [0.0, 1.0, 0.0, -2.0 * b]])

    u = np.array([2.0 * kappa * math.sqrt(q), q * q, kappa * math.sqrt(q), q])
    n = max(1, math.ceil(2.0 * zeta_m / kappa))
    for j in range(n):
        z, dz = 2.0 * zeta_m * j / n, 2.0 * zeta_m / n
        u = u - np.linalg.solve(jacobian(u, z), [1.0, u[0], u[1], 0.0]) * dz
        for _ in range(50):
            step = np.linalg.solve(jacobian(u, z + dz), residual(u, z + dz))
            u = u - step
            if np.all(np.abs(step) <= 1e-12 * (1.0 + np.abs(u))):
                break
        else:
            raise AssertionError(f"no root at z = {z + dz}")
    return u
