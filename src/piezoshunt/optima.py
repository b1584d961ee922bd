"""Exact optima of the two-DOF absorber model (`reduction.ReducedModel`) by Newton.

The two tuning objectives have optimality conditions in closed form.
Pole placement takes the point where the two pole pairs coalesce (Krenk
2005, J. Struct. Eng. 131:1209): four polynomial coefficient equations.
That is the optimum, with mechanical damping too (see `_coalescence`).
The H-infinity optimum is the equal-peak point (Soltani, Kerschen,
Tondreau & Deraemaeker 2014, Smart Mater. Struct. 23:125014): both peaks
of |G| in the band are stationary, equal, and no change of the scales
lowers both.
`reduction.tune` solves them first from an exact start, the undamped
coalescence or the closed-form seed, and from the winner of its simplex
only when that point is refused; the derivatives are written out by hand.
Everything is dimensionless: s = wm sigma, rho = wm R, eps = wm^2 E and
omega^2 = wm^2 y.
"""

from __future__ import annotations

import math

import numpy as np

#: Newton polish: step cap and step tolerance relative to the point.
NEWTON_MAX_STEPS, NEWTON_TOL = 20, 1e-10

#: The relative size of the change of (R, E) that splits the pole-placement optimum's
#: double pair, so that `eigvals` resolves the two pairs (see `_coalescence`).
COALESCENCE_OFFSET = 1e-8


def _newton(system, u):
    """Newton's method on `system`, u -> (residual, Jacobian), from the point u.

    Returns (root, steps) once a step is below NEWTON_TOL relative to the
    point, or None when the Jacobian is singular, a value is not finite or
    out of the floats' range, or NEWTON_MAX_STEPS steps pass first.
    """
    u = np.asarray(u, dtype=float)
    for steps in range(1, NEWTON_MAX_STEPS + 1):
        try:
            residual, jacobian = system(u)
            step = np.linalg.solve(jacobian, residual)
        # math's overflow, domain and zero-division errors, or a singular Jacobian
        except (ArithmeticError, ValueError, np.linalg.LinAlgError):
            return None
        with np.errstate(all="ignore"):  # a step that leaves the floats fails below
            u = u - step
        if not np.all(np.isfinite(u)):
            return None
        if np.all(np.abs(step) <= NEWTON_TOL * (1.0 + np.abs(u))):
            return u, steps
    return None


def _scales(rm, big_r, big_e):
    """The branch scales (rbar, lbar) of the `_dimensionless` R and E."""
    lbar = rm.mu_star / (big_e * rm.omega_m**2)
    return float(big_r * rm.omega_m * lbar), float(lbar)


def _dimensionless(rm, rbar, lbar):
    """(R, E, z, k) at the scales (rbar, lbar): rho / wm, eps / wm^2, 2 zm and kappa^2."""
    w = rm.omega_m
    return rbar / lbar / w, rm.mu_star / lbar / (w * w), 2.0 * rm.zeta_m, rm.kappa**2


def _undamped_coalescence(rm):
    """The scales of the coalescence at zm = 0, in closed form: R = 2 kappa sqrt(1 + kappa^2)
    and E = (1 + kappa^2)^2, where the double pair sigma^2 + R/2 sigma + 1 + kappa^2 has
    the damping ratio kappa / 2."""
    q = 1.0 + rm.kappa**2
    return _scales(rm, 2.0 * rm.kappa * math.sqrt(q), q * q)


def _coalescence(rm, rbar, lbar, continued=False):
    """The scales near (rbar, lbar) at which the two pole pairs coincide, and the Newton
    steps taken, or None.

    In s = wm sigma, rho = wm R and eps = wm^2 E, the characteristic polynomial
    (sigma^2 + 2 zm sigma + 1)(sigma^2 + R sigma + E) + kappa^2 sigma (sigma + R)
    equals (sigma^2 + a sigma + b)^2: four coefficient equations in
    (R, E, a, b), solved by Newton.  That double pair maximizes the smallest
    damping ratio, a / (2 sqrt b) (Krenk 2005, J. Struct. Eng. 131:1209),
    with zm > 0 too: on the 193 Newton-path models of the tests' 200 random
    models a local simplex from the returned point gains at most 1e-7
    relative.  On one (zm / kappa = 1.59) a / (2 sqrt b) is 0.7541017328, the
    returned point reads 0.7541017253, and fine simplexes from it reach
    0.7541017288 at most.

    With `continued`, (rbar, lbar) is the root at zm = 0
    (`_undamped_coalescence`), continued to zm: solved at z = 2 zm j / n,
    j = 1..n, with n = ceil(2 zm / kappa) so that z moves by at most kappa
    per solve.  On 400 random models with zm up to 10 kappa (and 0.5) one
    solve picked a worse root in 236, eight equal steps in 117, this rule in
    none.  Each solve starts from the last root stepped along its tangent,
    du = -J^-1 (dF/dz) dz with dF/dz = (1, R, E, 0), which starts it near
    its root where zm >> kappa (on 400 models with zm up to just below
    critical: 8 167 Newton steps in all and 67 at most, against 23 726 and
    212 from the last root alone).  A continuation of more than
    NEWTON_MAX_STEPS solves is not tried.

    None also from critical damping on: at 2 zm = (2 - t) c, with
    t = sqrt(2 kappa) and c^2 = 1 + kappa + t, the coalescence is the
    quadruple pole sigma = -c (R = (2 + t) c, E = c^4).  From there on the
    four poles can all be real, and that plateau of smallest damping ratio 1
    beats every coalescence of complex pairs; past it Newton also reaches
    other, worse roots.

    At the double pole `eigvals` errs by about sqrt(machine epsilon), 1.6e-7
    in the damping ratio, and a complete model at the same scales errs
    otherwise.  So the returned scales split the double root s0: (R, E)
    move by the real (dR, dE) with dp(s0) = eps a R (1 - a^2 / 4b) s0^2,
    eps = COALESCENCE_OFFSET, where dp/dR = s (s^2 + z s + 1 + k) and
    dp/dE = s^2 + z s + 1.  To first order the roots move to
    s0 (1 +- sqrt(eps a R / 4b)), along their ray, so both pairs keep the
    damping ratio a / (2 sqrt b) and `eigvals` resolves them.  At zm = 0,
    or where that 2x2 system is singular, R is lowered by the fraction eps
    instead.  At zm = 0 that split is along the ray as well; with zm > 0 it
    moves the two damping ratios apart, which lost up to 1.35e-5 relative on
    the random models, against at most 1e-7 with the split along the ray.
    """
    big_r, big_e, z_m, k = _dimensionless(rm, rbar, lbar)
    n, kappa, t = 1, math.sqrt(k), math.sqrt(2.0 * math.sqrt(k))
    if z_m >= (2.0 - t) * math.sqrt(1.0 + kappa + t):
        return None
    if continued and z_m > kappa:
        if z_m > NEWTON_MAX_STEPS * kappa:
            return None
        n = math.ceil(z_m / kappa)

    def system(u, z):
        big_r, big_e, a, b = u.tolist()
        residual = (big_r + z - 2.0 * a,
                    big_e + z * big_r + 1.0 + k - a * a - 2.0 * b,
                    z * big_e + (1.0 + k) * big_r - 2.0 * a * b,
                    big_e - b * b)
        jacobian = ((1.0, 0.0, -2.0, 0.0),
                    (z, 1.0, -2.0 * a, -2.0),
                    (1.0 + k, z, -2.0 * b, -2.0 * a),
                    (0.0, 1.0, 0.0, -2.0 * b))
        return np.array(residual), np.array(jacobian)

    if continued:  # the root at z = 0, stepped along its tangent before each solve
        u, z = np.array((big_r, big_e, 0.5 * big_r, math.sqrt(big_e))), 0.0
    else:
        u = (big_r, big_e, 0.5 * (big_r + z_m), math.sqrt(big_e))
    steps = 0
    for j in range(1, n + 1):
        if continued:  # dF/dz = (1, R, E, 0), so du/dz = -J^-1 dF/dz
            try:
                u = u - np.linalg.solve(system(u, z)[1], (1.0, u[0], u[1], 0.0)) * (z_m / n)
            except np.linalg.LinAlgError:
                return None
        z = z_m * j / n
        if (found := _newton(lambda u: system(u, z), u)) is None:
            return None
        u, steps = found[0], steps + found[1]
    big_r, big_e, a, b = u.tolist()
    scales = (big_r * (1.0 - COALESCENCE_OFFSET), big_e)
    if z_m > 0.0:  # split the double root s along its ray (see above)
        s = complex(-0.5 * a, math.sqrt(max(b - 0.25 * a * a, 0.0)))
        dp_de = s * s + z_m * s + 1.0
        dp_dr = s * (dp_de + k)
        dp = COALESCENCE_OFFSET * a * big_r * (1.0 - a * a / (4.0 * b)) * s * s
        # the real dR, dE of dR dp_dr + dE dp_de = dp, by Cramer's rule
        if det := (dp_dr * dp_de.conjugate()).imag:
            scales = (big_r + (dp * dp_de.conjugate()).imag / det,
                      big_e + (dp_dr * dp.conjugate()).imag / det)
    return _scales(rm, *scales), steps


def _log_gain_derivatives(big_r, big_e, z, k, y):
    """h = ln |G|^2 up to a constant, its gradient and its Hessian in (y, ln R, ln E).

    y = omega^2 / wm^2, and (R, E, z, k) are `_dimensionless`.  |G|^2 is
    proportional to N / D with N = (E - y)^2 + R^2 y and D = A^2 + y B^2,
    A = (1 - y)(E - y) - (z R + k) y and B = (1 - y) R + z (E - y) + k R: the
    quotient of `ReducedModel.gain_sq`.  The derivatives are written out, first
    in (y, R, E) and then by d/d ln R = R d/dR; Python floats and lists.
    """
    e, w = big_e - y, 1.0 - y
    n = e * e + big_r * big_r * y
    a = w * e - (z * big_r + k) * y
    b = w * big_r + z * e + k * big_r
    d = a * a + y * b * b
    n1 = (big_r * big_r - 2.0 * e, 2.0 * big_r * y, 2.0 * e)
    n2 = ((2.0, 2.0 * big_r, -2.0), (2.0 * big_r, 2.0 * y, 0.0), (-2.0, 0.0, 2.0))
    a1 = (-e - w - z * big_r - k, -z * y, w)
    a2 = ((2.0, -z, -1.0), (-z, 0.0, 0.0), (-1.0, 0.0, 0.0))
    b1 = (-big_r - z, w + k, z)
    b2 = ((0.0, -1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    d1 = [2.0 * (a * a1[i] + y * b * b1[i]) for i in range(3)]
    d1[0] += b * b
    d2 = [[2.0 * (a1[i] * a1[j] + a * a2[i][j] + y * (b1[i] * b1[j] + b * b2[i][j])
                  + b * ((i == 0) * b1[j] + (j == 0) * b1[i]))
           for j in range(3)] for i in range(3)]
    scale = (1.0, big_r, big_e)
    grad = [n1[i] / n - d1[i] / d for i in range(3)]
    hess = [[scale[i] * scale[j] * (n2[i][j] / n - n1[i] * n1[j] / (n * n)
                                    - d2[i][j] / d + d1[i] * d1[j] / (d * d))
             + (i == j and i > 0) * scale[i] * grad[i]
             for j in range(3)] for i in range(3)]
    return math.log(n / d), [g * c for g, c in zip(grad, scale)], hess


def _equal_peaks(rm, rbar, lbar, grid):
    """The scales near (rbar, lbar) at which the two peaks of |G| on the band are equal, the
    Newton steps taken and the two peak frequencies, or None.

    Newton on h_y(y1) = h_y(y2) = 0, h(y1) = h(y2) and
    det[grad_p h(y1), grad_p h(y2)] = 0 in (ln R, ln E, y1, y2), with
    h = ln |G|^2 and p = (ln R, ln E) (`_log_gain_derivatives`): the two
    peaks are stationary in frequency, equal, and no direction of p lowers
    both (the equal-peak H-infinity optimum of Soltani, Kerschen, Tondreau
    & Deraemaeker 2014, Smart Mater. Struct. 23:125014).  y1 and y2 start at
    the two largest interior local maxima of |G| on `grid` at (rbar, lbar).
    Where there is only one, the other peak is the larger band end, and its
    equation h_y = 0 becomes y = y_end: with strong mechanical damping the
    equal peaks are an interior maximum and |G| at the band end.  None when
    there is no interior maximum, or when Newton fails or ends at a y <= 0.
    """
    gain_sq = rm._gain_sq(rbar, lbar, grid)  # `tune` admitted the start where it entered
    inner = gain_sq[1:-1]
    peaks = np.nonzero((inner > gain_sq[:-2]) & (inner >= gain_sq[2:]))[0] + 1
    end = None
    if peaks.size == 1:  # the other peak is the larger band end, y1 or y2
        end = 0 if gain_sq[0] >= gain_sq[-1] else 1
        peaks = np.append(peaks, (0, -1)[end])
    if peaks.size < 2:
        return None
    y_start = np.sort((grid[peaks[np.argsort(gain_sq[peaks])[-2:]]] / rm.omega_m) ** 2)
    _, _, z, k = _dimensionless(rm, rbar, lbar)
    # ln R and ln E from the logs of the factors, which neither overflow nor underflow
    log_w, log_l = math.log(rm.omega_m), math.log(lbar)
    start = (math.log(rbar) - log_l - log_w, math.log(rm.mu_star) - log_l - 2.0 * log_w, *y_start)

    def system(u):
        log_r, log_e, y1, y2 = u.tolist()
        big_r, big_e = math.exp(log_r), math.exp(log_e)
        h1, (hy1, hu1, hv1), p1 = _log_gain_derivatives(big_r, big_e, z, k, y1)
        h2, (hy2, hu2, hv2), p2 = _log_gain_derivatives(big_r, big_e, z, k, y2)
        residual = [hy1, hy2, h1 - h2, hu1 * hv2 - hv1 * hu2]
        jacobian = [
            (p1[0][1], p1[0][2], p1[0][0], 0.0),
            (p2[0][1], p2[0][2], 0.0, p2[0][0]),
            (hu1 - hu2, hv1 - hv2, hy1, -hy2),
            tuple(p1[1][j] * hv2 + hu1 * p2[2][j] - p1[2][j] * hu2 - hv1 * p2[1][j]
                  for j in (1, 2)) + (p1[1][0] * hv2 - p1[2][0] * hu2,
                                      hu1 * p2[2][0] - hv1 * p2[1][0])]
        if end is not None:  # the band end stays where it is
            residual[end] = (y1, y2)[end] - y_start[end]
            jacobian[end] = np.eye(4)[2 + end]
        return np.array(residual), np.array(jacobian)

    found = _newton(system, start)
    if found is None or min(found[0][2:]) <= 0.0:
        return None
    u, steps = found
    return _scales(rm, math.exp(u[0]), math.exp(u[1])), steps, rm.omega_m * np.sqrt(u[2:])


def _band_peak(rm, rbar, lbar, grid):
    """The largest |G| on [grid[0], grid[-1]] at the scales (rbar, lbar), inf at a pole
    or where the quintic's coefficients overflow.

    The candidates are the band ends and the stationary points of |G|^2 in
    the band: the real roots in y = omega^2 / wm^2 of the quintic N' D - N D',
    with N = y^2 + n1 y + n0 and D = y^4 + d3 y^3 + d2 y^2 + d1 y + d0 as in
    `_log_gain_derivatives`, found as the eigenvalues of one companion
    matrix.  A complex root's real part is one more sample.
    """
    big_r, big_e, z, k = _dimensionless(rm, rbar, lbar)
    n1, n0 = big_r * big_r - 2.0 * big_e, big_e * big_e
    a1, a0 = -(1.0 + big_e + z * big_r + k), big_e  # A = y^2 + a1 y + a0
    b1, b0 = -(big_r + z), (1.0 + k) * big_r + z * big_e  # B = b1 y + b0
    d3, d2 = 2.0 * a1 + b1 * b1, a1 * a1 + 2.0 * a0 + 2.0 * b1 * b0
    d1, d0 = 2.0 * a1 * a0 + b0 * b0, a0 * a0
    companion = np.eye(5, k=-1)
    # the quintic divided by its leading coefficient -2, negated
    companion[0] = (-0.5 * d3 - 1.5 * n1, -n1 * d3 - 2.0 * n0,
                    0.5 * (d1 - n1 * d2 - 3.0 * n0 * d3), d0 - n0 * d2, 0.5 * (n1 * d0 - n0 * d1))
    if not np.all(np.isfinite(companion)):  # scales so extreme that the coefficients overflow
        return np.inf
    y = np.linalg.eigvals(companion).real
    y = y[(y > (grid[0] / rm.omega_m) ** 2) & (y < (grid[-1] / rm.omega_m) ** 2)]
    peak = rm.gain_sq(rbar, lbar, np.concatenate([grid[[0, -1]], rm.omega_m * np.sqrt(y)])).max()
    return float(np.sqrt(peak)) if np.isfinite(peak) else np.inf
