"""Nonsmooth BFGS for the per-branch tuning of `reduction.tune`.

The smallest damping ratio and the FRF peak are smooth almost everywhere
but not at their optima, where several poles or peaks are active at once.
BFGS with a weak Wolfe line search still makes progress there (Lewis &
Overton 2013, Math. Program. 141:135), and a start is certified stationary
when the convex hull of its recent nearby gradients holds a short vector
(gradient sampling: Burke, Lewis & Overton 2005, SIAM J. Optim. 15:751).
The search is a generator that `reduction._lockstep` drives as it drives
the simplex, so the nine starts advance together.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

#: Iteration cap of one start.
BFGS_MAX_ITER = 40

#: Length of the first trial step (log10 units), as the simplex's first step.
FIRST_STEP = 0.05

#: A start is stationary when the convex hull of its gradients within
#: _BFGS_RADIUS (log10 units, in every coordinate) of its point holds a vector
#: shorter than _BFGS_TOL * |objective|; the hull keeps at most 2 * dimension of them.
_BFGS_TOL, _BFGS_RADIUS = 1e-6, 1e-3

#: Weak Wolfe line search: sufficient-decrease and curvature constants, trial cap.
_WOLFE_C1, _WOLFE_C2, _WOLFE_TRIALS = 1e-4, 0.5, 40


def _bfgs(z0):
    """Minimize a nonsmooth function over R^d by BFGS, asking for values and gradients as it goes.

    A generator like `reduction._nelder_mead`: each `yield` hands out one
    point, a list of d Python floats, and takes back its reply
    [[f, *gradient]], Python floats, f = inf where the point is refused.
    The inverse Hessian starts as the identity, and the first trial step
    has length FIRST_STEP.  The weak Wolfe line search brackets a step by
    doubling and bisection, so a refused trial makes it backtrack.  The
    arithmetic is on Python floats, dot products correctly rounded.  Stops
    converged when `_stationary` finds the gradients at the recent points
    within _BFGS_RADIUS of the point (the last 2d - 1 of them at most, and
    the point's own) nearly stationary at _BFGS_TOL * |f|; and not converged
    when the line search finds no weak Wolfe step in _WOLFE_TRIALS trials,
    at its best sufficient-decrease point if it had one, or after
    BFGS_MAX_ITER iterations.  Returns (z_best, f_best, iterations,
    converged), z_best a fresh float array.
    """
    z = np.asarray(z0, dtype=float).tolist()
    d = len(z)
    ((f, *g),) = yield [z]
    if not f < np.inf:
        return np.array(z), f, 0, False
    h = [[float(i == j) for j in range(d)] for i in range(d)]  # the inverse Hessian
    near = [(z, g)]  # the recent points and their gradients
    iterations, converged = 0, _stationary([g], _BFGS_TOL * abs(f))
    while not converged and iterations < BFGS_MAX_ITER:
        iterations += 1
        p = [-_dot(row, g) for row in h]
        if iterations == 1:  # the first trial moves FIRST_STEP
            p = [FIRST_STEP * v / math.sqrt(_dot(p, p)) for v in p]
        slope = _dot(g, p)
        t, lo, hi, best, found = 1.0, 0.0, np.inf, None, None
        for _ in range(_WOLFE_TRIALS):
            z_t = [a + t * b for a, b in zip(z, p)]
            ((f_t, *g_t),) = yield [z_t]
            if not f_t <= f + _WOLFE_C1 * t * slope:  # nan and inf fail it too
                hi = t
            elif _dot(g_t, p) < _WOLFE_C2 * slope:
                lo, best = t, (z_t, f_t, g_t)
            else:
                found = (z_t, f_t, g_t)
                break
            t = 0.5 * (lo + hi) if hi < np.inf else 2.0 * lo
        if found is None:
            if best is not None:
                z, f, g = best
            break
        s, y = [a - b for a, b in zip(found[0], z)], [a - b for a, b in zip(found[2], g)]
        z, f, g = found
        sy = _dot(s, y)
        if sy > 0:  # weak Wolfe gives sy > 0 wherever the gradient is continuous
            hy = [_dot(row, y) for row in h]
            c = (1.0 + _dot(y, hy) / sy) / sy
            h = [[h[i][j] - (hy[i] * s[j] + s[i] * hy[j]) / sy + c * s[i] * s[j]
                  for j in range(d)] for i in range(d)]
        near = [(w, v) for w, v in near[1 - 2 * d:]
                if max(abs(a - b) for a, b in zip(w, z)) <= _BFGS_RADIUS] + [(z, g)]
        converged = _stationary([v for _, v in near], _BFGS_TOL * abs(f))
    return np.array(z), f, iterations, converged


def _dot(u, v):
    """The dot product of two lists of Python floats: the products' correctly rounded sum."""
    return math.fsum(map(mul, u, v))


def _stationary(vectors, tol):
    """Whether the convex hull of `vectors`, lists of floats, holds a vector no longer than `tol`.

    Every hull point x has |x| >= u.x >= min_i u.v_i for the unit vector u
    along the last vector, a bound that settles most calls before `_min_norm`.
    """
    last = vectors[-1]
    if min(_dot(last, v) for v in vectors) > tol * math.sqrt(_dot(last, last)):
        return False
    return _min_norm(vectors) <= tol


def _min_norm(vectors):
    """The length of the shortest vector in the convex hull of `vectors`, lists of floats.

    Wolfe's algorithm (1976, Math. Program. 11:128): a corral of vectors whose
    affine hull's shortest point lies inside their convex hull grows by the
    vector most opposed to that point until none lies below it.
    """
    p = np.array(vectors)
    norms = (p * p).sum(axis=1)
    corral, w = [int(norms.argmin())], np.ones(1)
    x = p[corral[0]]
    for _ in range(4 * len(p)):
        j = int((p @ x).argmin())
        if x @ x - p[j] @ x <= 1e-12 * norms.max() or j in corral:
            break
        corral, w = corral + [j], np.append(w, 0.0)
        while True:  # the affine hull's shortest point, or the nearest step to it inside
            q, k = p[corral], len(corral)
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k], kkt[k, k] = q @ q.T, 0.0
            try:
                v = np.linalg.solve(kkt, np.eye(k + 1)[k])[:k]
            except np.linalg.LinAlgError:  # an affinely dependent corral: |x| bounds it above
                return float(np.sqrt(x @ x))
            if np.all(v > 0.0):
                w = v
                break
            out = v <= 0.0
            theta = min((a / (a - b) for a, b in zip(w[out], v[out]) if a > b), default=0.0)
            w = w + theta * (v - w)
            keep = w > 0.0
            keep[np.argmin(np.where(out, w, np.inf))] = False  # the vector the step reached
            corral, w = [c for c, kept in zip(corral, keep) if kept], w[keep]
        x = w @ p[corral]
    return float(np.sqrt(x @ x))
