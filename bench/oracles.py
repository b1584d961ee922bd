"""Independent reference computations for the benchmark's correctness checks.

Everything here is written from the governing equations stated in the
package's documentation, never by calling the package:

- cantilever wavenumbers by bisection on cos x + sech x, and the textbook
  clamped-free shapes, mass-normalized by 1/sqrt(rhoA L);
- the coupled state space x = (eta, eta', v, i) with
  eta'' = -2 zeta w eta' - w^2 eta + Thetat v + phi(x_f) f,
  C v' = -Thetat^T eta' - B i,  L i' = B^T v - R i;
- the FRF c^T (j w I - A)^-1 b as one batched LAPACK solve per chunk of
  frequencies (the package loops over single points);
- exact free response by `scipy.linalg.expm`, with the per-mode error of the
  classical RK4 propagator as the tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from scenarios import (BENDING_STIFFNESS, GROUND, L_START, LENGTH, MASS_PER_LENGTH, R_START,
                       branches)

#: Relative magnitude below which an eigenvalue counts as a zero mode.
ZERO_RTOL = 1e-9
#: Frequencies per batched solve; bounds the oracle's own memory use.
FRF_CHUNK = 100


def wavenumbers(m):
    """First `m` roots of 1 + cos x cosh x = 0 by bisection on ((k-1) pi, k pi)."""
    f = lambda x: math.cos(x) + 1.0 / math.cosh(x)
    roots = []
    for k in range(1, m + 1):
        lo, hi = (k - 1) * math.pi + 1e-12, k * math.pi
        flo = f(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    return np.array(roots)


def mode_values(beta_l, length, mass_per_length, x, order):
    """Mass-normalized clamped-free shape (order 0) or slope (order 1) of every mode.

    Uses cosh z - sigma sinh z = ((1 - sigma) e^z + (1 + sigma) e^-z) / 2 with
    1 - sigma formed without cancellation, so the shapes stay exact to M = 12.
    Returns an array of shape (len(beta_l), len(x)).
    """
    bl = np.asarray(beta_l)[:, None]
    z = bl * np.asarray(x, dtype=float)[None, :] / length
    one_minus = (np.sin(bl) - np.cos(bl) - np.exp(-bl)) / (np.sinh(bl) + np.sin(bl))
    sigma = 1.0 - one_minus
    grow = 0.5 * one_minus * np.exp(z)
    decay = 0.5 * (1.0 + sigma) * np.exp(-z)
    amp = 1.0 / math.sqrt(mass_per_length * length)
    if order == 0:
        return amp * (grow + decay - np.cos(z) + sigma * np.sin(z))
    return amp * (bl / length) * (grow - decay + np.sin(z) + sigma * np.cos(z))


class Model:
    """State-space model of one generated scenario with every branch at (r, l)."""

    def __init__(self, sc, r=R_START, l=L_START):
        brs, piezo = branches(sc)
        nodes = sorted({n for br in brs for n in br[1:3]} - {GROUND})
        index = {name: p for p, name in enumerate(nodes)}
        n_b, n_p, m = len(brs), len(nodes), sc.n_modes

        b_inc = np.zeros((n_p, n_b))
        for j, (_, a, b, _, _) in enumerate(brs):
            if a != GROUND:
                b_inc[index[a], j] = 1.0
            if b != GROUND:
                b_inc[index[b], j] = -1.0

        beta_l = wavenumbers(m)
        omega = beta_l**2 * math.sqrt(BENDING_STIFFNESS / MASS_PER_LENGTH) / LENGTH**2
        cell = LENGTH / sc.n_patches
        centers = (np.arange(sc.n_patches) + 0.5) * cell
        ends_a = centers - 0.5 * sc.coverage * cell
        ends_b = np.minimum(centers + 0.5 * sc.coverage * cell, LENGTH)
        slope = lambda x: mode_values(beta_l, LENGTH, MASS_PER_LENGTH, x, 1)
        theta = sc.gamma * (slope(ends_b) - slope(ends_a))
        theta_t = np.zeros((m, n_p))
        cap = np.zeros(n_p)
        for i, node in piezo.items():
            theta_t[:, index[node]] += theta[:, i - 1]
            cap[index[node]] += sc.cp
        phi_tip = mode_values(beta_l, LENGTH, MASS_PER_LENGTH, [LENGTH], 0)[:, 0]

        n = 2 * m + n_p + n_b
        eta, vel = slice(0, m), slice(m, 2 * m)
        volt, cur = slice(2 * m, 2 * m + n_p), slice(2 * m + n_p, n)
        a = np.zeros((n, n))
        a[eta, vel] = np.eye(m)
        a[vel, eta] = -np.diag(omega**2)
        a[vel, vel] = -np.diag(2.0 * sc.zeta * omega)
        a[vel, volt] = theta_t
        a[volt, vel] = -theta_t.T / cap[:, None]
        a[volt, cur] = -b_inc / cap[:, None]
        a[cur, volt] = b_inc.T / l
        a[cur, cur] = -np.eye(n_b) * (r / l)

        self.a = a
        self.b = np.zeros(n)
        self.b[vel] = phi_tip
        self.c = np.zeros(n)
        self.c[eta] = phi_tip
        self.omega = omega
        self.phi_tip = phi_tip
        self.m = m
        # H = 1/2 sum(weights * x^2)
        self.weights = np.concatenate([omega**2, np.ones(m), cap, np.full(n_b, l)])

    def initial_state(self, kind):
        x0 = np.zeros(self.a.shape[0])
        m = self.m
        if kind == "tip_displacement":
            eta = self.phi_tip / self.omega**2
            x0[:m] = eta / np.dot(self.phi_tip, eta)
        elif kind == "tip_impulse":
            x0[m:2 * m] = self.phi_tip
        else:
            raise ValueError(f"unknown initial condition {kind!r}")
        return x0

    def energy(self, x):
        return 0.5 * (np.asarray(x) ** 2) @ self.weights


def frf(model, omega, chunk=FRF_CHUNK):
    """c^T (j w I - A)^-1 b on `omega`, one batched solve per chunk."""
    omega = np.asarray(omega, dtype=float)
    n = model.a.shape[0]
    eye = np.eye(n)
    g = np.empty(omega.size, dtype=complex)
    for s in range(0, omega.size, chunk):
        w = omega[s:s + chunk]
        mats = 1j * w[:, None, None] * eye - model.a
        rhs = np.broadcast_to(model.b, (w.size, n))[..., None].astype(complex)
        g[s:s + chunk] = np.linalg.solve(mats, rhs)[..., 0] @ model.c
    return g


def min_damping(values, band=None):
    """Smallest -Re(l)/|l| over non-zero eigenvalues, optionally inside a |l| band."""
    values = np.asarray(values)
    freq = np.abs(values)
    keep = freq >= ZERO_RTOL * np.max(freq)
    if band is not None:
        keep &= (freq >= band[0]) & (freq <= band[1])
    return float(np.min(-values[keep].real / freq[keep]))


def reduced_matrix(omega_m, zeta_m, alpha, mu_star, rbar, lbar):
    """Two-DOF absorber state matrix of (eta, eta', vbar, ibar), from its equations."""
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-omega_m**2, -2.0 * zeta_m * omega_m, alpha, 0.0],
        [0.0, -alpha, 0.0, -1.0],
        [0.0, 0.0, mu_star / lbar, -rbar / lbar],
    ])


def spectrum_faults(values, rtol=1e-9):
    """Reasons a spectrum is not passive or not conjugate-closed (empty when fine)."""
    values = np.asarray(values, dtype=complex)
    scale = np.max(np.abs(values))
    faults = []
    if np.max(values.real) > rtol * scale:
        faults.append(f"not passive: max Re = {np.max(values.real):.3e} (scale {scale:.3e})")
    gap = max(np.min(np.abs(values - np.conj(lam))) for lam in values)
    if gap > rtol * scale:
        faults.append(f"not conjugate-closed: worst gap {gap:.3e} (scale {scale:.3e})")
    return faults


def ground_free_components(sc):
    """Connected network components that touch no ground branch."""
    brs, _ = branches(sc)
    parent = {}

    def find(node):
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for _, a, b, _, _ in brs:
        parent[find(a)] = find(b)
    roots = {find(node) for node in list(parent) if node != GROUND}
    return len(roots - {find(GROUND)}) if GROUND in parent else len(roots)


def rk4_error_bound(model, x0, dt, steps):
    """Per-state bound on |RK4 state - exact state| after `steps` steps of `dt`.

    In the eigenbasis each mode is propagated by R(z)^k instead of e^(kz),
    with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 and z = dt * lambda; the bound
    sums those per-mode errors, weighted by the mode's share of x0.
    """
    lam, vec = np.linalg.eig(model.a)
    coef = np.linalg.solve(vec, x0.astype(complex))
    z = dt * lam
    rk = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    err = np.abs(rk ** steps - np.exp(steps * z)) * np.abs(coef)
    return np.abs(vec) @ err


def propagate(model, x0, t):
    return scipy.linalg.expm(model.a * t) @ x0


def csv_rounding(x):
    """Half a unit in the 9th significant digit: the error of the package's CSV format."""
    x = np.abs(np.asarray(x, dtype=float))
    with np.errstate(divide="ignore"):
        exponent = np.floor(np.log10(np.where(x > 0, x, 1e-300)))
    return 0.5 * 10.0 ** (exponent - 8)
