"""Seeded scenario generator: the config and netlist files each workload runs.

A seed fixes one jitter draw, shared by every scenario of a workload:

- patch coverage in [0.8, 0.95];
- patch capacitance Cp and coupling gamma each within +-20% of 100 nF and
  1e-4, redrawn together until the estimated single-shunt coupling kappa of
  the default beam lies in [0.08, 0.12];
- modal damping ratio zeta in [0, 0.005];
- the `simulate` initial condition (tip displacement or tip impulse).

The draw uses `random.Random(seed)` and every number is written with `repr`,
so one seed gives byte-identical files on any platform and the package
parses back exactly the floats the benchmark's oracles use.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass, replace

COVERAGE_RANGE = (0.8, 0.95)
CP_NOMINAL = 100e-9
GAMMA_NOMINAL = 1e-4
FACTOR_RANGE = (0.8, 1.2)
ZETA_RANGE = (0.0, 0.005)
KAPPA_RANGE = (0.08, 0.12)
#: The host beam and the starting branch values are the package defaults.
LENGTH, BENDING_STIFFNESS, MASS_PER_LENGTH = 1.0, 1.0, 1.0
R_START, L_START = 8e4, 1.6e5
INITIAL_KINDS = ("tip_displacement", "tip_impulse")
GROUND = "gnd"

WORKLOADS = ("compare-m5", "poles-m12", "response")


@dataclass(frozen=True)
class Scenario:
    """One generated input: the default cantilever, a uniform patch array and a network."""

    name: str
    n_modes: int
    n_patches: int
    coverage: float
    cp: float
    gamma: float
    zeta: float
    topology: str
    termination: str = "none"
    initial: str = "tip_displacement"
    per_branch: bool = False
    with_netlist: bool = False

    @property
    def config_file(self):
        return f"{self.name}.ini"

    @property
    def netlist_file(self):
        return f"{self.name}.net" if self.with_netlist else None


def branches(sc):
    """Branch list [(name, node_a, node_b, R, L)] and patch -> node map of `sc`.

    Follows the topology definitions of the package README, not its builders.
    """
    n, r, l = sc.n_patches, R_START, L_START
    if sc.topology == "single_shunt":
        return [("b1", "bus", GROUND, r, l)], {i: "bus" for i in range(1, n + 1)}
    nodes = {i: f"n{i}" for i in range(1, n + 1)}
    if sc.topology == "multi_shunt":
        return [(f"b{i}", f"n{i}", GROUND, r, l) for i in range(1, n + 1)], nodes
    if sc.topology == "transmission_line":
        out = [(f"b{i}", f"n{i}", f"n{i + 1}", r, l) for i in range(1, n)]
        if sc.termination == "both_ends":
            out += [("bt1", "n1", GROUND, r, l), ("bt2", f"n{n}", GROUND, r, l)]
        return out, nodes
    raise ValueError(f"unknown topology {sc.topology!r}")


def config_text(sc):
    lines = [
        "[beam]",
        f"L = {LENGTH!r}",
        f"EI = {BENDING_STIFFNESS!r}",
        f"rhoA = {MASS_PER_LENGTH!r}",
        f"zeta = {sc.zeta!r}",
        f"M = {sc.n_modes}",
        "",
        "[patches]",
        f"N = {sc.n_patches}",
        f"coverage = {sc.coverage!r}",
        f"Cp = {sc.cp!r}",
        f"gamma = {sc.gamma!r}",
        "",
        "[network]",
        f"topology = {sc.topology}",
        f"R = {R_START!r}",
        f"L = {L_START!r}",
        f"termination = {sc.termination}",
    ]
    if sc.with_netlist:
        lines.append(f"netlist = {sc.netlist_file}")
    lines += [
        "",
        "[optimize]",
        "objective = min-damping-ratio",
        "target_mode = 1",
        f"per_branch = {'true' if sc.per_branch else 'false'}",
        "",
        "[simulate]",
        "dt = auto",
        "T = auto",
        f"initial = {sc.initial}",
    ]
    return "\n".join(lines) + "\n"


def netlist_text(sc):
    brs, piezo = branches(sc)
    lines = [f"piezo {i} {node}" for i, node in sorted(piezo.items())]
    lines += [f"branch {name} {a} {b} R={r!r} L={l!r}" for name, a, b, r, l in brs]
    return "\n".join(lines) + "\n"


def kappa_estimate(coverage, cp, gamma, n_patches=5):
    """Single-shunt kappa of mode 1 on the unit beam, without the quasi-static correction.

    kappa = |sum_i Theta_1i| / (omega_1 sqrt(N Cp)) with
    Theta_1i = gamma (phi_1'(b_i) - phi_1'(a_i)); the mode-1 slope uses the
    textbook clamped-free shape, mass-normalized by 1/sqrt(rhoA L).
    """
    beta = 1.8751040687119611  # first root of 1 + cos x cosh x on the unit beam
    sigma = (math.cosh(beta) + math.cos(beta)) / (math.sinh(beta) + math.sin(beta))

    def slope(x):
        z = beta * x
        return beta * (math.sinh(z) + math.sin(z) - sigma * (math.cosh(z) - math.cos(z)))

    cell = 1.0 / n_patches
    half = 0.5 * coverage * cell
    theta = sum(gamma * (slope((i + 0.5) * cell + half) - slope((i + 0.5) * cell - half))
                for i in range(n_patches))
    return abs(theta) / (beta**2 * math.sqrt(n_patches * cp))


def jitter(seed):
    """The seed's jitter draw as a dict of scenario fields."""
    rng = random.Random(seed)
    coverage = rng.uniform(*COVERAGE_RANGE)
    for _ in range(1000):
        cp = CP_NOMINAL * rng.uniform(*FACTOR_RANGE)
        gamma = GAMMA_NOMINAL * rng.uniform(*FACTOR_RANGE)
        if KAPPA_RANGE[0] <= kappa_estimate(coverage, cp, gamma) <= KAPPA_RANGE[1]:
            break
    else:
        raise RuntimeError(f"seed {seed}: no (Cp, gamma) draw met the kappa range")
    zeta = rng.uniform(*ZETA_RANGE)
    initial = INITIAL_KINDS[rng.randrange(len(INITIAL_KINDS))]
    return {"coverage": coverage, "cp": cp, "gamma": gamma, "zeta": zeta, "initial": initial}


def scenarios(workload, seed):
    """Every scenario `workload` runs at `seed`, in run order."""
    j = jitter(seed)
    m5 = Scenario(name="m5", n_modes=5, n_patches=5, topology="single_shunt", **j)
    m12 = replace(m5, n_modes=12, n_patches=12)
    if workload == "compare-m5":
        return [replace(m5, name="compare_m5")]
    if workload == "poles-m12":
        return [
            replace(m12, name="poles_tl_m12", topology="transmission_line",
                    termination="both_ends", with_netlist=True),
            replace(m12, name="poles_ms_m12", topology="multi_shunt", with_netlist=True),
            replace(m5, name="optimize_pb_m5", topology="multi_shunt", per_branch=True),
        ]
    if workload == "response":
        return [
            replace(m5, name="simulate_m5"),
            replace(m12, name="frf_tl_m12", topology="transmission_line",
                    termination="both_ends"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def check_ranges(sc):
    """Reasons `sc` leaves the generator's stated ranges (empty when valid)."""
    bad = []
    if not COVERAGE_RANGE[0] <= sc.coverage <= COVERAGE_RANGE[1]:
        bad.append(f"coverage {sc.coverage} outside {COVERAGE_RANGE}")
    for name, value, nominal in (("Cp", sc.cp, CP_NOMINAL), ("gamma", sc.gamma, GAMMA_NOMINAL)):
        if not FACTOR_RANGE[0] <= value / nominal <= FACTOR_RANGE[1]:
            bad.append(f"{name} {value} outside +-20% of {nominal}")
    if not ZETA_RANGE[0] <= sc.zeta <= ZETA_RANGE[1]:
        bad.append(f"zeta {sc.zeta} outside {ZETA_RANGE}")
    kappa = kappa_estimate(sc.coverage, sc.cp, sc.gamma)
    if not KAPPA_RANGE[0] <= kappa <= KAPPA_RANGE[1]:
        bad.append(f"estimated kappa {kappa} outside {KAPPA_RANGE}")
    return bad


def write_inputs(workload, seed, directory):
    """Write the workload's files into `directory`; returns (scenarios, file record)."""
    record = {}
    scs = scenarios(workload, seed)
    for sc in scs:
        texts = {sc.config_file: config_text(sc)}
        if sc.with_netlist:
            texts[sc.netlist_file] = netlist_text(sc)
        for fname, text in texts.items():
            with open(os.path.join(directory, fname), "w", newline="") as fh:
                fh.write(text)
            record[fname] = {"sha256": hashlib.sha256(text.encode()).hexdigest(), "text": text}
    return scs, record
