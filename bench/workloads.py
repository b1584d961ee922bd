"""The three benchmark workloads: set-up, one timed pass, and the pass's checks.

Each workload reads only the generated config and netlist files in its input
directory.  `run_pass` is the timed part and calls the package through its
public API and its CLI; `check` compares what the pass produced with the
independent oracles and returns one message per failed check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import replace

import numpy as np

import oracles
import piezoshunt as ps
from piezoshunt import cli
from scenarios import check_ranges, scenarios

POLE_ERROR_MAX = 0.05
#: Relative agreement of the package FRF with the oracle (on top of CSV rounding).
FRF_RTOL = 1e-9
#: hinf peak recomputed at the CSV's 9-digit (R, L); the peak is stationary there.
PEAK_RTOL = 1e-6
#: Min damping ratio of the full model at the CSV's 9-digit (R, L).  Tuned poles
#: nearly coalesce, where a relative change d in (R, L) moves them by ~sqrt(d).
DAMPING_RTOL = 1e-3
#: Package eigenvalues against the oracle's, relative to the spectral radius.
SPECTRUM_RTOL = 1e-6
#: Trajectory samples compared with the exact propagator.
TRAJECTORY_SAMPLES = 8


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    """Base: holds the input directory and the generated scenarios."""

    def __init__(self, name, seed, indir):
        self.indir = indir
        self.scenarios = {sc.name: sc for sc in scenarios(name, seed)}

    def path(self, fname):
        return os.path.join(self.indir, fname)

    def _load(self, sc):
        with open(self.path(sc.config_file)) as fh:
            return ps.load_config(fh.read())

    def _build(self, sc, cfg):
        """Modal basis, patch array and netlist of `sc`, from its files only.

        The topology is `sc`'s, which overrides the file's as `compare` does.
        """
        basis = ps.modal_basis(cfg.beam_spec(), cfg.n_modes)
        patches = ps.uniform_layout(cfg.beam_spec(), cfg.n_patches, cfg.coverage, cfg.cp, cfg.gamma)
        if cfg.netlist_path is not None:
            with open(self.path(cfg.netlist_path)) as fh:
                net = ps.parse_netlist(fh.read())
        elif sc.topology == "single_shunt":
            net = ps.build_single_shunt(cfg.n_patches, cfg.r, cfg.l)
        elif sc.topology == "multi_shunt":
            net = ps.build_multi_shunt(cfg.n_patches, cfg.r, cfg.l)
        else:
            net = ps.build_transmission_line(cfg.n_patches, cfg.r, cfg.l, cfg.termination)
        return basis, patches, net

    def systems(self):
        """Every (name, scenario) whose system the set-up builds."""
        return self.scenarios.items()

    def setup(self):
        """Load every config, build every scenario system once: the set-up cost."""
        self.built = {}
        for name, sc in self.systems():
            basis, patches, net = self._build(sc, self._load(sc))
            sys_ = ps.assemble(basis, patches, net)
            ps.eigen(sys_)
            ps.reduce(sys_, 1)
            self.built[name] = (basis, patches, net)

    def _cli(self, *args):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run_command(list(args))

    def input_faults(self):
        return [f"{name}: {msg}" for name, sc in self.scenarios.items() for msg in check_ranges(sc)]


class CompareM5(Workload):
    topologies = ("single_shunt", "multi_shunt", "transmission_line")

    def systems(self):
        base = self.scenarios["compare_m5"]
        return [(topo, replace(base, topology=topo)) for topo in self.topologies]

    def run_pass(self, outdir):
        return {"rc": self._cli("compare", "--config", self.path("compare_m5.ini"), "--out", outdir)}

    def check(self, result, outdir):
        if result["rc"] != 0:
            return [f"compare exited with {result['rc']}"]
        header, rows = read_csv(os.path.join(outdir, "compare.csv"))
        col = {name: j for j, name in enumerate(header)}
        if [row[0] for row in rows] != list(self.topologies):
            return [f"compare.csv rows {[row[0] for row in rows]}"]
        faults = []
        base = self.scenarios["compare_m5"]
        for row in rows:
            topo = row[0]
            sc = replace(base, topology=topo)
            value = lambda key: float(row[col[key]])
            if not value("kappa") > 0:
                faults.append(f"{topo}: kappa {row[col['kappa']]} not positive")
            if not value("pole_error") < POLE_ERROR_MAX:
                faults.append(f"{topo}: pole_error {row[col['pole_error']]} >= {POLE_ERROR_MAX}")
            hinf = oracles.Model(sc, value("hinf_R_opt"), value("hinf_L_opt"))
            w1 = hinf.omega[0]
            peak = np.max(np.abs(oracles.frf(hinf, np.linspace(0.5 * w1, 1.6 * w1, 400))))
            if _rel(value("hinf_peak_m_per_N"), peak) > PEAK_RTOL:
                faults.append(f"{topo}: hinf peak {row[col['hinf_peak_m_per_N']]} != oracle {peak:.9g}")
            mdr = oracles.Model(sc, value("R_opt"), value("L_opt"))
            full = oracles.min_damping(np.linalg.eigvals(mdr.a), band=(0.5 * w1, 2.0 * w1))
            if _rel(value("full_objective"), full) > DAMPING_RTOL:
                faults.append(f"{topo}: full_objective {row[col['full_objective']]} != oracle {full:.9g}")
        return faults


class PolesM12(Workload):
    designs = ("poles_tl_m12", "poles_ms_m12")

    def run_pass(self, outdir):
        designs = {}
        for name in self.designs:
            basis, patches, net = self.built[name]
            sys_ = ps.assemble(basis, patches, net)
            sol = ps.eigen(sys_)
            rm = ps.reduce(sys_, 1)
            tr = ps.tune(rm, "min-damping-ratio")
            report = ps.validate_reduction(sys_, rm, tr)
            designs[name] = (sys_, sol, rm, tr, report)
        rc = self._cli("optimize", "--config", self.path("optimize_pb_m5.ini"), "--out", outdir)
        return {"designs": designs, "rc": rc}

    def check(self, result, outdir):
        faults = []
        for name, design in result["designs"].items():
            faults += [f"{name}: {msg}" for msg in self._check_design(self.scenarios[name], *design)]
        if result["rc"] != 0:
            return faults + [f"optimize exited with {result['rc']}"]
        _, rows = read_csv(os.path.join(outdir, "optimize_trace.csv"))
        if len(rows) != 9:
            faults.append(f"optimize_trace.csv has {len(rows)} starts, expected 9")
        for row in rows:
            seed_obj, obj = float(row[5]), float(row[6])
            if not (math.isfinite(obj) and obj > 0):
                faults.append(f"per-branch start {row[0]}: objective {row[6]} not a positive damping")
            elif obj < seed_obj - 2 * float(oracles.csv_rounding(seed_obj)):
                faults.append(f"per-branch start {row[0]}: objective {row[6]} below its start {row[5]}")
        return faults

    def _check_design(self, sc, sys_, sol, rm, tr, report):
        faults = []
        floating = oracles.ground_free_components(sc)
        if not rm.kappa > 0:
            faults.append(f"kappa {rm.kappa} not positive")
        if not report.pole_error < POLE_ERROR_MAX:
            faults.append(f"pole_error {report.pole_error:.3e} >= {POLE_ERROR_MAX}")
        reduced = oracles.reduced_matrix(rm.omega_m, rm.zeta_m, rm.alpha, rm.mu_star, tr.r, tr.l)
        expect = oracles.min_damping(np.linalg.eigvals(reduced))
        if _rel(tr.objective, expect) > 1e-9:
            faults.append(f"tuned objective {tr.objective!r} != oracle {expect!r}")
        model = oracles.Model(sc, tr.r, tr.l)
        truth = np.linalg.eigvals(model.a)
        w1 = model.omega[0]
        full = oracles.min_damping(truth, band=(0.5 * w1, 2.0 * w1))
        if _rel(report.full_objective, full) > SPECTRUM_RTOL:
            faults.append(f"full objective {report.full_objective!r} != oracle {full!r}")
        tuned = ps.eigen(sys_.rescaled(tr.r, tr.l))
        for label, spec in (("untuned", sol), ("tuned", tuned)):
            faults += [f"{label}: {msg}" for msg in oracles.spectrum_faults(spec.values)]
            zeros = spec.tags.count("zero")
            if zeros != floating:
                faults.append(f"{label}: {zeros} zero tags for {floating} ground-free components")
        scale = np.max(np.abs(truth))
        worst = max(np.min(np.abs(tuned.values - lam)) for lam in truth)
        if worst > SPECTRUM_RTOL * scale:
            faults.append(f"tuned spectrum off the oracle's by {worst / scale:.3e} (relative)")
        return faults


class Response(Workload):
    def run_pass(self, outdir):
        rc_sim = self._cli("simulate", "--config", self.path("simulate_m5.ini"), "--out", outdir)
        rc_frf = self._cli("frf", "--config", self.path("frf_tl_m12.ini"), "--out", outdir)
        return {"rc": (rc_sim, rc_frf)}

    def check(self, result, outdir):
        if result["rc"] != (0, 0):
            return [f"simulate, frf exited with {result['rc']}"]
        return self._check_trajectory(outdir) + self._check_frf(outdir)

    def _check_trajectory(self, outdir):
        sc = self.scenarios["simulate_m5"]
        model = oracles.Model(sc)
        _, rows = read_csv(os.path.join(outdir, "trajectory.csv"))
        data = np.array([[float(v) for v in row] for row in rows])
        t, tip, energy = data.T
        steps = np.arange(len(t))
        dt = float(steps @ t / (steps @ steps))  # averages out the CSV's rounding of t
        x0 = model.initial_state(sc.initial)
        faults = []
        for k in np.linspace(0, steps[-1], TRAJECTORY_SAMPLES + 1).astype(int)[1:]:
            x = oracles.propagate(model, x0, k * dt)
            err = oracles.rk4_error_bound(model, x0, dt, k)
            tip_x, h_x = model.c @ x, model.energy(x)
            tip_tol = 2.0 * np.abs(model.c) @ err + 1e-9 * np.max(np.abs(tip)) + oracles.csv_rounding(tip_x)
            h_tol = (2.0 * model.weights @ (np.abs(x) * err + 0.5 * err**2)
                     + 1e-9 * energy[0] + oracles.csv_rounding(h_x))
            if abs(tip[k] - tip_x) > tip_tol:
                faults.append(f"trajectory tip at step {k}: {tip[k]!r} vs exact {tip_x!r} (tol {tip_tol:.2e})")
            if abs(energy[k] - h_x) > h_tol:
                faults.append(f"trajectory energy at step {k}: {energy[k]!r} vs exact {h_x!r} (tol {h_tol:.2e})")
        return faults

    def _check_frf(self, outdir):
        model = oracles.Model(self.scenarios["frf_tl_m12"])
        _, rows = read_csv(os.path.join(outdir, "frf.csv"))
        data = np.array([[float(v) for v in row] for row in rows])
        omega = np.linspace(0.1 * model.omega[0], 1.2 * model.omega[-1], 2000)
        if data.shape[0] != omega.size:
            return [f"frf.csv has {data.shape[0]} rows, expected {omega.size}"]
        faults = []
        if np.any(np.abs(data[:, 0] - omega) > FRF_RTOL * omega + 1.001 * oracles.csv_rounding(omega)):
            faults.append("frf.csv frequency grid differs from the oracle's")
        mag = np.abs(oracles.frf(model, omega))
        tol = FRF_RTOL * mag + 1.001 * oracles.csv_rounding(mag)
        bad = np.nonzero(~(np.abs(data[:, 1] - mag) <= tol))[0]
        if bad.size:
            j = bad[0]
            faults.append(f"frf.csv magnitude off at {bad.size} points, first w={omega[j]:.6g}: "
                          f"{data[j, 1]!r} vs oracle {mag[j]!r}")
        return faults


WORKLOAD_CLASSES = {"compare-m5": CompareM5, "poles-m12": PolesM12, "response": Response}


def make(name, seed, indir):
    return WORKLOAD_CLASSES[name](name, seed, indir)
