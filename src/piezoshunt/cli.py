"""Command-line front end: run the analysis pipeline and emit CSV tables."""

from __future__ import annotations

import argparse
import os
import sys as _sys
from itertools import chain

import numpy as np

from . import circuits, coupled, reduction, timesim
from .beam import modal_basis, modal_force_vector
from .config import TOPOLOGIES, load_config
from .errors import NumericalError, ParameterError
from .patches import uniform_layout


#: %-format of a CSV column by its numpy dtype kind: a float with 9 significant digits.
_COLUMN_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.9g", "U": "%s"}


def _fmt(value):
    """A float as a CSV cell holds it, for the standard output."""
    return _COLUMN_FORMATS["f"] % value

#: Rows formatted per write.
_CSV_BLOCK = 1024


def _write_csv(path, header, columns):
    """Write the equal-length `columns` under `header`, one %-format built from the column types.

    A column is an array or a sequence of cells of one type.  The rows are
    formatted in blocks of `_CSV_BLOCK`, each from Python scalars.
    """
    columns = [np.asarray(col) for col in columns]
    row = ",".join(_COLUMN_FORMATS[col.dtype.kind] for col in columns) + "\n"
    n_rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CSV_BLOCK):
            block = [col[start:start + _CSV_BLOCK].tolist() for col in columns]
            fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def _builtin_netlist(cfg, topology):
    """The built-in `topology` on the configured patch count and branch values."""
    try:
        if topology == "single_shunt":
            return circuits.build_single_shunt(cfg.n_patches, cfg.r, cfg.l)
        if topology == "multi_shunt":
            return circuits.build_multi_shunt(cfg.n_patches, cfg.r, cfg.l)
        return circuits.build_transmission_line(cfg.n_patches, cfg.r, cfg.l, cfg.termination)
    except ParameterError as exc:
        raise ParameterError(f"[network] topology = {topology}: {exc}") from exc


def _basis_and_patches(cfg):
    basis = modal_basis(cfg.beam_spec(), cfg.n_modes)
    return basis, uniform_layout(basis.beam, cfg.n_patches, cfg.coverage, cfg.cp, cfg.gamma)


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def _build_system(cfg):
    if cfg.netlist_path is not None:
        net = circuits.parse_netlist(_read(cfg.netlist_path))
    else:
        net = _builtin_netlist(cfg, cfg.topology)
    return coupled.assemble(*_basis_and_patches(cfg), net)


def _initial_state(sys, kind):
    x0 = np.zeros(sys.n_states)
    m = sys.basis.m
    phi_tip = modal_force_vector(sys.basis)
    if kind == "tip_displacement":
        # quasistatic shape under a tip load, scaled to unit tip displacement
        eta = phi_tip / sys.basis.omega**2
        x0[:m] = eta / np.dot(phi_tip, eta)
        return x0
    if kind == "tip_impulse":
        x0[m:2 * m] = phi_tip
        return x0
    raise ParameterError(f"unknown initial condition {kind!r}")


def _cmd_modes(cfg, out):
    basis = modal_basis(cfg.beam_spec(), cfg.n_modes)
    _write_csv(os.path.join(out, "modes.csv"),
               ["mode", "betaL", "omega_rad_s", "zeta", "norm"],
               [np.arange(1, basis.m + 1), basis.beta_l, basis.omega, basis.zeta, basis.norm])
    print(f"wrote {basis.m} modes to {os.path.join(out, 'modes.csv')}")
    return 0


def _cmd_eig(cfg, out):
    sol = coupled.eigen(_build_system(cfg))
    _write_csv(os.path.join(out, "eig.csv"),
               ["re", "im", "freq_rad_s", "damping_ratio", "tag"],
               [sol.values.real, sol.values.imag, sol.freq, sol.zeta, sol.tags])
    print(f"wrote {len(sol.values)} eigenvalues to {os.path.join(out, 'eig.csv')}")
    return 0


def _cmd_frf(cfg, out):
    sys_ = _build_system(cfg)
    omega = np.linspace(0.1 * sys_.basis.omega[0], 1.2 * sys_.basis.omega[-1], 2000)
    table = coupled.frf(sys_, omega)
    _write_csv(os.path.join(out, "frf.csv"),
               ["omega_rad_s", "mag_m_per_N", "phase_rad"],
               [table.omega, table.magnitude, table.phase])
    print(f"wrote {len(omega)} FRF samples to {os.path.join(out, 'frf.csv')}")
    return 0


def _cmd_optimize(cfg, out):
    sys_ = _build_system(cfg)
    rm = reduction.reduce(sys_, cfg.target_mode)
    tr = reduction.tune(
        rm if not cfg.per_branch else sys_,
        cfg.objective,
        target_mode=cfg.target_mode,
        seed=reduction.closed_form_seed(rm),  # the system is reduced once
        bounds=cfg.bounds,
        per_branch=cfg.per_branch,
    )
    rows = [
        (j + 1, s.r0, s.l0, s.r_opt, s.l_opt, s.seed_objective, s.objective,
         s.iterations, int(s.converged))
        for j, s in enumerate(tr.starts)
    ]
    _write_csv(os.path.join(out, "optimize_trace.csv"),
               ["start", "R0", "L0", "R_opt", "L_opt", "seed_objective",
                "objective", "iterations", "converged"], list(zip(*rows)))
    print(f"objective        = {cfg.objective}")
    print(f"target mode      = {cfg.target_mode}  (kappa = {_fmt(rm.kappa)})")
    print(f"seed (R, L)      = ({_fmt(tr.seed[0])}, {_fmt(tr.seed[1])})")
    print(f"optimum (R, L)   = ({_fmt(tr.r)}, {_fmt(tr.l)})")
    if cfg.per_branch:  # the scales above are geometric means; these were tuned
        print(f"branch R (ohm)   = {', '.join(map(_fmt, tr.r_branches))}")
        print(f"branch L (H)     = {', '.join(map(_fmt, tr.l_branches))}")
    print(f"achieved value   = {_fmt(tr.objective)}")
    print(f"converged        = {tr.converged}   improving = {tr.improving}")
    if not tr.converged:
        print("warning: the returned optimum did not converge within the iteration cap; "
              "best found returned")
    return 0


def _cmd_simulate(cfg, out):
    sys_ = _build_system(cfg)
    lam_max = timesim.max_eigen_magnitude(sys_)
    dt = cfg.dt if cfg.dt is not None else 0.8 * timesim.DT_FRACTION * 2.0 * np.pi / lam_max
    t_final = cfg.t_final if cfg.t_final is not None else 20.0 * 2.0 * np.pi / sys_.basis.omega[0]
    x0 = _initial_state(sys_, cfg.initial)
    traj = timesim.integrate(sys_, x0, None, dt, t_final)
    tip = traj.states @ sys_.output_map
    h, p_diss = timesim.energy_history(sys_, traj)
    resid = timesim._energy_residual(h, p_diss, traj.dt)  # may refuse: before the CSV
    _write_csv(os.path.join(out, "trajectory.csv"),
               ["t_s", "tip_m", "energy_J"], [traj.times, tip, h])
    print(f"wrote {len(traj.times)} samples to {os.path.join(out, 'trajectory.csv')}")
    print(f"energy_residual = {_fmt(resid)}")
    return 0


def _compare_row(cfg, sys_, topology):
    rm = reduction.reduce(sys_, cfg.target_mode)

    tr = reduction.tune(rm, "min-damping-ratio", bounds=cfg.bounds)
    report = reduction.validate_reduction(sys_, rm, tr)

    tr_hinf = reduction.tune(rm, "hinf", bounds=cfg.bounds)
    peak = -reduction.validate_reduction(sys_, rm, tr_hinf).full_objective

    warn = []
    if not tr.converged:
        warn.append(f"{topology}: min-damping-ratio tuning did not converge")
    if not tr_hinf.converged:
        warn.append(f"{topology}: hinf tuning did not converge")
    row = (
        topology, rm.kappa, tr.r, tr.l, tr.objective, report.full_objective,
        report.pole_error, tr_hinf.r, tr_hinf.l, peak,
        int(tr.converged), int(tr_hinf.converged),
    )
    return row, warn


def _cmd_compare(cfg, out):
    header = [
        "topology", "kappa", "R_opt", "L_opt", "reduced_objective",
        "full_objective", "pole_error", "hinf_R_opt", "hinf_L_opt",
        "hinf_peak_m_per_N", "mindr_converged", "hinf_converged",
    ]
    rows = []
    warnings = []
    basis, patches = _basis_and_patches(cfg)  # shared: only the netlist differs
    for topology in TOPOLOGIES:
        sys_ = coupled.assemble(basis, patches, _builtin_netlist(cfg, topology))
        row, warn = _compare_row(cfg, sys_, topology)
        rows.append(row)
        warnings.extend(warn)
    _write_csv(os.path.join(out, "compare.csv"), header, list(zip(*rows)))
    print(f"wrote comparison for {len(rows)} topologies to {os.path.join(out, 'compare.csv')}")
    for row in rows:
        print(
            f"{row[0]}: kappa = {_fmt(row[1])}, min damping ratio (full) = {_fmt(row[5])}, "
            f"hinf peak = {_fmt(row[9])} m/N"
        )
    for message in warnings:
        print(f"warning: {message}")
    return 0


_COMMANDS = {
    "modes": _cmd_modes,
    "eig": _cmd_eig,
    "frf": _cmd_frf,
    "optimize": _cmd_optimize,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
}


def _parser():
    parser = argparse.ArgumentParser(
        prog="piezoshunt",
        description="Passive electric damping of a cantilever beam by piezo RL networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="scenario configuration file")
        p.add_argument("--out", default="out", help="output directory")
    return parser


def run_command(argv):
    """Run one subcommand; returns 0 on success, 1 on validation error, 2 on numerical error.

    The config file describes the run; the options say only where it is and
    where the CSVs go.
    """
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(_read(args.config) if args.config is not None else "")
        if cfg.netlist_path is not None:
            if args.command == "compare":
                raise ParameterError("compare always runs the three built-in topologies; "
                                     "[network] netlist does not apply")
            cfg.netlist_path = os.path.join(os.path.dirname(args.config), cfg.netlist_path)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args.out)
    except ParameterError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


def console_main():
    raise SystemExit(run_command(_sys.argv[1:]))


if __name__ == "__main__":
    console_main()
