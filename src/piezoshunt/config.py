"""Scenario configuration: sectioned key=value text with SI-suffixed numbers.

Example::

    [beam]
    L = 1.0
    EI = 1.0
    rhoA = 1.0
    zeta = 0.0
    M = 5

    [patches]
    N = 5
    coverage = 0.9
    Cp = 100n
    gamma = 1e-4

    [network]
    topology = single_shunt   # single_shunt | multi_shunt | transmission_line
    R = 80k
    L = 160k
    termination = none        # none | both_ends

    [optimize]
    objective = min-damping-ratio   # or hinf
    target_mode = 1
    per_branch = false

    [simulate]
    dt = auto
    T = auto
    initial = tip_displacement      # zero | tip_displacement | tip_impulse

    [output]
    dir = out

Every section and key is optional; omitted keys take the defaults above.
Unknown sections or keys are rejected with their line number.  A `netlist`
key in [network] points at a netlist file and overrides `topology`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .beam import BeamSpec, modal_basis
from .circuits import branch_fault, parse_si
from .errors import ConfigError, ParameterError, integer_fault
from .patches import uniform_layout

TOPOLOGIES = ("single_shunt", "multi_shunt", "transmission_line")
OBJECTIVES = ("min-damping-ratio", "hinf")
INITIAL_KINDS = ("zero", "tip_displacement", "tip_impulse")


@dataclass
class ScenarioConfig:
    # beam
    length: float = 1.0
    bending_stiffness: float = 1.0
    mass_per_length: float = 1.0
    zeta: float = 0.0
    n_modes: int = 5
    # patches
    n_patches: int = 5
    coverage: float = 0.9
    cp: float = 100e-9
    gamma: float = 1e-4
    # network
    topology: str = "single_shunt"
    netlist_path: str | None = None
    r: float = 8e4
    l: float = 1.6e5
    termination: str = "none"
    # optimize
    objective: str = "min-damping-ratio"
    target_mode: int = 1
    bounds: tuple[tuple[float, float], tuple[float, float]] | None = None  # (R, L) search box
    per_branch: bool = False
    # simulate
    dt: float | None = None      # None = auto from the spectral bound
    t_final: float | None = None  # None = 20 periods of mode 1
    initial: str = "tip_displacement"
    # output
    outdir: str = "out"

    def beam_spec(self):
        return BeamSpec(
            length=self.length,
            bending_stiffness=self.bending_stiffness,
            mass_per_length=self.mass_per_length,
            zeta=self.zeta,
        )


def _number(value, section, line_no):
    try:
        return parse_si(value)
    except ValueError as exc:
        raise ConfigError(str(exc), section, line_no) from None


def _integer(value, section, line_no):
    num = _number(value, section, line_no)
    if num != int(num):
        raise ConfigError(f"expected an integer, got {value!r}", section, line_no)
    return int(num)


def _boolean(value, section, line_no):
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}", section, line_no)


def _auto_or_number(value, section, line_no):
    if value == "auto":
        return None
    return _number(value, section, line_no)


def _choice(options):
    def convert(value, section, line_no):
        if value not in options:
            raise ConfigError(f"expected one of {options}, got {value!r}", section, line_no)
        return value
    return convert


def _string(value, section, line_no):
    return value


_SCHEMA = {
    "beam": {
        "L": ("length", _number),
        "EI": ("bending_stiffness", _number),
        "rhoA": ("mass_per_length", _number),
        "zeta": ("zeta", _number),
        "M": ("n_modes", _integer),
    },
    "patches": {
        "N": ("n_patches", _integer),
        "coverage": ("coverage", _number),
        "Cp": ("cp", _number),
        "gamma": ("gamma", _number),
    },
    "network": {
        "topology": ("topology", _choice(TOPOLOGIES)),
        "netlist": ("netlist_path", _string),
        "R": ("r", _number),
        "L": ("l", _number),
        "termination": ("termination", _choice(("none", "both_ends"))),
    },
    "optimize": {
        "objective": ("objective", _choice(OBJECTIVES)),
        "target_mode": ("target_mode", _integer),
        "R_min": ("_r_min", _number),
        "R_max": ("_r_max", _number),
        "L_min": ("_l_min", _number),
        "L_max": ("_l_max", _number),
        "per_branch": ("per_branch", _boolean),
    },
    "simulate": {
        "dt": ("dt", _auto_or_number),
        "T": ("t_final", _auto_or_number),
        "initial": ("initial", _choice(INITIAL_KINDS)),
    },
    "output": {
        "dir": ("outdir", _string),
    },
}


def load_config(text):
    """Parse and validate scenario text, filling defaults for omitted keys."""
    cfg = ScenarioConfig()
    extras = {}
    section = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", line_no=line_no)
            continue
        if section is None:
            raise ConfigError(f"key outside any section: {line!r}", line_no=line_no)
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", section, line_no)
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r}", section, line_no)
        attr, convert = _SCHEMA[section][key]
        parsed = convert(value, section, line_no)
        if attr.startswith("_"):
            extras[attr] = parsed
        else:
            setattr(cfg, attr, parsed)

    if extras:  # the search-box keys, the only underscored ones
        if len(extras) < 4:
            raise ConfigError("R_min and R_max, L_min and L_max go together: give all four "
                              f"or none, got only {sorted(k[1:] for k in extras)}", "optimize")
        cfg.bounds = ((extras["_r_min"], extras["_r_max"]), (extras["_l_min"], extras["_l_max"]))

    _validate(cfg)
    return cfg


def _validate(cfg):
    """Apply the rules of the library calls that consume `cfg`; a fault names its section."""
    section = "beam"
    try:
        beam = cfg.beam_spec()
        modal_basis(beam, cfg.n_modes)
        section = "patches"
        uniform_layout(beam, cfg.n_patches, cfg.coverage, cfg.cp, cfg.gamma)
    except ParameterError as exc:
        raise ConfigError(str(exc), section) from None
    if fault := branch_fault(cfg.r, cfg.l):
        raise ConfigError(f"R, L: branch {fault}", "network")
    if fault := integer_fault(cfg.target_mode, 1, cfg.n_modes):
        raise ConfigError(f"target_mode {fault}", "optimize")
    for key, value in (("dt", cfg.dt), ("T", cfg.t_final)):
        if not (value is None or value > 0):
            raise ConfigError(f"{key} must be positive or auto, got {value}", "simulate")
    for x, (lo, hi) in zip("RL", cfg.bounds or ()):
        if not 0 < lo < hi:
            raise ConfigError(f"{x} bounds must satisfy 0 < {x}_min < {x}_max", "optimize")
