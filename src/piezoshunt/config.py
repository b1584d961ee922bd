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
    initial = tip_displacement      # tip_displacement | tip_impulse

Every section and key is optional; omitted keys take the defaults above.
Unknown sections or keys are rejected with their line number.  A `netlist`
key in [network] names a netlist file, a relative path from the config
file's directory, and overrides `topology`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .beam import BeamSpec, modal_basis
from .circuits import TERMINATIONS, branch_fault, parse_si
from .errors import ConfigError, ParameterError, integer_fault
from .patches import uniform_layout
from .reduction import OBJECTIVES, _box_fault
from .timesim import _time_fault

TOPOLOGIES = ("single_shunt", "multi_shunt", "transmission_line")
INITIAL_KINDS = ("tip_displacement", "tip_impulse")


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
    dt: float | None = None      # None = auto: `integrate` takes 80% of the spectral bound
    t_final: float | None = None  # None = auto: `integrate` takes 20 periods of mode 1
    initial: str = "tip_displacement"

    def beam_spec(self):
        return BeamSpec(
            length=self.length,
            bending_stiffness=self.bending_stiffness,
            mass_per_length=self.mass_per_length,
            zeta=self.zeta,
        )


def _integer(value):
    num = parse_si(value)
    if num != int(num):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(num)


def _boolean(value):
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _auto_or_number(value):
    return None if value == "auto" else parse_si(value)


def _choice(options):
    def convert(value):
        if value not in options:
            raise ValueError(f"expected one of {options}, got {value!r}")
        return value
    return convert


# key -> (attribute, converter: text -> value, else ValueError); box keys have no attribute
_SCHEMA = {
    "beam": {
        "L": ("length", parse_si),
        "EI": ("bending_stiffness", parse_si),
        "rhoA": ("mass_per_length", parse_si),
        "zeta": ("zeta", parse_si),
        "M": ("n_modes", _integer),
    },
    "patches": {
        "N": ("n_patches", _integer),
        "coverage": ("coverage", parse_si),
        "Cp": ("cp", parse_si),
        "gamma": ("gamma", parse_si),
    },
    "network": {
        "topology": ("topology", _choice(TOPOLOGIES)),
        "netlist": ("netlist_path", str),
        "R": ("r", parse_si),
        "L": ("l", parse_si),
        "termination": ("termination", _choice(TERMINATIONS)),
    },
    "optimize": {
        "objective": ("objective", _choice(OBJECTIVES)),
        "target_mode": ("target_mode", _integer),
        "R_min": (None, parse_si),
        "R_max": (None, parse_si),
        "L_min": (None, parse_si),
        "L_max": (None, parse_si),
        "per_branch": ("per_branch", _boolean),
    },
    "simulate": {
        "dt": ("dt", _auto_or_number),
        "T": ("t_final", _auto_or_number),
        "initial": ("initial", _choice(INITIAL_KINDS)),
    },
}


def load_config(text):
    """Parse and validate scenario text, filling defaults for omitted keys."""
    cfg = ScenarioConfig()
    box = {}
    section = None
    seen = set()

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
        try:
            if "=" not in line:
                raise ValueError(f"expected key = value, got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _SCHEMA[section]:
                raise ValueError(f"unknown key {key!r}")
            if (section, key) in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add((section, key))
            attr, convert = _SCHEMA[section][key]
            parsed = convert(value)
        except ValueError as exc:
            raise ConfigError(str(exc), section, line_no) from None
        if attr is None:
            box[key] = parsed
        else:
            setattr(cfg, attr, parsed)

    if box:
        if len(box) < 4:
            raise ConfigError("R_min and R_max, L_min and L_max go together: give all four "
                              f"or none, got only {sorted(box)}", "optimize")
        cfg.bounds = ((box["R_min"], box["R_max"]), (box["L_min"], box["L_max"]))

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
    for name, value in (("time step", cfg.dt), ("final time", cfg.t_final)):
        if fault := _time_fault(name, value):
            raise ConfigError(fault, "simulate")
    if cfg.bounds is not None and (fault := _box_fault(cfg.bounds)):
        raise ConfigError(fault, "optimize")
