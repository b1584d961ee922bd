"""RL interconnection networks as netlists over named nodes.

A netlist consists of series-RL branches between nodes (the distinguished
ground is spelled ``gnd``) plus attachments of piezo patch electrodes to
nodes.  Circuit nodes are exactly the non-ground branch endpoints; every node
must carry at least one piezo electrode so the node capacitance matrix stays
nonsingular, and pure-resistive branches are rejected (L > 0 keeps the
assembled model a plain ODE).

Text dialect (line oriented, '#' comments, case sensitive)::

    piezo <index> <node>
    branch <name> <nodeA> <nodeB> R=<ohms> L=<henries>

Numbers accept scientific notation and the SI suffixes k, m, u, n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NetlistError, ParameterError, integer_fault

GROUND = "gnd"

#: The ends of a transmission line: left floating, or each grounded by one more branch.
TERMINATIONS = ("none", "both_ends")

_SI_EXPONENTS = {"k": 3, "m": -3, "u": -6, "n": -9}


def parse_si(token):
    """Parse a finite number with optional SI suffix as the decimal number it spells, correctly
    rounded: '100n' -> float('100e-9') == 1e-7, '10k' -> 1e4, '1e3k' -> 1e6."""
    shift = _SI_EXPONENTS.get(token[-1:])  # of float literals only "nan" ends in one
    try:
        value = float(token if shift is None else token[:-1])
        if shift is not None and np.isfinite(value):  # mantissa and exponent as one literal
            mantissa, _, exponent = token[:-1].lower().partition("e")
            value = float(f"{mantissa.strip()}e{int(exponent or 0) + shift}")
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ValueError(f"malformed number {token!r}")
    return value


@dataclass(frozen=True)
class Branch:
    name: str
    node_a: str
    node_b: str
    r: float
    l: float


@dataclass(frozen=True)
class Netlist:
    """Validated interconnection: branch list plus patch-to-node attachments."""

    branches: tuple[Branch, ...]
    piezo: dict[int, str]  # 1-based patch index -> node name

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "piezo", dict(self.piezo))
        if fault := _validate_structure(self.branches, self.piezo):
            raise NetlistError(None, fault[1], subject=fault[0])

    @property
    def nodes(self):
        """Sorted non-ground node names (the branch endpoints)."""
        names = set()
        for br in self.branches:
            names.update((br.node_a, br.node_b))
        names.discard(GROUND)
        return sorted(names)


def branch_fault(r, l):
    """Why (r, l) is no passive branch (finite R >= 0, finite L > 0), or None.
    Chained scalar comparisons also reject nan and are cheap enough per evaluation."""
    if not 0 < l < np.inf:
        return f"needs finite positive inductance, got {l}"
    if not 0 <= r < np.inf:
        return f"needs finite nonnegative resistance, got {r}"
    return None


def per_branch(values, n, name):
    """`values` as a new float vector over `n` branches: a scalar or a sequence of length n."""
    values = np.asarray(values, dtype=float)
    if values.shape not in ((), (n,)):
        raise ParameterError(f"{name} must be a scalar or a list of length {n}, "
                             f"got shape {values.shape}")
    return np.full(n, values)  # a third of the cost of broadcast_to(...).copy()


def _validate_structure(branches, piezo):
    """First violated structural invariant as (subject, message), or None.

    `subject` names the item at fault: ("branch", position), ("piezo", index),
    ("node", name), or None for a netlist-wide fault.  `Netlist` raises both
    as a NetlistError; the parser adds the line that declared the subject.
    """
    if not branches:
        return None, "netlist needs at least one branch"
    names = set()
    nodes = set()
    for j, br in enumerate(branches):
        subject = ("branch", j)
        if br.name in names:
            return subject, f"duplicate branch name {br.name!r}"
        names.add(br.name)
        if br.node_a == br.node_b:
            return subject, f"self-loop branch {br.name!r} ({br.node_a})"
        if fault := branch_fault(br.r, br.l):
            return subject, f"branch {br.name!r} {fault}"
        nodes.update(n for n in (br.node_a, br.node_b) if n != GROUND)
    if not piezo:
        return None, "netlist needs at least one piezo attachment"
    for idx, node in piezo.items():
        subject = ("piezo", idx)
        if idx < 1:
            return subject, f"piezo index must be positive, got {idx}"
        if node == GROUND:
            return subject, f"piezo {idx} attached to ground"
        if node not in nodes:
            return subject, f"piezo {idx} attached to unknown node {node!r}"
    for node in sorted(nodes - set(piezo.values())):
        return ("node", node), f"node {node!r} has no piezo attachment"
    return None


def build_single_shunt(n, r, lind):
    """All N piezos parallel on one bus node, shunted to ground by one RL branch."""
    if fault := integer_fault(n, 1):
        raise ParameterError(f"patch count {fault}")
    return Netlist(
        branches=(Branch("b1", "bus", GROUND, float(r), float(lind)),),
        piezo={i: "bus" for i in range(1, n + 1)},
    )


def build_multi_shunt(n, r, lind):
    """One grounded RL branch per piezo; scalars broadcast over the N loops."""
    if fault := integer_fault(n, 1):
        raise ParameterError(f"patch count {fault}")
    r_list, l_list = per_branch(r, n, "resistance"), per_branch(lind, n, "inductance")
    branches = tuple(
        Branch(f"b{i}", f"n{i}", GROUND, float(r_list[i - 1]), float(l_list[i - 1]))
        for i in range(1, n + 1)
    )
    return Netlist(branches=branches, piezo={i: f"n{i}" for i in range(1, n + 1)})


def build_transmission_line(n, r, lind, termination="none"):
    """Chain of floating RL branches linking adjacent piezo nodes.

    With ``termination="both_ends"`` two extra grounded branches with the same
    (R, L) are added at the first and last node; the default leaves the line
    floating, which carries an undamped uniform-voltage mode.
    """
    if fault := integer_fault(n, 2):
        raise ParameterError(f"transmission line patch count {fault}")
    if termination not in TERMINATIONS:
        raise ParameterError(f"unknown termination {termination!r}")
    branches = [
        Branch(f"b{i}", f"n{i}", f"n{i + 1}", float(r), float(lind))
        for i in range(1, n)
    ]
    if termination == "both_ends":
        branches.append(Branch("bt1", "n1", GROUND, float(r), float(lind)))
        branches.append(Branch("bt2", f"n{n}", GROUND, float(r), float(lind)))
    return Netlist(branches=tuple(branches), piezo={i: f"n{i}" for i in range(1, n + 1)})


def parse_netlist(text):
    """Parse the netlist dialect, rejecting invariant violations with line numbers."""
    branches = []
    piezo = {}
    lines = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "piezo":
            if len(tokens) != 3:
                raise NetlistError(line_no, "expected: piezo <index> <node>")
            try:
                idx = int(tokens[1])
            except ValueError:
                raise NetlistError(line_no, f"malformed piezo index {tokens[1]!r}") from None
            if idx in piezo:
                raise NetlistError(line_no, f"duplicate piezo attachment for patch {idx}")
            piezo[idx] = tokens[2]
            lines[("piezo", idx)] = line_no
        elif tokens[0] == "branch":
            if len(tokens) != 6 or not tokens[4].startswith("R=") or not tokens[5].startswith("L="):
                raise NetlistError(
                    line_no, "expected: branch <name> <nodeA> <nodeB> R=<ohms> L=<henries>"
                )
            name, node_a, node_b = tokens[1], tokens[2], tokens[3]
            try:
                r = parse_si(tokens[4][2:])
                l = parse_si(tokens[5][2:])
            except ValueError as exc:
                raise NetlistError(line_no, str(exc)) from None
            lines[("branch", len(branches))] = line_no
            branches.append(Branch(name, node_a, node_b, r, l))
            for node in (node_a, node_b):
                lines.setdefault(("node", node), line_no)
        else:
            raise NetlistError(line_no, f"unknown directive {tokens[0]!r}")

    try:
        return Netlist(branches=tuple(branches), piezo=piezo)  # runs the structural check
    except NetlistError as exc:
        raise NetlistError(lines.get(exc.subject), str(exc)) from None


@dataclass(frozen=True)
class NetworkMatrices:
    """Incidence and branch-parameter matrices for an ordered netlist.

    node_names are sorted; branch order follows declaration order.  Column j
    of b_inc holds +1 at the branch's departure node and -1 at its arrival
    node, with the ground row dropped.  r_b and l_b hold the diagonal branch
    resistances and inductances.  Computed on construction, also by `replace`:
    s_shape = l_b / l_b[0]; floating, the ground-free components, each holding
    its charge (P - rank b_inc = P - B + loops); zero_modes, floating plus the
    loops of R = 0 branches, each holding its flux: the coupled model's zeros.
    """

    node_names: tuple[str, ...]
    branch_names: tuple[str, ...]
    b_inc: np.ndarray
    r_b: np.ndarray
    l_b: np.ndarray
    s_shape: np.ndarray = field(init=False, repr=False, compare=False)
    floating: int = field(init=False, repr=False, compare=False)
    zero_modes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "s_shape", self.l_b / self.l_b[0])
        object.__setattr__(self, "floating", self.n_nodes - self.n_branches + _loops(self.b_inc))
        object.__setattr__(self, "zero_modes", self.floating + _loops(self.b_inc[:, self.r_b == 0]))

    @property
    def n_nodes(self):
        return len(self.node_names)

    @property
    def n_branches(self):
        return len(self.branch_names)


def _loops(b_inc):
    """Independent loops of the branches `b_inc` (columns), gnd a vertex, by union-find."""
    label = list(range(len(b_inc) + 1))  # vertex len(b_inc) is gnd
    for col in b_inc.T:
        a, b = (*np.flatnonzero(col).tolist(), len(b_inc))[:2]
        label = [label[b] if x == label[a] else x for x in label]
    return b_inc.shape[1] - len(label) + len(set(label))


def network_matrices(net, n_patches):
    """Emit deterministic incidence/parameter matrices for `n_patches` piezos."""
    expected = set(range(1, n_patches + 1))
    if set(net.piezo) != expected:
        missing = sorted(expected - set(net.piezo))
        extra = sorted(set(net.piezo) - expected)
        detail = []
        if missing:
            detail.append(f"unattached patches {missing}")
        if extra:
            detail.append(f"attachments for nonexistent patches {extra}")
        raise ParameterError("netlist/patch mismatch: " + ", ".join(detail))

    nodes = net.nodes
    index = {name: p for p, name in enumerate(nodes)}
    b_inc = np.zeros((len(nodes), len(net.branches)))
    r_b = np.empty(len(net.branches))
    l_b = np.empty(len(net.branches))
    for j, br in enumerate(net.branches):
        if br.node_a != GROUND:
            b_inc[index[br.node_a], j] = 1.0
        if br.node_b != GROUND:
            b_inc[index[br.node_b], j] = -1.0
        r_b[j] = br.r
        l_b[j] = br.l
    return NetworkMatrices(
        node_names=tuple(nodes),
        branch_names=tuple(br.name for br in net.branches),
        b_inc=b_inc,
        r_b=r_b,
        l_b=l_b,
    )
