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

_SI_SUFFIXES = {"k": 1e3, "m": 1e-3, "u": 1e-6, "n": 1e-9}


def parse_si(token):
    """Parse a finite number with optional SI suffix: '100n' -> 1e-7, '10k' -> 1e4."""
    suffix = token[-1:] in _SI_SUFFIXES  # of float literals only "nan" ends in one
    try:
        value = float(token[:-1]) * _SI_SUFFIXES[token[-1]] if suffix else float(token)
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
            raise ParameterError(fault[1])

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
    ("node", name), or None for a netlist-wide fault.  `Netlist` raises the
    message; the parser also attaches the line that declared the subject.
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
    if termination not in ("none", "both_ends"):
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
    except ParameterError:  # a failed parse asks again, for the subject's line
        subject, message = _validate_structure(branches, piezo)
        raise NetlistError(lines.get(subject), message) from None


@dataclass(frozen=True)
class NetworkMatrices:
    """Incidence and branch-parameter matrices for an ordered netlist.

    node_names are sorted; branch order follows declaration order.  Column j
    of b_inc holds +1 at the branch's departure node and -1 at its arrival
    node, with the ground row dropped.  r_b and l_b hold the diagonal branch
    resistances and inductances.  s_shape, the branch inductance pattern with
    the first branch normalized to 1, is computed once from l_b on
    construction, also by `dataclasses.replace`.
    """

    node_names: tuple[str, ...]
    branch_names: tuple[str, ...]
    b_inc: np.ndarray
    r_b: np.ndarray
    l_b: np.ndarray
    s_shape: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "s_shape", self.l_b / self.l_b[0])

    @property
    def n_nodes(self):
        return len(self.node_names)

    @property
    def n_branches(self):
        return len(self.branch_names)


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
