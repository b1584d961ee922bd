import numpy as np
import pytest

import piezoshunt as ps
from piezoshunt import circuits
from piezoshunt.circuits import Branch, Netlist, parse_si
from piezoshunt.errors import NetlistError, ParameterError


def test_si_suffixes():
    assert parse_si("100n") == pytest.approx(1e-7)
    assert parse_si("10k") == pytest.approx(1e4)
    assert parse_si("1m") == pytest.approx(1e-3)
    assert parse_si("2.5u") == pytest.approx(2.5e-6)
    assert parse_si("1e-3") == pytest.approx(1e-3)
    assert parse_si("-4.2") == pytest.approx(-4.2)
    with pytest.raises(ValueError):
        parse_si("10q")


def test_single_shunt_structure():
    net = ps.build_single_shunt(5, 100.0, 0.5)
    nm = ps.network_matrices(net, 5)
    assert nm.n_nodes == 1 and nm.n_branches == 1
    assert np.allclose(nm.b_inc, [[1.0]])
    assert nm.r_b[0] == 100.0 and nm.l_b[0] == 0.5
    assert set(net.piezo.values()) == {"bus"}


def test_multi_shunt_identity_incidence():
    net = ps.build_multi_shunt(5, 10.0, 0.2)
    nm = ps.network_matrices(net, 5)
    assert np.allclose(nm.b_inc, np.eye(5))
    assert np.allclose(nm.r_b, 10.0) and np.allclose(nm.l_b, 0.2)


def test_multi_shunt_broadcast_and_lists():
    net = ps.build_multi_shunt(3, [1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
    nm = ps.network_matrices(net, 3)
    assert np.allclose(nm.r_b, [1.0, 2.0, 3.0])
    assert np.allclose(nm.l_b, [0.1, 0.2, 0.3])
    with pytest.raises((ParameterError, ValueError)):
        ps.build_multi_shunt(3, [1.0, 2.0], 0.1)


@pytest.mark.parametrize("r, lind", [([1.0, 2.0], 0.1), (1.0, [0.1, 0.2, 0.3, 0.4]),
                                     (np.ones(2), np.ones(3)), ([[1.0, 2.0, 3.0]], 0.1)])
def test_multi_shunt_list_length_mismatch_is_parameter_error(r, lind):
    with pytest.raises(ParameterError, match="list of length 3"):
        ps.build_multi_shunt(3, r, lind)


def test_single_and_multi_degenerate_to_same_loop():
    a = ps.network_matrices(ps.build_single_shunt(1, 5.0, 0.7), 1)
    b = ps.network_matrices(ps.build_multi_shunt(1, 5.0, 0.7), 1)
    assert np.allclose(a.b_inc, b.b_inc)
    assert np.allclose(a.r_b, b.r_b) and np.allclose(a.l_b, b.l_b)


def test_transmission_line_path_incidence():
    nm = ps.network_matrices(ps.build_transmission_line(3, 1.0, 0.1), 3)
    assert nm.b_inc.shape == (3, 2)
    assert np.allclose(nm.b_inc[:, 0], [1.0, -1.0, 0.0])
    assert np.allclose(nm.b_inc[:, 1], [0.0, 1.0, -1.0])
    # uniform node vector lies in the left null space: one rigid electrical mode
    assert np.allclose(nm.b_inc.T @ np.ones(3), 0.0)


def test_transmission_line_termination_adds_branches():
    nm = ps.network_matrices(ps.build_transmission_line(5, 1.0, 0.1, "both_ends"), 5)
    assert nm.n_branches == 6
    col_sums = nm.b_inc.sum(axis=0)
    assert np.allclose(col_sums[:4], 0.0)   # floating branches
    assert np.allclose(np.abs(col_sums[4:]), 1.0)  # grounded terminations


def test_builder_preconditions():
    with pytest.raises(ParameterError):
        ps.build_single_shunt(5, 1.0, 0.0)
    with pytest.raises(ParameterError):
        ps.build_transmission_line(1, 1.0, 0.1)
    with pytest.raises(ParameterError):
        ps.build_transmission_line(5, 1.0, 0.1, termination="left")
    with pytest.raises(ParameterError):
        ps.build_single_shunt(0, 1.0, 0.1)


SINGLE_SHUNT_TEXT = """
# five patches parallel on one bus
piezo 1 bus
piezo 2 bus
piezo 3 bus
piezo 4 bus
piezo 5 bus
branch b1 bus gnd R=100 L=10
"""


def test_parse_round_trips_single_shunt():
    net = ps.parse_netlist(SINGLE_SHUNT_TEXT)
    built = ps.build_single_shunt(5, 100.0, 10.0)
    assert net == built


def test_parse_round_trips_multi_shunt():
    lines = [f"piezo {i} n{i}" for i in range(1, 6)]
    lines += [f"branch b{i} n{i} gnd R=50 L=2u" for i in range(1, 6)]
    net = ps.parse_netlist("\n".join(lines))
    assert net == ps.build_multi_shunt(5, 50.0, 2e-6)


def test_parse_round_trips_transmission_line():
    lines = [f"piezo {i} n{i}" for i in range(1, 4)]
    lines += [f"branch b{i} n{i} n{i + 1} R=1k L=0.5" for i in range(1, 3)]
    net = ps.parse_netlist("\n".join(lines))
    assert net == ps.build_transmission_line(3, 1e3, 0.5)


def test_parse_self_loop_reports_line():
    text = "piezo 1 n1\nbranch b0 n1 gnd R=1 L=1\nbranch b1 n1 n1 R=10 L=0.1"
    with pytest.raises(NetlistError, match="line 3.*self-loop"):
        ps.parse_netlist(text)


def test_parse_nonpositive_inductance():
    text = "piezo 1 n1\nbranch b1 n1 gnd R=10 L=0"
    with pytest.raises(NetlistError, match="line 2.*inductance"):
        ps.parse_netlist(text)


def test_parse_negative_resistance():
    text = "piezo 1 n1\nbranch b1 n1 gnd R=-5 L=1"
    with pytest.raises(NetlistError, match="line 2.*resistance"):
        ps.parse_netlist(text)


def test_parse_duplicate_branch_name():
    text = "piezo 1 n1\npiezo 2 n2\nbranch b1 n1 gnd R=1 L=1\nbranch b1 n2 gnd R=1 L=1"
    with pytest.raises(NetlistError, match="line 4.*duplicate branch"):
        ps.parse_netlist(text)


def test_parse_duplicate_piezo():
    text = "piezo 1 n1\npiezo 1 n1\nbranch b1 n1 gnd R=1 L=1"
    with pytest.raises(NetlistError, match="line 2.*duplicate piezo"):
        ps.parse_netlist(text)


def test_parse_unknown_node_reference():
    text = "piezo 1 n1\npiezo 2 orphan\nbranch b1 n1 gnd R=1 L=1"
    with pytest.raises(NetlistError, match="line 2.*unknown node"):
        ps.parse_netlist(text)


def test_parse_node_without_piezo():
    text = "piezo 1 n1\nbranch b1 n1 n2 R=1 L=1"
    with pytest.raises(NetlistError, match="line 2.*no piezo"):
        ps.parse_netlist(text)


def test_parse_piezo_to_ground_rejected():
    text = "piezo 1 gnd\nbranch b1 n1 gnd R=1 L=1"
    with pytest.raises(NetlistError, match="line 1"):
        ps.parse_netlist(text)


@pytest.mark.parametrize("text, message", [
    ("", "netlist needs at least one branch"),
    ("# no piezo\nbranch b1 n1 gnd R=1 L=1", "netlist needs at least one piezo attachment"),
], ids=["no_branch", "no_piezo"])
def test_parse_netlist_wide_fault_names_no_line(text, message):
    with pytest.raises(NetlistError) as info:
        ps.parse_netlist(text)
    assert str(info.value) == message
    assert info.value.line_no is None


def test_parse_runs_the_structural_check_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return validate(*args)

    validate = circuits._validate_structure
    monkeypatch.setattr(circuits, "_validate_structure", counted)
    net = ps.parse_netlist("piezo 1 n1\npiezo 2 n2\nbranch b1 n1 n2 R=1 L=1\n"
                           "branch b2 n2 gnd R=1 L=1")
    assert len(calls) == 1
    assert net.nodes == ["n1", "n2"]


def test_parse_malformed_number_and_directive():
    with pytest.raises(NetlistError, match="malformed number"):
        ps.parse_netlist("piezo 1 n1\nbranch b1 n1 gnd R=abc L=1")
    with pytest.raises(NetlistError, match="unknown directive"):
        ps.parse_netlist("resistor r1 n1 gnd 5")


NON_FINITE = ["nan", "inf", "-inf", "1e400"]


@pytest.mark.parametrize("token", NON_FINITE)
def test_parse_non_finite_number_reports_line(token):
    with pytest.raises(NetlistError, match="line 3.*malformed number"):
        ps.parse_netlist(f"piezo 1 n1\n\nbranch b1 n1 gnd R=10 L={token}")
    with pytest.raises(NetlistError, match="line 1.*malformed number"):
        ps.parse_netlist(f"branch b1 n1 gnd R={token} L=1\npiezo 1 n1")
    with pytest.raises(ValueError, match="malformed number"):
        parse_si(token + "k")


@pytest.mark.parametrize("field", ["r", "l"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_netlist_rejects_non_finite_branch_values(field, value):
    # nan passes a plain `< 0` or `<= 0` check
    values = {"r": 1.0, "l": 1.0, field: value}
    with pytest.raises(ParameterError, match="finite"):
        Netlist(branches=(Branch("b1", "n1", "gnd", **values),), piezo={1: "n1"})
    with pytest.raises(ParameterError, match="finite"):
        ps.build_multi_shunt(1, values["r"], values["l"])


def test_network_matrices_patch_mismatch():
    net = ps.build_single_shunt(5, 1.0, 1.0)
    with pytest.raises(ParameterError, match="unattached"):
        ps.network_matrices(net, 6)


def test_incidence_column_sums():
    nm = ps.network_matrices(ps.build_transmission_line(4, 1.0, 0.1, "both_ends"), 4)
    for j, name in enumerate(nm.branch_names):
        total = nm.b_inc[:, j].sum()
        if name.startswith("bt"):
            assert abs(total) == 1.0
        else:
            assert total == 0.0


def test_laplacian_positive_semidefinite():
    def laplacian(nm):
        return nm.b_inc @ np.diag(1.0 / nm.l_b) @ nm.b_inc.T

    floating = ps.network_matrices(ps.build_transmission_line(5, 1.0, 0.1), 5)
    eigs = np.linalg.eigvalsh(laplacian(floating))
    assert eigs.min() > -1e-12 * eigs.max()
    assert eigs.min() < 1e-12 * eigs.max()  # floating line: singular

    for net in (ps.build_single_shunt(5, 1.0, 0.1),
                ps.build_multi_shunt(5, 1.0, 0.1),
                ps.build_transmission_line(5, 1.0, 0.1, "both_ends")):
        nm = ps.network_matrices(net, 5)
        eigs = np.linalg.eigvalsh(laplacian(nm))
        assert eigs.min() > 0  # grounded branch makes it definite


def test_deterministic_orderings():
    text = """
piezo 2 beta
piezo 1 alpha
branch z alpha beta R=1 L=1
branch a beta gnd R=2 L=2
"""
    nm = ps.network_matrices(ps.parse_netlist(text), 2)
    assert nm.node_names == ("alpha", "beta")      # sorted by name
    assert nm.branch_names == ("z", "a")           # declaration order
