import numpy as np
import pytest

import piezoshunt as ps
from piezoshunt.errors import ParameterError

from _oracles import node_capacitances


def test_uniform_contiguous_layout(unit_beam):
    arr = ps.uniform_layout(unit_beam, 5, coverage=1.0)
    assert np.allclose(arr.a, [0.0, 0.2, 0.4, 0.6, 0.8])
    assert np.allclose(arr.b, [0.2, 0.4, 0.6, 0.8, 1.0])


def test_uniform_half_coverage_centers(unit_beam):
    arr = ps.uniform_layout(unit_beam, 5, coverage=0.5)
    centers = 0.5 * (arr.a + arr.b)
    assert np.allclose(centers, [0.1, 0.3, 0.5, 0.7, 0.9])
    assert np.allclose(arr.b - arr.a, 0.1)


def test_single_patch_spans_beam(unit_beam):
    arr = ps.uniform_layout(unit_beam, 1, coverage=1.0)
    assert arr.a[0] == pytest.approx(0.0) and arr.b[0] == pytest.approx(1.0)


def test_layout_parameter_errors(unit_beam):
    with pytest.raises(ParameterError):
        ps.uniform_layout(unit_beam, 0)
    for count in (2.5, True):  # numpy would raise TypeError on these
        with pytest.raises(ParameterError, match="integer"):
            ps.uniform_layout(unit_beam, count)
    with pytest.raises(ParameterError):
        ps.uniform_layout(unit_beam, 5, coverage=0.0)
    with pytest.raises(ParameterError):
        ps.uniform_layout(unit_beam, 5, coverage=1.2)
    with pytest.raises(ParameterError):
        ps.uniform_layout(unit_beam, 5, cp=-1e-9)


NAN, INF = float("nan"), float("inf")
NON_FINITE_INPUTS = {
    "beam_length_nan": lambda beam: ps.BeamSpec(length=NAN, bending_stiffness=1.0, mass_per_length=1.0),
    "beam_length_inf": lambda beam: ps.BeamSpec(length=INF, bending_stiffness=1.0, mass_per_length=1.0),
    "beam_EI_nan": lambda beam: ps.BeamSpec(length=1.0, bending_stiffness=NAN, mass_per_length=1.0),
    "beam_EI_inf": lambda beam: ps.BeamSpec(length=1.0, bending_stiffness=INF, mass_per_length=1.0),
    "beam_rhoA_nan": lambda beam: ps.BeamSpec(length=1.0, bending_stiffness=1.0, mass_per_length=NAN),
    "beam_rhoA_inf": lambda beam: ps.BeamSpec(length=1.0, bending_stiffness=1.0, mass_per_length=INF),
    "patch_end_nan": lambda beam: ps.PatchArray(a=[0.1], b=[NAN], cp=1e-7, gamma=1e-4),
    "patch_start_inf": lambda beam: ps.PatchArray(a=[-INF], b=[0.2], cp=1e-7, gamma=1e-4),
    "layout_cp_nan": lambda beam: ps.uniform_layout(beam, 3, cp=NAN),
    "layout_cp_inf": lambda beam: ps.uniform_layout(beam, 3, cp=INF),
    "layout_gamma_nan": lambda beam: ps.uniform_layout(beam, 3, gamma=NAN),
    "layout_gamma_inf": lambda beam: ps.uniform_layout(beam, 3, gamma=INF),
}


@pytest.mark.parametrize("build", NON_FINITE_INPUTS.values(), ids=list(NON_FINITE_INPUTS))
def test_non_finite_beam_and_patch_inputs_rejected(unit_beam, build):
    with pytest.raises(ParameterError, match="finite"):
        build(unit_beam)


def test_patch_array_rejects_overlap():
    with pytest.raises(ParameterError):
        ps.PatchArray(a=[0.0, 0.15], b=[0.2, 0.4], cp=1e-7, gamma=1e-4)


def test_zero_gamma_gives_zero_coupling(basis5, unit_beam):
    arr = ps.uniform_layout(unit_beam, 5, coverage=0.9, gamma=0.0)
    theta = ps.coupling_matrix(basis5, arr)
    assert np.all(theta == 0.0)


def test_row_sums_telescope_for_full_coverage(basis5, unit_beam):
    gamma = 1e-4
    arr = ps.uniform_layout(unit_beam, 5, coverage=1.0, gamma=gamma)
    theta = ps.coupling_matrix(basis5, arr)
    for k in range(1, 6):
        expected = gamma * ps.eval_mode(basis5, k, 1.0, order=1)
        assert theta[k - 1].sum() == pytest.approx(expected, abs=1e-10)


def test_single_full_patch_coupling_vs_finite_difference(unit_beam):
    basis = ps.modal_basis(unit_beam, 1)
    gamma = 2.5e-4
    arr = ps.uniform_layout(unit_beam, 1, coverage=1.0, gamma=gamma)
    theta = ps.coupling_matrix(basis, arr)
    assert theta[0, 0] == pytest.approx(gamma * ps.eval_mode(basis, 1, 1.0, order=1), rel=1e-12)
    # cross-check the slope against a finite difference of the shape near x = L
    h = 1e-6
    fd = (ps.eval_mode(basis, 1, 1.0) - ps.eval_mode(basis, 1, 1.0 - 2 * h)) / (2 * h)
    assert theta[0, 0] == pytest.approx(gamma * fd, rel=1e-6)


def test_node_capacitances_diagonal_preserves_order(unit_beam):
    arr = ps.PatchArray(a=[0.0, 0.3, 0.6], b=[0.2, 0.5, 0.8],
                        cp=[1e-7, 2e-7, 3e-7], gamma=1e-4)
    c = node_capacitances(arr)
    assert np.allclose(c, np.diag([1e-7, 2e-7, 3e-7]))
    assert np.trace(c) == pytest.approx(6e-7)  # parallel connection total


def test_identical_patch_capacitance(unit_beam):
    arr = ps.uniform_layout(unit_beam, 5, cp=100e-9)
    assert np.allclose(np.diag(node_capacitances(arr)), 1e-7)
