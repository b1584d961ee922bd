import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import piezoshunt as ps
from piezoshunt.beam import solve_wavenumbers
from piezoshunt.errors import ParameterError

from _oracles import (bisect_wavenumber, characteristic_residual, modal_gram, quadrature_norms,
                      tip_compliance)

# (L, EI, rhoA) of the unit beam and two others
BEAMS = [(1.0, 1.0, 1.0), (0.3, 2.5, 0.7), (2.0, 50.0, 3.1)]


def test_first_wavenumber_matches_bisection_oracle():
    assert solve_wavenumbers(1)[0] == pytest.approx(bisect_wavenumber(1), abs=1e-10)
    assert solve_wavenumbers(1)[0] == pytest.approx(1.8751041, abs=1e-6)


def test_first_three_wavenumbers():
    got = solve_wavenumbers(3)
    expected = [1.8751041, 4.6940911, 7.8547574]
    for value, ref, k in zip(got, expected, range(1, 4)):
        assert value == pytest.approx(ref, abs=1e-6)
        assert value == pytest.approx(bisect_wavenumber(k), abs=1e-10)


def test_wavenumbers_strictly_increasing_and_residuals():
    roots = solve_wavenumbers(12)
    assert len(roots) == 12
    assert all(a < b for a, b in zip(roots, roots[1:]))
    # raw characteristic residual is representable in doubles for low modes only;
    # the scaled residual cos(x) + sech(x) stays at machine level throughout
    for r in roots[:4]:
        assert abs(1.0 + np.cos(r) * np.cosh(r)) < 1e-10
    for k, r in enumerate(roots, start=1):
        assert abs(characteristic_residual(r)) < 1e-12
        assert r == pytest.approx(bisect_wavenumber(k), abs=1e-10)


def test_wavenumber_range_errors():
    with pytest.raises(ParameterError):
        solve_wavenumbers(0)
    with pytest.raises(ParameterError):
        solve_wavenumbers(13)


def test_unit_beam_fundamental_frequency(basis5):
    # omega = betaL^2 * sqrt(EI/rhoA) / L^2 with betaL from the bisection oracle
    assert basis5.omega[0] == pytest.approx(bisect_wavenumber(1) ** 2, rel=1e-9)
    assert basis5.omega[0] == pytest.approx(3.5160153, abs=1e-6)


def test_modal_mass_is_one_by_quadrature():
    beam = ps.BeamSpec(length=0.7, bending_stiffness=3.1, mass_per_length=2.2)
    basis = ps.modal_basis(beam, 6)
    for k in range(1, 7):
        integrand = lambda x: beam.mass_per_length * ps.eval_mode(basis, k, x) ** 2
        mass, _ = quad(integrand, 0.0, beam.length, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("length, stiffness, mass", BEAMS)
def test_modal_mass_closed_form_matches_gauss_legendre(length, stiffness, mass):
    # the raw shape's square integrates to L (Blevins 1979, table 8-1): every
    # mode has norm 1/sqrt(rhoA*L), which a 1024-panel quadrature reproduces
    beam = ps.BeamSpec(length, stiffness, mass)
    basis = ps.modal_basis(beam, 12)
    closed = 1.0 / np.sqrt(mass * length)
    assert np.all(basis.norm == closed)
    ulps = np.abs(quadrature_norms(beam, 12) - closed) / np.spacing(closed)
    assert np.max(ulps) <= 4.0


def test_gram_matrix_is_identity(basis5):
    g = modal_gram(basis5)
    assert np.max(np.abs(g - np.eye(5))) < 1e-8


def test_gram_matrix_identity_at_mode_cap(unit_beam):
    basis = ps.modal_basis(unit_beam, 12)
    g = modal_gram(basis)
    assert np.max(np.abs(g - np.eye(12))) < 1e-8


def test_frequency_scaling_with_length(unit_beam, basis5):
    longer = ps.BeamSpec(length=2.0, bending_stiffness=1.0, mass_per_length=1.0)
    basis_long = ps.modal_basis(longer, 5)
    assert np.allclose(basis_long.omega, basis5.omega / 4.0, rtol=1e-12)


def test_clamped_end_conditions(basis5):
    for k in range(1, 6):
        assert ps.eval_mode(basis5, k, 0.0, order=0) == 0.0
        assert ps.eval_mode(basis5, k, 0.0, order=1) == 0.0


def test_slope_matches_finite_difference(basis5):
    h = 1e-5 * basis5.beam.length
    for k in range(1, 6):
        for x in (0.3, 0.61, basis5.beam.length - h):
            fd = (ps.eval_mode(basis5, k, x + h) - ps.eval_mode(basis5, k, x - h)) / (2 * h)
            assert ps.eval_mode(basis5, k, x, order=1) == pytest.approx(fd, rel=1e-6)


def test_eval_mode_domain_errors(basis5):
    with pytest.raises(ParameterError):
        ps.eval_mode(basis5, 1, -0.1)
    with pytest.raises(ParameterError):
        ps.eval_mode(basis5, 1, 1.5)
    with pytest.raises(ParameterError):
        ps.eval_mode(basis5, 6, 0.5)
    with pytest.raises(ParameterError):
        ps.eval_mode(basis5, 1, 0.5, order=2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="outside beam span"):
            ps.eval_mode(basis5, 1, bad)
        with pytest.raises(ParameterError, match="outside beam span"):
            ps.eval_mode(basis5, 1, np.array([0.5, bad]))


def test_force_vector_at_clamped_end_is_zero(basis5):
    assert all(ps.eval_mode(basis5, k, 0.0) == 0.0 for k in range(1, 6))


def test_force_vector_at_tip_nonzero(basis5):
    phi = ps.modal_force_vector(basis5)
    assert np.all(np.isfinite(phi))
    assert np.all(np.abs(phi) > 0.1)


def test_tip_compliance_monotone_and_convergent(basis5):
    exact = 1.0 / 3.0  # L^3 / (3 EI) for the unit beam
    partial = [tip_compliance(basis5, m) for m in range(1, 6)]
    assert all(a < b for a, b in zip(partial, partial[1:]))
    assert all(p < exact for p in partial)
    assert partial[-1] == pytest.approx(exact, rel=5e-3)


def test_modal_damping_broadcast_and_list():
    beam = ps.BeamSpec(1.0, 1.0, 1.0, zeta=0.02)
    assert np.allclose(ps.modal_basis(beam, 4).zeta, 0.02)
    # per-mode ratios go on the basis, whose zeta the equations read
    zeta = np.array([0.01, 0.02, 0.03])
    basis = dataclasses.replace(ps.modal_basis(beam, 3), zeta=zeta)
    sys_ = ps.assemble(basis, ps.uniform_layout(beam, 2, 0.9, 100e-9, 1e-4),
                       ps.build_single_shunt(2, 8e4, 1.6e5))
    damping = np.diag(ps.coupled.state_matrix(sys_))[3:6]
    np.testing.assert_allclose(damping, -2.0 * zeta * basis.omega, rtol=1e-15)
    assert ps.reduce(sys_, 2).zeta_m == pytest.approx(0.02, rel=1e-15)


def test_beam_spec_invariants():
    with pytest.raises(ParameterError):
        ps.BeamSpec(-1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        ps.BeamSpec(1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        ps.BeamSpec(1.0, 1.0, 1.0, zeta=1.0)
    # one ratio for every mode: a sequence is refused, named
    with pytest.raises(ParameterError, match=r"got \(0\.01, 0\.02\)"):
        ps.BeamSpec(1.0, 1.0, 1.0, zeta=(0.01, 0.02))
