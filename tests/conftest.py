import numpy as np
import pytest
from hypothesis import settings

import piezoshunt as ps

# every run draws the same examples, so two runs of the suite can be compared
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def unit_beam():
    return ps.BeamSpec(length=1.0, bending_stiffness=1.0, mass_per_length=1.0)


@pytest.fixture(scope="session")
def basis5(unit_beam):
    return ps.modal_basis(unit_beam, 5)


@pytest.fixture(scope="session")
def patches5(unit_beam):
    return ps.uniform_layout(unit_beam, 5, coverage=0.9, cp=100e-9, gamma=1e-4)


def make_benchmark(beam, m, n_patches, kappa=0.1, cp=100e-9, r=100.0, lind=1.0):
    """Single-shunt system with full-coverage patches and exact target kappa.

    With coverage 1 the coupling row telescopes to gamma * phi_1'(L), so gamma
    follows from kappa = gamma * phi_1'(L) / (sqrt(N Cp) * omega_1).
    """
    basis = ps.modal_basis(beam, m)
    slope_tip = ps.eval_mode(basis, 1, beam.length, order=1)
    gamma = kappa * basis.omega[0] * np.sqrt(n_patches * cp) / slope_tip
    patches = ps.uniform_layout(beam, n_patches, coverage=1.0, cp=cp, gamma=gamma)
    net = ps.build_single_shunt(n_patches, r, lind)
    return ps.assemble(basis, patches, net)


@pytest.fixture(scope="session")
def bench_m1(unit_beam):
    """The kappa = 0.1 single-mode, single-patch tuning benchmark."""
    return make_benchmark(unit_beam, m=1, n_patches=1)


@pytest.fixture(scope="session")
def bench_m5(unit_beam):
    """kappa ~ 0.1 single shunt with five modes and five patches."""
    return make_benchmark(unit_beam, m=5, n_patches=5)
