import numpy as np
import pytest
from hypothesis import settings

import cavityspdc as cs
from cavityspdc.constants import c

# Property tests draw the same examples on every run; few examples keep the
# suite fast, and no deadline keeps a loaded machine from failing them.
settings.register_profile("tier1", derandomize=True, max_examples=50, deadline=None)
settings.load_profile("tier1")

# Reference configuration: 20 um BBO cut for degenerate 400 -> 800 + 800 nm
# type-I downconversion, L = l, mirror 2 at 0.73 for the SPDC modes,
# 5 nm FWHM pump at 400 nm, 30 nm filters on both photons.

OMEGA_800 = 2 * np.pi * c / 800e-9
THETA_DEGENERATE = 0.5065859752980199  # rad, solved once in test_dispersion


@pytest.fixture(scope="session")
def crystal():
    return cs.bbo(THETA_DEGENERATE, 20e-6)


@pytest.fixture(scope="session")
def sr_cavity(crystal):
    cav = cs.singly_resonant_cavity(20e-6, crystal, 0.73)
    return cs.solve_resonance_phases(cav, OMEGA_800, OMEGA_800)


@pytest.fixture(scope="session")
def dr_cavity(crystal):
    cav = cs.singly_resonant_cavity(20e-6, crystal, 0.73)
    cav = cav.with_mirror(2, "pump", magnitude=1.0)
    cav = cav.with_mirror(1, "pump", magnitude=0.5)
    return cs.solve_resonance_phases(cav, OMEGA_800, OMEGA_800, 2 * OMEGA_800)


@pytest.fixture(scope="session")
def pump():
    return cs.PumpSpec.from_wavelength(400e-9, 5e-9)


@pytest.fixture(scope="session")
def filters():
    fwhm = cs.wavelength_fwhm_to_angular(800e-9, 30e-9)
    return (cs.FilterSpec(OMEGA_800, fwhm), cs.FilterSpec(OMEGA_800, fwhm))


@pytest.fixture()
def grid_257(filters):
    halfwidth = 3 * filters[0].fwhm
    return cs.default_grid(OMEGA_800, OMEGA_800, halfwidth, samples=257)


def cavity_round_trip_time(cavity, omega0):
    """Group round trip 2 (l k'(omega0) + (L - l)/c): the comb spacing in t_minus."""
    crystal = cavity.crystal
    kp0 = cs.group_slowness(crystal, omega0, "ordinary")
    return 2 * (crystal.length_l * kp0 + (cavity.length_L - crystal.length_l) / c)


def run_temporal_pipeline(crystal, r2, pump, filters, per_width=8, minus_span=3.0,
                          pad_minus=None):
    """Rotated-lattice JSA -> 2-D transform -> emission-time-difference marginal."""
    cav = cs.solve_resonance_phases(
        cs.singly_resonant_cavity(crystal.length_l, crystal, r2), OMEGA_800, OMEGA_800
    )
    width = cs.mode_width(cav, OMEGA_800, "signal")
    fw = filters[0].fwhm
    d_minus = width / per_width
    d_plus = width / max(per_width // 2, 2)
    half_minus = minus_span * fw
    half_plus = 4.5 * pump.sigma
    minus = np.linspace(-half_minus, half_minus, int(np.ceil(2 * half_minus / d_minus)) + 1)
    plus = np.linspace(
        2 * OMEGA_800 - half_plus, 2 * OMEGA_800 + half_plus,
        int(np.ceil(2 * half_plus / d_plus)) + 1,
    )
    rot = cs.jsa_singly_resonant_rotated(cav, pump, filters, plus, minus)
    tgrid = cs.joint_temporal_intensity(
        rot, round_trip_time=cavity_round_trip_time(cav, OMEGA_800), pad_minus=pad_minus
    )
    return cav, rot, tgrid, cs.time_difference_marginal(tgrid)
