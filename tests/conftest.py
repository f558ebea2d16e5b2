import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

import cavityspdc as cs
from cavityspdc.config import _SCHEMA
from cavityspdc.constants import c
from cavityspdc.temporal import joint_temporal_intensity_from_cavity

# Property tests draw the same examples on every run; few examples keep the
# suite fast, and no deadline keeps a loaded machine from failing them.
settings.register_profile("tier1", derandomize=True, max_examples=50, deadline=None)
settings.load_profile("tier1")

# Reference configuration: 20 um BBO cut for degenerate 400 -> 800 + 800 nm
# type-I downconversion, L = l, mirror 2 at 0.73 for the SPDC modes,
# 5 nm FWHM pump at 400 nm, 30 nm filters on both photons.

OMEGA_800 = 2 * np.pi * c / 800e-9
THETA_DEGENERATE = 0.5065859752980199  # rad, solved once in test_dispersion

# A pump-reflecting mirror table outside the cavity model: mirror 1 at 0.5 for
# both photons, mirror 2 open for both, r_1p = 0.5 and r_2p = 1.  Were it
# accepted, its S_DR would miss |f_DR|^2 by about 0.6 of its maximum.
OUT_OF_MODEL_DR_MIRRORS = {
    (1, "signal"): cs.MirrorSpec(0.5), (1, "idler"): cs.MirrorSpec(0.5),
    (1, "pump"): cs.MirrorSpec(0.5), (2, "pump"): cs.MirrorSpec(1.0),
}


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


# The [temporal] defaults of the configuration schema.
TEMPORAL = {stem: entry["default"] for stem, entry in _SCHEMA["temporal"].items()}


def temporal_lattice(crystal, r2, pump, filters,
                     minus_span=TEMPORAL["minus_halfwidth_filter_fwhm"]):
    """(cavity, omega_plus axis, omega_minus axis) of the temporal subcommand at mirror-2 r2.

    The lattice is the subcommand's at its default resolution and w_+ span.
    """
    cav = cs.solve_resonance_phases(
        cs.singly_resonant_cavity(crystal.length_l, crystal, r2), OMEGA_800, OMEGA_800
    )
    plus, minus = cs.rotated_lattice_axes(
        cav, pump, filters, OMEGA_800, OMEGA_800, TEMPORAL["samples_per_mode_width"],
        minus_span, TEMPORAL["plus_halfwidth_sigma"],
    )
    return cav, plus, minus


def run_temporal_pipeline(crystal, r2, pump, filters,
                          minus_span=TEMPORAL["minus_halfwidth_filter_fwhm"]):
    """Rotated lattice -> JSA -> 2-D transform: (cavity, RotatedGrid, TemporalGrid).

    The temporal_lattice route with the amplitude kept, for tests that read it.
    """
    cav, plus, minus = temporal_lattice(crystal, r2, pump, filters, minus_span)
    rot = cs.jsa_singly_resonant_rotated(cav, pump, filters, plus, minus)
    tgrid = cs.joint_temporal_intensity(rot)
    return cav, rot, tgrid


@pytest.fixture(scope="session")
def temporal_marginal(crystal, pump, filters):
    """(cavity, t_minus marginal) of the temporal subcommand's route at mirror-2 reflectivity r2.

    The marginal comes from joint_temporal_intensity_from_cavity, as in the
    subcommand.  Memoized per r2 for the session; the marginal's arrays are
    read-only, so no test can change what the next one reads.
    """
    cache = {}

    def get(r2):
        if r2 not in cache:
            cav, plus, minus = temporal_lattice(crystal, r2, pump, filters)
            tgrid = joint_temporal_intensity_from_cavity(cav, pump, filters, plus, minus)
            marg = cs.time_difference_marginal(tgrid)
            for array in marg:
                array.flags.writeable = False
            cache[r2] = (cav, marg)
        return cache[r2]

    return get


def traced_peak(fn):
    """(peak bytes numpy and Python allocate while fn runs, fn's result)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
