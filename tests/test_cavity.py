import numpy as np
import pytest

import cavityspdc as cs
from cavityspdc.constants import c
from cavityspdc.errors import DivergenceError, InfiniteWidthError

from conftest import OMEGA_800, OUT_OF_MODEL_DR_MIRRORS


def two_pi_residual(x):
    return abs((x + np.pi) % (2 * np.pi) - np.pi)


class TestSinglePassPhase:
    def test_equal_lengths_reduces_to_crystal_phase(self, crystal, sr_cavity):
        n = cs.refractive_index(crystal, OMEGA_800, "ordinary")
        theta = cs.single_pass_phase(sr_cavity, OMEGA_800, "signal")
        assert theta == pytest.approx(n * OMEGA_800 * 20e-6 / c, rel=1e-12)
        assert theta == pytest.approx(260.96, abs=0.05)

    def test_vacuum_model(self):
        flat = cs.CrystalSpec((1.0 + 1e-9, 0.0, 1.0, 0.0), (1.0 + 1e-9, 0.0, 1.0, 0.0), 0.0, 20e-6)
        cav = cs.CavitySpec(20e-6, flat)
        assert cs.single_pass_phase(cav, OMEGA_800, "signal") == pytest.approx(
            OMEGA_800 * 20e-6 / c, rel=1e-6
        )

    def test_additivity_in_air_gap(self, crystal):
        short = cs.CavitySpec(20e-6, crystal)
        long = cs.CavitySpec(50e-6, crystal)
        gap = cs.single_pass_phase(long, OMEGA_800, "signal") - cs.single_pass_phase(
            short, OMEGA_800, "signal"
        )
        assert gap == pytest.approx(OMEGA_800 * 30e-6 / c, rel=1e-12)

    def test_pump_uses_extraordinary_index(self, crystal, sr_cavity):
        w_p = 2 * OMEGA_800
        n_p = cs.refractive_index(crystal, w_p, "extraordinary")
        assert cs.single_pass_phase(sr_cavity, w_p, "pump") == pytest.approx(
            n_p * w_p * 20e-6 / c, rel=1e-12
        )


class TestRoundTripPhase:
    def test_solved_phases_vanish_at_center(self, sr_cavity):
        assert two_pi_residual(
            cs.round_trip_phase_mismatch(sr_cavity, OMEGA_800, "signal")
        ) < 1e-9
        assert two_pi_residual(
            cs.round_trip_phase_mismatch(sr_cavity, OMEGA_800, "idler")
        ) < 1e-9

    def test_explicit_composition(self, crystal):
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.5)
        cav = cav.with_mirror(1, "signal", phase=0.4).with_mirror(2, "signal", phase=1.1)
        expect = 2 * cs.single_pass_phase(cav, OMEGA_800, "signal") + 0.4 + 1.1
        assert cs.round_trip_phase_mismatch(cav, OMEGA_800, "signal") == pytest.approx(expect)

    def test_pump_phase_at_solved_resonance(self, dr_cavity):
        assert two_pi_residual(
            cs.round_trip_phase_mismatch(dr_cavity, 2 * OMEGA_800, "pump")
        ) < 1e-9

class TestFinesse:
    @pytest.mark.parametrize(
        "r,expected",
        [(0.9999, 4.0e8), (0.3, 2.449), (0.65, 21.22), (0.95, 1520.0), (0.73, 40.055)],
    )
    def test_reference_values(self, r, expected):
        assert cs.coefficient_of_finesse(r) == pytest.approx(expected, rel=5e-3)

    def test_zero(self):
        assert cs.coefficient_of_finesse(0.0) == 0.0

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            cs.coefficient_of_finesse(1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cs.coefficient_of_finesse(1.2)


class TestAiry:
    def test_peak_height_lossless(self, sr_cavity):
        assert cs.airy(OMEGA_800, "signal", sr_cavity) == pytest.approx(
            (1 + 0.73) / (1 - 0.73), rel=1e-12
        )

    def test_empty_cavity_is_flat(self, crystal):
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.0)
        w = OMEGA_800 * np.linspace(0.95, 1.05, 7)
        assert np.allclose(cs.airy(w, "signal", cav), 1.0)

    def test_no_cavity_with_open_mirror_1_is_flat(self, crystal):
        cav = cs.CavitySpec(20e-6, crystal)  # |r_1| = |r_2| = 0 for every mode
        assert cs.airy(OMEGA_800, "signal", cav) == 1.0

    def test_antiresonance_value(self, crystal):
        # Delta = pi exactly: peak / (1 + F)
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.73)
        w0 = OMEGA_800
        delta0 = cs.round_trip_phase_mismatch(cav, w0, "signal")
        cav = cav.with_mirror(1, "signal", phase=float(np.pi - delta0))
        value = cs.airy(w0, "signal", cav)
        assert value == pytest.approx(6.407 / (1 + 40.055), rel=1e-3)
        assert value == pytest.approx(0.1561, rel=1e-3)

    def test_equal_height_peaks(self, sr_cavity):
        # consecutive resonances of the comb all reach the same maximum
        fsr = cs.free_spectral_range(sr_cavity, OMEGA_800)
        w = np.linspace(OMEGA_800 - 3 * fsr, OMEGA_800 + 3 * fsr, 60001)
        a = cs.airy(w, "signal", sr_cavity)
        from scipy.signal import find_peaks

        idx, _ = find_peaks(a, height=0.5 * a.max())
        assert idx.size >= 5
        assert np.ptp(a[idx]) < 0.02 * a.max()

    def test_pump_variant_prefactor(self, dr_cavity):
        # |t_1p|^2 / (1 - |r_1p r_2p|)^2 at resonance: (1 - 0.25) / 0.25 = 3
        assert cs.airy(2 * OMEGA_800, "pump", dr_cavity) == pytest.approx(3.0, rel=1e-12)

    def test_divergence_at_unit_reflectivity(self, crystal):
        cav = cs.singly_resonant_cavity(20e-6, crystal, 1.0)
        with pytest.raises(DivergenceError):
            cs.airy(OMEGA_800, "signal", cav)


class TestModeGeometry:
    def test_fsr_20um(self, sr_cavity, crystal):
        n = cs.refractive_index(crystal, OMEGA_800, "ordinary")
        assert cs.free_spectral_range(sr_cavity, OMEGA_800) == pytest.approx(
            np.pi * c / (20e-6 * n), rel=1e-12
        )
        assert cs.free_spectral_range(sr_cavity, OMEGA_800) == pytest.approx(2.834e13, rel=1e-3)

    def test_mode_width_220um_design(self):
        crystal = cs.bbo(0.5, 220e-6)
        r = (4e8 + 2 - 2 * np.sqrt(4e8 + 1)) / 4e8  # reflectivity with finesse 4e8
        cav = cs.singly_resonant_cavity(220e-6, crystal, r)
        w_s = 2 * np.pi * c / 854.2e-9
        assert cs.mode_width(cav, w_s, "signal") == pytest.approx(8.2e7, rel=2e-3)

    def test_width_to_fsr_ratio(self, sr_cavity):
        fin = cs.coefficient_of_finesse(0.73)
        ratio = cs.mode_width(sr_cavity, OMEGA_800, "signal") / cs.free_spectral_range(
            sr_cavity, OMEGA_800
        )
        assert ratio == pytest.approx(2 / (np.pi * np.sqrt(fin)), rel=1e-12)

    def test_infinite_width_without_cavity(self, crystal):
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.0)
        with pytest.raises(InfiniteWidthError):
            cs.mode_width(cav, OMEGA_800, "signal")

    def test_both_scale_inversely_with_length(self, crystal):
        double = cs.CrystalSpec(
            crystal.sellmeier_ordinary,
            crystal.sellmeier_extraordinary,
            crystal.cut_angle,
            40e-6,
        )
        cav1 = cs.singly_resonant_cavity(20e-6, crystal, 0.73)
        cav2 = cs.singly_resonant_cavity(40e-6, double, 0.73)
        assert cs.free_spectral_range(cav1, OMEGA_800) == pytest.approx(
            2 * cs.free_spectral_range(cav2, OMEGA_800), rel=1e-12
        )
        assert cs.mode_width(cav1, OMEGA_800, "signal") == pytest.approx(
            2 * cs.mode_width(cav2, OMEGA_800, "signal"), rel=1e-12
        )

    @pytest.mark.parametrize("finesse", [1e2, 1e4, 1e6])
    def test_numeric_fwhm_matches_analytic_width(self, crystal, finesse):
        r = (finesse + 2 - 2 * np.sqrt(finesse + 1)) / finesse
        cav = cs.solve_resonance_phases(
            cs.singly_resonant_cavity(20e-6, crystal, r), OMEGA_800, OMEGA_800
        )
        width = cs.mode_width(cav, OMEGA_800, "signal")
        w = np.linspace(OMEGA_800 - 2 * width, OMEGA_800 + 2 * width, 8001)
        a = cs.airy(w, "signal", cav)
        above = w[a >= a.max() / 2]
        measured = above[-1] - above[0]
        assert measured == pytest.approx(width, rel=0.02)

    def test_numeric_fwhm_exact_for_dispersionless_model(self):
        flat = cs.CrystalSpec((2.25, 0.0, 1.0, 0.0), (2.25, 0.0, 1.0, 0.0), 0.0, 20e-6)
        w0 = OMEGA_800
        cav = cs.solve_resonance_phases(cs.singly_resonant_cavity(20e-6, flat, 0.9), w0, w0)
        width = cs.mode_width(cav, w0, "signal")
        w = np.linspace(w0 - 2 * width, w0 + 2 * width, 16001)
        a = cs.airy(w, "signal", cav)
        above = w[a >= a.max() / 2]
        assert above[-1] - above[0] == pytest.approx(width, rel=2e-3)


class TestSolveResonancePhases:
    def test_sr_preset_resonant_after_solve(self, sr_cavity):
        for mode, w in (("signal", OMEGA_800), ("idler", OMEGA_800)):
            assert two_pi_residual(cs.round_trip_phase_mismatch(sr_cavity, w, mode)) < 1e-9

    def test_already_resonant_keeps_zero_phases(self):
        flat = cs.CrystalSpec((2.25, 0.0, 1.0, 0.0), (2.25, 0.0, 1.0, 0.0), 0.0, 20e-6)
        cav = cs.CavitySpec(
            20e-6, flat, {(1, "signal"): cs.MirrorSpec(1.0), (2, "signal"): cs.MirrorSpec(0.5)}
        )
        # pick a frequency whose round-trip phase is an exact multiple of 2 pi
        theta = cs.single_pass_phase(cav, OMEGA_800, "signal")
        w = OMEGA_800 * (2 * np.pi * round(theta / np.pi) / (2 * theta))
        solved = cs.solve_resonance_phases(cav, w, w)
        assert solved.mirror(2, "signal").phase == pytest.approx(0.0, abs=1e-6)

    def test_dr_solve_maximizes_pump_airy_and_balance(self, dr_cavity):
        assert cs.airy(2 * OMEGA_800, "pump", dr_cavity) == pytest.approx(3.0, rel=1e-9)
        w0 = np.float64(OMEGA_800)
        assert cs.phase_balancing(dr_cavity, w0, w0) == pytest.approx(4.0, rel=1e-9)

    def test_solved_phases_smallest_nonnegative(self, sr_cavity):
        for (nu, mode), mirror in sr_cavity.mirrors.items():
            assert 0.0 <= mirror.phase < 2 * np.pi


def test_mirror_spec_validation():
    with pytest.raises(ValueError):
        cs.MirrorSpec(1.2)
    assert cs.MirrorSpec(0.6).transmissivity == pytest.approx(0.8)


def test_cavity_shorter_than_crystal_rejected(crystal):
    with pytest.raises(ValueError):
        cs.CavitySpec(10e-6, crystal)


class TestCavityModel:
    """Construction enforces the perfect mirror 1; loop_reflectivity states each mode's r."""

    @pytest.mark.parametrize("mode", ["signal", "idler"])
    @pytest.mark.parametrize("trigger", [(2, "photon"), (1, "pump"), (2, "pump")],
                             ids=["mirror_2_reflects_photon", "r1p", "r2p"])
    def test_rejects_imperfect_mirror_1(self, crystal, mode, trigger):
        nu, reflected = trigger
        mirrors = {(1, "signal"): cs.MirrorSpec(1.0), (1, "idler"): cs.MirrorSpec(1.0)}
        mirrors[(1, mode)] = cs.MirrorSpec(0.9)
        mirrors[(nu, mode if reflected == "photon" else "pump")] = cs.MirrorSpec(0.5)
        with pytest.raises(ValueError, match=f"r_1{mode[0]}"):
            cs.CavitySpec(20e-6, crystal, mirrors)

    def test_rejects_out_of_model_dr_cavity(self, crystal):
        with pytest.raises(ValueError, match="r_1s"):
            cs.CavitySpec(20e-6, crystal, OUT_OF_MODEL_DR_MIRRORS)

    def test_loop_reflectivity(self, crystal, dr_cavity):
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.73, 0.6)
        assert [cav.loop_reflectivity(m) for m in ("signal", "idler", "pump")] == [0.73, 0.6, 0.0]
        assert dr_cavity.loop_reflectivity("signal") == 0.73
        assert dr_cavity.loop_reflectivity("pump") == 0.5 * 1.0
        assert cs.CavitySpec(20e-6, crystal).loop_reflectivity("pump") == 0.0
