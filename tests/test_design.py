import numpy as np
import pytest

import cavityspdc as cs
from cavityspdc.constants import c
from cavityspdc.errors import InfeasibleDesignError

CA_TARGET = cs.DesignTarget(
    lambda_signal=854.2e-9,
    transition_bandwidth=2 * np.pi * 20e6,
    lambda_pump=400e-9,
    delta_lambda_max=0.5e-9,
)


@pytest.fixture(scope="module")
def ca_result():
    return cs.design_source(CA_TARGET)


class TestDesignSource:
    def test_idler_wavelength(self, ca_result):
        assert ca_result.lambda_idler == pytest.approx(752.26e-9, abs=0.01e-9)

    def test_energy_conservation_exact(self, ca_result):
        lhs = 1 / CA_TARGET.lambda_pump
        rhs = 1 / CA_TARGET.lambda_signal + 1 / ca_result.lambda_idler
        assert abs(lhs - rhs) <= 1e-12 * lhs

    def test_cut_angle(self, ca_result):
        assert np.degrees(ca_result.cut_angle) == pytest.approx(29.1, abs=0.5)

    def test_cavity_length_inverts_free_spectral_range(self, ca_result):
        # L = lam^2 / (2 n dlam): feeding L back through the resonance
        # spacing reproduces the wavelength threshold exactly
        crystal = cs.CrystalSpec(
            CA_TARGET.sellmeier_ordinary,
            CA_TARGET.sellmeier_extraordinary,
            ca_result.cut_angle,
            ca_result.cavity_length,
        )
        cav = cs.singly_resonant_cavity(ca_result.cavity_length, crystal, ca_result.r2_magnitude)
        omega_s0 = 2 * np.pi * c / CA_TARGET.lambda_signal
        fsr = cs.free_spectral_range(cav, omega_s0)
        dlam = fsr * CA_TARGET.lambda_signal**2 / (2 * np.pi * c)
        assert dlam == pytest.approx(CA_TARGET.delta_lambda_max, rel=1e-12)
        # the relation gives about twice the published 220 um length
        assert ca_result.cavity_length == pytest.approx(440e-6, rel=0.01)

    def test_reflectivity_inverts_mode_width(self, ca_result):
        crystal = cs.CrystalSpec(
            CA_TARGET.sellmeier_ordinary,
            CA_TARGET.sellmeier_extraordinary,
            ca_result.cut_angle,
            ca_result.cavity_length,
        )
        cav = cs.singly_resonant_cavity(ca_result.cavity_length, crystal, ca_result.r2_magnitude)
        omega_s0 = 2 * np.pi * c / CA_TARGET.lambda_signal
        assert cs.mode_width(cav, omega_s0, "signal") == pytest.approx(
            CA_TARGET.transition_bandwidth, rel=1e-9
        )

    def test_sigma_max(self, ca_result):
        assert ca_result.sigma_max == pytest.approx(1.067e8, rel=1e-3)
        assert ca_result.sigma_max == pytest.approx(
            CA_TARGET.transition_bandwidth / np.sqrt(2 * np.log(2)), rel=1e-12
        )

    def test_pinned_length_values(self):
        result = cs.design_source(CA_TARGET, pin_cavity_length=220e-6)
        assert result.cavity_length == 220e-6
        # verbatim mode-width inversion at the pinned length
        n = 1.6598318
        sqrt_f = 2 * c / (220e-6 * n * CA_TARGET.transition_bandwidth)
        assert result.finesse == pytest.approx(sqrt_f**2, rel=1e-4)

    def test_finesse_reflectivity_consistency(self, ca_result):
        assert cs.coefficient_of_finesse(ca_result.r2_magnitude) == pytest.approx(
            ca_result.finesse, rel=1e-9
        )

    def test_monotone_finesse_in_bandwidth(self):
        from dataclasses import replace

        narrower = cs.design_source(replace(CA_TARGET, transition_bandwidth=2 * np.pi * 5e6))
        wider = cs.design_source(replace(CA_TARGET, transition_bandwidth=2 * np.pi * 80e6))
        base = cs.design_source(CA_TARGET)
        assert narrower.finesse > base.finesse > wider.finesse
        assert narrower.r2_magnitude > base.r2_magnitude > wider.r2_magnitude

    def test_degenerate_round_trip_through_mode_width(self, crystal):
        # set the transition bandwidth to the width of an existing cavity:
        # the recipe must return that cavity's reflectivity
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.92)
        w0 = 2 * np.pi * c / 800e-9
        width = cs.mode_width(cav, w0, "signal")
        target = cs.DesignTarget(800e-9, width, 400e-9, 0.5e-9)
        result = cs.design_source(target, pin_cavity_length=20e-6)
        assert result.r2_magnitude == pytest.approx(0.92, rel=1e-9)

    def test_infeasible_bandwidth(self):
        from dataclasses import replace

        # transition wider than the free spectral range cannot be matched
        huge = replace(CA_TARGET, transition_bandwidth=2e12)
        with pytest.raises(InfeasibleDesignError):
            cs.design_source(huge)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            cs.DesignTarget(400e-9, 1e8, 854.2e-9, 0.5e-9)  # pump longer than signal
        with pytest.raises(ValueError):
            cs.DesignTarget(854.2e-9, -1e8, 400e-9, 0.5e-9)


class TestSpectralCheckAndReport:
    def test_marginal_centered_and_narrow(self, ca_result):
        fwhm, center = cs.spectral_check(CA_TARGET, ca_result)
        omega_s0 = 2 * np.pi * c / CA_TARGET.lambda_signal
        assert center == pytest.approx(omega_s0, abs=CA_TARGET.transition_bandwidth / 4)
        assert fwhm == pytest.approx(CA_TARGET.transition_bandwidth, rel=0.10)

    def test_report_contents(self, ca_result):
        report = cs.report_design(CA_TARGET, ca_result)
        assert "854.2000 nm" in report
        assert "752.2677 nm" in report
        assert "sigma_max" in report
        assert "220.0 um" in report  # published reference with annotation
        assert "twice the published length" in report
        # the resonances sit 2 pi / tau_g apart, below the 0.5 nm threshold
        omega_s0 = 2 * np.pi * c / CA_TARGET.lambda_signal
        tau_g = cs.group_round_trip_time(cs.designed_cavity(CA_TARGET, ca_result), omega_s0)
        spacing_nm = CA_TARGET.lambda_signal**2 / (c * tau_g) * 1e9
        assert spacing_nm == pytest.approx(0.4932, abs=5e-5)
        assert (f"resonance spacing       : {2 * np.pi / tau_g:.6e} rad/s ({spacing_nm:.4f} nm, "
                "2 pi / group round trip; below the 0.5000 nm isolation threshold)") in report

    def test_report_names_no_shortfall_above_the_threshold(self):
        # the published 220 um length spaces the resonances about 0.99 nm apart
        report = cs.report_design(CA_TARGET, cs.design_source(CA_TARGET, pin_cavity_length=220e-6))
        assert "nm, 2 pi / group round trip)" in report
        assert "below the" not in report

    def test_degenerate_design_symmetric_widths(self):
        target = cs.DesignTarget(800e-9, 2 * np.pi * 50e6, 400e-9, 0.5e-9)
        result = cs.design_source(target)
        assert result.lambda_idler == pytest.approx(800e-9, rel=1e-12)
        cavity = cs.designed_cavity(target, result)
        w0 = 2 * np.pi * c / 800e-9
        assert cs.mode_width(cavity, w0, "signal") == pytest.approx(
            cs.mode_width(cavity, w0, "idler"), rel=1e-12
        )

    def test_infeasible_target_produces_no_report(self):
        from dataclasses import replace

        huge = replace(CA_TARGET, transition_bandwidth=2e12)
        with pytest.raises(InfeasibleDesignError):
            cs.design_source(huge)  # structured error before any report exists
