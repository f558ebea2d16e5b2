import numpy as np
import pytest

import cavityspdc as cs
from cavityspdc.constants import c
from cavityspdc.dispersion import polarization_for_mode
from cavityspdc.errors import DispersionWindowError, NotPhasematchableError

from conftest import THETA_DEGENERATE


def sellmeier_oracle(lam_um, extraordinary=False):
    """Independent literal transcription of the BBO model used as test oracle."""
    if extraordinary:
        return np.sqrt(2.3730 + 0.0128 / (lam_um**2 - 0.0156) - 0.0044 * lam_um**2)
    return np.sqrt(2.7405 + 0.0184 / (lam_um**2 - 0.0179) - 0.0155 * lam_um**2)


def omega_of(lam_m):
    return 2 * np.pi * c / lam_m


class TestRefractiveIndex:
    def test_bbo_ordinary_800nm(self, crystal):
        n = cs.refractive_index(crystal, omega_of(800e-9), "ordinary")
        assert n == pytest.approx(1.6614, abs=1e-3)
        assert n == pytest.approx(sellmeier_oracle(0.8), rel=1e-12)

    def test_cut_angle_zero_matches_ordinary(self):
        flat = cs.bbo(0.0, 20e-6)
        w = omega_of(700e-9)
        assert cs.refractive_index(flat, w, "extraordinary") == cs.refractive_index(
            flat, w, "ordinary"
        )

    def test_cut_angle_right_angle_is_principal_extraordinary(self):
        steep = cs.bbo(np.pi / 2, 20e-6)
        w = omega_of(700e-9)
        assert cs.refractive_index(steep, w, "extraordinary") == pytest.approx(
            sellmeier_oracle(0.7, extraordinary=True), rel=1e-12
        )

    def test_index_ellipse_between_principal_indices(self, crystal):
        # negative uniaxial: n_e < n(theta) < n_o for interior angles
        w = omega_of(np.linspace(300e-9, 1000e-9, 11))
        n_cut = cs.refractive_index(crystal, w, "extraordinary")
        n_o = cs.refractive_index(crystal, w, "ordinary")
        n_e = sellmeier_oracle(2 * np.pi * c / w * 1e6, extraordinary=True)
        assert np.all(n_cut < n_o) and np.all(n_cut > n_e)

    def test_out_of_window_rejected(self, crystal):
        with pytest.raises(DispersionWindowError) as err:
            cs.refractive_index(crystal, omega_of(1.3e-6), "ordinary")
        assert "0.2" in str(err.value) and "1.1" in str(err.value)

    def test_zero_frequency_rejected(self, crystal):
        with pytest.raises(DispersionWindowError):
            cs.wavevector(crystal, 0.0, "ordinary")


# NaN compares False with both window edges, so a test for "below or above"
# lets it through; the window refuses anything not inside it.
@pytest.mark.parametrize("omega", [np.nan, [omega_of(800e-9), np.nan], [np.nan] * 3],
                         ids=["scalar", "one-of-two", "all"])
@pytest.mark.parametrize("evaluate", [cs.refractive_index, cs.wavevector, cs.group_slowness],
                         ids=["refractive_index", "wavevector", "group_slowness"])
@pytest.mark.parametrize("polarization", ["ordinary", "extraordinary"])
def test_nan_frequency_rejected(crystal, evaluate, omega, polarization):
    with pytest.raises(DispersionWindowError):
        evaluate(crystal, omega, polarization)


class TestWavevector:
    def test_800nm_value(self, crystal):
        k = cs.wavevector(crystal, omega_of(800e-9), "ordinary")
        assert k == pytest.approx(2 * np.pi * sellmeier_oracle(0.8) / 800e-9, rel=1e-12)
        assert k == pytest.approx(1.3048e7, rel=1e-4)

    def test_monotonic_in_omega(self, crystal):
        w = omega_of(np.linspace(1.05e-6, 0.25e-6, 200))
        k = cs.wavevector(crystal, w, "ordinary")
        assert np.all(np.diff(k) > 0)

    def test_consistent_with_group_slowness_integral(self, crystal):
        # k(w2) - k(w1) must equal the quadrature of k' over [w1, w2]
        w1, w2 = omega_of(900e-9), omega_of(700e-9)
        grid = np.linspace(w1, w2, 2001)
        kp = cs.group_slowness(crystal, grid, "ordinary")
        integral = np.trapezoid(kp, grid)
        diff = cs.wavevector(crystal, w2, "ordinary") - cs.wavevector(crystal, w1, "ordinary")
        assert integral == pytest.approx(diff, rel=1e-3)


class TestGroupSlowness:
    def test_bbo_800nm_richardson(self, crystal):
        # oracle: central differences of the Sellmeier oracle at two steps
        w = omega_of(800e-9)

        def k_oracle(omega):
            return sellmeier_oracle(2 * np.pi * c / omega * 1e6) * omega / c

        for h_rel in (1e-5, 1e-6):
            h = h_rel * w
            kp_fd = (k_oracle(w + h) - k_oracle(w - h)) / (2 * h)
            assert cs.group_slowness(crystal, w, "ordinary") == pytest.approx(kp_fd, rel=1e-6)
        assert cs.group_slowness(crystal, w, "ordinary") == pytest.approx(5.61e-9, rel=0.02)

    def test_dispersionless_model_equals_n_over_c(self):
        flat = cs.CrystalSpec((2.25, 0.0, 1.0, 0.0), (2.25, 0.0, 1.0, 0.0), 0.0, 20e-6)
        w = omega_of(800e-9)
        assert cs.group_slowness(flat, w, "ordinary") == pytest.approx(1.5 / c, rel=1e-9)

    def test_exceeds_phase_slowness_for_normal_dispersion(self, crystal):
        w = omega_of(np.linspace(0.9e-6, 0.3e-6, 20))
        kp = cs.group_slowness(crystal, w, "ordinary")
        n = cs.refractive_index(crystal, w, "ordinary")
        assert np.all(kp > n / c)

    @pytest.mark.parametrize("polarization", ["ordinary", "extraordinary"])
    def test_defined_to_the_window_edges(self, crystal, polarization):
        # the closed form needs no neighbours, so k' holds on the whole window
        lo, hi = crystal.omega_window
        for edge in (lo, hi):
            kp = cs.group_slowness(crystal, edge, polarization)
            assert np.isfinite(kp) and kp > cs.refractive_index(crystal, edge, polarization) / c
        assert np.all(np.isfinite(cs.group_slowness(crystal, np.array([lo, hi]), polarization)))
        for outside in (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)):
            with pytest.raises(DispersionWindowError):
                cs.group_slowness(crystal, outside, polarization)


class TestPhasematchingAngle:
    def test_ca_transition_configuration(self):
        lam_i = 1.0 / (1 / 400e-9 - 1 / 854.2e-9)
        theta = cs.phasematching_angle(
            cs.bbo(0.0, 20e-6), omega_of(400e-9), omega_of(854.2e-9), omega_of(lam_i)
        )
        assert np.degrees(theta) == pytest.approx(29.1, abs=0.5)

    def test_degenerate_800(self):
        theta = cs.phasematching_angle(
            cs.bbo(0.0, 20e-6), omega_of(400e-9), omega_of(800e-9), omega_of(800e-9)
        )
        assert np.degrees(theta) == pytest.approx(29.2, abs=0.5)
        assert theta == pytest.approx(THETA_DEGENERATE, abs=1e-12)

    def test_residual_below_tolerance(self, crystal):
        w_p, w_s, w_i = omega_of(400e-9), omega_of(800e-9), omega_of(800e-9)
        theta = cs.phasematching_angle(crystal, w_p, w_s, w_i)
        solved = cs.bbo(theta, 20e-6)
        residual = (
            cs.wavevector(solved, w_p, "extraordinary")
            - cs.wavevector(solved, w_s, "ordinary")
            - cs.wavevector(solved, w_i, "ordinary")
        )
        assert abs(residual) < 1.0

    def test_sign_change_brackets_the_root(self, crystal):
        w_p, w_s, w_i = omega_of(400e-9), omega_of(800e-9), omega_of(800e-9)
        theta = cs.phasematching_angle(crystal, w_p, w_s, w_i)

        def mismatch(angle):
            probe = cs.bbo(angle, 20e-6)
            return (
                cs.wavevector(probe, w_p, "extraordinary")
                - cs.wavevector(probe, w_s, "ordinary")
                - cs.wavevector(probe, w_i, "ordinary")
            )

        eps = 1e-6
        assert mismatch(theta - eps) * mismatch(theta + eps) < 0

    @pytest.mark.parametrize(
        "lam_p,lam_s", [(400e-9, 800e-9), (397e-9, 854.2e-9), (405e-9, 810e-9), (355e-9, 700e-9)]
    )
    def test_matches_brentq_root(self, lam_p, lam_s):
        # two oracles: scipy's brentq (a test-only dependency) on the same
        # mismatch, and the index-ellipse closed form
        # sin^2(theta) = (n^-2 - n_o^-2) / (n_e^-2 - n_o^-2), n = c (k_s + k_i) / w_p
        from scipy.optimize import brentq

        lam_i = 1.0 / (1 / lam_p - 1 / lam_s)
        w_p, w_s, w_i = omega_of(lam_p), omega_of(lam_s), omega_of(lam_i)
        flat = cs.bbo(0.0, 20e-6)
        theta = cs.phasematching_angle(flat, w_p, w_s, w_i)
        k_si = cs.wavevector(flat, w_s, "ordinary") + cs.wavevector(flat, w_i, "ordinary")

        def mismatch(angle):
            return cs.wavevector(cs.bbo(angle, 20e-6), w_p, "extraordinary") - k_si

        root = brentq(mismatch, 0.0, np.pi / 2, xtol=1e-15, rtol=4 * np.finfo(float).eps)
        assert abs(theta - root) <= 1e-12
        n = c * k_si / w_p
        n_o, n_e = sellmeier_oracle(lam_p * 1e6), sellmeier_oracle(lam_p * 1e6, extraordinary=True)
        sin2 = (n**-2 - n_o**-2) / (n_e**-2 - n_o**-2)
        assert abs(theta - np.arcsin(np.sqrt(sin2))) <= 1e-12

    def test_not_phasematchable(self):
        # 1000 -> 2x2000 nm sits outside what the BBO birefringence can reach
        with pytest.raises(NotPhasematchableError):
            cs.phasematching_angle(
                cs.CrystalSpec(
                    cs.BBO_ORDINARY, cs.BBO_ORDINARY, 0.0, 20e-6
                ),  # e == o: no birefringence at all
                omega_of(400e-9),
                omega_of(800e-9),
                omega_of(800e-9),
            )

    def test_energy_conservation_enforced(self, crystal):
        with pytest.raises(ValueError):
            cs.phasematching_angle(crystal, omega_of(400e-9), omega_of(800e-9), omega_of(790e-9))


def test_mode_polarizations():
    assert polarization_for_mode("signal") == "ordinary"
    assert polarization_for_mode("idler") == "ordinary"
    assert polarization_for_mode("pump") == "extraordinary"


def test_crystal_spec_validation():
    with pytest.raises(ValueError):
        cs.bbo(0.3, -1e-6)
    with pytest.raises(ValueError):
        cs.bbo(2.0, 20e-6)
    with pytest.raises(ValueError):
        cs.CrystalSpec((1.0, 0.0, 1.0, 0.0), cs.BBO_EXTRAORDINARY, 0.0, 20e-6)  # n^2 = 1
