from pathlib import Path

import numpy as np
import pytest

import cavityspdc as cs
from cavityspdc.config import load_config
from cavityspdc.constants import c
from cavityspdc.errors import ConfigError

FIG2 = """
[crystal]
kind = bbo
length_l_um = 20

[cavity]
r2_signal = 0.73
r2_idler = 0.73
solve_phases = true

[pump]
wavelength_nm = 400
fwhm_nm = 5

[filters]
shape = gaussian
fwhm_nm = 30

[grid]
signal_center_nm = 800
idler_center_nm = 800
samples = 64
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_fig2_reference_normalization(self, tmp_path):
        cfg = load_config(write(tmp_path, FIG2))
        pump = cfg.pump()
        assert pump.omega_p0 == pytest.approx(2 * np.pi * c / 400e-9, rel=1e-12)
        fwhm_omega = 2 * np.pi * c * 5e-9 / (400e-9) ** 2
        assert pump.sigma == pytest.approx(fwhm_omega / np.sqrt(2 * np.log(2)), rel=1e-12)
        crystal = cfg.crystal()
        assert crystal.length_l == pytest.approx(20e-6)
        assert np.degrees(crystal.cut_angle) == pytest.approx(29.03, abs=0.05)
        cavity = cfg.cavity()
        assert cavity.crystal == crystal
        assert cavity.mirror(2, "signal").magnitude == 0.73
        assert cavity.mirror(1, "signal").magnitude == 1.0  # preset default
        w0 = 2 * np.pi * c / 800e-9
        assert abs((cs.round_trip_phase_mismatch(cavity, w0, "signal") + np.pi) % (2 * np.pi) - np.pi) < 1e-9
        filters = cfg.filters()
        assert filters[0].fwhm == pytest.approx(2 * np.pi * c * 30e-9 / 800e-9**2, rel=1e-12)
        grid = cfg.grid()
        assert grid.omega_s_axis.size == 64

    def test_empty_file(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, "\n"))
        assert "[crystal]" in str(err.value) and "[design]" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, "[pump]\nwavelength_nm = 400\nwavelength_nm = 410\n"))
        assert "duplicate" in str(err.value).lower()

    def test_same_stem_two_units(self, tmp_path):
        text = FIG2.replace("wavelength_nm = 400", "wavelength_nm = 400\nwavelength_um = 0.4")
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert "twice" in str(err.value)

    def test_unknown_key_names_key_and_section(self, tmp_path):
        # mirror 1 reflects signal and idler fully, so r1_signal is no key
        for section, key in (("pump", "colour = blue"), ("cavity", "r1_signal = 0.5")):
            with pytest.raises(ConfigError) as err:
                load_config(write(tmp_path, f"[{section}]\n{key}\n"))
            assert key.split()[0] in str(err.value) and f"[{section}]" in str(err.value)

    def test_missing_unit_suffix(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, "[pump]\nwavelength = 400\n"))
        msg = str(err.value)
        assert "unit suffix" in msg and "wavelength_nm" in msg

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[laser]\npower = 1\n"))

    @pytest.mark.parametrize("old, new, key, says", [
        ("r2_signal = 0.73", "r2_signal = 1.4", "r2_signal", "bound"),
        ("length_l_um = 20", "length_l_um = 20\ncut_angle_deg = 120", "cut_angle_deg", "bound"),
        ("length_l_um = 20", "length_l_um = -20", "length_l_um", "bound"),
        ("fwhm_nm = 30", "fwhm_nm = -30", "fwhm_nm", "bound"),
        ("samples = 64", "samples = 64\nhalfwidth_rad_s = -1e13", "halfwidth_rad_s", "bound"),
        ("r2_idler = 0.73", "r2_idler = 0.73\nphase_r1_signal_rad = nan", "phase_r1_signal_rad",
         "finite"),
    ])
    def test_out_of_range_value(self, tmp_path, old, new, key, says):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, FIG2.replace(old, new)))
        assert key in str(err.value) and says in str(err.value)

    @pytest.mark.parametrize("line", [
        "r2_list = 0.5 1.5",
        "plateau_r2_list = 0 -0.1",
        "r1p_list = 0.5 1.01",
        "sigma_list_rad_s = 1e11 -1e12",
    ])
    def test_bounds_apply_to_every_list_entry(self, tmp_path, line):
        text = FIG2 + f"\n[sweep]\nkind = sigma_r2\n{line}\n"
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert line.split()[0] in str(err.value) and "bound" in str(err.value)

    def test_absent_key_reads_schema_default(self, tmp_path):
        cfg = load_config(write(tmp_path, FIG2))
        assert not cfg.has("temporal")
        assert cfg.get("temporal", "samples_per_mode_width") == 8
        assert cfg.get("grid", "samples") == 64
        assert cfg.get("grid", "halfwidth") is None

    @pytest.mark.parametrize("key, nu, mode", [
        ("phase_r1_signal_rad", 1, "signal"),
        ("phase_r1_idler_rad", 1, "idler"),
        ("phase_r2_signal_rad", 2, "signal"),
        ("phase_r2_idler_rad", 2, "idler"),
        ("phase_r1_pump_rad", 1, "pump"),
        ("phase_r2_pump_rad", 2, "pump"),
    ])
    def test_solved_phase_keys_need_solve_phases_off(self, tmp_path, key, nu, mode):
        text = FIG2.replace("r2_idler = 0.73", f"r2_idler = 0.73\nr2_pump = 1.0\n{key} = 1.0")
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert key in str(err.value) and "solve_phases" in str(err.value)
        unsolved = text.replace("solve_phases = true", "solve_phases = false")
        assert load_config(write(tmp_path, unsolved)).cavity().mirror(nu, mode).phase == 1.0

    @pytest.mark.parametrize("path", sorted(Path(__file__).parent.parent.glob("configs/*.cfg")),
                             ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        assert load_config(path).normalized_text()

    def test_required_sections_for_subcommand(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, "[pump]\nwavelength_nm = 400\nfwhm_nm = 5\n"),
                        require=("pump", "grid"))
        assert "[grid]" in str(err.value)

    def test_hz_suffix_means_cyclic(self, tmp_path):
        text = FIG2.replace("fwhm_nm = 5", "sigma_hz = 1e9")
        cfg = load_config(write(tmp_path, text))
        assert cfg.pump().sigma == pytest.approx(2 * np.pi * 1e9, rel=1e-12)

    @pytest.mark.parametrize("key, expect", [
        ("fwhm_rad_s = 0.5", 0.5),
        ("fwhm_hz = 0.1", 2 * np.pi * 0.1),
    ])
    def test_small_frequency_width_stays_angular(self, tmp_path, key, expect):
        # a frequency below 1 is not a wavelength in meters: the suffix decides
        cfg = load_config(write(tmp_path, FIG2.replace("fwhm_nm = 30", key)))
        assert [f.fwhm for f in cfg.filters()] == [expect, expect]

    def test_small_frequency_center_stays_angular(self, tmp_path):
        text = FIG2.replace("fwhm_nm = 30", "fwhm_nm = 30\nsignal_center_rad_s = 0.5")
        f_s, f_i = load_config(write(tmp_path, text)).filters()
        assert f_s.center == 0.5
        assert f_i.center == pytest.approx(2 * np.pi * c / 800e-9, rel=1e-15)

    def test_both_pump_widths_rejected(self, tmp_path):
        text = FIG2.replace("fwhm_nm = 5", "fwhm_nm = 5\nsigma_rad_s = 1e12")
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text)).pump()

    def test_sweep_lists(self, tmp_path):
        text = FIG2 + "\n[sweep]\nkind = sigma_r2\nsigma_list_rad_s = 1e11 1e12\nr2_list = 0 0.5\n"
        cfg = load_config(write(tmp_path, text))
        assert cfg.get("sweep", "sigma_list") == [1e11, 1e12]
        assert cfg.get("sweep", "r2_list") == [0.0, 0.5]

    def test_single_element_list(self, tmp_path):
        text = FIG2 + "\n[sweep]\nkind = r1p\nsigma_list_hz = 1e9\nr1p_list = 0.5\n"
        cfg = load_config(write(tmp_path, text))
        assert cfg.get("sweep", "sigma_list") == [2 * np.pi * 1e9]

    def test_normalized_text_stable_and_sensitive(self, tmp_path):
        cfg1 = load_config(write(tmp_path, FIG2, "a.cfg"))
        cfg2 = load_config(write(tmp_path, FIG2, "b.cfg"))
        assert cfg1.normalized_text() == cfg2.normalized_text()
        changed = load_config(write(tmp_path, FIG2.replace("0.73", "0.74"), "c.cfg"))
        assert changed.normalized_text() != cfg1.normalized_text()

    def test_custom_sellmeier(self, tmp_path):
        text = FIG2.replace(
            "kind = bbo",
            "kind = custom\n"
            "sellmeier_ordinary = 2.7405 0.0184 -0.0179 -0.0155\n"
            "sellmeier_extraordinary = 2.3730 0.0128 -0.0156 -0.0044\n"
            "cut_angle_deg = 29.0",
        )
        crystal = load_config(write(tmp_path, text)).crystal()
        assert crystal.sellmeier_ordinary == (2.7405, 0.0184, -0.0179, -0.0155)
        assert np.degrees(crystal.cut_angle) == pytest.approx(29.0)

    def test_design_section(self, tmp_path):
        text = (
            "[design]\n"
            "signal_wavelength_nm = 854.2\n"
            "transition_fwhm_hz = 20e6\n"
            "pump_wavelength_nm = 400\n"
            "delta_lambda_max_nm = 0.5\n"
        )
        cfg = load_config(write(tmp_path, text), require=("design",))
        target = cfg.design_target()
        assert target.transition_bandwidth == pytest.approx(2 * np.pi * 20e6, rel=1e-12)
        assert target.lambda_signal == pytest.approx(854.2e-9, rel=1e-12)
