"""Every key in config._SCHEMA changes what a subcommand writes, or is rejected.

Each (section, stem) of the schema has at least one case.  A Changes case
runs a subcommand on a base configuration and on the base with one edit.
Both runs must succeed, and the artifacts must differ once their headers are
stripped (the headers hold the configuration hash, which any edit moves).  A
Fails case is a key whose only effect is to stop the run with a physics
error.  A Rejected case is a setting that another setting makes the builders
ignore: load_config refuses it and names the key, loading a configuration
with a [sweep] as the sweep run does.  Only that run refuses a [pump] width
that no sweep row reads.  A new key therefore needs
a case here before the suite passes.
"""

from typing import NamedTuple

import pytest

from pathlib import Path

from cavityspdc.cli import _SUBCOMMANDS, main
from cavityspdc.config import _SCHEMA, load_config
from cavityspdc.errors import ConfigError

SR = {
    "crystal": {"kind": "bbo", "length_l_um": "20"},
    "cavity": {"r2_signal": "0.73", "r2_idler": "0.73"},
    "pump": {"wavelength_nm": "400", "fwhm_nm": "5"},
    "filters": {"fwhm_nm": "30"},
    "grid": {"signal_center_nm": "800", "idler_center_nm": "800", "samples": "32",
             "halfwidth_rad_s": "2e14"},
}


def edited(base, edit):
    """base with edit applied: section -> {key: value, or None to drop the key}."""
    out = {section: dict(keys) for section, keys in base.items()}
    for section, keys in edit.items():
        for key, value in keys.items():
            out.setdefault(section, {})
            if value is None:
                del out[section][key]
            else:
                out[section][key] = value
    return out


def render(config):
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
        for section, keys in config.items()
    )


BBO_O = "2.7405 0.0184 -0.0179 -0.0155"
BBO_E = "2.3730 0.0128 -0.0156 -0.0044"
CUSTOM = edited(SR, {"crystal": {"kind": "custom", "sellmeier_ordinary": BBO_O,
                                 "sellmeier_extraordinary": BBO_E}})
UNSOLVED = edited(SR, {"cavity": {"solve_phases": "false"}})
DR = edited(SR, {"cavity": {"r1_pump": "0.5", "r2_pump": "1.0"}})
DR_UNSOLVED = edited(DR, {"cavity": {"solve_phases": "false"}})
# sigma_r2 and r1p set sigma in each row, and plateau_r2 in each row but an
# r2 = 0 one, which these lists lack: these bases read no [pump] width
SWEEP = edited(SR, {"pump": {"fwhm_nm": None},
                    "sweep": {"kind": "sigma_r2 plateau_r2", "sigma_list_rad_s": "4.6e13",
                              "r2_list": "0.5", "plateau_r2_list": "0.5"}})
PLATEAU = edited(SR, {"pump": {"fwhm_nm": None},
                      "sweep": {"kind": "plateau_r2", "plateau_r2_list": "0.5"}})
# an r2 = 0 row of a cavity that reflects no pump is 1 with no integral, taken at the pump width
PLATEAU_ZERO = edited(SR, {"sweep": {"kind": "plateau_r2", "plateau_r2_list": "0"}})
DR_SWEEP = edited(DR, {"pump": {"fwhm_nm": None},
                       "sweep": {"kind": "sigma_r2", "sigma_list_rad_s": "4.6e13",
                                 "r2_list": "0.5"}})
R1P = edited(SR, {"cavity": {"r2_pump": "1.0"}, "pump": {"fwhm_nm": None},
                  "sweep": {"kind": "r1p", "sigma_list_rad_s": "2e11", "r1p_list": "0 0.5"}})
DESIGN = {
    "crystal": {"kind": "bbo"},
    "design": {"signal_wavelength_nm": "854.2", "transition_fwhm_hz": "20e6",
               "pump_wavelength_nm": "400", "delta_lambda_max_nm": "0.5"},
}


class Changes(NamedTuple):
    subcommand: str
    base: dict
    edit: dict


class Fails(NamedTuple):
    subcommand: str
    base: dict
    edit: dict
    module: str


class Rejected(NamedTuple):
    base: dict
    edit: dict


def _set(section, key, value, base=SR, subcommand="jsi-sr"):
    return Changes(subcommand, base, {section: {key: value}})


def _phase(key, base, unsolved, subcommand):
    return [Rejected(base, {"cavity": {key: "1.0"}}),
            _set("cavity", key, "1.0", unsolved, subcommand)]


CASES = {
    ("crystal", "kind"): [Changes("jsi-sr", SR, {"crystal": {
        "kind": "custom", "sellmeier_ordinary": "2.75 0.0184 -0.0179 -0.0155",
        "sellmeier_extraordinary": BBO_E}})],
    ("crystal", "sellmeier_ordinary"): [
        Rejected(SR, {"crystal": {"sellmeier_ordinary": BBO_O}}),
        _set("crystal", "sellmeier_ordinary", "2.75 0.0184 -0.0179 -0.0155", CUSTOM),
    ],
    ("crystal", "sellmeier_extraordinary"): [
        Rejected(SR, {"crystal": {"sellmeier_extraordinary": BBO_E}}),
        _set("crystal", "sellmeier_extraordinary", "2.38 0.0128 -0.0156 -0.0044", CUSTOM),
    ],
    ("crystal", "cut_angle"): [_set("crystal", "cut_angle_deg", "29.5")],
    ("crystal", "length_l"): [_set("crystal", "length_l_um", "25")],
    # the Sellmeier validity window only decides whether a run may proceed
    ("crystal", "window_lo_um"): [
        Fails("jsi-sr", SR, {"crystal": {"window_lo_um": "0.41"}}, "dispersion")],
    ("crystal", "window_hi_um"): [
        Fails("jsi-sr", SR, {"crystal": {"window_hi_um": "0.79"}}, "dispersion")],
    ("cavity", "length"): [_set("cavity", "length_um", "30")],
    ("cavity", "r2_signal"): [_set("cavity", "r2_signal", "0.5")],
    ("cavity", "r2_idler"): [_set("cavity", "r2_idler", "0.5")],
    # the cavity decides between S_SR and S_DR, whichever subcommand runs
    ("cavity", "r1_pump"): [_set("cavity", "r1_pump", "0.3", DR, sub)
                            for sub in ("jsi-sr", "marginal")]
                           + [_set("cavity", "r1_pump", "0.3", DR_SWEEP, "brightness-sweep")],
    ("cavity", "r2_pump"): [_set("cavity", "r2_pump", "0.9", DR, sub)
                            for sub in ("jsi-sr", "marginal")]
                           + [_set("cavity", "r2_pump", "0.9", DR_SWEEP, "brightness-sweep")],
    ("cavity", "phase_r1_signal"): _phase("phase_r1_signal_rad", SR, UNSOLVED, "jsi-sr"),
    ("cavity", "phase_r1_idler"): _phase("phase_r1_idler_rad", SR, UNSOLVED, "jsi-sr"),
    ("cavity", "phase_r2_signal"): _phase("phase_r2_signal_rad", SR, UNSOLVED, "jsi-sr"),
    ("cavity", "phase_r2_idler"): _phase("phase_r2_idler_rad", SR, UNSOLVED, "jsi-sr"),
    ("cavity", "phase_r1_pump"): _phase("phase_r1_pump_rad", DR, DR_UNSOLVED, "jsi-dr"),
    ("cavity", "phase_r2_pump"): _phase("phase_r2_pump_rad", DR, DR_UNSOLVED, "jsi-dr"),
    ("cavity", "solve_phases"): [_set("cavity", "solve_phases", "false")],
    ("pump", "wavelength"): [_set("pump", "wavelength_nm", "401")],
    ("pump", "fwhm"): [
        _set("pump", "fwhm_nm", "4"),
        Rejected(SR, {"pump": {"sigma_rad_s": "1e12"}}),
        Rejected(R1P, {"pump": {"fwhm_nm": "5"}}),
        Rejected(DR_SWEEP, {"pump": {"fwhm_nm": "5"}}),
        Rejected(PLATEAU, {"pump": {"fwhm_nm": "5"}}),
        _set("pump", "fwhm_nm", "4", PLATEAU_ZERO, "brightness-sweep"),
    ],
    ("pump", "sigma"): [
        Changes("jsi-sr", SR, {"pump": {"fwhm_nm": None, "sigma_rad_s": "1e12"}}),
        Rejected(R1P, {"pump": {"sigma_rad_s": "2e11"}}),
        Rejected(DR_SWEEP, {"pump": {"sigma_rad_s": "2e11"}}),
        Rejected(PLATEAU, {"pump": {"sigma_rad_s": "2e11"}}),
    ],
    ("filters", "shape"): [
        Changes("jsi-sr", SR, {"filters": {"shape": "none", "fwhm_nm": None}})],
    ("filters", "signal_center"): [_set("filters", "signal_center_nm", "805")],
    ("filters", "idler_center"): [_set("filters", "idler_center_nm", "805")],
    ("filters", "fwhm"): [
        _set("filters", "fwhm_nm", "20"),
        Rejected(SR, {"filters": {"signal_fwhm_nm": "20", "idler_fwhm_nm": "25"}}),
        Rejected(SR, {"filters": {"shape": "none"}}),
    ],
    ("filters", "signal_fwhm"): [_set("filters", "signal_fwhm_nm", "20")],
    ("filters", "idler_fwhm"): [_set("filters", "idler_fwhm_nm", "20")],
    ("grid", "signal_center"): [_set("grid", "signal_center_nm", "805")],
    ("grid", "idler_center"): [_set("grid", "idler_center_nm", "795")],
    ("grid", "samples"): [_set("grid", "samples", "33")],
    ("grid", "halfwidth"): [_set("grid", "halfwidth_rad_s", "1.5e14")],
    ("temporal", "samples_per_mode_width"): [
        _set("temporal", "samples_per_mode_width", "10", subcommand="temporal")],
    ("temporal", "minus_halfwidth_filter_fwhm"): [
        _set("temporal", "minus_halfwidth_filter_fwhm", "2.5", subcommand="temporal")],
    ("temporal", "plus_halfwidth_sigma"): [
        _set("temporal", "plus_halfwidth_sigma", "4", subcommand="temporal")],
    ("temporal", "min_prominence"): [
        _set("temporal", "min_prominence", "0.05", subcommand="temporal"),
        Rejected(SR, {"temporal": {"min_prominence": "1.5"}}),
    ],
    ("sweep", "kind"): [
        Changes("brightness-sweep", SWEEP, {"sweep": {"kind": "sigma_r2",
                                                      "plateau_r2_list": None}}),
        Rejected(SWEEP, {"sweep": {"kind": "sigma_r2 plateau_r2 bogus"}}),
        Rejected(SWEEP, {"sweep": {"kind": "sigma_r2 plateau_r2 sigma_r2"}}),
        Rejected(SWEEP, {"sweep": {"kind": ""}}),
    ],
    ("sweep", "sigma_list"): [
        _set("sweep", "sigma_list_rad_s", "2.2e13", SWEEP, "brightness-sweep"),
        Rejected(PLATEAU, {"sweep": {"sigma_list_rad_s": "2.2e13"}}),
    ],
    ("sweep", "r2_list"): [
        _set("sweep", "r2_list", "0.7", SWEEP, "brightness-sweep"),
        Rejected(R1P, {"sweep": {"r2_list": "0.3"}}),
        # plateau_r2 reads plateau_r2_list alone
        Rejected(PLATEAU, {"sweep": {"r2_list": "0.7"}}),
    ],
    ("sweep", "plateau_r2_list"): [
        _set("sweep", "plateau_r2_list", "0.7", SWEEP, "brightness-sweep"),
        Rejected(SWEEP, {"sweep": {"kind": "sigma_r2"}}),
    ],
    ("sweep", "r1p_list"): [
        _set("sweep", "r1p_list", "0 0.7", R1P, "brightness-sweep"),
        Rejected(SWEEP, {"sweep": {"r1p_list": "0.5"}}),
    ],
    ("sweep", "factors"): [
        _set("sweep", "factors", "exact_factors", SWEEP, "brightness-sweep")],
    ("design", "signal_wavelength"): [
        _set("design", "signal_wavelength_nm", "854", DESIGN, "design")],
    ("design", "transition_fwhm"): [
        _set("design", "transition_fwhm_hz", "25e6", DESIGN, "design")],
    ("design", "pump_wavelength"): [
        _set("design", "pump_wavelength_nm", "401", DESIGN, "design")],
    ("design", "delta_lambda_max"): [
        _set("design", "delta_lambda_max_nm", "0.6", DESIGN, "design")],
    ("design", "pin_cavity_length"): [
        _set("design", "pin_cavity_length_um", "220", DESIGN, "design")],
    ("marginal", "axis"): [_set("marginal", "axis", "idler", subcommand="marginal")],
    ("output", "directory"): [_set("output", "directory", "elsewhere")],
    ("output", "format"): [_set("output", "format", "text")],
}


def _body(data):
    """An artifact without its '#' header, which carries the configuration hash."""
    return data[data.index(b"#end\n") + 5 :]


def run(run_dir, subcommand, config):
    """Exit code and {relative path: body} of one run without --out, inside run_dir."""
    run_dir.mkdir()
    (run_dir / "run.cfg").write_text(render(config))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(run_dir)
        code = main([subcommand, "--config", "run.cfg"])
    artifacts = {
        path.relative_to(run_dir).as_posix(): _body(path.read_bytes())
        for path in sorted(run_dir.rglob("*"))
        if path.is_file() and path.name not in ("run.cfg", "manifest")
    }
    return code, artifacts


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    """Memoized run of each unedited base configuration."""
    runs = {}

    def get(subcommand, base):
        key = (subcommand, render(base))
        if key not in runs:
            runs[key] = run(tmp_path_factory.mktemp("base") / "run", subcommand, base)
        return runs[key]

    return get


def test_every_schema_key_has_a_case():
    assert sorted(CASES) == sorted((s, stem) for s in _SCHEMA for stem in _SCHEMA[s])


@pytest.mark.parametrize(
    "section, stem, case",
    [(section, stem, case) for (section, stem), cases in CASES.items() for case in cases],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_key_changes_a_result_or_is_rejected(section, stem, case, base_run, tmp_path, capsys):
    config = edited(case.base, case.edit)
    if isinstance(case, Rejected):
        (tmp_path / "run.cfg").write_text(render(config))
        require = ("sweep",) if "sweep" in config else ()
        with pytest.raises(ConfigError, match=rf"\[{section}\] {stem}"):
            load_config(tmp_path / "run.cfg", require)
        return
    base_code, base_artifacts = base_run(case.subcommand, case.base)
    assert base_code == 0
    capsys.readouterr()
    code, artifacts = run(tmp_path / "edited", case.subcommand, config)
    if isinstance(case, Fails):
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: module={case.module}:")
    else:
        assert code == 0
        assert artifacts != base_artifacts


ZERO_CASES = [
    ("jsi-sr", SR, "crystal", "length_l_um", "0"),
    ("jsi-sr", SR, "crystal", "window_lo_um", "0"),
    ("jsi-sr", SR, "crystal", "window_hi_um", "0"),
    ("jsi-sr", SR, "cavity", "length_um", "0"),
    ("jsi-sr", SR, "pump", "wavelength_nm", "0"),
    ("jsi-sr", SR, "pump", "fwhm_nm", "0"),
    ("jsi-sr", edited(SR, {"pump": {"fwhm_nm": None}}), "pump", "sigma_rad_s", "0"),
    ("jsi-sr", SR, "filters", "signal_center_nm", "0"),
    ("jsi-sr", SR, "filters", "idler_center_nm", "0"),
    ("jsi-sr", SR, "filters", "fwhm_nm", "0"),
    ("jsi-sr", SR, "filters", "signal_fwhm_nm", "0"),
    ("jsi-sr", SR, "filters", "idler_fwhm_nm", "0"),
    ("jsi-sr", SR, "grid", "signal_center_nm", "0"),
    ("jsi-sr", SR, "grid", "idler_center_nm", "0"),
    ("jsi-sr", SR, "grid", "halfwidth_rad_s", "0"),
    ("brightness-sweep", SWEEP, "sweep", "sigma_list_rad_s", "4.6e13 0"),
    ("design", DESIGN, "design", "signal_wavelength_nm", "0"),
    ("design", DESIGN, "design", "transition_fwhm_hz", "0"),
    ("design", DESIGN, "design", "pump_wavelength_nm", "0"),
    ("design", DESIGN, "design", "delta_lambda_max_nm", "0"),
    ("design", DESIGN, "design", "pin_cavity_length_um", "0"),
]


@pytest.mark.parametrize("subcommand, base, section, key, value", ZERO_CASES,
                         ids=[f"{case[2]}.{case[3]}" for case in ZERO_CASES])
def test_zero_is_a_config_error(subcommand, base, section, key, value, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(render(edited(base, {section: {key: value}})))
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: module=config:") and f"[{section}] {key}" in err


@pytest.mark.parametrize("window", [{"window_lo_um": "1.2"},
                                    {"window_lo_um": "0.5", "window_hi_um": "0.5"}],
                         ids=["above_default_hi", "equal"])
def test_reversed_validity_window_is_a_config_error(window, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(render(edited(SR, {"crystal": window})))
    assert main(["jsi-sr", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: module=config:") and "[crystal] window_lo_um" in err


def test_plateau_without_its_list_is_a_config_error(tmp_path):
    # r2_list belongs to sigma_r2 and does not stand in for plateau_r2_list
    path = tmp_path / "run.cfg"
    path.write_text(render(edited(SWEEP, {"sweep": {"plateau_r2_list": None}})))
    with pytest.raises(ConfigError, match=r"plateau_r2_list in \[sweep\]"):
        load_config(path)


@pytest.mark.parametrize("subcommand", sorted(set(_SUBCOMMANDS) - {"design"}))
def test_only_the_sweep_refuses_a_pump_width_no_sweep_row_reads(subcommand, tmp_path):
    # fig5 without its r2 = 0 plateau row: no sweep row reads [pump] fwhm_nm,
    # which every other subcommand that loads the pump reads
    shipped = Path(__file__).resolve().parents[1] / "configs" / "fig5.cfg"
    path = tmp_path / "fig5.cfg"
    path.write_text(shipped.read_text().replace("plateau_r2_list = 0.0 ", "plateau_r2_list = "))
    require = _SUBCOMMANDS[subcommand][1]
    if subcommand != "brightness-sweep":
        assert load_config(path, require).has("pump", "fwhm")
        return
    with pytest.raises(ConfigError, match=r"\[pump\] fwhm_nm: kind = sigma_r2 plateau_r2 sets "):
        load_config(path, require)


@pytest.mark.parametrize("kind, says", [("r1p bogus", "[sweep] kind"),
                                        ("r1p r1p", "[sweep] kind"),
                                        ("r1p sigma_r2", "r2_list in [sweep]")])
def test_bad_sweep_kind_stops_before_any_artifact(kind, says, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(render(edited(R1P, {"sweep": {"kind": kind}})))
    out = tmp_path / "out"
    assert main(["brightness-sweep", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: module=config:") and says in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, base", [("temporal", SR), ("brightness-sweep", SWEEP)])
def test_subcommand_needing_filters_refuses_shape_none(subcommand, base, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(render(edited(base, {"filters": {"shape": "none", "fwhm_nm": None}})))
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: module=config:") and "[filters] shape" in err
