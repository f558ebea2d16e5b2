"""Run-configuration files: sectioned key=value with mandatory unit suffixes.

Every physical quantity carries its unit in the key name (length_l_um,
wavelength_nm, sigma_rad_s, ...) and is normalized to SI / rad/s on load.
Frequency-like keys accept either an explicit angular _rad_s suffix or a
cyclic _hz suffix (multiplied by 2 pi on load); bandwidth figures quoted in
"Hz" in the literature are therefore representable under either reading.
Keys that take a wavelength or a frequency (filter centers and widths, grid
centers) keep the kind of their suffix; it is never guessed from the value.
Dimensionless keys (reflectivity magnitudes, sample counts, lists) are
whitelisted individually.  Unknown keys, missing unit suffixes, duplicates
and out-of-range values are all load-time errors.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .cavity import CavitySpec, MirrorSpec, solve_resonance_phases
from .constants import c
from .design import DesignTarget
from .dispersion import BBO_EXTRAORDINARY, BBO_ORDINARY, CrystalSpec, phasematching_angle
from .errors import ConfigError
from .spectral import FilterSpec, PumpSpec, SpectralGrid, fwhm_to_sigma, wavelength_fwhm_to_angular

__all__ = ["RunConfig", "load_config"]

_TWO_PI = 2 * math.pi

# Unit suffixes and their conversion to internal units (m, rad/s, rad, J, s).
_UNIT_FACTORS = {
    "nm": 1e-9,
    "um": 1e-6,
    "m": 1.0,
    "rad_s": 1.0,
    "hz": _TWO_PI,
    "rad": 1.0,
    "deg": math.pi / 180.0,
    "j": 1.0,
    "s": 1.0,
}


def _quantity(stem, units, lo=None, hi=None, required=False):
    return {"kind": "quantity", "stem": stem, "units": units, "lo": lo, "hi": hi,
            "required": required}


def _bare(name, kind, lo=None, hi=None, choices=None, required=False, default=None):
    return {"kind": kind, "stem": name, "lo": lo, "hi": hi, "choices": choices,
            "required": required, "default": default}


_LENGTH = ("m", "um", "nm")
_FREQ = ("rad_s", "hz")
_ANGLE = ("rad", "deg")

# section -> list of entries; a "quantity" entry matches stem_<unit>.
_SCHEMA = {
    "crystal": [
        _bare("kind", "choice", choices=("bbo", "custom")),
        _bare("sellmeier_ordinary", "float_list"),
        _bare("sellmeier_extraordinary", "float_list"),
        _quantity("cut_angle", _ANGLE, lo=0.0, hi=math.pi / 2),
        _quantity("length_l", _LENGTH, lo=0.0),
        _bare("window_lo_um", "float", lo=0.0),
        _bare("window_hi_um", "float", lo=0.0),
    ],
    "cavity": [
        _quantity("length", _LENGTH, lo=0.0),
        _bare("r2_signal", "float", lo=0.0, hi=1.0, default=0.0),
        _bare("r2_idler", "float", lo=0.0, hi=1.0, default=0.0),
        _bare("r1_pump", "float", lo=0.0, hi=1.0, default=0.0),
        _bare("r2_pump", "float", lo=0.0, hi=1.0, default=0.0),
        _quantity("phase_r1_signal", _ANGLE),
        _quantity("phase_r1_idler", _ANGLE),
        _quantity("phase_r2_signal", _ANGLE),
        _quantity("phase_r2_idler", _ANGLE),
        _quantity("phase_r1_pump", _ANGLE),
        _quantity("phase_r2_pump", _ANGLE),
        _bare("solve_phases", "bool", default=True),
    ],
    "pump": [
        _quantity("wavelength", _LENGTH),
        _quantity("fwhm", ("nm",)),
        _quantity("sigma", _FREQ),
        _bare("energy_j", "float", lo=0.0, default=1.0),
    ],
    "filters": [
        _bare("shape", "choice", choices=("gaussian", "none"), default="gaussian"),
        _quantity("signal_center", _LENGTH + _FREQ),
        _quantity("idler_center", _LENGTH + _FREQ),
        _quantity("fwhm", ("nm",) + _FREQ),
        _quantity("signal_fwhm", ("nm",) + _FREQ),
        _quantity("idler_fwhm", ("nm",) + _FREQ),
    ],
    "grid": [
        _quantity("signal_center", _LENGTH + _FREQ, required=True),
        _quantity("idler_center", _LENGTH + _FREQ, required=True),
        _bare("samples", "int", lo=16, default=1024),
        _quantity("halfwidth", _FREQ),
    ],
    "temporal": [
        _bare("samples_per_mode_width", "int", lo=2, default=8),
        _bare("minus_halfwidth_filter_fwhm", "float", lo=0.1, default=3.0),
        _bare("plus_halfwidth_sigma", "float", lo=0.5, default=4.5),
        _bare("min_prominence", "float", lo=0.0, default=1e-4),
    ],
    "sweep": [
        _bare("kind", "str", required=True),
        _quantity("sigma_list", _FREQ),
        _bare("r2_list", "float_list"),
        _bare("plateau_r2_list", "float_list"),
        _bare("r1p_list", "float_list"),
        _bare("factors", "choice", choices=("central_approx", "exact_factors"),
              default="central_approx"),
    ],
    "design": [
        _quantity("signal_wavelength", _LENGTH, required=True),
        _quantity("transition_fwhm", _FREQ, required=True),
        _quantity("pump_wavelength", _LENGTH, required=True),
        _quantity("delta_lambda_max", _LENGTH, required=True),
        _quantity("pin_cavity_length", _LENGTH),
    ],
    "marginal": [
        _bare("axis", "choice", choices=("signal", "idler"), default="signal"),
    ],
    "output": [
        _bare("directory", "str", default="out"),
        _bare("format", "choice", choices=("text", "binary"), default="binary"),
    ],
}

_REQUIRED_NOTE = (
    "a run configuration needs [crystal], [cavity], [pump] and [grid] "
    "(plus [filters]/[sweep] as applicable), or [crystal] and [design] "
    "for the design subcommand"
)


def _match_entry(section, key):
    """Schema entry and unit factor for a raw key; None when unknown."""
    entries = _SCHEMA[section]
    for entry in entries:
        if entry["kind"] != "quantity" and entry["stem"] == key:
            return entry, None
        if entry["kind"] == "quantity":
            for unit in entry["units"]:
                if key == f"{entry['stem']}_{unit}":
                    return entry, unit
    return None, None


def _suffix_help(section, key):
    """Detect a known stem lacking its unit suffix and name the valid ones."""
    for entry in _SCHEMA[section]:
        if entry["kind"] == "quantity" and (
            key == entry["stem"] or key.startswith(entry["stem"] + "_")
        ):
            valid = ", ".join(f"{entry['stem']}_{u}" for u in entry["units"])
            return f"missing or wrong unit suffix on {key!r} in [{section}]; expected one of: {valid}"
    return None


def _parse_value(entry, unit, raw, section, key):
    def fail(msg):
        raise ConfigError(f"[{section}] {key}: {msg}")

    kind = entry["kind"]
    if kind == "quantity":
        # Keys with a _list stem (e.g. sigma_list_rad_s) always hold a list.
        if entry["stem"].endswith("_list"):
            try:
                values = [float(tok) for tok in raw.split()]
            except ValueError:
                fail(f"expected a space-separated list of numbers, got {raw!r}")
            if not values:
                fail("empty list")
            return [v * _UNIT_FACTORS[unit] for v in values]
        try:
            value = float(raw)
        except ValueError:
            fail(f"expected a number, got {raw!r}")
        return value * _UNIT_FACTORS[unit]
    if kind == "float":
        try:
            value = float(raw)
        except ValueError:
            fail(f"expected a number, got {raw!r}")
        if entry["lo"] is not None and value < entry["lo"]:
            fail(f"value {value} below lower bound {entry['lo']}")
        if entry["hi"] is not None and value > entry["hi"]:
            fail(f"value {value} above upper bound {entry['hi']}")
        return value
    if kind == "int":
        try:
            value = int(raw)
        except ValueError:
            fail(f"expected an integer, got {raw!r}")
        if entry["lo"] is not None and value < entry["lo"]:
            fail(f"value {value} below lower bound {entry['lo']}")
        return value
    if kind == "bool":
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        fail(f"expected a boolean, got {raw!r}")
    if kind == "float_list":
        try:
            values = [float(tok) for tok in raw.split()]
        except ValueError:
            fail(f"expected a space-separated list of numbers, got {raw!r}")
        if not values:
            fail("empty list")
        return values
    if kind == "choice":
        if raw not in entry["choices"]:
            fail(f"expected one of {entry['choices']}, got {raw!r}")
        return raw
    if kind == "str":
        return raw
    raise AssertionError(f"unhandled schema kind {kind}")


@dataclass
class RunConfig:
    """Validated, unit-normalized run configuration.

    units maps section -> stem -> the unit suffix the key was given with, so
    a key that accepts wavelengths or frequencies keeps its kind.
    """

    sections: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)

    def has(self, section, stem=None):
        if section not in self.sections:
            return False
        return stem is None or stem in self.sections[section]

    def get(self, section, stem, default=None):
        return self.sections.get(section, {}).get(stem, default)

    def require(self, section, stem=None):
        if not self.has(section, stem):
            what = f"[{section}]" if stem is None else f"{stem} in [{section}]"
            raise ConfigError(f"configuration is missing {what}")
        return self.sections[section] if stem is None else self.sections[section][stem]

    def normalized_text(self):
        """Canonical text rendering of the normalized values (hash input)."""
        lines = []
        for section in sorted(self.sections):
            lines.append(f"[{section}]")
            for stem in sorted(self.sections[section]):
                value = self.sections[section][stem]
                if isinstance(value, float):
                    rendered = f"{value:.17g}"
                elif isinstance(value, list):
                    rendered = " ".join(f"{v:.17g}" for v in value)
                else:
                    rendered = str(value)
                lines.append(f"{stem} = {rendered}")
        return "\n".join(lines) + "\n"

    # -- builders ---------------------------------------------------------

    def _is_wavelength(self, section, stem):
        return self.units[section][stem] in _LENGTH

    def _omega(self, section, stem):
        """A center given as a wavelength (m) or an angular frequency, in rad/s."""
        value = self.require(section, stem)
        return 2 * math.pi * c / value if self._is_wavelength(section, stem) else value

    def _fwhm(self, section, stem, center_omega):
        """A width given in wavelength (m) or angular frequency, in rad/s."""
        value = self.require(section, stem)
        if self._is_wavelength(section, stem):
            lam = 2 * math.pi * c / center_omega
            return wavelength_fwhm_to_angular(lam, value)
        return value

    def band_centers(self):
        """(omega_s0, omega_i0) from the grid section, rad/s."""
        return self._omega("grid", "signal_center"), self._omega("grid", "idler_center")

    def crystal(self):
        sec = self.sections.get("crystal", {})
        kind = sec.get("kind", "bbo")
        if kind == "bbo":
            sell_o, sell_e = BBO_ORDINARY, BBO_EXTRAORDINARY
        else:
            sell_o = tuple(self.require("crystal", "sellmeier_ordinary"))
            sell_e = tuple(self.require("crystal", "sellmeier_extraordinary"))
        window = (sec.get("window_lo_um", 0.2), sec.get("window_hi_um", 1.1))
        length = self.require("crystal", "length_l")
        cut = sec.get("cut_angle")
        if cut is None:
            omega_s0, omega_i0 = self.band_centers()
            probe = CrystalSpec(sell_o, sell_e, 0.0, length, window)
            cut = phasematching_angle(probe, omega_s0 + omega_i0, omega_s0, omega_i0)
        return CrystalSpec(sell_o, sell_e, cut, length, window)

    def cavity(self, crystal=None):
        crystal = crystal or self.crystal()
        sec = self.sections.get("cavity", {})
        length = sec.get("length", crystal.length_l)
        mirrors = {}
        for nu in (1, 2):
            for mode in ("signal", "idler", "pump"):
                # Mirror 1 reflects signal and idler fully: the SR and DR
                # intensities depend on |r_2| alone.
                if nu == 1 and mode != "pump":
                    mag = 1.0
                else:
                    mag = sec.get(f"r{nu}_{mode}", _default_for("cavity", f"r{nu}_{mode}"))
                phase = sec.get(f"phase_r{nu}_{mode}", 0.0)
                mirrors[(nu, mode)] = MirrorSpec(mag, phase)
        cavity = CavitySpec(length, crystal, mirrors)
        if sec.get("solve_phases", True):
            omega_s0, omega_i0 = self.band_centers()
            omega_p0 = None
            if mirrors[(1, "pump")].magnitude > 0 or mirrors[(2, "pump")].magnitude > 0:
                omega_p0 = self.pump().omega_p0 if self.has("pump") else omega_s0 + omega_i0
            cavity = solve_resonance_phases(cavity, omega_s0, omega_i0, omega_p0)
        return cavity

    def pump(self):
        sec = self.require("pump")
        lam = self.require("pump", "wavelength")
        energy = sec.get("energy_j", 1.0)
        if "sigma" in sec and "fwhm" in sec:
            raise ConfigError("[pump] sets both sigma and fwhm; pick one")
        if "sigma" in sec:
            sigma = sec["sigma"]
        elif "fwhm" in sec:
            sigma = fwhm_to_sigma(wavelength_fwhm_to_angular(lam, sec["fwhm"]))
        else:
            raise ConfigError("[pump] needs either sigma_rad_s/sigma_hz or fwhm_nm")
        return PumpSpec(2 * math.pi * c / lam, sigma, energy)

    def filters(self):
        """(signal, idler) FilterSpec pair, or None when no filter is configured."""
        if not self.has("filters"):
            return None
        sec = self.sections["filters"]
        if sec.get("shape", "gaussian") == "none":
            return None
        out = []
        for mode, center in zip(("signal", "idler"), self.band_centers()):
            if f"{mode}_center" in sec:
                center = self._omega("filters", f"{mode}_center")
            width = f"{mode}_fwhm" if f"{mode}_fwhm" in sec else "fwhm"
            if width not in sec:
                raise ConfigError("[filters] needs fwhm_nm (or per-mode signal/idler fwhm keys)")
            out.append(FilterSpec(center, self._fwhm("filters", width, center)))
        return tuple(out)

    def grid(self):
        omega_s0, omega_i0 = self.band_centers()
        sec = self.sections.get("grid", {})
        samples = sec.get("samples", 1024)
        halfwidth = sec.get("halfwidth")
        if halfwidth is None:
            filters = self.filters()
            if filters is None:
                raise ConfigError(
                    "[grid] halfwidth_rad_s is required when no gaussian filters are set"
                )
            halfwidth = 3.0 * max(filters[0].fwhm, filters[1].fwhm)
        s_axis = np.linspace(omega_s0 - halfwidth, omega_s0 + halfwidth, samples)
        i_axis = np.linspace(omega_i0 - halfwidth, omega_i0 + halfwidth, samples)
        return SpectralGrid(s_axis, i_axis, np.zeros((samples, samples)))

    def design_target(self):
        sec = self.require("design")
        kind = self.get("crystal", "kind", "bbo")
        if kind == "bbo":
            sell_o, sell_e = BBO_ORDINARY, BBO_EXTRAORDINARY
        else:
            sell_o = tuple(self.require("crystal", "sellmeier_ordinary"))
            sell_e = tuple(self.require("crystal", "sellmeier_extraordinary"))
        return DesignTarget(
            sec["signal_wavelength"],
            sec["transition_fwhm"],
            sec["pump_wavelength"],
            sec["delta_lambda_max"],
            sell_o,
            sell_e,
        )


def _default_for(section, stem):
    for entry in _SCHEMA[section]:
        if entry["stem"] == stem:
            return entry.get("default")
    return None


def load_config(path, require=()):
    """Parse and validate a configuration file into a RunConfig.

    require lists section names that must be present for the intended
    subcommand; an empty or sectionless file is always an error.
    """
    parser = configparser.ConfigParser(
        interpolation=None, strict=True, delimiters=("=",), comment_prefixes=("#", ";")
    )
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}")
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"duplicate key: {exc}")
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"duplicate section: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}")

    if not parser.sections():
        raise ConfigError(f"configuration file {path} has no sections; {_REQUIRED_NOTE}")

    sections, units = {}, {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]; known sections: {', '.join(sorted(_SCHEMA))}"
            )
        stems_seen = {}
        out = {}
        units[section] = {}
        for key, raw in parser.items(section):
            entry, unit = _match_entry(section, key)
            if entry is None:
                help_msg = _suffix_help(section, key)
                if help_msg:
                    raise ConfigError(help_msg)
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            stem = entry["stem"]
            if stem in stems_seen:
                raise ConfigError(
                    f"[{section}] sets {stem!r} twice ({stems_seen[stem]!r} and {key!r})"
                )
            stems_seen[stem] = key
            out[stem] = _parse_value(entry, unit, raw, section, key)
            units[section][stem] = unit
        sections[section] = out

    for section in _SCHEMA:
        if section in sections:
            for entry in _SCHEMA[section]:
                if entry.get("required") and entry["stem"] not in sections[section]:
                    raise ConfigError(
                        f"[{section}] is missing the required key {entry['stem']!r}"
                    )

    missing = [name for name in require if name not in sections]
    if missing:
        raise ConfigError(
            f"configuration is missing required section(s) "
            f"{', '.join('[' + m + ']' for m in missing)}; {_REQUIRED_NOTE}"
        )
    return RunConfig(sections, units)
