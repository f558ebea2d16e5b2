"""Run-configuration files: sectioned key=value with mandatory unit suffixes.

Every physical quantity carries its unit in the key name (length_l_um,
wavelength_nm, sigma_rad_s, ...) and is normalized to SI / rad/s on load.
Frequency-like keys accept either an explicit angular _rad_s suffix or a
cyclic _hz suffix (multiplied by 2 pi on load); bandwidth figures quoted in
"Hz" in the literature are therefore representable under either reading.
Keys that take a wavelength or a frequency (filter centers and widths, grid
centers) keep the kind of their suffix; it is never guessed from the value.
Dimensionless keys (reflectivity magnitudes, sample counts, lists) are
whitelisted individually.

_SCHEMA is the one place that states each key's units, bounds and default.
Unknown keys, missing unit suffixes, duplicates, non-finite numbers and
values outside a declared bound (each entry of a list included; lengths,
wavelengths, centers, widths, sigma and the halfwidth must be > 0) are all
load-time errors, and RunConfig.get returns the schema default for an absent
key.  So is a key that another setting makes the builders ignore: the six
mirror phases the solver sets or absorbs while solve_phases is true (the
default), the Sellmeier coefficients unless kind = custom, both pump widths
at once, any [filters] key besides shape = none, [filters] fwhm when
both per-mode widths are given, and a [sweep] list that no requested kind
reads (_SWEEPS), beside unknown or repeated kinds and shape = none
for a subcommand that requires [filters].
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .brightness import (
    brightness_vs_r1p_sweep,
    brightness_vs_sigma_sweep,
    plateau_brightness_vs_r2,
)
from .cavity import CavitySpec, MirrorSpec, solve_resonance_phases
from .constants import c
from .design import DesignTarget
from .dispersion import BBO_EXTRAORDINARY, BBO_ORDINARY, CrystalSpec, phasematching_angle
from .errors import ConfigError
from .spectral import FilterSpec, PumpSpec, default_grid, wavelength_fwhm_to_angular

__all__ = ["RunConfig", "load_config"]

_TWO_PI = 2 * math.pi

# Unit suffixes and their conversion to internal units (m, rad/s, rad).
_UNIT_FACTORS = {
    "nm": 1e-9,
    "um": 1e-6,
    "m": 1.0,
    "rad_s": 1.0,
    "hz": _TWO_PI,
    "rad": 1.0,
    "deg": math.pi / 180.0,
}


def _key(stem, kind="float", units=(), lo=None, hi=None, many=False, choices=None,
         required=False, default=None, positive=False):
    """Schema entry; a key with units is written stem_<unit> for one of them.

    positive marks a strictly positive quantity: its bound 0 is exclusive.
    """
    if positive:
        lo = 0.0
    return {"stem": stem, "kind": kind, "units": units, "lo": lo, "hi": hi, "many": many,
            "choices": choices, "required": required, "default": default,
            "lo_open": positive}


_LENGTH = ("m", "um", "nm")
_FREQ = ("rad_s", "hz")
_ANGLE = ("rad", "deg")


def _section(*entries):
    return {entry["stem"]: entry for entry in entries}


# section -> stem -> entry.  Bounds and defaults are in internal units; a
# default of None is computed where the value is used (cavity length = l, the
# cut angle from phasematching, the grid halfwidth from the filters).
_SCHEMA = {
    "crystal": _section(
        _key("kind", "choice", choices=("bbo", "custom"), default="bbo"),
        _key("sellmeier_ordinary", many=True),
        _key("sellmeier_extraordinary", many=True),
        _key("cut_angle", units=_ANGLE, lo=0.0, hi=math.pi / 2),
        _key("length_l", units=_LENGTH, positive=True),
        _key("window_lo_um", positive=True, default=0.2),
        _key("window_hi_um", positive=True, default=1.1),
    ),
    "cavity": _section(
        _key("length", units=_LENGTH, positive=True),
        _key("r2_signal", lo=0.0, hi=1.0, default=0.0),
        _key("r2_idler", lo=0.0, hi=1.0, default=0.0),
        _key("r1_pump", lo=0.0, hi=1.0, default=0.0),
        _key("r2_pump", lo=0.0, hi=1.0, default=0.0),
        _key("phase_r1_signal", units=_ANGLE, default=0.0),
        _key("phase_r1_idler", units=_ANGLE, default=0.0),
        _key("phase_r2_signal", units=_ANGLE, default=0.0),
        _key("phase_r2_idler", units=_ANGLE, default=0.0),
        _key("phase_r1_pump", units=_ANGLE, default=0.0),
        _key("phase_r2_pump", units=_ANGLE, default=0.0),
        _key("solve_phases", "bool", default=True),
    ),
    "pump": _section(
        _key("wavelength", units=_LENGTH, positive=True),
        _key("fwhm", units=("nm",), positive=True),
        _key("sigma", units=_FREQ, positive=True),
    ),
    "filters": _section(
        _key("shape", "choice", choices=("gaussian", "none"), default="gaussian"),
        _key("signal_center", units=_LENGTH + _FREQ, positive=True),
        _key("idler_center", units=_LENGTH + _FREQ, positive=True),
        _key("fwhm", units=("nm",) + _FREQ, positive=True),
        _key("signal_fwhm", units=("nm",) + _FREQ, positive=True),
        _key("idler_fwhm", units=("nm",) + _FREQ, positive=True),
    ),
    "grid": _section(
        _key("signal_center", units=_LENGTH + _FREQ, positive=True, required=True),
        _key("idler_center", units=_LENGTH + _FREQ, positive=True, required=True),
        _key("samples", "int", lo=16, default=1024),
        _key("halfwidth", units=_FREQ, positive=True),
    ),
    "temporal": _section(
        _key("samples_per_mode_width", "int", lo=2, default=8),
        _key("minus_halfwidth_filter_fwhm", lo=0.1, default=3.0),
        _key("plus_halfwidth_sigma", lo=0.5, default=4.5),
        _key("min_prominence", lo=0.0, hi=1.0, default=1e-4),
    ),
    "sweep": _section(
        _key("kind", "str", required=True),
        _key("sigma_list", units=_FREQ, positive=True, many=True),
        _key("r2_list", lo=0.0, hi=1.0, many=True),
        _key("plateau_r2_list", lo=0.0, hi=1.0, many=True),
        _key("r1p_list", lo=0.0, hi=1.0, many=True),
        _key("factors", "choice", choices=("central_approx", "exact_factors"),
             default="central_approx"),
    ),
    "design": _section(
        _key("signal_wavelength", units=_LENGTH, positive=True, required=True),
        _key("transition_fwhm", units=_FREQ, positive=True, required=True),
        _key("pump_wavelength", units=_LENGTH, positive=True, required=True),
        _key("delta_lambda_max", units=_LENGTH, positive=True, required=True),
        _key("pin_cavity_length", units=_LENGTH, positive=True),
    ),
    "marginal": _section(
        _key("axis", "choice", choices=("signal", "idler"), default="signal"),
    ),
    "output": _section(
        _key("directory", "str", default="out"),
        _key("format", "choice", choices=("text", "binary"), default="binary"),
    ),
}

# [sweep] kind -> (its sweep function, the lists that function reads in the
# order it takes them).
_SWEEPS = {
    "sigma_r2": (brightness_vs_sigma_sweep, ("sigma_list", "r2_list")),
    "plateau_r2": (plateau_brightness_vs_r2, ("plateau_r2_list",)),
    "r1p": (brightness_vs_r1p_sweep, ("r1p_list", "sigma_list")),
}

# The mirror phases solve_resonance_phases sets (the r2 and pump phases) or
# absorbs (the r1 signal and idler phases, which only enter through sums the
# solver fixes): with solve_phases on, a value given for one of them could
# not change the result.
_SOLVED_PHASES = (
    "phase_r1_signal", "phase_r1_idler", "phase_r2_signal", "phase_r2_idler",
    "phase_r1_pump", "phase_r2_pump",
)

_REQUIRED_NOTE = (
    "a run configuration needs [crystal], [cavity], [pump] and [grid] "
    "(plus [filters]/[sweep] as applicable), or [crystal] and [design] "
    "for the design subcommand"
)


def _match_entry(section, key):
    """Schema entry and unit suffix for a raw key; (None, None) when unknown."""
    for entry in _SCHEMA[section].values():
        if not entry["units"] and entry["stem"] == key:
            return entry, None
        for unit in entry["units"]:
            if key == f"{entry['stem']}_{unit}":
                return entry, unit
    return None, None


def _suffix_help(section, key):
    """Detect a known stem lacking its unit suffix and name the valid ones."""
    for entry in _SCHEMA[section].values():
        if entry["units"] and (key == entry["stem"] or key.startswith(entry["stem"] + "_")):
            valid = ", ".join(f"{entry['stem']}_{u}" for u in entry["units"])
            return f"missing or wrong unit suffix on {key!r} in [{section}]; expected one of: {valid}"
    return None


def _parse_value(entry, unit, raw, section, key):
    def fail(msg):
        raise ConfigError(f"[{section}] {key}: {msg}")

    kind = entry["kind"]
    if kind in ("float", "int"):
        parse = int if kind == "int" else float
        tokens = raw.split() if entry["many"] else [raw]
        try:
            # a key without units (unit None) keeps its value and type: x * 1 is x
            values = [parse(tok) * _UNIT_FACTORS.get(unit, 1) for tok in tokens]
        except ValueError:
            if entry["many"]:
                fail(f"expected a space-separated list of numbers, got {raw!r}")
            fail(f"expected {'an integer' if kind == 'int' else 'a number'}, got {raw!r}")
        if not values:
            fail("empty list")
        for value in values:
            if not -math.inf < value < math.inf:
                fail(f"expected a finite number, got {value}")
            lo = entry["lo"]
            if entry["lo_open"] and value <= lo:
                fail(f"value {value} not above exclusive lower bound {lo}")
            elif lo is not None and value < lo:
                fail(f"value {value} below lower bound {lo}")
            if entry["hi"] is not None and value > entry["hi"]:
                fail(f"value {value} above upper bound {entry['hi']}")
        return values if entry["many"] else values[0]
    if kind == "bool":
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        fail(f"expected a boolean, got {raw!r}")
    if kind == "choice":
        if raw not in entry["choices"]:
            fail(f"expected one of {entry['choices']}, got {raw!r}")
        return raw
    return raw


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

    def get(self, section, stem):
        """The key's value, or its _SCHEMA default when the key is absent."""
        return self.sections.get(section, {}).get(stem, _SCHEMA[section][stem]["default"])

    def require(self, section, stem=None):
        if not self.has(section, stem):
            what = f"[{section}]" if stem is None else f"{stem} in [{section}]"
            raise ConfigError(f"configuration is missing {what}")
        return self.sections[section] if stem is None else self.sections[section][stem]

    def sweep_kinds(self):
        """The requested [sweep] kinds, in order."""
        return self.require("sweep", "kind").split()

    def sweep(self, kind):
        """(function, lists) of the sweep of one kind: its lists in the order it takes them."""
        function, stems = _SWEEPS[kind]
        return function, [self.require("sweep", stem) for stem in stems]

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

    def _sellmeier(self):
        """(ordinary, extraordinary) Sellmeier coefficients of the crystal kind."""
        if self.get("crystal", "kind") == "bbo":
            return BBO_ORDINARY, BBO_EXTRAORDINARY
        return (tuple(self.require("crystal", "sellmeier_ordinary")),
                tuple(self.require("crystal", "sellmeier_extraordinary")))

    def crystal(self):
        sell_o, sell_e = self._sellmeier()
        window = (self.get("crystal", "window_lo_um"), self.get("crystal", "window_hi_um"))
        length = self.require("crystal", "length_l")
        cut = self.get("crystal", "cut_angle")
        if cut is None:
            omega_s0, omega_i0 = self.band_centers()
            probe = CrystalSpec(sell_o, sell_e, 0.0, length, window)
            cut = phasematching_angle(probe, omega_s0 + omega_i0, omega_s0, omega_i0)
        return CrystalSpec(sell_o, sell_e, cut, length, window)

    def cavity(self):
        crystal = self.crystal()
        length = self.get("cavity", "length")
        if length is None:
            length = crystal.length_l
        mirrors = {}
        for nu in (1, 2):
            for mode in ("signal", "idler", "pump"):
                # Mirror 1 reflects signal and idler fully: the SR and DR
                # intensities depend on |r_2| alone.
                if nu == 1 and mode != "pump":
                    mag = 1.0
                else:
                    mag = self.get("cavity", f"r{nu}_{mode}")
                mirrors[(nu, mode)] = MirrorSpec(mag, self.get("cavity", f"phase_r{nu}_{mode}"))
        cavity = CavitySpec(length, crystal, mirrors)
        if self.get("cavity", "solve_phases"):
            omega_s0, omega_i0 = self.band_centers()
            omega_p0 = None
            if cavity.reflects_pump:
                omega_p0 = self.pump().omega_p0 if self.has("pump") else omega_s0 + omega_i0
            cavity = solve_resonance_phases(cavity, omega_s0, omega_i0, omega_p0)
        return cavity

    def pump(self):
        sec = self.require("pump")
        lam = self.require("pump", "wavelength")
        if "fwhm" in sec:
            return PumpSpec.from_wavelength(lam, sec["fwhm"])
        if "sigma" not in sec:
            raise ConfigError("[pump] needs either sigma_rad_s/sigma_hz or fwhm_nm")
        return PumpSpec(2 * math.pi * c / lam, sec["sigma"])

    def filters(self):
        """(signal, idler) FilterSpec pair, or None when no filter is configured."""
        if not self.has("filters"):
            return None
        if self.get("filters", "shape") == "none":
            return None
        sec = self.sections["filters"]
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
        samples = self.get("grid", "samples")
        halfwidth = self.get("grid", "halfwidth")
        if halfwidth is None:
            filters = self.filters()
            if filters is None:
                raise ConfigError(
                    "[grid] halfwidth_rad_s is required when no gaussian filters are set"
                )
            halfwidth = 3.0 * max(filters[0].fwhm, filters[1].fwhm)
        return default_grid(omega_s0, omega_i0, halfwidth, samples)

    def design_target(self):
        sec = self.require("design")
        return DesignTarget(
            sec["signal_wavelength"],
            sec["transition_fwhm"],
            sec["pump_wavelength"],
            sec["delta_lambda_max"],
            *self._sellmeier(),
        )


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

    for section, out in sections.items():
        for entry in _SCHEMA[section].values():
            if entry["required"] and entry["stem"] not in out:
                raise ConfigError(f"[{section}] is missing the required key {entry['stem']!r}")

    missing = [name for name in require if name not in sections]
    if missing:
        raise ConfigError(
            f"configuration is missing required section(s) "
            f"{', '.join('[' + m + ']' for m in missing)}; {_REQUIRED_NOTE}"
        )
    cfg = RunConfig(sections, units)
    if "filters" in require and cfg.get("filters", "shape") == "none":
        raise ConfigError("[filters] shape = none: this subcommand needs gaussian filters")
    if cfg.has("sweep"):
        _check_sweep_kinds(cfg)
    for section, stem, why in _ignored_keys(cfg):
        unit = units[section][stem]
        raise ConfigError(f"[{section}] {stem if unit is None else f'{stem}_{unit}'}: {why}")
    lo, hi = cfg.get("crystal", "window_lo_um"), cfg.get("crystal", "window_hi_um")
    if lo >= hi:
        raise ConfigError(f"[crystal] window_lo_um = {lo:g} must be below window_hi_um = {hi:g}")
    return cfg


def _check_sweep_kinds(cfg):
    """Each [sweep] kind is known and requested once, and finds the lists it reads."""
    kinds = cfg.sweep_kinds()
    if not kinds or len(set(kinds)) < len(kinds) or not set(kinds) <= set(_SWEEPS):
        raise ConfigError(f"[sweep] kind = {' '.join(kinds)!r}: expected one or more of "
                          f"{', '.join(_SWEEPS)}, each at most once")
    for kind in kinds:
        cfg.sweep(kind)  # a ConfigError naming the list when one is missing


def _ignored_keys(cfg):
    """(section, stem, reason) of each key that another setting makes the builders ignore."""
    if cfg.get("cavity", "solve_phases"):
        for stem in _SOLVED_PHASES:
            if cfg.has("cavity", stem):
                yield ("cavity", stem, "solve_phases = true (the default) puts the cavity on "
                       "resonance and the solver absorbs this phase; drop the key or set "
                       "solve_phases = false")
    if cfg.get("crystal", "kind") != "custom":
        for stem in ("sellmeier_ordinary", "sellmeier_extraordinary"):
            if cfg.has("crystal", stem):
                yield ("crystal", stem, "kind = bbo uses the built-in BBO coefficients; "
                       "set kind = custom to use these")
    if cfg.has("pump", "sigma") and cfg.has("pump", "fwhm"):
        yield ("pump", "fwhm", "[pump] sets both sigma and fwhm; pick one")
    if cfg.get("filters", "shape") == "none":
        for stem in cfg.sections.get("filters", {}):
            if stem != "shape":
                yield ("filters", stem, "shape = none configures no filter; drop the key")
    elif all(cfg.has("filters", stem) for stem in ("fwhm", "signal_fwhm", "idler_fwhm")):
        yield ("filters", "fwhm", "signal_fwhm and idler_fwhm are both set, so this width "
               "applies to neither mode; drop it")
    if cfg.has("sweep"):
        kinds = cfg.sweep_kinds()
        read = {stem for kind in kinds for stem in _SWEEPS[kind][1]}
        for stem in cfg.sections["sweep"]:
            if stem.endswith("_list") and stem not in read:
                yield ("sweep", stem, f"kind = {' '.join(kinds)} reads no such list; drop the key")
