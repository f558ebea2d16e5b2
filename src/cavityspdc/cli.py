"""Command-line interface: reproducible figure-style runs from config files.

    cavityspdc <subcommand> --config <path> [--out <dir>] [--format text|binary]
               [--threads N]

Subcommands: jsi-sr, jsi-dr, marginal, temporal, brightness-sweep, design,
airy.  jsi-sr and jsi-dr both write the cavity's JSI, jsi_dr.grid when it
reflects the pump and jsi_sr.grid otherwise; temporal refuses such a cavity.
--threads N (default: the CPUs this process may run on) spreads the
blocked work of jsi-sr, jsi-dr, marginal, temporal and brightness-sweep
over N threads without changing a bit of their output; design and airy
run on one.  Every run writes its artifacts plus a manifest listing each
file with the sha256 hash of the normalized configuration; identical
configuration and package version give bitwise-identical binary outputs.
Physics errors exit nonzero with a single machine-parsable line on
stderr: error: module=<module>: <message>.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .cavity import airy, free_spectral_range, group_round_trip_time, mode_width
from .config import load_config
from .design import design_source, report_design, spectral_check
from .doubly_resonant import jsi_doubly_resonant
from .errors import CavitySpdcError, ConfigError
from .gridfile import config_hash, write_columns, write_grid, write_text
from .spectral import jsi_singly_resonant, marginal_spectrum
from .temporal import (
    check_minus_window,
    correlation_time,
    extract_peaks,
    joint_temporal_intensity_from_cavity,
    rotated_lattice_axes,
    time_difference_marginal,
)

_SUBCOMMANDS = ("jsi-sr", "jsi-dr", "marginal", "temporal", "brightness-sweep", "design", "airy")

_REQUIRED_SECTIONS = {
    "jsi-sr": ("crystal", "cavity", "pump", "grid"),
    "jsi-dr": ("crystal", "cavity", "pump", "grid"),
    "marginal": ("crystal", "cavity", "pump", "grid"),
    "temporal": ("crystal", "cavity", "pump", "filters", "grid"),
    "brightness-sweep": ("crystal", "cavity", "pump", "filters", "grid", "sweep"),
    "design": ("design",),
    "airy": ("crystal", "cavity", "grid"),
}


def _metadata(cfg, extra=None):
    meta = {
        "generator": f"cavityspdc {__version__}",
        "config_sha256": config_hash(cfg.normalized_text()),
    }
    meta.update(extra or {})
    return meta


def _cmd_jsi(cfg, out_dir, fmt, threads, marginal=False):
    """The cavity's JSI grid, plus its marginal for the marginal subcommand."""
    cavity = cfg.cavity()
    # the same intensity either way; the name keeps warnings and traces apart
    jsi_of, name = ((jsi_doubly_resonant, "jsi_dr") if cavity.reflects_pump
                    else (jsi_singly_resonant, "jsi_sr"))
    jsi = jsi_of(cavity, cfg.pump(), cfg.filters(), cfg.grid(), threads)
    paths = [out_dir / f"{name}.grid"]
    write_grid(jsi, paths[0], fmt, _metadata(cfg, {"quantity": name}))
    if marginal:
        axis = cfg.get("marginal", "axis")
        marg = marginal_spectrum(jsi, axis)
        paths.append(out_dir / f"marginal_{axis}.dat")
        write_columns(
            paths[1],
            (marg.axis, marg.density),
            (f"omega_{axis}_rad_s", "density"),
            _metadata(cfg, {"quantity": f"marginal over the other axis, {axis} kept"}),
        )
    return paths


def _cmd_temporal(cfg, out_dir, fmt, threads):
    cavity = cfg.cavity()
    if cavity.reflects_pump:
        raise ConfigError("[cavity] r1_pump, r2_pump: the temporal model is singly "
                          "resonant and ignores the pump mirrors; set both to 0")
    pump = cfg.pump()
    filters = cfg.filters()
    omega_s0, omega_i0 = cfg.band_centers()
    plus, minus = rotated_lattice_axes(
        cavity, pump, filters, omega_s0, omega_i0,
        cfg.get("temporal", "samples_per_mode_width"),
        cfg.get("temporal", "minus_halfwidth_filter_fwhm"),
        cfg.get("temporal", "plus_halfwidth_sigma"),
    )
    round_trip = group_round_trip_time(cavity, omega_s0)
    check_minus_window(minus, round_trip)  # before the costly fill, not after it
    tgrid = joint_temporal_intensity_from_cavity(cavity, pump, filters, plus, minus, threads)
    marg = time_difference_marginal(tgrid, threads=threads)
    peaks = extract_peaks(marg.axis, marg.density, cfg.get("temporal", "min_prominence"))
    t_c = correlation_time(peaks)
    spacing = float(np.median(np.diff(peaks.positions)))

    marg_path = out_dir / "time_difference.dat"
    write_columns(
        marg_path,
        (marg.axis, marg.density),
        ("t_minus_s", "density"),
        _metadata(cfg, {"quantity": "emission time difference marginal"}),
    )
    peaks_path = out_dir / "peaks.dat"
    write_columns(
        peaks_path,
        (peaks.positions, peaks.heights),
        ("t_minus_s", "height"),
        _metadata(cfg),
    )
    summary_path = out_dir / "temporal_summary.kv"
    write_text(
        summary_path,
        (
            f"correlation_time_s = {t_c:.17g}\n"
            f"peak_spacing_s = {spacing:.17g}\n"
            f"round_trip_time_s = {round_trip:.17g}\n"
            f"peak_count = {peaks.positions.size}\n"
        ),
        _metadata(cfg),
    )
    return [marg_path, peaks_path, summary_path]


def _cmd_brightness_sweep(cfg, out_dir, fmt, threads):
    cavity = cfg.cavity()
    pump = cfg.pump()
    filters = cfg.filters()
    factors = cfg.get("sweep", "factors")
    paths = []
    for kind in cfg.sweep_kinds():
        sweep, lists = cfg.sweep(kind)
        table = sweep(cavity, pump, filters, *lists, factors, threads)
        path = out_dir / f"brightness_{kind}.tsv"
        write_text(path, table.to_text(), _metadata(cfg, {"sweep": kind}))
        paths.append(path)
    return paths


def _cmd_design(cfg, out_dir, fmt, threads):
    target = cfg.design_target()
    pin = cfg.get("design", "pin_cavity_length")
    result = design_source(target, pin_cavity_length=pin)
    check = spectral_check(target, result)
    report = report_design(target, result, check)
    report_path = out_dir / "design_report.txt"
    write_text(report_path, report, _metadata(cfg))
    kv_path = out_dir / "design.kv"
    write_text(
        kv_path,
        (
            f"lambda_idler_m = {result.lambda_idler:.17g}\n"
            f"cut_angle_rad = {result.cut_angle:.17g}\n"
            f"cavity_length_m = {result.cavity_length:.17g}\n"
            f"r2_magnitude = {result.r2_magnitude:.17g}\n"
            f"finesse = {result.finesse:.17g}\n"
            f"sigma_max_rad_s = {result.sigma_max:.17g}\n"
            f"check_marginal_fwhm_rad_s = {check[0]:.17g}\n"
            f"check_marginal_center_rad_s = {check[1]:.17g}\n"
        ),
        _metadata(cfg),
    )
    return [report_path, kv_path]


def _cmd_airy(cfg, out_dir, fmt, threads):
    cavity = cfg.cavity()
    grid = cfg.grid()
    omega_s0, omega_i0 = cfg.band_centers()
    paths = []
    modes = ["signal", "idler"]
    if cavity.loop_reflectivity("pump") > 0:
        modes.append("pump")
    for mode in modes:
        axis = grid.omega_s_axis if mode == "signal" else grid.omega_i_axis
        if mode == "pump":
            axis = grid.omega_s_axis + omega_i0
        values = airy(axis, mode, cavity)
        meta = _metadata(cfg, {"mode": mode})
        center = omega_s0 if mode != "idler" else omega_i0
        if mode != "pump" and cavity.loop_reflectivity(mode) > 0:
            meta["mode_width_rad_s"] = f"{mode_width(cavity, center, mode):.17g}"
            meta["free_spectral_range_rad_s"] = f"{free_spectral_range(cavity, center):.17g}"
        path = out_dir / f"airy_{mode}.dat"
        write_columns(path, (axis, values), ("omega_rad_s", "airy"), meta)
        paths.append(path)
    return paths


_HANDLERS = {
    "jsi-sr": _cmd_jsi,
    "jsi-dr": _cmd_jsi,
    "marginal": partial(_cmd_jsi, marginal=True),
    "temporal": _cmd_temporal,
    "brightness-sweep": _cmd_brightness_sweep,
    "design": _cmd_design,
    "airy": _cmd_airy,
}


def _attribute_module(exc):
    """Name the physics module an error originated from, for the error line."""
    best = "cavityspdc"
    for frame in traceback.extract_tb(exc.__traceback__):
        name = Path(frame.filename).stem
        if name in (
            "dispersion", "cavity", "spectral", "doubly_resonant",
            "temporal", "brightness", "design", "config", "gridfile",
        ):
            best = name
    return best


def _write_manifest(out_dir, cfg, paths):
    manifest = out_dir / "manifest"
    digest = config_hash(cfg.normalized_text())
    lines = [f"# generator = cavityspdc {__version__}"]
    for path in paths:
        lines.append(f"{path.name}\t{digest}")
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def _available_cpus():
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _thread_count(text):
    threads = int(text)
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {threads}")
    return threads


def _parser():
    parser = argparse.ArgumentParser(
        prog="cavityspdc",
        description="Cavity-enhanced SPDC spectra, temporal correlations, brightness and design",
    )
    parser.add_argument("subcommand", choices=_SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--format", choices=("text", "binary"), default=None)
    parser.add_argument(
        "--threads", type=_thread_count, default=_available_cpus(), metavar="N",
        help="worker threads for jsi-sr, jsi-dr, marginal, temporal and brightness-sweep; "
             "the output does not depend on it (default: the available CPUs, %(default)s here)",
    )
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config, require=_REQUIRED_SECTIONS[args.subcommand])
        out_dir = Path(args.out or cfg.get("output", "directory"))
        out_dir.mkdir(parents=True, exist_ok=True)
        fmt = args.format or cfg.get("output", "format")
        sys.stdout.write(f"# normalized configuration\n{cfg.normalized_text()}")
        paths = _HANDLERS[args.subcommand](cfg, out_dir, fmt, args.threads)
        manifest = _write_manifest(out_dir, cfg, paths)
        for path in paths + [manifest]:
            sys.stdout.write(f"wrote {path}\n")
        return 0
    except CavitySpdcError as exc:
        sys.stderr.write(f"error: module={_attribute_module(exc)}: {exc}\n")
        return 2
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: module=cli: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
