"""Command-line interface: reproducible figure-style runs from config files.

    cavityspdc <subcommand> --config <path> [--out <dir>] [--format text|binary]
               [--threads N]

Subcommands: jsi-sr, jsi-dr, marginal, temporal, brightness-sweep, design,
airy.  jsi-sr and jsi-dr both write the cavity's JSI, jsi_dr.grid when it
reflects the pump and jsi_sr.grid otherwise; temporal refuses such a cavity.
--threads N (default: the CPUs this process may run on) spreads the
blocked work of temporal over N threads without changing a bit of its
output; the other subcommands run on one thread whatever N.  jsi-sr,
jsi-dr and marginal stream the grid: the kernel's row blocks pass, in row
order, through the marginal (marginal only) into gridfile.write_grid, the
one grid writer, so no N^2 array is held and the bytes are those of the
whole grid.  Each artifact opens with one
'# key = value' header closed by '#end' (package version, sha256 of the
normalized configuration); the manifest holds that header, then the run's
artifact names one a line.
Identical configuration and version give bitwise-identical binary outputs.
Errors exit nonzero with one machine-parsable stderr line, error:
module=<module>: <message>: a package error exits 2 naming the module that
raised it, cli included, and an OSError or ValueError exits 3 as module=cli.
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
from ._parallel import pin_allocator
from .cavity import airy, free_spectral_range, group_round_trip_time, mode_width
from .config import load_config
from .design import design_source, report_design, spectral_check
from .errors import CavitySpdcError, ConfigError
from .gridfile import config_hash, write_columns, write_grid, write_text
from .spectral import _MarginalSum, _jsi_stream, _median, _warn_if_under_resolved
from .temporal import (
    correlation_time,
    extract_peaks,
    joint_temporal_intensity_from_cavity,
    rotated_lattice_axes,
    time_difference_marginal,
)

def _metadata(cfg, extra=None):
    meta = {
        "generator": f"cavityspdc {__version__}",
        "config_sha256": config_hash(cfg.normalized_text()),
    }
    meta.update(extra or {})
    return meta


def _cmd_jsi(cfg, out_dir, fmt, threads, marginal=False):
    """The cavity's JSI grid, plus its marginal for the marginal subcommand.

    The kernel's row blocks stream through the marginal, when there is one,
    into the grid writer, so the grid is never held whole.
    """
    cavity = cfg.cavity()
    grid = cfg.grid()
    # the same intensity either way; the names keep warnings and files apart
    where, name = (("jsi_doubly_resonant", "jsi_dr") if cavity.reflects_pump
                   else ("jsi_singly_resonant", "jsi_sr"))
    _warn_if_under_resolved(cavity, grid, where)
    stream = _jsi_stream(cavity, cfg.pump(), cfg.filters(), grid)
    if marginal:
        axis = cfg.get("marginal", "axis")
        total = _MarginalSum(grid.omega_s_axis, grid.omega_i_axis, axis)
        stream = stream._replace(blocks=total.tap(stream.blocks))
    paths = [out_dir / f"{name}.grid"]
    write_grid(stream, paths[0], fmt, _metadata(cfg, {"quantity": name}))
    if marginal:
        marg = total.marginal()
        paths.append(out_dir / f"marginal_{axis}.dat")
        write_columns(
            paths[1],
            (marg.axis, marg.density),
            (f"omega_{axis}_rad_s", "density"),
            _metadata(cfg, {"quantity": f"marginal over the other axis, {axis} kept"}),
        )
    return paths


def _key_values(**values):
    """'key = value' lines, each number at %.17g."""
    return "".join(f"{key} = {value:.17g}\n" for key, value in values.items())


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
    tgrid = joint_temporal_intensity_from_cavity(cavity, pump, filters, plus, minus, threads)
    marg = time_difference_marginal(tgrid, threads=threads)
    peaks = extract_peaks(marg.axis, marg.density, cfg.get("temporal", "min_prominence"))
    t_c = correlation_time(peaks)
    spacing = _median(np.diff(peaks.positions))

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
    write_text(summary_path, _key_values(
        correlation_time_s=t_c,
        peak_spacing_s=spacing,
        round_trip_time_s=group_round_trip_time(cavity, omega_s0),
        peak_count=peaks.positions.size,
    ), _metadata(cfg))
    return [marg_path, peaks_path, summary_path]


def _cmd_brightness_sweep(cfg, out_dir, fmt, threads):
    cavity = cfg.cavity()
    filters = cfg.filters()
    factors = cfg.get("sweep", "factors")
    paths = []
    for kind in cfg.sweep_kinds():
        sweep, omega_p0, arguments = cfg.sweep(kind)
        table = sweep(cavity, omega_p0, filters, *arguments, factor_mode=factors)
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
    write_text(kv_path, _key_values(
        lambda_idler_m=result.lambda_idler,
        cut_angle_rad=result.cut_angle,
        cavity_length_m=result.cavity_length,
        r2_magnitude=result.r2_magnitude,
        finesse=result.finesse,
        sigma_max_rad_s=result.sigma_max,
        check_marginal_fwhm_rad_s=check[0],
        check_marginal_center_rad_s=check[1],
    ), _metadata(cfg))
    return [report_path, kv_path]


def _cmd_airy(cfg, out_dir, fmt, threads):
    cavity = cfg.cavity()
    grid = cfg.grid()
    omega_s0, omega_i0 = cfg.band_centers()
    # (mode, its center, its axis); the pump has a curve when a mirror reflects it
    curves = [("signal", omega_s0, grid.omega_s_axis), ("idler", omega_i0, grid.omega_i_axis)]
    if cavity.reflects_pump:
        curves.append(("pump", omega_s0 + omega_i0, grid.omega_s_axis + omega_i0))
    paths = []
    for mode, center, axis in curves:
        values = airy(axis, mode, cavity)
        meta = _metadata(cfg, {"mode": mode})
        width = mode_width(cavity, center, mode)
        if width < np.inf:
            meta["mode_width_rad_s"] = f"{width:.17g}"
            meta["free_spectral_range_rad_s"] = (
                f"{free_spectral_range(cavity, center, mode):.17g}")
        path = out_dir / f"airy_{mode}.dat"
        write_columns(path, (axis, values), ("omega_rad_s", "airy"), meta)
        paths.append(path)
    return paths


# subcommand -> (its handler, the configuration sections it requires)
_SUBCOMMANDS = {
    "jsi-sr": (_cmd_jsi, ("crystal", "cavity", "pump", "grid")),
    "jsi-dr": (_cmd_jsi, ("crystal", "cavity", "pump", "grid")),
    "marginal": (partial(_cmd_jsi, marginal=True), ("crystal", "cavity", "pump", "grid")),
    "temporal": (_cmd_temporal, ("crystal", "cavity", "pump", "filters", "grid")),
    "brightness-sweep": (
        _cmd_brightness_sweep, ("crystal", "cavity", "pump", "filters", "grid", "sweep")
    ),
    "design": (_cmd_design, ("design",)),
    "airy": (_cmd_airy, ("crystal", "cavity", "grid")),
}


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
        help="worker threads for temporal (other subcommands use one); the output does "
             "not depend on it (default: the available CPUs, %(default)s here)",
    )
    return parser


def main(argv=None):
    """Run one subcommand; returns its exit code (module docstring).

    The first call in a process pins glibc's allocator thresholds
    (_parallel.pin_allocator), so the blocked loops reuse their freed
    temporaries instead of faulting them in again after every block; on
    other C libraries the pin does nothing.  The outputs never depend on it.
    """
    args = _parser().parse_args(argv)
    pin_allocator()
    handler, sections = _SUBCOMMANDS[args.subcommand]
    try:
        cfg = load_config(args.config, require=sections)
        out_dir = Path(args.out or cfg.get("output", "directory"))
        out_dir.mkdir(parents=True, exist_ok=True)
        fmt = args.format or cfg.get("output", "format")
        sys.stdout.write(f"# normalized configuration\n{cfg.normalized_text()}")
        paths = handler(cfg, out_dir, fmt, args.threads)
        manifest = out_dir / "manifest"
        write_text(manifest, "".join(f"{path.name}\n" for path in paths), _metadata(cfg))
        for path in paths + [manifest]:
            sys.stdout.write(f"wrote {path}\n")
        return 0
    except CavitySpdcError as exc:
        # the innermost frame is the one that raised, in a pool thread too
        raising = traceback.extract_tb(exc.__traceback__)[-1]
        sys.stderr.write(f"error: module={Path(raising.filename).stem}: {exc}\n")
        return 2
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: module=cli: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
