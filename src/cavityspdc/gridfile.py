"""Grid, column and table serialization with reproducibility metadata.

A grid file starts with '#'-prefixed header lines (key = value), closed by a
literal '#end' line.  The body is either text rows 'omega_i omega_s value'
with 17 significant digits, or a little-endian binary block of two int64
dimensions (n_i, n_s) followed by the row-major float64 matrix.  Axes are
reconstructed from their header min/max/count via linspace, so binary files
written from linspace-built grids round-trip bitwise.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import ConfigError
from .spectral import SpectralGrid

__all__ = ["write_grid", "read_grid", "write_columns", "write_text", "config_hash"]

_END = "#end"


def config_hash(normalized_text):
    """sha256 of the normalized configuration text."""
    return hashlib.sha256(normalized_text.encode()).hexdigest()


def _header_lines(grid, metadata, fmt):
    lines = []
    items = {
        "format": fmt,
        "omega_s_min_rad_s": f"{grid.omega_s_axis[0]:.17g}",
        "omega_s_max_rad_s": f"{grid.omega_s_axis[-1]:.17g}",
        "omega_s_count": str(grid.omega_s_axis.size),
        "omega_i_min_rad_s": f"{grid.omega_i_axis[0]:.17g}",
        "omega_i_max_rad_s": f"{grid.omega_i_axis[-1]:.17g}",
        "omega_i_count": str(grid.omega_i_axis.size),
        "units": "rad/s, dimensionless intensity",
    }
    items.update(metadata or {})
    for key, value in items.items():
        lines.append(f"# {key} = {value}")
    lines.append(_END)
    return lines


def write_grid(grid, path, fmt="binary", metadata=None):
    """Write one real-valued grid with header metadata; fmt is 'text' or 'binary'."""
    if np.iscomplexobj(grid.values):
        raise ValueError("grid files hold real values; write intensities, not amplitudes")
    if fmt not in ("text", "binary"):
        raise ValueError(f"unknown grid format {fmt!r}")
    header = "\n".join(_header_lines(grid, metadata, fmt)) + "\n"
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(header.encode())
            fh.write(struct.pack("<qq", grid.omega_i_axis.size, grid.omega_s_axis.size))
            fh.write(np.ascontiguousarray(grid.values, dtype="<f8").tobytes())
    else:
        # each omega_s is formatted once; each row is converted and written at once
        s_fields = [f" {omega_s:.17g} " for omega_s in grid.omega_s_axis.tolist()]
        with open(path, "w") as fh:
            fh.write(header)
            for omega_i, row in zip(grid.omega_i_axis.tolist(), grid.values):
                prefix = f"{omega_i:.17g}"
                fh.write("".join(
                    f"{prefix}{s_field}{value:.17g}\n"
                    for s_field, value in zip(s_fields, row.tolist())
                ))


def _read_header(fh):
    meta = {}
    while True:
        line = fh.readline()
        if not line:
            raise ConfigError("grid file ended inside the header")
        text = line.decode() if isinstance(line, bytes) else line
        text = text.rstrip("\n")
        if text == _END:
            return meta
        if not text.startswith("#"):
            raise ConfigError(f"malformed grid header line: {text!r}")
        key, _, value = text[1:].partition("=")
        meta[key.strip()] = value.strip()


def read_grid(path):
    """Read a grid file of either format; returns (SpectralGrid, metadata)."""
    with open(path, "rb") as fh:
        meta = _read_header(fh)
        fmt = meta.get("format", "binary")
        if fmt == "text":
            # the third column of the 'omega_i omega_s value' rows
            body = np.loadtxt(fh, usecols=2, ndmin=1)
        else:
            body = fh.read()
    s_axis = np.linspace(
        float(meta["omega_s_min_rad_s"]),
        float(meta["omega_s_max_rad_s"]),
        int(meta["omega_s_count"]),
    )
    i_axis = np.linspace(
        float(meta["omega_i_min_rad_s"]),
        float(meta["omega_i_max_rad_s"]),
        int(meta["omega_i_count"]),
    )
    if fmt == "text":
        if body.size != i_axis.size * s_axis.size:
            raise ConfigError(
                f"text body holds {body.size} values; the header gives "
                f"{i_axis.size} x {s_axis.size}"
            )
        values = body.reshape(i_axis.size, s_axis.size)
    elif fmt == "binary":
        n_i, n_s = struct.unpack_from("<qq", body, 0)
        if (n_i, n_s) != (i_axis.size, s_axis.size):
            raise ConfigError(
                f"binary dimensions ({n_i}, {n_s}) disagree with header "
                f"({i_axis.size}, {s_axis.size})"
            )
        values = np.frombuffer(body, dtype="<f8", offset=16, count=n_i * n_s)
        values = values.reshape(n_i, n_s).copy()
    else:
        raise ConfigError(f"unknown grid format {fmt!r} in header")
    return SpectralGrid(s_axis, i_axis, values), meta


def write_columns(path, columns, names, metadata=None):
    """Two-or-more-column text file (one sample per line) with a '#' header."""
    columns = [np.asarray(col, dtype=float) for col in columns]
    with open(path, "w") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key} = {value}\n")
        fh.write("# columns = " + " ".join(names) + "\n")
        fh.write(_END + "\n")
        for row in zip(*columns):
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def write_text(path, text, metadata=None):
    """Plain text artifact (report or table) with an optional '#' header."""
    with open(path, "w") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key} = {value}\n")
        fh.write(text)
