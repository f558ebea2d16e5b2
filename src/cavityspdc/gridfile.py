"""Grid, column and table serialization with reproducibility metadata.

Every artifact starts with '#'-prefixed header lines (key = value), closed by
a literal '#end' line, and its body states each number once.  A grid body is
the row-major matrix values[i, s], one idler row per line of omega_s_count
numbers at 17 significant digits (text), or a little-endian block of two
int64 dimensions (n_i, n_s) followed by the float64 matrix (binary).  The
axes live only in the header: they are rebuilt from their min/max/count via
linspace, so binary files written from linspace-built grids round-trip
bitwise, and a body of any other shape than the header's counts is refused.

write_grid has one body for a whole grid and for a stream of row blocks
(spectral.GridStream, the CLI's JSI): it writes the header, then each block
as it comes, so a stream's grid is never held whole.  A SpectralGrid is the
one-block case.  Both formats write each row on its own, so the bytes do
not depend on where the blocks begin or end.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .errors import ConfigError
from .spectral import GridStream, SpectralGrid, check_uniform_axis

__all__ = ["write_grid", "read_grid", "write_columns", "write_text", "config_hash"]

_END = "#end"


def config_hash(normalized_text):
    """sha256 of the normalized configuration text."""
    return hashlib.sha256(normalized_text.encode()).hexdigest()


def _header(metadata):
    """'# key = value' lines closed by '#end'."""
    return "".join(f"# {key} = {value}\n" for key, value in metadata.items()) + _END + "\n"


def _write_rows(fh, rows):
    """One line per row of a 2-D float array, each number at %.17g."""
    # row by row: converting the whole matrix at once holds every float object;
    # one % format per row gives the bytes of per-number f"{value:.17g}"
    line = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    for row in rows:
        fh.write(line % tuple(row.tolist()))


def _real(block):
    if np.iscomplexobj(block):
        raise ValueError("grid files hold real values; write intensities, not amplitudes")
    return block


def write_grid(grid, path, fmt="binary", metadata=None):
    """Write one real-valued grid with header metadata; fmt is 'text' or 'binary'.

    grid is a SpectralGrid or a GridStream, whose row blocks are written as
    they come.  A complex block raises ValueError; the file is opened once
    the first block is in hand, so a grid refused there leaves no file.
    """
    if fmt not in ("text", "binary"):
        raise ValueError(f"unknown grid format {fmt!r}")
    rows = map(_real, grid.blocks if isinstance(grid, GridStream) else (grid.values,))
    block = next(rows)
    shape = (grid.omega_i_axis.size, grid.omega_s_axis.size)
    header = _header({
        "format": fmt,
        "omega_s_min_rad_s": f"{grid.omega_s_axis[0]:.17g}",
        "omega_s_max_rad_s": f"{grid.omega_s_axis[-1]:.17g}",
        "omega_s_count": shape[1],
        "omega_i_min_rad_s": f"{grid.omega_i_axis[0]:.17g}",
        "omega_i_max_rad_s": f"{grid.omega_i_axis[-1]:.17g}",
        "omega_i_count": shape[0],
        "units": "rad/s, dimensionless intensity",
        **(metadata or {}),
    })
    binary = fmt == "binary"
    with open(path, "wb" if binary else "w") as fh:
        if binary:
            fh.write(header.encode())
            fh.write(np.array(shape, dtype="<i8"))
        else:
            fh.write(header)
        while block is not None:
            if binary:
                fh.write(np.ascontiguousarray(block, dtype="<f8"))
            else:
                _write_rows(fh, block)
            del block  # not kept while the next block is computed
            block = next(rows, None)


def _read_header(fh):
    meta = {}
    while True:
        line = fh.readline()
        if not line:
            raise ConfigError("grid file ended inside the header")
        text = line.decode().rstrip("\n")
        if text == _END:
            return meta
        if not text.startswith("#"):
            raise ConfigError(f"malformed grid header line: {text!r}")
        key, _, value = text[1:].partition("=")
        meta[key.strip()] = value.strip()


def _header_number(meta, key, kind):
    """meta[key] read as a finite kind (int or float), else a ConfigError naming the key."""
    try:
        value = kind(meta[key])
        if np.isfinite(value):
            return value
    except (KeyError, ValueError):
        pass
    raise ConfigError(f"grid header needs a finite {kind.__name__} {key}, got {meta.get(key)!r}")


def _header_count(meta, key):
    """meta[key] read as a sample count of at least 2, else a ConfigError naming the key."""
    count = _header_number(meta, key, int)
    if count < 2:
        raise ConfigError(f"grid header needs {key} >= 2, got {count}")
    return count


def read_grid(path):
    """Read a grid file of either format; returns (SpectralGrid, metadata).

    A header that gives no valid axis (a count below 2, bounds not
    increasing) raises ConfigError naming its keys, as a missing or
    non-numeric header value and a body of the wrong shape do.
    """
    with open(path, "rb") as fh:
        meta = _read_header(fh)
        # the header's counts are the body's shape; any other shape is refused
        shape = tuple(_header_count(meta, f"omega_{x}_count") for x in "is")
        fmt = meta.get("format", "binary")

        def mismatch(body):
            return ConfigError(f"{fmt} grid body holds {body}; the header gives "
                               f"{shape[0]} x {shape[1]}")

        if fmt == "text":
            try:
                # loadtxt warns on an empty body; the shape check reports it instead
                values = np.loadtxt(fh, ndmin=2) if fh.peek(1) else np.empty((0, 0))
            except ValueError as exc:
                raise mismatch(f"ragged rows ({str(exc).partition(';')[0]})") from exc
            if values.shape != shape:
                raise mismatch(f"{values.shape[0]} x {values.shape[1]}")
        elif fmt == "binary":
            dims = np.zeros(2, dtype="<i8")
            fh.readinto(dims)
            if tuple(dims) != shape:
                raise mismatch(f"dimensions {dims[0]} x {dims[1]}")
            values = np.empty(shape, dtype="<f8")
            body_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
            if body_bytes != values.nbytes:
                raise mismatch(f"{body_bytes} bytes of float64")
            fh.readinto(values)
        else:
            raise ConfigError(f"unknown grid format {fmt!r} in header")

    def axis(x, n):
        keys = [f"omega_{x}_{end}_rad_s" for end in ("min", "max")]
        lo, hi = (_header_number(meta, key, float) for key in keys)
        try:
            return check_uniform_axis(np.linspace(lo, hi, n), f"omega_{x}_axis")
        except ValueError as exc:
            raise ConfigError(f"grid header {keys[0]} = {lo!r} and {keys[1]} = {hi!r} "
                              f"give no axis of {n} samples: {exc}") from exc

    return SpectralGrid(axis("s", shape[1]), axis("i", shape[0]), values), meta


def write_columns(path, columns, names, metadata=None):
    """Text file of equal-length columns, one sample per line, under a '#' header."""
    with open(path, "w") as fh:
        fh.write(_header({**(metadata or {}), "columns": " ".join(names)}))
        _write_rows(fh, np.column_stack([np.asarray(col, dtype=float) for col in columns]))


def write_text(path, text, metadata=None):
    """Plain text artifact (report, table or list) under a '#' header."""
    with open(path, "w") as fh:
        fh.write(_header(metadata or {}))
        fh.write(text)
