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

Text bodies (grids and write_columns) hold, byte for byte, Python's "%.17g"
of each number.  A numpy kernel writes them a block of rows at a time,
_parallel.blocks' sample budget of them, so its working set is one block's
whatever the grid.  It scales each number to 17 digits in double-double
arithmetic (a fast path that knows when it is exact, after Loitsch's
Grisu3), lays each out in a fixed 45-byte record, and one np.compress keeps
the bytes of its "%.17g".  A row holding a number the kernel cannot prove
exact (not finite, subnormal, beyond 1e-280..1e280, or a hair from a
rounding tie) is formatted by Python's own "%" instead and spliced in.
"""

from __future__ import annotations

import functools
import hashlib
import os

import numpy as np

from ._parallel import blocks
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


# The text kernel gives each number one 45-byte record: "-0.000", the 17
# digits with a point slot after each but the last, "e+ddd" and a separator.
# A keep-mask per layout picks out the bytes of its "%.17g".
_RECORD = np.dtype({
    "names": ["head", "d1", "d5", "d9", "d13", "exp", "sep"],
    "formats": ["<u8", "<u8", "<u8", "<u8", "<u8", "<u4", "u1"],
    "offsets": [0, 8, 16, 24, 32, 40, 44],
})  # head: "-0.000" + the first digit + "."; dK: digits K to K + 3, each with a point slot
# decimal exponents E the kernel scales by: those of [1e-280, 1e280], and one step past
_E_MIN, _E_MAX = -282, 282
# 10**(16 - E) as hi + lo, each entry built on the first use of its E; nan
# marks an entry not yet built
_POW10 = np.full((2, _E_MAX - _E_MIN + 1), np.nan)


def _pow10(exponents):
    """(hi, lo) with hi + lo = 10**(16 - E) to about 2**-106, for each E of exponents."""
    index = exponents - _E_MIN
    hi = _POW10[0].take(index)
    missing = np.isnan(hi)
    if missing.any():
        for e in set(exponents[missing].tolist()):
            k = 16 - e
            num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
            head = num / den  # int true division rounds correctly
            head_num, head_den = head.as_integer_ratio()
            _POW10[:, e - _E_MIN] = head, (num * head_den - head_num * den) / (den * head_den)
        hi = _POW10[0].take(index)
    return hi, _POW10[1].take(index)


def _split(a):
    """Dekker's split of a into a 26-bit head and its exact remainder."""
    t = a * 134217729.0  # 2**27 + 1
    head = t - (t - a)
    return head, a - head


def _scaled(ax, exponents):
    """(n, frac): the floor and fraction of S = ax * 10**(16 - E), S as a double-double.

    Dekker's two-product of ax with hi is exact: with ax in [1e-280, 1e280]
    and S below 1e18 no product overflows or leaves the normal range.  For
    S in [10**16, 10**17) three errors remain, each below 2**-49: lo's own
    rounding, times ax; the rounding of ax * lo; and that of the tail's
    last sum, which stays below 32.  So n + frac is within 6e-15 of S.
    """
    hi, lo = _pow10(exponents)
    p = ax * hi
    a1, a2 = _split(ax)
    b1, b2 = _split(hi)
    tail = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2 + ax * lo
    whole = np.floor(tail)
    return p.astype(np.int64) + whole.astype(np.int64), tail - whole


@functools.cache
def _tables():
    """The kernel's lookup tables, built on first use.

    Returns the record's head by first digit, "d.d.d.d." and "d.d.d.de" by
    4-digit chunk, "±ddd" by exponent (each the little-endian word of those
    bytes), the trailing zeros of each chunk, and the keep-masks by code.
    A mask's code is layout * 17 + last: last indexes the last nonzero
    digit, and layout is X + 4 for fixed notation (-4 <= X < 17), 21 for
    scientific with a two-digit exponent, 22 with a three-digit one and 23
    for zero.  The sign is kept apart from the masks.
    """
    def word(text):
        return int.from_bytes(text.encode(), "little")

    # chunk 1000 a + 100 b + 10 c + d sits at [a, b, c, d]; its digit j is byte 2 j
    digit = np.arange(10, dtype=np.uint64)
    spaced = (digit[:, None, None, None] | digit[:, None, None] << 16 | digit[:, None] << 32
              | digit << 48).ravel()
    zero = digit == 0  # d is a trailing zero, then c while d is, and so on
    zeros = zero * (1 + zero[:, None] * (1 + zero[:, None, None] * (1 + zero[:, None, None, None])))
    exponent = np.arange(_E_MIN, _E_MAX + 1)
    places = np.abs(exponent)[:, None] // [100, 10, 1] % 10
    exps = np.where(exponent < 0, word("-000"), word("+000")) + (places << [8, 16, 24]).sum(axis=1)

    keep = np.zeros((24, 17, _RECORD.itemsize), dtype=bool)
    slots = last = np.arange(17)
    x = np.arange(-4, 17)[:, None, None]
    keep[:21, :, 6:39:2] = slots <= np.maximum(last[:, None], x)
    keep[:21, :, 7:39:2] = (slots[:16] == x) & (last[:, None] > x)
    keep[:21, :, 1:6] = (np.arange(1, 6) <= 1 - x) & (x < 0)  # "0." and -x - 1 zeros
    keep[21:23, :, 6:39:2] = slots <= last[:, None]
    keep[21:23, :, 7] = last > 0
    keep[21:23, :, [39, 40, 42, 43]] = True
    keep[22, :, 41] = True
    keep[23, :, 1] = True  # "0"
    keep[..., 44] = True  # the separator
    return (np.array([word(f"-0.000{k}.") for k in range(10)], dtype=np.uint64),
            spaced + np.uint64(word("0.0.0.0.")), spaced + np.uint64(word("0.0.0.0e")),
            exps.astype(np.uint32),
            zeros.ravel(), keep.reshape(24 * 17, -1))


def _row_17g(row):
    """One row at per-number "%.17g", as Python formats it: the exact fallback."""
    return ((" ".join(["%.17g"] * row.size) + "\n") % tuple(row.tolist())).encode()


def _decimal(x):
    """(n, E, exact) for a 1-D float64 array: |x| = n * 10**(E - 16) to 17 digits.

    n, in [10**16, 10**17), is |x|'s scaled value S (see _scaled) rounded to
    nearest.  exact is False where that is not proven "%.17g"'s rounding:
    x is not finite, lies outside [1e-280, 1e280] and is not 0, or frac(S)
    is within 1e-9 of 1/2: S's error, below 1e-14, cannot settle the
    rounding there, and an exact tie rounds to even.  A zero gives n = 10**16
    and E = 0.
    """
    ax = np.abs(x)
    ok = (ax >= 1e-280) & (ax <= 1e280)
    exact = ok | (ax == 0)
    ax[~ok] = 1.0
    exponents = np.log10(ax)
    np.floor(exponents, out=exponents)
    exponents = exponents.astype(np.int64)
    n, frac = _scaled(ax, exponents)
    # log10 misses by one next to a power of ten: scale those again
    off = np.flatnonzero((n < 10**16) | (n >= 10**17))
    if off.size:
        exponents[off] += np.where(n[off] < 10**16, -1, 1)
        n[off], frac[off] = _scaled(ax[off], exponents[off])
        exact[off[(n[off] < 10**16) | (n[off] >= 10**17)]] = False
    frac -= 0.5  # the distance past the halfway point
    n += frac > 0
    exact &= np.abs(frac) > 1e-9
    carry = n == 10**17  # from 99999999999999999.5 up
    n[carry] = 10**16
    exponents += carry
    return n, exponents, exact


def _records(block):
    """(records, keep, rows left out) of a 2-D block, as uint8 and bool (n_rows, 45 n_cols).

    np.compress(keep, records) is the block's "%.17g" text without the rows
    left out: those hold a number that _decimal cannot prove exact, and
    keep drops them whole, for _row_17g to write.
    """
    n_rows, n_cols = block.shape
    x = np.asarray(block, dtype=float).ravel()
    n, exponents, exact = _decimal(x)
    heads, chunks, last_chunks, exps, zeros, masks = _tables()
    rec = np.empty(x.size, dtype=_RECORD)
    upper = n // 10**8
    lower = n - upper * 10**8
    del n
    lead = upper // 10**8
    upper -= lead * 10**8
    rec["head"] = heads.take(lead)
    del lead
    digits = [upper // 10**4, None, lower // 10**4, None]
    digits[1] = upper - digits[0] * 10**4
    digits[3] = lower - digits[2] * 10**4
    del upper, lower
    for name, table, chunk in zip(("d1", "d5", "d9", "d13"), (chunks, chunks, chunks, last_chunks),
                                  digits):
        rec[name] = table.take(chunk)
    rec["exp"] = exps.take(exponents - _E_MIN)
    rec["sep"] = ord(" ")
    rec.reshape(n_rows, n_cols)[:, -1]["sep"] = ord("\n")
    # the last nonzero digit of each number
    code = zeros.take(digits[3])
    for chunk, full in zip(digits[2::-1], (4, 8, 12)):
        code += (code == full) * zeros.take(chunk)
    del digits
    np.subtract(16, code, out=code)
    # its layout: X + 4 fixed, 21 or 22 scientific by exponent digits, 23 zero
    layout = exponents + 4
    sci = (exponents < -4) | (exponents >= 17)
    layout[sci] = np.where(np.abs(exponents[sci]) < 100, 21, 22)
    layout[x == 0] = 23
    code += layout * 17
    del layout, sci, exponents
    keep = masks.take(code, axis=0)
    keep[:, 0] = np.signbit(x)
    keep = keep.reshape(n_rows, -1)
    left_out = np.flatnonzero(~exact.reshape(n_rows, n_cols).all(axis=1))
    keep[left_out] = False
    return rec.view(np.uint8).reshape(n_rows, -1), keep, left_out


def _write_rows(fh, rows):
    """One line per row of a 2-D float array: each number's "%.17g", space-separated.

    The bytes are exactly those of Python's "%.17g" per number.  _records
    lays out a block of rows at a time, _parallel's sample budget of them,
    and one np.compress turns it into text; a row it cannot prove exact
    goes through _row_17g and is spliced in.
    """
    for part in blocks(*rows.shape):
        rec, keep, left_out = _records(rows[part])
        ends = np.cumsum(keep.sum(axis=1)) if left_out.size else None
        text = np.compress(keep.ravel(), rec.ravel())
        del rec, keep
        start = 0
        for r in left_out.tolist():
            fh.write(text[start:ends[r]])
            fh.write(_row_17g(rows[part.start + r]))
            start = ends[r]
        fh.write(text[start:])
        del text


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
    with open(path, "wb") as fh:
        fh.write(header.encode())
        if binary:
            fh.write(np.array(shape, dtype="<i8"))
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
    with open(path, "wb") as fh:
        fh.write(_header({**(metadata or {}), "columns": " ".join(names)}).encode())
        _write_rows(fh, np.column_stack([np.asarray(col, dtype=float) for col in columns]))


def write_text(path, text, metadata=None):
    """Plain text artifact (report, table or list) under a '#' header."""
    with open(path, "w") as fh:
        fh.write(_header(metadata or {}))
        fh.write(text)
