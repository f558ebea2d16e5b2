"""Time-domain analysis: rotated coordinates, joint temporal intensity, t_C.

Rotated frequency coordinates are omega_plus = omega_s + omega_i and
omega_minus = omega_s - omega_i.  Their temporal conjugates are chosen so
that t_plus is the mean exit time and t_minus the signal-minus-idler exit
time difference, i.e. the transform kernel is

    exp[-i (omega_plus t_plus + omega_minus t_minus / 2)].

With the normalization 1/(2 pi sqrt(2)) the discrete transform satisfies
Parseval exactly on the sample lattice:

    sum |f|^2 d omega_plus d omega_minus = sum |ft|^2 d t_plus d t_minus.

A Gaussian amplitude exp(-omega^2/sigma^2) on the omega_plus axis maps to a
Gaussian of width sigma_t = 2/sigma on the t_plus axis; on the t_minus axis
the emission-difference convention doubles that width.

rotated_lattice_axes is the one sizing rule of the lattice the transform
samples: its steps resolve the cavity mode width, finely enough for a
t_minus window of 20 round trips of the slower photon, and its spans cover
the filters and the pump.  The temporal subcommand and the tests call it.

The transform streams in two stages through one buffer of
size_plus * max(n_minus, ceil(size_minus / 2)) complex slots.  Stage one
runs inside the lattice fill: each block of omega_minus rows is evaluated,
transformed along omega_plus and scattered, transposed and fftshifted, into
the spectrum spec_t[q, m] at the buffer's tail, so the full amplitude is
never formed.  Stage two transforms contiguous rows of spec_t along
omega_minus and writes each row's scaled, fftshifted |ft|^2 into a float
view of the buffer's head as its block arrives.  Intensity row q overlaps
only spectrum rows <= q, and the blocks still in flight read rows above
the one being written, so no write lands on an unread row.  The intensity
is returned as a transposed view, bit for bit fftshift(|fft2|^2).
joint_temporal_intensity_from_cavity is the temporal subcommand's route;
joint_temporal_intensity feeds the same stages from the rows of a
RotatedGrid.

The blocked loops -- the fill's omega_minus rows, stage two's spectrum
rows and the marginal's t_minus rows -- cut their blocks by
_parallel.blocks, one sample budget a block (rows of size_plus samples in
the fill, size_minus in stage two), so none grows with the lattice, its
padding or the thread count; their threads argument (default 1, the
temporal subcommand's --threads) sets only how many blocks are in flight.
These are the package's only pooled loops that a subcommand runs; the
oracle jsa_singly_resonant_rotated fills its lattice on the caller's
thread.  The marginal's loop is
spectral._row_trapezoid, the one the spectral marginals run too.  Each
block writes a disjoint slice of one preallocated output, and every row or
column is computed alone whatever block holds it, so every result is bit
for bit the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import blocks, map_blocks, stream_blocks
from .cavity import group_round_trip_time, mode_width
from .errors import EmptyPeakSetError
from .spectral import Marginal, _check_lattice, _jsa_sr_pointwise, _row_trapezoid
from .spectral import check_uniform_axis as _check_uniform_axis

__all__ = [
    "RotatedGrid",
    "TemporalGrid",
    "PeakSet",
    "rotated_lattice_axes",
    "jsa_singly_resonant_rotated",
    "joint_temporal_intensity",
    "joint_temporal_intensity_from_cavity",
    "time_difference_marginal",
    "extract_peaks",
    "correlation_time",
]


@dataclass(frozen=True, eq=False)
class RotatedGrid:
    """Complex amplitude sampled on uniform (omega_plus, omega_minus) axes.

    values[m, p] belongs to (omega_minus_axis[m], omega_plus_axis[p]).
    """

    omega_plus_axis: np.ndarray
    omega_minus_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _check_lattice(self, "omega_plus_axis", "omega_minus_axis")

    @property
    def d_plus(self):
        return float(self.omega_plus_axis[1] - self.omega_plus_axis[0])

    @property
    def d_minus(self):
        return float(self.omega_minus_axis[1] - self.omega_minus_axis[0])


@dataclass(frozen=True, eq=False)
class TemporalGrid:
    """Joint temporal intensity on uniform (t_plus, t_minus) axes, values[m, p]."""

    t_plus_axis: np.ndarray
    t_minus_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        values = _check_lattice(self, "t_plus_axis", "t_minus_axis")
        # reductions allocate no values-sized temporary, unlike values < 0; NaN fails >= 0
        if np.iscomplexobj(values) or not (values.min() >= 0 and values.max() < np.inf):
            raise ValueError("temporal intensity must be real, finite and non-negative")


@dataclass(frozen=True, eq=False)
class PeakSet:
    """Refined peak positions (seconds, increasing) and their heights."""

    positions: np.ndarray
    heights: np.ndarray

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        heights = np.asarray(self.heights, dtype=float)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "heights", heights)
        if positions.ndim != 1 or positions.shape != heights.shape:
            raise ValueError("positions and heights must be matching 1-D arrays")
        if not (np.all(np.isfinite(positions)) and np.all(np.diff(positions) > 0)):
            raise ValueError("positions must be finite and strictly increasing")
        if not np.all((heights > 0) & (heights < np.inf)):
            raise ValueError("heights must be positive and finite")


def rotated_lattice_axes(cavity, pump, filters, omega_s0, omega_i0, per_width, minus_span,
                         plus_span):
    """omega_plus and omega_minus axes of the lattice the temporal transform samples.

    With w the narrower of the signal and idler mode widths at the band
    centers, omega_minus steps by w / per_width and omega_plus by
    w / max(per_width // 2, 2).  w is capped at 4 pi per_width / (20 tau_g),
    tau_g the longer of the group round trips at omega_s0 and omega_i0, so
    the t_minus window 4 pi / d omega_minus spans at least 20 round trips
    of the slower photon's comb.
    omega_minus spans +- minus_span FWHMs of the narrower filter around
    omega_s0 - omega_i0, omega_plus +- plus_span sigma around the pump
    center.  Every sizing argument is required, so the [temporal] defaults
    live in the configuration schema alone.
    """
    if filters is None:
        raise ValueError("the rotated lattice spans filter widths; it needs gaussian filters")
    minus_half = minus_span * min(filters[0].fwhm, filters[1].fwhm)
    plus_half = plus_span * pump.sigma
    round_trip = max(group_round_trip_time(cavity, omega_s0),
                     group_round_trip_time(cavity, omega_i0))
    width = min(mode_width(cavity, omega_s0, "signal"), mode_width(cavity, omega_i0, "idler"),
                4 * np.pi * per_width / (20 * round_trip))
    d_minus = width / per_width
    d_plus = width / max(per_width // 2, 2)
    n_minus = int(np.ceil(2 * minus_half / d_minus)) + 1
    n_plus = int(np.ceil(2 * plus_half / d_plus)) + 1
    center_minus = omega_s0 - omega_i0
    plus = np.linspace(pump.omega_p0 - plus_half, pump.omega_p0 + plus_half, n_plus)
    minus = np.linspace(center_minus - minus_half, center_minus + minus_half, n_minus)
    return plus, minus


def _sr_rows(cavity, pump, filters, plus, minus):
    """rows -> the singly-resonant amplitude on the omega_minus rows `rows` of the lattice."""

    def rows_of(rows):
        mm = minus[rows, None]
        return _jsa_sr_pointwise(cavity, pump, filters, (plus + mm) / 2.0, (plus - mm) / 2.0)

    return rows_of


def jsa_singly_resonant_rotated(cavity, pump, filters, omega_plus_axis, omega_minus_axis):
    """Singly-resonant joint amplitude evaluated directly on a rotated lattice.

    Sampling the rotated axes directly avoids any resampling of a
    (omega_s, omega_i) grid, which would blur high-finesse combs.  The
    lattice is filled on the caller's thread in blocks of omega_minus rows,
    so the temporaries of the pointwise evaluation stay about one block's.
    joint_temporal_intensity_from_cavity evaluates the same rows without
    keeping them; this full lattice, which no subcommand forms, is its oracle.
    """
    plus = _check_uniform_axis(omega_plus_axis, "omega_plus_axis")
    minus = _check_uniform_axis(omega_minus_axis, "omega_minus_axis")
    rows_of = _sr_rows(cavity, pump, filters, plus, minus)
    values = np.empty((minus.size, plus.size), dtype=complex)

    for rows in blocks(minus.size, plus.size):
        values[rows] = rows_of(rows)
    return RotatedGrid(plus, minus, values)


def joint_temporal_intensity_from_cavity(cavity, pump, filters, omega_plus_axis,
                                         omega_minus_axis, threads=1):
    """Joint temporal intensity of the singly-resonant amplitude on a rotated lattice.

    The same intensity as
    joint_temporal_intensity(jsa_singly_resonant_rotated(...)), bit for bit,
    at joint_temporal_intensity's default pads, but the amplitude is never
    formed: each block of omega_minus rows is evaluated and transformed
    along omega_plus, up to `threads` blocks at once, and only its
    stage-one spectrum is kept.  The temporal subcommand's route.
    """
    plus = _check_uniform_axis(omega_plus_axis, "omega_plus_axis")
    minus = _check_uniform_axis(omega_minus_axis, "omega_minus_axis")
    spectrum = _stage_one(_sr_rows(cavity, pump, filters, plus, minus), plus.size, minus.size,
                          None, None, threads)
    return _stage_two(spectrum, float(plus[1] - plus[0]), float(minus[1] - minus[0]), threads)


def joint_temporal_intensity(rot, pad_plus=None, pad_minus=None, threads=1):
    """Joint temporal intensity |ft(t_plus, t_minus)|^2 of a rotated amplitude.

    FFT sizes are padded to powers of two (at least 2048 per axis, or the
    pad_plus/pad_minus overrides).

    The result is bit for bit fftshift(|fft2|^2), transformed as the module
    docstring describes from blocks of rot.values' rows.  This function
    drops its reference to rot after stage one, so a caller that hands the
    amplitude over, joint_temporal_intensity(jsa_singly_resonant_rotated(...)),
    frees it before stage two; a caller that keeps rot gets the same result
    without that saving.  The values of the result are a transposed view.
    threads sets the blocks in flight in both stages.  No subcommand calls
    this function, but its pads are the one way to reach stage two's pooled
    writes at small, custom transform sizes, where the tests check them.
    """
    d_plus, d_minus = rot.d_plus, rot.d_minus
    n_minus, n_plus = rot.values.shape
    spectrum = _stage_one(rot.values.__getitem__, n_plus, n_minus, pad_plus, pad_minus, threads)
    del rot  # the last reference when the caller handed the amplitude over
    return _stage_two(spectrum, d_plus, d_minus, threads)


def _stage_one(rows_of, n_plus, n_minus, pad_plus, pad_minus, threads):
    """The fill and the transform along omega_plus: (buffer, spec_t, size_minus).

    rows_of(rows) returns the amplitude's omega_minus rows `rows`.  Each
    block of rows is transformed along omega_plus (n = size_plus) and
    scattered into spec_t[q, m], transposed and fftshifted along omega_plus.
    spec_t is the tail of one buffer of size_plus * max(n_minus,
    ceil(size_minus / 2)) complex slots, whose head _stage_two fills with
    the intensity.
    """

    def _pow2(n):
        return 1 << int(np.ceil(np.log2(n)))

    size_plus = pad_plus or max(2048, _pow2(n_plus))
    size_minus = pad_minus or max(2048, _pow2(n_minus))
    if size_plus < n_plus or size_minus < n_minus:
        raise ValueError("padded size smaller than the input grid")

    buffer = np.empty(size_plus * max(n_minus, -(-size_minus // 2)), dtype=complex)
    spec_t = buffer[buffer.size - size_plus * n_minus:].reshape(size_plus, n_minus)
    # fftshift moves index k to (k + size // 2) % size: k < wrap lands at k + shift.
    shift = size_plus // 2
    wrap = size_plus - shift

    def fill(rows):
        spectrum = np.fft.fft(rows_of(rows), n=size_plus, axis=1)
        spec_t[shift:, rows] = spectrum[:, :wrap].T
        spec_t[:shift, rows] = spectrum[:, wrap:].T

    map_blocks(threads, fill, blocks(n_minus, size_plus))
    return buffer, spec_t, size_minus


def _stage_two(spectrum, d_plus, d_minus, threads):
    """The transform along omega_minus, in place: the TemporalGrid of the intensity.

    Contiguous rows of spec_t are transformed (n = size_minus), and each
    row's scaled, fftshifted |.|^2 goes to the same row of inten_t, a float
    view of the buffer's head, as each block arrives from stream_blocks.
    Intensity row q overlaps only spectrum rows <= q.  When a block is
    written, every block before it has been read, and the blocks still in
    flight read rows above it: no write lands on an unread row.
    """
    buffer, spec_t, size_minus = spectrum
    size_plus = spec_t.shape[0]
    inten_t = buffer.view(float)[:size_plus * size_minus].reshape(size_plus, size_minus)
    scale = d_plus * d_minus / (2 * np.pi * np.sqrt(2.0))
    shift = size_minus // 2
    wrap = size_minus - shift

    def transform(rows):
        block = np.fft.fft(spec_t[rows], n=size_minus, axis=1)
        block *= scale
        power = np.abs(block)
        del block
        power *= power
        return power

    row_blocks = blocks(size_plus, size_minus)
    for rows, power in zip(row_blocks, stream_blocks(threads, transform, row_blocks)):
        inten_t[rows, shift:] = power[:, :wrap]
        inten_t[rows, :shift] = power[:, wrap:]
    # Sample spacings of the conjugate axes; the factor 2 maps the raw
    # minus-conjugate onto the emission-time difference t_s - t_i.
    u_plus = np.fft.fftshift(np.fft.fftfreq(size_plus, d=d_plus / (2 * np.pi)))
    u_minus = np.fft.fftshift(np.fft.fftfreq(size_minus, d=d_minus / (2 * np.pi)))
    return TemporalGrid(u_plus, 2.0 * u_minus, inten_t.T)


def time_difference_marginal(tgrid, threads=1):
    """Distribution of emission-time differences S_minus(t_minus) = integral dt_plus |ft|^2.

    spectral._row_trapezoid integrates it in blocks of t_minus rows, up to
    `threads` at once, each gathered C-contiguous first, so each row's sum
    is the unblocked, contiguous one whatever the layout of tgrid.values
    (the transform returns a transposed view).
    """
    return Marginal(tgrid.t_minus_axis, _row_trapezoid(tgrid.values, tgrid.t_plus_axis, threads))


def extract_peaks(axis, values, min_prominence=1e-4):
    """Local maxima of a sampled density at or above min_prominence * global max.

    A sample is a maximum when it exceeds both neighbours, so the end samples
    never are.  Positions are refined by three-point parabolic interpolation
    on the uniform axis (ValueError unless it matches the values) around
    each maximum.  Raises EmptyPeakSetError when nothing qualifies.
    """
    axis = _check_uniform_axis(axis, "peak axis")
    values = np.asarray(values, dtype=float)
    if values.shape != axis.shape:
        raise ValueError(f"density shape {values.shape} does not match the axis {axis.shape}")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError("density must be finite and non-negative")
    threshold = min_prominence * values.max()
    inner = values[1:-1]
    idx = np.flatnonzero((inner > values[:-2]) & (inner > values[2:]) & (inner >= threshold)) + 1
    if idx.size == 0:
        raise EmptyPeakSetError(
            f"no peaks above {min_prominence:g} of the global maximum"
        )
    d = axis[1] - axis[0]
    positions = np.empty(idx.size)
    heights = np.empty(idx.size)
    for out_k, k in enumerate(idx):
        y0, y1, y2 = values[k - 1], values[k], values[k + 1]
        denom = y0 - 2 * y1 + y2
        shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
        shift = float(np.clip(shift, -0.5, 0.5))
        positions[out_k] = axis[k] + shift * d
        heights[out_k] = y1 - 0.25 * (y0 - y2) * shift
    return PeakSet(positions, heights)


def correlation_time(peaks):
    """Height-weighted standard deviation of the peak positions.

    t_C = sqrt(sum h_k (tau_k - mean)^2 / sum h_k) with mean the
    height-weighted average of the positions.  Raises EmptyPeakSetError for
    fewer than 2 peaks, like extract_peaks for none.
    """
    if peaks.positions.size < 2:
        raise EmptyPeakSetError(
            f"correlation time requires at least 2 peaks, got {peaks.positions.size}"
        )
    w = peaks.heights
    tau = peaks.positions
    mean = np.sum(w * tau) / np.sum(w)
    var = np.sum(w * (tau - mean) ** 2) / np.sum(w)
    return float(np.sqrt(var))
