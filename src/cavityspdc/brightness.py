"""Source brightness: pair-emission integral and the cavity parameter sweeps.

Brightness per pump pulse of energy U (up to an overall experimental
constant b):

    B = (b U / sigma) integral integral
        [k'(omega_s) omega_s / n^2(omega_s)] [k'(omega_i) omega_i / n^2(omega_i)]
        S(omega_i, omega_s) d omega_s d omega_i.

Every reported number is a ratio to the equivalent source without a cavity
driven by the same pump, in which b U cancels, so b U is set to one here.

The integral has one route, which brightness_from_cavity and every sweep
driver take: an adaptive stripe in rotated coordinates (omega_plus =
omega_s + omega_i bounded by the pump envelope, omega_minus = omega_s -
omega_i by the filters), so that narrow cavity modes stay resolved at any
reflectivity without gigantic rectangular grids, and a 1-D integral over
its columns (below).  The
"equivalent source without a cavity" reference opens mirror 2 for signal
and idler and both mirrors for the pump, with identical pump and filters;
the perfect mirror 1 of the cavity model then changes no factor.

The pump envelope |alpha|^2 and, for a resonant pump, its Airy weight A_p
depend on omega_plus alone, so they leave the lattice:

    B sigma = 0.5 integral |alpha|^2 A_p g d omega_plus,

with g(omega_plus) the stripe's column integrals over omega_minus of
D_s D_i S / (|alpha|^2 A_p).  g depends on neither the pump envelope nor
|r_1p| (P reads r_2p and the mirror phases only), and it varies no faster
than sigma and the photon modes allow, so the stripe never resolves the
pump mode: its tables keep their open-loop size however narrow the pump
resonance.  The 1-D integral evaluates |alpha|^2 A_p exactly on an axis
that resolves the pump mode width with _SAMPLES_PER_SCALE samples and is
never coarser than the columns, and reads g there by six-point Lagrange
interpolation between the columns.  On the columns' own axis, the one for
every cavity that does not reflect the pump, the interpolant returns the
columns bit for bit.  An r1p sweep builds one stripe per sigma, and its
reference and every row are 1-D integrals over the same g.

The stripe is a commensurate lattice.  With h the smaller of the two axis
step targets, omega_plus steps by q_plus h and omega_minus by q_minus h
(integers q >= 1), so the signal and idler frequencies of every sample lie
on two 1-D tables of q_plus (n_plus - 1) + q_minus (n_minus - 1) + 1 points
spaced h / 2.  The spectral module's intensity model evaluates the factors
once per table entry (exact rate factors ride on the photon weights; the
central_approx constant multiplies g once); each chunk of columns passes
gathered views of the tables to its kernel.

The stripe's memory is its factor tables plus a fixed working set.  The
frequency tables are never stored: the table builder evaluates them and
the photon factors in _parallel.blocks of entries, and each kernel call
takes a _parallel.blocks chunk of columns of `rows` evaluated minus rows:
one sample budget either way.  The sweeps run every chunk on the caller's
thread; brightness_from_cavity's threads sets only the chunks in flight.
Each column sums its minus rows pairwise from C-contiguous intensities,
one order for every stripe, so the result does not depend on the blocks.

A degenerate source (equal signal and idler filters and mirrors, the
stripe centred on omega_minus = 0) is exchange-symmetric: its idler table
is the signal table reversed, so the integrand is even in omega_minus and
the stripe is folded.  The kernel evaluates only the minus rows
b <= (n_minus - 1) // 2 and counts each mirrored row twice, which halves
the work and moves results only by rounding.  The same predicate decides
the idler table and the fold, so a sweep row and its reference fold alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._parallel import blocks, map_blocks
from .cavity import mode_width
from .dispersion import group_slowness, refractive_index
from . import spectral
from .spectral import PumpSpec, _factor_tables, _intensity, fwhm_to_sigma

__all__ = [
    "BrightnessResult",
    "SweepTable",
    "brightness_from_cavity",
    "brightness_vs_sigma_sweep",
    "plateau_brightness_vs_r2",
    "brightness_vs_r1p_sweep",
]

_SAMPLES_PER_SCALE = 8  # stripe samples across the finest structure of each axis


@dataclass(frozen=True)
class BrightnessResult:
    """Brightness B with b U = 1: the integral divided by sigma."""

    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("brightness must be non-negative")


class SweepTable(NamedTuple):
    """Plain tabular sweep output: column names first, one tuple per row."""

    columns: tuple
    rows: list

    def to_text(self):
        lines = ["\t".join(self.columns)]
        for row in self.rows:
            lines.append("\t".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
        return "\n".join(lines) + "\n"

    def column(self, name):
        k = self.columns.index(name)
        return np.array([row[k] for row in self.rows])


def _rate_factor(crystal, omega):
    """Brightness weight k'(omega) omega / n^2(omega) for an ordinary SPDC photon."""
    kp = group_slowness(crystal, omega, "ordinary")
    n = refractive_index(crystal, omega, "ordinary")
    return kp * omega / n**2


@dataclass(frozen=True)
class _Ramp:
    """The 1-D table center + step (j - (size - 1) / 2), j = 0 .. size - 1, never stored.

    table[index] evaluates the entries at a slice or an integer array of
    table indices, the values the stored table would hold there.
    """

    center: float
    step: float
    size: int

    def __getitem__(self, index):
        if isinstance(index, slice):
            index = np.arange(*index.indices(self.size))
        return self.center + self.step * (index - (self.size - 1) / 2.0)


class _Stripe(NamedTuple):
    """Commensurate rotated lattice whose photon frequencies fall on 1-D tables.

    plus[a] = plus[0] + a q_plus h and minus[b] = minus[0] + b q_minus h, so
    omega_s(a, b) = signal[q_plus a + q_minus b] and
    omega_i(a, b) = idler[q_plus (n_plus - 1 - a) + q_minus b].  Both
    tables are spaced h / 2, signal ascending and idler descending, so a
    column's samples lie at a fixed stride in either table.  That stride is
    negative when a degenerate source reads its idler factors as the signal
    table reversed.  The tables are _Ramps: the stripe keeps their rule,
    center +- (h / 2) (j - (N - 1) / 2), and the table builder evaluates
    them block by block, so no table-length frequency axis is stored.

    folded marks an exchange-symmetric source: the idler table is the signal
    table reversed, so sample (a, n_minus - 1 - b) reads the entries of
    (a, b) with signal and idler swapped and the kernel needs only the
    first `rows` minus rows, b <= (n_minus - 1) // 2.
    """

    plus: np.ndarray
    minus: np.ndarray
    q_plus: int
    q_minus: int
    h: float
    signal: _Ramp
    idler: _Ramp
    folded: bool

    @property
    def rows(self):
        """Minus rows the kernel evaluates: all n_minus, or ceil(n_minus / 2) when folded."""
        n_minus = self.minus.size
        return (n_minus + 1) // 2 if self.folded else n_minus

    def columns(self, tables):
        """Signal, idler and plus factor tables as views of shape (n_plus, rows).

        Entry [a, b] holds the factors of sample (a, b), b < rows:
        signal[q_plus a + q_minus b], idler[q_plus (n_plus - 1 - a) + q_minus b]
        and plus[a].  A kernel call slices its chunk of columns from them.
        """
        def gathered(table):
            windows = sliding_window_view(table, self.q_minus * (self.rows - 1) + 1)
            return windows[: self.q_plus * (self.plus.size - 1) + 1 : self.q_plus, :: self.q_minus]

        signal, idler, plus = tables
        return (signal.view(gathered), idler.view(lambda t: gathered(t)[::-1]),
                plus.view(lambda t: t[:, None]))


def _exchange_symmetric(cavity, filters, signal, idler):
    """Whether swapping signal and idler maps the source onto itself.

    True for equal signal and idler filters and mirrors and an idler table
    that is the signal table reversed: then the idler factors are the signal
    factors reversed, and the stripe, which reads the tables symmetrically,
    holds each sample twice.  Two _Ramps are each other's reverse, entry for
    entry, when their centers are equal, their steps opposite and their
    sizes equal: the offsets j - (N - 1) / 2 are exact, and an IEEE multiply
    is sign-symmetric.
    """
    f_s, f_i = filters
    same_mirrors = all(cavity.mirror(nu, "signal") == cavity.mirror(nu, "idler") for nu in (1, 2))
    reversed_tables = (signal.center == idler.center and signal.step == -idler.step
                       and signal.size == idler.size)
    return f_s == f_i and same_mirrors and reversed_tables


def _stripe_axes(cavity, pump, filters):
    """Commensurate stripe resolving the pump envelope, the filters and the photon modes.

    Each rotated axis gets a step target of 1/_SAMPLES_PER_SCALE of its
    finest structure, the min over its scales, in which the infinite width
    of a mode that does not resonate drops out; h is the smaller target and
    each axis steps by the largest multiple of h within its own target.
    The pump's own cavity mode is no scale of the stripe: its Airy weight
    depends on omega_plus alone and is applied on _plus_integral's axis, so
    the stripe, and its tables, are the same at every |r_1p|.
    """
    if filters is None:
        raise ValueError("sweep integration requires gaussian filters on both modes")
    f_s, f_i = filters
    center_plus = pump.omega_p0
    half_plus = 4.0 * pump.sigma

    # Finest structure along each rotated axis; a cavity mode of width dw
    # appears with width 2 dw along either rotated axis.
    photon_scale = 2.0 * min(mode_width(cavity, f_s.center, "signal"),
                             mode_width(cavity, f_i.center, "idler"))
    d_plus = min(pump.sigma / 2.0, photon_scale) / _SAMPLES_PER_SCALE
    d_minus = min(f_s.fwhm, f_i.fwhm, photon_scale) / _SAMPLES_PER_SCALE
    h = min(d_plus, d_minus)
    q_plus, q_minus = int(d_plus // h), int(d_minus // h)

    s_lo, s_hi = f_s.center - 3.3 * f_s.fwhm, f_s.center + 3.3 * f_s.fwhm
    i_lo, i_hi = f_i.center - 3.3 * f_i.fwhm, f_i.center + 3.3 * f_i.fwhm
    lo_m, hi_m = s_lo - i_hi, s_hi - i_lo
    center_minus = (lo_m + hi_m) / 2.0

    def centered(n):
        return np.arange(n) - (n - 1) / 2.0

    n_plus = int(np.ceil(2 * half_plus / (q_plus * h))) + 1
    n_minus = int(np.ceil((hi_m - lo_m) / (q_minus * h))) + 1
    size = q_plus * (n_plus - 1) + q_minus * (n_minus - 1) + 1
    signal = _Ramp((center_plus + center_minus) / 2.0, h / 2.0, size)
    idler = _Ramp((center_plus - center_minus) / 2.0, -(h / 2.0), size)
    return _Stripe(
        plus=center_plus + (q_plus * h) * centered(n_plus),
        minus=center_minus + (q_minus * h) * centered(n_minus),
        q_plus=q_plus,
        q_minus=q_minus,
        h=h,
        signal=signal,
        idler=idler,
        folded=_exchange_symmetric(cavity, filters, signal, idler),
    )


def _stripe_tables(stripe, cavity, filters, factor_mode):
    """Signal, idler and plus factor tables of the integrand of g: D_s D_i S / (|alpha|^2 A_p).

    The plus table keeps k_p l / 2 and, for DR, the phasor of P, with no
    weight.  exact_factors puts the rate factors on the photon weights;
    central_approx leaves its constant to _stripe_columns.
    """
    crystal = cavity.crystal
    if factor_mode not in ("central_approx", "exact_factors"):
        raise ValueError(f"unknown factor mode {factor_mode!r}")
    exact = factor_mode == "exact_factors"
    return _factor_tables(
        cavity, None, filters, stripe.signal, None if stripe.folded else stripe.idler, stripe.plus,
        rate=(lambda omega: _rate_factor(crystal, omega)) if exact else None,
    )


def _column_integrals(stripe, columns, cavity, chunk):
    """Trapezoid over omega_minus of the integrand for one chunk of omega_plus columns.

    A folded stripe evaluates the rows b <= m = (n_minus - 1) // 2 only.
    Row n_minus - 1 - b equals row b, so the row sum is 2 sum_{b<m} s + s_m
    for odd n_minus and 2 sum_{b<=m} s for even, and both end rows are s_0.

    _intensity writes C order, also where the gathered views run omega_plus
    fastest (q_plus < q_minus), so each column's rows lie contiguous and
    numpy sums them pairwise, whatever the chunk's width.
    """
    s = _intensity(cavity, *(f.view(lambda t: t[chunk]) for f in columns))
    dx = stripe.q_minus * stripe.h
    if not stripe.folded:
        return dx * (s.sum(axis=1) - 0.5 * (s[:, 0] + s[:, -1]))
    if stripe.minus.size % 2:
        total = 2.0 * s[:, :-1].sum(axis=1) + s[:, -1]
    else:
        total = 2.0 * s.sum(axis=1)
    return dx * (total - s[:, 0])


def _stripe_columns(cavity, pump, filters, factor_mode, threads=1):
    """The stripe and its column integrals g(omega_plus) over omega_minus.

    g integrates D_s D_i S / (|alpha|^2 A_p), which depends on neither the
    pump envelope nor |r_1p|: P reads r_2p and the mirror phases only.  In
    central_approx mode g carries the rate factors at the filter centres,
    one constant multiplied in after the kernel.  The sweeps pass no threads.
    """
    stripe = _stripe_axes(cavity, pump, filters)
    columns = stripe.columns(_stripe_tables(stripe, cavity, filters, factor_mode))

    def column_integrals(chunk):
        return _column_integrals(stripe, columns, cavity, chunk)

    chunks = blocks(stripe.plus.size, stripe.rows)
    g = np.concatenate(map_blocks(threads, column_integrals, chunks))
    if factor_mode == "central_approx":
        f_s, f_i = filters
        g *= _rate_factor(cavity.crystal, f_s.center) * _rate_factor(cavity.crystal, f_i.center)
    return stripe, g


def _interpolate(values, index):
    """Six-point Lagrange interpolation of a uniform table at fractional indices.

    Each index reads the six entries from two below its floor to three
    above, a stencil shifted inward at the table's ends, so polynomials of
    degree 5 are reproduced to rounding.
    """
    nodes = range(-2, 4)
    base = np.clip(np.floor(index).astype(int), 2, values.size - 4)
    s = index - base
    out = np.zeros_like(s)
    for m in nodes:
        weight = np.ones_like(s)
        for k in nodes:
            if k != m:
                weight *= (s - k) / (m - k)
        out += weight * values[base + m]
    return out


def _plus_integral(stripe, g, cavity, pump):
    """0.5 integral of |alpha|^2 A_p g over the stripe's omega_plus span (Jacobian 1/2).

    |alpha|^2 A_p is evaluated exactly on a uniform axis over the same span
    with a step of at most 1/_SAMPLES_PER_SCALE of the pump mode width and
    never coarser than the columns, on which g is interpolated between the
    columns.  Without a pump resonance (an infinite width) the axis is the
    columns' own, where the interpolant's indices are whole and it returns
    the columns bit for bit.  The integrand is evaluated in
    _parallel.blocks of entries.
    """
    n_columns = stripe.plus.size
    step = stripe.q_plus * stripe.h
    width = mode_width(cavity, pump.omega_p0, "pump")
    n = max(n_columns, int(np.ceil((n_columns - 1) * step * _SAMPLES_PER_SCALE / width)) + 1)
    ratio = (n_columns - 1) / (n - 1)  # column steps per axis step
    axis = _Ramp(pump.omega_p0, step * ratio, n)  # the columns' own rule when n = n_columns

    def integrand(b):
        omega = axis[b]
        n_p = refractive_index(cavity.crystal, omega, "extraordinary")
        g_b = _interpolate(g, np.arange(b.start, b.stop) * ratio)
        return spectral._pump_weight(cavity, pump, omega, n_p) * g_b

    y = np.concatenate([integrand(b) for b in blocks(n, 1)])
    return 0.5 * float(np.trapezoid(y, dx=axis.step))


def brightness_from_cavity(cavity, pump, filters, factor_mode="central_approx", threads=1):
    """Brightness of a cavity source via the adaptive stripe integral.

    The integrand is the cavity's S_SR, or S_DR when it reflects the pump.
    threads > 1 runs the column chunks on a pool, bit for bit the serial B.
    No sweep passes it (each shipped one ran slower on two threads); it
    serves a heavy stripe (r2 = 0.99, sigma = 4.6e13 rad/s: 3.8-4.0 s on
    two threads, 4.4-4.7 s on one) and bench/child.py's scaling check.
    """
    stripe, g = _stripe_columns(cavity, pump, filters, factor_mode, threads)
    return BrightnessResult(_plus_integral(stripe, g, cavity, pump) / pump.sigma)


def _no_cavity(cavity):
    """The equivalent source without a cavity: mirror 2 and the pump mirrors open.

    Mirror 1 keeps its magnitude.  Every mirror phase is zeroed: with mirror
    2 open the Airy weight is 1 and no phasor is left, so the phases change
    nothing but whether signal and idler compare equal, and a reference with
    equal filters then folds its stripe.
    """
    out = cavity
    for mode in ("signal", "idler"):
        out = out.with_mirror(1, mode, phase=0.0).with_mirror(2, mode, magnitude=0.0, phase=0.0)
    for nu in (1, 2):
        out = out.with_mirror(nu, "pump", magnitude=0.0, phase=0.0)
    return out


def brightness_vs_sigma_sweep(cavity, omega_p0, filters, sigma_list, r2_list,
                              factor_mode="central_approx"):
    """Brightness vs pump bandwidth for a ladder of mirror-2 reflectivities.

    The pump is centered at omega_p0 (rad/s) and each row sets its width.
    Rows are (sigma, r2, B_norm); unity corresponds to the equivalent source
    without a cavity evaluated at the smallest requested sigma.
    """
    reference = brightness_from_cavity(
        _no_cavity(cavity), PumpSpec(omega_p0, min(sigma_list)), filters, factor_mode).value
    rows = []
    for r2 in r2_list:
        cav = cavity.with_mirror(2, "signal", magnitude=r2).with_mirror(2, "idler", magnitude=r2)
        for sigma in sigma_list:
            b = brightness_from_cavity(cav, PumpSpec(omega_p0, sigma), filters, factor_mode).value
            rows.append((float(sigma), float(r2), b / reference))
    return SweepTable(("sigma_rad_s", "r2", "B_norm"), rows)


def plateau_brightness_vs_r2(cavity, omega_p0, filters, r2_list, zero_sigma=None,
                             factor_mode="central_approx"):
    """Plateau (small-sigma) brightness vs mirror-2 reflectivity.

    The pump is centered at omega_p0 (rad/s).  For each r2 > 0 its width is
    the plateau condition sigma = delta_omega(r2) / sqrt(2 ln 2), and the
    result is normalized to the equivalent source without a cavity at that
    sigma.  An r2 = 0 row, where the plateau is unbounded, is taken at
    zero_sigma; it is exactly 1 unless the cavity reflects the pump.
    """
    if zero_sigma is None and 0.0 in r2_list:
        raise ValueError("an r2 = 0 plateau row needs zero_sigma, the pump width it is taken at")
    rows = []
    for r2 in r2_list:
        if r2 == 0.0 and not cavity.reflects_pump:
            rows.append((float(r2), float(zero_sigma), 1.0))
            continue
        cav = cavity.with_mirror(2, "signal", magnitude=r2).with_mirror(2, "idler", magnitude=r2)
        sigma = (zero_sigma if r2 == 0.0
                 else fwhm_to_sigma(mode_width(cav, filters[0].center, "signal")))
        swept_pump = PumpSpec(omega_p0, sigma)
        reference = brightness_from_cavity(_no_cavity(cavity), swept_pump, filters,
                                           factor_mode).value
        b = brightness_from_cavity(cav, swept_pump, filters, factor_mode).value
        rows.append((float(r2), float(sigma), b / reference))
    return SweepTable(("r2", "sigma_rad_s", "B_norm"), rows)


def brightness_vs_r1p_sweep(cavity, omega_p0, filters, r1p_list, sigma_list,
                            factor_mode="central_approx"):
    """Doubly-resonant brightness vs pump reflectivity of mirror 1.

    The pump is centered at omega_p0 (rad/s) and each sigma of sigma_list
    sets its width.  Requires |r_2p| = 1 (pump enters and exits through
    mirror 1).  Rows are (sigma, r1p, B_norm) normalized per sigma to the
    r1p = 0 value, so an r1p = 0 row is the reference itself and exactly
    one; at r1p = 1 no pump enters the cavity and the brightness is exactly
    zero.  Neither row takes an integral of its own.  Each sigma builds one stripe: its column
    integrals g do not depend on r1p, so the reference and every row are
    1-D integrals over them.
    """
    if cavity.mirror(2, "pump").magnitude != 1.0:
        raise ValueError("the r1p sweep assumes a perfect pump reflectivity on mirror 2")
    single = cavity.with_mirror(1, "pump", magnitude=0.0)
    rows = []
    for sigma in sigma_list:
        swept_pump = PumpSpec(omega_p0, sigma)
        stripe, g = _stripe_columns(single, swept_pump, filters, factor_mode)
        reference = _plus_integral(stripe, g, single, swept_pump)
        for r1p in r1p_list:
            if r1p == 0.0:
                rows.append((float(sigma), 0.0, 1.0))
                continue
            if r1p == 1.0:
                rows.append((float(sigma), 1.0, 0.0))
                continue
            cav = cavity.with_mirror(1, "pump", magnitude=r1p)
            rows.append((float(sigma), float(r1p),
                         _plus_integral(stripe, g, cav, swept_pump) / reference))
    return SweepTable(("sigma_rad_s", "r1p", "B_norm"), rows)
