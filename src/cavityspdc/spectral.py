"""Bare and singly-resonant joint spectral quantities, and the intensity model.

The bare joint spectral amplitude is

    f(omega_i, omega_s) = alpha(omega_s + omega_i) phi(omega_i, omega_s)
                          F_s(omega_s) F_i(omega_i)

with a Gaussian pump envelope alpha, the crystal phasematching amplitude
phi = sinc(dk l / 2) exp(i dk l / 2) and optional Gaussian intensity filters
F.  The cavity multiplies each photon by the geometric-sum amplitude A_mu;
in the many-pass limit the joint spectral intensity factorizes into
S_SR = A_s(omega_s) A_i(omega_i) |f|^2 with A the Airy weights, and with a
resonant pump into S_DR = A_s A_i A_p(omega_s + omega_i) P |f|^2.  The
cavity decides (CavitySpec.reflects_pump): with open pump mirrors A_p = P = 1.

Every factor of these intensities depends on one frequency, except
sinc^2(dk l / 2) and the phase-balancing weight P.  _factor_tables evaluates
the others once per entry of 1-D signal, idler and pump tables; _intensity
combines broadcast or gathered views of the tables, whatever lattice they
come from.  On a rectangular grid the signal and idler steps are equal, so
omega_s + omega_i takes one value per anti-diagonal: the pump table holds
those N_s + N_i - 1 sums and the kernel reads it through a Hankel view,
table[i + j] at (omega_i_axis[i], omega_s_axis[j]).

The rectangular kernel is one ordered stream, _jsi_stream: it evaluates the
tables (and with them every check a configuration can fail) before it
returns, then yields blocks of idler rows in row order, each computed on
the caller's thread when asked for.  Like the factor tables' and the
marginals' blocks, each holds _parallel's one sample budget.
jsi_singly_resonant and jsi_doubly_resonant collect the stream into one
SpectralGrid; the CLI hands it to gridfile.write_grid and, through
_MarginalSum, to the marginal, so no N^2 array is formed on that path.
The complex amplitude f A_s A_i has one evaluator, _jsa_sr_pointwise, which
jsa_singly_resonant runs on a rectangular grid's mesh and the temporal
module on the rotated lattice.

Grid convention: SpectralGrid.values[i, j] belongs to
(omega_i_axis[i], omega_s_axis[j]).
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._parallel import blocks, map_blocks
from .cavity import (
    _airy_from_phase,
    _balance_phase,
    _convergent_loop,
    _round_trip_phase,
    _single_pass_phase,
    mode_width,
)
from .constants import c
from .dispersion import polarization_for_mode, refractive_index, wavevector
from .errors import UnderResolutionWarning

__all__ = [
    "PumpSpec",
    "FilterSpec",
    "SpectralGrid",
    "Marginal",
    "fwhm_to_sigma",
    "wavelength_fwhm_to_angular",
    "pump_envelope",
    "phasematching",
    "jsa_bare",
    "sr_amplitude_factor_finite",
    "sr_amplitude_factor",
    "jsa_singly_resonant",
    "jsi_singly_resonant",
    "marginal_spectrum",
    "default_grid",
]

_LN2 = np.log(2.0)


def wavelength_fwhm_to_angular(lambda0, fwhm_lambda):
    """Convert a wavelength FWHM at center lambda0 to an angular-frequency FWHM."""
    return 2 * np.pi * c * fwhm_lambda / lambda0**2


def fwhm_to_sigma(fwhm_omega):
    """Gaussian amplitude width sigma from the intensity FWHM of exp[-2 x^2/sigma^2]."""
    return fwhm_omega / np.sqrt(2 * _LN2)


@dataclass(frozen=True)
class PumpSpec:
    """Gaussian pump: center omega_p0 (rad/s) and amplitude width sigma (rad/s).

    The pulse energy U is no field: every brightness the package reports is a
    ratio to the equivalent source without a cavity, in which U cancels.
    """

    omega_p0: float
    sigma: float

    def __post_init__(self):
        if not 0 < self.omega_p0 < np.inf:
            raise ValueError("pump center frequency must be positive and finite")
        if not 0 < self.sigma < np.inf:
            raise ValueError("pump bandwidth sigma must be positive and finite")

    @classmethod
    def from_wavelength(cls, lambda0, fwhm_lambda):
        """Pump from center wavelength and intensity-FWHM in wavelength units."""
        omega0 = 2 * np.pi * c / lambda0
        sigma = fwhm_to_sigma(wavelength_fwhm_to_angular(lambda0, fwhm_lambda))
        return cls(omega0, sigma)


@dataclass(frozen=True)
class FilterSpec:
    """Gaussian spectral filter; fwhm is the intensity FWHM of |F|^2.

    No filtering is filters=None wherever a (signal, idler) pair is taken.
    """

    center: float
    fwhm: float

    def __post_init__(self):
        if not (0 < self.center < np.inf and 0 < self.fwhm < np.inf):
            raise ValueError("gaussian filter requires a finite center > 0 and fwhm > 0")

    def amplitude(self, omega):
        omega = np.asarray(omega, dtype=float)
        return np.exp(-2 * _LN2 * (omega - self.center) ** 2 / self.fwhm**2)


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Rectangular (omega_s, omega_i) sample lattice with values[i, s].

    A grid spec from default_grid holds no samples: its values are a
    read-only zero view that owns no memory, and the kernels read only its
    axes.  A caller who wants writable values builds a SpectralGrid of
    their own on the spec's axes.
    """

    omega_s_axis: np.ndarray
    omega_i_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _check_lattice(self, "omega_s_axis", "omega_i_axis")

    @property
    def d_omega_s(self):
        return float(self.omega_s_axis[1] - self.omega_s_axis[0])

    @property
    def d_omega_i(self):
        return float(self.omega_i_axis[1] - self.omega_i_axis[0])

    def meshgrid(self):
        """(omega_s, omega_i) matrices aligned with values."""
        return np.meshgrid(self.omega_s_axis, self.omega_i_axis)


def check_uniform_axis(axis, name):
    """Validate a strictly increasing, uniform 1-D axis; returns it as float array.

    The uniformity tolerance allows the spacing jitter inherent to float64
    axes whose span is many orders of magnitude below their values.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size < 2:
        raise ValueError(f"{name} must be a 1-D axis with at least 2 samples")
    if not np.all(np.isfinite(axis)):
        raise ValueError(f"{name} must be finite")
    d = np.diff(axis)
    if np.any(d <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    step = d.mean()
    if np.abs(d - step).max() > _step_tolerance(axis, step):
        raise ValueError(f"{name} must be uniformly spaced")
    return axis


def _check_lattice(record, x_name, y_name):
    """Set a frozen lattice record's uniform axes and its values[y, x]; returns the values."""
    for name in (x_name, y_name):
        object.__setattr__(record, name, check_uniform_axis(getattr(record, name), name))
    values = np.asarray(record.values)
    object.__setattr__(record, "values", values)
    shape = (getattr(record, y_name).size, getattr(record, x_name).size)
    if values.shape != shape:
        raise ValueError(f"values shape {values.shape} does not match ({y_name}, {x_name}) {shape}")
    return values


def _step_tolerance(axis, step):
    """Spacing jitter allowed on a float64 axis: 8 ulp of its largest value + 1e-9 of the step."""
    return 8 * np.finfo(float).eps * np.abs(axis).max() + 1e-9 * abs(step)


class Marginal(NamedTuple):
    """One-dimensional sampled density over an angular-frequency or time axis."""

    axis: np.ndarray
    density: np.ndarray


class GridStream(NamedTuple):
    """A rectangular grid's axes and its values[i, s] as row blocks, yielded once in row order.

    The rectangular kernel's output (_jsi_stream) on the grid path of the
    package: gridfile.write_grid writes one and marginal_spectrum
    integrates one, each block as it comes; the library's jsi functions
    return the collected SpectralGrid instead.
    """

    omega_s_axis: np.ndarray
    omega_i_axis: np.ndarray
    blocks: Iterator[np.ndarray]


def pump_envelope(pump, omega):
    """Gaussian pump amplitude exp[-(omega - omega_p0)^2 / sigma^2]."""
    omega = np.asarray(omega, dtype=float)
    out = np.exp(-((omega - pump.omega_p0) ** 2) / pump.sigma**2)
    return out if out.ndim else float(out)


def phasematching(crystal, omega_s, omega_i):
    """Phasematching amplitude sinc(dk l / 2) exp(i dk l / 2).

    dk = k_p(omega_s + omega_i) - k_s(omega_s) - k_i(omega_i) with the pump
    extraordinary at the cut angle and signal/idler ordinary.
    """
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    n_s, n_i = _ordinary_indices(crystal, omega_s, omega_i)
    return _phasematching(crystal, omega_s, omega_i, omega_s + omega_i, n_s, n_i)


def _ordinary_indices(crystal, omega_s, omega_i):
    """n_o(omega_s) and n_o(omega_i): the signal and idler indices."""
    return (
        refractive_index(crystal, omega_s, "ordinary"),
        refractive_index(crystal, omega_i, "ordinary"),
    )


def _phasematching(crystal, omega_s, omega_i, omega_p, n_s, n_i):
    """phasematching from omega_p = omega_s + omega_i and the indices n_s, n_i."""
    dk = wavevector(crystal, omega_p, "extraordinary") - n_s * omega_s / c - n_i * omega_i / c
    x = dk * crystal.length_l / 2.0
    out = np.sinc(x / np.pi) * np.exp(1j * x)
    return out if np.ndim(out) else complex(out)


def jsa_bare(pump, crystal, filters, omega_s, omega_i):
    """Bare joint spectral amplitude alpha * phi * F_s * F_i.

    filters is a (signal, idler) pair of FilterSpec or None for no filtering.
    """
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    n_s, n_i = _ordinary_indices(crystal, omega_s, omega_i)
    return _jsa_bare(pump, crystal, filters, omega_s, omega_i, n_s, n_i)


def _jsa_bare(pump, crystal, filters, omega_s, omega_i, n_s, n_i):
    """jsa_bare from float arrays omega_s, omega_i and the indices n_s, n_i."""
    omega_p = omega_s + omega_i
    f = pump_envelope(pump, omega_p) * _phasematching(crystal, omega_s, omega_i, omega_p, n_s, n_i)
    if filters is not None:
        f_s, f_i = filters
        f = f * f_s.amplitude(omega_s) * f_i.amplitude(omega_i)
    return f


def _sr_ratio(cavity, omega, mode, n):
    """Common geometric ratio |r_2| e^{i Delta_mu(omega)} and the mirror pair.

    n is the index n_mu(omega) already evaluated at omega.
    """
    m2 = cavity.mirror(2, mode)
    r_eff = _convergent_loop(cavity, mode)
    delta = _round_trip_phase(cavity, _single_pass_phase(cavity, omega, n), mode)
    return m2, r_eff * np.exp(1j * np.asarray(delta))


def _free_space_phasor(cavity, omega):
    """e^{i gamma} at omega, gamma = omega (L - l)/(2 c) from crystal face to mirror 2.

    When L = l, gamma is exactly 0 and the phasor is the scalar 1.0: it
    leaves every product and quotient it enters bit for bit as 1 + 0j
    would, and the amplitude factors skip a complex exponential per point.
    """
    free = cavity.length_L - cavity.crystal.length_l
    if free == 0.0:
        return 1.0
    return np.exp(1j * (np.asarray(omega, dtype=float) * free / (2 * c)))


def sr_amplitude_factor_finite(cavity, omega, mode, n_passes):
    """Per-photon amplitude A_mu^(n) after n passes of the unfolded cavity.

    Closed form of the geometric sum over exit paths:

        A = t_2 e^{i gamma} (1 - rho^n) / (1 - rho),
        rho = |r_2| e^{i Delta_mu(omega)}.
    """
    if n_passes < 1:
        raise ValueError("n_passes must be >= 1")
    n = refractive_index(cavity.crystal, omega, polarization_for_mode(mode))
    m2, rho = _sr_ratio(cavity, omega, mode, n)
    phasor = _free_space_phasor(cavity, omega)
    out = m2.transmissivity * phasor * (1.0 - rho**n_passes) / (1.0 - rho)
    return out if np.ndim(out) else complex(out)


def sr_amplitude_factor(cavity, omega, mode):
    """Many-pass limit of A_mu^(n): t_2 e^{i gamma} / (1 - rho)."""
    n = refractive_index(cavity.crystal, omega, polarization_for_mode(mode))
    return _sr_amplitude_factor(cavity, omega, mode, n)


def _sr_amplitude_factor(cavity, omega, mode, n):
    """sr_amplitude_factor from the index n = n_mu(omega) already evaluated."""
    m2, rho = _sr_ratio(cavity, omega, mode, n)
    out = m2.transmissivity * _free_space_phasor(cavity, omega) / (1.0 - rho)
    return out if np.ndim(out) else complex(out)


def _jsa_sr_pointwise(cavity, pump, filters, omega_s, omega_i):
    """Many-pass amplitude f_SR = f A_s A_i at matching arrays of (omega_s, omega_i).

    Each index n_o(omega_s), n_o(omega_i) is evaluated once and shared by
    the phasematching and the cavity factors.
    """
    crystal = cavity.crystal
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    n_s, n_i = _ordinary_indices(crystal, omega_s, omega_i)
    return (
        _jsa_bare(pump, crystal, filters, omega_s, omega_i, n_s, n_i)
        * _sr_amplitude_factor(cavity, omega_s, "signal", n_s)
        * _sr_amplitude_factor(cavity, omega_i, "idler", n_i)
    )


def _median(values):
    """float(np.median(values)) of a 1-D array, without the numpy.ma import np.median makes."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    return float(ordered[mid] if ordered.size % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def _warn_if_under_resolved(cavity, grid, where):
    """Warn when a grid step exceeds 1/8 of a cavity mode width.

    Every mode counts, signal and idler along their axes and the pump along
    the anti-diagonal table of omega_s + omega_i, whose step is the signal
    step; the infinite width of a mode that does not resonate never warns.
    """
    center_s = _median(grid.omega_s_axis)
    center_i = _median(grid.omega_i_axis)
    for mode, axis_step, center in (
        ("signal", grid.d_omega_s, center_s),
        ("idler", grid.d_omega_i, center_i),
        ("pump", grid.d_omega_s, center_s + center_i),
    ):
        width = mode_width(cavity, center, mode)
        if width < 8 * axis_step:
            axis = "omega_s + omega_i anti-diagonal" if mode == "pump" else f"{mode} axis"
            warnings.warn(
                f"{where}: {axis} resolves the {mode} cavity mode width "
                f"{width:.3e} rad/s with only {width / axis_step:.1f} samples (< 8)",
                UnderResolutionWarning,
                stacklevel=3,
            )


def jsa_singly_resonant(cavity, pump, filters, grid):
    """Many-pass joint spectral amplitude f_SR = A_s A_i f on the given grid axes."""
    _warn_if_under_resolved(cavity, grid, "jsa_singly_resonant")
    values = _jsa_sr_pointwise(cavity, pump, filters, *grid.meshgrid())
    return SpectralGrid(grid.omega_s_axis, grid.omega_i_axis, values)


def jsi_singly_resonant(cavity, pump, filters, grid):
    """The cavity's joint spectral intensity, S_SR or (pump reflected) S_DR, on a real grid.

    The grid's signal and idler steps must be equal (ValueError otherwise).
    """
    _warn_if_under_resolved(cavity, grid, "jsi_singly_resonant")
    return _collect_rows(_jsi_stream(cavity, pump, filters, grid))


class _Factors(NamedTuple):
    """Factors on one table: k l / 2, a weight and, for DR, a phasor of P.

    Photon: Airy x filter^2 and e^{i theta}.  Pump, on omega_s + omega_i:
    _pump_weight and e^{i(theta_p + delta_1s + delta_1i + delta_2p)}
    (cavity._balance_phase of theta_p); a weight of None counts as 1.
    """

    k: np.ndarray
    weight: np.ndarray
    phasor: np.ndarray | None

    def view(self, index):
        """The same factors through one view (a slice, a broadcast or a gather)."""
        return _Factors(*(None if t is None else index(t) for t in self))


def _factor_tables(cavity, pump, filters, omega_s, omega_i, omega_p, rate=None):
    """Signal, idler and pump _Factors, each factor evaluated once per table entry.

    filters is a (signal, idler) pair or None; the pump Airy weight and P
    count when the cavity reflects the pump.  pump None leaves the pump
    table without a weight: the brightness stripe weighs omega_plus on an
    axis of its own.  omega_s and omega_i are the photon tables: 1-D
    arrays, or any 1-D table with a size that a slice turns into an array
    (the brightness stripe's, never stored whole).
    omega_i None marks a source that signal-idler exchange maps onto itself
    (the caller decides): the idler factors are the signal factors reversed.
    omega_p is the pump table, any 1-D array of sums omega_s + omega_i: the
    rectangular grid's anti-diagonal sums or the stripe's omega_plus axis.
    rate, if given, is a function of omega multiplied onto both photon
    weights.  The photon factors are evaluated in _parallel.blocks of
    entries into preallocated tables; every entry is the same whatever the
    blocking, and a grid's table of at most 2047 entries is one block.
    """
    half_l = cavity.crystal.length_l / 2.0

    def photon(omega, mode, filt):
        n = refractive_index(cavity.crystal, omega, "ordinary")
        theta = _single_pass_phase(cavity, omega, n)
        weight = _airy_from_phase(cavity, mode, _round_trip_phase(cavity, theta, mode))
        if filt is not None:
            weight = weight * filt.amplitude(omega) ** 2
        if rate is not None:
            weight = weight * rate(omega)
        phasor = np.exp(1j * theta) if cavity.reflects_pump else None
        return _Factors(n * omega / c * half_l, weight, phasor)

    def photon_table(omega, mode, filt):
        size = omega.size
        table = _Factors(np.empty(size), np.empty(size),
                         np.empty(size, complex) if cavity.reflects_pump else None)
        for b in blocks(size, 1):
            for whole, part in zip(table, photon(omega[b], mode, filt)):
                if whole is not None:
                    whole[b] = part
        return table

    f_s, f_i = filters or (None, None)
    signal = photon_table(omega_s, "signal", f_s)
    if omega_i is None:
        idler = signal.view(lambda t: t[::-1])
    else:
        idler = photon_table(omega_i, "idler", f_i)
    n_p = refractive_index(cavity.crystal, omega_p, "extraordinary")
    weight_p = None if pump is None else _pump_weight(cavity, pump, omega_p, n_p)
    phasor_p = None
    if cavity.reflects_pump:
        # the mirror phases of P's pass-to-pass phase ride on the pump phasor
        phasor_p = np.exp(1j * _balance_phase(cavity, _single_pass_phase(cavity, omega_p, n_p)))
    return signal, idler, _Factors(n_p * omega_p / c * half_l, weight_p, phasor_p)


def _pump_weight(cavity, pump, omega_p, n_p):
    """|alpha|^2 at omega_p = omega_s + omega_i, times A_p when the cavity reflects the pump.

    n_p is the extraordinary index at omega_p, already evaluated.
    """
    weight = pump_envelope(pump, omega_p) ** 2
    if cavity.reflects_pump:
        theta_p = _single_pass_phase(cavity, omega_p, n_p)
        delta_p = _round_trip_phase(cavity, theta_p, "pump")
        weight = weight * _airy_from_phase(cavity, "pump", delta_p)
    return weight


def _intensity(cavity, signal, idler, pump):
    """S_SR, or S_DR when the pump carries phasors, from broadcastable factor views.

    Only sinc^2(k_p - k_s - k_i) and, for DR, the phase-balancing weight
    P = 1 + |r_2p|^2 + 2 |r_2p| Re(product of the three phasors) combine
    frequencies: the phase_balancing value without the sine of the large
    unfolded phase sum.  The first operation writes C order, whatever the
    views' order, so the intensity is C-contiguous.
    """
    x = np.subtract(pump.k, signal.k, order="C")
    x -= idler.k
    with np.errstate(invalid="ignore"):
        s = np.sin(x) / x
    s[x == 0.0] = 1.0
    del x  # one block-sized temporary fewer in the DR factor below
    s *= s
    s *= signal.weight
    s *= idler.weight
    if pump.weight is not None:
        s *= pump.weight
    if pump.phasor is not None:
        phasor = signal.phasor * idler.phasor
        phasor *= pump.phasor
        r = cavity.mirror(2, "pump").magnitude
        balance = phasor.real  # P formed in place, in the phasor's memory
        balance *= 2.0 * r
        balance += 1.0 + r * r
        s *= balance
    return s


def _jsi_stream(cavity, pump, filters, grid):
    """The cavity's JSI on a rectangular grid as a GridStream of idler-row blocks.

    With equal signal and idler steps, omega_s_axis[j] + omega_i_axis[i]
    depends on i + j alone, so the pump table is the N_s + N_i - 1 sums
    along the first idler row and the last signal column, and the kernel
    reads it as table[i + j] through a Hankel view.  A grid whose steps
    differ by more than check_uniform_axis's tolerance raises ValueError.
    The factor tables are evaluated here, before the stream is returned,
    so every error of the evaluation (a frequency outside the Sellmeier
    window, a diverging Airy weight) is raised before a consumer opens a
    file; the blocks only combine table entries.  The blocks are
    _parallel.blocks of N_s-sample rows, one sample budget each whatever
    the grid, yielded in row order by a plain generator: a block is
    computed only when the consumer asks for the next one.
    """
    s_axis, i_axis = grid.omega_s_axis, grid.omega_i_axis
    step_s, step_i = np.diff(s_axis).mean(), np.diff(i_axis).mean()
    allowed = max(_step_tolerance(s_axis, step_s), _step_tolerance(i_axis, step_i))
    if abs(step_s - step_i) > allowed:
        raise ValueError(
            f"the pump table on the anti-diagonals needs equal signal and idler steps, "
            f"got {step_s:.17g} and {step_i:.17g} rad/s"
        )
    sums = np.concatenate((s_axis + i_axis[0], s_axis[-1] + i_axis[1:]))
    signal, idler, plus = _factor_tables(cavity, pump, filters, s_axis, i_axis, sums)

    def block(rows):
        return _intensity(
            cavity,
            signal.view(lambda t: t[None, :]),
            idler.view(lambda t: t[rows, None]),
            plus.view(lambda t: sliding_window_view(t, s_axis.size)[rows]),
        )

    rows = blocks(i_axis.size, s_axis.size)
    return GridStream(s_axis, i_axis, map(block, rows))


def _collect_rows(stream):
    """The SpectralGrid of a GridStream: its blocks copied in turn into one array."""
    values = np.empty((stream.omega_i_axis.size, stream.omega_s_axis.size))
    start = 0
    for block in stream.blocks:
        values[start:start + block.shape[0]] = block
        start += block.shape[0]
    return SpectralGrid(stream.omega_s_axis, stream.omega_i_axis, values)


def marginal_spectrum(grid, axis):
    """Marginal density over one frequency axis of a real-valued grid.

    axis names the kept axis: 'signal' integrates over omega_i and returns a
    density on the signal axis, 'idler' the converse.  grid is a
    SpectralGrid, read in _parallel.blocks of its rows, or a GridStream, whose
    blocks it consumes.  Either way the rows go through _MarginalSum, whose
    rules do not depend on the blocks, so no grid-sized temporary is formed
    and the density is the same whatever the blocking.
    """
    total = _MarginalSum(grid.omega_s_axis, grid.omega_i_axis, axis)
    if isinstance(grid, GridStream):
        rows = grid.blocks
    else:
        rows = (grid.values[b] for b in blocks(*grid.values.shape))
    for block in rows:
        total.add(block)
    return total.marginal()


class _MarginalSum:
    """A marginal accumulated over a grid's row blocks, fed in row order.

    The idler marginal is each row's trapezoid over omega_s, _row_trapezoid
    of each block.  The signal marginal adds the trapezoid term of each pair
    of neighbouring rows, step_k (row_k+1 + row_k) / 2, onto the density in
    row order: the terms and the order of np.trapezoid(values,
    omega_i_axis, axis=0), which numpy sums down the rows in turn.  So
    neither depends on where the blocks begin or end.
    """

    def __init__(self, omega_s_axis, omega_i_axis, axis):
        if axis not in ("signal", "idler"):
            raise ValueError(f"axis must be 'signal' or 'idler', got {axis!r}")
        self.axis = axis
        self._kept, self._over = ((omega_s_axis, omega_i_axis) if axis == "signal"
                                  else (omega_i_axis, omega_s_axis))
        self._density = np.zeros(self._kept.size)
        self._rows = 0
        self._last = None  # the previous block's last row, for the signal term across blocks

    def add(self, block):
        """Add the next rows of the grid (a 2-D block of any layout)."""
        if np.iscomplexobj(block):
            raise ValueError("marginal_spectrum expects a real-valued grid")
        start, self._rows = self._rows, self._rows + block.shape[0]
        if self.axis == "idler":
            self._density[start:self._rows] = _row_trapezoid(block, self._over)
            return
        if not block.shape[0]:
            return
        steps = np.diff(self._over[max(start - 1, 0):self._rows])
        if self._last is not None:
            self._density += steps[0] * (block[0] + self._last) / 2.0
            steps = steps[1:]
        terms = block[1:] + block[:-1]
        terms *= steps[:, None]
        terms /= 2.0
        for term in terms:
            self._density += term
        self._last = block[-1].copy()

    def tap(self, blocks):
        """The blocks passed on unchanged, each added on its way through."""
        for block in blocks:
            self.add(block)
            yield block
            del block  # not kept while the next block is computed

    def marginal(self):
        """The Marginal of the rows added so far."""
        return Marginal(self._kept, self._density)


def _row_trapezoid(values, x, threads=1):
    """Trapezoid over x of each row of a 2-D array of any layout: the idler and t_minus marginals.

    _parallel.blocks of the rows, up to `threads` at once, are each
    gathered C-contiguous first, so no temporary outgrows a block and each
    row's sum is the contiguous one whatever the layout of values.  A block
    that is not C-contiguous is gathered in two steps: a copy in its own
    memory order, which reads each cache line of a transposed view once,
    then a C-ordered copy of that compact block.  A C-contiguous block is
    integrated where it lies.
    """
    density = np.empty(values.shape[0])

    def integrate(rows):
        block = values[rows]
        if not block.flags.c_contiguous:
            block = np.ascontiguousarray(block.copy(order="K"))
        density[rows] = np.trapezoid(block, x, axis=1)

    map_blocks(threads, integrate, blocks(*values.shape))
    return density


def default_grid(center_s, center_i, halfwidth, samples):
    """Square grid spec spanning center +- halfwidth on both axes.

    Its values are np.broadcast_to(0.0, (samples, samples)): a read-only
    zero view of one float that owns no memory, since every kernel reads
    only the axes.  For writable values, build a SpectralGrid on the axes.
    """
    s_axis = np.linspace(center_s - halfwidth, center_s + halfwidth, samples)
    i_axis = np.linspace(center_i - halfwidth, center_i + halfwidth, samples)
    return SpectralGrid(s_axis, i_axis, np.broadcast_to(0.0, (samples, samples)))
