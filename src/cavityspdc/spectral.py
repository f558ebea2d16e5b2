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
table[i + j] at (omega_i_axis[i], omega_s_axis[j]).  The kernel fills the
grid in blocks of idler rows on a threads argument (default 1); every row
is computed alone, so the grid is bit for bit the same at any thread count.
The complex amplitude f A_s A_i has one evaluator, _jsa_sr_pointwise, which
jsa_singly_resonant runs on a rectangular grid's mesh and the temporal
module on the rotated lattice.

Grid convention: SpectralGrid.values[i, j] belongs to
(omega_i_axis[i], omega_s_axis[j]).
"""

from __future__ import annotations

import warnings
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
_BLOCK_ROWS = 64  # idler rows per block of the rectangular grid's kernel


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
        if not self.omega_p0 > 0:
            raise ValueError("pump center frequency must be positive")
        if not self.sigma > 0:
            raise ValueError("pump bandwidth sigma must be positive")

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
        if not self.fwhm > 0:
            raise ValueError("gaussian filter requires fwhm > 0")

    def amplitude(self, omega):
        omega = np.asarray(omega, dtype=float)
        return np.exp(-2 * _LN2 * (omega - self.center) ** 2 / self.fwhm**2)


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Rectangular (omega_s, omega_i) sample lattice with values[i, s]."""

    omega_s_axis: np.ndarray
    omega_i_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("omega_s_axis", "omega_i_axis"):
            axis = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, axis)
            check_uniform_axis(axis, name)
        values = np.asarray(self.values)
        object.__setattr__(self, "values", values)
        if values.shape != (self.omega_i_axis.size, self.omega_s_axis.size):
            raise ValueError(
                f"values shape {values.shape} does not match axes "
                f"({self.omega_i_axis.size}, {self.omega_s_axis.size})"
            )

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
    d = np.diff(axis)
    if np.any(d <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    step = d.mean()
    if np.abs(d - step).max() > _step_tolerance(axis, step):
        raise ValueError(f"{name} must be uniformly spaced")
    return axis


def _step_tolerance(axis, step):
    """Spacing jitter allowed on a float64 axis: 8 ulp of its largest value + 1e-9 of the step."""
    return 8 * np.finfo(float).eps * np.abs(axis).max() + 1e-9 * abs(step)


class Marginal(NamedTuple):
    """One-dimensional sampled density over an angular-frequency or time axis."""

    axis: np.ndarray
    density: np.ndarray


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


def _gamma_free_space(cavity, omega):
    """Propagation phase gamma = omega (L - l)/(2 c) from crystal face to mirror 2."""
    return np.asarray(omega, dtype=float) * (cavity.length_L - cavity.crystal.length_l) / (2 * c)


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
    phase = _gamma_free_space(cavity, omega)
    out = m2.transmissivity * np.exp(1j * phase) * (1.0 - rho**n_passes) / (1.0 - rho)
    return out if np.ndim(out) else complex(out)


def sr_amplitude_factor(cavity, omega, mode):
    """Many-pass limit of A_mu^(n): t_2 e^{i gamma} / (1 - rho)."""
    n = refractive_index(cavity.crystal, omega, polarization_for_mode(mode))
    return _sr_amplitude_factor(cavity, omega, mode, n)


def _sr_amplitude_factor(cavity, omega, mode, n):
    """sr_amplitude_factor from the index n = n_mu(omega) already evaluated."""
    m2, rho = _sr_ratio(cavity, omega, mode, n)
    out = m2.transmissivity * np.exp(1j * _gamma_free_space(cavity, omega)) / (1.0 - rho)
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


def _warn_if_under_resolved(cavity, grid, where):
    """Warn when a grid step exceeds 1/8 of a cavity mode width.

    Each mode that resonates (loop_reflectivity > 0) counts: signal and idler
    along their axes, the pump along the anti-diagonal table of omega_s +
    omega_i, whose step is the signal step.
    """
    center_s = float(np.median(grid.omega_s_axis))
    center_i = float(np.median(grid.omega_i_axis))
    for mode, axis_step, center in (
        ("signal", grid.d_omega_s, center_s),
        ("idler", grid.d_omega_i, center_i),
        ("pump", grid.d_omega_s, center_s + center_i),
    ):
        if cavity.loop_reflectivity(mode) == 0.0:
            continue
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


def jsi_singly_resonant(cavity, pump, filters, grid, threads=1):
    """The cavity's joint spectral intensity, S_SR or (pump reflected) S_DR, on a real grid.

    The grid's signal and idler steps must be equal (ValueError otherwise);
    the rows are filled on `threads` threads, bit for bit alike at any count.
    """
    _warn_if_under_resolved(cavity, grid, "jsi_singly_resonant")
    return _jsi_on_grid(cavity, pump, filters, grid, threads)


class _Factors(NamedTuple):
    """Factors on one table: k l / 2, a weight and, for DR, a phasor of P.

    Photon: Airy x filter^2 and e^{i theta}.  Pump, on omega_s + omega_i:
    |alpha|^2 x pump Airy and e^{i(theta_p + delta_1s + delta_1i + delta_2p)}
    (cavity._balance_phase of theta_p).
    """

    k: np.ndarray
    weight: np.ndarray
    phasor: np.ndarray | None

    def view(self, index):
        """The same factors through one view (a slice, a broadcast or a gather)."""
        return _Factors(*(None if t is None else index(t) for t in self))


def _exchange_symmetric(cavity, filters, omega_s, omega_i):
    """Whether swapping signal and idler maps the source onto itself.

    True for equal signal and idler filters and mirrors and an idler table
    that is the signal table reversed: then the idler factors are the signal
    factors reversed, and a lattice reading the tables symmetrically holds
    each sample twice.
    """
    f_s, f_i = filters or (None, None)
    same_mirrors = all(cavity.mirror(nu, "signal") == cavity.mirror(nu, "idler") for nu in (1, 2))
    return f_s == f_i and same_mirrors and np.array_equal(omega_s, omega_i[::-1])


def _factor_tables(cavity, pump, filters, omega_s, omega_i, omega_p, rate=None):
    """Signal, idler and pump _Factors, each factor evaluated once per table entry.

    filters is a (signal, idler) pair or None; the pump Airy weight and P
    count when the cavity reflects the pump.  omega_p is the pump table, any
    1-D array of sums omega_s + omega_i: the rectangular grid's anti-diagonal
    sums or the stripe's omega_plus axis.  rate, if given, is a function of
    omega multiplied onto both photon weights.  An exchange-symmetric source
    reads the idler factors as the signal factors reversed.
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

    f_s, f_i = filters or (None, None)
    signal = photon(omega_s, "signal", f_s)
    if _exchange_symmetric(cavity, filters, omega_s, omega_i):
        idler = signal.view(lambda t: t[::-1])
    else:
        idler = photon(omega_i, "idler", f_i)
    n_p = refractive_index(cavity.crystal, omega_p, "extraordinary")
    weight_p = pump_envelope(pump, omega_p) ** 2
    phasor_p = None
    if cavity.reflects_pump:
        theta_p = _single_pass_phase(cavity, omega_p, n_p)
        delta_p = _round_trip_phase(cavity, theta_p, "pump")
        weight_p = weight_p * _airy_from_phase(cavity, "pump", delta_p)
        # the mirror phases of P's pass-to-pass phase ride on the pump phasor
        phasor_p = np.exp(1j * _balance_phase(cavity, theta_p))
    return signal, idler, _Factors(n_p * omega_p / c * half_l, weight_p, phasor_p)


def _intensity(cavity, signal, idler, pump):
    """S_SR, or S_DR when the pump carries phasors, from broadcastable factor views.

    Only sinc^2(k_p - k_s - k_i) and, for DR, the phase-balancing weight
    P = 1 + |r_2p|^2 + 2 |r_2p| Re(product of the three phasors) combine
    frequencies: the phase_balancing value without the sine of the large
    unfolded phase sum.
    """
    x = pump.k - signal.k - idler.k
    with np.errstate(invalid="ignore"):
        s = np.sin(x) / x
    s[x == 0.0] = 1.0
    s *= s
    s *= signal.weight
    s *= idler.weight
    s *= pump.weight
    if pump.phasor is not None:
        phasor = signal.phasor * idler.phasor
        phasor *= pump.phasor
        r = cavity.mirror(2, "pump").magnitude
        s *= (1.0 + r * r) + (2.0 * r) * phasor.real
    return s


def _jsi_on_grid(cavity, pump, filters, grid, threads):
    """The cavity's JSI on a rectangular grid: photon tables on the axes, pump on anti-diagonals.

    With equal signal and idler steps, omega_s_axis[j] + omega_i_axis[i]
    depends on i + j alone, so the pump table is the N_s + N_i - 1 sums
    along the first idler row and the last signal column, and the kernel
    reads it as table[i + j] through a Hankel view.  A grid whose steps
    differ by more than check_uniform_axis's tolerance raises ValueError.
    The kernel runs in blocks of idler rows on `threads` threads.
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
    values = np.empty((i_axis.size, s_axis.size))

    def fill(rows):
        values[rows] = _intensity(
            cavity,
            signal.view(lambda t: t[None, :]),
            idler.view(lambda t: t[rows, None]),
            plus.view(lambda t: sliding_window_view(t, s_axis.size)[rows]),
        )

    map_blocks(threads, fill, blocks(0, i_axis.size, _BLOCK_ROWS, threads))
    return SpectralGrid(s_axis, i_axis, values)


def marginal_spectrum(grid, axis):
    """Marginal density over one frequency axis of a real-valued grid.

    axis names the kept axis: 'signal' integrates over omega_i and returns a
    density on the signal axis, 'idler' the converse.
    """
    values = grid.values
    if np.iscomplexobj(values):
        raise ValueError("marginal_spectrum expects a real-valued grid")
    if axis == "signal":
        density = np.trapezoid(values, grid.omega_i_axis, axis=0)
        return Marginal(grid.omega_s_axis, density)
    if axis == "idler":
        density = np.trapezoid(values, grid.omega_s_axis, axis=1)
        return Marginal(grid.omega_i_axis, density)
    raise ValueError(f"axis must be 'signal' or 'idler', got {axis!r}")


def default_grid(center_s, center_i, halfwidth, samples=1024):
    """Empty square grid spanning center +- halfwidth on both axes."""
    s_axis = np.linspace(center_s - halfwidth, center_s + halfwidth, samples)
    i_axis = np.linspace(center_i - halfwidth, center_i + halfwidth, samples)
    return SpectralGrid(s_axis, i_axis, np.zeros((samples, samples)))
