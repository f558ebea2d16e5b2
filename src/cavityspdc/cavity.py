"""Per-mode cavity quantities: phases, Airy weights, finesse, mode geometry.

The cavity holds a crystal of length l inside mirrors separated by L >= l.
Mirror 1 faces the pump input, mirror 2 the output.  For each mode
mu in {signal, idler, pump} and mirror nu in {1, 2} a complex amplitude
reflectivity r = |r| exp(i delta) is stored; transmissivities follow the
lossless relation |t|^2 = 1 - |r|^2.

The cavity model, which CavitySpec enforces: mirror 1 fully reflects each
photon that mirror 2 or a pump-reflecting cavity sends back.  Each mode then
has one loop reflectivity r (CavitySpec.loop_reflectivity), |r_2mu| for
signal and idler and |r_1p| |r_2p| for the pump; r sets the mode's
coefficient of finesse F, and mode_width is the one resonance rule: a
mode with F = 0 has a flat Airy weight and an infinite width.

Round-trip phase factor of every mode (signal, idler and pump):

    Delta_mu(omega) = 2 theta_mu(omega) + delta_1mu + delta_2mu

with theta_mu = omega (L - l)/c + l n_mu(omega) omega / c the single-pass
phase.  The paper's extra-cavity phase rate Gamma_mu is set to zero, a pure
relabeling of the mirror phase origin: its literal frozen-slowness form
2 k'(omega_0) L omega would cancel the round-trip phase slope near the band
center and with it the whole resonance comb.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .constants import c
from .dispersion import group_slowness, polarization_for_mode, refractive_index
from .errors import DivergenceError

__all__ = [
    "MODES",
    "MirrorSpec",
    "CavitySpec",
    "singly_resonant_cavity",
    "single_pass_phase",
    "round_trip_phase_mismatch",
    "coefficient_of_finesse",
    "airy",
    "mode_width",
    "free_spectral_range",
    "group_round_trip_time",
    "solve_resonance_phases",
]

MODES = ("signal", "idler", "pump")
_TWO_PI = 2 * np.pi


@dataclass(frozen=True)
class MirrorSpec:
    """Amplitude reflectivity |r| exp(i delta) of one mirror for one mode."""

    magnitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.magnitude <= 1.0:
            raise ValueError(f"reflectivity magnitude must lie in [0, 1], got {self.magnitude}")
        if not np.isfinite(self.phase):
            raise ValueError(f"mirror phase must be finite, got {self.phase}")

    @property
    def transmissivity(self):
        """Lossless |t| = sqrt(1 - |r|^2)."""
        return float(np.sqrt(1.0 - self.magnitude**2))


@dataclass(frozen=True)
class CavitySpec:
    """Cavity geometry plus the full (mirror, mode) reflectivity table.

    mirrors maps (nu, mode) with nu in {1, 2} and mode in MODES to a
    MirrorSpec.  Missing entries default to a perfectly transmissive mirror.
    Construction enforces the cavity model: |r_1s| and |r_1i| equal 1
    whenever mirror 2 reflects that photon or the cavity reflects_pump
    (ValueError naming r_1s or r_1i otherwise).
    """

    length_L: float
    crystal: object
    mirrors: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.crystal.length_l <= self.length_L < np.inf:
            raise ValueError(
                f"cavity length {self.length_L} must be finite and at least the crystal "
                f"length {self.crystal.length_l}"
            )
        for key in self.mirrors:
            nu, mode = key
            if nu not in (1, 2) or mode not in MODES:
                raise ValueError(f"bad mirror key {key!r}")
        for mode in ("signal", "idler"):
            r1 = self.mirror(1, mode).magnitude
            if r1 != 1.0 and (self.loop_reflectivity(mode) > 0 or self.reflects_pump):
                raise ValueError(
                    f"the cavity model needs |r_1{mode[0]}| = 1 when mirror 2 reflects the "
                    f"{mode} or a mirror reflects the pump, got |r_1{mode[0]}| = {r1}"
                )

    def mirror(self, nu, mode):
        return self.mirrors.get((nu, mode), MirrorSpec(0.0))

    def loop_reflectivity(self, mode):
        """Reflectivity r of one cavity loop, setting F = 4 r / (1 - r)^2.

        |r_2mu| for signal and idler, whose mirror 1 is perfect, and
        |r_1p| |r_2p| for the pump.
        """
        if mode == "pump":
            return self.mirror(1, "pump").magnitude * self.mirror(2, "pump").magnitude
        return self.mirror(2, mode).magnitude

    @property
    def reflects_pump(self):
        """Whether a mirror reflects the pump: the one test of a doubly-resonant cavity."""
        return any(self.mirror(nu, "pump").magnitude > 0 for nu in (1, 2))

    def with_mirror(self, nu, mode, magnitude=None, phase=None):
        """Copy of the spec with one mirror entry replaced."""
        old = self.mirror(nu, mode)
        new = MirrorSpec(
            old.magnitude if magnitude is None else magnitude,
            old.phase if phase is None else phase,
        )
        mirrors = dict(self.mirrors)
        mirrors[(nu, mode)] = new
        return replace(self, mirrors=mirrors)


def singly_resonant_cavity(length_L, crystal, r2_signal, r2_idler=None):
    """Singly-resonant preset: mirror 1 perfect for SPDC, both mirrors open for the pump."""
    if r2_idler is None:
        r2_idler = r2_signal
    mirrors = {
        (1, "signal"): MirrorSpec(1.0),
        (1, "idler"): MirrorSpec(1.0),
        (2, "signal"): MirrorSpec(r2_signal),
        (2, "idler"): MirrorSpec(r2_idler),
        (1, "pump"): MirrorSpec(0.0),
        (2, "pump"): MirrorSpec(0.0),
    }
    return CavitySpec(length_L, crystal, mirrors)


def single_pass_phase(cavity, omega, mode):
    """Phase theta_mu = omega (L - l)/c + l n_mu(omega) omega / c for one cavity pass."""
    n = refractive_index(cavity.crystal, omega, polarization_for_mode(mode))
    return _single_pass_phase(cavity, omega, n)


def _single_pass_phase(cavity, omega, n):
    """theta_mu from the index n = n_mu(omega) already evaluated at omega."""
    crystal = cavity.crystal
    omega = np.asarray(omega, dtype=float)
    theta = omega * (cavity.length_L - crystal.length_l) / c + crystal.length_l * n * omega / c
    return theta if theta.ndim else float(theta)


def round_trip_phase_mismatch(cavity, omega, mode):
    """Phase factor Delta_mu(omega) = 2 theta_mu + delta_1mu + delta_2mu.

    Resonances sit at even multiples of pi.  Returned unfolded (no 2 pi
    reduction).
    """
    return _round_trip_phase(cavity, single_pass_phase(cavity, omega, mode), mode)


def _round_trip_phase(cavity, theta, mode):
    """Delta_mu from the single-pass phase theta_mu."""
    d1 = cavity.mirror(1, mode).phase
    d2 = cavity.mirror(2, mode).phase
    return 2.0 * theta + d1 + d2


def _balance_phase(cavity, theta_sum):
    """Pass-to-pass phase Delta = theta_s + theta_i + theta_p + delta_1s + delta_1i + delta_2p.

    theta_sum is theta_s + theta_i + theta_p, or theta_p alone for the
    intensity model's pump phasor, whose photon phases ride on phasors of
    their own.  The one place the mirror phases of Delta are added: the
    resonance solver zeroes Delta, and P and the DR closed forms read it.
    """
    return (
        theta_sum
        + cavity.mirror(1, "signal").phase
        + cavity.mirror(1, "idler").phase
        + cavity.mirror(2, "pump").phase
    )


def _convergent_loop(cavity, mode):
    """The mode's loop reflectivity r, below 1; DivergenceError at r = 1.

    Every geometric sum over the mode's cavity loops, and so its Airy
    weight, finesse and amplitude factors, diverges at r = 1.
    """
    r_eff = cavity.loop_reflectivity(mode)
    if r_eff >= 1.0:
        loop = "|r_1p r_2p|" if mode == "pump" else f"|r_2{mode[0]}|"
        raise DivergenceError(f"the {mode} loop sum diverges at {loop} = 1")
    return r_eff


def coefficient_of_finesse(r_eff):
    """Coefficient of finesse F = 4 r / (1 - r)^2 for effective reflectivity r.

    r_eff is a mode's CavitySpec.loop_reflectivity.
    """
    if not 0.0 <= r_eff < 1.0:
        if r_eff == 1.0:
            raise DivergenceError("coefficient of finesse diverges at unit reflectivity")
        raise ValueError(f"effective reflectivity must lie in [0, 1), got {r_eff}")
    return 4.0 * r_eff / (1.0 - r_eff) ** 2


def _airy_from_phase(cavity, mode, delta):
    """Airy weight A_mu at the round-trip phase factor Delta_mu (see airy)."""
    r_eff = _convergent_loop(cavity, mode)
    # port: the mirror the light crosses, mirror 1 into the cavity for the
    # pump and mirror 2 out of it for signal and idler
    port = cavity.mirror(1 if mode == "pump" else 2, mode)
    fin = coefficient_of_finesse(r_eff)
    prefactor = port.transmissivity**2 / (1.0 - r_eff) ** 2
    return prefactor / (1.0 + fin * np.sin(delta / 2.0) ** 2)


def airy(omega, mode, cavity):
    """Airy weight A_mu(omega) selecting the cavity-resonant frequencies.

    SPDC modes: |t_2|^2/(1-|r_2|)^2 / (1 + F sin^2(Delta/2)).  The pump
    variant uses |t_1p|^2/(1-|r_1p r_2p|)^2 and the pump phase factor.
    """
    return _airy_from_phase(cavity, mode, round_trip_phase_mismatch(cavity, omega, mode))


def _optical_length(cavity, omega0, mode):
    n0 = refractive_index(cavity.crystal, omega0, polarization_for_mode(mode))
    l = cavity.crystal.length_l
    return l * n0 + (cavity.length_L - l)


def mode_width(cavity, omega0, mode):
    """FWHM of one cavity resonance: delta_omega = 2c/(l n + (L - l)) F^(-1/2).

    np.inf when F = 0, before the index is read: a mode that does not
    resonate drops out of every min over scales and resolves on any grid.
    """
    fin = coefficient_of_finesse(_convergent_loop(cavity, mode))
    if fin == 0.0:
        return np.inf
    return 2.0 * c / _optical_length(cavity, omega0, mode) / np.sqrt(fin)


def free_spectral_range(cavity, omega0, mode="signal"):
    """Resonance spacing Delta_omega = pi c / (l n(omega0) + (L - l))."""
    return np.pi * c / _optical_length(cavity, omega0, mode)


def group_round_trip_time(cavity, omega0):
    """Group round trip 2 (l k'(omega0) + (L - l)/c): the comb spacing in t_minus."""
    crystal = cavity.crystal
    kp0 = group_slowness(crystal, omega0, "ordinary")
    return 2 * (crystal.length_l * kp0 + (cavity.length_L - crystal.length_l) / c)


def _smallest_nonnegative(phase, period=_TWO_PI):
    out = phase % period
    # Guard against the float wrap 2*pi -> 0 expectation at exact multiples.
    if abs(out - period) < 1e-12:
        out = 0.0
    return out


def solve_resonance_phases(cavity, omega_s0, omega_i0, omega_p0=None):
    """Mirror phases putting the cavity on resonance at the band centers.

    Always enforces Delta_s(omega_s0) = 0 and Delta_i(omega_i0) = 0 (mod
    2 pi).  When omega_p0 is given, additionally enforces the doubly-resonant
    conditions Delta_p(omega_p0) = 0 (mod 2 pi) and the pass-to-pass balance
    theta_s + theta_i + theta_p + delta_1s + delta_1i + delta_2p = 0 (mod
    2 pi), the even-multiple branch that maximizes the phase-balancing
    factor.  Solved phases are the smallest non-negative values.  Each
    condition sets one phase: delta_2p (balance), delta_1p (pump resonance),
    delta_2s and delta_2i.
    """

    def solve_condition(cav, nu, mode, residual_fn):
        needed = _smallest_nonnegative(cav.mirror(nu, mode).phase - residual_fn(cav))
        return cav.with_mirror(nu, mode, phase=needed)

    out = cavity
    # Pass-to-pass balance first: it fixes delta_2p, which Delta_p then absorbs.
    if omega_p0 is not None:
        theta_sum = (
            single_pass_phase(out, omega_s0, "signal")
            + single_pass_phase(out, omega_i0, "idler")
            + single_pass_phase(out, omega_p0, "pump")
        )
        out = solve_condition(out, 2, "pump", lambda cav: _balance_phase(cav, theta_sum))
        out = solve_condition(
            out, 1, "pump", lambda cav: round_trip_phase_mismatch(cav, omega_p0, "pump")
        )
    out = solve_condition(
        out, 2, "signal", lambda cav: round_trip_phase_mismatch(cav, omega_s0, "signal")
    )
    return solve_condition(
        out, 2, "idler", lambda cav: round_trip_phase_mismatch(cav, omega_i0, "idler")
    )
