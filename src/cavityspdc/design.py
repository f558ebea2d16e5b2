"""Six-step recipe turning an atomic-transition target into a source design.

Steps: (1) match the signal frequency to the transition, (2) pick the pump
and get the idler from energy conservation, (3) solve the crystal cut angle
for collinear phasematching, (4) set the cavity length L = l so that the
free spectral range expressed in wavelength at the signal equals the
mode-isolation threshold, (5) invert the mode-width relation to get the
mirror-2 reflectivity that matches the transition bandwidth, (6) cap the
pump bandwidth at sigma_max = delta_omega / sqrt(2 ln 2).

The published worked example quotes L = 220 um for a 0.5 nm isolation
threshold, about half of what the free-spectral-range relation yields with
the standard BBO index; design_source implements the relation verbatim and
report_design prints the reference value next to the computed one instead
of silently matching it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavity import (
    free_spectral_range,
    group_round_trip_time,
    mode_width,
    singly_resonant_cavity,
    solve_resonance_phases,
)
from .constants import c
from .dispersion import (
    BBO_EXTRAORDINARY,
    BBO_ORDINARY,
    CrystalSpec,
    phasematching_angle,
    refractive_index,
)
from .errors import InfeasibleDesignError
from .spectral import (
    PumpSpec,
    _jsi_stream,
    _warn_if_under_resolved,
    default_grid,
    fwhm_to_sigma,
    marginal_spectrum,
)

__all__ = [
    "DesignTarget",
    "DesignResult",
    "design_source",
    "designed_cavity",
    "spectral_check",
    "report_design",
    "PAPER_REFERENCE",
]

_CHECK_SAMPLES = 1025  # per axis of spectral_check's grid, +-40 mode widths

# Published Ca+ worked-example values, kept as a golden reference for reports.
PAPER_REFERENCE = {
    "cavity_length": 220e-6,
    "r2_magnitude": 0.9999,
    "finesse": 4e8,
}


@dataclass(frozen=True)
class DesignTarget:
    """Atomic-transition target for a singly-resonant photon-pair source.

    transition_bandwidth is the angular-frequency FWHM of the transition;
    delta_lambda_max is the smallest resonance separation (in wavelength at
    the signal) that still allows isolating a single cavity mode.
    """

    lambda_signal: float
    transition_bandwidth: float
    lambda_pump: float
    delta_lambda_max: float
    sellmeier_ordinary: tuple = BBO_ORDINARY
    sellmeier_extraordinary: tuple = BBO_EXTRAORDINARY

    def __post_init__(self):
        for name in ("lambda_signal", "transition_bandwidth", "lambda_pump", "delta_lambda_max"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not self.lambda_pump < self.lambda_signal:
            raise ValueError("pump wavelength must be shorter than the signal wavelength")


@dataclass(frozen=True)
class DesignResult:
    """Output of the design recipe (L = l throughout)."""

    lambda_idler: float
    cut_angle: float
    cavity_length: float
    r2_magnitude: float
    finesse: float
    sigma_max: float

    def __post_init__(self):
        if not 0.0 < self.r2_magnitude < 1.0:
            raise InfeasibleDesignError(
                f"required mirror reflectivity {self.r2_magnitude} is not realizable"
            )


def _crystal_for(target, cut_angle, length):
    return CrystalSpec(target.sellmeier_ordinary, target.sellmeier_extraordinary, cut_angle, length)


def design_source(target, pin_cavity_length=None):
    """Run the six-step recipe; pin_cavity_length overrides the step-4 length."""
    omega_s0 = 2 * np.pi * c / target.lambda_signal
    omega_p0 = 2 * np.pi * c / target.lambda_pump
    omega_i0 = omega_p0 - omega_s0
    if omega_i0 <= 0:
        raise InfeasibleDesignError("energy conservation gives a non-positive idler frequency")
    lambda_idler = 2 * np.pi * c / omega_i0

    probe = _crystal_for(target, 0.0, 1e-6)
    cut_angle = phasematching_angle(probe, omega_p0, omega_s0, omega_i0)

    # Step 4: free spectral range, as a wavelength separation at the signal,
    # equals the isolation threshold:  Delta_omega = 2 pi c dlam / lam^2 and
    # Delta_omega = pi c / (L n)  =>  L = lam^2 / (2 n dlam).
    n_signal = refractive_index(_crystal_for(target, cut_angle, 1e-6), omega_s0, "ordinary")
    cavity_length = target.lambda_signal**2 / (2 * n_signal * target.delta_lambda_max)
    if pin_cavity_length is not None:
        cavity_length = pin_cavity_length

    # Step 5: invert delta_omega = 2c/(L n) F^(-1/2), then F = 4r/(1-r)^2 for r.
    delta_omega = target.transition_bandwidth
    fsr = np.pi * c / (cavity_length * n_signal)
    if delta_omega >= fsr:
        raise InfeasibleDesignError(
            f"transition bandwidth {delta_omega:.3e} rad/s is not smaller than the "
            f"free spectral range {fsr:.3e} rad/s at L={cavity_length:.3e} m"
        )
    sqrt_finesse = 2 * c / (cavity_length * n_signal * delta_omega)
    finesse = sqrt_finesse**2
    r2 = (finesse + 2 - 2 * np.sqrt(finesse + 1)) / finesse

    sigma_max = fwhm_to_sigma(delta_omega)
    return DesignResult(lambda_idler, cut_angle, cavity_length, r2, finesse, sigma_max)


def designed_cavity(target, result):
    """Singly-resonant cavity realizing a design, phases solved on resonance."""
    crystal = _crystal_for(target, result.cut_angle, result.cavity_length)
    cavity = singly_resonant_cavity(result.cavity_length, crystal, result.r2_magnitude)
    omega_s0 = 2 * np.pi * c / target.lambda_signal
    omega_i0 = 2 * np.pi * c / result.lambda_idler
    return solve_resonance_phases(cavity, omega_s0, omega_i0)


def _marginal_fwhm(marginal):
    """FWHM of a single-peaked sampled density by linear interpolation."""
    x, y = marginal.axis, marginal.density
    k = int(np.argmax(y))
    half = y[k] / 2.0
    left = np.where(y[: k + 1] < half)[0]
    right = np.where(y[k:] < half)[0]
    if left.size == 0 or right.size == 0:
        raise ValueError("half maximum not reached inside the sampled window")
    a = left[-1]
    lo = x[a] + (x[a + 1] - x[a]) * (half - y[a]) / (y[a + 1] - y[a])
    b = k + right[0]
    hi = x[b - 1] + (x[b] - x[b - 1]) * (half - y[b - 1]) / (y[b] - y[b - 1])
    return hi - lo, x[k]


def spectral_check(target, result):
    """Fig.-style verification: signal marginal of the central cavity mode.

    Uses a pump much broader than the mode so the marginal shape reduces to
    the signal Airy peak (a broader pump changes brightness, not the emitted
    spectrum).  The JSI's row blocks stream into the signal marginal, so the
    check grid is never held whole.  Returns (fwhm, center) of the signal
    marginal in rad/s.
    """
    cavity = designed_cavity(target, result)
    omega_s0 = 2 * np.pi * c / target.lambda_signal
    omega_i0 = 2 * np.pi * c / result.lambda_idler
    delta_omega = mode_width(cavity, omega_s0, "signal")
    pump = PumpSpec(omega_s0 + omega_i0, 20.0 * delta_omega)
    grid = default_grid(omega_s0, omega_i0, 40.0 * delta_omega, _CHECK_SAMPLES)
    _warn_if_under_resolved(cavity, grid, "spectral_check")
    stream = _jsi_stream(cavity, pump, None, grid)
    fwhm, center = _marginal_fwhm(marginal_spectrum(stream, "signal"))
    return fwhm, center


def report_design(target, result, check=None):
    """Human-readable design report with the achieved cavity figures.

    check may be a precomputed (fwhm, center) pair from spectral_check; when
    omitted the verification grid is computed here.
    """
    omega_s0 = 2 * np.pi * c / target.lambda_signal
    cavity = designed_cavity(target, result)
    delta_omega = mode_width(cavity, omega_s0, "signal")
    fsr = free_spectral_range(cavity, omega_s0)
    if check is None:
        check = spectral_check(target, result)
    fwhm, center = check
    lam_center = 2 * np.pi * c / center
    fsr_lambda = fsr * target.lambda_signal**2 / (2 * np.pi * c)
    # the Airy resonances are 2 pi / tau_g apart, tau_g the group round trip
    tau_g = group_round_trip_time(cavity, omega_s0)
    spacing_lambda = target.lambda_signal**2 / (c * tau_g)
    spacing_note = ""
    if spacing_lambda < target.delta_lambda_max:
        spacing_note = (f"; below the {target.delta_lambda_max * 1e9:.4f} nm "
                        "isolation threshold")
    ref = PAPER_REFERENCE

    lines = [
        "source design report",
        "====================",
        f"1. signal wavelength      : {target.lambda_signal * 1e9:.4f} nm "
        f"(transition FWHM {target.transition_bandwidth:.6e} rad/s)",
        f"2. pump wavelength        : {target.lambda_pump * 1e9:.4f} nm  ->  "
        f"idler wavelength {result.lambda_idler * 1e9:.4f} nm",
        f"3. crystal cut angle      : {np.degrees(result.cut_angle):.4f} deg",
        f"4. cavity length (L = l)  : {result.cavity_length * 1e6:.4f} um "
        f"for mode isolation threshold {target.delta_lambda_max * 1e9:.4f} nm",
        f"5. mirror 2 reflectivity  : {result.r2_magnitude:.6f} "
        f"(coefficient of finesse {result.finesse:.6e})",
        f"6. pump bandwidth limit   : sigma_max = {result.sigma_max:.6e} rad/s",
        "",
        "achieved cavity figures",
        f"  mode width delta_omega  : {delta_omega:.6e} rad/s "
        f"({delta_omega / (2 * np.pi) / 1e6:.3f} MHz cyclic)",
        f"  free spectral range     : {fsr:.6e} rad/s "
        f"({fsr_lambda * 1e9:.4f} nm at the signal wavelength)",
        f"  resonance spacing       : {2 * np.pi / tau_g:.6e} rad/s "
        f"({spacing_lambda * 1e9:.4f} nm, 2 pi / group round trip{spacing_note})",
        "",
        "spectral check (broad-pump signal marginal of the central mode)",
        f"  center                  : {lam_center * 1e9:.4f} nm",
        f"  FWHM                    : {fwhm:.6e} rad/s "
        f"(target {target.transition_bandwidth:.6e} rad/s, "
        f"ratio {fwhm / target.transition_bandwidth:.4f})",
        "",
        "published worked-example reference",
        f"  cavity length           : {ref['cavity_length'] * 1e6:.1f} um "
        f"(computed {result.cavity_length * 1e6:.4f} um; the free-spectral-range "
        "relation gives about twice the published length)",
        f"  mirror 2 reflectivity   : {ref['r2_magnitude']} "
        f"(computed {result.r2_magnitude:.6f})",
        f"  coefficient of finesse  : {ref['finesse']:.3e} (computed {result.finesse:.3e})",
    ]
    return "\n".join(lines) + "\n"
