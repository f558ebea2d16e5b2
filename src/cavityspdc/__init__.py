"""Photon-pair generation by SPDC in singly- and doubly-resonant nonlinear cavities.

Numerical models for the joint spectral amplitude of cavity-enhanced
spontaneous parametric downconversion, the resulting temporal correlation
structure, source brightness under pump/cavity parameter sweeps, and a
design recipe for narrowband pair sources matched to atomic transitions.
"""

__version__ = "0.1.0"

from .brightness import (
    BrightnessResult,
    SweepTable,
    brightness_from_cavity,
    brightness_vs_r1p_sweep,
    brightness_vs_sigma_sweep,
    plateau_brightness_vs_r2,
)
from .cavity import (
    CavitySpec,
    MirrorSpec,
    airy,
    coefficient_of_finesse,
    free_spectral_range,
    group_round_trip_time,
    mode_width,
    round_trip_phase_mismatch,
    single_pass_phase,
    singly_resonant_cavity,
    solve_resonance_phases,
)
from .design import (
    DesignResult,
    DesignTarget,
    design_source,
    designed_cavity,
    report_design,
    spectral_check,
)
from .dispersion import (
    BBO_EXTRAORDINARY,
    BBO_ORDINARY,
    CrystalSpec,
    bbo,
    group_slowness,
    phasematching_angle,
    refractive_index,
    wavevector,
)
from .doubly_resonant import (
    jsa_dr_limit,
    jsa_dr_partial,
    jsi_doubly_resonant,
    phase_balancing,
)
from .spectral import (
    FilterSpec,
    Marginal,
    PumpSpec,
    SpectralGrid,
    default_grid,
    fwhm_to_sigma,
    jsa_bare,
    jsa_singly_resonant,
    jsi_singly_resonant,
    marginal_spectrum,
    phasematching,
    pump_envelope,
    sr_amplitude_factor,
    sr_amplitude_factor_finite,
    wavelength_fwhm_to_angular,
)
from .temporal import (
    PeakSet,
    RotatedGrid,
    TemporalGrid,
    check_minus_window,
    correlation_time,
    extract_peaks,
    joint_temporal_intensity,
    jsa_singly_resonant_rotated,
    rotated_lattice_axes,
    time_difference_marginal,
)
