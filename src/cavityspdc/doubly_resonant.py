"""Doubly-resonant cavity: pump-pass amplitude sums, phase balancing, S_DR.

When the pump is also resonant, each pass j of the pump pulse through the
cavity contributes a pair amplitude g^(j).  Grouping passes pairwise gives a
geometric series in the pump loop q = r_1p r_2p e^{i 2 theta_p}; its closed
forms are

    f_DR^(1+2n) = t_1p e^{i gamma_p} [1 + (q + b)(1 - q^n)/(1 - q)] f_SR,
    f_DR        = t_1p e^{i gamma_p} (1 + b)/(1 - q) f_SR,

with b = r_1s r_1i r_2p e^{i(theta_si + theta_p)} = |r_2p| e^{i Delta}: the
cavity model (CavitySpec) makes |r_1s| = |r_1i| = 1 whenever a mirror
reflects the pump.  The paper writes q + b as Y r_1p r_2p e^{i 2 theta_p}
with Y = 1 + r_1p^{-1} r_1s r_1i e^{i(theta_si - theta_p)}, which diverges at
r_1p = 0; q + b stays finite there.  Delta is the pass-to-pass phase
theta_s + theta_i + theta_p + delta_1s + delta_1i + delta_2p, defined once,
by cavity._balance_phase.  Both closed forms and the phase-balancing weight
P read the cavity itself: the single-pass phases from single_pass_phase,
gamma_p from the free-space path and every reflectivity from its mirror
table.

The intensity factorizes as S_DR = A_s A_i A_p(omega_s + omega_i) P |f|^2,
where P = |1 + b|^2 is the phase-balancing weight between consecutive pump
passes; the spectral module's table model evaluates it for every cavity
that reflects the pump, so jsi_doubly_resonant is jsi_singly_resonant by
another name.
"""

from __future__ import annotations

import numpy as np

from .cavity import _balance_phase, _convergent_loop, _round_trip_phase, single_pass_phase
from .spectral import (
    _collect_rows,
    _free_space_phasor,
    _jsa_sr_pointwise,
    _jsi_stream,
    _warn_if_under_resolved,
)

__all__ = [
    "jsa_dr_partial",
    "jsa_dr_limit",
    "phase_balancing",
    "jsi_doubly_resonant",
]


def _balance(cavity, omega_s, omega_i):
    """Delta and theta_p at omega_p = omega_s + omega_i."""
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    theta_p = single_pass_phase(cavity, omega_s + omega_i, "pump")
    theta_sum = (
        single_pass_phase(cavity, omega_s, "signal")
        + single_pass_phase(cavity, omega_i, "idler")
        + theta_p
    )
    return _balance_phase(cavity, theta_sum), theta_p


def _pump_passes(cavity, pump, filters, omega_s, omega_i):
    """The pump loop q, b and the first pass t_1p e^{i gamma_p} f_SR (module docstring)."""
    delta, theta_p = _balance(cavity, omega_s, omega_i)
    q = _convergent_loop(cavity, "pump") * np.exp(1j * _round_trip_phase(cavity, theta_p, "pump"))
    b = cavity.mirror(2, "pump").magnitude * np.exp(1j * delta)
    phasor = _free_space_phasor(cavity, np.add(omega_s, omega_i))
    first = cavity.mirror(1, "pump").transmissivity * phasor
    return q, b, first * _jsa_sr_pointwise(cavity, pump, filters, omega_s, omega_i)


def jsa_dr_partial(cavity, pump, filters, omega_s, omega_i, n_groups):
    """Joint amplitude after the first 1 + 2 n_groups pump passes."""
    if n_groups < 0:
        raise ValueError("n_groups must be non-negative")
    q, b, first = _pump_passes(cavity, pump, filters, omega_s, omega_i)
    if n_groups == 0:
        return first
    return (1.0 + (q + b) * (1.0 - q**n_groups) / (1.0 - q)) * first


def jsa_dr_limit(cavity, pump, filters, omega_s, omega_i):
    """Joint amplitude in the extinguished-pump limit (infinitely many passes)."""
    q, b, first = _pump_passes(cavity, pump, filters, omega_s, omega_i)
    return (1.0 + b) / (1.0 - q) * first


def phase_balancing(cavity, omega_s, omega_i):
    """Phase-balancing weight P between pair amplitudes of consecutive pump passes.

    P = (1 + |r_2p|)^2 (1 - 4 |r_2p| / (1 + |r_2p|)^2 sin^2(Delta / 2)) with
    Delta = theta_s + theta_i + theta_p + delta_1s + delta_1i + delta_2p
    (cavity._balance_phase) at omega_p = omega_s + omega_i, bounded by
    (1 - |r_2p|)^2 <= P <= (1 + |r_2p|)^2.
    """
    delta, _ = _balance(cavity, omega_s, omega_i)
    r2p = cavity.mirror(2, "pump").magnitude
    plus = (1.0 + r2p) ** 2
    return plus * (1.0 - 4.0 * r2p / plus * np.sin(delta / 2.0) ** 2)


def jsi_doubly_resonant(cavity, pump, filters, grid):
    """The cavity's joint spectral intensity, S_DR = A_s A_i A_p P |f|^2 if it reflects the pump.

    The factored form assumes unit-magnitude mirror-1 reflectivities for the
    SPDC modes (the singly-resonant preset); then it equals |f_DR|^2 exactly.
    A cavity that breaks the assumption raises ValueError when it is built
    (CavitySpec), as a grid with unequal signal and idler steps does here.
    """
    _warn_if_under_resolved(cavity, grid, "jsi_doubly_resonant")
    return _collect_rows(_jsi_stream(cavity, pump, filters, grid))
