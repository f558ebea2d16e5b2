"""Doubly-resonant cavity: pump-pass amplitude sums, pump Airy weight, S_DR.

When the pump is also resonant, each pass j of the pump pulse through the
cavity contributes a pair amplitude g^(j).  Grouping passes pairwise gives a
geometric series in q = r_1p r_2p e^{i 2 theta_p}; its closed forms are

    f_DR^(1+2n) = t_1p e^{i gamma_p} [1 + (Y r_1p) r_2p e^{i 2 theta_p}
                   (1 - q^n)/(1 - q)] f_SR,
    f_DR        = t_1p e^{i gamma_p}
                   (1 + r_2p r_1s r_1i e^{i(theta_si + theta_p)})/(1 - q) f_SR,

with Y = 1 + r_1p^{-1} r_1s r_1i e^{i(theta_si - theta_p)}.  Y itself
diverges at r_1p = 0, so the code only forms the pre-multiplied product
Y r_1p, which stays finite there.

The intensity factorizes as S_DR = A_s A_i A_p(omega_s + omega_i) P |f|^2,
where P is the phase-balancing weight between consecutive pump passes; the
spectral module's table model evaluates it for every cavity that reflects
the pump, so jsi_doubly_resonant is jsi_singly_resonant by another name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavity import single_pass_phase
from .errors import DivergenceError
from .spectral import _gamma_free_space, _jsa_sr_pointwise, _jsi_on_grid, _warn_if_under_resolved

__all__ = [
    "DrPhaseContext",
    "jsa_dr_partial",
    "jsa_dr_limit",
    "phase_balancing",
    "jsi_doubly_resonant",
]


@dataclass(frozen=True, eq=False)
class DrPhaseContext:
    """Single-pass phases and mirror phases entering the pump-pass sums.

    theta_p and gamma_p are evaluated at omega_p = omega_s + omega_i; the
    mirror phases are the delta_{nu mu} of the underlying cavity.
    """

    theta_s: object
    theta_i: object
    theta_p: object
    gamma_p: object
    delta_1s: float = 0.0
    delta_1i: float = 0.0
    delta_1p: float = 0.0
    delta_2p: float = 0.0

    @property
    def theta_si(self):
        return self.theta_s + self.theta_i

    @classmethod
    def from_cavity(cls, cavity, omega_s, omega_i):
        omega_s = np.asarray(omega_s, dtype=float)
        omega_i = np.asarray(omega_i, dtype=float)
        omega_p = omega_s + omega_i
        return cls(
            theta_s=single_pass_phase(cavity, omega_s, "signal"),
            theta_i=single_pass_phase(cavity, omega_i, "idler"),
            theta_p=single_pass_phase(cavity, omega_p, "pump"),
            gamma_p=_gamma_free_space(cavity, omega_p),
            delta_1s=cavity.mirror(1, "signal").phase,
            delta_1i=cavity.mirror(1, "idler").phase,
            delta_1p=cavity.mirror(1, "pump").phase,
            delta_2p=cavity.mirror(2, "pump").phase,
        )


def _r1_si_product(ctx, cavity):
    """Complex r_1s r_1i from the cavity, with the phases mirrored in ctx."""
    m1s = cavity.mirror(1, "signal")
    m1i = cavity.mirror(1, "idler")
    return (
        m1s.magnitude * m1i.magnitude * np.exp(1j * (ctx.delta_1s + ctx.delta_1i))
    )


def _pump_round_trip(ctx, cavity):
    """q = r_1p r_2p e^{i 2 theta_p} and the grouped product Y r_1p."""
    r1p = cavity.mirror(1, "pump")
    r2p = cavity.mirror(2, "pump")
    if cavity.loop_reflectivity("pump") >= 1.0:
        raise DivergenceError("pump geometric sum diverges at |r_1p r_2p| = 1")
    r1p_c = r1p.magnitude * np.exp(1j * ctx.delta_1p)
    r2p_c = r2p.magnitude * np.exp(1j * ctx.delta_2p)
    q = r1p_c * r2p_c * np.exp(2j * ctx.theta_p)
    y_r1p = r1p_c + _r1_si_product(ctx, cavity) * np.exp(1j * (ctx.theta_si - ctx.theta_p))
    return q, y_r1p, r2p_c, r1p.transmissivity


def jsa_dr_partial(cavity, pump, filters, omega_s, omega_i, n_groups):
    """Joint amplitude after the first 1 + 2 n_groups pump passes."""
    if n_groups < 0:
        raise ValueError("n_groups must be non-negative")
    ctx = DrPhaseContext.from_cavity(cavity, omega_s, omega_i)
    q, y_r1p, r2p_c, t1p = _pump_round_trip(ctx, cavity)
    if n_groups == 0:
        bracket = 1.0
    else:
        geom = (1.0 - q**n_groups) / (1.0 - q)
        bracket = 1.0 + y_r1p * r2p_c * np.exp(2j * ctx.theta_p) * geom
    f_sr = _jsa_sr_pointwise(cavity, pump, filters, omega_s, omega_i)
    return t1p * np.exp(1j * ctx.gamma_p) * bracket * f_sr


def jsa_dr_limit(cavity, pump, filters, omega_s, omega_i):
    """Joint amplitude in the extinguished-pump limit (infinitely many passes)."""
    ctx = DrPhaseContext.from_cavity(cavity, omega_s, omega_i)
    q, _, r2p_c, t1p = _pump_round_trip(ctx, cavity)
    r1si = _r1_si_product(ctx, cavity)
    numerator = 1.0 + r2p_c * r1si * np.exp(1j * (ctx.theta_si + ctx.theta_p))
    return (
        t1p
        * np.exp(1j * ctx.gamma_p)
        * numerator
        / (1.0 - q)
        * _jsa_sr_pointwise(cavity, pump, filters, omega_s, omega_i)
    )


def phase_balancing(ctx, r_2p_magnitude):
    """Phase-balancing weight P between pair amplitudes of consecutive pump passes.

    P = (1 + |r_2p|)^2 (1 - 4 |r_2p| / (1 + |r_2p|)^2 sin^2(Delta / 2)) with
    Delta = theta_s + theta_i + theta_p + delta_1s + delta_1i + delta_2p,
    bounded by (1 - |r_2p|)^2 <= P <= (1 + |r_2p|)^2.
    """
    if not 0.0 <= r_2p_magnitude <= 1.0:
        raise ValueError(f"|r_2p| must lie in [0, 1], got {r_2p_magnitude}")
    delta = ctx.theta_si + ctx.theta_p + ctx.delta_1s + ctx.delta_1i + ctx.delta_2p
    plus = (1.0 + r_2p_magnitude) ** 2
    return plus * (1.0 - 4.0 * r_2p_magnitude / plus * np.sin(np.asarray(delta) / 2.0) ** 2)


def jsi_doubly_resonant(cavity, pump, filters, grid, threads=1):
    """The cavity's joint spectral intensity, S_DR = A_s A_i A_p P |f|^2 if it reflects the pump.

    The factored form assumes unit-magnitude mirror-1 reflectivities for the
    SPDC modes (the singly-resonant preset); then it equals |f_DR|^2 exactly.
    A cavity that breaks the assumption raises ValueError when it is built
    (CavitySpec), and a grid whose signal and idler steps differ raises it
    here.  The rows are filled on `threads` threads, bit for bit alike at
    any count.
    """
    _warn_if_under_resolved(cavity, grid, "jsi_doubly_resonant")
    return _jsi_on_grid(cavity, pump, filters, grid, threads)
