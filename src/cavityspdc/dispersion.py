"""Crystal dispersion: refractive index, wavevector, group slowness, phasematching.

Sellmeier formulas take the wavelength in micrometers; every API boundary
uses angular frequency in rad/s.  Uniaxial crystals only: the extraordinary
index at the cut angle follows the index ellipse

    1/n^2(theta) = cos^2(theta)/n_o^2 + sin^2(theta)/n_e^2.

Type-I geometry is fixed as e -> o + o: the pump propagates as extraordinary
at the cut angle, signal and idler as ordinary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import c
from .errors import DispersionWindowError, NotPhasematchableError

__all__ = [
    "BBO_ORDINARY",
    "BBO_EXTRAORDINARY",
    "CrystalSpec",
    "bbo",
    "refractive_index",
    "wavevector",
    "group_slowness",
    "phasematching_angle",
    "polarization_for_mode",
]

# Sellmeier coefficient sets (a, b, c, d):  n^2 = a + b / (lam^2 + c) + d * lam^2
# with lam in micrometers.  Values below are the widely used set for beta-BBO.
BBO_ORDINARY = (2.7405, 0.0184, -0.0179, -0.0155)
BBO_EXTRAORDINARY = (2.3730, 0.0128, -0.0156, -0.0044)


def _sellmeier_n2(coefficients, lam_um):
    a, b, cc, d = coefficients
    return a + b / (lam_um**2 + cc) + d * lam_um**2


def _sellmeier_slope(coefficients, lam_um):
    """lam dn^2/dlam of one Sellmeier set: 2 lam^2 (d - b / (lam^2 + c)^2)."""
    _, b, cc, d = coefficients
    return 2 * lam_um**2 * (d - b / (lam_um**2 + cc) ** 2)


def _ellipse(theta, n_o2, n_e2):
    """Index at angle theta to the optic axis from the principal n_o^2 and n_e^2."""
    return 1.0 / np.sqrt(np.cos(theta) ** 2 / n_o2 + np.sin(theta) ** 2 / n_e2)


@dataclass(frozen=True)
class CrystalSpec:
    """Uniaxial nonlinear crystal: dispersion model, cut angle and length.

    Attributes
    ----------
    sellmeier_ordinary, sellmeier_extraordinary:
        Four-coefficient sets (a, b, c, d) for n^2 = a + b/(lam^2+c) + d lam^2,
        lam in micrometers.
    cut_angle:
        Angle between the optic axis and the propagation direction, radians.
    length_l:
        Crystal length in meters.
    window_um:
        Validity window of the Sellmeier model, micrometers (lo, hi).
    """

    sellmeier_ordinary: tuple
    sellmeier_extraordinary: tuple
    cut_angle: float
    length_l: float
    window_um: tuple = (0.2, 1.1)

    def __post_init__(self):
        if not self.length_l > 0:
            raise ValueError(f"crystal length must be positive, got {self.length_l}")
        if not 0.0 <= self.cut_angle <= np.pi / 2:
            raise ValueError(f"cut angle must lie in [0, pi/2], got {self.cut_angle}")
        lo, hi = self.window_um
        if not 0 < lo < hi:
            raise ValueError(f"invalid validity window {self.window_um}")
        # The model must stay real and physical across its declared window.
        lam = np.linspace(lo, hi, 64)
        for coeffs in (self.sellmeier_ordinary, self.sellmeier_extraordinary):
            if not np.all(_sellmeier_n2(coeffs, lam) > 1.0):
                raise ValueError("Sellmeier model gives n^2 <= 1 inside the validity window")

    @property
    def omega_window(self):
        """Validity window translated to angular frequency (rad/s), (lo, hi)."""
        lo_um, hi_um = self.window_um
        return (2 * np.pi * c / (hi_um * 1e-6), 2 * np.pi * c / (lo_um * 1e-6))


def bbo(cut_angle, length_l):
    """BBO crystal with the built-in Sellmeier sets."""
    return CrystalSpec(BBO_ORDINARY, BBO_EXTRAORDINARY, cut_angle, length_l)


def polarization_for_mode(mode):
    """Polarization of a cavity mode under the type-I e -> o + o convention."""
    if mode in ("signal", "idler"):
        return "ordinary"
    if mode == "pump":
        return "extraordinary"
    raise ValueError(f"unknown mode {mode!r}")


def _check_window(crystal, omega):
    lo, hi = crystal.omega_window
    omega = np.asarray(omega, dtype=float)
    if omega.size and not (lo <= omega.min() and omega.max() <= hi):  # NaN fails too
        lo_um, hi_um = crystal.window_um
        raise DispersionWindowError(
            f"angular frequency outside the Sellmeier validity window "
            f"{lo_um}-{hi_um} um ({lo:.4e}-{hi:.4e} rad/s)"
        )


def _principal(crystal, omega, polarization):
    """(n, lam_um, n_o^2, n_e^2) at omega; n_e^2 is None for the ordinary wave."""
    _check_window(crystal, omega)
    lam_um = 2 * np.pi * c / np.asarray(omega, dtype=float) * 1e6
    n_o2 = _sellmeier_n2(crystal.sellmeier_ordinary, lam_um)
    if polarization == "ordinary":
        return np.sqrt(n_o2), lam_um, n_o2, None
    if polarization == "extraordinary":
        n_e2 = _sellmeier_n2(crystal.sellmeier_extraordinary, lam_um)
        return _ellipse(crystal.cut_angle, n_o2, n_e2), lam_um, n_o2, n_e2
    raise ValueError(f"unknown polarization {polarization!r}")


def refractive_index(crystal, omega, polarization):
    """Refractive index at angular frequency omega.

    polarization is 'ordinary' or 'extraordinary'; the extraordinary value is
    evaluated at the crystal cut angle through the index ellipse.
    """
    n = _principal(crystal, omega, polarization)[0]
    return n if n.ndim else float(n)


def wavevector(crystal, omega, polarization):
    """Wavevector magnitude k = n(omega) * omega / c in rad/m."""
    n = refractive_index(crystal, omega, polarization)
    return n * np.asarray(omega, dtype=float) / c if np.ndim(omega) else n * omega / c


def group_slowness(crystal, omega, polarization):
    """Group slowness k'(omega) = dk/domega = (n - lam dn/dlam) / c in s/m.

    The exact derivative of the Sellmeier model, on its whole validity window:
    lam dn/dlam = s / (2 n) with s = lam dn^2/dlam, which the index ellipse gives the
    extraordinary wave as n^4 (cos^2(theta) s_o / n_o^4 + sin^2(theta) s_e / n_e^4).
    """
    n, lam_um, n_o2, n_e2 = _principal(crystal, omega, polarization)
    s = s_o = _sellmeier_slope(crystal.sellmeier_ordinary, lam_um)
    if n_e2 is not None:
        s_e, theta = _sellmeier_slope(crystal.sellmeier_extraordinary, lam_um), crystal.cut_angle
        s = n**4 * (np.cos(theta) ** 2 * s_o / n_o2**2 + np.sin(theta) ** 2 * s_e / n_e2**2)
    kp = (n - s / (2 * n)) / c
    return kp if np.ndim(omega) else float(kp)


def _brent_root(f, xa, xb, f_a, f_b, xtol, rtol):
    """Root of f in [xa, xb] by Brent's method; f_a = f(xa) and f_b = f(xb) differ in sign.

    Same iteration, step rules and stopping test as scipy.optimize.brentq,
    so on IEEE doubles it returns the same root to the last bit.
    """
    xpre, xcur, fpre, fcur = xa, xb, f_a, f_b
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NotPhasematchableError("phasematching root search did not converge in 100 steps")


def phasematching_angle(crystal, omega_p0, omega_s0, omega_i0):
    """Cut angle solving collinear type-I phasematching k_p - k_s - k_i = 0.

    The pump index is the extraordinary index at the returned angle; signal
    and idler are ordinary.  Raises NotPhasematchableError when the mismatch
    does not change sign on [0, pi/2].
    """
    if abs(omega_p0 - (omega_s0 + omega_i0)) > 1e-6 * omega_p0:
        raise ValueError("energy conservation requires omega_p0 = omega_s0 + omega_i0")

    k_s = wavevector(crystal, omega_s0, "ordinary")
    k_i = wavevector(crystal, omega_i0, "ordinary")
    # both principal indices are fixed at omega_p0; each step moves the ellipse only
    _, _, n_o2, n_e2 = _principal(crystal, omega_p0, "extraordinary")

    def mismatch(theta):
        return float(_ellipse(theta, n_o2, n_e2)) * omega_p0 / c - k_s - k_i

    lo, hi = 0.0, np.pi / 2
    f_lo, f_hi = mismatch(lo), mismatch(hi)
    if f_lo * f_hi > 0:
        raise NotPhasematchableError(
            f"phase mismatch does not change sign on [0, pi/2] "
            f"(dk(0)={f_lo:.3e}, dk(pi/2)={f_hi:.3e} rad/m)"
        )
    theta = _brent_root(mismatch, lo, hi, f_lo, f_hi, xtol=1e-12, rtol=1e-15)
    residual = mismatch(theta)
    if abs(residual) > 1.0:
        raise NotPhasematchableError(f"root residual too large: {residual:.3e} rad/m")
    return theta
