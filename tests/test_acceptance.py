"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line of
every criterion as it completes.
"""

import numpy as np
import pytest

import cavityspdc as cs
from cavityspdc.cavity import single_pass_phase
from cavityspdc.constants import c

from conftest import OMEGA_800

SQRT_2LN2 = np.sqrt(2 * np.log(2))


def verdict(number, ok, detail):
    print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_finesse_identities():
    f_design = cs.coefficient_of_finesse(0.9999)
    ok = abs(f_design - 4.0e8) <= 2e-4 * 4.0e8
    pump_values = {0.3: 2.449, 0.65: 21.22, 0.95: 1520.0}
    details = [f"F(0.9999)={f_design:.6g}"]
    for r_eff, expected in pump_values.items():
        got = cs.coefficient_of_finesse(r_eff)
        ok = ok and abs(got - expected) <= 0.005 * expected
        details.append(f"F({r_eff})={got:.6g}")
    verdict(1, ok, ", ".join(details))


def test_criterion_02_geometric_sum_oracle(crystal, sr_cavity):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        r2 = rng.uniform(0.0, 0.95)
        cav = cs.singly_resonant_cavity(20e-6, crystal, r2)
        cav = cav.with_mirror(1, "signal", phase=rng.uniform(0, 2 * np.pi))
        cav = cav.with_mirror(2, "signal", phase=rng.uniform(0, 2 * np.pi))
        w = OMEGA_800 * rng.uniform(0.9, 1.1)
        m1, m2 = cav.mirror(1, "signal"), cav.mirror(2, "signal")
        theta = single_pass_phase(cav, w, "signal")
        gamma = w * (cav.length_L - cav.crystal.length_l) / (2 * c)
        r1c = m1.magnitude * np.exp(1j * m1.phase)
        r2c = m2.magnitude * np.exp(1j * m2.phase)
        brute = (
            m2.transmissivity
            * np.exp(1j * gamma)
            * sum((r1c * r2c) ** j * np.exp(2j * j * theta) for j in range(7))
        )
        closed = cs.sr_amplitude_factor_finite(cav, w, "signal", 7)
        worst = max(worst, abs(brute - closed) / abs(brute))
    ok = worst <= 1e-12
    a200 = cs.sr_amplitude_factor_finite(sr_cavity, OMEGA_800, "signal", 200)
    airy = cs.airy(OMEGA_800, "signal", sr_cavity)
    conv = abs(abs(a200) ** 2 - airy) / airy
    ok = ok and conv <= 1e-3
    verdict(2, ok, f"worst closed-form error {worst:.2e}, |A^200|^2 error {conv:.2e}")


def test_criterion_03_dr_partial_sum_oracle(crystal, dr_cavity, pump, filters):
    rng = np.random.default_rng(31)
    # term-level oracle with three grouped terms
    worst = 0.0
    for _ in range(10):
        ws = OMEGA_800 * rng.uniform(0.99, 1.01)
        wi = OMEGA_800 * rng.uniform(0.99, 1.01)
        theta_si = single_pass_phase(dr_cavity, ws, "signal") + single_pass_phase(
            dr_cavity, wi, "idler"
        )
        theta_p = single_pass_phase(dr_cavity, ws + wi, "pump")
        gamma_p = (ws + wi) * (dr_cavity.length_L - crystal.length_l) / (2 * c)
        m1p, m2p = dr_cavity.mirror(1, "pump"), dr_cavity.mirror(2, "pump")
        r1p = m1p.magnitude * np.exp(1j * m1p.phase)
        r2p = m2p.magnitude * np.exp(1j * m2p.phase)
        m1s, m1i = dr_cavity.mirror(1, "signal"), dr_cavity.mirror(1, "idler")
        r1si = m1s.magnitude * m1i.magnitude * np.exp(1j * (m1s.phase + m1i.phase))
        y = 1.0 + r1si / r1p * np.exp(1j * (theta_si - theta_p))
        f_sr = (
            cs.jsa_bare(pump, crystal, filters, ws, wi)
            * cs.sr_amplitude_factor(dr_cavity, ws, "signal")
            * cs.sr_amplitude_factor(dr_cavity, wi, "idler")
        )
        brute = (
            m1p.transmissivity
            * np.exp(1j * gamma_p)
            * (1.0 + sum(y * (r1p * r2p) ** m * np.exp(2j * m * theta_p) for m in (1, 2, 3)))
            * f_sr
        )
        closed = cs.jsa_dr_partial(dr_cavity, pump, filters, ws, wi, 3)
        worst = max(worst, abs(brute - closed) / abs(brute))
    ok = worst <= 1e-12

    partial = cs.jsa_dr_partial(dr_cavity, pump, filters, OMEGA_800 * 1.001, OMEGA_800, 400)
    limit = cs.jsa_dr_limit(dr_cavity, pump, filters, OMEGA_800 * 1.001, OMEGA_800)
    conv = abs(partial - limit) / abs(limit)
    ok = ok and conv <= 1e-10

    n = 128
    ax = np.linspace(OMEGA_800 - 1.5 * filters[0].fwhm, OMEGA_800 + 1.5 * filters[0].fwhm, n)
    grid = cs.SpectralGrid(ax, ax, np.zeros((n, n)))
    s_dr = cs.jsi_doubly_resonant(dr_cavity, pump, filters, grid)
    ws, wi = grid.meshgrid()
    f_dr = cs.jsa_dr_limit(dr_cavity, pump, filters, ws, wi)
    mask = s_dr.values > 1e-12 * s_dr.values.max()
    identity = (np.abs(np.abs(f_dr) ** 2 - s_dr.values)[mask] / s_dr.values[mask]).max()
    ok = ok and identity <= 1e-10
    verdict(
        3,
        ok,
        f"group-sum error {worst:.2e}, limit convergence {conv:.2e}, "
        f"|f_DR|^2 = S_DR residual {identity:.2e} on {n}x{n}",
    )


def test_criterion_04_airy_peak_and_width(crystal):
    peak = cs.airy(OMEGA_800, "signal", cs.solve_resonance_phases(
        cs.singly_resonant_cavity(20e-6, crystal, 0.73), OMEGA_800, OMEGA_800))
    ok = abs(peak - (1 + 0.73) / (1 - 0.73)) <= 1e-12 * peak
    details = [f"peak(0.73)={peak:.6f}"]
    for finesse in (1e2, 1e4, 1e6):
        r = (finesse + 2 - 2 * np.sqrt(finesse + 1)) / finesse
        cav = cs.solve_resonance_phases(
            cs.singly_resonant_cavity(20e-6, crystal, r), OMEGA_800, OMEGA_800
        )
        width = cs.mode_width(cav, OMEGA_800, "signal")
        w = np.linspace(OMEGA_800 - 2 * width, OMEGA_800 + 2 * width, 8001)
        a = cs.airy(w, "signal", cav)
        above = w[a >= a.max() / 2]
        err = abs((above[-1] - above[0]) - width) / width
        ok = ok and err <= 0.02
        details.append(f"FWHM err(F={finesse:g})={err:.3%}")
    verdict(4, ok, ", ".join(details))


def test_criterion_05_fig2_mode_lattice(sr_cavity, pump, filters):
    halfwidth = 3 * filters[0].fwhm
    grid = cs.default_grid(OMEGA_800, OMEGA_800, halfwidth, samples=1024)
    jsi = cs.jsi_singly_resonant(sr_cavity, pump, filters, grid)
    cell = grid.d_omega_s
    fsr = cs.free_spectral_range(sr_cavity, OMEGA_800)
    ok = True
    spacings = {}
    for axis in ("signal", "idler"):
        marg = cs.marginal_spectrum(jsi, axis)
        peaks = cs.extract_peaks(marg.axis, marg.density, 5e-3)
        spacing = float(np.median(np.diff(peaks.positions)))
        spacings[axis] = spacing
        ok = ok and abs(spacing - fsr) < cell
        # every comb tooth sits on an Airy resonance of its own mode
        a = cs.airy(peaks.positions, axis, sr_cavity)
        ok = ok and np.all(a >= 0.8 * cs.airy(OMEGA_800, axis, sr_cavity))
    verdict(
        5,
        ok,
        f"lattice spacing signal {spacings['signal']:.4e}, idler {spacings['idler']:.4e} "
        f"vs FSR {fsr:.4e} rad/s (cell {cell:.2e})",
    )


def test_criterion_06_temporal_tradeoff(temporal_marginal):
    widths, times, spacing_ok = [], [], True
    for r2 in (0.5, 0.7, 0.9):
        cav, marg = temporal_marginal(r2)
        peaks = cs.extract_peaks(marg.axis, marg.density, 1e-4)
        dt = marg.axis[1] - marg.axis[0]
        spacing = np.median(np.diff(peaks.positions))
        t_rt = cs.group_round_trip_time(cav, OMEGA_800)
        spacing_ok = spacing_ok and abs(spacing - t_rt) < dt
        widths.append(cs.mode_width(cav, OMEGA_800, "signal"))
        times.append(cs.correlation_time(peaks))
    ok = (
        spacing_ok
        and widths[0] > widths[1] > widths[2]
        and times[0] < times[1] < times[2]
    )
    verdict(
        6,
        ok,
        f"spacing = round trip within one sample: {spacing_ok}; "
        f"widths {['%.3e' % w for w in widths]} down, t_C {['%.3e' % t for t in times]} up",
    )


def test_criterion_07_brightness_flatness_crossover_plateau(crystal, pump, filters):
    flat = cs.solve_resonance_phases(
        cs.singly_resonant_cavity(20e-6, crystal, 0.0), OMEGA_800, OMEGA_800
    )
    sigmas = list(np.logspace(11, 13, 7))
    table = cs.brightness_vs_sigma_sweep(flat, pump.omega_p0, filters, sigmas, [0.0])
    b = table.column("B_norm")
    flatness = b.max() / b.min() - 1
    ok = flatness < 0.05

    r9 = cs.solve_resonance_phases(
        cs.singly_resonant_cavity(20e-6, crystal, 0.9), OMEGA_800, OMEGA_800
    )
    fsr = cs.free_spectral_range(r9, OMEGA_800)
    expected = fsr / SQRT_2LN2
    scan = list(np.geomspace(4.5e13, 8e12, 7))
    table = cs.brightness_vs_sigma_sweep(r9, pump.omega_p0, filters, scan, [0.0, 0.9])
    b0 = table.column("B_norm")[: len(scan)]
    b9 = table.column("B_norm")[len(scan):]
    ratio = b9 / b0
    k = int(np.argmax(ratio > 1.05))
    frac = (1.05 - ratio[k - 1]) / (ratio[k] - ratio[k - 1])
    crossover = scan[k - 1] * (scan[k] / scan[k - 1]) ** frac
    ok = ok and 0 < k and abs(crossover - expected) <= 0.2 * expected

    r2_list = [0.9, 0.95, 0.99]
    plateau = cs.plateau_brightness_vs_r2(flat, pump.omega_p0, filters, r2_list)
    y = plateau.column("B_norm")
    x = 1.0 / (1.0 - np.array(r2_list))
    design = np.vstack([x, np.ones_like(x)]).T
    coef, residual, *_ = np.linalg.lstsq(design, y, rcond=None)
    r_squared = 1.0 - float(residual[0]) / float(((y - y.mean()) ** 2).sum())
    ok = ok and r_squared > 0.95 and y[0] < y[1] < y[2]
    verdict(
        7,
        ok,
        f"no-cavity flatness {flatness:.2%}, crossover {crossover:.3e} vs "
        f"{expected:.3e} rad/s, plateau fit R^2 = {r_squared:.5f}",
    )


def test_criterion_08_dr_brightness(crystal, pump, filters):
    cav = cs.singly_resonant_cavity(20e-6, crystal, 0.73)
    cav = cav.with_mirror(2, "pump", magnitude=1.0)
    cav = cs.solve_resonance_phases(cav, OMEGA_800, OMEGA_800, 2 * OMEGA_800)
    sigma = 2e11  # smallest published pump bandwidth, read as rad/s
    table = cs.brightness_vs_r1p_sweep(
        cav, pump.omega_p0, filters, [0.0, 0.3, 0.6, 0.9, 0.99, 1.0], [sigma]
    )
    b = {row[1]: row[2] for row in table.rows}
    ok = (
        b[0.0] == pytest.approx(1.0, rel=1e-12)
        and b[0.0] < b[0.3] < b[0.6] < b[0.9]
        and b[1.0] == 0.0
        and b[1.0] < b[0.99]
    )
    verdict(
        8,
        ok,
        f"B_norm: {', '.join(f'{k}->{v:.3g}' for k, v in sorted(b.items()))}",
    )


def test_criterion_09_design_recipe():
    target = cs.DesignTarget(854.2e-9, 2 * np.pi * 20e6, 400e-9, 0.5e-9)
    result = cs.design_source(target)
    ok = abs(result.lambda_idler - 752.26e-9) <= 0.01e-9
    energy = abs(1 / target.lambda_pump - 1 / target.lambda_signal - 1 / result.lambda_idler)
    ok = ok and energy <= 1e-12 / target.lambda_pump
    ok = ok and abs(np.degrees(result.cut_angle) - 29.1) <= 0.5
    ok = ok and abs(result.sigma_max - 1.067e8) <= 1e-3 * 1.067e8

    # round-trip inversion of the resonance-spacing relation
    crystal = cs.CrystalSpec(
        target.sellmeier_ordinary, target.sellmeier_extraordinary,
        result.cut_angle, result.cavity_length,
    )
    cavity = cs.singly_resonant_cavity(result.cavity_length, crystal, result.r2_magnitude)
    omega_s0 = 2 * np.pi * c / target.lambda_signal
    dlam = cs.free_spectral_range(cavity, omega_s0) * target.lambda_signal**2 / (2 * np.pi * c)
    ok = ok and abs(dlam - target.delta_lambda_max) <= 1e-9 * target.delta_lambda_max
    # documented factor-2 discrepancy against the published 220 um length
    ok = ok and abs(result.cavity_length - 2 * 220e-6) <= 0.01 * result.cavity_length
    report = cs.report_design(target, result)
    ok = ok and "220.0 um" in report and "twice the published length" in report
    verdict(
        9,
        ok,
        f"lambda_i {result.lambda_idler * 1e9:.2f} nm, theta "
        f"{np.degrees(result.cut_angle):.2f} deg, sigma_max {result.sigma_max:.4e} rad/s, "
        f"L {result.cavity_length * 1e6:.1f} um (published 220 um noted in report)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published step-5 values are internally inconsistent: at the pinned "
        "220 um length the mode-width relation with a 2 pi x 20 MHz transition "
        "gives finesse 1.707e8 and |r2| = 0.999847, not the published 4e8 / "
        "0.9999 (those correspond to a 2 pi x 13 MHz width at 220 um)"
    ),
)
def test_criterion_09_pinned_length_published_pairing():
    target = cs.DesignTarget(854.2e-9, 2 * np.pi * 20e6, 400e-9, 0.5e-9)
    pinned = cs.design_source(target, pin_cavity_length=220e-6)
    assert pinned.finesse == pytest.approx(4e8, rel=0.05)
    assert pinned.r2_magnitude == pytest.approx(0.9999, abs=2e-5)


def test_criterion_10_spectral_anticorrelation(crystal, pump, filters):
    base = cs.singly_resonant_cavity(20e-6, crystal, 0.73)
    base = base.with_mirror(2, "pump", magnitude=1.0)
    base = cs.solve_resonance_phases(base, OMEGA_800, OMEGA_800, 2 * OMEGA_800)
    fsr = cs.free_spectral_range(base, OMEGA_800)
    n = 401
    ax = np.linspace(OMEGA_800 - fsr / 2, OMEGA_800 + fsr / 2, n)
    grid = cs.SpectralGrid(ax, ax, np.zeros((n, n)))
    rho, finesses = [], []
    for r1p in (0.3, 0.65, 0.95):
        cav = base.with_mirror(1, "pump", magnitude=r1p)
        finesses.append(cs.coefficient_of_finesse(r1p))
        s = cs.jsi_doubly_resonant(cav, pump, filters, grid).values
        ws, wi = grid.meshgrid()
        w = s / s.sum()
        ms, mi = (w * ws).sum(), (w * wi).sum()
        cov = (w * (ws - ms) * (wi - mi)).sum()
        rho.append(cov / np.sqrt((w * (ws - ms) ** 2).sum() * (w * (wi - mi) ** 2).sum()))
    ok = rho[0] > rho[1] > rho[2]
    verdict(
        10,
        ok,
        "pearson " + ", ".join(f"F_p={f:.4g}: {r:.3f}" for f, r in zip(finesses, rho)),
    )
