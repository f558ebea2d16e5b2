import numpy as np
import pytest

import cavityspdc as cs
from cavityspdc.errors import DivergenceError

from conftest import OMEGA_800

W0 = np.float64(OMEGA_800)


def explicit_y(cavity, ctx):
    """Literal transcription of the consecutive-pass grouping factor."""
    m1p = cavity.mirror(1, "pump")
    m1s = cavity.mirror(1, "signal")
    m1i = cavity.mirror(1, "idler")
    r1p = m1p.magnitude * np.exp(1j * m1p.phase)
    r1s = m1s.magnitude * np.exp(1j * m1s.phase)
    r1i = m1i.magnitude * np.exp(1j * m1i.phase)
    return 1.0 + r1s * r1i / r1p * np.exp(1j * (ctx.theta_si - ctx.theta_p))


class TestPhaseContext:
    def test_theta_si_is_sum(self, dr_cavity):
        ctx = cs.DrPhaseContext.from_cavity(dr_cavity, W0 * 1.01, W0 * 0.99)
        assert ctx.theta_si == ctx.theta_s + ctx.theta_i

    def test_gamma_p_vanishes_for_equal_lengths(self, dr_cavity):
        ctx = cs.DrPhaseContext.from_cavity(dr_cavity, W0, W0)
        assert ctx.gamma_p == 0.0

    def test_mirror_phases_copied(self, dr_cavity):
        ctx = cs.DrPhaseContext.from_cavity(dr_cavity, W0, W0)
        assert ctx.delta_2p == dr_cavity.mirror(2, "pump").phase
        assert ctx.delta_1s == dr_cavity.mirror(1, "signal").phase


class TestPartialSums:
    def brute_groups(self, cavity, pump, filters, ws, wi, n_groups):
        """g^(1) + g^(2+3) + ... from the explicit per-group expressions."""
        ctx = cs.DrPhaseContext.from_cavity(cavity, ws, wi)
        m1p, m2p = cavity.mirror(1, "pump"), cavity.mirror(2, "pump")
        r1p = m1p.magnitude * np.exp(1j * m1p.phase)
        r2p = m2p.magnitude * np.exp(1j * m2p.phase)
        f_sr = (
            cs.jsa_bare(pump, cavity.crystal, filters, ws, wi)
            * cs.sr_amplitude_factor(cavity, ws, "signal")
            * cs.sr_amplitude_factor(cavity, wi, "idler")
        )
        y = explicit_y(cavity, ctx)
        total = 1.0
        for m in range(1, n_groups + 1):
            total += y * (r1p * r2p) ** m * np.exp(2j * m * ctx.theta_p)
        return m1p.transmissivity * np.exp(1j * ctx.gamma_p) * total * f_sr

    def test_zero_groups_is_first_pass(self, dr_cavity, pump, filters):
        got = cs.jsa_dr_partial(dr_cavity, pump, filters, W0, W0, 0)
        ctx = cs.DrPhaseContext.from_cavity(dr_cavity, W0, W0)
        f_sr = (
            cs.jsa_bare(pump, dr_cavity.crystal, filters, W0, W0)
            * cs.sr_amplitude_factor(dr_cavity, W0, "signal")
            * cs.sr_amplitude_factor(dr_cavity, W0, "idler")
        )
        t1p = dr_cavity.mirror(1, "pump").transmissivity
        assert got == pytest.approx(t1p * np.exp(1j * ctx.gamma_p) * f_sr, rel=1e-12)

    def test_three_groups_match_explicit_sum(self, dr_cavity, pump, filters):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ws = W0 * rng.uniform(0.99, 1.01)
            wi = W0 * rng.uniform(0.99, 1.01)
            brute = self.brute_groups(dr_cavity, pump, filters, ws, wi, 3)
            closed = cs.jsa_dr_partial(dr_cavity, pump, filters, ws, wi, 3)
            assert abs(brute - closed) <= 1e-12 * abs(brute)

    def test_partial_converges_to_limit(self, crystal, pump, filters):
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.73)
        cav = cav.with_mirror(1, "pump", magnitude=0.5)
        cav = cav.with_mirror(2, "pump", magnitude=1.0)  # |r1p r2p| = 0.5
        cav = cs.solve_resonance_phases(cav, W0, W0, 2 * W0)
        ws, wi = W0 * 1.001, W0 * 0.999
        partial = cs.jsa_dr_partial(cav, pump, filters, ws, wi, 400)
        limit = cs.jsa_dr_limit(cav, pump, filters, ws, wi)
        assert abs(partial - limit) <= 1e-10 * abs(limit)

    def test_r1p_zero_gives_two_pass_factor(self, crystal, pump, filters):
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.73)
        cav = cav.with_mirror(2, "pump", magnitude=1.0, phase=0.37)
        first = cs.jsa_dr_partial(cav, pump, filters, W0, W0, 0)
        many = cs.jsa_dr_partial(cav, pump, filters, W0, W0, 6)
        ctx = cs.DrPhaseContext.from_cavity(cav, W0, W0)
        r2p = 1.0 * np.exp(1j * 0.37)
        two_pass = 1.0 + r2p * np.exp(1j * (ctx.theta_si + ctx.theta_p))
        assert many == pytest.approx(first * two_pass, rel=1e-12)

    def test_divergence_at_unit_pump_product(self, crystal, pump, filters):
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.5)
        cav = cav.with_mirror(1, "pump", magnitude=1.0)
        cav = cav.with_mirror(2, "pump", magnitude=1.0)
        with pytest.raises(DivergenceError):
            cs.jsa_dr_partial(cav, pump, filters, W0, W0, 3)

    def test_limit_reduces_to_single_pass_without_pump_mirrors(self, crystal, pump, filters):
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.73)  # r1p = r2p = 0
        got = cs.jsa_dr_limit(cav, pump, filters, W0, W0)
        expect = cs.jsa_dr_partial(cav, pump, filters, W0, W0, 0)  # t1p e^{i gamma_p} f_SR
        assert got == pytest.approx(expect, rel=1e-12)


class TestPhaseBalancing:
    @pytest.mark.parametrize("r2p", [0.0, 0.4, 1.0])
    def test_extremes(self, r2p):
        ctx = cs.DrPhaseContext(0.0, 0.0, 0.0, 0.0)
        assert cs.phase_balancing(ctx, r2p) == pytest.approx((1 + r2p) ** 2)
        ctx_pi = cs.DrPhaseContext(np.pi, 0.0, 0.0, 0.0)
        assert cs.phase_balancing(ctx_pi, r2p) == pytest.approx((1 - r2p) ** 2, abs=1e-12)

    def test_bounds(self, dr_cavity):
        rng = np.random.default_rng(9)
        ws = W0 * rng.uniform(0.95, 1.05, 64)
        wi = W0 * rng.uniform(0.95, 1.05, 64)
        ctx = cs.DrPhaseContext.from_cavity(dr_cavity, ws, wi)
        p = cs.phase_balancing(ctx, 0.8)
        assert np.all(p >= (1 - 0.8) ** 2 - 1e-12)
        assert np.all(p <= (1 + 0.8) ** 2 + 1e-12)

    def test_no_pump_mirror_means_unity(self, dr_cavity):
        ctx = cs.DrPhaseContext.from_cavity(dr_cavity, W0 * 1.01, W0)
        assert cs.phase_balancing(ctx, 0.0) == pytest.approx(1.0)


class TestJsiDoublyResonant:
    def test_matches_amplitude_squared(self, dr_cavity, pump, filters):
        n = 128
        half = 1.5 * filters[0].fwhm
        ax = np.linspace(W0 - half, W0 + half, n)
        grid = cs.SpectralGrid(ax, ax, np.zeros((n, n)))
        s_dr = cs.jsi_doubly_resonant(dr_cavity, pump, filters, grid)
        ws, wi = grid.meshgrid()
        f_dr = cs.jsa_dr_limit(dr_cavity, pump, filters, ws, wi)
        # pointwise identity; the relative comparison needs a floor because
        # both routes cancel catastrophically at the exact interference zeros
        mask = s_dr.values > 1e-12 * s_dr.values.max()
        rel = np.abs(np.abs(f_dr) ** 2 - s_dr.values)[mask] / s_dr.values[mask]
        assert rel.max() < 1e-10

    def test_pump_airy_constant_along_antidiagonals(self, dr_cavity, pump, filters):
        n = 129
        half = filters[0].fwhm
        ax = np.linspace(W0 - half, W0 + half, n)
        grid = cs.SpectralGrid(ax, ax, np.zeros((n, n)))
        s_dr = cs.jsi_doubly_resonant(dr_cavity, pump, filters, grid)
        ws, wi = grid.meshgrid()
        a_s = cs.airy(grid.omega_s_axis, "signal", dr_cavity)
        a_i = cs.airy(grid.omega_i_axis, "idler", dr_cavity)
        ctx = cs.DrPhaseContext.from_cavity(dr_cavity, ws, wi)
        p = cs.phase_balancing(ctx, 1.0)
        f2 = np.abs(cs.jsa_bare(pump, dr_cavity.crystal, filters, ws, wi)) ** 2
        residual = s_dr.values / (np.outer(a_i, a_s) * p * f2)
        # residual is the pump Airy factor: constant wherever w_s + w_i is
        for k in (-20, 0, 17):
            anti = np.fliplr(residual).diagonal(k)
            assert np.ptp(anti) < 1e-10 * anti.max()

    def test_anticorrelation_grows_with_pump_finesse(self, crystal, pump, filters):
        # central cavity-allowed mode: Pearson correlation of (w_s, w_i)
        # becomes more negative through finesse 2.449, 21.22, 1520
        base = cs.singly_resonant_cavity(20e-6, crystal, 0.73)
        base = base.with_mirror(2, "pump", magnitude=1.0)
        base = cs.solve_resonance_phases(base, W0, W0, 2 * W0)
        fsr = cs.free_spectral_range(base, W0)
        n = 401
        ax = np.linspace(W0 - fsr / 2, W0 + fsr / 2, n)
        grid = cs.SpectralGrid(ax, ax, np.zeros((n, n)))
        rho = []
        for r1p in (0.3, 0.65, 0.95):
            cav = base.with_mirror(1, "pump", magnitude=r1p)
            s = cs.jsi_doubly_resonant(cav, pump, filters, grid).values
            ws, wi = grid.meshgrid()
            w = s / s.sum()
            ms, mi = (w * ws).sum(), (w * wi).sum()
            cov = (w * (ws - ms) * (wi - mi)).sum()
            var_s = (w * (ws - ms) ** 2).sum()
            var_i = (w * (wi - mi) ** 2).sum()
            rho.append(cov / np.sqrt(var_s * var_i))
        assert rho[0] > rho[1] > rho[2]
        assert rho[2] < -0.8
