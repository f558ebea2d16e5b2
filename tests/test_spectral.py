import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import cavityspdc as cs
import cavityspdc.spectral
from cavityspdc._parallel import stream_blocks
from cavityspdc.cavity import single_pass_phase
from cavityspdc.config import load_config
from cavityspdc.constants import c
from cavityspdc.errors import DispersionWindowError, UnderResolutionWarning
from cavityspdc.spectral import (
    _factor_tables,
    _intensity,
    _jsi_stream,
    _row_trapezoid,
)

from conftest import OMEGA_800, THETA_DEGENERATE, traced_peak

FIGS = Path(__file__).resolve().parents[1] / "configs"


class TestPumpEnvelope:
    def test_center(self, pump):
        assert cs.pump_envelope(pump, pump.omega_p0) == 1.0

    def test_one_sigma(self, pump):
        assert cs.pump_envelope(pump, pump.omega_p0 + pump.sigma) == pytest.approx(np.exp(-1))

    def test_intensity_fwhm(self, pump):
        # |alpha|^2 drops to half at sigma*sqrt(2 ln2)/2 on each side
        half = pump.sigma * np.sqrt(2 * np.log(2)) / 2
        assert cs.pump_envelope(pump, pump.omega_p0 + half) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_5nm_fwhm_conversion(self, pump):
        fwhm_omega = 2 * np.pi * c * 5e-9 / (400e-9) ** 2
        assert pump.sigma == pytest.approx(fwhm_omega / np.sqrt(2 * np.log(2)), rel=1e-12)


class TestPhasematching:
    def test_matched_point_is_unity(self, crystal):
        assert cs.phasematching(crystal, OMEGA_800, OMEGA_800) == pytest.approx(1.0, abs=1e-9)

    def test_sinc_zero(self, crystal):
        # a 2 mm crystal reaches its first sinc zero inside the window;
        # locate dk*l/2 = pi by bisection on symmetric detuning
        long = cs.CrystalSpec(
            crystal.sellmeier_ordinary,
            crystal.sellmeier_extraordinary,
            crystal.cut_angle,
            2e-3,
        )

        def x_of(d):
            ws, wi = OMEGA_800 + d, OMEGA_800 - d
            dk = (
                cs.wavevector(long, ws + wi, "extraordinary")
                - cs.wavevector(long, ws, "ordinary")
                - cs.wavevector(long, wi, "ordinary")
            )
            return dk * long.length_l / 2

        lo, hi = 0.0, 4e14
        assert abs(x_of(hi)) > np.pi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if abs(x_of(mid)) < np.pi:
                lo = mid
            else:
                hi = mid
        d = 0.5 * (lo + hi)
        assert abs(cs.phasematching(long, OMEGA_800 + d, OMEGA_800 - d)) < 1e-9

    def test_short_crystal_flat_over_filter_window(self, crystal):
        # 30 nm window around degeneracy: the 20 um crystal is far from its
        # first sinc zero, |phi|^2 stays above 0.98 (0.990 computed)
        fwhm = cs.wavelength_fwhm_to_angular(800e-9, 30e-9)
        w = np.linspace(OMEGA_800 - fwhm / 2, OMEGA_800 + fwhm / 2, 201)
        ws, wi = np.meshgrid(w, w)
        phi2 = np.abs(cs.phasematching(crystal, ws, wi)) ** 2
        assert phi2.min() > 0.98

    def test_phase_convention(self, crystal):
        ws, wi = OMEGA_800 * 1.01, OMEGA_800 * 0.97
        dk = (
            cs.wavevector(crystal, ws + wi, "extraordinary")
            - cs.wavevector(crystal, ws, "ordinary")
            - cs.wavevector(crystal, wi, "ordinary")
        )
        x = dk * crystal.length_l / 2
        expected = np.sinc(x / np.pi) * np.exp(1j * x)
        assert cs.phasematching(crystal, ws, wi) == pytest.approx(expected, rel=1e-12)


class TestJsaBare:
    def test_unity_at_center(self, pump, crystal):
        assert cs.jsa_bare(pump, crystal, None, OMEGA_800, OMEGA_800) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_exchange_symmetry(self, pump, crystal, filters):
        rng = np.random.default_rng(7)
        d = rng.uniform(-3e13, 3e13, size=12)
        f_si = cs.jsa_bare(pump, crystal, filters, OMEGA_800 + d, OMEGA_800 - d)
        f_is = cs.jsa_bare(pump, crystal, filters, OMEGA_800 - d, OMEGA_800 + d)
        assert np.allclose(f_si, f_is, rtol=1e-12)

    def test_antidiagonal_ridge_width_set_by_pump(self, pump, crystal, filters, grid_257):
        ws, wi = grid_257.meshgrid()
        f2 = np.abs(cs.jsa_bare(pump, crystal, filters, ws, wi)) ** 2
        k = grid_257.omega_s_axis.size // 2
        along = f2[::-1].diagonal()  # w_s + w_i constant = 2 w_0: pump untouched
        across = f2.diagonal()  # w_s = w_i = w_0 + t: pump detuned by 2t
        axis = grid_257.omega_s_axis
        cell = grid_257.d_omega_s
        # at 4e13 rad/s off center the pump has cut the diagonal way below
        # the filter-only anti-diagonal
        m = int(round(4e13 / cell))
        assert along[k + m] > 20 * across[k + m]
        # the half-maximum of the across-ridge cut follows pump plus filters
        fw = filters[0].fwhm
        t_half = np.sqrt(np.log(2) / (8 / pump.sigma**2 + 8 * np.log(2) / fw**2))
        half_level = np.abs(across - 0.5 * across.max())
        crossing = axis[np.argmin(half_level[k:]) + k] - axis[k]
        assert abs(crossing - t_half) < cell


class TestSrAmplitudeFactor:
    def brute_sum(self, cavity, omega, mode, n):
        m1, m2 = cavity.mirror(1, mode), cavity.mirror(2, mode)
        theta = single_pass_phase(cavity, omega, mode)
        gamma = omega * (cavity.length_L - cavity.crystal.length_l) / (2 * c)
        r1 = m1.magnitude * np.exp(1j * m1.phase)
        r2 = m2.magnitude * np.exp(1j * m2.phase)
        return (
            m2.transmissivity
            * np.exp(1j * gamma)
            * sum((r1 * r2) ** j * np.exp(2j * j * theta) for j in range(n))
        )

    def test_single_pass_is_bare_transmission(self, sr_cavity):
        a1 = cs.sr_amplitude_factor_finite(sr_cavity, OMEGA_800, "signal", 1)
        m2 = sr_cavity.mirror(2, "signal")
        gamma = 0.0  # L = l
        assert a1 == pytest.approx(m2.transmissivity * np.exp(1j * gamma), rel=1e-12)

    def test_matches_term_by_term_sum(self, crystal):
        rng = np.random.default_rng(11)
        for _ in range(50):
            r2 = rng.uniform(0.0, 0.95)
            cav = cs.singly_resonant_cavity(20e-6, crystal, r2)
            cav = cav.with_mirror(1, "signal", phase=rng.uniform(0, 2 * np.pi))
            cav = cav.with_mirror(2, "signal", phase=rng.uniform(0, 2 * np.pi))
            w = OMEGA_800 * rng.uniform(0.9, 1.1)
            brute = self.brute_sum(cav, w, "signal", 7)
            closed = cs.sr_amplitude_factor_finite(cav, w, "signal", 7)
            assert abs(brute - closed) <= 1e-12 * abs(brute)

    def test_open_cavity_is_bare_transmission(self, crystal):
        # the open cavity, |r_1| = |r_2| = 0, is bare transmission
        open_cavity = cs.CavitySpec(20e-6, crystal)
        assert abs(cs.sr_amplitude_factor(open_cavity, OMEGA_800, "signal")) == pytest.approx(
            1.0, rel=1e-15, abs=0
        )

    def test_converges_to_airy(self, sr_cavity):
        airy = cs.airy(OMEGA_800, "signal", sr_cavity)
        a200 = cs.sr_amplitude_factor_finite(sr_cavity, OMEGA_800, "signal", 200)
        assert abs(abs(a200) ** 2 - airy) < 1e-3 * airy

    def test_convergence_monotone_geometric(self, sr_cavity):
        # sup-norm distance to the Airy weight shrinks monotonically and is
        # bounded by a geometric envelope in the pass count
        fsr = cs.free_spectral_range(sr_cavity, OMEGA_800)
        w = np.linspace(OMEGA_800 - 1.5 * fsr, OMEGA_800 + 1.5 * fsr, 4001)
        airy = cs.airy(w, "signal", sr_cavity)
        sup_errs = [
            np.abs(
                np.abs(cs.sr_amplitude_factor_finite(sr_cavity, w, "signal", n)) ** 2 - airy
            ).max()
            for n in (10, 20, 40, 80)
        ]
        assert sup_errs == sorted(sup_errs, reverse=True)
        for n, err in zip((10, 20, 40, 80), sup_errs):
            assert err < airy.max() * 3 * 0.73**n


class TestJsiSinglyResonant:
    def test_no_cavity_reduces_to_bare_intensity(self, crystal, pump, filters, grid_257):
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.0)
        jsi = cs.jsi_singly_resonant(cav, pump, filters, grid_257)
        ws, wi = grid_257.meshgrid()
        assert np.allclose(jsi.values, np.abs(cs.jsa_bare(pump, crystal, filters, ws, wi)) ** 2)

    def test_non_negative_and_bounded(self, sr_cavity, pump, filters, grid_257):
        with pytest.warns(UnderResolutionWarning):
            jsi = cs.jsi_singly_resonant(sr_cavity, pump, filters, grid_257)
        assert np.all(jsi.values >= 0)
        peak = (1 + 0.73) / (1 - 0.73)
        assert jsi.values.max() <= peak * peak * 1.0 + 1e-9

    def test_peak_enhancement_ratio(self, sr_cavity, pump, filters):
        # double resonance on the |f|^2 ridge: enhancement [(1+r)/(1-r)]^2 = 41.05
        halfwidth = 3 * filters[0].fwhm
        grid = cs.default_grid(OMEGA_800, OMEGA_800, halfwidth, samples=1025)
        jsi = cs.jsi_singly_resonant(sr_cavity, pump, filters, grid)
        ws, wi = grid.meshgrid()
        bare = np.abs(cs.jsa_bare(pump, sr_cavity.crystal, filters, ws, wi)) ** 2
        ratio = jsi.values.max() / bare.max()
        assert ratio == pytest.approx(41.05, rel=0.02)

    def test_mode_lattice_spacing(self, sr_cavity, pump, filters):
        # peaks of the signal marginal sit on the Airy resonances with the
        # free-spectral-range spacing, to within one grid cell
        halfwidth = 3 * filters[0].fwhm
        grid = cs.default_grid(OMEGA_800, OMEGA_800, halfwidth, samples=1025)
        jsi = cs.jsi_singly_resonant(sr_cavity, pump, filters, grid)
        marg = cs.marginal_spectrum(jsi, "signal")
        peaks = cs.extract_peaks(marg.axis, marg.density, 5e-3)
        cell = grid.d_omega_s
        fsr = cs.free_spectral_range(sr_cavity, OMEGA_800)
        spacing = np.diff(peaks.positions)
        assert abs(np.median(spacing) - fsr) < cell

    def test_under_resolution_warning(self, sr_cavity, pump, filters, grid_257):
        with pytest.warns(UnderResolutionWarning):
            cs.jsi_singly_resonant(sr_cavity, pump, filters, grid_257)

    def test_amplitude_route_matches_intensity_route(self, sr_cavity, pump, filters, grid_257):
        jsa = cs.jsa_singly_resonant(sr_cavity, pump, filters, grid_257)
        jsi = cs.jsi_singly_resonant(sr_cavity, pump, filters, grid_257)
        assert np.allclose(np.abs(jsa.values) ** 2, jsi.values, rtol=1e-10, atol=0)

    def test_exchange_symmetry_of_degenerate_jsi(self, sr_cavity, pump, filters, grid_257):
        jsi = cs.jsi_singly_resonant(sr_cavity, pump, filters, grid_257)
        assert np.allclose(jsi.values, jsi.values.T, rtol=1e-10)


def _mesh_route(cavity, pump, filters, grid):
    """The JSI with the pump table on the full N^2 mesh of sums omega_s + omega_i."""
    s, i = grid.omega_s_axis, grid.omega_i_axis
    signal, idler, plus = _factor_tables(cavity, pump, filters, s, i, s + i[:, None])
    return _intensity(
        cavity, signal.view(lambda t: t[None, :]), idler.view(lambda t: t[:, None]), plus
    )


class TestAntiDiagonalPumpTable:
    @pytest.mark.parametrize("fig", ["fig2", "fig3", "fig4"])
    def test_shipped_grids_match_the_mesh_route(self, fig):
        # the table sums round differently from the mesh sums; measured
        # 1.5e-14 (fig2), 1.0e-13 (fig3) and 2.2e-12 (fig4) of the maximum
        cfg = load_config(FIGS / f"{fig}.cfg")
        cavity, pump, filters, grid = cfg.cavity(), cfg.pump(), cfg.filters(), cfg.grid()
        jsi = cs.jsi_singly_resonant(cavity, pump, filters, grid)
        mesh = _mesh_route(cavity, pump, filters, grid)
        assert np.abs(jsi.values - mesh).max() <= 1e-11 * mesh.max()

    def test_non_degenerate_default_grid_is_accepted(self, sr_cavity, pump, filters):
        # design.spectral_check's case: default_grid about two different centers
        omega_s0 = 2 * np.pi * c / 780e-9
        grid = cs.default_grid(omega_s0, pump.omega_p0 - omega_s0, 3 * filters[0].fwhm, 129)
        jsi = cs.jsi_singly_resonant(sr_cavity, pump, filters, grid)
        mesh = _mesh_route(sr_cavity, pump, filters, grid)
        assert np.abs(jsi.values - mesh).max() <= 1e-11 * mesh.max()

    @pytest.mark.parametrize("jsi_of", [cs.jsi_singly_resonant, cs.jsi_doubly_resonant])
    def test_unequal_steps_rejected(self, jsi_of, dr_cavity, pump, filters):
        s = np.linspace(OMEGA_800 - 2e14, OMEGA_800 + 2e14, 65)
        i = np.linspace(OMEGA_800 - 1e14, OMEGA_800 + 1e14, 65)
        grid = cs.SpectralGrid(s, i, np.zeros((65, 65)))
        with pytest.raises(ValueError, match="equal signal and idler steps"):
            jsi_of(dr_cavity, pump, filters, grid)

    def test_pump_table_has_one_point_per_anti_diagonal(self, dr_cavity, pump, filters, grid_257,
                                                         monkeypatch):
        points = {"extraordinary": 0, "ordinary": 0}
        index = cavityspdc.spectral.refractive_index

        def counting(crystal, omega, polarization):
            points[polarization] += np.size(omega)
            return index(crystal, omega, polarization)

        monkeypatch.setattr(cavityspdc.spectral, "refractive_index", counting)
        cs.jsi_doubly_resonant(dr_cavity, pump, filters, grid_257)
        n = grid_257.omega_s_axis.size
        assert points["extraordinary"] <= 2 * n - 1
        assert points["ordinary"] <= 2 * n

    def test_pump_mode_width_is_checked(self, dr_cavity, pump, filters, grid_257):
        sharp = dr_cavity.with_mirror(1, "pump", magnitude=0.999)
        with pytest.warns(UnderResolutionWarning) as record:
            cs.jsi_doubly_resonant(sharp, pump, filters, grid_257)
        assert any("pump cavity mode width" in str(w.message) for w in record)
        # an open input mirror leaves no pump resonance to resolve
        two_pass = dr_cavity.with_mirror(1, "pump", magnitude=0.0)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            cs.jsi_doubly_resonant(two_pass, pump, filters, grid_257)
        assert not any("pump" in str(w.message) for w in record)

    def test_every_mode_width_is_checked(self, sr_cavity, pump, filters, grid_257, monkeypatch):
        # resonance is mode_width's to decide: a width it reports for the
        # open pump loop of an SR cavity is checked like any other
        monkeypatch.setattr(cavityspdc.spectral, "mode_width", lambda cavity, omega0, mode: 1.0)
        with pytest.warns(UnderResolutionWarning) as record:
            cs.jsi_singly_resonant(sr_cavity, pump, filters, grid_257)
        assert [str(w.message).split(" resolves the ")[1].split()[0] for w in record] == [
            "signal", "idler", "pump"
        ]


class TestMarginal:
    def test_separable_grid(self):
        s = np.linspace(1.0, 2.0, 33)
        i = np.linspace(3.0, 4.0, 65)
        g = np.exp(-((s - 1.5) ** 2) * 30)
        h = np.cos(i) ** 2 + 0.2
        grid = cs.SpectralGrid(s, i, np.outer(h, g))
        marg = cs.marginal_spectrum(grid, "idler")
        expected = h * np.trapezoid(g, s)
        assert np.allclose(marg.density, expected, rtol=1e-12)
        assert marg.axis is grid.omega_i_axis

    def test_fubini(self, sr_cavity, pump, filters, grid_257):
        with pytest.warns(UnderResolutionWarning):
            jsi = cs.jsi_singly_resonant(sr_cavity, pump, filters, grid_257)
        total_2d = np.trapezoid(
            np.trapezoid(jsi.values, jsi.omega_s_axis, axis=1), jsi.omega_i_axis
        )
        marg_s = cs.marginal_spectrum(jsi, "signal")
        marg_i = cs.marginal_spectrum(jsi, "idler")
        assert np.trapezoid(marg_s.density, marg_s.axis) == pytest.approx(total_2d, rel=1e-10)
        assert np.trapezoid(marg_i.density, marg_i.axis) == pytest.approx(total_2d, rel=1e-10)

    def test_complex_grid_rejected(self, grid_257):
        bad = cs.SpectralGrid(
            grid_257.omega_s_axis, grid_257.omega_i_axis, grid_257.values.astype(complex)
        )
        with pytest.raises(ValueError):
            cs.marginal_spectrum(bad, "signal")

    def test_unknown_axis(self, grid_257):
        with pytest.raises(ValueError):
            cs.marginal_spectrum(grid_257, "pump")


def _equal_step_grid(cavity, pump, filters, n_i, n_s):
    """The cavity's JSI on an n_i x n_s grid of equal signal and idler steps around 800 nm."""
    step = 6 * filters[0].fwhm / 1024

    def axis(n):
        return OMEGA_800 + step * (np.arange(n) - (n - 1) / 2)

    empty = cs.SpectralGrid(axis(n_s), axis(n_i), np.zeros((n_i, n_s)))
    return cs.jsi_singly_resonant(cavity, pump, filters, empty)


def _fig2_jsi():
    cfg = load_config(FIGS / "fig2.cfg")
    return cs.jsi_singly_resonant(cfg.cavity(), cfg.pump(), cfg.filters(), cfg.grid())


class TestRowTrapezoid:
    # The idler marginal and time_difference_marginal share one blocked
    # trapezoid: 32-row blocks of 1024 samples, each gathered C-contiguous.
    # The signal marginal adds each pair of neighbouring rows' trapezoid term
    # in row order: numpy's np.trapezoid down axis 0, bit for bit.

    # the signal marginal's row-order sums against the pairwise sums of
    # _row_trapezoid on the transposed values, in units of its maximum:
    # 1.4e-15 measured on fig2's grid, at most 1.5e-15 on this module's
    # equal-step grids
    SIGNAL_BOUND = 2e-15

    @pytest.mark.parametrize("shape", [(1024, 1024), (1025, 1025), (2, 1025), (17, 1025)],
                             ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("doubly_resonant", [False, True], ids=["SR", "DR"])
    def test_row_marginals_are_numpys_trapezoid(self, sr_cavity, dr_cavity, pump, filters,
                                                doubly_resonant, shape):
        cavity = dr_cavity if doubly_resonant else sr_cavity
        jsi = _equal_step_grid(cavity, pump, filters, *shape)
        expect = np.trapezoid(jsi.values, jsi.omega_s_axis, axis=1)
        assert np.array_equal(cs.marginal_spectrum(jsi, "idler").density, expect)
        # the intensity of the temporal transform is a transposed view
        for values in (jsi.values, np.ascontiguousarray(jsi.values.T).T):
            tgrid = cs.TemporalGrid(jsi.omega_s_axis, jsi.omega_i_axis, values)
            for threads in (1, 2):
                marg = cs.time_difference_marginal(tgrid, threads)
                assert np.array_equal(marg.density, expect)
        signal = cs.marginal_spectrum(jsi, "signal").density
        assert np.array_equal(signal, np.trapezoid(jsi.values, jsi.omega_i_axis, axis=0))
        pairwise = _row_trapezoid(jsi.values.T, jsi.omega_i_axis)
        assert np.abs(signal - pairwise).max() <= self.SIGNAL_BOUND * pairwise.max()

    def test_signal_marginal_of_fig2_within_the_bound(self):
        jsi = _fig2_jsi()
        got = cs.marginal_spectrum(jsi, "signal").density
        pairwise = _row_trapezoid(jsi.values.T, jsi.omega_i_axis)
        assert not np.array_equal(got, pairwise)  # the summation order did change
        assert np.abs(got - pairwise).max() <= self.SIGNAL_BOUND * pairwise.max()

    def test_signal_marginal_of_any_layout(self):
        # the same terms in the same order whatever the strides of the rows
        jsi = _fig2_jsi()
        got = cs.marginal_spectrum(jsi, "signal").density
        transposed = np.ascontiguousarray(jsi.values.T).T
        grid = cs.SpectralGrid(jsi.omega_s_axis, jsi.omega_i_axis, transposed)
        assert np.array_equal(cs.marginal_spectrum(grid, "signal").density, got)

    @pytest.mark.parametrize("axis", ["signal", "idler"])
    def test_no_grid_sized_temporary(self, axis):
        # np.trapezoid on the whole 1024^2 grid traced 16.1 MiB: two
        # grid-sized temporaries; one block's are about 1 MiB
        jsi = _fig2_jsi()
        peak, _ = traced_peak(lambda: cs.marginal_spectrum(jsi, axis))
        assert peak <= 2 * 2**20


def _stream_grid(n_i, n_s):
    """A spec of n_i x n_s samples at fig2's step around 800 nm: several kernel blocks."""
    step = 6 * cs.wavelength_fwhm_to_angular(800e-9, 30e-9) / 1024

    def axis(n):
        return OMEGA_800 + step * (np.arange(n) - (n - 1) / 2)

    return cs.SpectralGrid(axis(n_s), axis(n_i), np.broadcast_to(0.0, (n_i, n_s)))


class TestGridStream:
    # _jsi_stream is the rectangular kernel: the jsi functions collect it,
    # the CLI writes it and integrates it block by block
    GRID = (301, 1025)  # 31 rows a block: 10 blocks, 9 full and a ragged one

    @pytest.mark.parametrize("jsi_of, cavity", [
        (cs.jsi_singly_resonant, "sr_cavity"), (cs.jsi_doubly_resonant, "dr_cavity"),
    ], ids=["SR", "DR"])
    def test_collected_stream_is_the_grid(self, jsi_of, cavity, request, pump, filters):
        cavity = request.getfixturevalue(cavity)
        grid = _stream_grid(*self.GRID)
        whole = jsi_of(cavity, pump, filters, grid).values
        stream = _jsi_stream(cavity, pump, filters, grid)
        assert stream.omega_s_axis is grid.omega_s_axis
        assert stream.omega_i_axis is grid.omega_i_axis
        parts = list(stream.blocks)
        assert [part.shape for part in parts] == [(31, 1025)] * 9 + [(22, 1025)]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_blocks_hold_a_fixed_number_of_samples(self, sr_cavity, pump, filters):
        # 32 rows of a 1024-sample row, 16 of a 2048-sample one
        for n_s, rows in ((1024, 32), (2048, 16), (129, 254)):
            stream = _jsi_stream(sr_cavity, pump, filters, _stream_grid(600, n_s))
            assert next(stream.blocks).shape == (min(rows, 600), n_s)

    def test_tables_are_evaluated_before_the_stream_returns(self, sr_cavity, pump, filters):
        # +-2e15 rad/s around 800 nm leaves the Sellmeier window
        grid = cs.default_grid(OMEGA_800, OMEGA_800, 2e15, 64)
        with pytest.raises(DispersionWindowError):
            _jsi_stream(sr_cavity, pump, filters, grid)

    @pytest.mark.parametrize("cavity", ["sr_cavity", "dr_cavity"])
    def test_streamed_marginals_are_the_collected_grids(self, cavity, request, pump, filters):
        cavity = request.getfixturevalue(cavity)
        grid = _stream_grid(*self.GRID)
        whole = cs.jsi_singly_resonant(cavity, pump, filters, grid)
        pairwise = _row_trapezoid(whole.values.T, grid.omega_i_axis)
        # the idler marginal is _row_trapezoid of the rows, bit for bit
        idler = _row_trapezoid(whole.values, grid.omega_s_axis)
        signal = cs.marginal_spectrum(whole, "signal").density
        assert np.abs(signal - pairwise).max() <= TestRowTrapezoid.SIGNAL_BOUND * pairwise.max()
        for axis, expect in (("signal", signal), ("idler", idler)):
            marg = cs.marginal_spectrum(_jsi_stream(cavity, pump, filters, grid), axis)
            assert np.array_equal(marg.density, expect), axis
            kept = grid.omega_s_axis if axis == "signal" else grid.omega_i_axis
            assert marg.axis is kept

    def test_blocks_are_computed_as_they_are_asked_for(self, sr_cavity, pump, filters,
                                                        monkeypatch):
        # the tables are evaluated when the stream returns, each block on demand
        calls = []
        intensity = cavityspdc.spectral._intensity

        def counting(*args):
            calls.append(1)
            return intensity(*args)

        monkeypatch.setattr(cavityspdc.spectral, "_intensity", counting)
        stream = _jsi_stream(sr_cavity, pump, filters, _stream_grid(*self.GRID))
        assert not calls
        next(stream.blocks)
        assert len(calls) == 1


class TestStreamBlocks:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_in_order_with_at_most_threads_in_flight(self, threads):
        started = []
        ahead = []

        def work(k):
            started.append(k)
            time.sleep(0.002 * (k % 3))  # later items often finish first
            return k * k

        for k, value in enumerate(stream_blocks(threads, work, list(range(12)))):
            assert value == k * k
            # item k is in the consumer's hands; at most `threads` after it started
            ahead.append(len(started) - (k + 1))
        assert max(ahead) <= threads

    def test_first_failing_item_in_order_raises(self):
        lock = threading.Lock()
        started = []

        def work(k):
            with lock:
                started.append(k)
            if k in (3, 5):
                raise DispersionWindowError(f"item {k}")
            return k

        got = []
        with pytest.raises(DispersionWindowError, match="item 3"):
            for value in stream_blocks(2, work, list(range(40))):
                got.append(value)
        assert got == [0, 1, 2]
        assert max(started) <= 3 + 2


class TestMedian:
    @pytest.mark.parametrize("size", [1, 2, 7, 8, 1024, 1025])
    def test_returns_numpys_median(self, size):
        rng = np.random.default_rng(size)
        for values in (rng.standard_normal(size), 1e-13 * rng.random(size) + 1e15):
            got = cavityspdc.spectral._median(values)
            assert type(got) is float
            assert got == float(np.median(values))


class TestSpectralGridType:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cs.SpectralGrid(np.linspace(0, 1, 4), np.linspace(0, 1, 4), np.zeros((4, 5)))

    def test_non_uniform_axis(self):
        # uneven, or not finite on either axis
        for axis in ([0.0, 1.0, 3.0], [0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 1.0, 2.0]):
            with pytest.raises(ValueError):
                cs.SpectralGrid(np.array(axis), np.linspace(0, 1, 3), np.zeros((3, 3)))
            with pytest.raises(ValueError):
                cs.SpectralGrid(np.linspace(0, 1, 3), np.array(axis), np.zeros((3, 3)))

    def test_decreasing_axis(self):
        with pytest.raises(ValueError):
            cs.SpectralGrid(np.linspace(1, 0, 3), np.linspace(0, 1, 3), np.zeros((3, 3)))

    def test_default_grid_spec_owns_no_samples(self, grid_257):
        values = grid_257.values
        assert values.shape == (257, 257) and not values.any()
        assert values.strides == (0, 0)
        assert not values.flags.writeable

    @pytest.mark.parametrize("jsi_of, cavity", [
        (cs.jsi_singly_resonant, "sr_cavity"), (cs.jsi_doubly_resonant, "dr_cavity"),
    ])
    def test_kernels_read_only_the_axes(self, jsi_of, cavity, request, pump, filters, grid_257):
        cavity = request.getfixturevalue(cavity)
        noise = np.random.default_rng(257).random(grid_257.values.shape)
        filled = cs.SpectralGrid(grid_257.omega_s_axis, grid_257.omega_i_axis, noise)
        assert np.array_equal(jsi_of(cavity, pump, filters, grid_257).values,
                              jsi_of(cavity, pump, filters, filled).values)


def test_filterspec_validation():
    with pytest.raises(ValueError):
        cs.FilterSpec(1.0, -1.0)


_CRYSTAL = cs.bbo(THETA_DEGENERATE, 20e-6)
_TARGET = dict(lambda_signal=854.2e-9, transition_bandwidth=2 * np.pi * 20e6,
               lambda_pump=400e-9, delta_lambda_max=0.5e-9)


@pytest.mark.parametrize("build", [
    lambda: cs.CavitySpec(np.nan, _CRYSTAL),
    lambda: cs.CavitySpec(np.inf, _CRYSTAL),
    lambda: cs.FilterSpec(np.nan, 1e13),
    lambda: cs.FilterSpec(-1.0, 1e13),
    lambda: cs.FilterSpec(OMEGA_800, np.inf),
    lambda: cs.PumpSpec(np.inf, 1e12),
    lambda: cs.PumpSpec(2 * OMEGA_800, np.inf),
    lambda: cs.MirrorSpec(0.5, np.nan),
    lambda: cs.DesignTarget(**{**_TARGET, "lambda_signal": np.inf}),
    lambda: cs.PeakSet(np.array([0.0, 1.0]), np.array([1.0, np.nan])),
    lambda: cs.PeakSet(np.array([0.0, np.nan]), np.array([1.0, 1.0])),
    lambda: cs.PeakSet(np.array([np.nan]), np.array([1.0])),
], ids=["cavity_L_nan", "cavity_L_inf", "filter_center_nan", "filter_center_negative",
        "filter_fwhm_inf", "pump_center_inf", "pump_sigma_inf", "mirror_phase_nan",
        "design_lambda_signal_inf", "peak_height_nan", "peak_position_nan",
        "single_peak_position_nan"])
def test_spec_rejects_non_finite_or_out_of_range_values(build):
    with pytest.raises(ValueError):
        build()
