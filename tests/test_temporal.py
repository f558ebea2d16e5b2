import tracemalloc

import numpy as np
import pytest

import cavityspdc as cs
import cavityspdc.temporal

from cavityspdc._parallel import map_blocks
from cavityspdc.errors import EmptyPeakSetError, UnderResolvedError
from cavityspdc.spectral import _jsa_sr_pointwise
from cavityspdc.temporal import _BLOCK_PLUS, _BLOCK_ROWS, joint_temporal_intensity_from_cavity

from conftest import OMEGA_800, run_temporal_pipeline


def random_rotated(n_minus, n_plus, seed=0):
    """RotatedGrid of random complex values on axes near the 800 nm pair."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_minus, n_plus)) + 1j * rng.standard_normal((n_minus, n_plus))
    plus = 2 * OMEGA_800 + np.linspace(-1e13, 1e13, n_plus)
    minus = np.linspace(-3e13, 3e13, n_minus)
    return cs.RotatedGrid(plus, minus, values)


def sr_lattice(n_minus, n_plus, pump, filters):
    """Rotated axes over +-4 pump sigma and +-3 filter FWHMs around the 800 nm pair."""
    half = 3 * filters[0].fwhm
    plus = np.linspace(2 * OMEGA_800 - 4 * pump.sigma, 2 * OMEGA_800 + 4 * pump.sigma, n_plus)
    return plus, np.linspace(-half, half, n_minus)


def traced_peak(fn):
    """(peak bytes numpy and Python allocate while fn runs, fn's result)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def blocks_in_reverse(threads, fn, items):
    """map_blocks with its blocks finishing in the reverse of their order."""
    return [fn(item) for item in reversed(items)][::-1]


class TestRotation:
    def test_antidiagonal_ridge_becomes_vertical(self, pump, crystal, filters):
        # no cavity: the rotated-lattice amplitude is the bare one
        no_cavity = cs.singly_resonant_cavity(20e-6, crystal, 0.0)
        half = 4 * filters[0].fwhm
        plus = np.linspace(2 * OMEGA_800 - half, 2 * OMEGA_800 + half, 401)
        minus = np.linspace(-half, half, 401)
        rot = cs.jsa_singly_resonant_rotated(no_cavity, pump, filters, plus, minus)
        intensity = np.abs(rot.values) ** 2
        profile = intensity.sum(axis=0)  # collapse the minus axis
        peak = np.argmax(profile)
        assert rot.omega_plus_axis[peak] == pytest.approx(2 * OMEGA_800, abs=2 * rot.d_plus)
        # the ridge is narrow in omega_plus and long in omega_minus
        plus_extent = (profile > 0.1 * profile.max()).sum() * rot.d_plus
        minus_profile = intensity.sum(axis=1)
        minus_extent = (minus_profile > 0.1 * minus_profile.max()).sum() * rot.d_minus
        assert minus_extent > 2 * plus_extent

    def test_blocks_match_full_lattice_evaluation(self, sr_cavity, pump, filters):
        # three full blocks of minus rows and a ragged fourth; three threads
        # fill ragged blocks of a third of that height
        plus, minus = sr_lattice(3 * _BLOCK_ROWS + 11, 37, pump, filters)
        mm, pp = np.meshgrid(minus, plus, indexing="ij")
        full = _jsa_sr_pointwise(sr_cavity, pump, filters, (pp + mm) / 2.0, (pp - mm) / 2.0)
        for threads in (1, 3):
            rot = cs.jsa_singly_resonant_rotated(sr_cavity, pump, filters, plus, minus, threads)
            assert np.array_equal(rot.values, full)

    def test_non_uniform_axis_rejected(self):
        axis = np.array([0.0, 1.0, 3.0])
        with pytest.raises(ValueError):
            cs.RotatedGrid(axis, np.linspace(0, 1, 3), np.zeros((3, 3)))

class TestJointTemporalIntensity:
    def test_gaussian_pair_width(self):
        # amplitude exp(-w^2/s^2) on the plus axis -> intensity width 2/s on t_plus
        s_plus, s_minus = 3e12, 5e12
        plus = np.linspace(-1.5e13, 1.5e13, 257) + 2 * OMEGA_800
        minus = np.linspace(-2.5e13, 2.5e13, 257)
        mm, pp = np.meshgrid(minus, plus, indexing="ij")
        values = np.exp(-((pp - 2 * OMEGA_800) ** 2) / s_plus**2 - mm**2 / s_minus**2)
        rot = cs.RotatedGrid(plus, minus, values.astype(complex))
        tg = cs.joint_temporal_intensity(rot)
        prof = tg.values[np.argmax(tg.values.max(axis=1))]
        t = tg.t_plus_axis
        sigma_t = np.sqrt(np.sum(prof * t**2) / np.sum(prof))
        # |ft|^2 ~ exp(-s^2 t^2 / 2): std = 1/s, amplitude width sigma_t = 2/s
        assert sigma_t == pytest.approx(1.0 / s_plus, rel=1e-3)

    def test_parseval(self, crystal, pump, filters):
        # the minus span of 4 filter widths leaves the lattice edges at ~1e-10
        # of the peak intensity, so trapezoid and plain sums agree
        _, rot, tg = run_temporal_pipeline(crystal, 0.73, pump, filters, minus_span=4.0)
        spectral_power = np.trapezoid(
            np.trapezoid(np.abs(rot.values) ** 2, rot.omega_plus_axis, axis=1),
            rot.omega_minus_axis,
        )
        temporal_power = np.trapezoid(
            np.trapezoid(tg.values, tg.t_plus_axis, axis=1), tg.t_minus_axis
        )
        assert temporal_power == pytest.approx(spectral_power, rel=1e-6)

    def test_under_resolution_error(self):
        minus = np.linspace(-1e13, 1e13, 64)
        # reachable window 4 pi / d_minus ~ 4e-11 s; demand 20 x 1e-11 s trips
        with pytest.raises(UnderResolvedError, match="need <= 319 minus-axis samples"):
            cs.check_minus_window(minus, 1e-11)
        cs.check_minus_window(minus, 1e-13)  # 20 x 1e-13 s fit

    @pytest.mark.parametrize(
        "n_minus, n_plus, pad_plus, pad_minus",
        [(37, 203, None, None), (65, 33, 64, 128), (301, 77, 256, 512), (41, 29, 45, 99)],
    )
    def test_streamed_transform_is_shifted_fft2_intensity(self, monkeypatch, n_minus, n_plus,
                                                          pad_plus, pad_minus):
        rot = random_rotated(n_minus, n_plus)

        def streamed(threads):
            return cs.joint_temporal_intensity(rot, pad_plus=pad_plus, pad_minus=pad_minus,
                                               threads=threads)

        for threads in (1, 3):
            tg = streamed(threads)
            ft = np.fft.fft2(rot.values, s=tg.values.shape)
            ft *= rot.d_plus * rot.d_minus / (2 * np.pi * np.sqrt(2.0))
            assert np.array_equal(tg.values, np.fft.fftshift(np.abs(ft) ** 2))
        # The last block of a wave finishing first: a write that did not wait
        # for the whole wave would land on spectrum rows not yet transformed.
        monkeypatch.setattr(cavityspdc.temporal, "map_blocks", blocks_in_reverse)
        assert np.array_equal(streamed(3).values, tg.values)

    def test_handed_over_amplitude_is_freed_before_stage_two(self):
        # peak bytes, not time: the amplitude goes once the stage-one spectrum
        # exists, and no padded complex spectrum is ever formed
        n_minus, n_plus, pad_plus, pad_minus = 1000, 500, 512, 1024
        tracemalloc.start()
        try:
            handed = [random_rotated(n_minus, n_plus)]
            tracemalloc.reset_peak()
            tg = cs.joint_temporal_intensity(handed.pop(), pad_plus=pad_plus, pad_minus=pad_minus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        amplitude, stage_one = 16 * n_minus * n_plus, 16 * n_minus * pad_plus
        assert peak < 1.1 * (amplitude + stage_one)
        kept = cs.joint_temporal_intensity(random_rotated(n_minus, n_plus),
                                           pad_plus=pad_plus, pad_minus=pad_minus)
        assert np.array_equal(tg.values, kept.values)

    @pytest.mark.parametrize(
        "n_minus, n_plus",
        # at the default 2048 x 2048 transform: n_minus below 1024, so the
        # spectrum sits at the tail of the buffer, and above it, so it fills it
        [(37, 29), (1031, 29)],
    )
    def test_fused_transform_is_shifted_fft2_intensity(self, sr_cavity, pump, filters, n_minus,
                                                       n_plus):
        plus, minus = sr_lattice(n_minus, n_plus, pump, filters)
        rot = cs.jsa_singly_resonant_rotated(sr_cavity, pump, filters, plus, minus)
        ft = np.fft.fft2(rot.values, s=(2048, 2048))
        ft *= rot.d_plus * rot.d_minus / (2 * np.pi * np.sqrt(2.0))
        expected = np.fft.fftshift(np.abs(ft) ** 2)
        del ft
        axes = cs.joint_temporal_intensity(rot)
        for threads in (1, 2, 3):
            tg = joint_temporal_intensity_from_cavity(sr_cavity, pump, filters, plus, minus,
                                                      threads)
            assert np.array_equal(tg.values, expected)
            assert np.array_equal(tg.t_plus_axis, axes.t_plus_axis)
            assert np.array_equal(tg.t_minus_axis, axes.t_minus_axis)

    def test_fused_transform_peaks_at_its_one_buffer(self, sr_cavity, pump, filters):
        # peak bytes, not time: the amplitude is never formed, and the
        # intensity fills the buffer that held the stage-one spectrum
        n_minus, n_plus, size = 1100, 800, 2048  # the default pads on both axes
        plus, minus = sr_lattice(n_minus, n_plus, pump, filters)
        buffer = 16 * size * max(n_minus, size // 2)
        amplitude, stage_one = 16 * n_minus * n_plus, 16 * n_minus * size
        # one block's temporaries: a fill block evaluated and transformed
        # along omega_plus, or a stage-two block transformed along omega_minus
        fill_block, _ = traced_peak(lambda: np.fft.fft(
            cs.jsa_singly_resonant_rotated(sr_cavity, pump, filters, plus,
                                           minus[:_BLOCK_ROWS]).values, n=size, axis=1))
        wave_block, _ = traced_peak(lambda: np.abs(np.fft.fft(
            np.ones((_BLOCK_PLUS, n_minus), complex), n=size, axis=1)))
        bound = 1.1 * buffer + max(fill_block, wave_block)
        assert bound < amplitude + stage_one  # the lattice tells the two routes apart

        fused_peak, fused = traced_peak(lambda: joint_temporal_intensity_from_cavity(
            sr_cavity, pump, filters, plus, minus))
        assert fused_peak < bound
        rot_peak, via_rot = traced_peak(lambda: cs.joint_temporal_intensity(
            cs.jsa_singly_resonant_rotated(sr_cavity, pump, filters, plus, minus)))
        assert rot_peak >= amplitude + stage_one
        assert np.array_equal(fused.values, via_rot.values)

    def test_comb_spacing_equals_round_trip(self, temporal_marginal):
        cav, marg = temporal_marginal(0.73)
        peaks = cs.extract_peaks(marg.axis, marg.density, 1e-4)
        dt = marg.axis[1] - marg.axis[0]
        spacing = np.median(np.diff(peaks.positions))
        assert abs(spacing - cs.group_round_trip_time(cav, OMEGA_800)) < dt

class TestTimeDifferenceMarginal:
    def test_row_blocks_match_one_trapezoid(self):
        # two full blocks of t_minus rows and a ragged third, and under three
        # threads ragged blocks of a third of that height
        rng = np.random.default_rng(3)
        values = rng.random((2 * _BLOCK_ROWS + 5, 48))
        tg = cs.TemporalGrid(np.linspace(-1e-12, 1e-12, 48),
                             np.linspace(-2e-12, 2e-12, values.shape[0]), values)
        for threads in (1, 3):
            marg = cs.time_difference_marginal(tg, threads)
            assert np.array_equal(marg.density, np.trapezoid(values, tg.t_plus_axis, axis=1))

    def test_transposed_values_sum_as_their_contiguous_copy(self):
        # the transform returns its intensity as a transposed view; each row
        # must keep the pairwise sum of a contiguous row
        rng = np.random.default_rng(5)
        values_t = rng.random((301, 2 * _BLOCK_ROWS + 5))  # (t_plus, t_minus)
        t_plus = np.linspace(-1e-12, 1e-12, values_t.shape[0])
        t_minus = np.linspace(-2e-12, 2e-12, values_t.shape[1])
        transposed = cs.TemporalGrid(t_plus, t_minus, values_t.T)
        contiguous = cs.TemporalGrid(t_plus, t_minus, np.ascontiguousarray(values_t.T))
        assert not transposed.values.flags.c_contiguous
        for threads in (1, 3):
            assert np.array_equal(cs.time_difference_marginal(transposed, threads).density,
                                  cs.time_difference_marginal(contiguous, threads).density)

    def test_separable_grid(self):
        tp = np.linspace(-1.0, 1.0, 33)
        tm = np.linspace(-2.0, 2.0, 65)
        a = np.exp(-(tp**2))
        b = np.exp(-(tm**2) / 4)
        tg = cs.TemporalGrid(tp, tm, np.outer(b, a))
        marg = cs.time_difference_marginal(tg)
        assert np.allclose(marg.density, b * np.trapezoid(a, tp), rtol=1e-12)

    def test_symmetric_for_degenerate_source(self, temporal_marginal):
        _, marg = temporal_marginal(0.73)
        dens = marg.density[1:]  # even-size transform: index 0 has no mirror
        assert np.abs(dens - dens[::-1]).max() <= 1e-6 * dens.max()

    def test_highest_peak_at_zero(self, temporal_marginal):
        _, marg = temporal_marginal(0.73)
        peaks = cs.extract_peaks(marg.axis, marg.density, 1e-4)
        best = peaks.positions[np.argmax(peaks.heights)]
        dt = marg.axis[1] - marg.axis[0]
        assert abs(best) < dt

class TestExtractPeaks:
    def test_single_gaussian(self):
        x = np.linspace(-5, 5, 401)
        y = np.exp(-((x - 0.3123) ** 2))
        peaks = cs.extract_peaks(x, y, 1e-3)
        assert peaks.positions.size == 1
        assert peaks.positions[0] == pytest.approx(0.3123, abs=x[1] - x[0])

    def test_two_distant_gaussians(self):
        x = np.linspace(-30, 30, 2001)
        y = np.exp(-((x + 10) ** 2)) + np.exp(-((x - 10) ** 2))
        peaks = cs.extract_peaks(x, y, 1e-3)
        assert peaks.positions.size == 2

    def test_synthetic_comb_tooth_count(self):
        # teeth at k*T with heights rho^|k|; prominence 1e-4 keeps
        # |k| <= floor(ln(1e-4)/ln(rho)) teeth on each side
        rho, t_comb = 0.62, 1.0
        x = np.linspace(-25, 25, 20001)
        y = np.zeros_like(x)
        for k in range(-20, 21):
            y += rho ** abs(k) * np.exp(-((x - k * t_comb) ** 2) / 0.01**2)
        peaks = cs.extract_peaks(x, y, 1e-4)
        k_max = int(np.floor(np.log(1e-4) / np.log(rho)))
        assert peaks.positions.size == 2 * k_max + 1

    def test_matches_scipy_find_peaks(self):
        # scipy is a test-only oracle: same indices as find_peaks(height=...)
        # on a high-finesse comb and on random arrays (no equal neighbours)
        from scipy.signal import find_peaks

        x = np.linspace(-4, 4, 40001)
        comb = 1.0 / (1.0 + 4e4 * np.sin(np.pi * x) ** 2) * np.exp(-(x**2))
        rng = np.random.default_rng(17)
        for y in [comb] + [rng.random(n) for n in (50, 1000, 1000)]:
            assert np.all(np.diff(y) != 0)
            idx, _ = find_peaks(y, height=1e-4 * y.max())
            # on an index axis each refined position lies within half a
            # sample of its maximum
            peaks = cs.extract_peaks(np.arange(y.size, dtype=float), y, 1e-4)
            assert peaks.positions.size == idx.size > 0
            assert np.all(np.abs(peaks.positions - idx) <= 0.5)

    def test_empty(self):
        x = np.linspace(0, 1, 64)
        with pytest.raises(EmptyPeakSetError):
            cs.extract_peaks(x, np.linspace(0, 1, 64), 0.5)  # monotone ramp, no interior max

class TestCorrelationTime:
    def test_two_equal_peaks(self):
        peaks = cs.PeakSet(np.array([-3.0e-12, 3.0e-12]), np.array([1.0, 1.0]))
        assert cs.correlation_time(peaks) == pytest.approx(3.0e-12, abs=0)

    def test_geometric_decay_closed_form(self):
        # single-sided comb h_k = rho^k at tau_k = k T:
        # weighted std = T sqrt(rho) / (1 - rho)
        rho, t_comb = 0.55, 2.0e-13
        k = np.arange(0, 200)
        peaks = cs.PeakSet(k * t_comb, rho**k)
        expected = t_comb * np.sqrt(rho) / (1 - rho)
        assert cs.correlation_time(peaks) == pytest.approx(expected, rel=1e-10, abs=0)

    def test_needs_two_peaks(self):
        with pytest.raises(EmptyPeakSetError, match="at least 2 peaks"):
            cs.correlation_time(cs.PeakSet(np.array([0.0]), np.array([1.0])))

    @pytest.mark.parametrize("r2", [0.5, 0.7, 0.9])
    def test_matches_two_sided_geometric_comb_model(self, temporal_marginal, r2):
        # tooth heights decay as (r2^2)^|m|: the exit amplitude loses a
        # factor r2 per extra pass of either photon and each pass-count
        # group is separated in t_plus by the short pump, so
        # t_C = T sqrt(2 rho) / (1 - rho) with rho = r2^2
        cav, marg = temporal_marginal(r2)
        peaks = cs.extract_peaks(marg.axis, marg.density, 1e-5)
        measured = cs.correlation_time(peaks)
        rho = r2**2
        t_rt = cs.group_round_trip_time(cav, OMEGA_800)
        expected = t_rt * np.sqrt(2 * rho) / (1 - rho)
        assert measured == pytest.approx(expected, rel=0.03, abs=0)

def test_temporal_grid_validation():
    with pytest.raises(ValueError):
        cs.TemporalGrid(np.linspace(0, 1, 4), np.linspace(0, 1, 4), -np.ones((4, 4)))
    with pytest.raises(ValueError, match="non-negative"):
        cs.TemporalGrid(np.linspace(0, 1, 4), np.linspace(0, 1, 3), -np.ones((4, 3)).T)


def test_temporal_grid_check_allocates_no_full_size_temporary():
    # stage two's layout: the intensity is the transposed view of a (t_plus, t_minus) array
    n_plus, n_minus = 1024, 2048
    values_t = np.ones((n_plus, n_minus))
    t_plus, t_minus = np.linspace(-1, 1, n_plus), np.linspace(-1, 1, n_minus)
    peak, grid = traced_peak(lambda: cs.TemporalGrid(t_plus, t_minus, values_t.T))
    assert grid.values.base is values_t
    assert peak < 2**20  # a bool mask of the values would take 2 MiB

def test_peakset_validation():
    with pytest.raises(ValueError):
        cs.PeakSet(np.array([1.0, 0.5]), np.array([1.0, 1.0]))  # not increasing
    with pytest.raises(ValueError):
        cs.PeakSet(np.array([0.0, 1.0]), np.array([1.0, -1.0]))  # bad height

def test_block_error_reaches_the_caller():
    def square(k):
        if k == 3:
            raise EmptyPeakSetError("block 3")
        return k * k

    with pytest.raises(EmptyPeakSetError, match="block 3"):
        map_blocks(2, square, range(6))
    assert map_blocks(2, square, [0, 1, 2, 4]) == [0, 1, 4, 16]
