from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import cavityspdc as cs
import cavityspdc._parallel
import cavityspdc.brightness as stripe_module
import cavityspdc.spectral as spectral_module
from cavityspdc._parallel import blocks
from cavityspdc.brightness import brightness_from_cavity
from cavityspdc.config import load_config

from conftest import OMEGA_800, traced_peak

SQRT_2LN2 = np.sqrt(2 * np.log(2))
FIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def flat_cavity(crystal):
    return cs.solve_resonance_phases(
        cs.singly_resonant_cavity(20e-6, crystal, 0.0).with_mirror(2, "signal", magnitude=0.0),
        OMEGA_800,
        OMEGA_800,
    )


@pytest.fixture(scope="module")
def r9_cavity(crystal):
    return cs.solve_resonance_phases(
        cs.singly_resonant_cavity(20e-6, crystal, 0.9), OMEGA_800, OMEGA_800
    )


def _trapezoid_brightness(jsi, pump, crystal):
    """Oracle: plain 2-D trapezoid of a JSI grid, rate factors at the axis midpoints, / sigma."""
    omega_s0 = jsi.omega_s_axis[jsi.omega_s_axis.size // 2]
    omega_i0 = jsi.omega_i_axis[jsi.omega_i_axis.size // 2]
    integrand = jsi.values * _rate_factor(crystal, omega_s0) * _rate_factor(crystal, omega_i0)
    raw = np.trapezoid(np.trapezoid(integrand, jsi.omega_s_axis, axis=1), jsi.omega_i_axis)
    return raw / pump.sigma


class TestBrightnessIntegral:
    def test_exact_vs_central_factors_close_for_narrow_emission(self, crystal, pump):
        # emission confined to +-2 percent of the center: both factor modes
        # agree within 1 percent
        narrow = cs.FilterSpec(OMEGA_800, 0.005 * OMEGA_800)
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.0)
        exact = brightness_from_cavity(cav, pump, (narrow, narrow), factor_mode="exact_factors")
        approx = brightness_from_cavity(cav, pump, (narrow, narrow), factor_mode="central_approx")
        assert exact.value == pytest.approx(approx.value, rel=0.01)

    def test_stripe_matches_plain_trapezoid(self, crystal, pump, filters):
        # the stripe integrator and a plain 2-D quadrature agree on a
        # cavity-free source
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.0)
        grid = cs.default_grid(OMEGA_800, OMEGA_800, 3.3 * filters[0].fwhm, samples=801)
        jsi = cs.jsi_singly_resonant(cav, pump, filters, grid)
        b_stripe = brightness_from_cavity(cav, pump, filters).value
        assert b_stripe == pytest.approx(_trapezoid_brightness(jsi, pump, crystal), rel=2e-3)

    def test_stripe_matches_plain_trapezoid_at_half_sigma(self, crystal, pump, filters):
        # the two still agree when the pump bandwidth, and so the 1/sigma
        # normalization, changes
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.0)
        narrow = replace(pump, sigma=pump.sigma / 2)
        grid = cs.default_grid(OMEGA_800, OMEGA_800, 3.3 * filters[0].fwhm, samples=801)
        jsi = cs.jsi_singly_resonant(cav, narrow, filters, grid)
        b_stripe = brightness_from_cavity(cav, narrow, filters).value
        assert b_stripe == pytest.approx(_trapezoid_brightness(jsi, narrow, crystal), rel=2e-3)

    def test_stripe_matches_plain_trapezoid_with_cavity(self, crystal, pump, filters):
        cav = cs.solve_resonance_phases(
            cs.singly_resonant_cavity(20e-6, crystal, 0.5), OMEGA_800, OMEGA_800
        )
        grid = cs.default_grid(OMEGA_800, OMEGA_800, 3.3 * filters[0].fwhm, samples=2048)
        # the oracle grid resolves the mode width with at least 8 samples
        assert cs.mode_width(cav, OMEGA_800, "signal") >= 8 * grid.d_omega_s
        jsi = cs.jsi_singly_resonant(cav, pump, filters, grid)
        b_stripe = brightness_from_cavity(cav, pump, filters).value
        assert b_stripe == pytest.approx(_trapezoid_brightness(jsi, pump, crystal), rel=0.02)

    def test_no_cavity_reference_ignores_mirror_1(self, crystal, dr_cavity, pump, filters):
        # the reference keeps the perfect mirror 1; with mirror 2 and the pump
        # mirrors open it matches the cavity with every mirror open
        reference = stripe_module._no_cavity(dr_cavity)
        assert reference.mirror(1, "signal").magnitude == 1.0
        open_cavity = cs.CavitySpec(dr_cavity.length_L, crystal)
        assert brightness_from_cavity(reference, pump, filters).value == (
            brightness_from_cavity(open_cavity, pump, filters).value
        )

    def test_no_cavity_reference_folds_whatever_the_mirror_phases(self, sr_cavity, pump,
                                                                   filters):
        # mirror 2 open leaves no phasor, so unequal signal and idler phases
        # must not keep the reference's exchange-symmetric stripe from folding
        cavity = sr_cavity.with_mirror(1, "signal", phase=0.3).with_mirror(2, "idler", phase=0.2)
        reference = stripe_module._no_cavity(cavity)
        assert stripe_module._stripe_axes(reference, pump, filters).folded
        phased = cavity
        for mode in ("signal", "idler"):
            phased = phased.with_mirror(2, mode, magnitude=0.0)
        assert not stripe_module._stripe_axes(phased, pump, filters).folded
        assert brightness_from_cavity(reference, pump, filters).value == pytest.approx(
            brightness_from_cavity(phased, pump, filters).value, rel=1e-13, abs=0
        )


class TestSigmaSweep:
    def test_no_cavity_flat_over_two_decades(self, flat_cavity, pump, filters):
        sigmas = list(np.logspace(11, 13, 7))
        table = cs.brightness_vs_sigma_sweep(flat_cavity, pump.omega_p0, filters, sigmas, [0.0])
        b = table.column("B_norm")
        assert b.max() / b.min() - 1 < 0.05

    def test_reference_is_unity_at_smallest_sigma(self, flat_cavity, pump, filters):
        table = cs.brightness_vs_sigma_sweep(
            flat_cavity, pump.omega_p0, filters, [1e12, 4e11], [0.0]
        )
        rows = {row[0]: row[2] for row in table.rows}
        assert rows[4e11] == pytest.approx(1.0, rel=1e-12)

    def test_large_sigma_matches_no_cavity(self, r9_cavity, pump, filters):
        # far above the mode-spacing crossover the comb redistributes the
        # intensity without changing the integral
        sigma = 4.5e13
        table = cs.brightness_vs_sigma_sweep(
            r9_cavity, pump.omega_p0, filters, [sigma], [0.0, 0.9]
        )
        b0, b9 = table.column("B_norm")
        assert b9 / b0 == pytest.approx(1.0, abs=0.15)

    def test_plateau_ordering_and_monotone_growth(self, r9_cavity, pump, filters):
        sigmas = [2.4e13, 6e12, 1.5e12, 4e11]
        table = cs.brightness_vs_sigma_sweep(
            r9_cavity, pump.omega_p0, filters, sigmas, [0.5, 0.7, 0.9]
        )
        by_r2 = {}
        for sigma, r2, b in table.rows:
            by_r2.setdefault(r2, []).append(b)
        # B_norm never decreases as sigma shrinks (rows are in sigma order)
        for r2, curve in by_r2.items():
            assert all(a <= b * (1 + 1e-9) for a, b in zip(curve, curve[1:]))
        # and the small-sigma plateaus order with reflectivity
        plateau = {r2: curve[-1] for r2, curve in by_r2.items()}
        assert plateau[0.9] > plateau[0.7] > plateau[0.5] > 1.0

    def test_crossover_near_mode_spacing(self, r9_cavity, pump, filters):
        # the cavity curve separates from the equal-sigma cavity-free curve
        # at sigma = (mode spacing)/sqrt(2 ln 2), within 20 percent
        fsr = cs.free_spectral_range(r9_cavity, OMEGA_800)
        expected = fsr / SQRT_2LN2
        sigmas = list(np.geomspace(4.5e13, 8e12, 7))
        table = cs.brightness_vs_sigma_sweep(r9_cavity, pump.omega_p0, filters, sigmas, [0.0, 0.9])
        b0 = table.column("B_norm")[: len(sigmas)]
        b9 = table.column("B_norm")[len(sigmas):]
        ratio = b9 / b0
        k = int(np.argmax(ratio > 1.05))
        assert 0 < k < len(sigmas)
        # log-interpolate the 1.05 crossing between neighbours
        f = (1.05 - ratio[k - 1]) / (ratio[k] - ratio[k - 1])
        measured = sigmas[k - 1] * (sigmas[k] / sigmas[k - 1]) ** f
        assert measured == pytest.approx(expected, rel=0.2)


@pytest.fixture()
def stripe_calls(monkeypatch):
    """Arguments of every stripe built while the test runs."""
    calls = []
    stripe_columns = stripe_module._stripe_columns

    def counted(*args, **kwargs):
        calls.append(args)
        return stripe_columns(*args, **kwargs)

    monkeypatch.setattr(stripe_module, "_stripe_columns", counted)
    return calls


class TestPlateauSweep:
    def test_no_reference_integral_at_zero_r2(self, flat_cavity, pump, filters, stripe_calls):
        cs.plateau_brightness_vs_r2(flat_cavity, pump.omega_p0, filters, [0.0, 0.5], pump.sigma)
        assert len(stripe_calls) == 2  # the r2 = 0.5 row and its reference

    def test_zero_r2_row_keeps_the_pump_mirrors(self, dr_base, pump, filters):
        # open signal/idler mirrors with a perfect pump back mirror: the two
        # crystal passes quadruple the rate over the no-cavity reference
        table = cs.plateau_brightness_vs_r2(dr_base, pump.omega_p0, filters, [0.0], 2e11)
        (r2, sigma, b), = table.rows
        assert (r2, sigma) == (0.0, 2e11)
        assert b == pytest.approx(4.0, rel=2e-3)

    def test_reference_and_monotonicity(self, flat_cavity, pump, filters):
        table = cs.plateau_brightness_vs_r2(flat_cavity, pump.omega_p0, filters, [0.0, 0.5, 0.9],
                                            pump.sigma)
        b = table.column("B_norm")
        assert b[0] == 1.0
        assert b[0] < b[1] < b[2]

    def test_zero_r2_row_needs_its_width(self, flat_cavity, pump, filters, stripe_calls):
        with pytest.raises(ValueError, match="zero_sigma"):
            cs.plateau_brightness_vs_r2(flat_cavity, pump.omega_p0, filters, [0.5, 0.0])
        assert not stripe_calls  # refused before the first row's integral

    def test_plateau_sigma_condition(self, flat_cavity, pump, filters):
        table = cs.plateau_brightness_vs_r2(flat_cavity, pump.omega_p0, filters, [0.9])
        (r2, sigma, _), = table.rows
        cav = flat_cavity.with_mirror(2, "signal", magnitude=0.9).with_mirror(
            2, "idler", magnitude=0.9
        )
        assert sigma == pytest.approx(cs.mode_width(cav, OMEGA_800, "signal") / SQRT_2LN2)

    def test_inverse_one_minus_r2_scaling(self, flat_cavity, pump, filters):
        r2_list = [0.9, 0.95, 0.99]
        table = cs.plateau_brightness_vs_r2(flat_cavity, pump.omega_p0, filters, r2_list)
        y = table.column("B_norm")
        x = 1.0 / (1.0 - np.array(r2_list))
        design = np.vstack([x, np.ones_like(x)]).T
        coef, residual, *_ = np.linalg.lstsq(design, y, rcond=None)
        ss_tot = float(((y - y.mean()) ** 2).sum())
        r_squared = 1.0 - float(residual[0]) / ss_tot
        assert r_squared > 0.95
        assert coef[0] > 0


@pytest.fixture(scope="module")
def dr_base(crystal):
    cav = cs.singly_resonant_cavity(20e-6, crystal, 0.73)
    cav = cav.with_mirror(2, "pump", magnitude=1.0)
    return cs.solve_resonance_phases(cav, OMEGA_800, OMEGA_800, 2 * OMEGA_800)


class TestR1pSweep:

    def test_normalized_to_single_pass(self, dr_base, pump, filters):
        table = cs.brightness_vs_r1p_sweep(dr_base, pump.omega_p0, filters, [0.0, 0.5], [2e11])
        rows = {row[1]: row[2] for row in table.rows}
        assert rows[0.0] == pytest.approx(1.0, rel=1e-12)
        assert rows[0.5] > 1.0

    def test_monotone_growth_up_to_09(self, dr_base, pump, filters):
        r1p = [0.0, 0.3, 0.6, 0.9]
        table = cs.brightness_vs_r1p_sweep(dr_base, pump.omega_p0, filters, r1p, [2e11])
        b = table.column("B_norm")
        assert all(a < b_ for a, b_ in zip(b, b[1:]))

    def test_no_integral_of_its_own_at_zero_or_unit_r1p(
        self, dr_base, pump, filters, stripe_calls
    ):
        table = cs.brightness_vs_r1p_sweep(
            dr_base, pump.omega_p0, filters, [0.0, 0.5, 1.0], [2e11]
        )
        assert len(stripe_calls) == 1  # the reference's stripe, which the r1p = 0.5 row reuses
        assert table.column("B_norm")[[0, 2]].tolist() == [1.0, 0.0]

    def test_zero_at_unit_reflectivity(self, dr_base, pump, filters):
        table = cs.brightness_vs_r1p_sweep(dr_base, pump.omega_p0, filters, [0.99, 1.0], [2e11])
        b = table.column("B_norm")
        assert b[-1] == 0.0
        assert b[0] > 1.0

    def test_requires_perfect_pump_mirror2(self, crystal, pump, filters):
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.73)
        with pytest.raises(ValueError):
            cs.brightness_vs_r1p_sweep(cav, pump.omega_p0, filters, [0.0], [2e11])

    def test_requires_filters(self, dr_base, pump):
        with pytest.raises(ValueError, match="filters"):
            cs.brightness_from_cavity(dr_base, pump, None)

    def test_open_input_mirror_gives_two_pass_quadrupling(self, dr_base, pump, filters):
        # r1p = 0 with a perfect back mirror reflects the pump once: two
        # coherent crystal passes double the pair amplitude, so with the
        # balance phase solved the rate is 4x the single-pass cavity
        from dataclasses import replace

        narrow = replace(pump, sigma=2e11)
        cav0 = dr_base.with_mirror(1, "pump", magnitude=0.0)
        b_two_pass = brightness_from_cavity(cav0, narrow, filters).value
        single = cav0.with_mirror(2, "pump", magnitude=0.0)
        b_single = brightness_from_cavity(single, narrow, filters).value
        assert b_two_pass / b_single == pytest.approx(4.0, rel=2e-3)


class TestSweepTable:
    def test_text_rendering(self):
        table = cs.SweepTable(("a", "b"), [(1.0, 2.5), (3.0, 4.0)])
        text = table.to_text()
        lines = text.strip().split("\n")
        assert lines[0] == "a\tb"
        assert lines[1].startswith("1")
        assert len(lines) == 3


def _rate_factor(crystal, omega):
    n = cs.refractive_index(crystal, omega, "ordinary")
    return cs.group_slowness(crystal, omega, "ordinary") * omega / n**2


def _source(sr_cavity, dr_cavity, filters, doubly_resonant, degenerate):
    """Cavity and filters of a degenerate source, or one with distinct signal and idler."""
    cavity = dr_cavity if doubly_resonant else sr_cavity
    if degenerate:
        return cavity, filters
    # distinct signal and idler tables: shifted centers, widths and mirrors
    f_s, f_i = filters
    return cavity.with_mirror(2, "idler", magnitude=0.6), (
        replace(f_s, center=1.01 * OMEGA_800),
        replace(f_i, center=0.99 * OMEGA_800, fwhm=0.8 * f_i.fwhm),
    )


def _pointwise_intensity(cavity, pump, filters, omega_s, omega_i):
    """Oracle S_DR = A_s A_i A_p P |f|^2 from the complex bare amplitude and pointwise factors.

    With both pump mirrors open A_p = P = 1, so the same formula is S_SR.
    """
    s = np.abs(cs.jsa_bare(pump, cavity.crystal, filters, omega_s, omega_i)) ** 2
    s = s * cs.airy(omega_s, "signal", cavity) * cs.airy(omega_i, "idler", cavity)
    s = s * cs.airy(omega_s + omega_i, "pump", cavity)
    return s * cs.phase_balancing(cavity, omega_s, omega_i)


def _plus_weight(cavity, pump, omega_plus):
    """Oracle |alpha|^2 A_p at omega_plus = omega_s + omega_i: 1-D factors of S_DR."""
    return np.abs(cs.pump_envelope(pump, omega_plus)) ** 2 * cs.airy(omega_plus, "pump", cavity)


def _assert_matches_oracle(got, expect, rtol=1e-12):
    # Floor: the DR oracle takes sin of the unfolded phase sum (~800 rad,
    # rounding ~1e-13 rad), so samples at a phase-balancing zero cancel.
    floor = 1e-13 * np.abs(expect).max()
    assert np.all(np.abs(got - expect) <= rtol * np.abs(expect) + floor)


@pytest.fixture()
def kernel_shapes(monkeypatch):
    """(columns, minus rows) of every kernel call taken while the test runs."""
    shapes = []
    intensity = stripe_module._intensity

    def recorded(*args):
        s = intensity(*args)
        shapes.append(s.shape)
        return s

    monkeypatch.setattr(stripe_module, "_intensity", recorded)
    return shapes


class TestStripeLattice:
    @pytest.mark.parametrize("filtered", [True, False])
    @pytest.mark.parametrize("degenerate", [True, False])
    @pytest.mark.parametrize("doubly_resonant", [False, True])
    def test_rectangular_grid_matches_pointwise_evaluation(
        self, sr_cavity, dr_cavity, pump, filters, doubly_resonant, degenerate, filtered
    ):
        # the rectangular JSIs share the stripe's factor tables and kernel
        cavity, filters = _source(sr_cavity, dr_cavity, filters, doubly_resonant, degenerate)
        halfwidth = 3 * filters[1].fwhm
        grid = cs.default_grid(filters[0].center, filters[1].center, halfwidth, samples=129)
        if not filtered:  # the design.spectral_check route
            filters = None
        got = cs.jsi_singly_resonant(cavity, pump, filters, grid).values
        omega_s, omega_i = grid.meshgrid()
        expect = _pointwise_intensity(cavity, pump, filters, omega_s, omega_i)
        _assert_matches_oracle(got, expect)

    @pytest.mark.parametrize("degenerate", [True, False])
    @pytest.mark.parametrize("factor_mode", ["central_approx", "exact_factors"])
    @pytest.mark.parametrize("doubly_resonant", [False, True])
    def test_table_kernel_matches_pointwise_evaluation(
        self, sr_cavity, dr_cavity, crystal, pump, filters, doubly_resonant, factor_mode,
        degenerate,
    ):
        cavity, filters = _source(sr_cavity, dr_cavity, filters, doubly_resonant, degenerate)
        stripe = stripe_module._stripe_axes(cavity, pump, filters)
        tables = stripe_module._stripe_tables(stripe, cavity, filters, factor_mode)
        columns = stripe.columns(tables)
        n_plus, n_minus = stripe.plus.size, stripe.minus.size
        assert stripe.signal.size == stripe.idler.size == (
            stripe.q_plus * (n_plus - 1) + stripe.q_minus * (n_minus - 1) + 1
        )
        # central_approx multiplies its constant into g after the kernel
        _, g = stripe_module._stripe_columns(cavity, pump, filters, factor_mode)
        got, expect = [], []
        for start in (0, n_plus // 2 - 32):
            chunk = slice(start, start + 64)
            column = stripe_module._column_integrals(stripe, columns, cavity, chunk)
            if factor_mode == "exact_factors":
                assert np.array_equal(column, g[chunk])
            got.append(g[chunk])
            a = np.arange(start, start + 64)[:, None]
            b = np.arange(n_minus)[None, :]
            omega_s = stripe.signal[stripe.q_plus * a + stripe.q_minus * b]
            omega_i = stripe.idler[stripe.q_plus * (n_plus - 1 - a) + stripe.q_minus * b]
            plus, minus = stripe.plus[a], stripe.minus[b]
            # the tables sit on the rotated lattice
            assert np.abs(omega_s - (plus + minus) / 2).max() <= 4e-16 * OMEGA_800
            assert np.abs(omega_i - (plus - minus) / 2).max() <= 4e-16 * OMEGA_800
            # the columns integrate S without the plus weight |alpha|^2 A_p
            s = _pointwise_intensity(cavity, pump, filters, omega_s, omega_i) / _plus_weight(
                cavity, pump, omega_s + omega_i
            )
            if factor_mode == "exact_factors":
                s = s * _rate_factor(crystal, omega_s) * _rate_factor(crystal, omega_i)
            else:
                s = s * _rate_factor(crystal, filters[0].center) * _rate_factor(
                    crystal, filters[1].center
                )
            expect.append(np.trapezoid(s, dx=stripe.q_minus * stripe.h, axis=1))
        _assert_matches_oracle(np.concatenate(got), np.concatenate(expect))

    @pytest.mark.parametrize("fwhm_scale, parity", [(1.0, 1), (0.99, 0)])
    @pytest.mark.parametrize("factor_mode", ["central_approx", "exact_factors"])
    @pytest.mark.parametrize("doubly_resonant", [False, True])
    def test_folded_columns_match_unfolded(
        self, sr_cavity, dr_cavity, pump, filters, doubly_resonant, factor_mode, fwhm_scale,
        parity,
    ):
        cavity = dr_cavity if doubly_resonant else sr_cavity
        f = replace(filters[0], fwhm=fwhm_scale * filters[0].fwhm)
        narrow = replace(pump, sigma=1e12)  # q_minus > 1: the gather strides over the tables
        stripe = stripe_module._stripe_axes(cavity, narrow, (f, f))
        assert stripe.folded and stripe.q_minus > 1
        assert stripe.minus.size % 2 == parity
        signal, idler, plus = stripe_module._stripe_tables(stripe, cavity, (f, f), factor_mode)
        # flat photon weights keep the symmetry and make the end rows count
        flat = signal._replace(weight=np.ones_like(signal.weight))
        chunk = slice(0, stripe.plus.size)
        unfolded = stripe._replace(folded=False)
        for tables in ((signal, idler, plus), (flat, flat.view(lambda t: t[::-1]), plus)):
            got = stripe_module._column_integrals(stripe, stripe.columns(tables), cavity, chunk)
            expect = stripe_module._column_integrals(
                unfolded, unfolded.columns(tables), cavity, chunk
            )
            _assert_matches_oracle(got, expect, rtol=1e-13)

    @pytest.mark.parametrize("source", ["degenerate", "distinct", "unequal_idler_mirror"])
    @pytest.mark.parametrize("doubly_resonant", [False, True])
    def test_kernel_sees_half_the_minus_rows_of_a_degenerate_source(
        self, sr_cavity, dr_cavity, pump, filters, kernel_shapes, doubly_resonant, source
    ):
        degenerate = source != "distinct"
        cavity, filters = _source(sr_cavity, dr_cavity, filters, doubly_resonant, degenerate)
        if source == "unequal_idler_mirror":  # degenerate frequencies, distinct idler mirror
            cavity = cavity.with_mirror(2, "idler", magnitude=0.6)
        narrow = replace(pump, sigma=1e12)
        brightness_from_cavity(cavity, narrow, filters)
        n_minus = stripe_module._stripe_axes(cavity, narrow, filters).minus.size
        rows = (n_minus + 1) // 2 if source == "degenerate" else n_minus
        assert {shape[1] for shape in kernel_shapes} == {rows}

    @pytest.mark.parametrize(
        "r2, sigma", [(0.5, 1e11), (0.9, 1e11), (0.9, 2e12), (0.5, 4.6e13)]
    )
    def test_halved_steps_agree_sr(self, crystal, pump, filters, monkeypatch, r2, sigma):
        cav = cs.solve_resonance_phases(
            cs.singly_resonant_cavity(20e-6, crystal, r2), OMEGA_800, OMEGA_800
        )
        swept = replace(pump, sigma=sigma)
        default = brightness_from_cavity(cav, swept, filters).value
        monkeypatch.setattr(stripe_module, "_SAMPLES_PER_SCALE", 16)
        assert brightness_from_cavity(cav, swept, filters).value == pytest.approx(
            default, rel=1e-8, abs=0
        )

    def test_plus_step_resolves_the_pump_mode(self, monkeypatch):
        # fig6's r1p = 0.999 row: the pump width, about 9e9 rad/s, is the
        # finest omega_plus scale, finer than sigma / 2 and the photon modes.
        # The omega_plus axis of the pump weight resolves it, over the
        # stripe's span, and the stripe is the one of the open pump loop.
        cavity, pump, filters = _fig6_point()
        width = cs.mode_width(cavity, pump.omega_p0, "pump")
        assert width < pump.sigma / 2
        stripe = stripe_module._stripe_axes(cavity, pump, filters)
        open_loop = stripe_module._stripe_axes(
            cavity.with_mirror(1, "pump", magnitude=0.0), pump, filters
        )
        assert _same_stripe(stripe, open_loop)
        assert stripe.q_plus * stripe.h > width / 8
        axes = []
        pump_weight = spectral_module._pump_weight

        def recorded(cavity, pump, omega_p, n_p):
            axes.append(omega_p)
            return pump_weight(cavity, pump, omega_p, n_p)

        monkeypatch.setattr(spectral_module, "_pump_weight", recorded)
        brightness_from_cavity(cavity, pump, filters)
        axis = np.concatenate(axes)
        assert np.diff(axis).max() <= width / 8 * (1 + 1e-12)
        assert axis[[0, -1]] == pytest.approx(stripe.plus[[0, -1]], rel=1e-15, abs=0)

    @pytest.mark.parametrize("r1p", [0.0, 0.9])
    def test_halved_steps_agree_dr(self, dr_cavity, pump, filters, monkeypatch, r1p):
        cav = dr_cavity.with_mirror(1, "pump", magnitude=r1p)  # |r_2p| = 1
        swept = replace(pump, sigma=2e11)
        default = brightness_from_cavity(cav, swept, filters).value
        monkeypatch.setattr(stripe_module, "_SAMPLES_PER_SCALE", 16)
        halved = brightness_from_cavity(cav, swept, filters).value
        assert halved == pytest.approx(default, rel=1e-8, abs=0)


def _same_stripe(a, b):
    """Whether two stripes have the same lattice and tables, field by field."""
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(a, b))


def _fig6_point(r1p=0.999, sigma=2e11):
    """fig6's row at r1p and sigma; at sigma = 2e11: 93 381 table entries, 129 x 819 kernel samples.

    Its 1-D omega_plus axis resolves the pump mode width: 1 419 points at
    the shipped r1p = 0.999, 14 188 at 0.9999 and 141 869 at 0.99999.
    """
    cfg = load_config(FIGS / "fig6.cfg")
    cavity = cfg.cavity().with_mirror(1, "pump", magnitude=r1p)
    return cavity, cs.PumpSpec(cfg.pump_center(), sigma), cfg.filters()


def _fig5_tallest_point():
    """fig5's plateau row at r2 = 0.99: 60 535 minus rows, 30 268 of them evaluated."""
    cfg = load_config(FIGS / "fig5.cfg")
    cavity = cfg.cavity()
    for mode in ("signal", "idler"):
        cavity = cavity.with_mirror(2, mode, magnitude=0.99)
    filters = cfg.filters()
    sigma = cs.fwhm_to_sigma(cs.mode_width(cavity, filters[0].center, "signal"))
    return cavity, replace(cfg.pump(), sigma=sigma), filters


def _fold_oracle(cavity, filters, signal, idler):
    """Oracle of _exchange_symmetric: equal filters and mirrors, and the idler
    table equal to the signal table reversed, compared entry by entry in
    _parallel.blocks of entries."""
    f_s, f_i = filters
    same_mirrors = all(cavity.mirror(nu, "signal") == cavity.mirror(nu, "idler") for nu in (1, 2))
    n = signal.size
    return f_s == f_i and same_mirrors and idler.size == n and all(
        np.array_equal(signal[b], idler[n - b.stop : n - b.start][::-1])
        for b in blocks(n, 1)
    )


@pytest.fixture()
def folds(monkeypatch):
    """(closed-form fold, oracle fold) of every stripe built while the test runs."""
    record = []
    predicate = stripe_module._exchange_symmetric

    def both(*args):
        record.append((predicate(*args), _fold_oracle(*args)))
        return record[-1][0]

    monkeypatch.setattr(stripe_module, "_exchange_symmetric", both)
    return record


class TestFoldPredicate:
    @pytest.mark.parametrize("fig", ["fig5", "fig6"])
    def test_agrees_with_the_table_comparison_on_the_shipped_sweeps(self, folds, fig):
        cfg = load_config(FIGS / f"{fig}.cfg")
        for kind in cfg.sweep_kinds():
            sweep, omega_p0, arguments = cfg.sweep(kind)
            sweep(cfg.cavity(), omega_p0, cfg.filters(), *arguments,
                  factor_mode=cfg.get("sweep", "factors"))
        assert folds and all(got == expect for got, expect in folds)
        assert any(got for got, _ in folds)

    @pytest.mark.parametrize("sigma", [1e12, None])
    @pytest.mark.parametrize("source", ["degenerate", "distinct", "unequal_idler_mirror",
                                        "phased_reference"])
    @pytest.mark.parametrize("doubly_resonant", [False, True])
    def test_agrees_on_the_sources_of_the_stripe_tests(
        self, sr_cavity, dr_cavity, pump, filters, folds, doubly_resonant, source, sigma,
    ):
        cavity, filters = _source(sr_cavity, dr_cavity, filters, doubly_resonant,
                                  source != "distinct")
        if source == "unequal_idler_mirror":
            cavity = cavity.with_mirror(2, "idler", magnitude=0.6)
        if source == "phased_reference":  # folds whatever the mirror phases
            cavity = stripe_module._no_cavity(
                cavity.with_mirror(1, "signal", phase=0.3).with_mirror(2, "idler", phase=0.2))
        stripe = stripe_module._stripe_axes(cavity, replace(pump, sigma=sigma or pump.sigma),
                                            filters)
        assert folds == [(stripe.folded, stripe.folded)]
        assert stripe.folded == (source in ("degenerate", "phased_reference"))

    @pytest.mark.parametrize("idler, folded", [
        (stripe_module._Ramp(2.0e15, -(1e9 / 2), 4001), True),
        (stripe_module._Ramp(2.0e15, -(1e9 / 2), 4000), False),  # sizes differ
        (stripe_module._Ramp(2.0e15 + 1e9, -(1e9 / 2), 4001), False),  # a non-degenerate source
        (stripe_module._Ramp(2.0e15, 1e9 / 2, 4001), False),  # both ascending
    ])
    def test_agrees_on_tables_of_equal_filters_and_mirrors(self, sr_cavity, filters, idler,
                                                           folded):
        signal = stripe_module._Ramp(2.0e15, 1e9 / 2, 4001)
        got = stripe_module._exchange_symmetric(sr_cavity, filters, signal, idler)
        assert got == _fold_oracle(sr_cavity, filters, signal, idler) == folded


class TestBlocking:
    # 1000 samples per block: one column per kernel call on these stripes
    # (819 to 1527 minus rows evaluated), table blocks that divide no table
    # length, and two blocks of the fig6 point's 1 419-point omega_plus axis
    SMALL = 1000

    @pytest.mark.parametrize("sigma", [1e12, None])  # q_minus = 11, and q_plus = q_minus = 1
    @pytest.mark.parametrize("degenerate", [True, False])
    @pytest.mark.parametrize("factor_mode", ["central_approx", "exact_factors"])
    @pytest.mark.parametrize("doubly_resonant", [False, True])
    def test_results_do_not_depend_on_the_blocks(
        self, sr_cavity, dr_cavity, pump, filters, monkeypatch, kernel_shapes,
        doubly_resonant, factor_mode, degenerate, sigma,
    ):
        cavity, filters = _source(sr_cavity, dr_cavity, filters, doubly_resonant, degenerate)
        swept = replace(pump, sigma=sigma or pump.sigma)
        stripe = stripe_module._stripe_axes(cavity, swept, filters)
        assert stripe.folded == degenerate and stripe.signal.size % self.SMALL
        default = brightness_from_cavity(cavity, swept, filters, factor_mode).value
        kernel_shapes.clear()
        monkeypatch.setattr(cavityspdc._parallel, "_BLOCK_SAMPLES", self.SMALL)
        blocked = brightness_from_cavity(cavity, swept, filters, factor_mode).value
        assert [shape[0] for shape in kernel_shapes] == [1] * stripe.plus.size
        assert blocked == default

    def test_fig6_point_on_two_threads(self, monkeypatch, kernel_shapes):
        cavity, pump, filters = _fig6_point()
        default = brightness_from_cavity(cavity, pump, filters).value
        monkeypatch.setattr(cavityspdc._parallel, "_BLOCK_SAMPLES", self.SMALL)
        kernel_shapes.clear()
        assert brightness_from_cavity(cavity, pump, filters, threads=2).value == default
        assert {shape[0] for shape in kernel_shapes} == {1}


class TestWorkingSet:
    # The stripe keeps its factor tables and a working set that does not grow
    # with them: a table builder block and a kernel call of at most 2^15
    # samples each, and the omega_plus integrand, evaluated in blocks as
    # well.  Table-length frequency axes and 64-column kernel calls, an
    # earlier design, traced 41 MB (fig6) and 37 MB (fig5) over the tables.
    # A stripe that resolved the pump mode held 1.03 M table entries at
    # r1p = 0.999 and 10.35 M at 0.9999; the tables now keep the r1p = 0
    # size at every r1p.
    WORKING_SET = 8 * 2**20

    @pytest.mark.parametrize("point", [
        _fig6_point, _fig5_tallest_point,
        pytest.param(partial(_fig6_point, 0.9999), id="_fig6_point_r1p_0.9999"),
        pytest.param(partial(_fig6_point, 0.99999), id="_fig6_point_r1p_0.99999"),
    ])
    def test_peak_is_the_tables_plus_a_fixed_bound(self, point):
        cavity, pump, filters = point()
        stripe = stripe_module._stripe_axes(cavity, pump, filters)
        tables = stripe_module._stripe_tables(stripe, cavity, filters, "central_approx")
        # the kept arrays: a folded idler table is a view of the signal table
        kept = sum(t.nbytes for f in tables for t in f if t is not None and t.base is None)
        del tables
        peak, _ = traced_peak(lambda: brightness_from_cavity(cavity, pump, filters))
        assert peak <= kept + self.WORKING_SET


def _lattice_brightness(cavity, pump, filters):
    """Oracle: trapezoid of _pointwise_intensity on a rotated lattice, divided by sigma.

    No factor leaves the lattice.  omega_plus spans the stripe's columns at
    a step of at most 1/8 of the finest of sigma / 2, the photon modes and
    the pump mode; omega_minus spans the stripe's rows at 1/8 of the finest
    of the filter width and the photon modes.  The source is degenerate, so
    the integrand is even in omega_minus: the half omega_minus >= 0 counts
    twice.  Central rate factors, as central_approx.
    """
    f_s, f_i = filters
    stripe = stripe_module._stripe_axes(cavity, pump, filters)
    photon = 2 * cs.mode_width(cavity, f_s.center, "signal")
    d_plus = min(pump.sigma / 2, photon, cs.mode_width(cavity, pump.omega_p0, "pump")) / 8
    d_minus = min(f_s.fwhm, photon) / 8
    span = stripe.plus[-1] - stripe.plus[0]
    plus = np.linspace(stripe.plus[0], stripe.plus[-1], int(np.ceil(span / d_plus)) + 1)
    half = stripe.minus[-1]
    minus = np.linspace(0.0, half, int(np.ceil(half / d_minus)) + 1)
    columns = []
    for start in range(0, plus.size, 64):
        p = plus[start : start + 64, None]
        s = _pointwise_intensity(cavity, pump, filters, (p + minus) / 2, (p - minus) / 2)
        columns.append(2 * np.trapezoid(s, minus, axis=1))
    central = _rate_factor(cavity.crystal, f_s.center) * _rate_factor(cavity.crystal, f_i.center)
    return 0.5 * central * np.trapezoid(np.concatenate(columns), plus) / pump.sigma


class TestPlusAxis:
    # The pump's Airy weight and |alpha|^2 depend on omega_plus alone: they
    # are evaluated exactly on a 1-D axis that resolves the pump mode, and
    # the stripe's column integrals g are interpolated onto it.

    def test_interpolant_reproduces_quintics(self):
        rng = np.random.default_rng(5)
        coefficients = rng.normal(size=6)
        table = np.polyval(coefficients, np.arange(40.0))
        index = np.linspace(0.0, 39.0, 1001)  # the ends read shifted stencils
        expect = np.polyval(coefficients, index)
        got = stripe_module._interpolate(table, index)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("r1p", [0.9, 0.99, 0.999])
    def test_matches_a_lattice_that_resolves_the_pump_mode(self, r1p):
        # fig6 at sigma = 5e11: the pump width sets the oracle's omega_plus
        # step from r1p = 0.99 on
        cavity, pump, filters = _fig6_point(r1p, sigma=5e11)
        got = brightness_from_cavity(cavity, pump, filters).value
        assert got == pytest.approx(_lattice_brightness(cavity, pump, filters), rel=5e-10, abs=0)

    @pytest.mark.parametrize("r1p", [0.9999, 0.99999])
    def test_photon_tables_keep_the_open_loop_size(self, r1p):
        # a stripe that resolved the pump mode held 10.35 M entries per
        # table at r1p = 0.9999, and about 100 M at 0.99999
        cavity, pump, filters = _fig6_point(r1p)
        stripe = stripe_module._stripe_axes(cavity, pump, filters)
        open_loop = stripe_module._stripe_axes(
            cavity.with_mirror(1, "pump", magnitude=0.0), pump, filters
        )
        assert _same_stripe(stripe, open_loop)
        assert stripe.signal.size == open_loop.signal.size == 93381

    @pytest.mark.parametrize("sigma", [2e11, 5e11])
    def test_build_up_approaches_the_narrow_resonance_limit(self, sigma):
        # With r_2p = 1 the pump Airy weight averages to 1 over a pump period
        # and narrows as r1p -> 1 to a comb of weights 2 pi / Delta_p' at the
        # pump resonances; one lies in the stripe's span, at omega_p0.  So
        # B_norm -> (2 pi / Delta_p') (|alpha|^2 g)(omega_p0) / integral
        # |alpha|^2 g, and the distance shrinks like 1 - r1p.
        cavity, pump, filters = _fig6_point(0.0, sigma)
        omega = pump.omega_p0
        phase = cs.round_trip_phase_mismatch(cavity, omega, "pump")
        assert abs(np.remainder(phase + np.pi, 2 * np.pi) - np.pi) < 1e-12
        h = 1e9
        slope = (cs.round_trip_phase_mismatch(cavity, omega + h, "pump")
                 - cs.round_trip_phase_mismatch(cavity, omega - h, "pump")) / (2 * h)
        stripe, g = stripe_module._stripe_columns(cavity, pump, filters, "central_approx")
        alpha2 = np.abs(cs.pump_envelope(pump, stripe.plus)) ** 2
        at_resonance = stripe_module._interpolate(
            g, np.array([(omega - stripe.plus[0]) / (stripe.q_plus * stripe.h)])
        )[0] * np.abs(cs.pump_envelope(pump, omega)) ** 2
        limit = 2 * np.pi / slope * at_resonance / np.trapezoid(alpha2 * g, stripe.plus)
        table = cs.brightness_vs_r1p_sweep(
            cavity, pump.omega_p0, filters, [0.999, 0.9999, 0.99999], [sigma]
        )
        distance = np.abs(table.column("B_norm") / limit - 1)
        assert np.all(distance[1:] < 0.2 * distance[:-1])
        assert distance[-1] < 1e-3
