from dataclasses import replace

import numpy as np
import pytest

import cavityspdc as cs
import cavityspdc.brightness as stripe_module
from cavityspdc.brightness import brightness_from_cavity

from conftest import OMEGA_800

SQRT_2LN2 = np.sqrt(2 * np.log(2))


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
        table = cs.brightness_vs_sigma_sweep(flat_cavity, pump, filters, sigmas, [0.0])
        b = table.column("B_norm")
        assert b.max() / b.min() - 1 < 0.05

    def test_reference_is_unity_at_smallest_sigma(self, flat_cavity, pump, filters):
        table = cs.brightness_vs_sigma_sweep(flat_cavity, pump, filters, [1e12, 4e11], [0.0])
        rows = {row[0]: row[2] for row in table.rows}
        assert rows[4e11] == pytest.approx(1.0, rel=1e-12)

    def test_large_sigma_matches_no_cavity(self, r9_cavity, pump, filters):
        # far above the mode-spacing crossover the comb redistributes the
        # intensity without changing the integral
        sigma = 4.5e13
        table = cs.brightness_vs_sigma_sweep(r9_cavity, pump, filters, [sigma], [0.0, 0.9])
        b0, b9 = table.column("B_norm")
        assert b9 / b0 == pytest.approx(1.0, abs=0.15)

    def test_plateau_ordering_and_monotone_growth(self, r9_cavity, pump, filters):
        sigmas = [2.4e13, 6e12, 1.5e12, 4e11]
        table = cs.brightness_vs_sigma_sweep(r9_cavity, pump, filters, sigmas, [0.5, 0.7, 0.9])
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
        table = cs.brightness_vs_sigma_sweep(r9_cavity, pump, filters, sigmas, [0.0, 0.9])
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
    """Arguments of every stripe integral taken while the test runs."""
    calls = []
    stripe_integral = stripe_module._stripe_integral

    def counted(*args, **kwargs):
        calls.append(args)
        return stripe_integral(*args, **kwargs)

    monkeypatch.setattr(stripe_module, "_stripe_integral", counted)
    return calls


class TestPlateauSweep:
    def test_no_reference_integral_at_zero_r2(self, flat_cavity, pump, filters, stripe_calls):
        cs.plateau_brightness_vs_r2(flat_cavity, pump, filters, [0.0, 0.5])
        assert len(stripe_calls) == 2  # the r2 = 0.5 row and its reference

    def test_zero_r2_row_keeps_the_pump_mirrors(self, dr_base, pump, filters):
        # open signal/idler mirrors with a perfect pump back mirror: the two
        # crystal passes quadruple the rate over the no-cavity reference
        from dataclasses import replace

        narrow = replace(pump, sigma=2e11)
        table = cs.plateau_brightness_vs_r2(dr_base, narrow, filters, [0.0])
        (r2, sigma, b), = table.rows
        assert (r2, sigma) == (0.0, 2e11)
        assert b == pytest.approx(4.0, rel=2e-3)

    def test_reference_and_monotonicity(self, flat_cavity, pump, filters):
        table = cs.plateau_brightness_vs_r2(flat_cavity, pump, filters, [0.0, 0.5, 0.9])
        b = table.column("B_norm")
        assert b[0] == 1.0
        assert b[0] < b[1] < b[2]

    def test_plateau_sigma_condition(self, flat_cavity, pump, filters):
        table = cs.plateau_brightness_vs_r2(flat_cavity, pump, filters, [0.9])
        (r2, sigma, _), = table.rows
        cav = flat_cavity.with_mirror(2, "signal", magnitude=0.9).with_mirror(
            2, "idler", magnitude=0.9
        )
        assert sigma == pytest.approx(cs.mode_width(cav, OMEGA_800, "signal") / SQRT_2LN2)

    def test_inverse_one_minus_r2_scaling(self, flat_cavity, pump, filters):
        r2_list = [0.9, 0.95, 0.99]
        table = cs.plateau_brightness_vs_r2(flat_cavity, pump, filters, r2_list)
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
        table = cs.brightness_vs_r1p_sweep(dr_base, pump, filters, [0.0, 0.5], [2e11])
        rows = {row[1]: row[2] for row in table.rows}
        assert rows[0.0] == pytest.approx(1.0, rel=1e-12)
        assert rows[0.5] > 1.0

    def test_monotone_growth_up_to_09(self, dr_base, pump, filters):
        r1p = [0.0, 0.3, 0.6, 0.9]
        table = cs.brightness_vs_r1p_sweep(dr_base, pump, filters, r1p, [2e11])
        b = table.column("B_norm")
        assert all(a < b_ for a, b_ in zip(b, b[1:]))

    def test_no_integral_of_its_own_at_zero_or_unit_r1p(
        self, dr_base, pump, filters, stripe_calls
    ):
        table = cs.brightness_vs_r1p_sweep(dr_base, pump, filters, [0.0, 0.5, 1.0], [2e11])
        assert len(stripe_calls) == 2  # the r1p = 0.5 row and the reference
        assert table.column("B_norm")[[0, 2]].tolist() == [1.0, 0.0]

    def test_zero_at_unit_reflectivity(self, dr_base, pump, filters):
        table = cs.brightness_vs_r1p_sweep(dr_base, pump, filters, [0.99, 1.0], [2e11])
        b = table.column("B_norm")
        assert b[-1] == 0.0
        assert b[0] > 1.0

    def test_requires_perfect_pump_mirror2(self, crystal, pump, filters):
        cav = cs.singly_resonant_cavity(20e-6, crystal, 0.73)
        with pytest.raises(ValueError):
            cs.brightness_vs_r1p_sweep(cav, pump, filters, [0.0], [2e11])

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

    def test_threaded_sweep_matches_serial(self, flat_cavity, pump, filters):
        sigmas = [1e12, 4e12]
        serial = cs.brightness_vs_sigma_sweep(flat_cavity, pump, filters, sigmas, [0.5])
        threaded = cs.brightness_vs_sigma_sweep(
            flat_cavity, pump, filters, sigmas, [0.5], threads=4
        )
        assert serial.rows == threaded.rows


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


def _assert_matches_oracle(got, expect, rtol=1e-12):
    # Floor: the DR oracle takes sin of the unfolded phase sum (~800 rad,
    # rounding ~1e-13 rad), so samples at a phase-balancing zero cancel.
    floor = 1e-13 * np.abs(expect).max()
    assert np.all(np.abs(got - expect) <= rtol * np.abs(expect) + floor)


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
        tables = stripe_module._stripe_tables(stripe, cavity, pump, filters, factor_mode)
        n_plus, n_minus = stripe.plus.size, stripe.minus.size
        assert stripe.omega_s.size == (
            stripe.q_plus * (n_plus - 1) + stripe.q_minus * (n_minus - 1) + 1
        )
        got, expect = [], []
        for start in (0, n_plus // 2 - 32):
            chunk = slice(start, start + 64)
            got.append(stripe_module._column_integrals(stripe, tables, cavity, chunk))
            a = np.arange(start, start + 64)[:, None]
            b = np.arange(n_minus)[None, :]
            omega_s = stripe.omega_s[stripe.q_plus * a + stripe.q_minus * b]
            omega_i = stripe.omega_i[stripe.q_plus * (n_plus - 1 - a) + stripe.q_minus * b]
            plus, minus = stripe.plus[a], stripe.minus[b]
            # the tables sit on the rotated lattice
            assert np.abs(omega_s - (plus + minus) / 2).max() <= 4e-16 * OMEGA_800
            assert np.abs(omega_i - (plus - minus) / 2).max() <= 4e-16 * OMEGA_800
            s = _pointwise_intensity(cavity, pump, filters, omega_s, omega_i)
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
        signal, idler, plus = stripe_module._stripe_tables(
            stripe, cavity, narrow, (f, f), factor_mode
        )
        # flat photon weights keep the symmetry and make the end rows count
        flat = signal._replace(weight=np.ones_like(signal.weight))
        chunk = slice(0, stripe.plus.size)
        unfolded = stripe._replace(folded=False)
        for tables in ((signal, idler, plus), (flat, flat.view(lambda t: t[::-1]), plus)):
            got = stripe_module._column_integrals(stripe, tables, cavity, chunk)
            expect = stripe_module._column_integrals(unfolded, tables, cavity, chunk)
            _assert_matches_oracle(got, expect, rtol=1e-13)

    @pytest.mark.parametrize("source", ["degenerate", "distinct", "unequal_idler_mirror"])
    @pytest.mark.parametrize("doubly_resonant", [False, True])
    def test_kernel_sees_half_the_minus_rows_of_a_degenerate_source(
        self, sr_cavity, dr_cavity, pump, filters, monkeypatch, doubly_resonant, source
    ):
        degenerate = source != "distinct"
        cavity, filters = _source(sr_cavity, dr_cavity, filters, doubly_resonant, degenerate)
        if source == "unequal_idler_mirror":  # degenerate frequencies, distinct idler mirror
            cavity = cavity.with_mirror(2, "idler", magnitude=0.6)
        shapes = []
        intensity = stripe_module._intensity

        def recorded(*args):
            s = intensity(*args)
            shapes.append(s.shape)
            return s

        monkeypatch.setattr(stripe_module, "_intensity", recorded)
        narrow = replace(pump, sigma=1e12)
        brightness_from_cavity(cavity, narrow, filters)
        n_minus = stripe_module._stripe_axes(cavity, narrow, filters).minus.size
        rows = (n_minus + 1) // 2 if source == "degenerate" else n_minus
        assert {shape[1] for shape in shapes} == {rows}

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

    @pytest.mark.parametrize("r1p", [0.0, 0.9])
    def test_halved_steps_agree_dr(self, dr_cavity, pump, filters, monkeypatch, r1p):
        cav = dr_cavity.with_mirror(1, "pump", magnitude=r1p)  # |r_2p| = 1
        swept = replace(pump, sigma=2e11)
        default = brightness_from_cavity(cav, swept, filters).value
        monkeypatch.setattr(stripe_module, "_SAMPLES_PER_SCALE", 16)
        halved = brightness_from_cavity(cav, swept, filters).value
        assert halved == pytest.approx(default, rel=1e-8, abs=0)
