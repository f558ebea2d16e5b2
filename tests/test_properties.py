"""Property tests over random cavity, pump and filter parameters.

The hypothesis profile registered in conftest derandomizes the examples, so
every run draws the same inputs.
"""

import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cavityspdc as cs
import cavityspdc._parallel
from cavityspdc.cavity import _airy_from_phase
from cavityspdc.cli import main
from cavityspdc.config import load_config
from cavityspdc.constants import c
from cavityspdc.doubly_resonant import _pump_passes
from cavityspdc.gridfile import _write_rows, read_grid
from cavityspdc.spectral import _jsa_sr_pointwise, _row_trapezoid, _sr_ratio

from conftest import OMEGA_800, OUT_OF_MODEL_DR_MIRRORS, THETA_DEGENERATE

CRYSTAL = cs.bbo(THETA_DEGENERATE, 20e-6)
# Dispersionless crystal: the round-trip phase is exactly linear in omega.
FLAT = cs.CrystalSpec((2.25, 0.0, 1.0, 0.0), (2.25, 0.0, 1.0, 0.0), 0.0, 20e-6)

phases = st.floats(0.0, 2 * np.pi)
reflectivities = st.floats(0.0, 0.95)


@st.composite
def sources(draw, degenerate=False, mirror_1=st.just(1.0)):
    """(length, mirrors, pump, filters, grid) for a random SR or DR source around 800 nm.

    |r_1s| and |r_1i| are drawn from mirror_1.
    """
    length = 20e-6 * draw(st.floats(1.0, 3.0))
    r2_s = draw(reflectivities)
    r2_i = r2_s if degenerate else draw(reflectivities)
    mirrors = {}
    for mode, r2 in (("signal", r2_s), ("idler", r2_i)):
        if mode == "idler" and degenerate:
            mirrors[(1, mode)], mirrors[(2, mode)] = mirrors[(1, "signal")], mirrors[(2, "signal")]
            continue
        mirrors[(1, mode)] = cs.MirrorSpec(draw(mirror_1), draw(phases))
        mirrors[(2, mode)] = cs.MirrorSpec(r2, draw(phases))
    if draw(st.booleans()):  # doubly resonant
        mirrors[(1, "pump")] = cs.MirrorSpec(draw(st.floats(0.0, 0.95)), draw(phases))
        mirrors[(2, "pump")] = cs.MirrorSpec(draw(st.floats(0.0, 1.0)), draw(phases))
    pump = cs.PumpSpec.from_wavelength(400e-9, draw(st.floats(0.5, 10.0)) * 1e-9)
    fwhm_s = cs.wavelength_fwhm_to_angular(800e-9, draw(st.floats(5.0, 40.0)) * 1e-9)
    fwhm_i = fwhm_s if degenerate else cs.wavelength_fwhm_to_angular(
        800e-9, draw(st.floats(5.0, 40.0)) * 1e-9
    )
    filters = (cs.FilterSpec(OMEGA_800, fwhm_s), cs.FilterSpec(OMEGA_800, fwhm_i))
    grid = cs.default_grid(OMEGA_800, OMEGA_800, 2.0 * max(fwhm_s, fwhm_i), samples=48)
    return length, mirrors, pump, filters, grid


def built(source):
    """(cavity, pump, filters, grid) of a drawn source."""
    length, mirrors, *rest = source
    return (cs.CavitySpec(length, CRYSTAL, mirrors), *rest)


def in_model(mirrors):
    """Whether mirror 1 fully reflects every photon that mirror 2 or the pump sends back."""
    def magnitude(key):
        return mirrors[key].magnitude if key in mirrors else 0.0

    pumped = magnitude((1, "pump")) > 0 or magnitude((2, "pump")) > 0
    return all(
        magnitude((1, mode)) == 1.0 or (magnitude((2, mode)) == 0.0 and not pumped)
        for mode in ("signal", "idler")
    )


@given(sources())
def test_jsi_non_negative(source):
    values = cs.jsi_singly_resonant(*built(source)).values
    assert np.all(np.isfinite(values))
    assert values.min() >= 0.0


@given(sources(degenerate=True))
def test_degenerate_marginal_symmetric_under_exchange(source):
    jsi = cs.jsi_singly_resonant(*built(source))
    signal = cs.marginal_spectrum(jsi, "signal").density
    idler = cs.marginal_spectrum(jsi, "idler").density
    assert np.abs(signal - idler).max() <= 1e-9 * signal.max()


@given(
    length_ratio=st.floats(1.0, 3.0),
    r2=reflectivities,
    phase_1=phases,
    phase_2=phases,
    mode=st.sampled_from(["signal", "idler"]),
    offset=st.floats(-0.1, 0.1),
)
def test_airy_period_mean_is_one(length_ratio, r2, phase_1, phase_2, mode, offset):
    cavity = cs.CavitySpec(
        20e-6 * length_ratio,
        FLAT,
        {(1, mode): cs.MirrorSpec(1.0, phase_1), (2, mode): cs.MirrorSpec(r2, phase_2)},
    )
    fsr = np.pi * c / (1.5 * FLAT.length_l + cavity.length_L - FLAT.length_l)
    omega = OMEGA_800 * (1 + offset) + fsr * np.arange(2048) / 2048
    assert abs(cs.airy(omega, mode, cavity).mean() - 1.0) <= 1e-9


@given(r_s=st.floats(0.0, 0.999), r_i=st.floats(0.0, 0.999), phase=st.floats(-np.pi, np.pi))
@example(r_s=0.999, r_i=0.999, phase=0.0)
def test_airy_convolution_is_the_poisson_kernel(r_s, r_i, phase):
    # A lossless Airy weight is the Poisson kernel P_r(delta), and
    # P_rs * P_ri = P_rho with rho = r_s r_i: the period mean of
    # A_s(delta) A_i(c - delta) on 2^16 samples is exact but for rounding.
    # 1 - 2 rho cos c + rho^2 is taken as (1 - rho)^2 + 4 rho sin^2(c / 2),
    # which does not cancel near rho = 1.  Worst over 406 draws with
    # r <= 0.999: 5.4e-14 of the kernel's value; the bound leaves ten times that.
    mirrors = {(1, mode): cs.MirrorSpec(1.0) for mode in ("signal", "idler")}
    mirrors[(2, "signal")], mirrors[(2, "idler")] = cs.MirrorSpec(r_s), cs.MirrorSpec(r_i)
    cavity = cs.CavitySpec(20e-6, FLAT, mirrors)
    n = 1 << 16
    delta = 2 * np.pi * (np.arange(n) - n // 2) / n
    weights = _airy_from_phase(cavity, "signal", delta)
    weights *= _airy_from_phase(cavity, "idler", phase - delta)
    rho = r_s * r_i
    kernel = (1 - rho) * (1 + rho) / ((1 - rho) ** 2 + 4 * rho * np.sin(phase / 2) ** 2)
    assert abs(weights.mean() - kernel) <= 5e-13 * kernel


_OUT_OF_MODEL_DR = (
    20e-6,
    OUT_OF_MODEL_DR_MIRRORS,
    cs.PumpSpec.from_wavelength(400e-9, 5e-9),
    (cs.FilterSpec(OMEGA_800, cs.wavelength_fwhm_to_angular(800e-9, 30e-9)),) * 2,
    cs.default_grid(OMEGA_800, OMEGA_800, 3 * cs.wavelength_fwhm_to_angular(800e-9, 30e-9),
                    samples=65),
)


@given(sources(mirror_1=st.sampled_from([1.0, 0.5])))
@example(source=_OUT_OF_MODEL_DR)
@settings(max_examples=100)
def test_dr_factored_form_is_limit_amplitude_squared(source):
    # every cavity the constructor accepts meets the bound, and it rejects
    # exactly the tables outside the model; about half the draws are
    # rejected, so twice the profile's examples keep ~50 bound checks
    if not in_model(source[1]):
        with pytest.raises(ValueError, match="r_1[si]"):
            built(source)
        return
    cavity, pump, filters, grid = built(source)
    s_dr = cs.jsi_doubly_resonant(cavity, pump, filters, grid).values
    ws, wi = grid.meshgrid()
    f_dr = cs.jsa_dr_limit(cavity, pump, filters, ws, wi)
    # both routes cancel at the phase-balancing zeros: relative bound with a floor
    assert np.all(np.abs(np.abs(f_dr) ** 2 - s_dr) <= 1e-10 * s_dr + 1e-12 * s_dr.max())


@given(
    rows=st.integers(1, 40),
    cols=st.integers(2, 40),
    layout=st.sampled_from(["C", "transposed", "sliced"]),
    budget=st.integers(1, 96),
    threads=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
def test_row_trapezoid_is_numpys_on_a_contiguous_copy(rows, cols, layout, budget, threads, seed):
    # every layout's blocks, gathered, hold the values of a C-contiguous
    # copy, so each row sums as np.trapezoid sums that copy, bit for bit
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.5, 1.5, cols))
    if layout == "C":
        values = rng.standard_normal((rows, cols))
    elif layout == "transposed":
        values = rng.standard_normal((cols, rows)).T
    else:
        values = rng.standard_normal((2 * rows + 1, 3 * cols))[1::2, ::3]
    expect = np.trapezoid(np.ascontiguousarray(values), x, axis=1)
    with mock.patch.object(cavityspdc._parallel, "_BLOCK_SAMPLES", budget):
        got = _row_trapezoid(values, x, threads)
    assert got.tobytes() == expect.tobytes()


def _free_space(cavity, omega):
    """The general phasor e^{i gamma}, gamma = omega (L - l)/(2 c), at every L."""
    return np.exp(1j * (omega * (cavity.length_L - cavity.crystal.length_l) / (2 * c)))


@given(
    source=sources(),
    stretch=st.sampled_from([None, 1.0 + 2**-40, 1.5, 3.0]),
    n_passes=st.integers(1, 6),
    shape=st.sampled_from([(), (7,), (3, 5)]),
    seed=st.integers(0, 2**16),
)
def test_amplitude_factors_keep_the_free_space_phasor_bit_for_bit(source, stretch, n_passes,
                                                                  shape, seed):
    # at L = l (stretch None) e^{i gamma} = 1 exactly, and the factors that
    # skip it equal the general expression bit for bit; at L > l they are it
    length, mirrors, pump, filters, _ = source
    length_l = CRYSTAL.length_l
    length = length_l if stretch is None else length_l * stretch
    cavity = cs.CavitySpec(length, CRYSTAL, mirrors)
    assert (cavity.length_L == length_l) == (stretch is None)
    rng = np.random.default_rng(seed)
    span = 0.02 * OMEGA_800
    omega_s = OMEGA_800 + span * rng.uniform(-1, 1, shape)
    omega_i = OMEGA_800 + span * rng.uniform(-1, 1, shape)

    def same(got, want):
        return np.asarray(got).tobytes() == np.asarray(want).tobytes()

    for mode, omega in (("signal", omega_s), ("idler", omega_i)):
        m2, rho = _sr_ratio(cavity, omega, mode, cs.refractive_index(CRYSTAL, omega, "ordinary"))
        t2_phasor = m2.transmissivity * _free_space(cavity, omega)
        assert same(cs.sr_amplitude_factor(cavity, omega, mode), t2_phasor / (1.0 - rho))
        finite = t2_phasor * (1.0 - rho**n_passes) / (1.0 - rho)
        assert same(cs.sr_amplitude_factor_finite(cavity, omega, mode, n_passes), finite)
    q, b, first = _pump_passes(cavity, pump, filters, omega_s, omega_i)
    t1p_phasor = cavity.mirror(1, "pump").transmissivity * _free_space(cavity, omega_s + omega_i)
    assert same(first, t1p_phasor * _jsa_sr_pointwise(cavity, pump, filters, omega_s, omega_i))


def _kp_complex_step(crystal, omega, polarization):
    """Im k(omega + ih) / h of the Sellmeier wavevector k = n omega / c, written out here.

    The complex step takes no difference, so it is exact to rounding.
    """
    h = 1e-30 * omega
    w = omega + 1j * h
    lam_um = 2 * np.pi * c / w * 1e6

    def n2(coefficients):
        a, b, cc, d = coefficients
        return a + b / (lam_um**2 + cc) + d * lam_um**2

    n_o2 = n2(crystal.sellmeier_ordinary)
    if polarization == "ordinary":
        n = np.sqrt(n_o2)
    else:
        theta = crystal.cut_angle
        n_e2 = n2(crystal.sellmeier_extraordinary)
        n = 1 / np.sqrt(np.cos(theta) ** 2 / n_o2 + np.sin(theta) ** 2 / n_e2)
    return (n * w / c).imag / h


# (a, b, c, d) of n^2 = a + b / (lam^2 + c) + d lam^2 around the BBO sets; lam^2 + c
# stays above 0.02 um^2 on the 0.2-1.1 um window
sellmeier_sets = st.tuples(st.floats(2.2, 2.9), st.floats(0.005, 0.03),
                           st.floats(-0.02, 0.0), st.floats(-0.02, 0.0))


@given(
    ordinary=sellmeier_sets,
    extraordinary=sellmeier_sets,
    theta=st.floats(0.0, np.pi / 2),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
    polarization=st.sampled_from(["ordinary", "extraordinary"]),
)
def test_group_slowness_is_the_complex_step_derivative(ordinary, extraordinary, theta,
                                                       fractions, polarization):
    # both window edges, then drawn frequencies inside the window
    crystal = cs.CrystalSpec(ordinary, extraordinary, theta, 20e-6)
    lo, hi = crystal.omega_window
    omega = np.clip(lo + (hi - lo) * np.array([0.0, 1.0, *fractions]), lo, hi)
    got = cs.group_slowness(crystal, omega, polarization)
    want = _kp_complex_step(crystal, omega, polarization)
    assert np.max(np.abs(got / want - 1)) <= 4e-15


def _marginal_config(r2, keys):
    """A marginal run's config: r2 on both photons, a 400 nm pump, keys {'section.key': value}."""
    sections = {"pump": ["wavelength_nm = 400"], "filters": [], "grid": ["samples = 24"]}
    for name, value in keys.items():
        section, key = name.split(".")
        sections[section].append(f"{key} = {value}")
    return (f"[crystal]\nkind = bbo\nlength_l_um = 20\n\n"
            f"[cavity]\nr2_signal = {r2!r}\nr2_idler = {r2!r}\n\n"
            + "".join(f"[{section}]\n" + "\n".join(lines) + "\n\n"
                      for section, lines in sections.items()))


_HASH_LINE = re.compile(rb"^# config_sha256 = .*$", re.M)


def _artifacts(out):
    """{name: (its bytes with the config hash line blanked, that line)} of a run's files."""
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return {name: (_HASH_LINE.sub(b"", data), _HASH_LINE.findall(data))
            for name, data in files.items()}


@given(
    r2=st.floats(0.0, 0.9),
    centers_nm=st.tuples(*[st.floats(790.0, 810.0)] * 4),
    widths_nm=st.tuples(st.floats(10.0, 40.0), st.floats(10.0, 40.0)),
    pump_fwhm_nm=st.floats(1.0, 10.0),
    unit=st.sampled_from(["rad_s", "hz"]),
)
@settings(max_examples=12)
def test_frequency_suffixes_write_the_numbers_of_the_nm_config(r2, centers_nm, widths_nm,
                                                               pump_fwhm_nm, unit):
    # every center and width that takes a frequency suffix, written at 17 digits
    # from what the nm config normalizes to: rad/s gives the same doubles, so the
    # files differ only in the config hash; the Hz value times 2 pi may round
    # one ulp away, which moves the numbers by rounding alone
    names = ("grid.signal_center", "grid.idler_center",
             "filters.signal_center", "filters.idler_center")
    nm = {f"{name}_nm": value for name, value in zip(names, centers_nm)}
    nm.update({"filters.signal_fwhm_nm": widths_nm[0], "filters.idler_fwhm_nm": widths_nm[1],
               "pump.fwhm_nm": pump_fwhm_nm})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "nm.cfg").write_text(_marginal_config(r2, {k: repr(v) for k, v in nm.items()}))
        cfg = load_config(tmp / "nm.cfg")
        signal, idler = cfg.filters()
        angular = dict(zip(names, (*cfg.band_centers(), signal.center, idler.center)))
        angular.update({"filters.signal_fwhm": signal.fwhm, "filters.idler_fwhm": idler.fwhm,
                        "pump.sigma": cfg.pump().sigma})
        per_unit = 1.0 if unit == "rad_s" else 2 * np.pi
        (tmp / "freq.cfg").write_text(_marginal_config(
            r2, {f"{name}_{unit}": f"{value / per_unit:.17g}" for name, value in angular.items()}))
        for name in ("nm", "freq"):
            assert main(["marginal", "--config", str(tmp / f"{name}.cfg"),
                         "--out", str(tmp / name), "--threads", "1"]) == 0
        by_nm, by_freq = _artifacts(tmp / "nm"), _artifacts(tmp / "freq")
        assert by_nm.keys() == by_freq.keys()
        for name, (body, hash_line) in by_nm.items():
            assert hash_line != by_freq[name][1]
            if unit == "rad_s":
                assert body == by_freq[name][0]
        if unit == "hz":
            # measured: at most 2.8e-14 of the largest value over 200 drawn configs
            grid_nm, _ = read_grid(tmp / "nm" / "jsi_sr.grid")
            grid_hz, _ = read_grid(tmp / "freq" / "jsi_sr.grid")
            for got, want in ((grid_hz.omega_s_axis, grid_nm.omega_s_axis),
                              (grid_hz.omega_i_axis, grid_nm.omega_i_axis)):
                assert np.max(np.abs(got / want - 1)) <= 4e-16
            scale = np.max(grid_nm.values)
            assert np.max(np.abs(grid_hz.values - grid_nm.values)) <= 1e-13 * scale
            marginal_nm = np.loadtxt(tmp / "nm" / "marginal_signal.dat")
            marginal_hz = np.loadtxt(tmp / "freq" / "marginal_signal.dat")
            scale = np.max(np.abs(marginal_nm), axis=0)
            assert np.all(np.max(np.abs(marginal_hz - marginal_nm), axis=0) <= 1e-13 * scale)


# float64 bit patterns: sign, exponent field and mantissa, the exponent
# field as often from the kernel's provable range [1e-280, 1e280] as from
# all of it (0 for zeros and subnormals, 2047 for inf and nan); and
# hypothesis' floats (round, boundary and special values) as bits
float64_bits = st.one_of(
    st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
              st.integers(0, 1), st.one_of(st.integers(94, 1952), st.integers(0, 2047)),
              st.integers(0, 2**52 - 1)),
    st.floats(width=64).map(lambda v: int(np.float64(v).view(np.uint64))),
)


@st.composite
def float64_blocks(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    bits = draw(st.lists(float64_bits, min_size=rows * cols, max_size=rows * cols))
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, cols)


_POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-20, 26)])


@given(float64_blocks())
# exact ties between two 17-digit decimals, which round to even
@example(np.array([[100000000000000.125, 100000000000000.375, -100000000000000.625]]))
# each power of ten between two of its neighbours
@example(np.stack([np.nextafter(_POWERS_OF_TEN, 0), _POWERS_OF_TEN,
                   np.nextafter(_POWERS_OF_TEN, np.inf)], axis=1))
# the fixed/scientific boundaries (1e-4 and 1e17 at 17 digits) and the normal range's ends
@example(np.array([[9.9999999999999995e-05, 99999999999999999.0, 1e17, 1e-4],
                   [1.7976931348623157e308, 2.2250738585072014e-308, -1.7976931348623157e308,
                    -2.2250738585072014e-308]]))
def test_text_rows_are_each_numbers_17g(values):
    # the vectorized text writer gives the bytes of Python's "%.17g" join
    out = io.BytesIO()
    _write_rows(out, values)
    expect = "".join(" ".join("%.17g" % v for v in row) + "\n" for row in values.tolist())
    assert out.getvalue() == expect.encode()
