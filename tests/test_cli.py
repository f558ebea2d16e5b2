import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavityspdc as cs
import cavityspdc._parallel
import cavityspdc.temporal
from cavityspdc.cli import _parser, main
from cavityspdc.config import load_config
from cavityspdc.constants import c
from cavityspdc.errors import UnderResolutionWarning
from cavityspdc.gridfile import read_grid
from conftest import traced_peak

SMALL_FIG2 = """
[crystal]
kind = bbo
length_l_um = 20

[cavity]
r2_signal = 0.73
r2_idler = 0.73

[pump]
wavelength_nm = 400
fwhm_nm = 5

[filters]
fwhm_nm = 30

[grid]
signal_center_nm = 800
idler_center_nm = 800
samples = 129

[output]
format = binary
"""

DESIGN = """
[design]
signal_wavelength_nm = 854.2
transition_fwhm_hz = 20e6
pump_wavelength_nm = 400
delta_lambda_max_nm = 0.5
"""

# an r1p sweep sets sigma in each row, so its config gives the pump no width
R1P_SWEEP = (SMALL_FIG2.replace("fwhm_nm = 5\n", "").replace("[pump]", "r2_pump = 1.0\n\n[pump]")
             + "\n[sweep]\nkind = r1p\nsigma_list_rad_s = 2e11\nr1p_list = 0 0.5 1.0\n")


@pytest.fixture()
def fig2_cfg(tmp_path):
    path = tmp_path / "fig2.cfg"
    path.write_text(SMALL_FIG2)
    return path


def run(args):
    return main([str(a) for a in args])


FIGS = Path(__file__).resolve().parents[1] / "configs"


class TestSubcommands:
    def test_jsi_sr_writes_grid_and_manifest(self, fig2_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["jsi-sr", "--config", fig2_cfg, "--out", out]) == 0
        grid, meta = read_grid(out / "jsi_sr.grid")
        assert grid.values.shape == (129, 129)
        assert grid.values.min() >= 0
        # the run's header, with the configuration hash once, then one name a line
        assert (out / "manifest").read_text() == (
            f"# generator = cavityspdc {cs.__version__}\n"
            f"# config_sha256 = {meta['config_sha256']}\n"
            "#end\n"
            "jsi_sr.grid\n"
        )
        echoed = capsys.readouterr().out
        assert "normalized configuration" in echoed and "wavelength = " in echoed

    def test_peak_lattice_spacing_matches_fsr(self, tmp_path):
        # cross-module check on a resolving grid: marginal comb spacing
        # equals the free spectral range within one grid cell
        cfg = tmp_path / "f.cfg"
        cfg.write_text(SMALL_FIG2.replace("samples = 129", "samples = 1025"))
        out = tmp_path / "out"
        assert run(["marginal", "--config", cfg, "--out", out]) == 0
        data = np.loadtxt((out / "marginal_signal.dat").read_text().splitlines())
        axis, density = data[:, 0], data[:, 1]
        peaks = cs.extract_peaks(axis, density, 5e-3)
        crystal = cs.bbo(0.5, 20e-6)
        w0 = 2 * np.pi * c / 800e-9
        fsr = np.pi * c / (20e-6 * cs.refractive_index(crystal, w0, "ordinary"))
        assert abs(np.median(np.diff(peaks.positions)) - fsr) < axis[1] - axis[0]

    def test_jsi_dr(self, tmp_path):
        cfg = tmp_path / "f.cfg"
        cfg.write_text(SMALL_FIG2.replace("[pump]", "r1_pump = 0.5\nr2_pump = 1.0\n\n[pump]"))
        out = tmp_path / "out"
        assert run(["jsi-dr", "--config", cfg, "--out", out]) == 0
        grid, _ = read_grid(out / "jsi_dr.grid")
        assert grid.values.min() >= 0 and grid.values.max() > 0

    def test_temporal_summary(self, fig2_cfg, tmp_path):
        out = tmp_path / "out"
        assert run(["temporal", "--config", fig2_cfg, "--out", out]) == 0
        summary = dict(
            line.split(" = ")
            for line in (out / "temporal_summary.kv").read_text().splitlines()
            if " = " in line and not line.startswith("#")
        )
        spacing = float(summary["peak_spacing_s"])
        round_trip = float(summary["round_trip_time_s"])
        assert spacing == pytest.approx(round_trip, rel=2e-3, abs=0)
        assert float(summary["correlation_time_s"]) > round_trip

    def test_brightness_sweep_table(self, tmp_path):
        cfg = tmp_path / "f.cfg"
        cfg.write_text(R1P_SWEEP)
        out = tmp_path / "out"
        assert run(["brightness-sweep", "--config", cfg, "--out", out]) == 0
        lines = [
            ln
            for ln in (out / "brightness_r1p.tsv").read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        assert lines[0] == "sigma_rad_s\tr1p\tB_norm"
        values = [float(ln.split("\t")[2]) for ln in lines[1:]]
        assert values[0] == 1.0 and values[1] > 1.0 and values[2] == 0.0

    def test_design_run(self, tmp_path):
        cfg = tmp_path / "design.cfg"
        cfg.write_text(DESIGN)
        out = tmp_path / "out"
        assert run(["design", "--config", cfg, "--out", out]) == 0
        kv = dict(
            line.split(" = ")
            for line in (out / "design.kv").read_text().splitlines()
            if " = " in line and not line.startswith("#")
        )
        assert float(kv["lambda_idler_m"]) == pytest.approx(752.26e-9, abs=0.01e-9)
        assert "854.2" in (out / "design_report.txt").read_text()

    def test_airy_outputs(self, fig2_cfg, tmp_path):
        out = tmp_path / "out"
        assert run(["airy", "--config", fig2_cfg, "--out", out]) == 0
        data = np.loadtxt((out / "airy_signal.dat").read_text().splitlines())
        assert data[:, 1].max() == pytest.approx((1 + 0.73) / (1 - 0.73), rel=1e-3)

    def test_airy_on_an_open_cavity(self, tmp_path):
        # mirror 2 reflects neither photon: the Airy weight is flat and no mode
        # width exists, so none is written
        cfg = tmp_path / "open.cfg"
        cfg.write_text(SMALL_FIG2.replace("samples = 129", "samples = 32")
                       .replace("r2_signal = 0.73", "r2_signal = 0")
                       .replace("r2_idler = 0.73", "r2_idler = 0"))
        out = tmp_path / "out"
        assert run(["airy", "--config", cfg, "--out", out]) == 0
        text = (out / "airy_signal.dat").read_text()
        data = np.loadtxt(text.splitlines())
        assert data.shape == (32, 2) and np.all(data[:, 1] == 1.0)
        assert "mode_width_rad_s" not in text

    def test_airy_pump_curve_of_an_open_pump_loop(self, tmp_path):
        # r1_pump = 0.5 and r2_pump = 0: the loop does not resonate, but every
        # pair is weighed by |t_1p|^2 = 0.75, as jsi-dr weighs it
        cfg = tmp_path / "half.cfg"
        cfg.write_text(SMALL_FIG2.replace("samples = 129", "samples = 32")
                       .replace("[pump]", "r1_pump = 0.5\nr2_pump = 0\n\n[pump]"))
        out = tmp_path / "out"
        assert run(["airy", "--config", cfg, "--out", out]) == 0
        text = (out / "airy_pump.dat").read_text()
        data = np.loadtxt(text.splitlines())
        assert data.shape == (32, 2)
        assert data[:, 1] == pytest.approx(np.full(32, 0.75), rel=1e-15, abs=0)
        assert "mode_width_rad_s" not in text and "free_spectral_range_rad_s" not in text

    def test_airy_pump_headers_read_the_pump_mode(self, tmp_path):
        cfg = tmp_path / "dr.cfg"
        cfg.write_text(SMALL_FIG2.replace("[pump]", "r1_pump = 0.5\nr2_pump = 1.0\n\n[pump]"))
        out = tmp_path / "out"
        assert run(["airy", "--config", cfg, "--out", out]) == 0
        head = (out / "airy_pump.dat").read_text().split("#end\n")[0]
        header = dict(line[2:].split(" = ", 1) for line in head.splitlines())
        loaded = load_config(cfg)
        cavity, center = loaded.cavity(), sum(loaded.band_centers())
        assert header["mode_width_rad_s"] == f"{cs.mode_width(cavity, center, 'pump'):.17g}"
        assert header["free_spectral_range_rad_s"] == (
            f"{cs.free_spectral_range(cavity, center, 'pump'):.17g}")


def _run_fresh(script):
    """The completed process of script, run by a fresh interpreter on this tree's package."""
    src = str(Path(cs.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_every_subcommand_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is made unimportable in a
    # fresh interpreter before the package is imported
    configs = {
        "fig2.cfg": SMALL_FIG2,
        "dr.cfg": SMALL_FIG2.replace("[pump]", "r1_pump = 0.5\nr2_pump = 1.0\n\n[pump]"),
        "sweep.cfg": R1P_SWEEP,
        "design.cfg": DESIGN,
    }
    for name, text in configs.items():
        (tmp_path / name).write_text(text)
    runs = [
        (sub, str(tmp_path / name), str(tmp_path / sub))
        for sub, name in (
            ("jsi-sr", "fig2.cfg"), ("jsi-dr", "dr.cfg"), ("marginal", "fig2.cfg"),
            ("temporal", "fig2.cfg"), ("brightness-sweep", "sweep.cfg"),
            ("design", "design.cfg"), ("airy", "fig2.cfg"),
        )
    ]
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from cavityspdc.cli import main\n"
        f"runs = {runs!r}\n"
        "codes = {sub: main([sub, '--config', cfg, '--out', out]) for sub, cfg, out in runs}\n"
        "print(json.dumps(codes))\n"
    )
    proc = _run_fresh(script)
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == {sub: 0 for sub, _, _ in runs}, proc.stderr


def test_jsi_run_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call (about 11 ms and 1.2 MB);
    # the package takes its medians without it
    fig2 = Path(__file__).resolve().parents[1] / "configs" / "fig2.cfg"
    script = (
        "import sys\n"
        "from cavityspdc.cli import main\n"
        f"code = main(['jsi-sr', '--config', {str(fig2)!r}, '--out', {str(tmp_path)!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    proc = _run_fresh(script)
    assert proc.stdout.splitlines()[-1] == "0 False"


class TestDeterminismAndErrors:
    def test_identical_runs_bitwise_identical(self, fig2_cfg, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(["jsi-sr", "--config", fig2_cfg, "--out", out1]) == 0
        assert run(["jsi-sr", "--config", fig2_cfg, "--out", out2]) == 0
        assert (out1 / "jsi_sr.grid").read_bytes() == (out2 / "jsi_sr.grid").read_bytes()

    def test_config_change_changes_hash(self, fig2_cfg, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run(["jsi-sr", "--config", fig2_cfg, "--out", out1])
        other = tmp_path / "other.cfg"
        other.write_text(SMALL_FIG2.replace("0.73", "0.74"))
        run(["jsi-sr", "--config", other, "--out", out2])
        _, meta1 = read_grid(out1 / "jsi_sr.grid")
        _, meta2 = read_grid(out2 / "jsi_sr.grid")
        assert meta1["config_sha256"] != meta2["config_sha256"]

    def test_missing_section_error_line(self, fig2_cfg, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[pump]\nwavelength_nm = 400\nfwhm_nm = 5\n")
        code = run(["jsi-sr", "--config", cfg, "--out", tmp_path / "o"])
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error: module=") and err.count("\n") == 1
        # the line names the sections of the subcommand, not of another one
        assert run(["design", "--config", fig2_cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "error: module=config: configuration is missing required section(s) [design]; "
            "it needs [design]\n"
        )

    def test_out_of_bound_quantity_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_FIG2.replace("kind = bbo", "kind = bbo\ncut_angle_deg = 120"))
        assert run(["airy", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: module=config") and "cut_angle_deg" in err

    @pytest.mark.parametrize("subcommand, text, section", [
        ("airy", SMALL_FIG2.replace("[cavity]", "[cavity]\nlength_um = 10"), "cavity"),
        ("airy", SMALL_FIG2.replace("kind = bbo", "kind = custom\n"
                                    "sellmeier_ordinary = 0.5 0 0 0\n"
                                    "sellmeier_extraordinary = 2.3753 0.01224 -0.01667 -0.01516"),
         "crystal"),
        ("brightness-sweep",
         (SMALL_FIG2 + "\n[sweep]\nkind = sigma_r2 r1p\nsigma_list_rad_s = 2e11\n"
          "r2_list = 0.5\nr1p_list = 0 0.5\n").replace("[pump]", "r2_pump = 0.9\n\n[pump]"),
         "sweep"),
        ("design", DESIGN.replace("pump_wavelength_nm = 400", "pump_wavelength_nm = 900"),
         "design"),
        ("brightness-sweep",
         SMALL_FIG2 + "\n[sweep]\nkind = sigma_r2 plateau_r2\nsigma_list_rad_s = 2e11\n"
         "r2_list = 0.5\nplateau_r2_list = 0.5 1.0\n",
         "sweep"),
        # widths that overflow to infinity in rad/s, and a span below the axis rounding
        ("jsi-dr", (FIGS / "fig4.cfg").read_text().replace("fwhm_nm = 30", "fwhm_nm = 1e300"),
         "filters"),
        ("jsi-dr", (FIGS / "fig4.cfg").read_text().replace("fwhm_nm = 5", "fwhm_nm = 1e300"),
         "pump"),
        ("jsi-dr", (FIGS / "fig4.cfg").read_text().replace("1.417e13", "1e-3"), "grid"),
        # a width or a grid key that the builder needs is missing
        ("jsi-sr", SMALL_FIG2.replace("fwhm_nm = 5\n", ""), "pump"),
        ("jsi-sr", SMALL_FIG2.replace("fwhm_nm = 30\n", ""), "filters"),
        ("jsi-sr", SMALL_FIG2.replace("fwhm_nm = 30", "shape = none"), "grid"),
        ("airy", SMALL_FIG2.replace("idler_center_nm = 800\n", ""), "grid"),
    ], ids=["cavity_shorter_than_crystal", "sellmeier_n2_below_one", "r1p_without_r2_pump_1",
            "pump_redder_than_signal", "unit_r2_in_a_sweep_list", "infinite_filter_width",
            "infinite_pump_width", "grid_below_rounding", "pump_without_width",
            "gaussian_filters_without_width", "no_filters_without_halfwidth",
            "grid_without_idler_center"])
    def test_configuration_a_spec_refuses_is_a_config_error(self, tmp_path, capsys, subcommand,
                                                            text, section):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        capsys.readouterr()
        out = tmp_path / "o"
        assert run([subcommand, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: module=config: [{section}] ") and err.count("\n") == 1
        assert not [path for path in out.rglob("*") if path.is_file()]

    def test_design_needing_unit_reflectivity_is_a_design_error(self, tmp_path, capsys):
        # a 1 uHz transition asks for a finesse whose r2 rounds to 1
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text((FIGS / "fig7.cfg").read_text().replace(
            "transition_fwhm_hz = 20e6", "transition_fwhm_hz = 1e-6"))
        capsys.readouterr()
        assert run(["design", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "error: module=design: required mirror reflectivity 1.0 is not realizable\n")

    def test_physics_error_attributed(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        # r2 = 1 makes the Airy weight diverge inside the cavity module
        cfg.write_text(SMALL_FIG2.replace("r2_signal = 0.73", "r2_signal = 1.0"))
        code = run(["jsi-sr", "--config", cfg, "--out", tmp_path / "o"])
        assert code != 0
        err = capsys.readouterr().err
        assert "module=cavity" in err

    @pytest.mark.parametrize("subcommand", ["jsi-sr", "marginal"])
    def test_a_refused_grid_writes_no_grid_file(self, tmp_path, capsys, subcommand):
        # +-2e15 rad/s around 800 nm leaves the Sellmeier window: the factor
        # tables refuse the grid before the writer opens its file
        cfg = tmp_path / "wide.cfg"
        cfg.write_text((FIGS / "fig2.cfg").read_text().replace(
            "samples = 1024", "samples = 64\nhalfwidth_rad_s = 2e15"))
        capsys.readouterr()
        out = tmp_path / "o"
        with pytest.warns(UnderResolutionWarning):
            assert run([subcommand, "--config", cfg, "--out", out, "--threads", 2]) == 2
        assert capsys.readouterr().err.startswith(
            "error: module=dispersion: angular frequency outside the Sellmeier validity window"
        )
        assert not [path for path in out.rglob("*") if path.is_file()]  # no grid, no manifest

    def test_pool_thread_error_names_the_raising_module(self, tmp_path, capsys):
        # the fill leaves the Sellmeier window inside a worker thread
        cfg = tmp_path / "window.cfg"
        cfg.write_text(SMALL_FIG2.replace("kind = bbo", "kind = bbo\nwindow_hi_um = 0.83"))
        capsys.readouterr()
        assert run(["temporal", "--config", cfg, "--out", tmp_path / "o", "--threads", 2]) == 2
        assert capsys.readouterr().err.startswith(
            "error: module=dispersion: angular frequency outside the Sellmeier validity window"
        )

    def test_low_finesse_lattice_holds_twenty_round_trips(self, tmp_path):
        # r2 = 0.3 at 2 samples per mode width: a step of half the mode
        # width would give a t_minus window of about 10 round trips
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(
            SMALL_FIG2.replace("0.73", "0.3") + "[temporal]\nsamples_per_mode_width = 2\n"
        )
        out = tmp_path / "o"
        assert run(["temporal", "--config", cfg, "--out", out]) == 0
        t_minus = np.loadtxt(out / "time_difference.dat")[:, 0]
        summary = (out / "temporal_summary.kv").read_text()
        round_trip = float(summary.split("round_trip_time_s = ")[1].split()[0])
        assert t_minus[-1] - t_minus[0] >= 20 * round_trip

    def test_temporal_with_one_peak_fails_like_one_with_none(self, tmp_path, capsys):
        # at 0.9 of the maximum only the central tooth of fig2's comb is a peak
        cfg = tmp_path / "one_peak.cfg"
        cfg.write_text(SMALL_FIG2 + "[temporal]\nmin_prominence = 0.9\n")
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["temporal", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == "error: module=temporal: correlation time requires at least 2 peaks, got 1\n"
        assert not [path for path in out.rglob("*") if path.is_file()]

    def test_temporal_on_an_open_cavity_stops_at_the_correlation_time(self, tmp_path, capsys):
        # infinite mode widths leave the lattice to the 20-round-trip cap,
        # and with no comb only the central peak stands
        cfg = tmp_path / "open.cfg"
        cfg.write_text(SMALL_FIG2.replace("0.73", "0"))
        capsys.readouterr()
        assert run(["temporal", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err == "error: module=temporal: correlation time requires at least 2 peaks, got 1\n"

    def test_temporal_refuses_pump_mirrors_before_the_fill(self, tmp_path, monkeypatch, capsys):
        # the temporal lattice holds the singly-resonant amplitude, which
        # has no pump mirrors
        cfg = tmp_path / "dr.cfg"
        cfg.write_text(SMALL_FIG2.replace("[pump]", "r2_pump = 1.0\n\n[pump]"))

        def unreachable(*args):
            raise AssertionError("the lattice fill ran")

        monkeypatch.setattr(cavityspdc.temporal, "_jsa_sr_pointwise", unreachable)
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["temporal", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: module=cli: [cavity] r1_pump, r2_pump")
        assert err.count("\n") == 1
        assert not [path for path in out.rglob("*") if path.is_file()]

    def test_text_format_flag(self, fig2_cfg, tmp_path):
        out = tmp_path / "out"
        assert run(["jsi-sr", "--config", fig2_cfg, "--out", out, "--format", "text"]) == 0
        head = (out / "jsi_sr.grid").read_text().splitlines()[0]
        assert head.startswith("# format = text")


class TestGridWorkingSet:
    # The grid ops stream their JSI in blocks of a fixed number of samples
    # through the marginal into the writer, so the largest grid such an op
    # holds is none: traced 1.2-2.3 MiB at 1, 2 and 3 threads (fig2 at 1024
    # and 2048 samples, fig3 jsi-dr, fig7 design), where holding the output
    # grid took 9.2-10.7 MiB at 1024 samples.  The bound does not grow with N.
    BOUND = 4 * 2**20

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("subcommand, fig", [
        ("jsi-sr", "fig2"), ("marginal", "fig2"), ("jsi-dr", "fig3"), ("design", "fig7"),
    ])
    def test_traced_peak_is_the_largest_grid_plus_a_fixed_bound(self, tmp_path, subcommand,
                                                                fig, threads):
        args = [subcommand, "--config", FIGS / f"{fig}.cfg", "--out", tmp_path,
                "--threads", threads]
        peak, code = traced_peak(lambda: run(args))
        assert code == 0
        assert peak <= self.BOUND

    @pytest.mark.parametrize("threads", [1, 2])
    def test_traced_peak_does_not_grow_with_the_grid(self, tmp_path, threads):
        # fig2 at 2048 samples: a 32 MiB grid, 16 rows a block
        config = tmp_path / "fig2_2048.cfg"
        config.write_text((FIGS / "fig2.cfg").read_text().replace(
            "samples = 1024", "samples = 2048"))
        args = ["marginal", "--config", config, "--out", tmp_path / "o", "--threads", threads]
        peak, code = traced_peak(lambda: run(args))
        assert code == 0
        assert (tmp_path / "o" / "jsi_sr.grid").stat().st_size > 8 * 2048**2
        assert peak <= self.BOUND

    @pytest.mark.parametrize("threads", [1, 2])
    def test_airy_holds_no_grid(self, tmp_path, threads):
        args = ["airy", "--config", FIGS / "fig2.cfg", "--out", tmp_path, "--threads", threads]
        peak, code = traced_peak(lambda: run(args))
        assert code == 0
        assert peak <= 2**20


def _assert_same_at_any_thread_count(tmp_path, subcommand, config, fmt):
    """The run's artifacts, a grid among them, are byte for byte the same at 1, 2 and 3 threads."""
    outs = {n: tmp_path / f"threads{n}" for n in ("1", "2", "3")}
    for n, out in outs.items():
        args = [subcommand, "--config", config, "--out", out, "--format", fmt]
        assert run([*args, "--threads", n]) == 0
    names = sorted(p.name for p in outs["1"].iterdir())
    assert any(name.endswith(".grid") for name in names)
    for n in ("2", "3"):
        assert names == sorted(p.name for p in outs[n].iterdir())
        for name in names:
            assert (outs["1"] / name).read_bytes() == (outs[n] / name).read_bytes(), name


class TestThreads:
    def test_default_is_the_available_cpus(self):
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count()
        assert _parser().get_default("threads") == cpus

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_fewer_than_one_rejected_at_parse_time(self, fig2_cfg, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as exit_info:
            run(["temporal", "--config", fig2_cfg, "--out", tmp_path / "o", "--threads", threads])
        assert exit_info.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand, fig", [
        ("jsi-sr", "fig2"), ("jsi-dr", "fig3"), ("marginal", "fig2"),
        ("brightness-sweep", "fig5"), ("brightness-sweep", "fig6"),
    ])
    def test_grid_and_sweep_subcommands_start_no_worker_thread(self, tmp_path, monkeypatch,
                                                               subcommand, fig):
        # the grid streams, and the sweeps integrate their stripes, on the
        # calling thread whatever --threads says
        def no_pool(*args, **kwargs):
            raise AssertionError(f"{subcommand} opened a thread pool")

        monkeypatch.setattr(cavityspdc._parallel, "ThreadPoolExecutor", no_pool)
        assert run([subcommand, "--config", FIGS / f"{fig}.cfg", "--out", tmp_path,
                    "--threads", 3]) == 0

    def test_temporal_runs_its_blocks_on_a_pool(self, fig2_cfg, tmp_path, monkeypatch):
        workers = []

        class CountingPool(cavityspdc._parallel.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                workers.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cavityspdc._parallel, "ThreadPoolExecutor", CountingPool)
        assert run(["temporal", "--config", fig2_cfg, "--out", tmp_path, "--threads", 3]) == 0
        assert max(workers) == 3

    # the grid ignores --threads, and the bytes show it
    @pytest.mark.parametrize(
        "subcommand, fig", [("jsi-sr", "fig2"), ("jsi-dr", "fig3"), ("marginal", "fig2")]
    )
    def test_grid_artifacts_do_not_depend_on_threads(self, tmp_path, subcommand, fig):
        _assert_same_at_any_thread_count(tmp_path, subcommand, FIGS / f"{fig}.cfg", "binary")

    def test_text_grid_and_idler_marginal_do_not_depend_on_threads(self, tmp_path):
        # fig3 at 512 samples: 64 rows a block, 8 blocks of text at any thread count
        config = tmp_path / "fig3_512.cfg"
        config.write_text((FIGS / "fig3.cfg").read_text().replace(
            "samples = 1024", "samples = 512") + "\n[marginal]\naxis = idler\n")
        _assert_same_at_any_thread_count(tmp_path, "marginal", config, "text")

    def test_sweep_artifacts_do_not_depend_on_threads(self, tmp_path):
        # fig6 cut to two sigmas and r1p rows 0 and 1 (no integral of their
        # own) around two integrated ones; each sigma's 129 columns run as
        # four kernel chunks (38 to 40 columns, the last ragged)
        shipped = (Path(__file__).resolve().parents[1] / "configs" / "fig6.cfg").read_text()
        config = tmp_path / "fig6_small.cfg"
        config.write_text(
            shipped.replace("sigma_list_rad_s = 2e11 3.5e11 5e11", "sigma_list_rad_s = 2e11 5e11")
            .replace("r1p_list = 0.0 0.15 0.3 0.45 0.6 0.75 0.9 0.95 0.99 0.999 1.0",
                     "r1p_list = 0.0 0.5 0.9 1.0")
        )
        outs = {n: tmp_path / f"threads{n}" for n in ("1", "2")}
        for n, out in outs.items():
            assert run(["brightness-sweep", "--config", config, "--out", out, "--threads", n]) == 0
        names = sorted(p.name for p in outs["1"].iterdir())
        assert names == sorted(p.name for p in outs["2"].iterdir())
        table = (outs["1"] / "brightness_r1p.tsv").read_text().splitlines()
        assert len([line for line in table if not line.startswith("#")]) == 1 + 2 * 4
        for name in names:
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name

    def test_temporal_artifacts_do_not_depend_on_threads(self, fig2_cfg, tmp_path):
        outs = {n: tmp_path / f"threads{n}" for n in ("1", "2")}
        for n, out in outs.items():
            assert run(["temporal", "--config", fig2_cfg, "--out", out, "--threads", n]) == 0
        names = sorted(p.name for p in outs["1"].iterdir())
        assert names == sorted(p.name for p in outs["2"].iterdir())
        assert "time_difference.dat" in names
        for name in names:
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name
