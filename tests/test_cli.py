import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavityspdc as cs
import cavityspdc.temporal
from cavityspdc.cli import _parser, main
from cavityspdc.constants import c
from cavityspdc.gridfile import read_grid

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

SWEEP = "\n[sweep]\nkind = r1p\nsigma_list_rad_s = 2e11\nr1p_list = 0 0.5 1.0\n"


@pytest.fixture()
def fig2_cfg(tmp_path):
    path = tmp_path / "fig2.cfg"
    path.write_text(SMALL_FIG2)
    return path


def run(args):
    return main([str(a) for a in args])


class TestSubcommands:
    def test_jsi_sr_writes_grid_and_manifest(self, fig2_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["jsi-sr", "--config", fig2_cfg, "--out", out]) == 0
        grid, meta = read_grid(out / "jsi_sr.grid")
        assert grid.values.shape == (129, 129)
        assert grid.values.min() >= 0
        manifest = (out / "manifest").read_text().splitlines()
        assert any("jsi_sr.grid" in line for line in manifest)
        digest = meta["config_sha256"]
        assert all(digest in line for line in manifest if not line.startswith("#"))
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
        cfg.write_text((SMALL_FIG2 + SWEEP).replace("[pump]", "r2_pump = 1.0\n\n[pump]"))
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


def test_every_subcommand_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is made unimportable in a
    # fresh interpreter before the package is imported
    configs = {
        "fig2.cfg": SMALL_FIG2,
        "dr.cfg": SMALL_FIG2.replace("[pump]", "r1_pump = 0.5\nr2_pump = 1.0\n\n[pump]"),
        "sweep.cfg": (SMALL_FIG2 + SWEEP).replace("[pump]", "r2_pump = 1.0\n\n[pump]"),
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
    src = str(Path(cs.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == {sub: 0 for sub, _, _ in runs}, proc.stderr


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

    def test_missing_section_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[pump]\nwavelength_nm = 400\nfwhm_nm = 5\n")
        code = run(["jsi-sr", "--config", cfg, "--out", tmp_path / "o"])
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error: module=") and err.count("\n") == 1

    def test_out_of_bound_quantity_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_FIG2.replace("kind = bbo", "kind = bbo\ncut_angle_deg = 120"))
        assert run(["airy", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: module=config") and "cut_angle_deg" in err

    def test_physics_error_attributed(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        # r2 = 1 makes the Airy weight diverge inside the cavity module
        cfg.write_text(SMALL_FIG2.replace("r2_signal = 0.73", "r2_signal = 1.0"))
        code = run(["jsi-sr", "--config", cfg, "--out", tmp_path / "o"])
        assert code != 0
        err = capsys.readouterr().err
        assert "module=cavity" in err

    def test_under_resolved_window_fails_before_the_fill(self, tmp_path, monkeypatch, capsys):
        # r2 = 0.3 at 2 samples per mode width: the t_minus window spans
        # about 10 round trips
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(
            SMALL_FIG2.replace("0.73", "0.3") + "[temporal]\nsamples_per_mode_width = 2\n"
        )

        def unreachable(*args):
            raise AssertionError("the lattice fill ran")

        monkeypatch.setattr(cavityspdc.temporal, "_jsa_sr_pointwise", unreachable)
        capsys.readouterr()
        assert run(["temporal", "--config", cfg, "--out", tmp_path / "o"]) == 2
        # the line the check gave when it ran after the fill
        assert capsys.readouterr().err == (
            "error: module=temporal: t_minus window 2.182e-12 s spans fewer than 20 round "
            "trips (2.249e-13 s each); need <= 190 minus-axis samples over the current span "
            "(finer d omega_minus)\n"
        )
        assert not (tmp_path / "o" / "time_difference.dat").exists()

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
        assert err.startswith("error: module=") and err.count("\n") == 1
        assert "r2_pump" in err
        assert not [path for path in out.rglob("*") if path.is_file()]

    def test_text_format_flag(self, fig2_cfg, tmp_path):
        out = tmp_path / "out"
        assert run(["jsi-sr", "--config", fig2_cfg, "--out", out, "--format", "text"]) == 0
        head = (out / "jsi_sr.grid").read_text().splitlines()[0]
        assert head.startswith("# format = text")


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

    @pytest.mark.parametrize(
        "subcommand, fig", [("jsi-sr", "fig2"), ("jsi-dr", "fig3"), ("marginal", "fig2")]
    )
    def test_grid_artifacts_do_not_depend_on_threads(self, tmp_path, subcommand, fig):
        config = Path(__file__).resolve().parents[1] / "configs" / f"{fig}.cfg"
        outs = {n: tmp_path / f"threads{n}" for n in ("1", "2")}
        for n, out in outs.items():
            args = [subcommand, "--config", config, "--out", out, "--format", "binary"]
            assert run([*args, "--threads", n]) == 0
        names = sorted(p.name for p in outs["1"].iterdir())
        assert names == sorted(p.name for p in outs["2"].iterdir())
        assert any(name.endswith(".grid") for name in names)
        for name in names:
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name

    def test_sweep_artifacts_do_not_depend_on_threads(self, tmp_path):
        # fig6 cut to two sigmas and r1p rows 0 and 1 (no integral of their
        # own) around two integrated ones; each sigma has three 64-column chunks
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
