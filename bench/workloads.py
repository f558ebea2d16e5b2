"""Benchmark workloads: the ops each one runs, and their seeded inputs.

A plan is plain JSON: the config every op reads, its CLI arguments and the
checks its outputs must pass.  Shipped configs run as shipped; seeded
variants are written next to the plan.  Seeded parameters move inside
narrow bands, so the lattice size of each op, and with it the run length,
stays comparable across seeds.  Every generated lattice resolves a cavity
mode width with at least 8 samples, the package's own rule.
"""

from __future__ import annotations

import json
import math

import numpy as np

WORKLOADS = ("maps", "temporal", "sweeps", "export")

_C = 299792458.0
_CRYSTAL = "[crystal]\nkind = bbo\nlength_l_um = 20\n"
_CENTERS = "signal_center_nm = 800\nidler_center_nm = 800\n"


def _shipped(subcommand, fig, checks):
    return {"name": f"{fig}.{subcommand}", "config": f"configs/{fig}.cfg",
            "argv": [subcommand], "checks": ["reference", *checks]}


def _jitter_r(rng, r, rel):
    """Reflectivity with (1 - r) scaled by 1 +- rel: cost ~ finesse stays in band."""
    return 1.0 - (1.0 - r) * rng.uniform(1.0 - rel, 1.0 + rel)


def _mode_width(r2):
    """FWHM of an 800 nm resonance of the 20 um, L = l cavity, via the package."""
    import cavityspdc as cs

    omega0 = 2 * math.pi * _C / 800e-9
    crystal = cs.bbo(0.5, 20e-6)  # the ordinary index does not depend on the cut
    return cs.mode_width(cs.singly_resonant_cavity(20e-6, crystal, r2), omega0, "signal")


def _lattice_config(rng, doubly_resonant):
    """SR or DR map config on ~1024^2 samples with 8.2-9 samples per mode width."""
    r2 = rng.uniform(0.70, 0.76)
    samples = int(rng.integers(1020, 1029))
    per_width = rng.uniform(8.2, 9.0)
    halfwidth = (samples - 1) / 2 * _mode_width(r2) / per_width
    pump_mirrors = ""
    if doubly_resonant:
        pump_mirrors = f"r1_pump = {rng.uniform(0.4, 0.6):.6f}\nr2_pump = 1.0\n"
    return (
        f"{_CRYSTAL}\n[cavity]\nr2_signal = {r2:.6f}\nr2_idler = {r2:.6f}\n{pump_mirrors}"
        f"solve_phases = true\n\n[pump]\nwavelength_nm = 400\n"
        f"fwhm_nm = {rng.uniform(4.5, 5.5):.6f}\n\n[filters]\nshape = gaussian\n"
        f"fwhm_nm = {rng.uniform(27.0, 33.0):.6f}\n\n[grid]\n{_CENTERS}"
        f"samples = {samples}\nhalfwidth_rad_s = {halfwidth:.9e}\n"
    )


def _temporal_config(rng):
    """fig2 source near r2 = 0.9: a ~4460 x 1900 rotated lattice, 8192 x 2048 FFT."""
    r2 = _jitter_r(rng, 0.9, 0.01)
    return (
        f"{_CRYSTAL}\n[cavity]\nr2_signal = {r2:.6f}\nr2_idler = {r2:.6f}\n"
        f"solve_phases = true\n\n[pump]\nwavelength_nm = 400\n"
        f"fwhm_nm = {rng.uniform(4.95, 5.05):.6f}\n\n[filters]\nshape = gaussian\n"
        f"fwhm_nm = 30\n\n[grid]\n{_CENTERS}\n[temporal]\nsamples_per_mode_width = 8\n"
    )


def _fig5_config(rng):
    """fig5 sweep with every sigma and nonzero r2 moved inside a narrow band."""
    sigmas = [s * rng.uniform(0.97, 1.03)
              for s in (1e11, 2.2e11, 4.6e11, 1e12, 2.2e12, 4.6e12, 1e13, 2.2e13, 4.6e13)]
    r2 = [0.0] + [_jitter_r(rng, r, 0.02) for r in (0.5, 0.7, 0.9)]
    plateau = [0.0] + [_jitter_r(rng, r, 0.02)
                       for r in (0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99)]

    def fmt(values):
        return " ".join(f"{v:.6g}" for v in values)

    return (
        f"{_CRYSTAL}\n[cavity]\nr2_signal = 0.73\nr2_idler = 0.73\nsolve_phases = true\n\n"
        f"[pump]\nwavelength_nm = 400\nfwhm_nm = 5\n\n[filters]\nshape = gaussian\n"
        f"fwhm_nm = 30\n\n[grid]\n{_CENTERS}\n[sweep]\nkind = sigma_r2 plateau_r2\n"
        f"sigma_list_rad_s = {fmt(sigmas)}\nr2_list = {fmt(r2)}\n"
        f"plateau_r2_list = {fmt(plateau)}\nfactors = central_approx\n\n"
        f"[output]\nformat = text\n"
    )


def make_plan(workload, seed, work_dir):
    """Write the seeded configs of one workload into work_dir; return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    def seeded(name, subcommand, text, checks, **extra):
        path = work_dir / f"{name}.cfg"
        path.write_text(f"# generated by bench/workloads.py, seed {seed}\n{text}")
        return {"name": f"{name}.{subcommand}", "config": str(path), "argv": [subcommand],
                "checks": checks, **extra}

    if workload == "maps":
        ops = [
            _shipped("jsi-sr", "fig2", ["symmetric"]),
            _shipped("marginal", "fig2", ["marginal_integral"]),
            _shipped("airy", "fig2", []),
            _shipped("jsi-dr", "fig3", ["symmetric"]),
            _shipped("jsi-dr", "fig4", ["symmetric"]),
            _shipped("design", "fig7", []),
            seeded("seeded_sr", "jsi-sr", _lattice_config(rng, False), ["symmetric"]),
            seeded("seeded_dr", "jsi-dr", _lattice_config(rng, True), ["symmetric"]),
        ]
    elif workload == "temporal":
        ops = [
            _shipped("temporal", "fig2", ["comb_spacing"]),
            seeded("seeded_r09", "temporal", _temporal_config(rng), ["comb_spacing"]),
        ]
    elif workload == "sweeps":
        ops = [
            seeded("seeded_fig5", "brightness-sweep", _fig5_config(rng), ["bnorm_unity"]),
            _shipped("brightness-sweep", "fig6", ["r1p_limits"]),
        ]
        for op in ops:
            op["argv"] += ["--threads", "1"]
    else:
        # Each export op writes its grid as text and as binary, then reads both.
        ops = [
            seeded("seeded_sr", "jsi-sr", _lattice_config(rng, False),
                   ["roundtrip", "symmetric"], export=True),
            seeded("seeded_dr", "jsi-dr", _lattice_config(rng, True),
                   ["roundtrip", "symmetric"], export=True),
        ]
    plan = {"workload": workload, "seed": seed, "ops": ops}
    (work_dir / "plan.json").write_text(json.dumps(plan, indent=1))
    return plan
