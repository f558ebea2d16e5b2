"""One benchmark child process: set up, then run a workload's ops and check them.

    python3 bench/child.py --plan PLAN --mode setup|run|trace --t0 T --out DIR \
        [--dump SPANS]

--t0 is the parent's time.monotonic() just before it started this process,
so setup_s covers interpreter start, `import cavityspdc.cli` and loading the
first config.  `setup` stops there.  `run` then makes one pass over the
ops, timing each op, and checks every output after the pass.  `trace` makes
the same pass with every public function wrapped (see spans.py) and reports
per-layer numbers.  The last stdout line is a JSON object.

    python3 bench/child.py --record

runs the ops of shipped configs and rewrites reference.json; that file holds
values recorded at the seed commit and is the oracle for later commits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402


def _run_op(op, out_dir):
    """Run one op through the CLI; returns the extra data its checks need.

    Package functions are looked up at call time, so the traced pass sees
    its wrappers.
    """
    from cavityspdc import cli, gridfile

    argv = [*op["argv"], "--config", op["config"]]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if not op.get("export"):
            code = cli.main([*argv, "--out", str(out_dir)])
            if code != 0:
                raise RuntimeError(f"cavityspdc exited with code {code}")
            return None
        grids = []
        for fmt in ("text", "binary"):
            target = out_dir / fmt
            code = cli.main([*argv, "--out", str(target), "--format", fmt])
            if code != 0:
                raise RuntimeError(f"cavityspdc --format {fmt} exited with code {code}")
            (path,) = target.glob("*.grid")
            grids.append(gridfile.read_grid(path)[0])
        return grids


def _layer_probe(out_dir):
    """Tiny calls into every layer, so each per-layer timer runs in every trace."""
    import numpy as np

    import cavityspdc as cs

    omega0 = 2 * np.pi * 299792458.0 / 800e-9
    theta = cs.phasematching_angle(cs.bbo(0.0, 20e-6), 2 * omega0, omega0, omega0)
    crystal = cs.bbo(theta, 20e-6)
    sr = cs.solve_resonance_phases(cs.singly_resonant_cavity(20e-6, crystal, 0.5), omega0, omega0)
    dr = cs.solve_resonance_phases(
        sr.with_mirror(2, "pump", magnitude=1.0).with_mirror(1, "pump", magnitude=0.5),
        omega0, omega0, 2 * omega0,
    )
    pump = cs.PumpSpec.from_wavelength(400e-9, 5e-9)
    fwhm = cs.wavelength_fwhm_to_angular(800e-9, 30e-9)
    filters = (cs.FilterSpec(omega0, fwhm), cs.FilterSpec(omega0, fwhm))
    grid = cs.default_grid(omega0, omega0, 3 * fwhm, samples=16)
    from cavityspdc.gridfile import read_grid, write_grid

    jsi = cs.jsi_doubly_resonant(dr, pump, filters, grid)
    write_grid(jsi, out_dir / "probe.grid")
    read_grid(out_dir / "probe.grid")
    plus = np.linspace(2 * omega0 - 4.5 * pump.sigma, 2 * omega0 + 4.5 * pump.sigma, 33)
    minus = np.linspace(-3 * fwhm, 3 * fwhm, 65)
    rot = cs.jsa_singly_resonant_rotated(sr, pump, filters, plus, minus)
    tgrid = cs.joint_temporal_intensity(rot, pad_plus=64, pad_minus=128)
    marg = cs.time_difference_marginal(tgrid)
    cs.extract_peaks(marg.axis, marg.density)
    no_cavity = sr.with_mirror(2, "signal", magnitude=0.0).with_mirror(2, "idler", magnitude=0.0)
    cs.brightness_from_cavity(no_cavity, pump, filters)
    cs.design_source(cs.DesignTarget(854.2e-9, 2 * np.pi * 20e6, 400e-9, 0.5e-9))


def _scaling_efficiency():
    """T_1 / (nproc T_nproc) of one fig5 point (r2 = 0.9, sigma = 4.6e13 rad/s)."""
    from dataclasses import replace

    from cavityspdc.brightness import brightness_from_cavity
    from cavityspdc.config import load_config

    cfg = load_config("configs/fig5.cfg")
    cavity = cfg.cavity()
    cavity = cavity.with_mirror(2, "signal", magnitude=0.9).with_mirror(2, "idler", magnitude=0.9)
    pump = replace(cfg.pump(), sigma=4.6e13)
    nproc = len(os.sched_getaffinity(0))
    times, values = [], []
    for threads in (1, nproc):
        start = time.perf_counter()
        values.append(brightness_from_cavity(cavity, pump, cfg.filters(), threads=threads).value)
        times.append(time.perf_counter() - start)
    if values[0] != values[1]:
        raise checks.CheckFailed(f"threads={nproc} changes B: {values[1]!r} != {values[0]!r}")
    return times[0] / (nproc * times[1])


def layer_metrics(tracer, import_s, setup_config_s, underres):
    """Per-layer metrics of one traced pass (trace.overhead_s is the parent's)."""
    totals = spans.layer_self_times(tracer.spans)

    def self_s(layer):
        return totals.get(layer, 0.0)

    def named(*names):
        return spans.inclusive(tracer.spans, set(names))

    write_s, write_bytes = named("write_grid", "write_columns", "write_text")
    read_s, read_bytes = named("read_grid")
    return {
        "import.self_s": import_s,
        "config.self_s": setup_config_s + self_s("config"),
        "dispersion.self_s": self_s("dispersion"),
        "dispersion.points": named("refractive_index")[1],
        "cavity.self_s": self_s("cavity"),
        "cavity.points": named("single_pass_phase")[1],
        "spectral.self_s": self_s("spectral"),
        "spectral.points": named("jsa_bare")[1],
        "spectral.underres_warnings": underres,
        "doubly_resonant.self_s": self_s("doubly_resonant"),
        "doubly_resonant.points": named("phase_balancing")[1],
        "temporal.rotated_points": named("jsa_singly_resonant_rotated")[1],
        "temporal.fft_s": named("joint_temporal_intensity")[0],
        "temporal.fft_bytes": named("joint_temporal_intensity")[1],
        "temporal.marginal_s": named("time_difference_marginal")[0],
        "temporal.peaks_s": named("extract_peaks")[0],
        "brightness.stripe_s": named("brightness_from_cavity")[0],
        "brightness.integrals": named("brightness_from_cavity")[1],
        "design.self_s": self_s("design"),
        "gridfile.write_s": write_s,
        "gridfile.read_s": read_s,
        "gridfile.bytes": write_bytes + read_bytes,
        "cli.self_s": self_s("cli"),
    }


# The layers each workload is built to stress (acceptance: the largest share
# of the workload's self time).  Roots name spans whose whole subtree counts.
TARGETS = {
    "maps": {"layers": ("dispersion", "cavity", "spectral", "doubly_resonant")},
    "temporal": {"layers": ("temporal",), "roots": ("jsa_singly_resonant_rotated",)},
    "sweeps": {"roots": ("brightness_from_cavity",)},
    "export": {"layers": ("gridfile",)},
}


def target_shares(workload, tracer, import_s, setup_config_s):
    """Self time per layer, with the workload's target gathered into one entry."""
    shares = spans.layer_self_times(tracer.spans)
    shares["import"] = import_s
    shares["config"] = shares.get("config", 0.0) + setup_config_s
    target = TARGETS[workload]
    under = spans.time_under(tracer.spans, set(target.get("roots", ())))
    gathered = 0.0
    for layer, t in under.items():
        if layer not in target.get("layers", ()):
            shares[layer] -= t
            gathered += t
    for layer in target.get("layers", ()):
        gathered += shares.pop(layer, 0.0)
    shares["target"] = gathered
    total = sum(shares.values())
    return {layer: t / total for layer, t in sorted(shares.items(), key=lambda kv: -kv[1])}


def _run_ops(ops, out_root, tracer=None):
    """Run every op once, back to back, timing each."""
    run = {"op_s": {}, "errors": {}, "extras": {}}
    pass_start = time.perf_counter()
    for op in ops:
        span = tracer.span(op["name"], "bench") if tracer else contextlib.nullcontext()
        op_start = time.perf_counter()
        try:
            with span:
                run["extras"][op["name"]] = _run_op(op, out_root / op["name"])
        except Exception:
            run["errors"][op["name"]] = traceback.format_exc(limit=3)
        run["op_s"][op["name"]] = time.perf_counter() - op_start
    run["wall_s"] = time.perf_counter() - pass_start
    return run


def _check_ops(ops, out_root, reference, run):
    """Check the outputs of a pass (untimed, untraced); returns the pass record."""
    errors = run["errors"]
    for op in ops:
        if op["name"] in errors:
            continue
        out_dir = out_root / op["name"]
        try:
            checks.check_op(op, out_dir / "binary" if op.get("export") else out_dir,
                            reference, run["extras"][op["name"]])
        except Exception as exc:
            errors[op["name"]] = f"check failed: {exc}"
    shutil.rmtree(out_root, ignore_errors=True)
    return {"wall_s": run["wall_s"], "op_s": run["op_s"], "failed": sorted(errors),
            "errors": errors}


def run_child(args):
    plan = json.loads(Path(args.plan).read_text())
    ops = plan["ops"]
    start = time.perf_counter()
    import cavityspdc.cli as cli  # the import a CLI user pays on every run

    import_s = time.perf_counter() - start
    from cavityspdc.config import load_config
    from cavityspdc.errors import UnderResolutionWarning

    src = Path("src").resolve()
    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"imported cavityspdc from {cli.__file__}, not from {src}")
    config_start = time.perf_counter()
    load_config(ops[0]["config"])
    setup_config_s = time.perf_counter() - config_start
    result = {"setup_s": time.monotonic() - args.t0, "import_s": import_s}
    if args.mode == "setup":
        return result

    reference = json.loads((HERE / "reference.json").read_text())
    out_root = Path(args.out)
    if args.mode == "run":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderResolutionWarning)
            run = _run_ops(ops, out_root)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["passes"] = [_check_ops(ops, out_root, reference, run)]
        return result

    tracer = spans.Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install()
        try:
            run = _run_ops(ops, out_root, tracer)
            underres = sum(issubclass(w.category, UnderResolutionWarning) for w in caught)
            with tracer.span("layer_probe", "bench"):
                _layer_probe(out_root)
        finally:
            tracer.uninstall()
    traced = _check_ops(ops, out_root, reference, run)
    result["passes"] = [traced]
    result["layers"] = layer_metrics(tracer, import_s, setup_config_s, underres)
    result["layers"]["brightness.scaling_eff"] = (
        _scaling_efficiency() if plan["workload"] == "sweeps" else 0.0)
    result["shares"] = target_shares(plan["workload"], tracer, import_s, setup_config_s)
    if args.dump:
        tracer.dump(args.dump)
    return result


def record_reference():
    """Rewrite reference.json from the shipped-config ops of every workload."""
    import tempfile

    import workloads

    reference = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for workload in workloads.WORKLOADS:
            for op in workloads.make_plan(workload, 0, Path(tmp))["ops"]:
                if "reference" not in op["checks"]:
                    continue
                out_dir = Path(tmp) / op["name"]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    _run_op(op, out_dir)
                reference[op["name"]] = checks.record_outputs(out_dir)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--dump", default=None, help="write the trace spans here")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    if args.record:
        record_reference()
        return 0
    if args.t0 is None:
        args.t0 = time.monotonic()
    print(json.dumps(run_child(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
