"""The benchmark's contract with the package, checked without running a workload.

bench/spans.py wraps the public functions named in its TRACED table,
bench/workloads.py writes the configs every benchmark op loads, and
bench/reference.json records the artifact names each shipped-config op
writes.  A renamed or deleted traced function, a load-time rule that
refuses a benchmark config, or an artifact named differently breaks the
benchmark; these tests fail first.  The sweeps workload measures the
folded brightness stripe, so its ops must build exchange-symmetric
stripes only.  The bench modules are loaded by path
and left unchanged.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import cavityspdc.brightness as brightness
import cavityspdc.cli as cli
from cavityspdc.config import load_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """spans, child and workloads from bench/, loaded by path.

    child.py puts bench/ on sys.path to import its siblings spans and
    checks; the path is restored and those imports are dropped afterwards.
    """
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    try:
        loaded = {}
        for name in ("spans", "child", "workloads"):
            spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
            loaded[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(loaded[name])
    finally:
        sys.path[:] = saved_path
        for name in ("spans", "checks"):
            if name not in saved_modules:
                sys.modules.pop(name, None)
    return loaded


def test_traced_pass_reaches_every_layer(bench, tmp_path):
    spans, child = bench["spans"], bench["child"]
    config = tmp_path / "airy.cfg"
    config.write_text(
        "[crystal]\nlength_l_um = 20\n\n[cavity]\nr2_signal = 0.73\nr2_idler = 0.73\n\n"
        "[grid]\nsignal_center_nm = 800\nidler_center_nm = 800\nsamples = 16\n"
        "halfwidth_rad_s = 1e14\n"
    )
    tracer = spans.Tracer()
    tracer.install()  # AttributeError when a traced name is gone
    try:
        child._run_op({"argv": ["airy"], "config": str(config)}, tmp_path / "op")
        child._layer_probe(tmp_path)
    finally:
        tracer.uninstall()
    assert not hasattr(cli.main, "__wrapped__")  # uninstalled
    layers = {span[2] for span in tracer.spans}
    assert layers == set(spans.TRACED)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["maps", "temporal", "sweeps", "export"])
def test_every_benchmark_config_loads(bench, tmp_path, monkeypatch, workload, seed):
    monkeypatch.chdir(BENCH.parent)  # shipped configs are named relative to the repo root
    plan = bench["workloads"].make_plan(workload, seed, tmp_path)
    for op in plan["ops"]:
        load_config(op["config"], require=cli._SUBCOMMANDS[op["argv"][0]][1])


@pytest.mark.parametrize(
    "name", ["fig2.jsi-sr", "fig2.marginal", "fig2.airy", "fig3.jsi-dr", "fig4.jsi-dr"]
)
def test_shipped_map_ops_write_the_recorded_artifacts(bench, tmp_path, name):
    # the grid is named for the cavity, so the name can drift from the
    # recorded one without any subcommand failing; 32 samples keep it cheap
    reference = json.loads((BENCH / "reference.json").read_text())
    plan = bench["workloads"].make_plan("maps", 0, tmp_path)
    (op,) = [op for op in plan["ops"] if op["name"] == name]
    shipped = (BENCH.parent / op["config"]).read_text()
    small, count = re.subn(r"^samples = \d+$", "samples = 32", shipped, flags=re.M)
    assert count == 1
    config = tmp_path / Path(op["config"]).name
    config.write_text(small)
    out = tmp_path / "out"
    bench["child"]._run_op({**op, "config": str(config)}, out)
    written = sorted(path.name for path in out.iterdir() if path.name != "manifest")
    assert written == sorted(reference[name])


@pytest.mark.parametrize("seed", [0, 1])
def test_sweeps_ops_fold_every_stripe(bench, tmp_path, monkeypatch, seed):
    # a stand-in for the stripe's column integrals records each stripe a
    # sweep row or reference builds, and hands the omega_plus integral flat
    # columns; the shipped fig6 op is in every plan
    monkeypatch.chdir(BENCH.parent)
    folded = []

    def stripe_only(cavity, pump, filters, factor_mode, threads=1):
        stripe = brightness._stripe_axes(cavity, pump, filters)
        folded.append(stripe.folded)
        return stripe, np.ones(stripe.plus.size)

    monkeypatch.setattr(brightness, "_stripe_columns", stripe_only)
    plan = bench["workloads"].make_plan("sweeps", seed, tmp_path)
    assert any(op["config"] == "configs/fig6.cfg" for op in plan["ops"])
    for op in plan["ops"]:
        count = len(folded)
        bench["child"]._run_op(op, tmp_path / op["name"])
        assert len(folded) > count, op["name"]
    assert all(folded)
