"""cavityspdc benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 bench/run.py --workload maps|temporal|sweeps|export --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Each run generates the workload's inputs from --seed, then runs fresh child
processes (bench/child.py) and checks every output.  It starts children
that each make one pass over the workload's ops, back to back -- a closed
loop with one client -- until the next would overrun --seconds by more than
half a pass, and at least MIN_PASSES of them.  Each pass pays a fresh
process, as every CLI run does.  With --trace 0 it then starts setup-only
children until MIN_SETUPS children have measured setup.

--trace 0 reports the end-to-end metrics: setup_s (child start until
cavityspdc.cli is imported and the first config loaded; median over all
children), wall_s (one pass over the ops: the sum of each op's median time
over the passes), peak_rss_mb (median of the pass children's high-water
RSS) and ops_ok_frac (1 - ops_failed_frac, over every op of every pass).

--trace 1 alternates untraced and traced passes, each in a fresh child,
within the same budget (at least one of each), and reports the median of
the traced children's per-layer metrics; trace.overhead_s is the median
traced pass time minus the median untraced one.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Everything written goes under .bench_work/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

MIN_SETUPS = 3        # setup_s samples per end-to-end run
MIN_PASSES = 2        # pass children per end-to-end run, however long they take
CHILD_TIMEOUT = 120   # seconds; a child is then killed and its ops fail

def machine_record():
    """nproc, CPU model, cache sizes and library versions, stored with every result."""
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            record["caches"][f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return record


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Only --threads sets parallelism; no library spawns its own pool.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("CAVITYSPDC_THREADS", None)
    return env


def spawn(mode, plan_path, out_dir, dump=None):
    """Run one child to completion; returns its JSON record or an error record."""
    cmd = [sys.executable, str(HERE / "child.py"), "--plan", str(plan_path),
           "--mode", mode, "--out", str(out_dir)]
    if dump:
        cmd += ["--dump", str(dump)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(start)], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"crashed": f"{mode} child killed after {CHILD_TIMEOUT} s",
                "elapsed": time.monotonic() - start}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-600:]}",
                "elapsed": time.monotonic() - start}
    record = json.loads(lines[-1])
    record["elapsed"] = time.monotonic() - start
    return record


def summarize(records, names, trace):
    """(metrics, sample counts, attempted, failed, notes) from child records."""
    work = [r for r in records if r["mode"] != "setup"]
    passes = [p for r in work for p in r.get("passes", ())]
    crashed = [r for r in records if "crashed" in r]
    planned = records[-1]["planned"]
    attempted = planned * (len(passes) + sum("crashed" in r for r in work))
    failed = sum(len(p["failed"]) for p in passes) + planned * sum("crashed" in r for r in work)
    notes = [r["crashed"] for r in crashed]
    notes += [f"{name}: {msg.strip().splitlines()[-1]}"
              for p in passes for name, msg in p["errors"].items()]
    metrics, samples = {}, {}
    untraced = [p for r in work if r["mode"] == "run" for p in r.get("passes", ())]
    if not trace:
        setups = [r["setup_s"] for r in records if "setup_s" in r]
        metrics["setup_s"] = statistics.median(setups) if setups else None
        samples["setup_s"] = len(setups)
        op_names = untraced[0]["op_s"] if untraced else ()
        metrics["wall_s"] = sum(
            statistics.median(p["op_s"][name] for p in untraced) for name in op_names
        ) if untraced else None
        samples["wall_s"] = len(untraced)
        rss = [r["peak_rss_mb"] for r in work if "peak_rss_mb" in r]
        metrics["peak_rss_mb"] = statistics.median(rss) if rss else None
        samples["peak_rss_mb"] = len(rss)
        metrics["ops_ok_frac"] = 1.0 - failed / attempted if attempted else None
        samples["ops_ok_frac"] = attempted
        return metrics, samples, attempted, failed, notes
    traced = [r for r in work if r["mode"] == "trace" and "layers" in r]
    for key in names:
        if key != "trace.overhead_s":
            values = [r["layers"][key] for r in traced]
            metrics[key] = statistics.median(values) if values else None
            samples[key] = len(values)
    if traced and untraced:
        metrics["trace.overhead_s"] = (
            statistics.median(r["passes"][0]["wall_s"] for r in traced)
            - statistics.median(p["wall_s"] for p in untraced))
    else:
        metrics["trace.overhead_s"] = None
    samples["trace.overhead_s"] = len(untraced)
    return metrics, samples, attempted, failed, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description="cavityspdc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cavityspdc" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        sys.stderr.write(f"error: no cavityspdc source tree (src/, configs/) under {ROOT}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        parser.error(f"--workload must be one of {', '.join(why)}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    os.chdir(ROOT)
    plan = workloads.make_plan(args.workload, args.seed, run_dir)
    plan_path = run_dir / "plan.json"
    machine = machine_record()
    planned = len(plan["ops"])
    counter = itertools.count()

    def child(mode):
        k = next(counter)
        dump = run_dir / f"spans-{k}.json" if mode == "trace" else None
        record = spawn(mode, plan_path, run_dir / f"out-{k}", dump)
        record.update(mode=mode, planned=planned)
        return record

    deadline = time.monotonic() + args.seconds
    records = []
    step, min_steps = (("run", "trace"), 1) if args.trace else (("run",), MIN_PASSES)
    for steps in itertools.count(1):
        begin = time.monotonic()
        records += [child(mode) for mode in step]
        now = time.monotonic()
        # Stop when the next step would overrun by more than half its length,
        # so that on average a run measures for --seconds.
        if steps >= min_steps and now + (now - begin) / 2 > deadline:
            break
    if not args.trace:
        records += [child("setup")
                    for _ in range(MIN_SETUPS - sum("setup_s" in r for r in records))]
    metrics, samples, attempted, failed, notes = summarize(records, units, args.trace)

    (run_dir / "result.json").write_text(json.dumps(
        {"args": vars(args), "machine": machine, "plan": plan, "metrics": metrics,
         "samples": samples, "children": records}, indent=1))
    print(f"# cavityspdc benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {why[args.workload]}")
    print(f"# machine: {json.dumps(machine)}")
    print(f"# closed loop, one client, ops back to back; {planned} ops per pass, "
          f"{samples.get('wall_s', samples.get('trace.overhead_s'))} untraced passes, "
          f"{sum(r['mode'] == 'setup' for r in records)} setup-only children")
    for note in notes:
        print(f"# FAILED {note}")
    print(f"{'metric':28s} {'value':>16s}  {'unit':15s} samples")
    for key, unit in units.items():
        value = metrics[key]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{key:28s} {shown:>16s}  {unit:15s} {samples[key]}")
    if not args.trace:
        ok = metrics["ops_ok_frac"]
        shown = "n/a" if ok is None else f"{1.0 - ok:.6g}"
        print(f"{'ops_failed_frac':28s} {shown:>16s}  {'fraction':15s} {attempted} ops")
    else:
        traced = [r for r in records if r["mode"] == "trace" and "shares" in r]
        if traced:
            shares = traced[-1]["shares"]
            print("# self-time shares of the last traced child: "
                  + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
            top = max(shares, key=shares.get)
            print(f"# target layers take the largest share: {'yes' if top == 'target' else 'no'}")

    if any(v is None for v in metrics.values()):
        sys.stderr.write("error: no child produced a measurement\n")
        return 1
    correct = failed == 0 and not any("crashed" in r for r in records)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
