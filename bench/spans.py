"""Span tracer for the traced benchmark pass.

A Tracer wraps public functions of the cavityspdc modules.  Each wrapper
records one span per call: (id, name, layer, start, end, parent id, points),
where layer is the module that defines the function and points is a work
count taken from the call (frequency samples, bytes, ...).  Names reach a
module through `from .x import name`, so a wrapper is placed on every
cavityspdc module attribute bound to the original function.

A layer's self time is the time its spans cover minus the part of that time
covered by their child spans.  Run this file to self-test that arithmetic:

    python3 bench/spans.py
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time

import numpy as np


def _size(*arrays):
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


# (module, function) -> work count from (args, result).  Functions not listed
# here are wrapped with a zero count; they only contribute time.
_POINTS = {
    ("dispersion", "refractive_index"): lambda a, r: _size(a[1]),
    ("cavity", "single_pass_phase"): lambda a, r: _size(a[1]),
    ("spectral", "jsa_bare"): lambda a, r: _size(a[3], a[4]),
    ("doubly_resonant", "phase_balancing"): lambda a, r: _size(a[0].theta_p),
    ("temporal", "jsa_singly_resonant_rotated"): lambda a, r: int(r.values.size),
    # complex128 transform buffer implied by the padded output shape
    ("temporal", "joint_temporal_intensity"): lambda a, r: 16 * int(r.values.size),
    ("brightness", "brightness_from_cavity"): lambda a, r: 1,
    ("gridfile", "write_grid"): lambda a, r: os.path.getsize(a[1]),
    ("gridfile", "write_columns"): lambda a, r: os.path.getsize(a[0]),
    ("gridfile", "write_text"): lambda a, r: os.path.getsize(a[0]),
    ("gridfile", "read_grid"): lambda a, r: os.path.getsize(a[0]),
}

# Public functions wrapped in the traced pass, by defining module.
TRACED = {
    "dispersion": ("refractive_index", "wavevector", "group_slowness", "phasematching_angle"),
    "cavity": (
        "airy", "single_pass_phase", "round_trip_phase_mismatch", "mode_width",
        "free_spectral_range", "solve_resonance_phases",
    ),
    "spectral": (
        "jsa_bare", "phasematching", "pump_envelope", "sr_amplitude_factor",
        "jsa_singly_resonant", "jsi_singly_resonant", "marginal_spectrum",
    ),
    "doubly_resonant": ("jsi_doubly_resonant", "phase_balancing"),
    "temporal": (
        "jsa_singly_resonant_rotated", "joint_temporal_intensity",
        "time_difference_marginal", "extract_peaks", "correlation_time",
    ),
    "brightness": (
        "brightness_from_cavity", "brightness_vs_sigma_sweep",
        "plateau_brightness_vs_r2", "brightness_vs_r1p_sweep",
    ),
    "design": ("design_source", "designed_cavity", "spectral_check", "report_design"),
    "gridfile": ("write_grid", "read_grid", "write_columns", "write_text"),
    "config": ("load_config",),
    "cli": ("main",),
}

# RunConfig builder methods count as the config layer.
_CONFIG_METHODS = (
    "crystal", "cavity", "pump", "filters", "grid", "design_target",
    "band_centers", "normalized_text",
)


class Tracer:
    """Records spans in memory; `install` wraps, `uninstall` restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [id, name, layer, start, end, parent, points]
        self._local = threading.local()
        self._patched = []  # (owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, layer):
        """Start a span; returns its record, to be passed to `close`."""
        stack = self._stack()
        record = [len(self.spans), name, layer, self.clock(), None,
                  stack[-1][0] if stack else None, 0]
        self.spans.append(record)
        stack.append(record)
        return record

    def close(self, record, points=0):
        record[4] = self.clock()
        record[6] = points
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name, layer):
        """A span around a block; set record[6] inside to give it points."""
        record = self.open(name, layer)
        try:
            yield record
        finally:
            self.close(record, record[6])

    def wrap(self, fn, name, layer):
        count = _POINTS.get((layer, name))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer.open(name, layer)
            done, result = False, None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                tracer.close(record, count(args, result) if done and count else 0)

        return wrapper

    def install(self, package="cavityspdc"):
        """Wrap every traced function on every package module bound to it."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        for layer, names in TRACED.items():
            home = modules[f"{package}.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(original, name, layer)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        run_config = modules[f"{package}.config"].RunConfig
        for name in _CONFIG_METHODS:
            original = run_config.__dict__[name]
            self._patched.append((run_config, name, original))
            setattr(run_config, name, self.wrap(original, name, "config"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path):
        """Write the spans as JSON (one list per span) when the run ends."""
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "layer", "start", "end", "parent", "points"],
                       "spans": self.spans}, fh)


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    Children are clipped to the parent interval; overlapping children (from
    worker threads) are counted once.
    """
    children = {}
    for span in spans:
        if span[5] is not None:
            children.setdefault(span[5], []).append((span[3], span[4]))
    out = {}
    for span in spans:
        start, end = span[3], span[4]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(span[0], ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span[0]] = (end - start) - covered
    return out


def layer_self_times(spans):
    """Self time summed per layer."""
    out = {}
    for span_id, seconds in self_times(spans).items():
        layer = spans[span_id][2]
        out[layer] = out.get(layer, 0.0) + seconds
    return out


def time_under(spans, root_names):
    """Self time of all spans at or below spans named in root_names, by layer."""
    selfs = self_times(spans)
    by_id = {span[0]: span for span in spans}
    out = {}
    for span in spans:
        node = span
        while node is not None and node[1] not in root_names:
            node = by_id.get(node[5])
        if node is not None:
            out[span[2]] = out.get(span[2], 0.0) + selfs[span[0]]
    return out


def inclusive(spans, names):
    """Summed duration and points of spans named in names, outermost only."""
    by_id = {span[0]: span for span in spans}
    total, points = 0.0, 0
    for span in spans:
        if span[1] not in names:
            continue
        parent, nested = by_id.get(span[5]), False
        while parent is not None:
            if parent[1] in names:
                nested = True
                break
            parent = by_id.get(parent[5])
        if not nested:
            total += span[4] - span[3]
            points += span[6]
    return total, points


def _selftest():
    """Nested spans on a fake clock: self times must match hand arithmetic."""
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("main", "cli"):            # 0 .. 10
        with tracer.span("jsa_bare", "spectral"):      # 1 .. 9
            with tracer.span("refractive_index", "dispersion"):  # 2 .. 4
                pass
            with tracer.span("refractive_index", "dispersion"):  # 5 .. 8
                pass
    selfs = self_times(tracer.spans)
    assert selfs == {0: 2.0, 1: 3.0, 2: 2.0, 3: 3.0}, selfs
    assert layer_self_times(tracer.spans) == {"cli": 2.0, "spectral": 3.0, "dispersion": 5.0}
    assert inclusive(tracer.spans, {"jsa_bare", "refractive_index"})[0] == 8.0
    assert time_under(tracer.spans, {"jsa_bare"}) == {"spectral": 3.0, "dispersion": 5.0}
    # Overlapping children (two worker threads) are covered once.
    overlap = [[0, "p", "a", 0.0, 10.0, None, 0], [1, "c", "b", 1.0, 6.0, 0, 0],
               [2, "c", "b", 4.0, 8.0, 0, 0]]
    assert self_times(overlap)[0] == 3.0
    # A wrapped function records its points.
    tracer = Tracer()
    wrapped = tracer.wrap(lambda path: None, "write_text", "gridfile")
    wrapped(__file__)
    assert tracer.spans[0][6] == os.path.getsize(__file__)
    wrapped = tracer.wrap(lambda c, w, p: w, "refractive_index", "dispersion")
    wrapped(None, np.zeros((3, 4)), "ordinary")
    assert tracer.spans[1][6] == 12
    assert inclusive(tracer.spans, {"refractive_index"})[1] == 12
    return True


if __name__ == "__main__":
    _selftest()
    print("spans self-test passed")
