"""Output checks for benchmark ops.

Shipped configs are compared against values recorded at the seed commit
(reference.json) with relative tolerance RTOL, never by byte hashes, so a
refactor exact to ~1e-12 still passes.  Seeded inputs have no recorded
values; their outputs are checked against identities that hold for any
input of the workload.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

RTOL = 1e-9              # recorded values of shipped configs
SYMMETRY_RTOL = 1e-6     # signal <-> idler transpose of a degenerate JSI, vs its max
COMB_RTOL = 2e-3         # comb spacing vs group round trip (measured 3e-5 .. 5e-4)
_C = 299792458.0
_SMALL = 256             # arrays up to this size are recorded value by value
# Known defect, not gated: round_trip_time_s uses the phase index, while the
# comb sits at the group round trip (check_comb_spacing tests the comb).
_NOT_RECORDED = {"round_trip_time_s"}


class CheckFailed(Exception):
    pass


def _weights(n):
    return np.cos(0.7 * np.arange(n))


def load_artifact(path):
    """Numbers of one artifact: a dict for key = value files, else an array."""
    from cavityspdc.gridfile import read_grid

    path = Path(path)
    if path.suffix == ".grid":
        grid, _ = read_grid(path)
        return {"omega_s": grid.omega_s_axis, "omega_i": grid.omega_i_axis,
                "values": grid.values}
    if path.suffix == ".kv":
        out = {}
        for line in path.read_text().splitlines():
            if line.startswith("#") or "=" not in line:
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = float(value)
        return out
    if path.suffix == ".tsv":
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        table = np.array([[float(v) for v in ln.split("\t")] for ln in lines[1:]])
        return dict(zip(lines[0].split("\t"), table.T))
    # Column files: each column on its own, so each keeps its own scale.
    columns = np.loadtxt(path, comments="#", ndmin=2)
    return {f"column{k}": col for k, col in enumerate(columns.T)}


def digest(value):
    """Recorded form of one array or scalar: all values if small, else moments."""
    arr = np.asarray(value, dtype=float)
    if arr.size <= _SMALL:
        return {"shape": list(arr.shape), "values": arr.ravel().tolist()}
    flat = arr.ravel()
    return {
        "shape": list(arr.shape),
        "sum": float(flat.sum()),
        "abs_sum": float(np.abs(flat).sum()),
        "wsum": float(flat @ _weights(flat.size)),
        "min": float(flat.min()),
        "max": float(flat.max()),
    }


def compare(name, value, ref, rtol=RTOL):
    """Raise CheckFailed when value disagrees with its recorded digest."""
    arr = np.asarray(value, dtype=float)
    if list(arr.shape) != ref["shape"]:
        raise CheckFailed(f"{name}: shape {list(arr.shape)} != recorded {ref['shape']}")
    if "values" in ref:
        expect = np.array(ref["values"]).reshape(arr.shape)
        bad = np.abs(arr - expect) > rtol * np.abs(expect)
        if np.any(bad):
            k = int(np.flatnonzero(bad)[0])
            raise CheckFailed(f"{name}: value {float(arr.ravel()[k])!r} != recorded "
                              f"{float(expect.ravel()[k])!r} (rtol {rtol:g})")
        return
    flat = arr.ravel()
    scale = ref["abs_sum"]
    got = {"sum": flat.sum(), "abs_sum": np.abs(flat).sum(),
           "wsum": flat @ _weights(flat.size), "min": flat.min(), "max": flat.max()}
    for key, val in got.items():
        tol = rtol * (scale if key in ("sum", "abs_sum", "wsum")
                      else max(abs(ref["min"]), abs(ref["max"])))
        if abs(val - ref[key]) > tol:
            raise CheckFailed(f"{name}: {key} {float(val)!r} != recorded {ref[key]!r} "
                              f"(rtol {rtol:g})")


def record_outputs(out_dir):
    """Digests of every artifact in an op's output directory."""
    out = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.name == "manifest" or path.suffix == ".txt":
            continue
        out[path.name] = {k: digest(v) for k, v in load_artifact(path).items()
                          if k not in _NOT_RECORDED}
    return out


def check_reference(out_dir, recorded):
    if recorded is None:
        raise CheckFailed("no recorded values for this op")
    for fname, fields in recorded.items():
        path = Path(out_dir) / fname
        if not path.exists():
            raise CheckFailed(f"{fname}: missing output")
        data = load_artifact(path)
        for key, ref in fields.items():
            if key not in data:
                raise CheckFailed(f"{fname}: missing {key}")
            compare(f"{fname}:{key}", data[key], ref)


def _grid_values(out_dir):
    grids = sorted(Path(out_dir).glob("*.grid"))
    if len(grids) != 1:
        raise CheckFailed(f"expected one grid in {out_dir}, found {len(grids)}")
    return load_artifact(grids[0])


def check_symmetric(out_dir):
    """Degenerate source: JSI >= 0, finite, and symmetric under signal <-> idler."""
    grid = _grid_values(out_dir)
    values = grid["values"]
    if not np.all(np.isfinite(values)) or values.min() < 0:
        raise CheckFailed("JSI has negative or non-finite samples")
    if not np.array_equal(grid["omega_s"], grid["omega_i"]):
        raise CheckFailed("degenerate grid axes differ")
    asym = float(np.abs(values - values.T).max() / values.max())
    if asym > SYMMETRY_RTOL:
        raise CheckFailed(f"signal/idler asymmetry {asym:.3e} > {SYMMETRY_RTOL:g}")


def check_marginal_integral(out_dir):
    """The marginal's integral equals the grid's integral."""
    grid = _grid_values(out_dir)
    (marginal,) = sorted(Path(out_dir).glob("marginal_*.dat"))
    cols = load_artifact(marginal)
    total = np.trapezoid(np.trapezoid(grid["values"], grid["omega_s"], axis=1), grid["omega_i"])
    marg = np.trapezoid(cols["column1"], cols["column0"])
    if abs(marg - total) > RTOL * abs(total):
        raise CheckFailed(f"marginal integral {marg!r} != grid integral {total!r}")


def check_comb_spacing(out_dir, config):
    """Comb spacing equals the group round trip 2 (l k'(w0) + (L - l) / c)."""
    from cavityspdc.config import load_config
    from cavityspdc.dispersion import group_slowness

    cfg = load_config(config)
    cavity = cfg.cavity()
    omega_s0, _ = cfg.band_centers()
    l = cavity.crystal.length_l
    kp = group_slowness(cavity.crystal, omega_s0, "ordinary")
    group_rt = 2 * (l * kp + (cavity.length_L - l) / _C)
    summary = load_artifact(Path(out_dir) / "temporal_summary.kv")
    dev = abs(summary["peak_spacing_s"] / group_rt - 1.0)
    if not dev <= COMB_RTOL:
        raise CheckFailed(f"comb spacing {summary['peak_spacing_s']:.6e} s deviates "
                          f"{dev:.2e} from the group round trip {group_rt:.6e} s")
    if summary["peak_count"] < 3:
        raise CheckFailed("fewer than 3 comb peaks")


def check_bnorm_unity(out_dir):
    """B_norm is exactly 1 at (r2 = 0, smallest sigma) and on the plateau r2 = 0 row."""
    table = load_artifact(Path(out_dir) / "brightness_sigma_r2.tsv")
    sigma, r2, bnorm = table["sigma_rad_s"], table["r2"], table["B_norm"]
    row = (r2 == 0.0) & (sigma == sigma.min())
    if row.sum() != 1 or bnorm[row][0] != 1.0:
        raise CheckFailed(f"B_norm at (r2 = 0, smallest sigma) is {bnorm[row]}, not 1")
    plateau = load_artifact(Path(out_dir) / "brightness_plateau_r2.tsv")
    if not np.all(plateau["B_norm"][plateau["r2"] == 0.0] == 1.0):
        raise CheckFailed("plateau B_norm at r2 = 0 is not 1")
    if not (np.all(np.isfinite(bnorm)) and np.all(bnorm > 0)):
        raise CheckFailed("B_norm has non-positive or non-finite entries")


def check_r1p_limits(out_dir):
    """r1p = 1 rows are exactly 0 and r1p = 0 rows exactly 1."""
    table = load_artifact(Path(out_dir) / "brightness_r1p.tsv")
    r1p, bnorm = table["r1p"], table["B_norm"]
    if not (np.all(bnorm[r1p == 1.0] == 0.0) and np.any(r1p == 1.0)):
        raise CheckFailed("B_norm at r1p = 1 is not exactly 0")
    if not np.all(bnorm[r1p == 0.0] == 1.0):
        raise CheckFailed("B_norm at r1p = 0 is not exactly 1")


def check_roundtrip(grids):
    """Text and binary copies of a grid read back bitwise equal."""
    text, binary = grids
    for attr in ("omega_s_axis", "omega_i_axis", "values"):
        if not np.array_equal(getattr(text, attr), getattr(binary, attr)):
            raise CheckFailed(f"text round trip changes {attr}")


def check_op(op, out_dir, reference, extra=None):
    """Run every check an op lists; raises CheckFailed on the first failure."""
    for name in op["checks"]:
        if name == "reference":
            check_reference(out_dir, reference.get(op["name"]))
        elif name == "symmetric":
            check_symmetric(out_dir)
        elif name == "marginal_integral":
            check_marginal_integral(out_dir)
        elif name == "comb_spacing":
            check_comb_spacing(out_dir, op["config"])
        elif name == "bnorm_unity":
            check_bnorm_unity(out_dir)
        elif name == "r1p_limits":
            check_r1p_limits(out_dir)
        elif name == "roundtrip":
            check_roundtrip(extra)
        else:
            raise CheckFailed(f"unknown check {name!r}")
