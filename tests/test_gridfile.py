import warnings
from unittest import mock

import numpy as np
import pytest

import cavityspdc as cs
import cavityspdc._parallel
from cavityspdc import gridfile
from cavityspdc.errors import ConfigError
from cavityspdc.gridfile import config_hash, read_grid, write_columns, write_grid
from cavityspdc.spectral import GridStream

from conftest import traced_peak


@pytest.fixture()
def grid():
    rng = np.random.default_rng(17)
    s = np.linspace(2.0e15, 2.5e15, 37)
    i = np.linspace(2.1e15, 2.4e15, 23)
    return cs.SpectralGrid(s, i, rng.random((23, 37)))


class TestBinaryRoundTrip:
    def test_bitwise_identical(self, grid, tmp_path):
        path = tmp_path / "g.grid"
        write_grid(grid, path, "binary", {"config_sha256": "abc"})
        back, meta = read_grid(path)
        assert back.values.tobytes() == grid.values.tobytes()
        assert back.omega_s_axis.tobytes() == grid.omega_s_axis.tobytes()
        assert back.omega_i_axis.tobytes() == grid.omega_i_axis.tobytes()
        assert meta["config_sha256"] == "abc"

    def test_rewrite_is_deterministic(self, grid, tmp_path):
        a, b = tmp_path / "a.grid", tmp_path / "b.grid"
        write_grid(grid, a, "binary", {"config_sha256": "abc"})
        write_grid(grid, b, "binary", {"config_sha256": "abc"})
        assert a.read_bytes() == b.read_bytes()

    def test_dimension_mismatch_detected(self, grid, tmp_path):
        path = tmp_path / "g.grid"
        write_grid(grid, path, "binary")
        blob = path.read_bytes()
        # corrupt the int64 dimension block right after the header
        k = blob.index(b"#end\n") + 5
        bad = blob[:k] + (99).to_bytes(8, "little") + blob[k + 8 :]
        path.write_bytes(bad)
        with pytest.raises(ConfigError):
            read_grid(path)

    @pytest.mark.parametrize("cut", [8, 8 * 37, 1])
    def test_short_body_detected(self, grid, tmp_path, cut):
        path = tmp_path / "g.grid"
        write_grid(grid, path, "binary")
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ConfigError, match="the header gives 23 x 37"):
            read_grid(path)


class TestTextRoundTrip:
    @pytest.mark.parametrize("drop", [1, 23])
    def test_value_count_mismatch_detected(self, grid, tmp_path, drop):
        path = tmp_path / "g.txt"
        write_grid(grid, path, "text")
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-drop]))
        with pytest.raises(ConfigError):
            read_grid(path)

    def test_values_within_one_ulp(self, grid, tmp_path):
        path = tmp_path / "g.txt"
        write_grid(grid, path, "text")
        back, _ = read_grid(path)
        assert np.array_equal(back.values, grid.values)  # %.17g round-trips float64

    def test_matrix_layout(self, grid, tmp_path):
        # the body is the binary body's matrix: one idler row per line, axes
        # only in the header; the reader takes every field of it
        path = tmp_path / "g.txt"
        write_grid(grid, path, "text")
        lines = path.read_text().splitlines()
        body = lines[lines.index("#end") + 1 :]
        assert len(body) == grid.omega_i_axis.size
        assert all(len(line.split()) == grid.omega_s_axis.size for line in body)
        assert np.array_equal([[float(v) for v in line.split()] for line in body], grid.values)
        assert np.array_equal(read_grid(path)[0].values, grid.values)

    @pytest.mark.parametrize("edit, body", [
        ("missing_row", "22 x 37"),
        ("ragged_row", "ragged rows"),
        ("header_only", "0 x 0"),
    ])
    def test_body_shape_mismatch_names_both_shapes(self, grid, tmp_path, edit, body):
        path = tmp_path / "g.txt"
        write_grid(grid, path, "text")
        lines = path.read_text().splitlines(keepends=True)
        end = lines.index("#end\n") + 1
        if edit == "missing_row":
            lines.pop(end + 5)
        elif edit == "ragged_row":
            lines[end + 5] = lines[end + 5].rsplit(" ", 1)[0] + "\n"
        else:
            del lines[end:]
        path.write_text("".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=body) as info:
                read_grid(path)
        assert "the header gives 23 x 37" in str(info.value)


@pytest.mark.parametrize("fmt", ["binary", "text"])
@pytest.mark.parametrize("key, value", [
    ("omega_i_count", None), ("omega_s_count", "four"), ("omega_s_min_rad_s", "nan"),
    # a count below 2, or bounds that give no increasing axis
    ("omega_s_count", "1"), ("omega_i_count", "0"), ("omega_s_count", "-3"),
    ("omega_s_min_rad_s", "2.6e15"), ("omega_i_max_rad_s", "2.1e15"),
], ids=["missing_count", "word_count", "nan_axis", "one_count", "zero_count", "negative_count",
        "reversed_axis", "empty_axis"])
def test_bad_header_number_names_its_key(grid, tmp_path, fmt, key, value):
    path = tmp_path / "g.grid"
    write_grid(grid, path, fmt)
    blob = path.read_bytes()
    head, body = blob.split(b"#end\n", 1)
    lines = [line for line in head.decode().splitlines(keepends=True)
             if not line.startswith(f"# {key} =")]
    if value is not None:
        lines.append(f"# {key} = {value}\n")
    path.write_bytes("".join(lines).encode() + b"#end\n" + body)
    with pytest.raises(ConfigError, match=key):
        read_grid(path)


def test_text_rows_format_each_number_as_its_own_17g(tmp_path):
    # one % format per row writes the bytes of f"{value:.17g}" per number
    rng = np.random.default_rng(11)
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308]
    values = np.concatenate((special, rng.standard_normal(10**5 - len(special))))
    path = tmp_path / "c.dat"
    write_columns(path, (values[::2], values[1::2]), ("a", "b"))
    lines = path.read_text().split("#end\n", 1)[1].splitlines()
    expect = [f"{a:.17g} {b:.17g}" for a, b in values.reshape(-1, 2).tolist()]
    assert len(lines) == len(expect)
    assert [k for k, (got, want) in enumerate(zip(lines, expect)) if got != want] == []


def _percent_17g(rows):
    """The bytes the per-row '%' line writes: each number of a row at "%.17g"."""
    line = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in rows.tolist()).encode()


def test_only_rows_the_kernel_cannot_prove_take_the_fallback(tmp_path):
    # a nan, a subnormal and an exact tie (100000000000000.125 lies halfway
    # between two 17-digit decimals) each send their row, and only it, to
    # the per-row "%.17g" line; the file keeps the bytes of that line alone
    rng = np.random.default_rng(5)
    values = rng.standard_normal((12, 5)) * 10.0 ** rng.integers(-8, 8, (12, 5))
    values[2, 4], values[7, 0], values[8, 3] = np.nan, 5e-324, 100000000000000.125
    values[10] = [0.0, -0.0, 1e-280, 1e280, 1e16]  # 0 and the range's ends are provable
    path = tmp_path / "c.dat"
    with mock.patch.object(gridfile, "_row_17g", wraps=gridfile._row_17g) as fallback:
        write_columns(path, values.T, list("abcde"))
    assert [call.args[0].tobytes() for call in fallback.call_args_list] == [
        values[r].tobytes() for r in (2, 7, 8)]
    assert path.read_bytes().split(b"#end\n", 1)[1] == _percent_17g(values)


def test_text_grid_working_set_is_one_block(tmp_path):
    # a 1024^2 text grid streamed in 32-row blocks: the writer holds one
    # block of _parallel's 2**15 samples at a time, whose 45-byte records,
    # keep-mask, compress index (8 bytes a kept byte, 25 a number here, the
    # most) and numeric temporaries peaked at 350 bytes a sample; the bound
    # allows 400.  A record matrix of the whole grid would take 47 MB alone.
    axis = np.linspace(2.0e15, 2.5e15, 1024)

    def rows():
        rng = np.random.default_rng(3)
        for _ in range(32):
            # 25 bytes a number, the longest "%.17g" of the provable range
            yield -rng.random((32, 1024)) * 10.0 ** rng.uniform(-270, -100, (32, 1024))

    path = tmp_path / "g.txt"
    peak, _ = traced_peak(lambda: write_grid(GridStream(axis, axis, rows()), path, "text"))
    assert path.stat().st_size > 24 * 1024**2
    assert peak <= 400 * cavityspdc._parallel._BLOCK_SAMPLES


def test_complex_grid_rejected(tmp_path):
    grid = cs.SpectralGrid(
        np.linspace(0, 1, 4), np.linspace(0, 1, 4), np.zeros((4, 4), dtype=complex)
    )
    with pytest.raises(ValueError):
        write_grid(grid, tmp_path / "g.grid", "binary")
    assert not (tmp_path / "g.grid").exists()


class TestStreamedWrite:
    # a whole grid is the one-block case of the one writer
    @pytest.mark.parametrize("fmt", ["binary", "text"])
    @pytest.mark.parametrize("cuts", [[], [1], [5, 6, 22], list(range(1, 23)), [0, 0, 23]],
                             ids=["one", "1+22", "uneven", "rows", "empty_blocks"])
    def test_blocks_write_the_bytes_of_the_whole_grid(self, grid, tmp_path, fmt, cuts):
        whole, streamed = tmp_path / "whole.grid", tmp_path / "streamed.grid"
        write_grid(grid, whole, fmt, {"config_sha256": "abc"})
        parts = iter(np.split(grid.values, cuts))
        stream = GridStream(grid.omega_s_axis, grid.omega_i_axis, parts)
        write_grid(stream, streamed, fmt, {"config_sha256": "abc"})
        assert streamed.read_bytes() == whole.read_bytes()

    def test_a_refused_first_block_leaves_no_file(self, grid, tmp_path):
        parts = iter([grid.values[:3].astype(complex), grid.values[3:]])
        stream = GridStream(grid.omega_s_axis, grid.omega_i_axis, parts)
        with pytest.raises(ValueError, match="real values"):
            write_grid(stream, tmp_path / "g.grid")
        assert not (tmp_path / "g.grid").exists()


def test_unknown_format_rejected(grid, tmp_path):
    with pytest.raises(ValueError):
        write_grid(grid, tmp_path / "g.x", "yaml")


def test_config_hash_changes_with_any_value():
    a = config_hash("[pump]\nsigma = 1\n")
    b = config_hash("[pump]\nsigma = 2\n")
    assert a != b and len(a) == 64


def test_write_columns(tmp_path):
    path = tmp_path / "m.dat"
    x = np.linspace(0, 1, 9)
    write_columns(path, (x, x**2), ("omega", "density"), {"quantity": "marginal"})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# quantity")
    assert "# columns = omega density" in lines
    body = lines[lines.index("#end") + 1 :]
    assert len(body) == 9
    assert float(body[3].split()[1]) == pytest.approx(x[3] ** 2)
