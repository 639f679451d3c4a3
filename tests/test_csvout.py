import numpy as np
import pytest

from contactmoc import csvout, lagrangian, moc
from contactmoc.csvout import float_strings, write_csv
from tests.conftest import solved
from tests.csv_reference import per_value_bytes

SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
           1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e22, -123.456]


def test_write_csv_matches_per_value_formatting(tmp_path, rng):
    n = len(SPECIAL)
    floats = np.concatenate([SPECIAL, rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)])
    columns = [
        list(floats),                                 # Python floats
        floats[::-1].copy(),                          # numpy float64 values
        list(range(floats.size)),                     # Python ints
        np.arange(floats.size, dtype=np.int64) - n,   # numpy ints
        ["a" if i % 2 else "b" for i in range(floats.size)],
    ]
    header = ("f", "g", "i", "j", "layer")
    path = tmp_path / "out.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == per_value_bytes(header, columns, float_cols={0, 1})


def test_write_csv_empty_columns_write_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ("epsilon", "iters"), ([], []))
    assert path.read_bytes() == b"epsilon,iters\n"


@pytest.mark.parametrize("rows_from_block", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 2)])
def test_write_csv_block_edges(tmp_path, rng, rows_from_block):
    """0, 1, B-1, B, B+1 and 3B+2 rows, B the block size."""
    blocks, extra = rows_from_block
    n = blocks * csvout._BLOCK_ROWS + extra
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[::7] = np.resize(SPECIAL, floats[::7].size)
    coords = rng.standard_normal(n)
    columns = [float_strings(coords), floats, np.arange(n) - 5, np.full(n, "b")]
    header = ("x", "f", "i", "layer")
    path = tmp_path / "out.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == per_value_bytes(header, [coords] + columns[1:], float_cols={0, 1})


def test_coordinate_strings_keep_each_value_own_bytes(tmp_path):
    """-0.0, 0.0 and NaN written through their strings are written as the
    floats are: no two of them are merged."""
    xi = np.array([-0.0, 0.0, float("nan"), -0.0, float("inf"), 5e-324, 0.1, 0.0])
    assert list(float_strings(xi)) == [format(v, ".17g") for v in xi]
    strings = np.broadcast_to(float_strings(xi)[:, None], (xi.size, 3))
    values = np.arange(3.0 * xi.size).reshape(xi.size, 3)
    path = tmp_path / "grid.csv"
    write_csv(path, ("xi", "value"), (strings.ravel(), values.ravel()))
    expected = np.broadcast_to(xi[:, None], (xi.size, 3)).ravel()
    assert path.read_bytes() == per_value_bytes(("xi", "value"), (expected, values.ravel()),
                                                float_cols={0, 1})


@pytest.mark.parametrize("neta", [35, (35, 24)])
def test_nozzle_writers_match_per_value_formatting(tmp_path, neta):
    """fields.csv and grid.csv on a solved 140x35 lattice, and at unequal
    layers, hold the bytes of formatting every float of every row."""
    cfg, geom, profile, prob, grid, report = solved(1e-3, 140, neta)
    efield = lagrangian.reconstruct(moc.grid_states(grid, prob), geom, prob.domain)

    lagrangian.write_field_csv(efield, tmp_path / "fields.csv")
    header = ("x", "y", "u", "v", "p", "rho", "layer")
    rows = [[] for _ in header]
    for tag, _, cols in efield.domain.layers:
        y = efield.y[:, cols]
        values = [np.broadcast_to(efield.x[:, None], y.shape), y]
        values += [getattr(efield.state, n)[:, cols] for n in header[2:-1]]
        values += [np.full(y.shape, tag)]
        for col, v in zip(rows, values):
            col.extend(np.ravel(v).tolist())
    assert (tmp_path / "fields.csv").read_bytes() == per_value_bytes(header, rows, set(range(6)))

    moc.write_grid_csv(grid, tmp_path / "grid.csv")
    dom = grid.domain
    header = ("xi", "eta", "layer", "z_minus", "z_plus")
    rows = [[] for _ in header]
    for tag, eta, cols in dom.layers:
        shape = (dom.xi.size, eta.size)
        values = (np.broadcast_to(dom.xi[:, None], shape), np.broadcast_to(eta, shape),
                  np.full(shape, tag), grid.zm[:, cols], grid.zp[:, cols])
        for col, v in zip(rows, values):
            col.extend(np.ravel(v).tolist())
    assert (tmp_path / "grid.csv").read_bytes() == per_value_bytes(header, rows, {0, 1, 3, 4})
