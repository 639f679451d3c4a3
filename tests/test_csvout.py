import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactmoc import csvout, lagrangian, moc
from contactmoc.csvout import write_csv
from tests import csv_reference
from tests.conftest import solved

SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
           1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e22, -123.456]


def reference_bytes(tmp_path, header, columns):
    """The bytes of the per-row '%.17g' writer on the same columns."""
    path = tmp_path / "reference.csv"
    csv_reference.write_csv(path, header, columns)
    return path.read_bytes()


def kernel_strings(values):
    """The bytes the kernel writes for each value, zero bytes dropped."""
    return [cell.tobytes().replace(b"\0", b"") for cell in csvout._float_cells(values)]


def assert_kernel_exact(values):
    values = np.asarray(values, dtype=float)
    assert kernel_strings(values) == [b"%.17g" % v for v in values.tolist()]


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
    assert path.read_bytes() == reference_bytes(tmp_path, header, columns)


def test_write_csv_empty_columns_write_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ("epsilon", "iters"), ([], []))
    assert path.read_bytes() == b"epsilon,iters\n"


def test_write_csv_text_columns_keep_their_str_bytes(tmp_path):
    """Bools, extreme ints, unsigned ints, non-ASCII and object columns
    are written as '%s' writes them."""
    columns = [np.array([True, False, True]), np.array([-2**63, 0, 2**63 - 1]),
               np.array([0, 7, 2**64 - 1], dtype=np.uint64), ["a", "é", "bc"],
               np.array([None, 1.5, "x"], dtype=object), [0.5, -0.0, 1e300]]
    header = ("b", "i", "u", "s", "o", "f")
    path = tmp_path / "text.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == reference_bytes(tmp_path, header, columns)


@pytest.mark.parametrize("rows_from_block", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 2)])
def test_write_csv_block_edges(tmp_path, rng, rows_from_block):
    """0, 1, B-1, B, B+1 and 3B+2 rows, B the block size."""
    blocks, extra = rows_from_block
    n = blocks * csvout._BLOCK_ROWS + extra
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[::7] = np.resize(SPECIAL, floats[::7].size)
    coords = np.broadcast_to(rng.standard_normal(n // 3 + 1)[:, None], (n // 3 + 1, 3)).ravel()[:n]
    columns = [coords, floats, np.arange(n) - 5, np.full(n, "b")]
    header = ("x", "f", "i", "layer")
    path = tmp_path / "out.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == reference_bytes(tmp_path, header, columns)


def test_coordinate_strings_keep_each_value_own_bytes(tmp_path):
    """-0.0, 0.0 and NaN broadcast over a lattice row are written as the
    floats are: no two of them are merged."""
    xi = np.array([-0.0, 0.0, float("nan"), -0.0, float("inf"), 5e-324, 0.1, 0.0])
    assert kernel_strings(xi) == [format(v, ".17g").encode() for v in xi]
    coords = np.broadcast_to(xi[:, None], (xi.size, 3))
    values = np.arange(3.0 * xi.size).reshape(xi.size, 3)
    path = tmp_path / "grid.csv"
    write_csv(path, ("xi", "value"), (coords.ravel(), values.ravel()))
    expected = ["xi,value"] + [f"{format(a, '.17g')},{format(b, '.17g')}"
                               for a, b in zip(coords.ravel(), values.ravel())]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


# The kernel against '%.17g' itself, in under 1 s: 100 hypothesis lists of
# up to 50 floats, 50,000 raw 64-bit patterns, 10^k, its two neighbours and
# -10^k for k in [-20, 22], and 20,000 exact ties m/4 with their negatives.

@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=50))
def test_kernel_matches_percent_g_on_any_float(values):
    assert_kernel_exact(values)


def test_kernel_matches_percent_g_on_raw_bit_patterns():
    bits = np.random.default_rng(17).integers(0, 2**64, 50_000, dtype=np.uint64, endpoint=False)
    assert_kernel_exact(bits.view(np.float64))


def test_kernel_matches_percent_g_next_to_powers_of_ten():
    """10^k and one ulp either side, k in [-20, 22]: the ends of the digit
    range, where E moves and N = 10^17 rolls over."""
    powers = np.array([10.0 ** k for k in range(-20, 23)])
    assert_kernel_exact(np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                                        -powers]))


def test_kernel_matches_percent_g_on_exact_ties():
    """m/4, m odd in [4e15, 9e15): 16 integer digits and a fraction .25 or
    .75, so the 17th digit is an exact tie that '%.17g' rounds to even."""
    m = 2 * np.random.default_rng(18).integers(2 * 10**15, 45 * 10**14, 20_000) + 1
    ties = m / 4.0
    assert np.all(ties * 4.0 == m)
    assert_kernel_exact(np.concatenate([ties, -ties]))


def test_no_double_lies_next_to_a_power_of_ten():
    """The kernel reads V within 1e-6 of 10^16 or 10^17 as the power
    itself.  That holds because no double but 10^0..10^22 lies within
    2.6e-19 relative of a power of ten over the kernel's exponent range, in
    exact integer arithmetic."""
    for E in range(-csvout._E_MAX, csvout._E_MAX + 1):
        tn, td = (10**E, 1) if E >= 0 else (1, 10**-E)
        nearest = tn / td
        for x in (math.nextafter(nearest, 0), nearest, math.nextafter(nearest, math.inf)):
            xn, xd = x.as_integer_ratio()
            gap = abs(xn * td - tn * xd)
            assert gap == 0 or gap * 10**20 >= 26 * xd * tn, (E, x)


def test_power_table_is_a_double_double():
    """hi + lo is within 2^-106 of 10^k relative, and hi_hi + hi_lo = hi."""
    hi, hi_hi, hi_lo, lo = csvout._tables()[0]
    assert np.array_equal(hi_hi + hi_lo, hi)
    for i, k in enumerate(range(16 - csvout._E_MAX, 17 + csvout._E_MAX)):
        (hn, hd), (ln, ld) = hi[i].as_integer_ratio(), lo[i].as_integer_ratio()
        tn, td = (10**k, 1) if k >= 0 else (1, 10**-k)
        gap = abs((hn * ld + ln * hd) * td - tn * hd * ld)
        assert gap * 2**106 <= tn * hd * ld, k


@pytest.mark.parametrize("neta", [35, (35, 24)])
def test_nozzle_writers_match_per_value_formatting(tmp_path, neta):
    """fields.csv and grid.csv on a solved 140x35 lattice, and at unequal
    layers, hold the bytes of formatting every float of every row."""
    cfg, geom, profile, prob, grid, history = solved(1e-3, 140, neta)
    efield = lagrangian.reconstruct(moc.grid_states(grid, prob), geom, prob.domain)

    lagrangian.write_field_csv(efield, tmp_path / "fields.csv")
    header = ("x", "y", "u", "v", "p", "rho", "layer")
    rows = [[] for _ in header]
    for tag, _, cols in efield.domain.layers:
        y = efield.y[:, cols]
        values = [np.broadcast_to(efield.domain.xi[:, None], y.shape), y]
        values += [getattr(efield.state, n)[:, cols] for n in header[2:-1]]
        values += [np.full(y.shape, tag)]
        for col, v in zip(rows, values):
            col.extend(np.ravel(v).tolist())
    assert (tmp_path / "fields.csv").read_bytes() == reference_bytes(tmp_path, header, rows)

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
    assert (tmp_path / "grid.csv").read_bytes() == reference_bytes(tmp_path, header, rows)


def test_field_writer_memory_stays_small(tmp_path):
    """The writer works block by block: writing fields.csv of the solved
    140x35 lattice, the kernel's tables included if this is their first
    use, peaks below 2 MB of Python-tracked memory."""
    cfg, geom, profile, prob, grid, history = solved(1e-3, 140, 35)
    efield = lagrangian.reconstruct(moc.grid_states(grid, prob), geom, prob.domain)
    tracemalloc.start()
    try:
        lagrangian.write_field_csv(efield, tmp_path / "fields.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
