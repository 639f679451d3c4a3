import numpy as np

from contactmoc.csvout import write_csv

SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
           1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e22, -123.456]


def per_value_bytes(header, columns, float_cols):
    """The line building every writer used before write_csv."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(format(v, ".17g") if i in float_cols else f"{v}"
                              for i, v in enumerate(row)))
    return ("\n".join(lines) + "\n").encode()


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
