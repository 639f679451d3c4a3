"""Test helper: the CSV writing that ``csvout`` replaced, kept as a reference.

``csvout.write_csv`` formats its rows in blocks, and the nozzle writers
format each lattice coordinate once (``csvout.float_strings``).  The first
function below formats every value of every row on its own, and the writer
below it is the row-at-a-time ``write_csv`` as it stood before blocks.
Given the coordinates as floats, both write the bytes of the library.
"""

import numpy as np


def per_value_bytes(header, columns, float_cols):
    """The line building every writer used before write_csv."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(format(v, ".17g") if i in float_cols else f"{v}"
                              for i, v in enumerate(row)))
    return ("\n".join(lines) + "\n").encode()


def write_csv(path, header, columns):
    """One '%.17g' row string per row, every column converted at once."""
    cols = [np.asarray(c) for c in columns]
    fmt = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(fmt.__mod__, zip(*(c.tolist() for c in cols))))


def float_strings(values):
    """The coordinates as floats, for ``write_csv`` to format per value."""
    return np.asarray(values, dtype=float)
