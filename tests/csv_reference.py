"""Test helper: the CSV writing that ``csvout`` replaced, kept as a reference.

``csvout.write_csv`` formats the floats of a block of rows in one vectorised
kernel call.  The writer below is the row-at-a-time ``write_csv`` as it
stood before blocks: one '%.17g' row string per row, each float formatted
by CPython itself.
"""

import numpy as np


def write_csv(path, header, columns):
    """One '%.17g' row string per row, every column converted at once."""
    cols = [np.asarray(c) for c in columns]
    fmt = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(fmt.__mod__, zip(*(c.tolist() for c in cols))))
