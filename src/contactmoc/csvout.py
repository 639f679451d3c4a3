"""CSV output shared by every writer.

Floats carry 17 significant digits, enough to round-trip every double, so
reruns with the same inputs write byte-identical files.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

# Rows per block: each block of every column is converted to Python objects
# and formatted by one string operation.
_BLOCK_ROWS = 1024


def float_strings(values):
    """The '%.17g' string of each float in the 1-D ``values``, as an object
    array.  A writer formats a lattice coordinate once here and broadcasts
    the strings over the nodes that repeat it; ``write_csv`` writes them as
    they are."""
    return np.array(["%.17g" % v for v in np.asarray(values, dtype=float).tolist()], dtype=object)


def write_csv(path, header, columns):
    """Write equal-length ``columns`` under the column names in ``header``.

    A float column is written with '%.17g' (the bytes of
    ``format(x, '.17g')``), any other column (int, str) with '%s'.  The rows
    are written in blocks of ``_BLOCK_ROWS``: one '%' over the row format
    repeated for the block, on the block's values row by row.
    """
    cols = [np.asarray(c) for c in columns]
    fmt = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    rows = min((len(c) for c in cols), default=0)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, rows)
            block = zip(*(c[start:stop].tolist() for c in cols))
            fh.write((fmt * (stop - start)) % tuple(chain.from_iterable(block)))
