"""CSV output shared by every writer.

Floats carry 17 significant digits, enough to round-trip every double, so
reruns with the same inputs write byte-identical files.
"""

from __future__ import annotations

import numpy as np


def write_csv(path, header, columns):
    """Write equal-length ``columns`` under the column names in ``header``.

    A float column is written with '%.17g' (the bytes of
    ``format(x, '.17g')``), any other column (int, str) with '%s'; each row
    is formatted by one string operation.
    """
    cols = [np.asarray(c) for c in columns]
    fmt = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(fmt.__mod__, zip(*(c.tolist() for c in cols))))
