#!/usr/bin/env python3
"""One sha256 over the outputs of a fixed set of runs.

A change that must keep every output byte-identical prints the same digest
before and after.  The runs, in the order they are hashed:

* ``solve`` at 140x35 for eps = 0, 1e-3 and 1e-2: its four CSVs and its
  standard output;
* ``sweep`` over four eps at 201x51: ``sweep.csv`` and its standard output;
* ``blowup`` with delta = 0.06 at ny = 400: ``gradients.csv`` and its
  standard output;
* ``oracle.upwind_march`` at 201x51 on the eps = 1e-3 fixture: the bytes of
  its z_minus and z_plus grids.

Every ``out=`` entry of a summary line is masked, since it names a
temporary directory.  Takes no options:

    python scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import os
import re
import tempfile

from contactmoc import cli, fixtures, oracle

_OUT = re.compile(r"out=\S+")


def _cli(digest, argv, files):
    """Run the CLI in process; hash its masked standard output, then the
    named files in order."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise SystemExit(f"{' '.join(argv)} exited {code}: {text.getvalue()}")
    digest.update(_OUT.sub("out=", text.getvalue()).encode())
    for path in files:
        with open(path, "rb") as fh:
            digest.update(fh.read())


def main():
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for eps in (0.0, 1e-3, 1e-2):
            path = os.path.join(tmp, f"solve_{eps!r}.cfg")
            out = os.path.join(tmp, f"solve_{eps!r}")
            fixtures.write_fixture(path, eps, nxi=140, neta=35)
            _cli(digest, ["solve", "--config", path, "--out", out],
                 [os.path.join(out, name)
                  for name in ("fields.csv", "contact.csv", "iterations.csv", "grid.csv")])

        path = os.path.join(tmp, "sweep.cfg")
        out = os.path.join(tmp, "sweep")
        fixtures.write_fixture(path, 1e-3)
        _cli(digest, ["sweep", "--config", path, "--out", out, "--grid", "201x51",
                      "--eps", "1e-4,1e-3,3e-3,1e-2"], [os.path.join(out, "sweep.csv")])

        path = os.path.join(tmp, "blowup.cfg")
        out = os.path.join(tmp, "blowup")
        fixtures.write_blowup_fixture(path, delta=0.06, ny=400)
        _cli(digest, ["blowup", "--config", path, "--out", out],
             [os.path.join(out, "gradients.csv")])

    inputs = fixtures.perturbed_inputs(1e-3, nxi=201, neta=51)
    prob, _ = cli.build_pipeline(*inputs)
    grid = oracle.upwind_march(prob)
    digest.update(grid.zm.tobytes())
    digest.update(grid.zp.tobytes())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
