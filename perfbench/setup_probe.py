"""Set-up cost of one CLI invocation, measured in a fresh interpreter.

Times ``import contactmoc.cli`` and the loading of the workload's config, the
two things every CLI invocation pays before it solves anything, and prints
them as one JSON line with the file the package was imported from.

    python3 perfbench/setup_probe.py {solve|oracle|blowup} CONFIG
"""

import sys
import time

t0 = time.perf_counter()
import contactmoc.cli as cli  # noqa: E402

t1 = time.perf_counter()
if sys.argv[1] == "blowup":
    cli._load_blowup(sys.argv[2])
else:
    cli.config.load_config(sys.argv[2])
t2 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "file": cli.__file__}))
