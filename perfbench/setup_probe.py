"""Set-up cost of one CLI call, measured in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <argv as JSON>

Imports chms.cli, resolves the RunConfig from the argument list the way
`chms.cli.main` does, and builds the two starting rows with `initialize`.
Then it times the speed probe in this same process (NumPy is loaded by
now, and the probe follows within milliseconds), and prints the three
phase durations and the probe as one JSON line.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import chms.cli as cli  # noqa: E402

t1 = time.perf_counter()
import json  # noqa: E402

args = cli.build_parser().parse_args(json.loads(sys.argv[2]))
t2 = time.perf_counter()
cfg = cli._resolve_config(args)
t3 = time.perf_counter()
cli.initialize(cfg.u0(), cfg.grid())
t4 = time.perf_counter()

from speed import probe_s  # noqa: E402

print(
    json.dumps(
        {
            "import_s": t1 - t0,
            "config_s": t3 - t2,
            "initialize_s": t4 - t3,
            "setup_s": t4 - t0,
            "probe_s": probe_s(),
        }
    )
)
