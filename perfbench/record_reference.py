"""Record the gate's reference final rows into reference.npz.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs `chms run` for every workload at every amplitude of its band and
stores the final saved level's eta, keyed "<workload>@<amplitude>".  The
committed file was recorded from the chms sources the benchmark was
defined on; re-record only when a change is meant to move the answer by
more than gate.FINAL_ROW_TOL, and say so.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

from gate import final_level, reference_key
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "record"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import chms.cli as cli

    rows = {}
    try:
        for w in WORKLOADS.values():
            for amp in w.amplitudes():
                if cli.main(w.argv_at(amp, 0, str(WORK))) != 0:
                    print(f"{w.name} at amplitude {amp} failed", file=sys.stderr)
                    return 1
                rows[reference_key(w.name, amp)] = final_level(WORK / "trajectory.csv", w.n_space)[2]
                print(f"recorded {reference_key(w.name, amp)}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    np.savez_compressed(HERE / "reference.npz", **rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
