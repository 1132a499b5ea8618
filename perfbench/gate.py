"""Correctness gate applied to every `chms run` the benchmark times.

A run passes when all of these hold:

* exit code 0 and `summary.status == "ok"` in diagnostics.json;
* relative momentum drift, drift / max(|p0|, total_momentum_scale), at or
  below the bound `chms check` uses (1e-9);
* when the workload asks for diagnostics, every window's noether and mff
  boundary sum over its absolute sum at or below `check`'s 1e-9 / 1e-8;
* the final saved level of trajectory.csv sits at the expected time and
  matches the reference row recorded for this amplitude within
  FINAL_ROW_TOL.

FINAL_ROW_TOL is an absolute tolerance on eta (circumference 2*pi).
Measured on the three workloads at their nominal amplitudes:

* re-associating the residual arithmetic moves the final row by at most
  2.1e-11, a Newton tolerance 100x looser (1e-10) by at most 6.4e-9;
* the discretization error, the final row against the twice-refined run
  at the same physical time, is 1.9e-5 (fine_march), 3.3e-4
  (full_diagnostics) and 8.1e-3 (coarse_march).

1e-7 sits 15x above the loosest reordering and 190x below the smallest
discretization error, so a correct re-implementation passes and a wrong
answer does not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MOMENTUM_DRIFT_REL_MAX = 1e-9
NOETHER_REL_MAX = 1e-9
MFF_REL_MAX = 1e-8
FINAL_ROW_TOL = 1e-7


def reference_key(workload: str, amplitude: str) -> str:
    return f"{workload}@{amplitude}"


def load_reference(path: Path, workload: str, amplitude: str) -> np.ndarray:
    with np.load(path) as refs:
        return np.array(refs[reference_key(workload, amplitude)])


def final_level(csv_path: Path, n_space: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, i, eta) columns of the last n_space lines of trajectory.csv."""
    with open(csv_path, "rb") as fh:
        fh.seek(0, 2)
        size = fh.tell()
        # A line holds five numbers of at most 24 characters each.
        fh.seek(max(0, size - (n_space + 1) * 128))
        tail = fh.read().decode("ascii").splitlines()[-n_space:]
    rows = np.array([[float(v) for v in line.split(",")] for line in tail])
    return rows[:, 0], rows[:, 1], rows[:, 3]


def _window_failures(windows: list[dict]) -> list[str]:
    if not windows:
        return ["diagnostics requested but no window records written"]
    out = []
    for w in windows:
        for key, bound in (("noether", NOETHER_REL_MAX), ("mff", MFF_REL_MAX)):
            total = w.get(f"{key}_boundary_sum")
            scale = w.get(f"{key}_abs_sum")
            if total is None or scale is None:
                out.append(f"window {w.get('j_lo')}..{w.get('j_hi')}: no {key} sum")
                continue
            rel = abs(total) / scale if scale > 0.0 else (0.0 if total == 0.0 else math.inf)
            if not rel <= bound:
                out.append(
                    f"window {w['j_lo']}..{w['j_hi']}: {key} sum/abs sum {rel:.3e} > {bound:.0e}"
                )
    return out


def check_run(
    exit_code: int,
    out_dir: Path,
    *,
    n_space: int,
    final_time: float,
    momentum_scale: float,
    reference_row: np.ndarray,
    wants_windows: bool,
) -> list[str]:
    """Every way the run missed the gate; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads((out_dir / "diagnostics.json").read_text(encoding="utf-8"))
        t, idx, eta = final_level(out_dir / "trajectory.csv", n_space)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    summary = report["summary"]
    failures = []
    if summary.get("status") != "ok":
        failures.append(f"status {summary.get('status')!r}")
    drift_scale = max(abs(summary["momentum_initial"]), momentum_scale, 1e-300)
    drift = summary["momentum_drift_max"] / drift_scale
    if not drift <= MOMENTUM_DRIFT_REL_MAX:
        failures.append(f"relative momentum drift {drift:.3e} > {MOMENTUM_DRIFT_REL_MAX:.0e}")
    if wants_windows:
        failures += _window_failures(report.get("windows", []))
    if len(eta) != n_space or not np.array_equal(idx, np.arange(n_space)):
        failures.append("final level does not list every spatial index once")
    elif not np.allclose(t, final_time, rtol=1e-12, atol=0.0):
        failures.append(f"final level at t={t[0]!r}, expected {final_time!r}")
    else:
        err = float(np.max(np.abs(eta - reference_row)))
        if not err <= FINAL_ROW_TOL:
            failures.append(f"final row differs from reference by {err:.3e} > {FINAL_ROW_TOL:.0e}")
    return failures
