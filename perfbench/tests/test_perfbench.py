"""Tests of the benchmark itself: span arithmetic, the correctness gate,
and the metric names against BENCHMARK.json.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import chms.cli as cli  # noqa: E402
import chms.del_solver as del_solver  # noqa: E402
import chms.geometry_checks as geometry_checks  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from speed import SpeedTracker  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TINY = Workload("tiny", 0.1, n_space=16, n_steps=12, diagnostics="all", save_every=None)
#: Same runs without the structure checks (same reference rows).
TINY_MARCH = Workload("tiny", 0.1, n_space=16, n_steps=12, diagnostics="none", save_every=None)


def tiny_grid():
    from chms.grid import GridSpec

    return GridSpec.from_circle(TINY.n_space, 2, 2.0 * np.pi, 0.25)


# ---------------------------------------------------------------------------
# Spans.


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, 1)


def test_self_time_subtracts_direct_children_only():
    s = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(s) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    agg = spans.aggregate(s)
    assert agg["root"]["total_s"] == pytest.approx(10.0)
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(10.0)


def test_wrappers_reach_from_import_bindings_and_are_removed():
    original = del_solver.solve_cyclic_tridiagonal
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert del_solver.solve_cyclic_tridiagonal is not original
        assert geometry_checks.solve_cyclic_tridiagonal is del_solver.solve_cyclic_tridiagonal
        assert cli.format_float.__module__ == "chms.cli"  # left untraced
        s0 = del_solver.initialize(lambda x: 0.1 * np.cos(x), tiny_grid())
        del_solver.evolve(s0, 3)
    assert del_solver.solve_cyclic_tridiagonal is original
    assert geometry_checks.solve_cyclic_tridiagonal is original
    agg = spans.aggregate(tracer.spans)
    assert agg["del_solver.advance_row"]["calls"] == 3
    evolve_idx = next(i for i, s in enumerate(tracer.spans) if s.name == "del_solver.evolve")
    rows = [s for s in tracer.spans if s.name == "del_solver.advance_row"]
    assert all(s.parent == evolve_idx for s in rows)


# ---------------------------------------------------------------------------
# Speed normalization.


def test_timed_call_leaves_probes_out_and_rescales_by_them(monkeypatch):
    """A host probing at twice the reference time runs at half speed."""

    def slow_probe():
        time.sleep(0.01)
        return 2.0 * speed.REFERENCE_PROBE_S

    monkeypatch.setattr(speed, "probe_s", slow_probe)
    tracker = SpeedTracker()
    result, wall, reference = tracker.timed(lambda: time.sleep(0.6) or "done")
    assert result == "done"
    assert len(tracker.probes) >= 4  # before, after, and every PERIOD_S between
    assert wall == pytest.approx(0.6, abs=0.05)
    assert reference == pytest.approx(wall / 2.0)
    assert tracker.slowdown() == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Gate.


@pytest.fixture
def tiny_reference(tmp_path, monkeypatch):
    """Reference rows of TINY at every amplitude, as reference.npz holds them."""
    rows = {}
    for amp in TINY.amplitudes():
        assert cli.main(TINY.argv_at(amp, 0, str(tmp_path / "rec"))) == 0
        rows[gate.reference_key(TINY.name, amp)] = gate.final_level(
            tmp_path / "rec" / "trajectory.csv", TINY.n_space
        )[2]
    path = tmp_path / "reference.npz"
    np.savez_compressed(path, **rows)
    monkeypatch.setattr(run, "REFERENCE", path)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return path


def _bench(workload=TINY):
    return run.Bench(workload, 3, cli, SpeedTracker())


def _gate(bench, code=0):
    return gate.check_run(
        code,
        bench.out_dir,
        n_space=bench.workload.n_space,
        final_time=bench.final_time,
        momentum_scale=bench.momentum_scale,
        reference_row=bench.reference,
        wants_windows=bench.workload.wants_windows,
    )


def test_gate_passes_a_correct_run(tiny_reference):
    bench = _bench()
    bench.call()
    assert (bench.attempted, bench.failed) == (1, 0)


def test_gate_fails_a_wrong_final_row(tiny_reference):
    bench = _bench()
    bench.call()
    csv = bench.out_dir / "trajectory.csv"
    lines = csv.read_text().splitlines()
    t, i, x, eta, u = lines[-1].split(",")
    lines[-1] = ",".join([t, i, x, repr(float(eta) + 1e-6), u])
    csv.write_text("\n".join(lines) + "\n")
    assert any("final row" in f for f in _gate(bench))


def _nudge_every_new_row(monkeypatch):
    advance = del_solver.advance_row

    def off_shell(ym1, y0, g, cfg):
        row, st = advance(ym1, y0, g, cfg)
        return row + 1e-4 * g.h * np.cos(3.0 * np.arange(row.size)), st

    monkeypatch.setattr(del_solver, "advance_row", off_shell)


def test_gate_fails_a_perturbed_trajectory(tiny_reference, monkeypatch):
    _nudge_every_new_row(monkeypatch)
    bench = _bench(TINY_MARCH)
    bench.call()
    failures = _gate(bench)
    assert bench.failed == 1
    assert any("momentum drift" in f for f in failures)
    assert any("final row" in f for f in failures)


def test_a_run_that_raises_counts_as_failed(tiny_reference, monkeypatch):
    """With mff requested the off-shell trajectory makes `run` raise."""
    _nudge_every_new_row(monkeypatch)
    bench = _bench(TINY)
    bench.call()
    assert (bench.attempted, bench.failed) == (1, 1)


def test_gate_fails_bad_exit_status_and_missing_windows(tiny_reference):
    bench = _bench()
    bench.call()
    assert _gate(bench, code=3) == ["exit code 3"]
    report_path = bench.out_dir / "diagnostics.json"
    report = json.loads(report_path.read_text())
    report["summary"]["status"] = "aborted"
    report["windows"] = []
    report_path.write_text(json.dumps(report))
    failures = _gate(bench)
    assert any("status" in f for f in failures)
    assert any("no window records" in f for f in failures)


# ---------------------------------------------------------------------------
# Metric names.


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_and_workloads_match_the_code():
    spec = _declared()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_computed_metric_is_declared(tiny_reference):
    bench = _bench()
    assert set(run.end_to_end(bench, 0.0)) == set(run.END_TO_END)
    metrics, table = run.per_layer(bench, 0.0)
    assert set(metrics) == set(run.PER_LAYER)
    assert bench.failed == 0 and bench.attempted == 3 * run.MIN_REPEATS
    assert table


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fine_march", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
