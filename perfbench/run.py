"""Benchmark of `chms run`: seeded workloads, correctness-gated, traced
outside-in for the per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload fine_march --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  One `run` executes at a time
in this process (in-process `chms.cli.main` calls), repeated in sequence
until --seconds have passed; set-up is measured in fresh interpreters.
Every call is checked by the gate in gate.py.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced calls, then runs the layer micro-benchmarks, and prints the
per-layer metrics.  Wall times are converted to reference-host seconds
by the speed probe in speed.py.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One thread per process, as the load model states; set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import micro  # noqa: E402
from gate import check_run, load_reference  # noqa: E402
from spans import Tracer, aggregate, installed  # noqa: E402
from speed import REFERENCE_PROBE_S, SpeedTracker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.npz"

#: Name -> unit of every metric printed with --trace 0.
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: Name -> unit of every metric printed with --trace 1.
PER_LAYER = {
    "setup.import_s": "s",
    "config.build_run_config.total_s": "s",
    "del_solver.initialize.total_s": "s",
    "del_solver.evolve.total_s": "s",
    "del_solver.advance_row.calls": "count",
    "del_solver.advance_row.p50_ms": "ms",
    "del_solver.advance_row.p90_ms": "ms",
    "del_solver.solve_cyclic_tridiagonal.calls": "count",
    "del_solver.solve_cyclic_tridiagonal.self_s": "s",
    "del_solver.solve_cyclic_tridiagonal.per_call_us": "us",
    "del_solver.newton_iterations": "count",
    "del_solver.backtracks": "count",
    "del_solver.jacobian_reuse": "ratio",
    "del_solver.accepted_residual_rel_max": "ratio",
    "del_solver.row_action.calls": "count",
    "del_solver.row_action.total_s": "s",
    "lagrangian.jacobian_bands.calls": "count",
    "lagrangian.jacobian_bands.total_s": "s",
    "lagrangian.grad_from_parts.calls": "count",
    "lagrangian.grad_from_parts.total_s": "s",
    "geometry_checks.total_momentum.calls": "count",
    "geometry_checks.total_momentum.total_s": "s",
    "geometry_checks.solve_first_variation.calls": "count",
    "geometry_checks.boundary_terms.count": "count",
    "bridges.phase_field.calls": "count",
    "cli.write_trajectory_csv.total_s": "s",
    "cli.write_trajectory_csv.bytes": "bytes",
    "cli.write_trajectory_csv.mb_per_s": "MB/s",
    "cli.dump_json.total_s": "s",
    "cli.dump_json.bytes": "bytes",
    "cli.run_command.other_self_s": "s",
    "run.wall_s": "s",
    "machine.slowdown": "ratio",
    "trace.overhead_frac": "ratio",
}
PER_LAYER.update({name: "us" for name in micro.metric_names()})

MIN_REPEATS = 2
SETUP_SAMPLES = 9
MICRO_BUDGET_S = 3.0


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


class Bench:
    """One workload at one seed: the timed call plus its correctness gate."""

    def __init__(self, workload, seed: int, cli, speed: SpeedTracker):
        from chms import geometry_checks

        self.cli = cli
        self.speed = speed
        self.workload = workload
        self.out_dir = WORK / workload.name
        self.argv = workload.argv(seed, str(self.out_dir))
        cfg = cli._resolve_config(cli.build_parser().parse_args(self.argv))
        s0 = cli.initialize(cfg.u0(), cfg.grid())
        self.momentum_scale = geometry_checks.total_momentum_scale(s0, 0)
        self.final_time = (cfg.n_steps + 1) * s0.grid.k
        self.reference = load_reference(REFERENCE, workload.name, workload.amplitude(seed))
        self.attempted = 0
        self.failed = 0

    def _main(self):
        try:
            return self.cli.main(self.argv)
        except Exception:  # a traceback is a failed run, not a benchmark crash
            traceback.print_exc(file=sys.stderr)
            return None

    def call(self) -> tuple[float, float]:
        """One gated `run`: (wall seconds, reference-host seconds)."""
        code, wall, reference = self.speed.timed(self._main)
        if code is None:
            failures = ["uncaught exception"]
        else:
            failures = check_run(
                code,
                self.out_dir,
                n_space=self.workload.n_space,
                final_time=self.final_time,
                momentum_scale=self.momentum_scale,
                reference_row=self.reference,
                wants_windows=self.workload.wants_windows,
            )
        self.attempted += 1
        if failures:
            self.failed += 1
            print(f"gate: {self.workload.name}: " + "; ".join(failures), file=sys.stderr)
        return wall, reference


def _setup_samples(bench: Bench) -> list[dict]:
    """Fresh-interpreter set-up runs, in reference-host seconds: each child
    times its own phases and the speed probe right after them."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(bench.argv)]
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        factor = REFERENCE_PROBE_S / sample.pop("probe_s")
        out.append({key: value * factor for key, value in sample.items()})
    return out


def _until(deadline: float, durations: list[float]) -> bool:
    """Start another call (or traced pair) only if it is expected to end
    by the deadline; always make MIN_REPEATS."""
    if len(durations) < MIN_REPEATS:
        return True
    return time.perf_counter() + statistics.median(durations) <= deadline


def end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    deadline = time.perf_counter() + seconds
    walls, runs = [], []
    peak_rss_mb = None
    while _until(deadline, walls):
        wall, reference = bench.call()
        walls.append(wall)
        runs.append(reference)
        if peak_rss_mb is None:
            # High-water mark of this fresh process after one full call.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "run_s": statistics.median(runs),
        "setup_s": statistics.median(s["setup_s"] for s in _setup_samples(bench)),
        "peak_rss_mb": peak_rss_mb,
    }


def _layer_metrics(agg: dict, evolve_result, boundary_terms: int, out_dir: Path, f: float) -> dict:
    """Per-layer metrics of one traced call; times scaled by factor f."""

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    solve = "del_solver.solve_cyclic_tridiagonal"
    bands = "lagrangian.jacobian_bands"
    steps = evolve_result.steps
    adv = agg.get("del_solver.advance_row", {}).get("durations") or [0.0]
    csv_bytes = (out_dir / "trajectory.csv").stat().st_size
    csv_s = f * get("cli.write_trajectory_csv", "total_s")
    return {
        "del_solver.evolve.total_s": f * get("del_solver.evolve", "total_s"),
        "del_solver.advance_row.calls": get("del_solver.advance_row", "calls"),
        "del_solver.advance_row.p50_ms": 1e3 * f * _quantile(adv, 0.5),
        "del_solver.advance_row.p90_ms": 1e3 * f * _quantile(adv, 0.9),
        f"{solve}.calls": get(solve, "calls"),
        f"{solve}.self_s": f * get(solve, "self_s"),
        f"{solve}.per_call_us": 1e6 * f * get(solve, "self_s") / max(1, get(solve, "calls")),
        "del_solver.newton_iterations": sum(st.iterations for st in steps),
        "del_solver.backtracks": sum(st.backtracks for st in steps),
        "del_solver.jacobian_reuse": get(solve, "calls") / max(1, get(bands, "calls")),
        "del_solver.row_action.calls": get("del_solver.row_action", "calls"),
        "del_solver.row_action.total_s": f * get("del_solver.row_action", "total_s"),
        f"{bands}.calls": get(bands, "calls"),
        f"{bands}.total_s": f * get(bands, "total_s"),
        "lagrangian.grad_from_parts.calls": get("lagrangian.grad_from_parts", "calls"),
        "lagrangian.grad_from_parts.total_s": f * get("lagrangian.grad_from_parts", "total_s"),
        "geometry_checks.total_momentum.calls": get("geometry_checks.total_momentum", "calls"),
        "geometry_checks.total_momentum.total_s": f * get("geometry_checks.total_momentum", "total_s"),
        "geometry_checks.solve_first_variation.calls": get(
            "geometry_checks.solve_first_variation", "calls"
        ),
        "geometry_checks.boundary_terms.count": boundary_terms,
        "bridges.phase_field.calls": get("bridges.phase_field", "calls"),
        "cli.write_trajectory_csv.total_s": csv_s,
        "cli.write_trajectory_csv.bytes": csv_bytes,
        "cli.write_trajectory_csv.mb_per_s": csv_bytes / 1e6 / csv_s,
        "cli.dump_json.total_s": f * get("cli.dump_json", "total_s"),
        "cli.dump_json.bytes": (out_dir / "diagnostics.json").stat().st_size,
        "cli.run_command.other_self_s": f * get("cli.run_command", "self_s"),
    }


def _accepted_residual_rel_max(section) -> float:
    """max over interior levels of max|residual| / residual scale."""
    from chms.del_solver import del_residual_row, residual_scale_row

    return max(
        float(abs(del_residual_row(section, j)).max()) / residual_scale_row(section, j)
        for j in range(1, section.grid.n_time - 1)
    )


def per_layer(bench: Bench, seconds: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics and a human-readable self-time table.

    Untraced and traced calls alternate.  Spans are timed on a clock that
    leaves out the speed probes, and scaled by the traced call's
    reference-over-wall factor.
    """
    speed = bench.speed
    setups = _setup_samples(bench)
    tracer = Tracer(clock=speed.clock)
    captured = {"boundary_terms": 0}
    tracer.observers["del_solver.evolve"] = lambda r: captured.__setitem__("evolve", r)
    for name in ("geometry_checks.noether_boundary_terms", "geometry_checks.mff_boundary_terms"):
        tracer.observers[name] = lambda r: captured.__setitem__(
            "boundary_terms", captured["boundary_terms"] + len(r)
        )

    deadline = time.perf_counter() + seconds
    untraced, traced, raw_untraced, pairs, per_call = [], [], [], [], []
    while _until(deadline, pairs):
        wall_untraced, reference = bench.call()
        raw_untraced.append(wall_untraced)
        untraced.append(reference)
        tracer.run_id += 1
        tracer.spans.clear()  # aggregates are taken per call; keeps memory flat
        captured["boundary_terms"] = 0
        with installed(tracer):
            wall, reference = bench.call()
        traced.append(reference)
        pairs.append(wall_untraced + wall)
        agg = aggregate(tracer.spans)
        per_call.append(
            _layer_metrics(
                agg, captured["evolve"], captured["boundary_terms"], bench.out_dir, reference / wall
            )
        )
    metrics = {key: statistics.median(m[key] for m in per_call) for key in per_call[0]}
    metrics["del_solver.accepted_residual_rel_max"] = _accepted_residual_rel_max(
        captured["evolve"].section
    )
    for name, key in (
        ("setup.import_s", "import_s"),
        ("config.build_run_config.total_s", "config_s"),
        ("del_solver.initialize.total_s", "initialize_s"),
    ):
        metrics[name] = statistics.median(s[key] for s in setups)
    metrics["run.wall_s"] = statistics.median(raw_untraced)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics.update(micro.micro_metrics(MICRO_BUDGET_S, speed))
    metrics["machine.slowdown"] = speed.slowdown()
    table = [
        f"{name:48s} calls={a['calls']:7d} self_s={a['self_s']:.4f} total_s={a['total_s']:.4f}"
        for name, a in sorted(agg.items(), key=lambda kv: -kv[1]["self_s"])
    ]
    return metrics, table


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if not (SRC / "chms" / "__init__.py").is_file():
        print(f"no chms sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chms.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "chms":
        print(f"imported chms from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, cli, SpeedTracker())
    try:
        if args.trace:
            metrics, table = per_layer(bench, args.seconds)
            print("self time of the last traced call, by span:")
            print("\n".join(table))
            units = PER_LAYER
        else:
            metrics = end_to_end(bench, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(
        f"{workload.name} seed={args.seed} amplitude={workload.amplitude(args.seed)} "
        f"runs={bench.attempted} failed={bench.failed} "
        f"failed_fraction={bench.failed / bench.attempted:g}"
    )
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
