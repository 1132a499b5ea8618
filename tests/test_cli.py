import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TWO_PI, cosine_trajectory, random_section, traced_peak

import chms
from chms import bridges, cli, del_solver, geometry_checks
from chms.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    diagnostic_windows,
    format_float,
    main,
    write_trajectory_csv,
)
from chms.config import DEFAULTS, RunConfig, parse_initial_condition
from chms.errors import ConfigError
from chms.grid import GridSpec


def run_cli(*args):
    return main(list(args))


def test_initial_condition_parsing():
    lam = 2 * math.pi
    x = np.linspace(0.0, lam, 7)
    assert np.allclose(parse_initial_condition("rest", lam)(x), 0.0)
    assert np.allclose(parse_initial_condition("uniform:0.4", lam)(x), 0.4)
    cos = parse_initial_condition("cosine:0.2", lam)
    assert cos(0.0) == pytest.approx(0.2)
    bump = parse_initial_condition("gaussian_bump:0.1,0.5", lam)
    vals = bump(x)
    assert vals.max() == pytest.approx(0.1, rel=1e-6)
    assert abs(bump(0.0) - bump(lam)) <= 1e-15  # periodic by construction
    with pytest.raises(ConfigError):
        parse_initial_condition("sawtooth:1", lam)
    with pytest.raises(ConfigError):
        parse_initial_condition("uniform:abc", lam)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(n_space=2)
    with pytest.raises(ConfigError):
        RunConfig(cfl=-0.5)
    with pytest.raises(ConfigError):
        RunConfig(diagnostics=("bogus",))
    with pytest.raises(ConfigError):
        RunConfig(ic="unknown:1")


def test_format_float_round_trips():
    for v in (0.1, 1.0 / 3.0, 6.283185307179586, 1e-300, -2.5e17):
        assert float(format_float(v)) == v
    for v, text in ((np.float64("nan"), '"nan"'), (-np.inf, '"-inf"'), (float("inf"), '"inf"')):
        assert format_float(v) == text


def test_dump_json_layout_and_exact_floats(tmp_path):
    floats = [0.1, 1.0 / 3.0, 1e-12, -0.0, 5e-324, 1.7976931348623157e308]
    obj = {
        "levels": [{"label": "η₀", "done": True, "failure": None}],
        "pair": (2**60, []),
        "floats": floats,
    }
    path = tmp_path / "report.json"
    cli.dump_json(obj, path)
    text = path.read_text(encoding="utf-8")
    assert text == (
        "{\n"
        '  "levels": [\n'
        "    {\n"
        '      "label": "\\u03b7\\u2080",\n'
        '      "done": true,\n'
        '      "failure": null\n'
        "    }\n"
        "  ],\n"
        '  "pair": [\n'
        "    1152921504606846976,\n"
        "    []\n"
        "  ],\n"
        '  "floats": [\n'
        "    0.1,\n"
        "    0.3333333333333333,\n"
        "    1e-12,\n"
        "    -0.0,\n"
        "    5e-324,\n"
        "    1.7976931348623157e+308\n"
        "  ]\n"
        "}\n"
    )
    back = json.loads(text)
    assert list(back) == ["levels", "pair", "floats"]
    assert back["levels"][0]["label"] == "η₀" and back["pair"][0] == 2**60
    got = np.array(back["floats"])
    assert got.view(np.uint64).tolist() == np.array(floats).view(np.uint64).tolist()


def test_diagnostic_windows():
    assert diagnostic_windows(102) == [(0, 101), (0, 50), (50, 101)]
    assert diagnostic_windows(3) == [(0, 2), (0, 1), (1, 2)]
    assert diagnostic_windows(2) == [(0, 1)]


def test_run_rest_writes_exact_diagnostics(tmp_path):
    out = tmp_path / "rest"
    code = run_cli(
        "run", "--ic", "rest", "--n-space", "8", "--n-steps", "10",
        "--out-dir", str(out), "--diagnostics", "all",
    )
    assert code == EXIT_OK
    report = json.loads((out / "diagnostics.json").read_text())
    assert report["summary"]["status"] == "ok"
    assert report["summary"]["momentum_initial"] == 0.0
    assert report["summary"]["momentum_drift_max"] == 0.0
    assert all(rec["total_momentum"] == 0.0 for rec in report["steps"])
    assert all(abs(w["noether_boundary_sum"]) == 0.0 for w in report["windows"])
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,i,x,eta,u"
    first = lines[1].split(",")
    assert first[2] == first[3]  # eta == x at rest


def _stop_reasons(tmp_path, *args) -> list[str]:
    """Each step's Newton stop reason of a cosine:0.1 run over 10 steps,
    checked against the summary's counts."""
    out = tmp_path / "stop"
    code = run_cli("run", "--ic", "cosine:0.1", "--n-steps", "10", "--out-dir", str(out), *args)
    assert code == EXIT_OK
    report = json.loads((out / "diagnostics.json").read_text())
    reasons = [rec["stop_reason"] for rec in report["steps"]]
    assert report["summary"]["stop_reasons"] == {
        "tolerance": reasons.count("tolerance"),
        "fp_floor": reasons.count("fp_floor"),
    }
    return reasons


@pytest.mark.parametrize("n_space, expected", [(16, {"tolerance"}), (64, {"tolerance"})])
def test_run_reports_newton_stop_reasons(tmp_path, n_space, expected):
    # Newton iterates on the row increment, so the residual meets the
    # default tolerance on order-one rows and on finer ones alike.
    assert set(_stop_reasons(tmp_path, "--n-space", str(n_space))) == expected


def test_run_reports_fp_floor_below_the_attainable_residual(tmp_path):
    # A tolerance below the residual's floating-point floor ends every
    # step at that floor instead of running out of iterations.
    reasons = _stop_reasons(tmp_path, "--n-space", "64", "--tol-residual", "1e-16")
    assert set(reasons) == {"fp_floor"}


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-16])
def test_run_reports_each_steps_relative_residual(tmp_path, tol):
    # The relative residual is what the Newton tolerance bounds: every
    # step that stopped on it meets it, and an fp_floor step lies above it.
    out = tmp_path / "rel"
    code = run_cli(
        "run", "--ic", "cosine:0.1", "--n-space", "64", "--n-steps", "10",
        "--tol-residual", str(tol), "--out-dir", str(out),
    )
    assert code == EXIT_OK
    report = json.loads((out / "diagnostics.json").read_text())
    steps = report["steps"]
    for rec in steps:
        rel = rec["relative_residual"]
        assert 0.0 <= rel <= rec["residual_inf_norm"]
        assert (rel <= tol) == (rec["stop_reason"] == "tolerance")
    assert report["summary"]["max_relative_residual"] == max(rec["relative_residual"] for rec in steps)


def _per_value_csv(y, h, k, levels) -> str:
    """The trajectory CSV with every value through format_float."""
    last = len(y) - 1
    lines = ["t,i,x,eta,u"]
    for j in levels:
        u = (y[j + 1] - y[j]) / k if j < last else (y[last] - y[last - 1]) / k
        for i in range(y.shape[1]):
            t, x, eta = format_float(j * k), format_float(i * h), format_float(y[j, i])
            lines.append(f"{t},{i},{x},{eta},{format_float(u[i])}")
    return "\n".join(lines) + "\n"


def test_trajectory_csv_matches_the_per_value_format(tmp_path):
    s = cosine_trajectory(n_space=8, n_steps=7).section  # levels 0 .. 8
    y, h, k = s.rows_y(), s.grid.h, s.grid.k
    y[3, 5] = np.nan  # quoted in eta and u of level 3
    # A Section rejects a non-finite value, so a stand-in with the
    # writer's two attributes carries the NaN.
    field = SimpleNamespace(grid=s.grid, row_y=lambda j: y[j])
    write_trajectory_csv(tmp_path / "t.csv", field, 3)
    text = (tmp_path / "t.csv").read_text()
    assert text == _per_value_csv(y, h, k, (0, 3, 6, 8)) and text.count('"nan"') == 2


def test_trajectory_csv_quotes_a_non_finite_velocity_alone(tmp_path):
    s = cosine_trajectory(n_space=8, n_steps=7).section
    y, h, k = s.rows_y(), s.grid.h, s.grid.k
    y[4, 5] = np.inf  # level 4 is not saved; level 3 keeps a finite eta, u = inf
    field = SimpleNamespace(grid=s.grid, row_y=lambda j: y[j])
    write_trajectory_csv(tmp_path / "t.csv", field, 3)
    text = (tmp_path / "t.csv").read_text()
    assert text == _per_value_csv(y, h, k, (0, 3, 6, 8)) and text.count('"inf"') == 1
    row = f"{format_float(3 * k)},5,{format_float(5 * h)},{format_float(y[3, 5])},\"inf\"\n"
    assert row in text


def test_trajectory_csv_of_every_level_matches_the_per_value_format(tmp_path):
    s = cosine_trajectory(n_space=64, n_steps=12).section
    y = s.rows_y()
    write_trajectory_csv(tmp_path / "t.csv", s, 1)
    expected = _per_value_csv(y, s.grid.h, s.grid.k, range(len(y)))
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


def test_trajectory_csv_is_streamed_level_by_level(tmp_path, rng):
    # About 10 MB of CSV; the writer holds one level's text at a time.
    s = random_section(GridSpec.from_circle(64, 2001, TWO_PI, 0.25), rng)
    path = tmp_path / "t.csv"
    assert traced_peak(write_trajectory_csv, path, s, 1) < 2 * 2**20
    assert path.stat().st_size > 8 * 2**20


def _recording(field):
    """A stand-in for field whose row_y records the levels of each call."""
    calls = []

    def row_y(j):
        calls.append(np.atleast_1d(j).tolist())
        return field.row_y(j)

    return SimpleNamespace(grid=field.grid, row_y=row_y), calls


@pytest.mark.parametrize("save_every", [1, 3, 7])
def test_trajectory_csv_across_blocks_matches_the_per_value_format(tmp_path, rng, save_every):
    # The saved levels fill three of the writer's blocks, and the final
    # level (off the stride for 3 and 7) lands alone in a fourth, where
    # its velocity is the backward difference.
    n = 64
    per_block = del_solver._BLOCK_VALUES // (cli._CSV_BLOCK_DIVISOR * n)
    last = save_every * (3 * per_block - 1) + 1
    s = random_section(GridSpec.from_circle(n, last + 1, TWO_PI, 0.25), rng)
    field, calls = _recording(s)
    write_trajectory_csv(tmp_path / "t.csv", field, save_every)
    levels = [*range(0, last, save_every), last]
    expected = _per_value_csv(s.rows_y(), s.grid.h, s.grid.k, levels)
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()
    # Each block asks for its labels, then for its neighbour levels.
    assert [len(js) for js in calls[::2]] == [per_block] * 3 + [1]
    assert calls[-2:] == [[last], [last - 1]]


def test_trajectory_csv_at_rest_writes_unsigned_zero_velocities(tmp_path):
    # Equal labels on the final two levels: the backward difference is
    # +0, where the negated forward difference would be written -0.
    s = del_solver.Section.identity(GridSpec.from_circle(8, 5, TWO_PI, 0.25))
    write_trajectory_csv(tmp_path / "t.csv", s, 3)
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 * 8 and {row.rsplit(",", 1)[1] for row in rows} == {"0"}


def test_trajectory_csv_quotes_a_nan_in_a_later_block(tmp_path, rng):
    n = 16
    per_block = del_solver._BLOCK_VALUES // (cli._CSV_BLOCK_DIVISOR * n)
    g = GridSpec.from_circle(n, 2 * per_block + 3, TWO_PI, 0.25)
    y = random_section(g, rng).rows_y()
    y[2 * per_block + 1, 5] = np.nan  # third block: eta and u of its level, u of both neighbours
    field, calls = _recording(SimpleNamespace(grid=g, row_y=lambda j: y[j]))
    write_trajectory_csv(tmp_path / "t.csv", field, 1)
    text = (tmp_path / "t.csv").read_text()
    assert len(calls) == 6
    assert text == _per_value_csv(y, g.h, g.k, range(g.n_time)) and text.count('"nan"') == 4


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("name", ["trajectory.csv", "diagnostics.json"])
def test_run_reports_a_write_that_fails_mid_file(tmp_path, capsys, name):
    # Opening /dev/full succeeds and every write fails with ENOSPC; the
    # CSV of 41 levels of 64 points, and the streamed report of its 40
    # steps (about 14 kB), outgrow the file buffer, so each fails part way.
    out = tmp_path / "full"
    out.mkdir()
    (out / name).symlink_to("/dev/full")
    code = run_cli("run", "--ic", "cosine:0.1", "--n-space", "64", "--n-steps", "40",
                   "--out-dir", str(out))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: out_dir: cannot write"), err


def test_run_uniform_momentum_constant(tmp_path):
    out = tmp_path / "uni"
    code = run_cli(
        "run", "--ic", "uniform:0.3", "--n-space", "16", "--n-steps", "20",
        "--out-dir", str(out),
    )
    assert code == EXIT_OK
    report = json.loads((out / "diagnostics.json").read_text())
    p0 = report["summary"]["momentum_initial"]
    assert report["summary"]["momentum_drift_max"] <= 1e-12 * abs(p0)
    ks = report["config"]["k"]
    rows = {}
    for line in (out / "trajectory.csv").read_text().splitlines()[1:]:
        t, i, x, eta, u = line.split(",")
        rows.setdefault(float(t), {})[int(i)] = (float(x), float(eta), float(u))
    times = sorted(rows)
    for t in times:
        x0, eta0, u0 = rows[t][0]
        assert eta0 == pytest.approx(x0 + 0.3 * t, abs=1e-12)
        assert u0 == pytest.approx(0.3, abs=1e-10)
    assert times[1] == pytest.approx(ks)


def test_run_is_deterministic(tmp_path):
    out = tmp_path / "a"
    args = (
        "run", "--ic", "cosine:0.1", "--n-space", "16", "--n-steps", "8",
        "--out-dir", str(out), "--diagnostics", "all", "--seed", "7",
    )
    assert run_cli(*args) == EXIT_OK
    first = {name: (out / name).read_bytes() for name in ("trajectory.csv", "diagnostics.json")}
    assert run_cli(*args) == EXIT_OK
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_run_solver_abort_exit_code(tmp_path):
    out = tmp_path / "breaking"
    code = run_cli(
        "run", "--ic", "cosine:3.0", "--n-space", "32", "--n-steps", "100",
        "--out-dir", str(out),
    )
    assert code == EXIT_SOLVER
    report = json.loads((out / "diagnostics.json").read_text())
    assert report["summary"]["status"] == "aborted"
    failure = report["summary"]["failure"]
    assert failure["error"] == "NonMonotone"
    assert "wave breaking" in failure["message"] and "at i=" in failure["message"]
    assert failure["step"] >= 1
    assert (out / "trajectory.csv").exists()  # partial trajectory saved


def test_run_newton_iteration_limit_exits_three(tmp_path, capsys):
    out = tmp_path / "limit"
    code = run_cli(
        "run", "--ic", "cosine:0.5", "--n-space", "64", "--n-steps", "50",
        "--max-iters", "1", "--out-dir", str(out),
    )
    assert code == EXIT_SOLVER
    message = "residual 1.99878e-06 above tolerance 8.31243e-10 after 1 Newton iterations"
    assert capsys.readouterr().err == f"solver abort at step 1: {message}\n"
    failure = json.loads((out / "diagnostics.json").read_text())["summary"]["failure"]
    assert list(failure.items()) == [("step", 1), ("error", "MaxItersExceeded"), ("message", message)]
    # The trajectory holds the two starting levels 0 and 1.
    k = RunConfig(n_space=64).grid().k
    times = [line.split(",")[0] for line in (out / "trajectory.csv").read_text().splitlines()[1:]]
    assert times == [format_float(0.0)] * 64 + [format_float(k)] * 64


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sample configuration\n"
        "n_space = 16\n"
        "n_steps = 4\n"
        "ic = uniform:0.2\n"
        "diagnostics = none\n"
    )
    out = tmp_path / "out"
    code = run_cli(
        "run", "--config", str(cfg), "--n-steps", "6", "--out-dir", str(out)
    )
    assert code == EXIT_OK
    report = json.loads((out / "diagnostics.json").read_text())
    assert report["config"]["n_space"] == 16  # from file
    assert report["config"]["n_steps"] == 6  # flag wins
    assert report["config"]["initial_condition"] == "uniform:0.2"
    assert report["windows"] == []


def test_config_errors_exit_two(tmp_path):
    assert run_cli("run", "--ic", "nope:1", "--out-dir", str(tmp_path / "x")) == EXIT_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery_key = 3\n")
    assert run_cli("run", "--config", str(bad)) == EXIT_CONFIG
    # a kick violent enough to break monotonicity at startup is a config error
    assert (
        run_cli("run", "--ic", "cosine:9.0", "--n-space", "8", "--cfl", "2.0",
                "--out-dir", str(tmp_path / "y"))
        == EXIT_CONFIG
    )


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--cfl", "nan"),
        ("--domain-length", "nan"),
        ("--cfl", "inf"),
        ("--ic", "cosine:nan"),
        ("--tol-residual", "nan"),
    ],
)
def test_non_finite_inputs_exit_two(tmp_path, capsys, flag, value):
    code = run_cli("run", flag, value, "--n-space", "8", "--n-steps", "2",
                   "--out-dir", str(tmp_path / "nf"))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


_PARSE_ERRORS = [
    # A negative or non-finite value given as its own token names the bad
    # value, exactly as the --flag=value spelling does.
    (("--tol-residual", "-1e+16"), "solver: tol_residual must be positive and finite"),
    (("--cfl", "-inf"), "cfl: must be positive and finite"),
    (("--bogus",), "unrecognized arguments: --bogus"),
    (("--n-space",), "argument --n-space: expected one argument"),
    (("--cfl", "-1e-3"), "cfl: must be positive and finite"),
    (("--domain-length", "-nan"), "domain_length: must be positive and finite"),
    (("--cfl", "--n-space", "8"), "argument --cfl: expected one argument"),
    # argparse drops a value that is exactly "--"; it reaches the parser.
    (("--max-iters=--",), "max_iters: cannot parse '--': invalid literal for int() with base 10: '--'"),
    (("--ic", "rest:1"), "initial_condition: cannot parse 'rest:1': rest takes no parameters"),
]


@pytest.mark.parametrize(
    "args, message", _PARSE_ERRORS, ids=[f"args{i}" for i in range(len(_PARSE_ERRORS))]
)
def test_parse_errors_print_one_line(tmp_path, capsys, args, message):
    code = run_cli("run", *args, "--out-dir", str(tmp_path / "pe"))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n", err


def test_overflowing_initial_velocity_exits_two(tmp_path, capsys):
    # b*b of the first rectangle row overflows: rejected before the march.
    out = tmp_path / "o"
    code = run_cli("run", "--n-space", "8", "--n-steps", "2", "--cfl", "1e-140",
                   "--ic", "uniform:1e155", "--out-dir", str(out))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "gradient" in err and err.count("\n") == 1


@pytest.mark.parametrize("case", ["missing_config", "binary_config", "negative_seed", "out_dir_is_file"])
def test_unusable_inputs_exit_two(tmp_path, capsys, case):
    args = ["run", "--n-space", "8", "--n-steps", "2", "--out-dir", str(tmp_path / "o")]
    if case == "missing_config":
        args += ["--config", str(tmp_path / "absent.cfg")]
    elif case == "binary_config":
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"n_space = 8\n\xff\xfe\x00\n")
        args += ["--config", str(cfg)]
    elif case == "negative_seed":
        args += ["--seed", "-1"]
    else:
        (tmp_path / "file").write_text("")
        args += ["--out-dir", str(tmp_path / "file")]
    assert run_cli(*args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


_HUGE = str(10**20)


@pytest.mark.parametrize(
    "args",
    [
        ("run", "--n-space", _HUGE, "--n-steps", "1"),
        ("run", "--n-space", "8", "--n-steps", _HUGE),
        ("check", "--n-space", _HUGE, "--n-steps", "1"),
        # The refined levels are validated before the first one runs.
        ("converge", "--n-space", "8", "--n-steps", "2", "--levels", f"1,2,{10**18}"),
    ],
)
def test_unaddressable_sizes_exit_two(tmp_path, capsys, args):
    # (n_steps + 2) * n_space floats of 8 bytes exceed sys.maxsize.
    assert run_cli(*args, "--out-dir", str(tmp_path / "o")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: n_space, n_steps:") and err.count("\n") == 1, err
    assert not (tmp_path / "o" / "convergence.json").exists()


def test_out_of_memory_exits_two(tmp_path, capsys, monkeypatch):
    def no_memory(u0, g):
        raise MemoryError("Unable to allocate 22.4 GiB for an array with shape (3000000000,)")

    monkeypatch.setattr(cli, "initialize", no_memory)
    code = run_cli("run", "--n-space", "8", "--n-steps", "1", "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: out of memory: Unable to allocate 22.4 GiB for an array "
        "with shape (3000000000,)\n"
    )


@pytest.mark.parametrize(
    "command, name",
    [("run", "trajectory.csv"), ("run", "diagnostics.json"), ("check", "check.json"),
     ("converge", "convergence.json")],
)
def test_unwritable_output_file_exits_two(tmp_path, capsys, command, name):
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    code = run_cli(command, "--ic", "cosine:0.1", "--n-space", "8", "--n-steps", "2",
                   "--out-dir", str(out))
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: out_dir: cannot write {str(out / name)!r}:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def _nudge_every_new_row(monkeypatch):
    """Move each row the march accepts off shell by 1e-4 h."""
    advance = del_solver.advance_row

    def off_shell(*args):
        row, st = advance(*args)
        return row + 1e-4 * args[2].h * np.cos(3.0 * np.arange(row.size)), st

    monkeypatch.setattr(del_solver, "advance_row", off_shell)


def test_run_diagnostics_failure_exits_three(tmp_path, capsys, monkeypatch):
    # A march whose rows are nudged off shell completes, and the mff
    # diagnostics' tangent-linear on-shell gate then raises NotOnShell.
    _nudge_every_new_row(monkeypatch)
    code = run_cli("run", "--ic", "cosine:0.1", "--n-space", "16", "--n-steps", "4",
                   "--diagnostics", "mff", "--out-dir", str(tmp_path / "off"))
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver abort:") and err.count("\n") == 1
    assert "residual 0.108307 at level 1 exceeds 1.01521e-09;" in err
    # The march completed, so its trajectory and the failure report are written.
    out = tmp_path / "off"
    assert (out / "trajectory.csv").read_text().count("\n") == 1 + 6 * 16
    summary = json.loads((out / "diagnostics.json").read_text())["summary"]
    assert summary["status"] == "aborted"
    assert summary["failure"]["stage"] == "diagnostics"
    assert summary["failure"]["error"] == "NotOnShell"
    assert "does not solve the field equations" in summary["failure"]["message"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the on-shell gate forms residuals from absolute label rows, "
    "whose rounding exceeds its bound on fine grids (exit 3, NotOnShell at level 1)",
)
@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--ic", "uniform:0.1", "--n-space", "256", "--n-steps", "20"),
        ("run", "--ic", "cosine:0.1", "--n-space", "512", "--n-steps", "2", "--diagnostics", "mff"),
    ],
    ids=["check_uniform_256", "run_mff_512"],
)
def test_fine_grid_trajectories_pass_the_on_shell_gate(tmp_path, capsys, argv):
    # Uniform translation is an exact solution and the cosine march meets
    # the Newton tolerance, so both should exit 0.
    code = run_cli(*argv, "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_OK, capsys.readouterr().err


def test_config_file_inject_off_shell_without_the_flag(tmp_path):
    cfg = tmp_path / "check.cfg"
    cfg.write_text("inject_off_shell = true\nic = cosine:0.1\nn_space = 16\nn_steps = 8\n")
    code = run_cli("check", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_CHECK
    report = json.loads((tmp_path / "o" / "check.json").read_text())
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["noether_boundary_sum_on_shell"] == "FAIL"


def test_config_file_rejects_malformed_lines(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_space 16\n")
    assert run_cli("run", "--config", str(bad)) == EXIT_CONFIG
    bad.write_text("n_space = sixteen\n")
    assert run_cli("run", "--config", str(bad)) == EXIT_CONFIG
    ok = tmp_path / "ok.cfg"
    ok.write_text("\n# comment only\nn_space = 8  # trailing comment\nn_steps = 2\n")
    assert run_cli("run", "--config", str(ok), "--out-dir", str(tmp_path / "o")) == EXIT_OK


def test_converge_validation_errors(tmp_path, capsys):
    base = ["converge", "--ic", "uniform:0.2", "--n-space", "8", "--n-steps", "4",
            "--out-dir", str(tmp_path / "c")]
    assert run_cli(*base, "--levels", "1") == EXIT_CONFIG
    assert run_cli(*base, "--levels", "1,2") == EXIT_CONFIG
    assert run_cli(*base, "--levels", "1,3,5") == EXIT_CONFIG  # 3 does not divide 5
    assert run_cli(*base, "--levels", "2,2,4") == EXIT_CONFIG
    capsys.readouterr()
    for levels, message in [
        ("1,x,4", "levels: invalid literal for int() with base 10: 'x'"),
        ("0,1,2", "levels: factors must be positive integers"),
    ]:
        assert run_cli(*base, "--levels", levels) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_converge_uniform_reports_exact(tmp_path, capsys):
    out = tmp_path / "conv"
    code = run_cli(
        "converge", "--ic", "uniform:0.2", "--n-space", "8", "--n-steps", "4",
        "--out-dir", str(out), "--levels", "1,2,4",
    )
    assert code == EXIT_OK
    report = json.loads((out / "convergence.json").read_text())
    assert report["orders"] == ["exact"]
    assert "exact" in capsys.readouterr().out


def test_converge_order_from_an_exactly_zero_level(tmp_path):
    # The three coarse points miss the narrow bump, so the coarsest level
    # is at rest and its residuals are exactly zero: no order from it.
    out = tmp_path / "conv0"
    code = run_cli("converge", "--ic", "gaussian_bump:0.25,0.0625", "--n-space", "3",
                   "--n-steps", "5", "--out-dir", str(out))
    assert code == EXIT_OK
    report = json.loads((out / "convergence.json").read_text())
    assert report["levels"][0]["bridges"]["conservation_residual_max"] == 0.0
    assert report["bridges_orders"]["conservation_residual_max"][0] is None


def test_converge_cosine_first_order(tmp_path):
    out = tmp_path / "conv2"
    code = run_cli(
        "converge", "--ic", "cosine:0.1", "--n-space", "16", "--n-steps", "8",
        "--out-dir", str(out), "--levels", "1,2,4",
    )
    assert code == EXIT_OK
    report = json.loads((out / "convergence.json").read_text())
    assert all(o == "exact" or o >= 0.8 for o in report["orders"])


#: The check lines in report order: four identities, then three theorems.
CHECK_LINES = (
    "omega_closure_identity",
    "momentum_closure_identity",
    "linearized_gradient_identity",
    "legendre_hamiltonian_identity",
    "noether_boundary_sum_on_shell",
    "mff_boundary_sum_on_shell",
    "total_momentum_drift",
)


def test_check_passes_on_solution(tmp_path):
    out = tmp_path / "chk"
    code = run_cli(
        "check", "--ic", "cosine:0.1", "--n-space", "16", "--n-steps", "8",
        "--out-dir", str(out),
    )
    assert code == EXIT_OK
    report = json.loads((out / "check.json").read_text())
    assert report["config"]["inject_off_shell"] is False
    lines = [(c["name"], c["status"]) for c in report["checks"] if c["status"] != "INFO"]
    assert lines == [(name, "PASS") for name in CHECK_LINES]


def test_check_fails_off_shell_but_identities_pass(tmp_path):
    out = tmp_path / "chk-off"
    code = run_cli(
        "check", "--ic", "cosine:0.1", "--n-space", "16", "--n-steps", "8",
        "--out-dir", str(out), "--inject-off-shell",
    )
    assert code == EXIT_CHECK
    report = json.loads((out / "check.json").read_text())
    # The config names the perturbation that makes the theorem lines fail.
    assert report["config"]["inject_off_shell"] is True
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["noether_boundary_sum_on_shell"] == "FAIL"
    assert statuses["mff_boundary_sum_on_shell"] == "FAIL"
    assert statuses["total_momentum_drift"] == "FAIL"
    assert statuses["omega_closure_identity"] == "PASS"
    assert statuses["momentum_closure_identity"] == "PASS"
    assert statuses["linearized_gradient_identity"] == "PASS"
    assert statuses["legendre_hamiltonian_identity"] == "PASS"


def test_check_without_an_interior_level_exits_two(tmp_path, capsys):
    # Two levels leave the theorem lines nothing to test but closure
    # identities, so even an off-shell trajectory would pass.
    out = tmp_path / "chk0"
    code = run_cli(
        "check", "--ic", "cosine:0.1", "--n-space", "16", "--n-steps", "0",
        "--out-dir", str(out), "--inject-off-shell",
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: n_steps:") and err.count("\n") == 1, err
    assert not out.exists()


def test_check_on_a_breaking_trajectory_names_the_step(tmp_path, capsys):
    out = tmp_path / "chk-break"
    code = run_cli("check", "--ic", "cosine:1.5", "--n-space", "64", "--n-steps", "400",
                   "--out-dir", str(out))
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver abort: trajectory aborted at step 33: wave breaking:")
    assert err.count("\n") == 1, err
    assert not (out / "check.json").exists()


def test_check_on_a_breaking_trajectory_creates_no_output_directory(tmp_path):
    out = tmp_path / "chk-break" / "nested"
    code = run_cli("check", "--ic", "cosine:1.5", "--n-space", "64", "--n-steps", "400",
                   "--out-dir", str(out))
    assert code == EXIT_SOLVER
    assert not (tmp_path / "chk-break").exists()


def test_check_into_an_unusable_directory_exits_two(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    code = run_cli("check", "--ic", "cosine:0.1", "--n-space", "8", "--n-steps", "2",
                   "--out-dir", str(tmp_path / "file" / "o"))
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: out_dir: cannot create ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_check_reports_the_bridges_fields_a_short_run_has(tmp_path, capsys):
    # Three steps give the phase field three levels: one for the Hamilton
    # and field-equation residuals, none for the conservation residual.
    out = tmp_path / "chk3"
    code = run_cli("check", "--ic", "cosine:0.1", "--n-space", "16", "--n-steps", "3",
                   "--out-dir", str(out))
    assert code == EXIT_OK
    info = [c["name"] for c in json.loads((out / "check.json").read_text())["checks"]
            if c["status"] == "INFO"]
    assert info == ["hamilton_residuals_max", "continuous_el_residual_max"]
    assert capsys.readouterr().out.count("INFO:") == 2


def test_legendre_check_fails_on_a_wrong_momentum(tmp_path, capsys, monkeypatch):
    """The Legendre line compares two independent forms of H, so a wrong
    ptx momentum makes it fail; every other check still passes."""
    real = bridges.legendre

    def wrong_ptx(*jet):
        z = real(*jet)
        z[..., 5] *= 1.01
        return z

    monkeypatch.setattr(bridges, "legendre", wrong_ptx)
    out = tmp_path / "chk-legendre"
    code = run_cli(
        "check", "--ic", "cosine:0.1", "--n-space", "16", "--n-steps", "10",
        "--out-dir", str(out),
    )
    assert code == EXIT_CHECK
    assert "FAIL: legendre_hamiltonian_identity" in capsys.readouterr().out
    report = json.loads((out / "check.json").read_text())
    failed = [c["name"] for c in report["checks"] if c["status"] == "FAIL"]
    assert failed == ["legendre_hamiltonian_identity"]


@pytest.mark.parametrize(
    "partial, vertex, failed",
    [
        # L_aa enters the bottom-edge terms only: the bands and the
        # closure miss it, the complex-step line does not.
        ("aa", 1, ["linearized_gradient_identity"]),
        # L_ba alone makes the Hessian asymmetric, and the two-form sums
        # of the theorem line no longer telescope either.
        ("ba", 3, ["omega_closure_identity", "linearized_gradient_identity",
                   "mff_boundary_sum_on_shell"]),
    ],
    ids=["L_aa", "L_ba"],
)
def test_check_identity_lines_fail_on_a_wrong_second_partial(
    tmp_path, capsys, monkeypatch, partial, vertex, failed
):
    """One second partial off by 1 % in the linearized gradient: the term
    that L_aa adds to the gradient of vertex 2 (through dL/da / h), or L_ba
    to vertex 4 (through dL/db / k), is scaled by 1.01, and vertex 1
    balances it."""
    real = geometry_checks._linear_terms

    def wrong(a, b, c, h, k, vlo, vhi):
        terms = real(a, b, c, h, k, vlo, vhi)
        da = (np.roll(vlo, -1, axis=-1) - vlo) / h
        extra = 0.01 * da * (c * c / a**3 / h if partial == "aa" else b / k)
        terms[0] -= extra
        terms[vertex] += extra
        return terms

    monkeypatch.setattr(geometry_checks, "_linear_terms", wrong)
    out = tmp_path / f"chk-{partial}"
    code = run_cli(
        "check", "--ic", "cosine:0.1", "--n-space", "16", "--n-steps", "10",
        "--out-dir", str(out),
    )
    assert code == EXIT_CHECK
    report = json.loads((out / "check.json").read_text())
    assert [c["name"] for c in report["checks"] if c["status"] == "FAIL"] == failed
    assert f"FAIL: {failed[0]}" in capsys.readouterr().out


def test_rest_check_all_pass(tmp_path):
    code = run_cli(
        "check", "--ic", "rest", "--n-space", "8", "--n-steps", "4",
        "--out-dir", str(tmp_path / "chk-rest"),
    )
    assert code == EXIT_OK


def test_help_and_missing_command():
    assert run_cli("run", "--help") == EXIT_OK
    assert run_cli("--help") == EXIT_OK
    assert run_cli() == EXIT_CONFIG  # a subcommand is required


def test_run_gaussian_bump(tmp_path):
    out = tmp_path / "bump"
    code = run_cli(
        "run", "--ic", "gaussian_bump:0.05,0.8", "--n-space", "24", "--n-steps", "6",
        "--out-dir", str(out),
    )
    assert code == EXIT_OK
    report = json.loads((out / "diagnostics.json").read_text())
    assert report["summary"]["status"] == "ok"
    for w in report["windows"]:
        assert abs(w["noether_boundary_sum"]) <= 1e-9 * w["noether_abs_sum"]


def test_json_floats_parse_back(tmp_path):
    out = tmp_path / "round"
    run_cli("run", "--ic", "cosine:0.05", "--n-space", "8", "--n-steps", "4",
            "--out-dir", str(out))
    text = (out / "diagnostics.json").read_text()
    report = json.loads(text)
    assert isinstance(report["summary"]["momentum_drift_max"], float)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "args",
    [
        ("--domain-length", "1e-300"),
        ("--cfl", "1e-300", "--diagnostics", "all"),
        ("--ic", "rest", "--cfl", "1e300", "--diagnostics", "all"),
    ],
)
def test_extreme_finite_grids_exit_two(tmp_path, capsys, args):
    # h*k or the Jacobian corner entry 1/(a h^2 k^2) leaves the floats:
    # rejected up front instead of a warning and a "zero pivot" abort.
    out = tmp_path / "o"
    code = run_cli("run", "--ic", "cosine:0.1", "--n-space", "16", "--n-steps", "4", *args,
                   "--out-dir", str(out))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: grid:") and err.count("\n") == 1
    assert not (out / "diagnostics.json").exists()


def _maybe(strategy):
    return st.one_of(st.none(), strategy)


def _float_text(*ranges):
    """Any float (nan, inf, subnormal, huge) or one from the given ranges."""
    return st.one_of(st.floats(), *(st.floats(lo, hi) for lo, hi in ranges)).map(repr)


_IC = st.one_of(
    st.just("rest"),
    _float_text((-1.0, 1.0)).map("uniform:{}".format),
    _float_text((-1.0, 1.0)).map("cosine:{}".format),
    st.tuples(_float_text((-1.0, 1.0)), _float_text((0.01, 3.0))).map(
        lambda aw: f"gaussian_bump:{aw[0]},{aw[1]}"
    ),
)

_FLAGS = {
    "--n-space": st.integers(-1, 16).map(str),
    "--n-steps": st.integers(-1, 8).map(str),
    "--cfl": _maybe(_float_text((0.01, 4.0))),
    "--domain-length": _maybe(_float_text((0.1, 100.0))),
    "--ic": _maybe(_IC),
    "--diagnostics": _maybe(st.sampled_from(["none", "all", "noether", "mff", "bridges"])),
    "--tol-residual": _maybe(_float_text((1e-16, 1e-6))),
    "--max-iters": _maybe(st.integers(-1, 60).map(str)),
    "--save-every": _maybe(st.integers(0, 10).map(str)),
    "--seed": _maybe(st.integers(-1, 2**32).map(str)),
}


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["run", "check", "converge"]),
    flags=st.fixed_dictionaries(_FLAGS),
    joined=st.booleans(),
)
def test_main_exit_codes_on_fuzzed_flags(command, flags, joined):
    """Every flag combination, with values given as --flag=value or as a
    separate token (which argparse would read as a flag, as for -1e+16 or
    -inf), ends in a documented exit code with at most one stderr line,
    and no RuntimeWarning.  A config error from separate tokens is the one
    the --flag=value spelling gives."""

    def run(join):
        args = [command]
        for flag, value in flags.items():
            if value is not None:
                args += [f"{flag}={value}"] if join else [flag, value]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(args + ["--out-dir", out])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_CHECK), args
        assert err.getvalue().count("\n") <= 1, (args, err.getvalue())
        return code, err.getvalue()

    outcome = run(joined)
    if not joined and outcome[0] == EXIT_CONFIG:
        assert outcome == run(True), flags


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


# Text a config value can hold: one line, no comment, no edge whitespace.
_GARBAGE = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r#"), max_size=12
).map(str.strip)

# A value for every setting but out_dir, mostly in range ...
_IN_RANGE = {
    "n_space": st.integers(3, 16).map(str),
    "n_steps": st.integers(0, 8).map(str),
    "domain_length": st.floats(0.1, 100.0).map(repr),
    "cfl": st.floats(0.01, 4.0).map(repr),
    "ic": _IC,
    "save_every": st.integers(1, 10).map(str),
    "seed": st.integers(0, 2**32).map(str),
    "diagnostics": st.sampled_from(["none", "all", "noether", "mff", "bridges"]),
    "tol_residual": st.floats(1e-16, 1e-6).map(repr),
    "max_iters": st.integers(1, 60).map(str),
    "inject_off_shell": st.sampled_from(["true", "false", "1", "0", "yes", "no"]),
}
# ... and values that may be out of range, or garbage text.  Those of an
# int setting are at most 0 or do not parse as an int, so n_space stays
# <= 16 and n_steps <= 8.
_OUT_OF_RANGE = {
    key: st.one_of(
        _GARBAGE.filter(lambda t: not _is_int(t)),
        st.integers(max_value=0).map(str),
    )
    if type(DEFAULTS[key]) is int
    else st.one_of(_GARBAGE, st.floats().map(repr))
    for key in _IN_RANGE
}
_OUT_OF_RANGE_ITEM = st.sampled_from(list(_IN_RANGE)).flatmap(
    lambda key: st.tuples(st.just(key), _OUT_OF_RANGE[key])
)


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["run", "check", "converge"]),
    values=st.fixed_dictionaries(_IN_RANGE),
    bad=st.lists(_OUT_OF_RANGE_ITEM, max_size=3),
)
def test_main_exit_codes_on_fuzzed_config_files(command, values, bad):
    """A --config file with every setting, up to three of them out of
    range or garbage, ends in a documented exit code with at most one
    stderr line and no RuntimeWarning.  A config error from the file is
    the one the same values give as --flag=value flags."""
    values = {**values, **dict(bad)}
    # The file lists the settings in RunConfig's order, so inject_off_shell,
    # which has no value flag, is parsed last either way.
    keys = [key for key in DEFAULTS if key in values]

    def run(out, flags):
        lines = [f"out_dir = {out}"] + [f"{key} = {values[key]}" for key in keys if key not in flags]
        cfg = Path(out) / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = [command, "--config", str(cfg)]
        args += [f"--{key.replace('_', '-')}={values[key]}" for key in keys if key in flags]
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(args)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_CHECK), args
        assert err.getvalue().count("\n") <= 1, (args, err.getvalue())
        return code, err.getvalue()

    with tempfile.TemporaryDirectory() as out:
        outcome = run(out, ())
        if outcome[0] == EXIT_CONFIG:
            assert outcome == run(out, set(values) - {"inject_off_shell"}), values


def test_short_run_reports_each_bridges_field_it_has(tmp_path):
    # Four steps leave the phase field three levels: enough for the
    # Hamilton and field-equation residuals, too few for the conservation
    # residual, which alone is null.
    out = tmp_path / "short"
    code = run_cli("run", "--ic", "cosine:0.1", "--n-space", "16", "--n-steps", "4",
                   "--diagnostics", "bridges", "--out-dir", str(out))
    assert code == EXIT_OK
    summary = json.loads((out / "diagnostics.json").read_text())["summary"]
    assert list(summary["bridges"].items()) == [
        ("conservation_residual_max", None),
        ("hamilton_residuals_max", 0.0038018498544144658),
        ("continuous_el_residual_max", 0.0023637812193842474),
    ]


def test_bridges_summary_builds_the_jets_once_per_block(monkeypatch):
    calls = []
    real = bridges._jets

    def counting(y, g):
        calls.append(len(y))
        return real(y, g)

    monkeypatch.setattr(bridges, "_jets", counting)
    one = cosine_trajectory(n_space=16, n_steps=8).section
    long = random_section(GridSpec.from_circle(16, 720, TWO_PI, 0.25), np.random.default_rng(7))
    for s, n_blocks in ((one, 1), (long, 3)):
        blocks = bridges._blocks(s.grid.n_time, s.grid.n_space)
        assert len(blocks) == n_blocks
        calls.clear()
        assert None not in bridges.residual_maxima(s).values()
        assert calls == [hi - lo for lo, hi in blocks]


@pytest.mark.filterwarnings("error")
def test_gaussian_bump_subnormal_width_is_silent(tmp_path):
    # d / width overflows to inf; the bump's limit exp(-inf) = 0 is exact.
    code = run_cli("run", "--ic", "gaussian_bump:0.1,1e-320", "--n-space", "8",
                   "--n-steps", "2", "--out-dir", str(tmp_path / "thin"))
    assert code == EXIT_OK


def _fresh_python(*args, cwd):
    src = str(Path(chms.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_main(tmp_path):
    proc = _fresh_python("-m", "chms.cli", "run", "--cfl", "nan", "--n-space", "8",
                         "--out-dir", str(tmp_path / "o"), cwd=tmp_path)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("config error:")


def test_cli_import_does_not_load_scipy(tmp_path):
    # SciPy would add about 0.2 s of start-up and 26 MiB of memory to every run.
    proc = _fresh_python("-c", "import sys, chms.cli; assert 'scipy' not in sys.modules",
                         cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_run_loads_only_the_standard_library_numpy_and_chms(tmp_path):
    # The benchmark's setup_s and peak_rss_mb count every module a run
    # imports.  Each module loaded beyond a bare interpreter's, by the
    # import and by a run with every diagnostic, must come from the
    # standard library, NumPy or chms; NumPy's Cython extensions register
    # cython_runtime and a _cython_<version> module of their own.
    argv = ["run", "--ic", "cosine:0.1", "--n-space", "16", "--n-steps", "8",
            "--diagnostics", "all", "--out-dir", str(tmp_path / "o")]
    code = ("import sys; before = set(sys.modules); from chms.cli import main; "
            f"code = main({argv!r}); print(code, *sorted(set(sys.modules) - before))")
    proc = _fresh_python("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    exit_code, *loaded = proc.stdout.split()
    assert exit_code == str(EXIT_OK) and "chms.cli" in loaded and "numpy" in loaded
    allowed = sys.stdlib_module_names | {"numpy", "chms", "cython_runtime"}
    foreign = [m for m in loaded if m.split(".")[0] not in allowed and not m.startswith("_cython_")]
    assert foreign == []
