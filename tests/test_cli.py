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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chms
from chms.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    diagnostic_windows,
    format_float,
    main,
)
from chms.config import RunConfig, parse_initial_condition
from chms.errors import ConfigError


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
    assert failure["error"] in ("NonMonotone", "MaxItersExceeded")
    assert failure["step"] >= 1
    assert (out / "trajectory.csv").exists()  # partial trajectory saved


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


def test_run_diagnostics_failure_exits_three(tmp_path, capsys):
    # The label-form residual at n_space 512 is above the tangent-linear
    # on-shell gate, so the mff diagnostics raise NotOnShell.
    code = run_cli("run", "--ic", "cosine:0.1", "--n-space", "512", "--n-steps", "2",
                   "--diagnostics", "mff", "--out-dir", str(tmp_path / "off"))
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver abort:") and err.count("\n") == 1
    # The march completed, so its trajectory and the failure report are written.
    out = tmp_path / "off"
    assert (out / "trajectory.csv").read_text().count("\n") == 1 + 4 * 512
    summary = json.loads((out / "diagnostics.json").read_text())["summary"]
    assert summary["status"] == "aborted"
    assert summary["failure"]["stage"] == "diagnostics"
    assert summary["failure"]["error"] == "NotOnShell"
    assert "does not solve the field equations" in summary["failure"]["message"]


def test_config_file_rejects_malformed_lines(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_space 16\n")
    assert run_cli("run", "--config", str(bad)) == EXIT_CONFIG
    bad.write_text("n_space = sixteen\n")
    assert run_cli("run", "--config", str(bad)) == EXIT_CONFIG
    ok = tmp_path / "ok.cfg"
    ok.write_text("\n# comment only\nn_space = 8  # trailing comment\nn_steps = 2\n")
    assert run_cli("run", "--config", str(ok), "--out-dir", str(tmp_path / "o")) == EXIT_OK


def test_converge_validation_errors(tmp_path):
    base = ["converge", "--ic", "uniform:0.2", "--n-space", "8", "--n-steps", "4",
            "--out-dir", str(tmp_path / "c")]
    assert run_cli(*base, "--levels", "1") == EXIT_CONFIG
    assert run_cli(*base, "--levels", "1,2") == EXIT_CONFIG
    assert run_cli(*base, "--levels", "1,3,5") == EXIT_CONFIG  # 3 does not divide 5
    assert run_cli(*base, "--levels", "2,2,4") == EXIT_CONFIG


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


def test_check_passes_on_solution(tmp_path):
    out = tmp_path / "chk"
    code = run_cli(
        "check", "--ic", "cosine:0.1", "--n-space", "16", "--n-steps", "8",
        "--out-dir", str(out),
    )
    assert code == EXIT_OK
    report = json.loads((out / "check.json").read_text())
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["noether_boundary_sum_on_shell"] == "PASS"
    assert statuses["mff_boundary_sum_on_shell"] == "PASS"
    assert statuses["omega_closure_identity"] == "PASS"


def test_check_fails_off_shell_but_identities_pass(tmp_path):
    out = tmp_path / "chk-off"
    code = run_cli(
        "check", "--ic", "cosine:0.1", "--n-space", "16", "--n-steps", "8",
        "--out-dir", str(out), "--inject-off-shell",
    )
    assert code == EXIT_CHECK
    report = json.loads((out / "check.json").read_text())
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["noether_boundary_sum_on_shell"] == "FAIL"
    assert statuses["mff_boundary_sum_on_shell"] == "FAIL"
    assert statuses["total_momentum_drift"] == "FAIL"
    assert statuses["omega_closure_identity"] == "PASS"
    assert statuses["momentum_closure_identity"] == "PASS"
    assert statuses["legendre_hamiltonian_identity"] == "PASS"


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
@given(command=st.sampled_from(["run", "check", "converge"]), flags=st.fixed_dictionaries(_FLAGS))
def test_main_exit_codes_on_fuzzed_flags(command, flags):
    """Every flag combination ends in a documented exit code with at most
    one stderr line, and no RuntimeWarning."""
    # flag=value keeps argparse from reading a value such as -1e+16 as a flag.
    args = [command] + [f"{flag}={value}" for flag, value in flags.items() if value is not None]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args + ["--out-dir", out])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_CHECK), args
    assert err.getvalue().count("\n") <= 1, (args, err.getvalue())


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
