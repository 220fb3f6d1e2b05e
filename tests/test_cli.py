"""Command-line front end: outputs, exit codes, idempotence."""
import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import asianpde
from asianpde import acceptance, cli
from asianpde.cli import EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, run
from asianpde.fd import load_grid

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib


def run_cli(args, capsys):
    code = run(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def body(text):
    """CSV body: everything after the timestamp comment line."""
    lines = text.strip().splitlines()
    assert lines[0].startswith("# created ")
    return "\n".join(lines[1:])


def test_kernel_command_origin_value(capsys):
    code, out, _ = run_cli(["kernel", "--kind", "k", "--lambda", "1",
                            "--point", "0,0,1", "--pole", "0,0,0"], capsys)
    assert code == EXIT_OK
    assert float(out.strip()) == pytest.approx(math.sqrt(3) / (2 * math.pi),
                                               rel=1e-12)


def test_run_builds_its_parser_once_and_keeps_defaults(monkeypatch, capsys):
    # the second run omits the --lambda the first set, and gets the default
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    argv = ["kernel", "--kind", "k", "--point", "0,0,1", "--pole", "0,0,0"]
    _, first, _ = run_cli(argv + ["--lambda", "2"], capsys)
    _, second, _ = run_cli(argv, capsys)
    assert len(built) == 1
    assert float(first) != float(second)
    assert float(second) == pytest.approx(math.sqrt(3) / (2 * math.pi),
                                          rel=1e-12)


def test_kernel_command_l_kind(capsys):
    code, out, _ = run_cli(["kernel", "--kind", "l", "--lambda", "1",
                            "--point", "1,0,1", "--pole", "1,1,0"], capsys)
    assert code == EXIT_OK
    assert float(out.strip()) > 0.27  # strictly inside the support


def test_psi_command_zero_case(capsys):
    code, out, _ = run_cli(["psi", "--start", "1,-2,2", "--end", "1,0,0"],
                           capsys)
    assert code == EXIT_OK
    assert out.startswith("0.0 branch=upper")


def test_price_command_csv(tmp_path, capsys):
    out_path = str(tmp_path / "price.csv")
    code, out, _ = run_cli(["price", "--kind", "geometric", "--sigma", "0.4",
                            "--strike", "1.0", "--maturity", "1.0",
                            "--spot", "1.0", "--method", "kernel",
                            "--output", out_path], capsys)
    assert code == EXIT_OK
    rows = open(out_path).read().strip().splitlines()
    assert rows[1] == "spec,price,error,method"
    assert "kernel" in rows[2]
    assert abs(float(out.strip()) - 0.0848477) < 1e-4


# calls at tol 1e-5, rate 0 and sigma^2 T = 2.  Arithmetic: price and the
# estimate of the tensor rule in (w, log u), which tabulated theta in log z,
# held within 1e-9 and below the estimate.  Geometric: the printed price and
# estimate of the rotated rule, Gauss-Hermite on the outer axis, held
# exactly.
PRICE_PINS = [
    # (sigma, spot, strike, price, estimate, kind)
    (1.1, 1.0, 1.05, 0.8641755492340777, 1.046920101285972e-06,
     "arithmetic"),
    (1.45, 0.9, 1.1, 0.7024050963160405, 1.042218365025174e-06,
     "arithmetic"),
    (1.3, 1.1, 0.02, 1.8701100111898747, 1.0516934274228884e-06,
     "arithmetic"),
    (1.1, 1.0, 1.05, 0.20853626254395344, 1.0000000000277557e-06,
     "geometric"),
    (1.45, 0.9, 1.1, 0.15331550910057698, 1.0000000000000002e-06,
     "geometric"),
    (1.3, 1.1, 0.02, 0.9111299232708329, 1.000000000333067e-06,
     "geometric"),
]


@pytest.mark.parametrize("sigma,spot,strike,ref,ref_err,kind", PRICE_PINS)
def test_price_arithmetic_pinned_values(sigma, spot, strike, ref, ref_err,
                                        kind, capsys):
    code, out, _ = run_cli(
        ["price", "--kind", kind, "--sigma", repr(sigma),
         "--rate", "0", "--spot", repr(spot), "--strike", repr(strike),
         "--maturity", repr(2.0 / sigma**2), "--tol", "1e-5"], capsys)
    assert code == EXIT_OK
    _, value, err, _ = out.strip().splitlines()[-1].split(",")
    if kind == "geometric":
        assert (float(value), float(err)) == (ref, ref_err)
    else:
        assert abs(float(value) - ref) <= 1e-9
        assert float(err) <= ref_err


def test_price_idempotent_bodies(tmp_path, capsys):
    args = ["price", "--kind", "geometric", "--sigma", "0.4", "--method",
            "mc", "--paths", "20000", "--steps", "32", "--seed", "9"]
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run_cli(args + ["--output", p1], capsys)[0] == EXIT_OK
    assert run_cli(args + ["--output", p2], capsys)[0] == EXIT_OK
    assert body(open(p1).read()) == body(open(p2).read())


def test_price_arithmetic_mc_honours_the_rate(capsys):
    # Linetsky (2004) case r = 0.05, sigma = 0.5, T = 1, S0 = K = 2
    code, out, _ = run_cli(
        ["price", "--kind", "arithmetic", "--method", "mc", "--rate", "0.05",
         "--sigma", "0.5", "--spot", "2", "--strike", "2", "--paths",
         "20000", "--steps", "64", "--seed", "2"], capsys)
    assert code == EXIT_OK
    _, value, se, _ = out.strip().splitlines()[-1].split(",")
    assert abs(float(value) - 0.2464156905) <= 4.0 * float(se)


def test_mc_command(tmp_path, capsys):
    out_path = str(tmp_path / "mc.csv")
    code, _, _ = run_cli(["mc", "--sigma", "1.0", "--mu", "-0.5",
                          "--paths", "20000", "--steps", "32",
                          "--seed", "4", "--output", out_path], capsys)
    assert code == EXIT_OK
    text = open(out_path).read()
    assert "mean_S" in text and "se_A" in text
    mean_s = float(body(text).splitlines()[1].split(",")[1])
    assert abs(mean_s - 1.0) < 0.05  # driftless price


def test_fd_solve_writes_grid(tmp_path, capsys):
    out_path = str(tmp_path / "k.grid")
    code, out, _ = run_cli(["fd-solve", "--kind", "k", "--nx", "65",
                            "--ny", "65", "--nt", "64",
                            "--out", out_path], capsys)
    assert code == EXIT_OK
    frames, info = load_grid(out_path)
    assert info["nx"] == 65 and frames.shape[0] == 1
    assert abs(frames.sum() * (8 / 64) * (2.4 / 64) - 1.0) < 0.05


def test_fd_solve_l_defaults_work(tmp_path, capsys):
    # grid and pole defaults follow --kind, so the price family runs as is
    out_path = str(tmp_path / "l.grid")
    code, out, _ = run_cli(["fd-solve", "--kind", "l", "--out", out_path],
                           capsys)
    assert code == EXIT_OK
    frames, info = load_grid(out_path)
    assert info["kind"] == "L" and np.all(frames >= 0.0)
    mass = float(re.search(r"final mass ([0-9.e+-]+)", out).group(1))
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_validate_reproduction_suite(tmp_path, capsys):
    out_path = str(tmp_path / "rep.csv")
    code, _, err = run_cli(["validate", "--suite", "2",
                            "--output", out_path], capsys)
    assert code == EXIT_OK
    rows = list(csv.reader(body(open(out_path).read()).splitlines()))
    assert rows[0] == ["criterion", "pass", "seconds", "detail"]
    (n, passed, _, detail), = rows[1:]  # the detail's comma stays quoted
    assert (n, passed) == ("2", "True")
    assert detail.startswith("L1 discrepancy = ") and ", runtime" in detail


def test_validate_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(acceptance.CRITERIA, 1, lambda: (False, "forced"))
    code, out, err = run_cli(["validate", "--suite", "1"], capsys)
    assert code == EXIT_VALIDATION
    report = json.loads(err.strip().splitlines()[-1])
    assert report == {"suite": "1", "failed": [1], "n_cases": 1}
    (n, passed, _, detail), = list(csv.reader(body(out).splitlines()))[1:]
    assert (n, passed, detail) == ("1", "False", "forced")


def test_validate_unknown_suite(capsys):
    code, _, err = run_cli(["validate", "--suite", "nope"], capsys)
    assert code == EXIT_USAGE
    assert "suite" in err


def test_usage_error_bad_point(capsys):
    code, _, err = run_cli(["kernel", "--kind", "k", "--point", "oops",
                            "--pole", "0,0,0"], capsys)
    assert code == EXIT_USAGE
    assert "--point" in err


def test_config_option_is_gone(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma=0.4\n")
    code, _, err = run_cli(["price", "--kind", "geometric", "--sigma", "0.4",
                            "--config", str(cfg)], capsys)
    assert code == EXIT_USAGE
    assert "--config" in err


def test_help_documents_csv_columns():
    from asianpde.cli import build_parser
    text = build_parser().format_help()
    for token in ("price", "error", "method", "criterion", "seconds",
                  "detail", "mean_S", "cost", "branch"):
        assert token in text


KERNEL_ARGS = ["kernel", "--kind", "k", "--lambda", "1",
               "--point", "0,0,1", "--pole", "0,0,0"]


def _child_env():
    """Environment in which a fresh interpreter imports the same asianpde."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(asianpde.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}


def test_console_entry_point():
    # run the declared console-script target the way pip's generated
    # wrapper does, so no install is needed
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["asianpde"]
    module, attr = target.split(":")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.exit({attr}())",
         *KERNEL_ARGS],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.strip()) == pytest.approx(0.27566444771089604)


@pytest.mark.skipif(shutil.which("asianpde") is None,
                    reason="asianpde console script not installed")
def test_installed_console_script():
    proc = subprocess.run(["asianpde", *KERNEL_ARGS],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(0.27566444771089604)


@pytest.mark.parametrize("module", ["asianpde", "asianpde.cli"])
def test_python_m_runs_cli(module, capsys):
    code, expected, _ = run_cli(KERNEL_ARGS, capsys)
    assert code == EXIT_OK
    proc = subprocess.run([sys.executable, "-m", module, *KERNEL_ARGS],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == expected


@pytest.mark.parametrize("argv, text", [
    (["kernel", "--kind", "k", "--point", "oops", "--pole", "0,0,0"],
     "--point"),
    # Yor times below the reliable range of the oscillatory integral
    (["price", "--kind", "arithmetic", "--sigma", "0.1"],
     "below the reliable range"),
    (["kernel", "--kind", "l", "--point", "1,0,1", "--pole", "1.2,0.8,0.95"],
     "below the reliable range"),
    # a price whose error estimate misses --tol is refused
    (["price", "--kind", "arithmetic", "--sigma", "0.5"], "above tol"),
    # the price-family kernel has no discounting, so it refuses a rate
    (["price", "--kind", "arithmetic", "--sigma", "1.4142135623730951",
      "--rate", "0.05"], "r = 0"),
    # out-of-range contract inputs are refused before any arithmetic on them
    (["price", "--kind", "geometric", "--sigma", "0.4", "--maturity", "0"],
     "maturity must be positive"),
    (["price", "--kind", "geometric", "--sigma", "0.4", "--strike", "0"],
     "maturity must be positive"),
    (["price", "--kind", "geometric", "--sigma", "0.4", "--spot", "0"],
     "--spot must be positive"),
    (["price", "--kind", "geometric", "--sigma", "0.4", "--tol", "0"],
     "tol must be positive"),
    (["price", "--kind", "geometric", "--sigma", "0.4", "--tol", "-1"],
     "tol must be positive"),
    # non-finite contract, model and tolerance inputs are refused by name
    (["price", "--kind", "arithmetic", "--sigma", "1.4", "--maturity", "inf"],
     "maturity must be positive and finite"),
    (["price", "--kind", "arithmetic", "--sigma", "nan"],
     "sigma must be positive and finite"),
    (["price", "--kind", "geometric", "--sigma", "0.4", "--rate", "nan"],
     "rate must be finite"),
    (["price", "--kind", "geometric", "--sigma", "0.4", "--rate", "inf"],
     "rate must be finite"),
    (["price", "--kind", "geometric", "--sigma", "nan"],
     "sigma must be positive and finite"),
    (["price", "--kind", "geometric", "--sigma", "inf"],
     "sigma must be positive and finite"),
    (["price", "--kind", "geometric", "--sigma", "0.4", "--spot", "inf"],
     "--spot must be positive and finite"),
    (["price", "--kind", "geometric", "--sigma", "0.4", "--maturity", "inf"],
     "maturity must be positive and finite"),
    (["price", "--kind", "geometric", "--sigma", "0.4", "--tol", "inf"],
     "tol must be positive and finite"),
    # the price family needs a positive pole price
    (["fd-solve", "--kind", "l", "--pole", "0,0,0", "--out", "l.grid"],
     "pole needs x > 0"),
    # each range is exactly two floats
    (["fd-solve", "--trange", "0", "--out", "k.grid"], "--trange"),
    (["fd-solve", "--yrange", "1", "--out", "k.grid"], "--yrange"),
    (["fd-solve", "--trange", "0,0.5,3", "--out", "k.grid"], "--trange"),
    # diffusion must be finite, and one that swamps the identity in
    # I - dt*D leaves no usable factorization
    (["fd-solve", "--lambda", "inf", "--out", "k.grid"], "lam"),
    (["fd-solve", "--lambda", "1e308", "--out", "k.grid"], "singular"),
    # each range must be finite and increasing
    (["fd-solve", "--yrange", "1,1", "--out", "k.grid"], "y range"),
    (["fd-solve", "--xrange", "1,-1", "--out", "k.grid"], "x range"),
    (["fd-solve", "--xrange", "nan,1", "--out", "k.grid"], "x range"),
    # Yor times where theta overflows, or the s range leaves the normal
    # doubles, are refused before they allocate
    (["kernel", "--kind", "l", "--point", "1,0,1e6", "--pole", "1.2,0.8,0"],
     "not finite"),
    (["price", "--kind", "arithmetic", "--sigma", "1.2", "--maturity", "1e4"],
     "too long"),
    (["price", "--kind", "arithmetic", "--sigma", "1.2", "--maturity",
      "1e12"], "too long"),
    (["price", "--kind", "arithmetic", "--sigma", "1.2", "--maturity",
      "1e20"], "too long"),
    # non-finite kernel and simulation inputs
    (["kernel", "--kind", "k", "--point", "nan,0,1", "--pole", "0,0,0"],
     "--point must be finite"),
    (["kernel", "--kind", "l", "--point", "1,0,1", "--pole", "1.2,0.8,0",
      "--lambda", "inf"], "lambda must be positive and finite"),
    (["kernel", "--kind", "l", "--point", "1,0,1", "--pole", "1.2,0.8,0",
      "--tol", "nan"], "tol must be positive and finite"),
    # outside the support (y >= eta, or t <= tau) the kernel is 0, but the
    # tol and lambda are still checked
    (["kernel", "--kind", "l", "--point", "1,1,1", "--pole", "1.2,0.8,0",
      "--tol", "nan"], "tol must be positive and finite"),
    (["kernel", "--kind", "l", "--point", "1,0,0", "--pole", "1.2,0.8,1",
      "--tol", "0"], "tol must be positive and finite"),
    (["kernel", "--kind", "l", "--point", "1,1,1", "--pole", "1.2,0.8,0",
      "--tol", "-1"], "tol must be positive and finite"),
    (["kernel", "--kind", "l", "--point", "1,0,0", "--pole", "1.2,0.8,1",
      "--tol", "-1"], "tol must be positive and finite"),
    (["kernel", "--kind", "k", "--point", "0,0,1", "--pole", "0,0,0",
      "--lambda", "0"], "lambda must be positive and finite"),
    (["kernel", "--kind", "k", "--point", "0,0,1", "--pole", "0,0,0",
      "--lambda", "nan"], "lambda must be positive and finite"),
    (["mc", "--sigma", "nan", "--paths", "10"], "sigma must be finite"),
    (["mc", "--sigma", "1", "--mu", "nan", "--paths", "10"],
     "mu must be finite"),
    (["mc", "--sigma", "inf", "--paths", "10"], "sigma must be finite"),
    (["mc", "--sigma", "1", "--spot", "inf", "--paths", "10"],
     "starting price must be positive and finite"),
    (["mc", "--sigma", "1", "--horizon", "nan", "--paths", "10"],
     "horizon must be positive and finite"),
    (["mc", "--sigma", "1", "--horizon", "inf", "--paths", "10"],
     "horizon must be positive and finite"),
], ids=["bad-point", "price-small-sigma", "kernel-short-elapsed",
        "price-missed-tol", "price-arithmetic-rate", "price-zero-maturity",
        "price-zero-strike", "price-zero-spot", "price-zero-tol",
        "price-negative-tol", "price-arithmetic-infinite-maturity",
        "price-arithmetic-nan-sigma", "price-nan-rate", "price-infinite-rate",
        "price-nan-sigma", "price-infinite-sigma", "price-infinite-spot",
        "price-infinite-maturity", "price-infinite-tol",
        "fd-solve-l-default-pole", "fd-solve-short-trange",
        "fd-solve-short-yrange", "fd-solve-long-trange",
        "fd-solve-infinite-lambda", "fd-solve-huge-lambda",
        "fd-solve-empty-yrange", "fd-solve-reversed-xrange",
        "fd-solve-nan-xrange", "kernel-long-elapsed",
        "price-arithmetic-maturity-1e4", "price-arithmetic-maturity-1e12",
        "price-arithmetic-maturity-1e20", "kernel-nan-point",
        "kernel-infinite-lambda", "kernel-nan-tol",
        "kernel-nan-tol-off-support", "kernel-zero-tol-before-pole",
        "kernel-negative-tol-off-support",
        "kernel-negative-tol-before-pole", "kernel-k-zero-lambda",
        "kernel-k-nan-lambda", "mc-nan-sigma",
        "mc-nan-mu", "mc-infinite-sigma", "mc-infinite-spot",
        "mc-nan-horizon", "mc-infinite-horizon"])
def test_python_m_usage_error_is_one_line(argv, text, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "asianpde", *argv],
                          capture_output=True, text=True, env=_child_env(),
                          cwd=tmp_path)
    assert proc.returncode == EXIT_USAGE
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and text in lines[0]
    assert "Traceback" not in proc.stderr


def test_cli_import_leaves_scipy_submodules_unloaded():
    # each is imported inside the few functions that use it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, asianpde.cli; print(sorted(m for m in sys.modules if m "
         "in ('scipy.stats', 'scipy.optimize', 'scipy.integrate', "
         "'scipy.linalg', 'asianpde.acceptance')))"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # and no quadrature rule is built at import
    proc = subprocess.run(
        [sys.executable, "-c",
         "import asianpde.cli, asianpde._quadrature as q; "
         "print(q.gauss_legendre.cache_info().currsize, "
         "q.gauss_hermite.cache_info().currsize)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 0"


def test_pricing_import_leaves_fd_unloaded():
    # pricing reads its constants from the spec, not from an FD field
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, asianpde.pricing; print('asianpde.fd' in sys.modules)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
