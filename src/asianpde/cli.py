"""Command-line front end: kernel/psi/price evaluation, FD solves, MC runs,
and the acceptance criteria of :mod:`asianpde.acceptance`, with CSV/JSON
artifacts.

Re-running with the same flags and seed reproduces CSV bodies byte for byte
(the timestamp lives in a leading comment line).

Without installing, run it as ``python -m asianpde`` (with ``src`` on
``PYTHONPATH``); once installed, the ``asianpde`` console script calls
:func:`main`.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import sys
from typing import Sequence

import numpy as np

from .control import ControlEndpoints, psi
from .fd import (CoefficientField, GridSpec, approximate_fundamental_solution,
                 save_grid)
from .geometry import EventPoint, GeometryKind
from .kernels import ThetaConvergenceError, gamma_k_array, gamma_l_array
from .mc import Averaging, McConfig, ModelSpec, mc_price, simulate_terminal
from .pricing import (GrowthBound, PricingSpec, ToleranceNotMetError,
                      arithmetic_call_payoff, geometric_call_payoff,
                      make_arithmetic_problem, price, transform_geometric)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2


def _parse_floats(text: str, key: str, form: str) -> tuple[float, ...]:
    """The comma-separated floats of text, as many as form has fields."""
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        values = ()
    if len(values) != len(form.split(",")):
        raise SystemExit(_usage_error(f"{key} must be '{form}', got {text!r}"))
    return values


def _parse_point(text: str, key: str) -> EventPoint:
    # the range options are left to GridSpec, which names the bad range
    values = _parse_floats(text, key, "x,y,t")
    if not all(map(math.isfinite, values)):
        raise SystemExit(_usage_error(f"{key} must be finite, got {text!r}"))
    return EventPoint(*values)


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _write_csv(path: str | None, header: Sequence[str],
               rows: Sequence[Sequence]) -> None:
    buf = io.StringIO()
    buf.write("# created " + datetime.datetime.now().isoformat() + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, float) else v
                      for v in row] for row in rows)
    text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_kernel(args) -> int:
    z = _parse_point(args.point, "--point")
    pole = _parse_point(args.pole, "--pole")
    if args.kind == "k":
        val = float(gamma_k_array(args.lam, z.x, z.y, z.t,
                                  pole.x, pole.y, pole.t))
        err = 0.0
    else:
        val, err = map(float, gamma_l_array(args.lam, z.x, z.y, z.t, pole.x,
                                            pole.y, pole.t, args.tol))
    print(f"{float(val)!r}")
    if args.output:
        _write_csv(args.output,
                   ["kind", "lambda", "point", "pole", "value", "abs_error"],
                   [[args.kind, args.lam, args.point, args.pole, val, err]])
    return EXIT_OK


def _cmd_psi(args) -> int:
    start = _parse_point(args.start, "--start")
    end = _parse_point(args.end, "--end")
    ep = ControlEndpoints(start=start, end=end)
    value = psi(ep)
    print(f"{float(value.cost)!r} branch={value.branch.value} E={float(value.E)!r}")
    if args.output:
        _write_csv(args.output, ["start", "end", "cost", "branch", "E"],
                   [[args.start, args.end, value.cost, value.branch.value,
                     value.E]])
    return EXIT_OK


def _cmd_price(args) -> int:
    sigma, rate, strike, T = args.sigma, args.rate, args.strike, args.maturity
    if not 0.0 < args.spot < math.inf:
        raise ValueError(f"--spot must be positive and finite, got "
                         f"{args.spot!r}")
    if args.kind == "geometric":
        spec = PricingSpec(payoff=geometric_call_payoff(strike, T),
                           kind=Averaging.GEOMETRIC, sigma=sigma, rate=rate,
                           growth=GrowthBound(M=1.0, C=1.5 / T),
                           kink_lines=(T * math.log(strike),))
        problem = transform_geometric(spec)
        point = EventPoint(math.log(args.spot), 0.0, T)
    else:
        spec = PricingSpec(payoff=arithmetic_call_payoff(strike, T),
                           kind=Averaging.ARITHMETIC, sigma=sigma, rate=rate,
                           growth=GrowthBound(M=2.0 + 2.0 / T, C=1.0 / T),
                           kink_lines=(T * strike,))
        problem = make_arithmetic_problem(spec)
        point = EventPoint(args.spot, 0.0, T)
    if args.method == "kernel":
        res = price(problem, point, tol=args.tol)
        est, err = res.value, res.abs_error_estimate
    else:
        model = ModelSpec(mu=rate - 0.5 * sigma * sigma, sigma=sigma, r=rate,
                          averaging=spec.kind)
        cfg = McConfig(n_paths=args.paths, n_steps=args.steps, seed=args.seed)
        est, err = mc_price(model, spec.payoff, (args.spot, 0.0, 0.0), T, cfg)
    spec_hash = f"{args.kind}:{sigma}:{rate}:{strike}:{T}:{args.spot}"
    print(f"{float(est)!r}")
    _write_csv(args.output,
               ["spec", "price", "error", "method"],
               [[spec_hash, est, err, args.method]])
    return EXIT_OK


# --xrange, --yrange and --pole per kind.  On l the x axis is w = log(price):
# k's w <= 4 gives a transport speed of e^4, which breaks the CFL limit on
# the default grid, and the pole price must be positive.
_FD_DEFAULTS = {"k": ("-4,4", "-1.2,1.2", "0,0,0"),
                "l": ("-2,1.5", "-2.5,1.0", "1,0,0")}


def _cmd_fd_solve(args) -> int:
    kind = GeometryKind.K if args.kind == "k" else GeometryKind.L
    x_default, y_default, pole_default = _FD_DEFAULTS[args.kind]
    xr = _parse_floats(args.xrange or x_default, "--xrange", "lo,hi")
    yr = _parse_floats(args.yrange or y_default, "--yrange", "lo,hi")
    tr = _parse_floats(args.trange, "--trange", "lo,hi")
    field = CoefficientField.constant(args.lam, kind=kind)
    grid = GridSpec(x_range=xr, y_range=yr, t_range=tr, nx=args.nx,
                    ny=args.ny, nt=args.nt, kind=kind)
    pole = _parse_point(args.pole or pole_default, "--pole")
    sol = approximate_fundamental_solution(field, pole, grid,
                                           delta_width=args.delta_width)
    save_grid(sol, args.out)
    print(f"wrote {args.out} (final mass {float(sol.mass_history[-1])!r})")
    return EXIT_OK


def _cmd_mc(args) -> int:
    model = ModelSpec(mu=args.mu, sigma=args.sigma,
                      averaging=Averaging.GEOMETRIC
                      if args.kind == "geometric" else Averaging.ARITHMETIC)
    cfg = McConfig(n_paths=args.paths, n_steps=args.steps, seed=args.seed,
                   antithetic=args.antithetic)
    samples = simulate_terminal(model, (args.spot, 0.0), args.horizon, cfg)
    rows = [["mean_S", float(np.mean(samples.s))],
            ["se_S", float(np.std(samples.s) / math.sqrt(args.paths))],
            ["mean_A", float(np.mean(samples.a))],
            ["se_A", float(np.std(samples.a) / math.sqrt(args.paths))]]
    _write_csv(args.output, ["quantity", "value"], rows)
    return EXIT_OK


def _cmd_validate(args) -> int:
    from . import acceptance  # only validate runs it; the import stays lazy

    suites = {str(n): [n] for n in acceptance.CRITERIA}
    suites["all"] = sorted(acceptance.CRITERIA)
    if args.suite not in suites:
        return _usage_error(
            f"--suite must be 'all' or a criterion number "
            f"{min(acceptance.CRITERIA)}..{max(acceptance.CRITERIA)}, "
            f"got {args.suite!r}"
        )
    rows = []
    for n in suites[args.suite]:
        passed, detail, seconds = acceptance.run(n)
        rows.append([n, passed, seconds, detail])
    _write_csv(args.output, ["criterion", "pass", "seconds", "detail"], rows)
    failures = [n for n, passed, _, _ in rows if not passed]
    if failures:
        report = {"suite": args.suite, "failed": failures,
                  "n_cases": len(rows)}
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------

_CSV_HELP = {
    "kernel": "columns: kind, lambda, point, pole, value, abs_error",
    "psi": "columns: start, end, cost, branch, E",
    "price": "columns: spec (kind:sigma:rate:strike:T:spot), price, error, "
             "method",
    "mc": "columns: quantity (mean_S|se_S|mean_A|se_A), value",
    "validate": "columns: criterion, pass, seconds, detail",
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="asianpde",
        description="Kernels, control values, FD solves, MC runs and "
                    "acceptance criteria for averaged-payoff option models.",
        epilog="CSV artifacts start with one '# created <timestamp>' comment "
               "line; bodies are byte-identical across reruns with the same "
               "flags and seed. " + "; ".join(
                   f"{k}: {v}" for k, v in sorted(_CSV_HELP.items())),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--output", default=None,
                        help="CSV artifact path (stdout when omitted)")

    sp = sub.add_parser("kernel", help="evaluate a closed-form kernel; "
                                       + _CSV_HELP["kernel"])
    sp.add_argument("--kind", choices=["k", "l"], required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0,
                    help="diffusion constant sigma^2/2")
    sp.add_argument("--point", required=True, help="evaluation point x,y,t")
    sp.add_argument("--pole", required=True, help="pole xi,eta,tau")
    sp.add_argument("--tol", type=float, default=1e-8)
    add_common(sp)
    sp.set_defaults(func=_cmd_kernel)

    sp = sub.add_parser("psi", help="optimal-control value; "
                                    + _CSV_HELP["psi"])
    sp.add_argument("--start", required=True, help="start point x,y,t")
    sp.add_argument("--end", required=True, help="end point x,y,t")
    add_common(sp)
    sp.set_defaults(func=_cmd_psi)

    sp = sub.add_parser("price", help="averaged-payoff call price; "
                                      + _CSV_HELP["price"])
    sp.add_argument("--kind", choices=["geometric", "arithmetic"],
                    required=True)
    sp.add_argument("--sigma", type=float, required=True)
    sp.add_argument("--rate", type=float, default=0.0)
    sp.add_argument("--strike", type=float, default=1.0)
    sp.add_argument("--maturity", type=float, default=1.0)
    sp.add_argument("--spot", type=float, default=1.0)
    sp.add_argument("--method", choices=["kernel", "mc"], default="kernel")
    sp.add_argument("--paths", type=int, default=100_000)
    sp.add_argument("--steps", type=int, default=256)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--seed", type=int, default=0, help="seed of MC paths")
    add_common(sp)
    sp.set_defaults(func=_cmd_price)

    sp = sub.add_parser("fd-solve", help="finite-difference kernel slice to "
                                         "a binary grid file")
    sp.add_argument("--kind", choices=["k", "l"], default="k")
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sp.add_argument("--xrange", help="default -4,4 for k; -2,1.5 (log price) "
                                     "for l")
    sp.add_argument("--yrange", help="default -1.2,1.2 for k; -2.5,1.0 for l")
    sp.add_argument("--trange", default="0,0.5")
    sp.add_argument("--nx", type=int, default=129)
    sp.add_argument("--ny", type=int, default=129)
    sp.add_argument("--nt", type=int, default=128)
    sp.add_argument("--pole", help="default 0,0,0 for k; 1,0,0 for l")
    sp.add_argument("--delta-width", dest="delta_width", type=float,
                    default=3.0)
    sp.add_argument("--out", required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_fd_solve)

    sp = sub.add_parser("mc", help="simulate terminal samples; "
                                   + _CSV_HELP["mc"])
    sp.add_argument("--kind", choices=["geometric", "arithmetic"],
                    default="arithmetic")
    sp.add_argument("--mu", type=float, default=0.0,
                    help="exponent drift of the log price")
    sp.add_argument("--sigma", type=float, required=True)
    sp.add_argument("--spot", type=float, default=1.0)
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.add_argument("--paths", type=int, default=100_000)
    sp.add_argument("--steps", type=int, default=256)
    sp.add_argument("--antithetic", action="store_true")
    sp.add_argument("--seed", type=int, default=0, help="seed of MC paths")
    add_common(sp)
    sp.set_defaults(func=_cmd_mc)

    sp = sub.add_parser("validate", help="run acceptance criteria, one row "
                                         "each; exit 2 on a failure with a "
                                         "JSON report; "
                                         + _CSV_HELP["validate"])
    sp.add_argument("--suite", required=True,
                    help="'all' or one criterion number, 1..12")
    add_common(sp)
    sp.set_defaults(func=_cmd_validate)
    return p


_parser: argparse.ArgumentParser | None = None   # built on the first run


def run(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (ValueError, OSError, ThetaConvergenceError,
            ToleranceNotMetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
