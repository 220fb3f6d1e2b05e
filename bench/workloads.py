"""The five workloads: seeded inputs, one operation at a time, and checks.

A workload hands out rounds.  Round k of seed s is a fixed list of
operations drawn from ``numpy.random.default_rng([s, workload id, k])``, so
the same seed gives the same inputs, and a run always attempts whole
rounds.  ``run_op`` calls into ``asianpde`` and is the only timed code;
``check_round`` compares the outputs of one round with the oracles in
``oracles.py`` and gives, per operation, ``None`` or the reason it failed.
An operation marked ``kept`` fails on every run because of a known fault
of the program; its check still holds it to a weaker standard, and only a
failure for that known reason comes back as a ``Known`` reason.
"""
from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

# A geometric MC price may sit this many standard errors from Kemna-Vorst.
# At 5 se an unbiased estimator fails about once in 1.7 million operations,
# so no seed the benchmark is run with should turn a correct program into a
# failed operation; 4 se would fail once in 16 thousand.
MC_SE_LIMIT = 5.0
# Every MC price is asked for at this size, not at the CLI's defaults, and
# a geometric price's standard error may exceed that of MC_PATHS paths,
# computed in closed form, by this factor (at most 1.01 was seen).
MC_PATHS, MC_STEPS = 100_000, 256
MC_SE_SLACK = 1.1

ARITH_TOL = 1e-5
ARITH_S2T = 2.0          # sigma^2 T of every passing arithmetic contract
DEEP_ITM_STRIKE = 0.02
# the kept arithmetic contract returns 1.38e-4; past this it is a new fault
ARITH_KEPT_ESTIMATE = 1e-3
GEOMETRIC_TOL = 1e-8
KERNEL_TOL = 1e-10

# fd-solve grids have the size of acceptance criterion 8.
FD_SHAPE = (161, 161, 192)
FD_CONST_RANGES = ((-3.0, 4.0), (-2.5, 1.5), (0.0, 0.5))
# seeded box of the constant-coefficient problem: lambda, pole x, pole y
FD_CONST_BOX = ((0.75, 1.25), (0.0, 0.5), (-0.25, 0.25))
FD_VAR_RANGES = ((-2.0, 8.0), (-4.5, 2.5), (0.0, 1.0))
FD_LOG_RANGES = ((-2.0, 1.5), (-2.5, 1.0), (0.0, 0.5))
FD_VAR_LAM, FD_VAR_LAM_UP = 0.5, 1.5
FD_MASS_TOL = 1e-3
# L1 distance between the constant-coefficient FD slice and the closed-form
# kernel.  The scheme is first order (upwind transport, implicit Euler), so
# the distance halves with the grid step; see README.md for the derivation.
FD_L1_BOUND = 0.24
FD_NEG_TOL = 1e-12
FD_LEAK_RTOL = 1e-9


class Known(str):
    """The reason a kept operation failed, when it is the known fault."""


# the CLI's exit code for an error it reports on one line
EXIT_REFUSED = 1


def _rng(seed: int, wid: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, wid, k])


def _cli_price(argv: list[str]) -> dict:
    from asianpde import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    if code != 0:
        return {"code": code}
    row = buf.getvalue().splitlines()[-1].split(",")
    return {"code": code, "price": float(row[1]), "error": float(row[2])}


def _price_argv(kind: str, method: str, op: dict) -> list[str]:
    return ["price", "--kind", kind, "--method", method,
            "--sigma", repr(op["sigma"]), "--rate", repr(op["rate"]),
            "--strike", repr(op["strike"]), "--maturity", repr(op["T"]),
            "--spot", repr(op["spot"])]


def _failed_call(out: dict) -> str | None:
    """The reason an operation produced no output to check, or None."""
    if "exception" in out:
        return out["exception"]
    if out.get("code", 0) != 0:
        return f"exit code {out['code']}"
    return None


# ---------------------------------------------------------------------------
# geometric-book
# ---------------------------------------------------------------------------

def geometric_round(seed: int, k: int) -> list[dict]:
    """A stratified grid: six sigma strata in [0.1, 0.6] times four maturity
    strata in [0.25, 2], one seeded point in each cell, with a seeded spot,
    moneyness and rate per contract.  The cost of an operation grows with
    1/T, so stratifying keeps the mix of costs the same for every seed."""
    g = _rng(seed, 1, k)
    ops = []
    for i in range(6):
        for j in range(4):
            spot = float(g.uniform(0.5, 2.0))
            ops.append({"sigma": 0.1 + 0.5 * (i + float(g.random())) / 6,
                        "T": 0.25 + 1.75 * (j + float(g.random())) / 4,
                        "spot": spot,
                        "strike": spot * float(g.uniform(0.8, 1.25)),
                        "rate": float(g.uniform(0.0, 0.08))})
    return ops


def geometric_op(op: dict) -> dict:
    return _cli_price(_price_argv("geometric", "kernel", op)
                      + ["--tol", repr(GEOMETRIC_TOL)])


def geometric_check(ops: list[dict], outs: list[dict]) -> list[str | None]:
    res = []
    for op, out in zip(ops, outs):
        bad = _failed_call(out)
        if bad is None and not out["error"] <= GEOMETRIC_TOL:
            bad = f"estimate {out['error']:.3g} > tol {GEOMETRIC_TOL:g}"
        if bad is None:
            kv = oracles.kemna_vorst(op["spot"], op["strike"], op["rate"],
                                     op["sigma"], op["T"])
            if not abs(out["price"] - kv) <= out["error"]:
                bad = (f"|price - Kemna-Vorst| = {abs(out['price'] - kv):.3g}"
                       f" > estimate {out['error']:.3g}")
        res.append(bad)
    return res


# ---------------------------------------------------------------------------
# arithmetic-book
# ---------------------------------------------------------------------------

def _arith_op(role: str, sigma: float, spot: float, strike: float) -> dict:
    return {"role": role, "sigma": sigma, "T": ARITH_S2T / sigma**2,
            "spot": spot, "strike": strike, "rate": 0.0}


def arithmetic_round(seed: int, k: int) -> list[dict]:
    """The kept failure, a Brownian-scaling pair and a deep in-the-money call.

    Every passing contract has sigma^2 T = 2, so each operation costs the
    same whatever the seed; the seed moves spot, strike and the split of
    sigma^2 T between sigma and T.
    """
    g = _rng(seed, 2, k)
    spot, strike = (float(v) for v in g.uniform(0.8, 1.25, 2))
    kept = {"role": "kept", "kept": True, "sigma": 1.0, "T": 1.0,
            "spot": 1.0, "strike": 1.0, "rate": 0.0}
    return [kept,
            _arith_op("pair", float(g.uniform(1.0, 1.2)), spot, strike),
            _arith_op("pair", float(g.uniform(1.25, 1.6)), spot, strike),
            _arith_op("deep", float(g.uniform(1.0, 1.6)),
                      float(g.uniform(0.8, 1.25)), DEEP_ITM_STRIKE)]


def arithmetic_op(op: dict) -> dict:
    return _cli_price(_price_argv("arithmetic", "kernel", op)
                      + ["--tol", repr(ARITH_TOL)])


def _arith_bounds_hold(op: dict, price: float, err: float) -> bool:
    args = (op["spot"], op["strike"], op["rate"], op["sigma"], op["T"])
    for nu in oracles.drifts(op["rate"], op["sigma"]):
        lo = oracles.geometric_average_call(*args, nu)
        hi = oracles.time_average_of_calls(*args, nu)
        if lo - err <= price <= hi + err:
            return True
    return False


def _deep_itm_holds(op: dict, price: float, err: float) -> bool:
    disc_k = math.exp(-op["rate"] * op["T"]) * op["strike"]
    return any(abs(price - (oracles.arithmetic_mean(
        op["spot"], op["rate"], op["sigma"], op["T"], nu) - disc_k)) <= err
        for nu in oracles.drifts(op["rate"], op["sigma"]))


def _arith_kept_check(op: dict, out: dict) -> str | None:
    """The kept contract may miss tol, as long as its estimate stays below
    ARITH_KEPT_ESTIMATE and its price inside the bounds; that, or refusing
    it with a one-line error (what ROADMAP item 3(a) asks for), is the
    known fault.  Anything else is a new one."""
    if out.get("code") == EXIT_REFUSED:
        return Known(f"refused: exit code {EXIT_REFUSED}")
    bad = _failed_call(out)
    if bad is None and not out["error"] <= ARITH_KEPT_ESTIMATE:
        bad = f"estimate {out['error']:.3g} > {ARITH_KEPT_ESTIMATE:g}"
    if bad is None and not _arith_bounds_hold(op, out["price"], out["error"]):
        bad = "price outside the geometric / time-average bounds"
    if bad is None and out["error"] > ARITH_TOL:
        bad = Known(f"estimate {out['error']:.3g} > tol {ARITH_TOL:g}")
    return bad


def arithmetic_check(ops: list[dict], outs: list[dict]) -> list[str | None]:
    res = []
    for op, out in zip(ops, outs):
        if op.get("kept"):
            res.append(_arith_kept_check(op, out))
            continue
        bad = _failed_call(out)
        if bad is None and not out["error"] <= ARITH_TOL:
            bad = f"estimate {out['error']:.3g} > tol {ARITH_TOL:g}"
        if bad is None and not _arith_bounds_hold(op, out["price"],
                                                  out["error"]):
            bad = "price outside the geometric / time-average bounds"
        if bad is None and op["role"] == "deep" \
                and not _deep_itm_holds(op, out["price"], out["error"]):
            bad = "deep in-the-money price differs from mean - K"
        res.append(bad)
    pair = [i for i, op in enumerate(ops) if op["role"] == "pair"]
    if len(pair) == 2 and all(res[i] is None for i in pair):
        a, b = (outs[i] for i in pair)
        if not abs(a["price"] - b["price"]) <= a["error"] + b["error"]:
            for i in pair:
                res[i] = (f"Brownian-scaling pair differs by "
                          f"{abs(a['price'] - b['price']):.3g}")
    return res


# ---------------------------------------------------------------------------
# kernel-points
# ---------------------------------------------------------------------------

KERNEL_ROUND = 50


def kernel_round(seed: int, k: int) -> list[dict]:
    """Distinct (point, pole, lambda) with lambda * elapsed in [0.2, 4], so
    the Yor time lambda * elapsed / 2 stays at or above 0.1."""
    g = _rng(seed, 3, k)
    ops = []
    for _ in range(KERNEL_ROUND):
        lam = float(g.uniform(0.25, 2.0))
        x = float(g.uniform(0.5, 2.0))
        y = float(g.uniform(-1.0, 1.0))
        ops.append({"lam": lam,
                    "point": (x, y, float(g.uniform(0.2, 4.0)) / lam),
                    "pole": (x * math.exp(float(g.normal(0.0, 0.5))),
                             y + float(g.uniform(0.05, 2.0)), 0.0)})
    return ops


def kernel_op(op: dict) -> dict:
    from asianpde import kernels
    from asianpde.geometry import EventPoint
    res = kernels.gamma_l_lambda(kernels.KernelParams(op["lam"]),
                                 EventPoint(*op["point"]),
                                 EventPoint(*op["pole"]), KERNEL_TOL)
    return {"value": res.value, "error": res.abs_error_estimate}


def kernel_check(ops: list[dict], outs: list[dict]) -> list[str | None]:
    res = []
    for op, out in zip(ops, outs):
        bad = _failed_call(out)
        if bad is None:
            ref, ref_err = oracles.gamma_l(op["lam"], op["point"], op["pole"])
            gap = abs(out["value"] - ref)
            if not gap <= out["error"] + ref_err:
                bad = (f"|value - Yor| = {gap:.3g} > "
                       f"{out['error'] + ref_err:.3g}")
        res.append(bad)
    return res


# ---------------------------------------------------------------------------
# mc-book
# ---------------------------------------------------------------------------

def mc_round(seed: int, k: int) -> list[dict]:
    """One Linetsky case (the kept failure, cycling through the seven) and
    three seeded geometric calls.  The Linetsky cases use fixed MC seeds, so
    they do not depend on the workload seed.

    A geometric strike sits z standard deviations of log G from the mean of
    log G, z uniform in [-1, 1], so every call is exercised with
    probability 0.16-0.84: a far out-of-the-money call would leave few or
    no exercised paths, and its standard error would mean nothing."""
    g = _rng(seed, 4, k)
    case = k % len(oracles.LINETSKY_TABLE)
    r, s, T, spot, _ = oracles.LINETSKY_TABLE[case]
    ops = [{"kind": "arithmetic", "kept": True, "case": case, "sigma": s,
            "T": T, "spot": spot, "strike": oracles.LINETSKY_STRIKE,
            "rate": r, "mc_seed": 1000 + case}]
    for j in range(3):
        spot = float(g.uniform(0.8, 1.25))
        sigma = float(g.uniform(0.1, 0.6))
        T = float(g.uniform(0.25, 2.0))
        rate = float(g.uniform(0.0, 0.08))
        z = float(g.uniform(-1.0, 1.0))
        log_strike = math.log(spot) + 0.5 * (rate - 0.5 * sigma**2) * T \
            + z * sigma * math.sqrt(T / 3.0)
        ops.append({"kind": "geometric", "sigma": sigma, "T": T,
                    "spot": spot, "rate": rate,
                    "strike": math.exp(log_strike),
                    "mc_seed": (seed % 1_000_000) * 10_000 + 4 * k + j})
    return ops


def mc_op(op: dict) -> dict:
    return _cli_price(_price_argv(op["kind"], "mc", op)
                      + ["--paths", str(MC_PATHS), "--steps", str(MC_STEPS),
                         "--seed", str(op["mc_seed"])])


def _linetsky_kept_check(op: dict, out: dict, se: float) -> str | None:
    """A Linetsky case passes within MC_SE_LIMIT se of the table.  Missing
    it is the known fault only while the price is inside the bounds of the
    model the CLI builds today, ModelSpec(mu=0, r=0): no discounting and
    exponent drift 0, widened by MC_SE_LIMIT se."""
    dev = abs(out["price"] - oracles.LINETSKY_TABLE[op["case"]][-1]) / se
    if dev <= MC_SE_LIMIT:
        return None
    args = (op["spot"], op["strike"], 0.0, op["sigma"], op["T"], 0.0)
    slack = MC_SE_LIMIT * se
    if oracles.geometric_average_call(*args) - slack <= out["price"] \
            <= oracles.time_average_of_calls(*args) + slack:
        return Known(f"MC price {dev:.1f} se from Linetsky (--rate ignored)")
    return "MC price outside the bounds of the r = 0 model"


def mc_check(ops: list[dict], outs: list[dict]) -> list[str | None]:
    res = []
    for op, out in zip(ops, outs):
        bad = _failed_call(out)
        se = out.get("error", math.nan)
        if bad is None and not se > 0.0:
            bad = f"standard error {se!r}"
        if bad is None and op["kind"] == "geometric":
            args = (op["spot"], op["strike"], op["rate"], op["sigma"],
                    op["T"])
            limit = MC_SE_SLACK * oracles.kemna_vorst_payoff_sd(*args) \
                / math.sqrt(MC_PATHS)
            dev = abs(out["price"] - oracles.kemna_vorst(*args)) / se
            if not se <= limit:
                bad = (f"standard error {se:.3g} > {limit:.3g}, "
                       f"{MC_SE_SLACK:g} x that of {MC_PATHS} paths")
            elif not dev <= MC_SE_LIMIT:
                bad = f"MC price {dev:.1f} se from Kemna-Vorst"
        elif bad is None:
            bad = _linetsky_kept_check(op, out, se)
        res.append(bad)
    return res


# ---------------------------------------------------------------------------
# fd-solve
# ---------------------------------------------------------------------------

def fd_round(seed: int, k: int) -> list[dict]:
    """Constant-coefficient K, mollified variable-coefficient K, and the L
    family in log coordinates, each with a seeded pole and diffusion."""
    g = _rng(seed, 5, k)
    return [
        {"family": "k-const", "lam": float(g.uniform(*FD_CONST_BOX[0])),
         "pole": (float(g.uniform(*FD_CONST_BOX[1])),
                  float(g.uniform(*FD_CONST_BOX[2])))},
        {"family": "k-var", "n": int(g.choice([4, 8, 16])),
         "pole": (float(g.uniform(2.5, 3.5)), float(g.uniform(0.5, 1.5)))},
        {"family": "l-log", "lam": float(g.uniform(0.5, 1.0)),
         "pole": (float(g.uniform(0.6, 1.5)), float(g.uniform(0.0, 0.5)))},
    ]


def _fd_grid(ranges, kind):
    from asianpde.fd import GridSpec
    (x, y, t), (nx, ny, nt) = ranges, FD_SHAPE
    return GridSpec(x_range=x, y_range=y, t_range=t, nx=nx, ny=ny, nt=nt,
                    kind=kind)


def _var_field():
    from asianpde.fd import CoefficientField

    def a_fn(x, y, t):
        return FD_VAR_LAM + (FD_VAR_LAM_UP - FD_VAR_LAM) / (
            1.0 + np.asarray(x) ** 2 + np.asarray(y) ** 2)

    def b_fn(x, y, t):
        return 0.1 * np.sin(np.asarray(x))

    return CoefficientField(a=a_fn, b=b_fn, r=0.0, lam=FD_VAR_LAM,
                            Lam=FD_VAR_LAM_UP)


def fd_op(op: dict) -> dict:
    from asianpde import fd
    from asianpde.geometry import EventPoint, GeometryKind
    pole = EventPoint(*op["pole"], 0.0)
    if op["family"] == "k-const":
        grid = _fd_grid(FD_CONST_RANGES, GeometryKind.K)
        field = fd.CoefficientField.constant(op["lam"])
    elif op["family"] == "k-var":
        grid = _fd_grid(FD_VAR_RANGES, GeometryKind.K)
        field = fd.mollify(_var_field(), fd.MollifierSpec(
            n=op["n"], mode=fd.MollifierMode.CUTOFF_CHI), check_grid=grid)
    else:
        grid = _fd_grid(FD_LOG_RANGES, GeometryKind.L)
        field = fd.CoefficientField.constant(op["lam"], kind=GeometryKind.L)
    sol = fd.approximate_fundamental_solution(field, pole, grid,
                                              delta_width=2.5)
    out = {"mass": sol.mass_history.tolist(),
           "leakage": float(np.sum(sol.transport_leakage)),
           "min": float(sol.final.min())}
    if op["family"] == "k-const":
        out["final"] = sol.final
    return out


def fd_check(ops: list[dict], outs: list[dict]) -> list[str | None]:
    res = []
    for op, out in zip(ops, outs):
        bad = _failed_call(out)
        if bad is not None:
            res.append(bad)
            continue
        mass0, mass = out["mass"][0], out["mass"][-1]
        if op["family"] == "k-const":
            (x, y, t), (nx, ny, _) = FD_CONST_RANGES, FD_SHAPE
            xs, ys = np.linspace(*x, nx), np.linspace(*y, ny)
            area = (xs[1] - xs[0]) * (ys[1] - ys[0])
            exact = oracles.gamma_k_grid(op["lam"], xs, ys, t[1], op["pole"])
            l1 = float(np.sum(np.abs(out["final"] - exact)) * area)
            if not abs(mass - 1.0) <= FD_MASS_TOL:
                bad = f"mass {mass!r} is not 1"
            elif not l1 <= FD_L1_BOUND:
                bad = f"L1 distance to closed-form kernel {l1:.3g}"
        elif op["family"] == "k-var":
            T = FD_VAR_RANGES[2][1]
            lo, hi = math.exp(-FD_VAR_LAM_UP * T), math.exp(FD_VAR_LAM_UP * T)
            if not lo <= mass <= hi:
                bad = f"mass {mass!r} outside [e^-Lam t, e^Lam t]"
        elif not abs(mass - (mass0 + out["leakage"])) \
                <= FD_LEAK_RTOL * mass0:
            bad = (f"final mass {mass!r} != initial {mass0!r} + leakage "
                   f"{out['leakage']!r}")
        if bad is None and op["family"] != "k-const" \
                and not out["min"] >= -FD_NEG_TOL:
            bad = f"negative value {out['min']!r}"
        res.append(bad)
    return res


@dataclass(frozen=True)
class Workload:
    round: Callable[[int, int], list[dict]]
    run_op: Callable[[dict], dict]
    check_round: Callable[[list[dict], list[dict]], list[str | None]]


WORKLOADS = {
    "geometric-book": Workload(geometric_round, geometric_op,
                               geometric_check),
    "arithmetic-book": Workload(arithmetic_round, arithmetic_op,
                                arithmetic_check),
    "kernel-points": Workload(kernel_round, kernel_op, kernel_check),
    "mc-book": Workload(mc_round, mc_op, mc_check),
    "fd-solve": Workload(fd_round, fd_op, fd_check),
}
