"""The benchmark's own tests: each oracle against a second computation, and
each operation check against a result moved just outside its tolerance.

    python3 -m pytest bench/tests

None of these tests runs the program under test.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import oracles  # noqa: E402
import workloads as W  # noqa: E402


def _lognormal_payoff_by_quad(m, v, strike):
    sd = math.sqrt(v)
    z0 = (math.log(strike) - m) / sd       # payoff is zero below z0
    val, _ = quad(lambda z: (math.exp(m + sd * z) - strike) * norm.pdf(z),
                  z0, z0 + 40.0, epsabs=1e-14, epsrel=1e-12)
    return val


@pytest.mark.parametrize("spot,strike,rate,sigma,T", [
    (1.0, 1.0, 0.0, 0.4, 1.0), (1.0, 1.1, 0.03, 0.4, 2.0),
    (0.7, 0.6, 0.08, 0.1, 0.25), (1.9, 2.0, 0.05, 0.6, 1.5)])
def test_kemna_vorst_matches_integrated_lognormal_payoff(spot, strike, rate,
                                                         sigma, T):
    m = math.log(spot) + 0.5 * (rate - 0.5 * sigma**2) * T
    direct = math.exp(-rate * T) * _lognormal_payoff_by_quad(
        m, sigma**2 * T / 3.0, strike)
    assert oracles.kemna_vorst(spot, strike, rate, sigma, T) \
        == pytest.approx(direct, rel=1e-9, abs=1e-13)


@pytest.mark.parametrize("spot,strike,rate,sigma,T", [
    (1.0, 1.0, 0.0, 0.4, 1.0), (1.0, 1.1, 0.03, 0.4, 2.0),
    (0.7, 0.6, 0.08, 0.1, 0.25), (1.9, 2.0, 0.05, 0.6, 1.5)])
def test_kemna_vorst_payoff_sd_matches_integrated_square(spot, strike, rate,
                                                         sigma, T):
    m = math.log(spot) + 0.5 * (rate - 0.5 * sigma**2) * T
    sd = math.sqrt(sigma**2 * T / 3.0)
    z0 = (math.log(strike) - m) / sd
    second, _ = quad(lambda z: (math.exp(m + sd * z) - strike) ** 2
                     * norm.pdf(z), z0, z0 + 40.0, epsabs=1e-14,
                     epsrel=1e-12)
    mean = math.exp(rate * T) * oracles.kemna_vorst(spot, strike, rate,
                                                    sigma, T)
    direct = math.exp(-rate * T) * math.sqrt(second - mean * mean)
    assert oracles.kemna_vorst_payoff_sd(spot, strike, rate, sigma, T) \
        == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("nu_kind", ["zero", "risk-neutral"])
@pytest.mark.parametrize("spot,strike,rate,sigma,T", [
    (1.0, 1.0, 0.0, 1.2, 1.0), (1.1, 0.9, 0.0, 1.0, 2.0),
    (2.0, 2.0, 0.05, 0.5, 1.0)])
def test_arithmetic_bounds_and_mean_by_nested_quadrature(nu_kind, spot,
                                                         strike, rate,
                                                         sigma, T):
    nu = 0.0 if nu_kind == "zero" else rate - 0.5 * sigma**2
    disc = math.exp(-rate * T)
    lower = disc * _lognormal_payoff_by_quad(
        math.log(spot) + 0.5 * nu * T, sigma**2 * T / 3.0, strike)
    upper, _ = quad(lambda s: _lognormal_payoff_by_quad(
        math.log(spot) + nu * s, sigma**2 * s, strike) if s > 0
        else max(spot - strike, 0.0), 0.0, T, epsrel=1e-10)
    mean, _ = quad(lambda s: spot * math.exp((nu + 0.5 * sigma**2) * s),
                   0.0, T, epsrel=1e-13)
    args = (spot, strike, rate, sigma, T, nu)
    assert oracles.geometric_average_call(*args) \
        == pytest.approx(lower, rel=1e-9)
    assert oracles.time_average_of_calls(*args) \
        == pytest.approx(disc * upper / T, rel=1e-8)
    assert oracles.arithmetic_mean(spot, rate, sigma, T, nu) \
        == pytest.approx(disc * mean / T, rel=1e-12)


def test_drifts_are_zero_and_risk_neutral():
    assert oracles.drifts(0.05, 0.5) == (0.0, 0.05 - 0.125)


def test_linetsky_table_within_its_bounds():
    for r, s, T, spot, value in oracles.LINETSKY_TABLE:
        nu = r - 0.5 * s * s
        args = (spot, oracles.LINETSKY_STRIKE, r, s, T, nu)
        assert oracles.geometric_average_call(*args) < value \
            < oracles.time_average_of_calls(*args)


def test_linetsky_table_against_control_variate_mc():
    """Independent simulation: exact log steps, trapezoid averages, and the
    discretely sampled geometric average as control variate."""
    rng = np.random.default_rng(20040601)
    n_paths, n_steps = 20_000, 200
    for r, s, T, spot, value in oracles.LINETSKY_TABLE:
        dt = T / n_steps
        z = rng.standard_normal((n_paths, n_steps))
        logs = math.log(spot) + np.cumsum(
            (r - 0.5 * s * s) * dt + s * math.sqrt(dt) * z, axis=1)
        logs = np.hstack([np.full((n_paths, 1), math.log(spot)), logs])
        trap = np.full(n_steps + 1, dt)
        trap[[0, -1]] *= 0.5
        arith = np.exp(logs) @ trap / T
        geo = np.exp(logs @ trap / T)
        disc = math.exp(-r * T)
        x = disc * np.maximum(arith - oracles.LINETSKY_STRIKE, 0.0)
        g = disc * np.maximum(geo - oracles.LINETSKY_STRIKE, 0.0)
        # mean of the discretely sampled geometric call: log G is Gaussian
        # with the trapezoid weights' mean and variance
        cum = np.cumsum(trap[::-1])[::-1][1:]      # weight on each increment
        m = math.log(spot) + (r - 0.5 * s * s) * dt * cum.sum() / T
        v = s * s * dt * float(np.sum(cum**2)) / T**2
        g_mean = disc * oracles._lognormal_call(m, v,
                                                oracles.LINETSKY_STRIKE)
        beta = np.cov(x, g)[0, 1] / np.var(g, ddof=1)
        y = x - beta * (g - g_mean)
        est, se = y.mean(), y.std(ddof=1) / math.sqrt(n_paths)
        # the trapezoid average of 200 steps differs from the continuous
        # one by well under 1e-4 in price
        assert abs(est - value) <= 4.0 * se + 1e-4, (r, s, T, spot)


@pytest.mark.parametrize("z,t", [(0.5, 0.1), (2.0, 0.1), (1.0, 0.25),
                                 (10.0, 0.25), (0.3, 0.5), (3.0, 1.0),
                                 (0.05, 2.0)])
def test_theta_integral_matches_mpmath_at_40_digits(z, t):
    mpmath.mp.dps = 40
    zz, tt = mpmath.mpf(z), mpmath.mpf(t)
    b = oracles._theta_cutoff(z, t)
    edges = [mpmath.mpf(0)] + [tt * k for k in range(1, int(b / t) + 1)] \
        + [mpmath.mpf(b)]
    exact = mpmath.quad(
        lambda x: mpmath.exp(-x * x / (2 * tt) - zz * mpmath.cosh(x))
        * mpmath.sinh(x) * mpmath.sin(mpmath.pi * x / tt), edges)
    val, err = oracles.theta_integral(z, t)
    assert abs(val - float(exact)) <= err
    assert err <= 1e-12


def test_gamma_l_integrates_to_one_over_the_pole():
    """Pole-variable integral of the kernel: total mass of Yor's density
    through the Jacobian of the price-family change of variables."""
    lam, point = 0.8, (1.3, 0.2, 1.5)
    x, y, _ = point
    nodes, weights = np.polynomial.legendre.leggauss(10)
    total = 0.0
    # xi = x e^a, eta = y + e^b, unit panels in a and b
    for a0 in range(-8, 8):
        for b0 in range(-10, 6):
            for ua, wa in zip(nodes, weights):
                a = a0 + 0.5 + 0.5 * ua
                for ub, wb in zip(nodes, weights):
                    b = b0 + 0.5 + 0.5 * ub
                    xi, eta = x * math.exp(a), y + math.exp(b)
                    val, _ = oracles.gamma_l(lam, point, (xi, eta, 0.0))
                    total += 0.25 * wa * wb * val * xi * (eta - y)
    assert total == pytest.approx(1.0, abs=1e-5)


def test_gamma_l_zero_off_support():
    assert oracles.gamma_l(1.0, (1.0, 0.5, 1.0), (1.0, 0.4, 0.0)) == (0, 0)
    assert oracles.gamma_l(1.0, (1.0, 0.0, 0.0), (1.0, 1.0, 0.5)) == (0, 0)


def test_gamma_k_grid_solves_fokker_planck_and_has_unit_mass():
    lam, pole, t = 0.9, (0.4, 0.2), 0.6
    xs, ys = np.linspace(-6, 7, 1301), np.linspace(-6, 5, 1101)
    p = oracles.gamma_k_grid(lam, xs, ys, t, pole)
    assert p.sum() * (xs[1] - xs[0]) * (ys[1] - ys[0]) \
        == pytest.approx(1.0, abs=1e-8)
    h = 1e-3
    for x, y in [(0.4, -0.1), (1.0, -0.5), (-0.5, 0.3)]:
        def f(xx, yy, tt):
            return float(oracles.gamma_k_grid(lam, np.array([xx]),
                                              np.array([yy]), tt, pole)[0, 0])
        dt = (f(x, y, t + h) - f(x, y, t - h)) / (2 * h)
        dxx = (f(x + h, y, t) - 2 * f(x, y, t) + f(x - h, y, t)) / h**2
        dy = (f(x, y + h, t) - f(x, y - h, t)) / (2 * h)
        assert dt == pytest.approx(lam * dxx + x * dy, rel=1e-4, abs=1e-6)


# ---------------------------------------------------------------------------
# Each check rejects a result moved just outside its tolerance
# ---------------------------------------------------------------------------

def test_geometric_check_rejects_price_just_outside_estimate():
    op = W.geometric_round(3, 0)[5]
    kv = oracles.kemna_vorst(op["spot"], op["strike"], op["rate"],
                             op["sigma"], op["T"])
    err = 1e-9
    inside = {"code": 0, "price": kv + 0.99 * err, "error": err}
    outside = {"code": 0, "price": kv + 1.01 * err, "error": err}
    assert W.geometric_check([op], [inside]) == [None]
    assert W.geometric_check([op], [outside])[0] is not None
    assert W.geometric_check([op], [{"code": 1}])[0] is not None


def test_geometric_check_rejects_estimate_just_above_tol():
    op = W.geometric_round(3, 0)[5]
    kv = oracles.kemna_vorst(op["spot"], op["strike"], op["rate"],
                             op["sigma"], op["T"])
    for scale, passes in ((0.99, True), (1.01, False)):
        out = {"code": 0, "price": kv, "error": scale * W.GEOMETRIC_TOL}
        assert (W.geometric_check([op], [out]) == [None]) is passes


def _arith_outputs(ops, err=1e-6):
    outs = []
    for op in ops:
        args = (op["spot"], op["strike"], op["rate"], op["sigma"], op["T"])
        if op["role"] == "deep":
            price = oracles.arithmetic_mean(op["spot"], op["rate"],
                                            op["sigma"], op["T"], 0.0) \
                - op["strike"]
        else:
            price = 0.5 * (oracles.geometric_average_call(*args, 0.0)
                           + oracles.time_average_of_calls(*args, 0.0))
        outs.append({"code": 0, "price": price, "error": err})
    return outs


def test_arithmetic_check_accepts_consistent_round():
    ops = W.arithmetic_round(4, 0)
    assert W.arithmetic_check(ops, _arith_outputs(ops)) == [None] * 4


def test_arithmetic_check_rejects_estimate_just_above_tol():
    ops = W.arithmetic_round(4, 0)
    outs = _arith_outputs(ops, err=1.01 * W.ARITH_TOL)
    assert all(r is not None for r in W.arithmetic_check(ops, outs))
    outs = _arith_outputs(ops, err=0.99 * W.ARITH_TOL)
    assert W.arithmetic_check(ops, outs) == [None] * 4


def test_arithmetic_check_rejects_price_just_outside_both_bounds():
    ops = W.arithmetic_round(4, 0)
    outs = _arith_outputs(ops)
    op, err = ops[1], outs[1]["error"]
    args = (op["spot"], op["strike"], op["rate"], op["sigma"], op["T"])
    top = max(oracles.time_average_of_calls(*args, nu)
              for nu in oracles.drifts(op["rate"], op["sigma"]))
    # the pair shares sigma^2 T, spot and strike, hence its bounds
    outs[1]["price"] = outs[2]["price"] = top + 1.01 * err
    res = W.arithmetic_check(ops, outs)
    assert res[1] is not None and res[2] is not None
    outs[1]["price"] = outs[2]["price"] = top + 0.99 * err
    assert W.arithmetic_check(ops, outs) == [None] * 4


def test_arithmetic_check_rejects_deep_price_just_off_the_mean():
    ops = W.arithmetic_round(4, 0)
    outs = _arith_outputs(ops)
    op, err = ops[3], outs[3]["error"]
    means = [oracles.arithmetic_mean(op["spot"], op["rate"], op["sigma"],
                                     op["T"], nu) - op["strike"]
             for nu in oracles.drifts(op["rate"], op["sigma"])]
    outs[3]["price"] = max(means) + 1.01 * err
    assert W.arithmetic_check(ops, outs)[3] is not None
    outs[3]["price"] = max(means) + 0.99 * err
    assert W.arithmetic_check(ops, outs)[3] is None


def _kept_arith_output(scale_err, price_at="middle"):
    ops = W.arithmetic_round(4, 0)
    outs = _arith_outputs(ops)
    op = ops[0]
    args = (op["spot"], op["strike"], op["rate"], op["sigma"], op["T"])
    err = scale_err
    top = max(oracles.time_average_of_calls(*args, nu)
              for nu in oracles.drifts(op["rate"], op["sigma"]))
    if price_at == "middle":
        price = outs[0]["price"]
    else:
        price = top + price_at * err
    outs[0] = {"code": 0, "price": price, "error": err}
    return ops, outs


def test_arithmetic_kept_contract_fails_only_for_its_known_fault():
    ops, outs = _kept_arith_output(1.38e-4)
    res = W.arithmetic_check(ops, outs)
    assert ops[0]["kept"] and isinstance(res[0], W.Known)
    assert res[1:] == [None] * 3
    # mended: it meets tol
    ops, outs = _kept_arith_output(0.99 * W.ARITH_TOL)
    assert W.arithmetic_check(ops, outs)[0] is None
    # a refusal is the mend ROADMAP item 3(a) asks for
    res = W.arithmetic_check(ops, [{"code": W.EXIT_REFUSED}] + outs[1:])
    assert isinstance(res[0], W.Known)
    # anything else is a new fault
    for out in ({"code": 0, "price": outs[1]["price"],
                 "error": 1.01 * W.ARITH_KEPT_ESTIMATE},
                {"code": 0, "price": math.nan, "error": 1.38e-4},
                {"code": 2}, {"exception": "ThetaConvergenceError: t"}):
        res = W.arithmetic_check(ops, [out] + outs[1:])
        assert res[0] is not None and not isinstance(res[0], W.Known)
    ops, outs = _kept_arith_output(1e-4, price_at=1.01)
    res = W.arithmetic_check(ops, outs)
    assert res[0] is not None and not isinstance(res[0], W.Known)
    ops, outs = _kept_arith_output(1e-4, price_at=0.99)
    assert isinstance(W.arithmetic_check(ops, outs)[0], W.Known)


def test_arithmetic_check_rejects_pair_just_apart():
    ops = W.arithmetic_round(4, 0)
    outs = _arith_outputs(ops)
    outs[2]["price"] = outs[1]["price"] + 1.01 * 2e-6
    res = W.arithmetic_check(ops, outs)
    assert res[1] is not None and res[2] is not None
    outs[2]["price"] = outs[1]["price"] + 0.99 * 2e-6
    assert W.arithmetic_check(ops, outs) == [None] * 4


def test_kernel_check_rejects_value_just_outside_both_estimates():
    op = W.kernel_round(5, 0)[0]
    ref, ref_err = oracles.gamma_l(op["lam"], op["point"], op["pole"])
    err = 1e-12
    inside = {"value": ref + 0.99 * (err + ref_err), "error": err}
    outside = {"value": ref + 1.01 * (err + ref_err), "error": err}
    assert W.kernel_check([op], [inside]) == [None]
    assert W.kernel_check([op], [outside])[0] is not None


def _mc_se(op):
    args = (op["spot"], op["strike"], op["rate"], op["sigma"], op["T"])
    return oracles.kemna_vorst(*args), \
        oracles.kemna_vorst_payoff_sd(*args) / math.sqrt(W.MC_PATHS)


def test_mc_check_rejects_price_just_beyond_the_se_limit():
    geo = W.mc_round(6, 0)[1]
    kv, se = _mc_se(geo)
    assert W.mc_check([geo], [{"code": 0, "price": kv + 4.99 * se,
                               "error": se}]) == [None]
    assert W.mc_check([geo], [{"code": 0, "price": kv + 5.01 * se,
                               "error": se}])[0] is not None


def test_mc_check_rejects_se_just_above_that_of_the_stated_paths():
    geo = W.mc_round(6, 0)[1]
    kv, se = _mc_se(geo)
    for scale, passes in ((0.99, True), (1.01, False)):
        out = {"code": 0, "price": kv, "error": scale * W.MC_SE_SLACK * se}
        assert (W.mc_check([geo], [out]) == [None]) is passes
    for se_bad in (0.0, math.nan):
        out = {"code": 0, "price": kv, "error": se_bad}
        assert W.mc_check([geo], [out])[0] is not None


def test_mc_rounds_keep_every_geometric_call_in_the_money_enough():
    for seed in range(1, 30):
        for op in W.mc_round(seed, 0)[1:]:
            m = math.log(op["spot"]) \
                + 0.5 * (op["rate"] - 0.5 * op["sigma"]**2) * op["T"]
            z = (math.log(op["strike"]) - m) \
                / (op["sigma"] * math.sqrt(op["T"] / 3))
            assert -1.0 <= z <= 1.0


def test_mc_kept_case_fails_only_for_its_known_fault():
    case = W.mc_round(6, 4)[0]       # case 4 of the table
    assert case["kept"] and case["case"] == 4
    ref = oracles.LINETSKY_TABLE[4][-1]
    args = (case["spot"], case["strike"], 0.0, case["sigma"], case["T"], 0.0)
    lo, hi = (oracles.geometric_average_call(*args),
              oracles.time_average_of_calls(*args))
    se = 1e-3
    res = W.mc_check([case], [{"code": 0, "price": 0.3096, "error": se}])
    assert isinstance(res[0], W.Known)
    # mended: within the se limit of Linetsky's value
    assert W.mc_check([case], [{"code": 0, "price": ref + 4.99 * se,
                                "error": se}]) == [None]
    # just outside the bounds of the r = 0 model: a new fault
    for price, known in ((hi + 4.99 * se, True), (hi + 5.01 * se, False),
                         (lo - 4.99 * se, True), (lo - 5.01 * se, False)):
        res = W.mc_check([case], [{"code": 0, "price": price, "error": se}])
        assert res[0] is not None and isinstance(res[0], W.Known) is known
    for out in ({"code": 1}, {"code": 0, "price": math.nan, "error": se},
                {"code": 0, "price": 0.3096, "error": 0.0}):
        res = W.mc_check([case], [out])
        assert res[0] is not None and not isinstance(res[0], W.Known)


def _fd_outputs(ops):
    (x, y, t), (nx, ny, _) = W.FD_CONST_RANGES, W.FD_SHAPE
    xs, ys = np.linspace(*x, nx), np.linspace(*y, ny)
    exact = oracles.gamma_k_grid(ops[0]["lam"], xs, ys, t[1], ops[0]["pole"])
    area = (xs[1] - xs[0]) * (ys[1] - ys[0])
    return ([{"mass": [1.0, 1.0], "leakage": 0.0, "min": 0.0,
              "final": exact},
             {"mass": [1.0, 1.2], "leakage": 0.0, "min": 0.0},
             {"mass": [1.0, 0.99], "leakage": -0.01, "min": 0.0}], area)


def test_fd_check_accepts_and_rejects_just_outside_each_tolerance():
    ops = W.fd_round(7, 0)
    outs, area = _fd_outputs(ops)
    assert W.fd_check(ops, outs) == [None] * 3
    # constant K: unit mass and the L1 bound
    outs[0]["mass"] = [1.0, 1.0 + 1.01 * W.FD_MASS_TOL]
    assert W.fd_check(ops, outs)[0] is not None
    outs, area = _fd_outputs(ops)
    bump = np.zeros_like(outs[0]["final"])
    bump[0, 0] = 1.01 * W.FD_L1_BOUND / area
    outs[0]["final"] = outs[0]["final"] + bump
    assert W.fd_check(ops, outs)[0] is not None
    # variable K: mass band and sign
    T = W.FD_VAR_RANGES[2][1]
    outs, _ = _fd_outputs(ops)
    outs[1]["mass"] = [1.0, math.exp(W.FD_VAR_LAM_UP * T) * (1 + 1e-9)]
    assert W.fd_check(ops, outs)[1] is not None
    outs, _ = _fd_outputs(ops)
    outs[1]["min"] = -1.01 * W.FD_NEG_TOL
    assert W.fd_check(ops, outs)[1] is not None
    # L family: mass balance and sign
    outs, _ = _fd_outputs(ops)
    outs[2]["mass"] = [1.0, 0.99 + 1.01 * W.FD_LEAK_RTOL]
    assert W.fd_check(ops, outs)[2] is not None
    outs[2]["mass"] = [1.0, 0.99 + 0.99 * W.FD_LEAK_RTOL]
    assert W.fd_check(ops, outs)[2] is None
    outs[2]["min"] = -1.01 * W.FD_NEG_TOL
    assert W.fd_check(ops, outs)[2] is not None


def test_every_check_fails_an_operation_that_raised():
    raised = {"exception": "RuntimeError: no result"}
    for wl in W.WORKLOADS.values():
        ops = wl.round(8, 0)
        outs = [raised] * len(ops)
        res = wl.check_round(ops, outs)
        assert all(r == raised["exception"] for r in res)
        assert not any(isinstance(r, W.Known) for r in res)


def test_rounds_repeat_for_a_seed_and_differ_across_seeds():
    for wl in W.WORKLOADS.values():
        assert wl.round(11, 2) == wl.round(11, 2)
        assert wl.round(11, 2) != wl.round(12, 2)
