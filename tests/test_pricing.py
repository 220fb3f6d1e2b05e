"""Transforms, growth checks, and representation-formula pricing."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from asianpde import kernels, pricing
from asianpde.fd import CoefficientField, GridSpec, solve_cauchy
from asianpde.geometry import EventPoint
from asianpde.kernels import theta_batch
from asianpde.mc import Averaging, McConfig, ModelSpec, mc_price
from asianpde.pricing import (CauchyProblem, GrowthBound,
                              GrowthViolationError, PricingSpec,
                              ToleranceNotMetError,
                              arithmetic_call_payoff, geometric_call_payoff,
                              growth_check, make_arithmetic_problem, price,
                              transform_geometric)


def unit_payoff(s, a):
    return np.ones_like(np.asarray(s, float))


def geometric_spec(strike=1.0, maturity=1.0, sigma=0.4, rate=0.0,
                   payoff=None, growth=None, kinks=None):
    return PricingSpec(
        payoff=payoff or geometric_call_payoff(strike, maturity),
        kind=Averaging.GEOMETRIC, sigma=sigma, rate=rate,
        growth=growth or GrowthBound(M=1.0, C=1.5 / maturity),
        kink_lines=(maturity * math.log(strike),) if kinks is None else kinks)


def lognormal_geometric_call(sigma, rate, strike, maturity):
    """Independent closed-form oracle: the averaged log price is Gaussian."""
    lam = 0.5 * sigma**2
    m = (rate - lam) * maturity / 2.0
    sd = math.sqrt(sigma**2 * maturity / 3.0)
    d2 = (m - math.log(strike)) / sd
    d1 = d2 + sd
    return math.exp(-rate * maturity) * (
        math.exp(m + sd * sd / 2.0) * norm.cdf(d1) - strike * norm.cdf(d2))


# -- transforms ----------------------------------------------------------------

def test_transform_unit_payoff():
    spec = geometric_spec(payoff=unit_payoff,
                          growth=GrowthBound(M=1.5, C=0.1),
                          kinks=())
    prob = transform_geometric(spec)
    xs = np.linspace(-3, 3, 7)
    assert np.allclose(prob.initial(xs, xs), 1.0)


def test_transform_call_payoff_substitution():
    spec = geometric_spec(strike=1.2)
    prob = transform_geometric(spec)
    ys = np.linspace(-1, 1, 9)
    expect = np.maximum(np.exp(ys / 1.0) - 1.2, 0.0)
    assert np.allclose(prob.initial(np.zeros_like(ys), ys), expect)


def test_transform_requires_geometric_kind():
    spec = PricingSpec(payoff=arithmetic_call_payoff(1.0, 1.0),
                       kind=Averaging.ARITHMETIC, sigma=1.0)
    with pytest.raises(ValueError):
        transform_geometric(spec)


@pytest.mark.parametrize("make", [geometric_call_payoff,
                                  arithmetic_call_payoff])
@pytest.mark.parametrize("strike,maturity", [(0.0, 1.0), (-1.0, 1.0),
                                             (1.0, 0.0), (1.0, -0.5)])
def test_call_payoff_refuses_nonpositive_strike_or_maturity(make, strike,
                                                            maturity):
    with pytest.raises(ValueError, match="strike and maturity must be "
                                         "positive"):
        make(strike, maturity)


# -- growth check -----------------------------------------------------------------

def test_growth_check_bounded_payoff():
    spec = geometric_spec(payoff=unit_payoff,
                          growth=GrowthBound(M=2.0, C=0.5),
                          kinks=())
    lat = np.meshgrid(np.linspace(-5, 5, 21), np.linspace(-5, 5, 21))
    ok, worst = growth_check(spec, (lat[0], lat[1]),
                             transformed=lambda x, y: unit_payoff(x, y))
    assert ok and worst <= 0.5


def test_growth_check_quadratic_exponent_fails():
    bad = lambda x, y: np.exp(np.asarray(x, float)**2)
    spec = geometric_spec(payoff=bad,
                          growth=GrowthBound(M=1.0, C=2.0),
                          kinks=())
    lat = np.meshgrid(np.linspace(-8, 8, 33), np.linspace(-8, 8, 33))
    ok, worst = growth_check(spec, (lat[0], lat[1]), transformed=bad)
    assert not ok and worst > 1e3


def test_growth_check_linear_payoff():
    lin = lambda x, y: np.maximum(np.asarray(y, float) - 1.0, 0.0)
    spec = geometric_spec(payoff=lin,
                          growth=GrowthBound(M=1.0, C=1.0),
                          kinks=())
    lat = np.meshgrid(np.linspace(-20, 20, 41), np.linspace(-20, 20, 41))
    ok, _ = growth_check(spec, (lat[0], lat[1]), transformed=lin)
    assert ok


# -- price ------------------------------------------------------------------------

def test_price_unit_payoff_is_one():
    spec = geometric_spec(payoff=unit_payoff,
                          growth=GrowthBound(M=1.5, C=0.1),
                          kinks=())
    prob = transform_geometric(spec)
    res = price(prob, EventPoint(0.0, 0.0, 1.0), tol=1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_price_geometric_call_matches_lognormal_oracle():
    for sigma, rate, strike in [(0.4, 0.0, 1.0), (0.3, 0.05, 1.1),
                                (0.5, 0.02, 0.9)]:
        spec = geometric_spec(sigma=sigma, rate=rate, strike=strike)
        prob = transform_geometric(spec)
        res = price(prob, EventPoint(0.0, 0.0, 1.0), tol=1e-8)
        ref = lognormal_geometric_call(sigma, rate, strike, 1.0)
        assert res.value == pytest.approx(ref, abs=5e-7)


def test_price_linearity_in_payoff():
    spec1 = geometric_spec(strike=1.0)
    spec2 = geometric_spec(strike=1.2)
    p1 = price(transform_geometric(spec1),
               EventPoint(0.0, 0.0, 1.0), tol=1e-8).value
    p2 = price(transform_geometric(spec2),
               EventPoint(0.0, 0.0, 1.0), tol=1e-8).value

    def combo(s, a):
        return (2.0 * geometric_call_payoff(1.0, 1.0)(s, a)
                + 3.0 * geometric_call_payoff(1.2, 1.0)(s, a))

    spec3 = geometric_spec(payoff=combo, growth=GrowthBound(5.0, 1.5),
                           kinks=(0.0, math.log(1.2)))
    p3 = price(transform_geometric(spec3),
               EventPoint(0.0, 0.0, 1.0), tol=1e-8).value
    assert p3 == pytest.approx(2.0 * p1 + 3.0 * p2, abs=2e-6)


@pytest.fixture
def rule_edges(monkeypatch):
    """Edges of every panel_nodes call of the Gamma_K rule, in call order."""
    calls, panel_nodes = [], pricing.panel_nodes

    def recorded(edges, order):
        calls.append(np.array(edges))
        return panel_nodes(edges, order)

    monkeypatch.setattr(pricing, "panel_nodes", recorded)
    return calls


def kink_edges(sigma, rate, maturity, kinks):
    """rho_k = (c - k)/n of each kink line k at (0, 0, maturity): c is the
    drift-shifted y + dt*x and n = |d eta / d(xbar, ybar)|."""
    lam = 0.5 * sigma**2
    x = (rate - lam) * maturity
    y = (lam - rate) * maturity**2 / 2.0
    n = math.sqrt(4.0 * lam * maturity**3 / 3.0)
    return (y + maturity * x - np.asarray(kinks, float)) / n


def check_rule_edges(calls, rho_kinks):
    """Two rules of 1-D edges, outer then inner: the inner edges are the
    outer ones plus each kink inside (-L, L) once, and none outside."""
    assert len(calls) == 4
    assert all(e.ndim == 1 for e in calls)
    for outer, inner in (calls[:2], calls[2:]):
        L = -outer[0]
        inside = np.sort(rho_kinks[np.abs(rho_kinks) < L])
        assert np.all(np.isin(outer, inner))
        extra = np.setdiff1d(inner, outer)
        assert extra.size == inside.size
        np.testing.assert_allclose(extra, inside, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("sigma,maturity,strike,rate", list(
    itertools.product((0.1, 0.6), (0.25, 2.0), (0.8, 1.25), (0.0, 0.08))))
def test_price_geometric_book_grid(sigma, maturity, strike, rate,
                                   rule_edges):
    spec = geometric_spec(sigma=sigma, rate=rate, strike=strike,
                          maturity=maturity)
    res = price(transform_geometric(spec), EventPoint(0.0, 0.0, maturity),
                tol=1e-8)
    ref = lognormal_geometric_call(sigma, rate, strike, maturity)
    assert abs(res.value - ref) <= res.abs_error_estimate <= 1e-8
    check_rule_edges(rule_edges, kink_edges(sigma, rate, maturity,
                                            spec.kink_lines))


@pytest.mark.parametrize("sigma,maturity", [(0.1, 0.25), (0.4, 1.0),
                                            (0.6, 2.0)])
def test_price_two_kinks_outside_the_box(sigma, maturity, rule_edges):
    def combo(s, a):
        return (2.0 * geometric_call_payoff(1.0, maturity)(s, a)
                + 3.0 * geometric_call_payoff(1.2, maturity)(s, a))

    def priced(kinks):
        rule_edges.clear()
        spec = geometric_spec(payoff=combo, sigma=sigma, maturity=maturity,
                              growth=GrowthBound(5.0, 1.5 / maturity),
                              kinks=kinks)
        res = price(transform_geometric(spec),
                    EventPoint(0.0, 0.0, maturity), tol=1e-8)
        return res, list(rule_edges)

    kinks = (maturity * math.log(1.2), 0.0)     # descending order
    res, edges = priced(kinks)
    ref = (2.0 * lognormal_geometric_call(sigma, 0.0, 1.0, maturity)
           + 3.0 * lognormal_geometric_call(sigma, 0.0, 1.2, maturity))
    assert abs(res.value - ref) <= res.abs_error_estimate <= 1e-8
    check_rule_edges(edges, kink_edges(sigma, 0.0, maturity, kinks))
    # ascending order, or two more kink lines far outside the box, give
    # the same edges
    for other in (kinks[::-1], kinks + (-1e3, 1e3)):
        again = priced(other)[1]
        assert all(np.array_equal(a, b) for a, b in zip(edges, again))


@pytest.mark.parametrize("sigma,rate,maturity,spot", [
    (0.4, 0.05, 1.0, 1.3), (0.1, 0.0, 0.25, 0.7), (0.6, 0.08, 2.0, 1.0)])
def test_price_payoff_of_spot_and_average(sigma, rate, maturity, spot):
    # phi(S, A) = S e^(A/T) depends on both state variables, so a wrongly
    # rotated rule shows; log S_T + A/T is Gaussian with mean
    # 2 log S0 + 1.5 nu T and variance 7 sigma^2 T / 3
    def phi(s, a):
        return np.asarray(s) * np.exp(np.asarray(a) / maturity)

    growth = GrowthBound(1.0, math.sqrt(2.0) * max(1.0, 1.0 / maturity))
    spec = geometric_spec(payoff=phi, sigma=sigma, rate=rate,
                          maturity=maturity, growth=growth, kinks=())
    res = price(transform_geometric(spec),
                EventPoint(math.log(spot), 0.0, maturity), tol=1e-8)
    nu = rate - 0.5 * sigma**2
    ref = math.exp(-rate * maturity + 2.0 * math.log(spot)
                   + 1.5 * nu * maturity + 7.0 / 6.0 * sigma**2 * maturity)
    assert abs(res.value - ref) <= res.abs_error_estimate <= 1e-8


def test_price_geometric_memory_peak():
    # T = 0.25 gives the largest truncation radius over the maturities the
    # benchmark prices; the row blocks keep one price's working memory small
    spec = geometric_spec(sigma=0.6, rate=0.08, strike=1.25, maturity=0.25)
    prob, point = transform_geometric(spec), EventPoint(0.0, 0.0, 0.25)
    price(prob, point, tol=1e-8)
    tracemalloc.start()
    try:
        price(prob, point, tol=1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_price_growth_violation_raises():
    bad = lambda s, a: np.exp(np.log(np.maximum(s, 1e-300))**2)
    spec = geometric_spec(payoff=bad,
                          growth=GrowthBound(M=1.0, C=0.5),
                          kinks=())
    prob = transform_geometric(spec)
    with pytest.raises(GrowthViolationError):
        price(prob, EventPoint(0.0, 0.0, 1.0))


@pytest.fixture
def theta_calls(monkeypatch):
    """Counts the price family's calls into theta, one per rule."""
    calls = []

    def counted(*args):
        calls.append(args)
        return theta_batch(*args)

    monkeypatch.setattr(kernels, "theta_batch", counted)
    return calls


def test_price_arithmetic_unit_payoff(theta_calls):
    spec = PricingSpec(payoff=unit_payoff, kind=Averaging.ARITHMETIC,
                       sigma=math.sqrt(2.0), growth=GrowthBound(M=1.5, C=0.5))
    prob = make_arithmetic_problem(spec)
    res = price(prob, EventPoint(1.0, 0.0, 1.0), tol=1e-5)
    assert res.value == pytest.approx(1.0, abs=1e-4)
    assert len(theta_calls) == 2


def test_price_family_refuses_after_the_coarse_rule(theta_calls):
    # sigma = 1, T = 1 call: the coarse rule's density term alone exceeds
    # tol, so the fine rule never runs
    spec = PricingSpec(payoff=arithmetic_call_payoff(1.0, 1.0),
                       kind=Averaging.ARITHMETIC, sigma=1.0,
                       growth=GrowthBound(M=4.0, C=1.0),
                       kink_lines=(1.0,))
    with pytest.raises(ToleranceNotMetError, match="above tol"):
        price(make_arithmetic_problem(spec), EventPoint(1.0, 0.0, 1.0),
              tol=1e-5)
    assert len(theta_calls) == 1


def test_price_initial_datum_attainment():
    # bounded Lipschitz payoff, flat near the approach target
    lam = 0.25

    def plateau(x, y):
        rho = np.hypot(np.asarray(x, float), np.asarray(y, float))
        return 1.0 / (1.0 + np.maximum(rho - 1.0, 0.0) ** 2)

    spec = geometric_spec(payoff=plateau, sigma=math.sqrt(2.0 * lam),
                          growth=GrowthBound(M=1.5, C=0.1),
                          kinks=())
    prob = CauchyProblem(spec=spec, initial=plateau)
    for dt in (1e-1, 1e-2, 1e-3):
        for (dx, dy) in [(0.0, 0.0), (0.3 * dt, 0.0), (0.1 * dt, -0.2 * dt)]:
            res = price(prob, EventPoint(dx, dy, dt), tol=1e-8)
            assert abs(res.value - 1.0) <= 1e-2


def test_price_representation_matches_fd():
    # constant coefficients: kernel-quadrature price vs the transformed
    # problem solved directly by the FD scheme, on a (strike, maturity) grid
    sigma, rate = 0.4, 0.0
    lam = 0.5 * sigma * sigma
    field = CoefficientField(a=lam, b=rate - lam, r=rate, lam=lam, Lam=1.0)
    for strike in (0.9, 1.0, 1.1):
        for maturity in (0.75, 1.0, 1.25):
            spec = geometric_spec(strike=strike, maturity=maturity,
                                  sigma=sigma, rate=rate)
            prob = transform_geometric(spec)
            kernel_price = price(prob, EventPoint(0.0, 0.0, maturity),
                                 tol=1e-8).value
            grid = GridSpec(x_range=(-1.6, 1.6), y_range=(-0.9, 0.9),
                            t_range=(0.0, maturity), nx=129, ny=513,
                            nt=int(math.ceil(515 * maturity)))
            X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
            sol = solve_cauchy(field, prob.initial(X, Y), grid)
            i = np.argmin(np.abs(grid.xs))
            j = np.argmin(np.abs(grid.ys))
            fd_price = float(sol.final[i, j])
            assert fd_price == pytest.approx(kernel_price, rel=0.02)


def test_dual_method_quick():
    # reduced-size version of the dual-method agreement
    sigma, strike, maturity = 0.4, 1.0, 1.0
    lam = 0.5 * sigma**2
    spec = geometric_spec(sigma=sigma, strike=strike, maturity=maturity)
    prob = transform_geometric(spec)
    kernel_price = price(prob, EventPoint(0.0, 0.0, maturity),
                         tol=1e-8).value
    model = ModelSpec(mu=-lam, sigma=sigma, r=0.0,
                      averaging=Averaging.GEOMETRIC)
    est, se = mc_price(model, spec.payoff, (1.0, 0.0, 0.0), maturity,
                       McConfig(n_paths=100_000, n_steps=128, seed=42))
    assert abs(kernel_price - est) <= 3.0 * se


def test_price_family_refuses_a_rate():
    spec = PricingSpec(payoff=unit_payoff, kind=Averaging.ARITHMETIC,
                       sigma=math.sqrt(2.0), rate=0.05,
                       growth=GrowthBound(M=1.5, C=0.5))
    with pytest.raises(ValueError, match="r = 0"):
        price(make_arithmetic_problem(spec), EventPoint(1.0, 0.0, 1.0),
              tol=1e-5)


def test_price_refuses_missed_tolerance():
    # a jump the quadrature is not told about: the two rules disagree far
    # beyond tol, so the price is refused; declared as a kink line, it is
    # priced within tol
    def digital(s, a):
        return (np.asarray(a, float) > 0.0).astype(float)

    growth = GrowthBound(M=1.5, C=0.1)
    hidden = transform_geometric(
        geometric_spec(payoff=digital, growth=growth, kinks=()))
    with pytest.raises(ToleranceNotMetError, match="above tol"):
        price(hidden, EventPoint(0.0, 0.0, 1.0), tol=1e-6)
    declared = transform_geometric(
        geometric_spec(payoff=digital, growth=growth, kinks=(0.0,)))
    res = price(declared, EventPoint(0.0, 0.0, 1.0), tol=1e-6)
    assert res.abs_error_estimate <= 1e-6
    # P(mean of the log price > 0) with mean -lam/2 and variance sigma^2/3
    sd = math.sqrt(0.4**2 / 3.0)
    assert res.value == pytest.approx(norm.cdf(-0.04 / sd), abs=1e-6)
