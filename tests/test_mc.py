"""Simulation oracle: exactness, moments, reproducibility, histograms."""
import math

import numpy as np
import pytest

from asianpde import mc
from asianpde.mc import (Averaging, McConfig, ModelSpec, empirical_density,
                         fraction_within_bands, mc_price, simulate_terminal)


def test_degenerate_diffusion_is_exact():
    # sigma = 0, mu = 0: the price never moves, the log average is exact
    model = ModelSpec(mu=0.0, sigma=0.0, averaging=Averaging.GEOMETRIC)
    s0 = 2.5
    out = simulate_terminal(model, (s0, 0.0), 1.7, McConfig(
        n_paths=1000, n_steps=16, seed=0))
    assert np.all(out.s == s0)
    assert np.allclose(out.a, 1.7 * math.log(s0), rtol=1e-14)


def test_integrated_exponential_mean():
    # E[A_T] = integral of e^s = e - 1 for mu=0, sigma=sqrt(2), T=1
    model = ModelSpec(mu=0.0, sigma=math.sqrt(2.0),
                      averaging=Averaging.ARITHMETIC)
    out = simulate_terminal(model, (1.0, 0.0), 1.0, McConfig(
        n_paths=400_000, n_steps=256, seed=7))
    se = float(np.std(out.a) / math.sqrt(out.a.size))
    assert abs(float(np.mean(out.a)) - (math.e - 1.0)) <= 3.0 * se


def test_martingale_when_driftless():
    # exponent drift mu = -sigma^2/2 makes the price a martingale
    sigma = 0.8
    model = ModelSpec(mu=-sigma**2 / 2.0, sigma=sigma,
                      averaging=Averaging.ARITHMETIC)
    out = simulate_terminal(model, (1.0, 0.0), 1.0, McConfig(
        n_paths=400_000, n_steps=128, seed=11))
    se = float(np.std(out.s) / math.sqrt(out.s.size))
    assert abs(float(np.mean(out.s)) - 1.0) <= 3.0 * se


def test_average_monotone_for_arithmetic():
    # f = id >= 0 on prices, and the trapezoid update preserves sign, so
    # the average is nondecreasing from its start pathwise
    model = ModelSpec(mu=0.1, sigma=0.5, averaging=Averaging.ARITHMETIC)
    for horizon in (0.25, 1.0):
        out = simulate_terminal(model, (1.0, 0.0), horizon, McConfig(
            n_paths=20_000, n_steps=64, seed=3))
        assert np.all(out.a >= 0.0)
    short = simulate_terminal(model, (1.0, 0.0), 0.5, McConfig(
        n_paths=20_000, n_steps=64, seed=3))
    longer = simulate_terminal(model, (1.0, 0.0), 1.0, McConfig(
        n_paths=20_000, n_steps=128, seed=3))
    # same seed, same per-step draws: extending the horizon only adds mass
    assert np.all(longer.a >= short.a - 1e-12)


def test_antithetic_variance_reduction():
    sigma, n = 0.4, 100_000
    model = ModelSpec(mu=-sigma**2 / 2, sigma=sigma,
                      averaging=Averaging.ARITHMETIC)
    plain = simulate_terminal(model, (1.0, 0.0), 1.0, McConfig(
        n_paths=n, n_steps=64, seed=21, antithetic=False))
    anti = simulate_terminal(model, (1.0, 0.0), 1.0, McConfig(
        n_paths=n, n_steps=64, seed=21, antithetic=True))
    var_plain = float(np.var(plain.s)) / n
    pair_means = 0.5 * (anti.s[0::2] + anti.s[1::2])
    var_anti = float(np.var(pair_means)) / pair_means.size
    assert var_plain / var_anti >= 1.5


def test_bitwise_reproducibility():
    model = ModelSpec(mu=0.0, sigma=1.0, averaging=Averaging.ARITHMETIC)
    cfg = McConfig(n_paths=70_000, n_steps=32, seed=123)
    a = simulate_terminal(model, (1.0, 0.0), 1.0, cfg)
    b = simulate_terminal(model, (1.0, 0.0), 1.0, cfg)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.a, b.a)
    c = simulate_terminal(model, (1.0, 0.0), 1.0, McConfig(
        n_paths=70_000, n_steps=32, seed=124))
    assert not np.array_equal(a.s, c.s)


def _reference_terminal(model, start, horizon, cfg):
    # the path loop written plainly, the average term of the old price
    # recomputed at each step; one block, as n_paths < PATH_BLOCK
    s0, a0 = start
    favg = np.log if model.averaging is Averaging.GEOMETRIC else (
        lambda s: s)
    dt = horizon / cfg.n_steps
    drift, vol = model.mu * dt, model.sigma * math.sqrt(dt)
    gen = mc._block_generator(cfg.seed, 0)
    m = cfg.n_paths
    logs, s, a = np.full(m, math.log(s0)), np.full(m, s0), np.full(m, a0)
    for _ in range(cfg.n_steps):
        if cfg.antithetic:
            zh = gen.standard_normal((m + 1) // 2)
            z = np.empty(m)
            z[0::2] = zh
            z[1::2] = -zh[: m // 2]
        else:
            z = gen.standard_normal(m)
        f_prev = favg(s)
        logs = logs + drift + vol * z
        s = np.exp(logs)
        a = a + 0.5 * dt * (f_prev + favg(s))
    return s, a


@pytest.mark.parametrize("averaging", list(Averaging))
@pytest.mark.parametrize("antithetic", [False, True])
def test_simulate_terminal_matches_reference_loop(averaging, antithetic):
    model = ModelSpec(mu=0.1, sigma=0.7, averaging=averaging)
    cfg = McConfig(n_paths=1_000, n_steps=16, seed=7, antithetic=antithetic)
    out = simulate_terminal(model, (1.3, 0.2), 0.75, cfg)
    s, a = _reference_terminal(model, (1.3, 0.2), 0.75, cfg)
    assert np.array_equal(out.s, s)
    assert np.array_equal(out.a, a)


def test_mc_price_unit_payoff():
    model = ModelSpec(mu=0.0, sigma=0.3, r=0.0,
                      averaging=Averaging.ARITHMETIC)
    est, se = mc_price(model, lambda s, a: np.ones_like(s), (1.0, 0.0, 0.0),
                       1.0, McConfig(n_paths=2000, n_steps=16, seed=0))
    assert est == 1.0 and se == 0.0


def test_mc_price_constant_rate_discount():
    r = 0.07
    model = ModelSpec(mu=0.0, sigma=0.3, r=r, averaging=Averaging.ARITHMETIC)
    est, se = mc_price(model, lambda s, a: np.ones_like(s), (1.0, 0.0, 0.25),
                       1.0, McConfig(n_paths=2000, n_steps=64, seed=0))
    assert est == pytest.approx(math.exp(-r * 0.75), rel=1e-12)
    assert se < 1e-14


def test_mc_price_requires_time_before_maturity():
    model = ModelSpec()
    with pytest.raises(ValueError):
        mc_price(model, lambda s, a: s, (1.0, 0.0, 1.0), 1.0,
                 McConfig(n_paths=1000, n_steps=8, seed=0))


# -- histograms ---------------------------------------------------------------

def test_empirical_density_uniform_flat():
    rng = np.random.default_rng(5)
    xs = rng.uniform(0, 1, 200_000)
    ys = rng.uniform(0, 1, 200_000)
    hist = empirical_density((xs, ys), (np.linspace(0, 1, 21),
                                        np.linspace(0, 1, 21)))
    flat = np.ones_like(hist.density)
    assert fraction_within_bands(hist, flat) >= 0.99
    assert abs(float(hist.density.mean()) - 1.0) < 1e-12


def test_empirical_density_needs_samples():
    with pytest.raises(ValueError):
        empirical_density((np.zeros(100), np.zeros(100)),
                          (np.linspace(0, 1, 5), np.linspace(0, 1, 5)))


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_paths=0, n_steps=8, seed=0)
    with pytest.raises(ValueError):
        simulate_terminal(ModelSpec(), (-1.0, 0.0), 1.0,
                          McConfig(n_paths=1000, n_steps=8, seed=0))
    with pytest.raises(ValueError):
        simulate_terminal(ModelSpec(), (1.0, 0.0), 0.0,
                          McConfig(n_paths=1000, n_steps=8, seed=0))
