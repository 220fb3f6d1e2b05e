"""Path-simulation oracle: log-exact stepping, pathwise averaging, pricing.

The price process has constant coefficients and is stepped exactly in log
space, the running average by the trapezoid rule, and every draw comes
from a counter-based generator keyed by (seed, path block) so results are
bitwise reproducible and independent of worker layout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "Averaging",
    "ModelSpec",
    "McConfig",
    "TerminalSamples",
    "Histogram2D",
    "simulate_terminal",
    "mc_price",
    "empirical_density",
    "fraction_within_bands",
]

PATH_BLOCK = 1 << 16


class Averaging(Enum):
    GEOMETRIC = "geometric"    # average of log-price
    ARITHMETIC = "arithmetic"  # average of price


@dataclass(frozen=True)
class ModelSpec:
    """Constant-coefficient price dynamics and averaging choice.

    mu is the exponent drift of the log price,
    S_t = S_0 * exp(mu*t + sigma*W_t), so the Ito drift is mu + sigma^2/2;
    r is the interest rate that discounts a payoff.
    """

    mu: float = 0.0
    sigma: float = 1.0
    r: float = 0.0
    averaging: Averaging = Averaging.ARITHMETIC

    def __post_init__(self) -> None:
        for name, value in (("mu", self.mu), ("sigma", self.sigma),
                            ("r", self.r)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 100_000
    n_steps: int = 256
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("n_paths and n_steps must be positive")


@dataclass(frozen=True)
class TerminalSamples:
    s: np.ndarray
    a: np.ndarray


def _block_generator(seed: int, block: int) -> np.random.Generator:
    # Philox is counter-based; the 128-bit key (seed, block) gives each
    # fixed-size path block its own stream regardless of execution order.
    return np.random.Generator(
        np.random.Philox(key=np.array([seed % (1 << 64), block],
                                      dtype=np.uint64))
    )


def _avg_fn(model: ModelSpec) -> Callable:
    if model.averaging is Averaging.GEOMETRIC:
        return np.log
    return lambda s: s


def simulate_terminal(
    model: ModelSpec,
    start: tuple[float, float],
    horizon: float,
    cfg: McConfig,
) -> TerminalSamples:
    """Terminal (S_T, A_T) samples.

    Log-Euler steps for S, exact in law; A accumulates by the trapezoid
    rule.  Antithetic mode pairs adjacent paths of each block with mirrored
    normal draws.
    """
    s0, a0 = start
    if not 0.0 < s0 < math.inf:
        raise ValueError(f"starting price must be positive and finite, "
                         f"got {s0}")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got "
                         f"{horizon}")
    favg = _avg_fn(model)
    dt = horizon / cfg.n_steps
    drift, vol = model.mu * dt, model.sigma * math.sqrt(dt)

    out_s = np.empty(cfg.n_paths)
    out_a = np.empty(cfg.n_paths)
    n_blocks = (cfg.n_paths + PATH_BLOCK - 1) // PATH_BLOCK
    for b in range(n_blocks):
        i0 = b * PATH_BLOCK
        i1 = min(i0 + PATH_BLOCK, cfg.n_paths)
        m = i1 - i0
        gen = _block_generator(cfg.seed, b)
        logs = np.full(m, math.log(s0))
        s = np.full(m, s0)
        a = np.full(m, a0)
        f_prev = favg(s)
        for _ in range(cfg.n_steps):
            if cfg.antithetic:
                # mirrored draws on adjacent paths (2k, 2k+1); the block
                # size is even, so pairs never straddle blocks
                zh = gen.standard_normal((m + 1) // 2)
                z = np.empty(m)
                z[0::2] = zh
                z[1::2] = -zh[: m // 2]
            else:
                z = gen.standard_normal(m)
            logs = logs + drift + vol * z
            s = np.exp(logs)
            f = favg(s)
            a = a + 0.5 * dt * (f_prev + f)
            f_prev = f
        out_s[i0:i1] = s
        out_a[i0:i1] = a
    return TerminalSamples(s=out_s, a=out_a)


def mc_price(
    model: ModelSpec,
    payoff: Callable,
    point: tuple[float, float, float],
    maturity: float,
    cfg: McConfig,
) -> tuple[float, float]:
    """Discounted expectation of payoff(S_T, A_T) from (S, A, t).

    Returns (estimate, standard error); the payoff is discounted by
    exp(-r * (maturity - t)).
    """
    s, a, t = point
    if t >= maturity:
        raise ValueError("evaluation time must precede maturity")
    samples = simulate_terminal(model, (s, a), maturity - t, cfg)
    vals = math.exp(-model.r * (maturity - t)) \
        * payoff(samples.s, samples.a)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(cfg.n_paths)) \
        if cfg.n_paths > 1 else 0.0
    return est, se


@dataclass(frozen=True)
class Histogram2D:
    x_edges: np.ndarray
    y_edges: np.ndarray
    counts: np.ndarray
    n_samples: int

    @property
    def x_centers(self) -> np.ndarray:
        return 0.5 * (self.x_edges[:-1] + self.x_edges[1:])

    @property
    def y_centers(self) -> np.ndarray:
        return 0.5 * (self.y_edges[:-1] + self.y_edges[1:])

    @property
    def bin_area(self) -> float:
        return float((self.x_edges[1] - self.x_edges[0])
                     * (self.y_edges[1] - self.y_edges[0]))


def empirical_density(
    samples: tuple[np.ndarray, np.ndarray],
    bins: tuple[np.ndarray, np.ndarray],
) -> Histogram2D:
    """2D histogram counts; fraction_within_bands tests them per bin."""
    xs, ys = samples
    if xs.size < 10_000:
        raise ValueError("need at least 1e4 samples for a density estimate")
    x_edges, y_edges = np.asarray(bins[0], float), np.asarray(bins[1], float)
    counts, _, _ = np.histogram2d(xs, ys, bins=(x_edges, y_edges))
    return Histogram2D(x_edges=x_edges, y_edges=y_edges, counts=counts,
                       n_samples=xs.size)


def fraction_within_bands(hist: Histogram2D, expected_density: np.ndarray
                          ) -> float:
    """Fraction of bins whose count falls in the central 3-sigma Poisson
    interval around the expected count implied by a reference density."""
    # imported here: at module level scipy.stats is about half the time it
    # takes to import the CLI, which never calls this function
    from scipy.stats import poisson

    expected = np.asarray(expected_density) * hist.n_samples * hist.bin_area
    lo = poisson.ppf(0.00135, np.maximum(expected, 1e-300))
    hi = poisson.ppf(0.99865, np.maximum(expected, 1e-300))
    inside = (hist.counts >= lo) & (hist.counts <= hi)
    return float(np.mean(inside))
