"""Reference values computed apart from the program under test.

Nothing here imports ``asianpde``.  Each oracle is written from its
published formula; ``bench/tests/test_oracles.py`` checks every one against
a second, differently computed value.

Exponent drift.  A price path is S_s = S0 * exp(nu * s + sigma * W_s).  The
program prices arithmetic averages with nu = 0 today; the risk-neutral
choice is nu = r - sigma^2 / 2.  The arithmetic oracles take nu explicitly
so that a check can accept either.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ndtr

# Linetsky (2004), "Spectral expansions for Asian (average price) options",
# Oper. Res. 52(6): the seven standard cases of continuously averaged
# arithmetic calls, K = 2, each row (r, sigma, T, S0, price).
LINETSKY_TABLE = (
    (0.02, 0.10, 1.0, 2.0, 0.0559860415),
    (0.18, 0.30, 1.0, 2.0, 0.2183875466),
    (0.0125, 0.25, 2.0, 2.0, 0.1722687410),
    (0.05, 0.50, 1.0, 1.9, 0.1931737903),
    (0.05, 0.50, 1.0, 2.0, 0.2464156905),
    (0.05, 0.50, 1.0, 2.1, 0.3062203648),
    (0.05, 0.50, 2.0, 2.0, 0.3500952190),
)
LINETSKY_STRIKE = 2.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _lognormal_call(m: float, v: float, strike: float) -> float:
    """E[(e^X - K)^+] for X ~ N(m, v), v > 0 (Black's formula)."""
    sd = math.sqrt(v)
    d1 = (m - math.log(strike) + v) / sd
    return math.exp(m + 0.5 * v) * ndtr(d1) - strike * ndtr(d1 - sd)


def geometric_average_call(spot: float, strike: float, rate: float,
                           sigma: float, maturity: float, nu: float) -> float:
    """Call on exp((1/T) * integral of log S) under exponent drift nu.

    log G = log S0 + nu*T/2 + sigma * (1/T) * integral of W, a Gaussian with
    variance sigma^2 T / 3; the payoff is discounted at e^{-rT}.
    """
    m = math.log(spot) + 0.5 * nu * maturity
    v = sigma * sigma * maturity / 3.0
    return math.exp(-rate * maturity) * _lognormal_call(m, v, strike)


def kemna_vorst(spot: float, strike: float, rate: float, sigma: float,
                maturity: float) -> float:
    """Kemna & Vorst (1990), J. Banking Finance 14: continuously averaged
    geometric call under the risk-neutral drift nu = r - sigma^2/2."""
    return geometric_average_call(spot, strike, rate, sigma, maturity,
                                  rate - 0.5 * sigma * sigma)


def kemna_vorst_payoff_sd(spot: float, strike: float, rate: float,
                          sigma: float, maturity: float) -> float:
    """Standard deviation of the discounted payoff e^{-rT} (G - K)^+ whose
    mean is ``kemna_vorst``; an MC estimate of n paths has standard error
    this over sqrt(n).

    With log G ~ N(m, v), E[G^j 1{G > K}] = e^{jm + j^2 v/2} N((m + jv -
    log K) / sqrt(v)), and the first two payoff moments are sums of these.
    """
    m = math.log(spot) + 0.5 * (rate - 0.5 * sigma * sigma) * maturity
    v = sigma * sigma * maturity / 3.0
    sd, lk = math.sqrt(v), math.log(strike)

    def tail(j: int) -> float:
        return math.exp(j * m + 0.5 * j * j * v) * ndtr((m + j * v - lk) / sd)

    first = tail(1) - strike * tail(0)
    second = tail(2) - 2.0 * strike * tail(1) + strike * strike * tail(0)
    return math.exp(-rate * maturity) * math.sqrt(second - first * first)


def time_average_of_calls(spot: float, strike: float, rate: float,
                          sigma: float, maturity: float, nu: float) -> float:
    """e^{-rT} (1/T) * integral over s in (0, T) of E[(S_s - K)^+].

    By Jensen, (A_T/T - K)^+ <= (1/T) * integral of (S_s - K)^+, so this
    bounds the arithmetic call from above.  Each E[(S_s - K)^+] is Black's
    formula; the s-integral is 64-point Gauss-Legendre after s = T u^2,
    which removes the sqrt(s) behaviour at s = 0.
    """
    u = 0.5 * (_GL_NODES + 1.0)
    s = maturity * u * u
    vals = np.array([_lognormal_call(math.log(spot) + nu * si,
                                     sigma * sigma * si, strike)
                     for si in s])
    integral = float(np.dot(0.5 * _GL_WEIGHTS, vals * 2.0 * u))
    return math.exp(-rate * maturity) * integral


def arithmetic_mean(spot: float, rate: float, sigma: float, maturity: float,
                    nu: float) -> float:
    """e^{-rT} E[A_T / T] = e^{-rT} S0 (e^{gT} - 1) / (gT), g = nu + sigma^2/2.

    A call whose strike the average almost surely exceeds is worth exactly
    this minus e^{-rT} K.
    """
    gT = (nu + 0.5 * sigma * sigma) * maturity
    growth = math.expm1(gT) / gT if gT != 0.0 else 1.0
    return math.exp(-rate * maturity) * spot * growth


def drifts(rate: float, sigma: float) -> tuple[float, float]:
    """The two exponent drifts an arithmetic check accepts: 0 and r - s^2/2."""
    return 0.0, rate - 0.5 * sigma * sigma


# ---------------------------------------------------------------------------
# Yor's density and the price-family kernel
# ---------------------------------------------------------------------------

def _theta_cutoff(z: float, t: float) -> float:
    # past this point exp(-xi^2/(2t) - z cosh xi) sinh xi < e^-740
    by_gauss = math.sqrt(2.0 * t * 760.0) + 1.0
    by_cosh = math.log(2.0 * 760.0 / z) + 1.0
    return max(min(by_gauss, by_cosh), 4.0 * t)


def theta_integral(z: float, t: float) -> tuple[float, float]:
    """Integral over (0, inf) of exp(-xi^2/(2t) - z cosh xi) sinh xi
    sin(pi xi / t) d xi, by QUADPACK's sine-weighted rule (QAWO).

    Returns (value, error).  The error is the larger of QUADPACK's estimate
    and a roundoff floor of 64 eps times the integral of the absolute
    integrand, since the value can sit far below the integrand's size.
    """
    b = _theta_cutoff(z, t)

    def env(xi):
        return math.exp(-xi * xi / (2.0 * t) - z * math.cosh(xi)) \
            * math.sinh(xi)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(env, 0.0, b, weight="sin", wvar=math.pi / t,
                        epsabs=0.0, epsrel=1e-13, limit=2000)
        scale, _ = quad(env, 0.0, b, epsabs=0.0, epsrel=1e-6, limit=200)
    return val, max(err, 64.0 * np.finfo(float).eps * scale)


def yor_density(w: float, u: float, t: float) -> tuple[float, float]:
    """Yor (1992), "On some exponential functionals of Brownian motion",
    Adv. Appl. Prob. 24: density of (B_t, integral_0^t e^{2 B_s} ds) at
    (w, u), t > 0, u > 0, as (value, error):

        p = exp(-(1 + e^{2w}) / (2u)) / u * theta_r(t),   r = e^w / u,
        theta_r(t) = r / sqrt(2 pi^3 t) * exp(pi^2 / (2t)) * theta_integral.
    """
    r = math.exp(w) / u
    log_pref = (-(1.0 + math.exp(2.0 * w)) / (2.0 * u) - math.log(u)
                + math.log(r) - 0.5 * math.log(2.0 * math.pi ** 3 * t)
                + math.pi ** 2 / (2.0 * t))
    pref = math.exp(log_pref)
    val, err = theta_integral(r, t)
    return pref * val, pref * err


def gamma_l(lam: float, point: tuple[float, float, float],
            pole: tuple[float, float, float]) -> tuple[float, float]:
    """Price-family kernel with diffusion lam at `point`, pole `pole`.

    It is the density at (xi, eta) of (S, A) started from (x, y), with
    S_s = x exp(sqrt(2 lam) W_s) and dA = S ds, after elapsed time
    t - tau.  Writing S_s = x exp(2 B_{lam s / 2}) for a Brownian motion B
    gives A - y = (2x / lam) * integral_0^{lam s/2} e^{2B}, so with
    w = log(xi/x)/2, u = lam (eta - y) / (2x), tB = lam (t - tau) / 2 the
    kernel is p(w, u, tB) * |dw/dxi| * |du/deta| = lam p / (4 x xi).
    Zero unless t > tau and eta > y.
    """
    x, y, t = point
    xi, eta, tau = pole
    if t <= tau or eta <= y:
        return 0.0, 0.0
    jac = lam / (4.0 * x * xi)
    val, err = yor_density(0.5 * math.log(xi / x),
                           lam * (eta - y) / (2.0 * x), lam * (t - tau) / 2.0)
    return jac * val, jac * err


# ---------------------------------------------------------------------------
# Log-price family kernel
# ---------------------------------------------------------------------------

def gamma_k_grid(lam: float, xs: np.ndarray, ys: np.ndarray, t: float,
                 pole: tuple[float, float]) -> np.ndarray:
    """Closed-form log-price kernel on the tensor grid xs x ys at elapsed t.

    It is the density of (X_t, Y_t) with dX = sqrt(2 lam) dW, dY = -X dt,
    started at the pole (xi, eta): Gaussian with mean (xi, eta - xi t) and
    covariance [[2 lam t, -lam t^2], [-lam t^2, 2 lam t^3 / 3]].
    """
    xi, eta = pole
    cxx, cxy, cyy = 2.0 * lam * t, -lam * t * t, 2.0 * lam * t ** 3 / 3.0
    det = cxx * cyy - cxy * cxy
    dx = xs[:, None] - xi
    dy = ys[None, :] - (eta - xi * t)
    q = (cyy * dx * dx - 2.0 * cxy * dx * dy + cxx * dy * dy) / det
    return np.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))
