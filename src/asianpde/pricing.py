"""Cauchy-problem transforms and representation-formula pricing.

A problem is a payoff spec, the only holder of sigma and r, and its payoff
on the state plane of the spec's family; `price` integrates that family's
fundamental solution against it, u = integral of Gamma * phi with lambda =
sigma^2/2.  The quadrature runs in kernel-adapted coordinates: per rule
order, fixed outer nodes times fixed inner edges, in blocks of rows.  The
log-price family uses standardized Gaussian variables rotated so that each
kink line is one inner edge; a rotation keeps the truncation radius.  Its
outer axis carries no kink, so one Gauss-Hermite rule integrates it over
the whole line, and Gauss-Legendre panels tile the inner axis on [-L, L].
The price family uses s = log z and v = log u of Yor's density: theta depends
on s alone, so one call per rule evaluates it on the outer s nodes.  The
s axis carries no kink, so one uniform trapezoid of step 0.6 * width
integrates it, and Gauss-Legendre panels tile the v axis; the rows are cut
to the band |s + v| <= w_half that truncates w, and s stops at 7, above
which e^-z underflows.  Each family hands its rule to
`_quadrature.dual_rule`, which runs the coarse and fine pair and gives the
estimate.  Truncation radii are chosen so the discarded envelope mass times
the growth bound stays below tol/10, which `price` adds to the estimate;
`price` alone refuses a price whose estimate misses the tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from ._quadrature import (BLOCK_NODES, dual_rule, edges_with_kinks,
                          gauss_hermite, panel_nodes)
from .geometry import EventPoint
from .kernels import KernelParams, KernelResult, _yor_band_rule
from .mc import Averaging

__all__ = [
    "GrowthBound",
    "PricingSpec",
    "CauchyProblem",
    "GrowthViolationError",
    "ToleranceNotMetError",
    "transform_geometric",
    "make_arithmetic_problem",
    "growth_check",
    "price",
    "geometric_call_payoff",
    "arithmetic_call_payoff",
]


class GrowthViolationError(ValueError):
    """Payoff exceeds its declared growth bound on the test lattice."""


class ToleranceNotMetError(RuntimeError):
    """The price's error estimate exceeds the requested tolerance."""


@dataclass(frozen=True)
class GrowthBound:
    """|payoff| <= M * exp(C * |(x, y)|): the exponential growth under which
    the representation formula solves the Cauchy problem."""

    M: float
    C: float

    def envelope(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        norm = np.hypot(np.asarray(x, float), np.asarray(y, float))
        return self.M * np.exp(self.C * norm)


@dataclass(frozen=True)
class PricingSpec:
    """Payoff descriptor: callable of the state pair plus model constants.

    For kind=GEOMETRIC the payoff takes (S, A) with A the integrated log
    price; for ARITHMETIC it takes (S, A) with A the integrated price.
    sigma and rate are the constant volatility and interest rate, the only
    copy of them that pricing reads; the time to maturity is the evaluation
    point's t.  kink_lines lists y-values where the transformed payoff has
    kinks so the quadrature can split panels there.  Off those lines the
    payoff must be smooth: a kink or jump anywhere else (a kink in S, say)
    leaves the rules to disagree, and the price is refused unless the
    estimate that disagreement gives still meets the tolerance.
    """

    payoff: Callable
    kind: Averaging
    sigma: float
    rate: float = 0.0
    growth: GrowthBound = dc_field(
        default_factory=lambda: GrowthBound(M=1.0, C=1.0))
    kink_lines: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got "
                             f"{self.sigma!r}")
        if not math.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate!r}")


@dataclass(frozen=True)
class CauchyProblem:
    spec: PricingSpec
    initial: Callable            # transformed payoff on the state plane


def _check_call(strike: float, maturity: float) -> None:
    if not (0.0 < strike < math.inf and 0.0 < maturity < math.inf):
        raise ValueError(f"strike and maturity must be positive and finite, "
                         f"got {strike!r} and {maturity!r}")


def geometric_call_payoff(strike: float, maturity: float) -> Callable:
    """Call on the exponential of the averaged log price."""
    _check_call(strike, maturity)

    def phi(s, a):
        return np.maximum(np.exp(np.asarray(a) / maturity) - strike, 0.0)
    return phi


def arithmetic_call_payoff(strike: float, maturity: float) -> Callable:
    """Call on the time average of the price."""
    _check_call(strike, maturity)

    def phi(s, a):
        return np.maximum(np.asarray(a) / maturity - strike, 0.0)
    return phi


# ---------------------------------------------------------------------------
# Problem transforms
# ---------------------------------------------------------------------------

def transform_geometric(spec: PricingSpec) -> CauchyProblem:
    """Log-price change of variables v(x, y, t) = Z(e^x, y, T - t).

    The problem is the log-price family's, a = sigma^2/2, b = r - sigma^2/2
    and zero-order rate r from the spec, with initial datum
    phi~(x, y) = payoff(e^x, y).
    """
    if spec.kind is not Averaging.GEOMETRIC:
        raise ValueError("transform_geometric needs a geometric-kind spec")
    payoff = spec.payoff

    def initial(x, y):
        return payoff(np.exp(np.asarray(x, float)), y)

    return CauchyProblem(spec=spec, initial=initial)


def make_arithmetic_problem(spec: PricingSpec) -> CauchyProblem:
    """Price-family problem; no change of variables, payoff used directly."""
    if spec.kind is not Averaging.ARITHMETIC:
        raise ValueError("needs an arithmetic-kind spec")
    return CauchyProblem(spec=spec, initial=spec.payoff)


def growth_check(spec: PricingSpec, lattice: tuple[np.ndarray, np.ndarray],
                 transformed: Callable) -> tuple[bool, float]:
    """Validate |transformed| <= M exp(C |.|), the spec's growth
    bound, on the lattice; `transformed` is the problem's initial datum
    (phi~ for the log-price family).  Returns (ok, worst ratio)."""
    xs, ys = lattice
    vals = np.abs(np.asarray(transformed(xs, ys), float))
    env = spec.growth.envelope(xs, ys)
    worst = float(np.max(vals / env))
    return worst <= 1.0 + 1e-12, worst


# ---------------------------------------------------------------------------
# Representation formula
# ---------------------------------------------------------------------------

def _truncation_radius(growth: GrowthBound, offset: float, slope: float,
                       tol: float) -> float:
    # smallest L with
    #   exp(-L^2) * M * exp(C*(offset + slope*L)) * (2L)^2 < tol/10
    # evaluated in log space; offset/slope bound the payoff argument norm
    # over the standardized integration square
    L = 3.0
    for _ in range(200):
        log_tail = (-L * L + math.log(growth.M)
                    + growth.C * (offset + slope * L)
                    + 2.0 * math.log(2.0 * L))
        if log_tail < math.log(tol / 10.0):
            return L
        L *= 1.25
        if L > 1e6:
            break
    raise GrowthViolationError(
        "growth bound defeats the kernel envelope; no truncation radius"
    )


def _price_gamma_k(problem: CauchyProblem, point: EventPoint, r: float,
                   lam: float, tol: float, budget: float
                   ) -> tuple[float, float]:
    """Tensor Gauss rule in rotated standardized (xbar, ybar).

    xi = x - sx*xbar and eta = c - n*rho, with c = y + dt*x, p = dt*sx/2,
    n = hypot(p, sy), inner rho = (p*xbar + sy*ybar)/n and outer
    (p*ybar - sy*xbar)/n, so a kink line k is the inner edge (c - k)/n of
    every row.  The outer axis carries no kink, so the Gauss-Hermite rule
    of 3*order nodes, whose weights hold e^{-outer^2}, integrates it over
    the whole line; Gauss-Legendre panels tile the inner axis on [-L, L].
    Only the strip |rho| > L is discarded, which lies inside the complement
    of the square [-L, L]^2: a rotation keeps the Gaussian, the map's norm
    and the corner radius sqrt(2)*L, so the unrotated L's tol/10 share
    covers it.  Row blocks of BLOCK_NODES nodes keep the working memory
    under 1 MB a price."""
    spec = problem.spec
    x, y, dt = point.x, point.y, point.t
    # shift onto the drift-free model operator, discount at the end
    x = x + (r - lam) * dt
    y = y + (lam - r) * dt**2 / 2.0
    discount = math.exp(-r * dt)

    sx = 2.0 * math.sqrt(lam * dt)            # xi = x - sx * xbar
    sy = math.sqrt(lam * dt**3 / 3.0)         # eta offset per unit ybar
    offset = abs(x) + abs(y) + dt * abs(x) + 1.0
    slope = math.hypot(sx, sy) * (1.0 + dt)
    L = _truncation_radius(spec.growth, offset, slope, tol)

    c, n = y + dt * x, math.hypot(dt * sx / 2.0, sy)
    rho_kinks = (c - np.asarray(spec.kink_lines, float)) / n
    phi = problem.initial

    def integrate(order: int, width: float) -> tuple[float, float]:
        perp, wp = gauss_hermite(3 * order)
        rho, wr = panel_nodes(edges_with_kinks(-L, L, width, rho_kinks),
                              order)
        wr = wr * np.exp(-rho * rho)
        eta, xi_rho = c - n * rho, x - (dt * sx * sx / (2.0 * n)) * rho
        rows = max(1, BLOCK_NODES // rho.size)
        total = 0.0
        for lo in range(0, perp.size, rows):
            xi = xi_rho + (sx * sy / n) * perp[lo:lo + rows, None]
            vals = np.broadcast_to(phi(xi, eta), xi.shape)
            total += wp[lo:lo + rows] @ (vals @ wr)
        return float(total) / math.pi, 0.0

    value, err = dual_rule(integrate, 0.3, budget)
    return discount * value, discount * err


def _price_gamma_l(problem: CauchyProblem, point: EventPoint, lam: float,
                   tol: float, budget: float) -> tuple[float, float]:
    """Yor's density at Yor time lam*dt/2 against the payoff, by
    :func:`kernels._yor_band_rule` in s = log z and v = log u.

    The pole is xi = x e^2w, eta = y + 2 x u / lam; the payoff kink at
    eta = k is the v-edge log(lam*(k - y)/(2x)), shared by every row.
    """
    spec = problem.spec
    x, y, dt = point.x, point.y, point.t
    if x <= 0.0:
        raise ValueError("price-family evaluation needs x > 0")
    t_yor = lam * dt / 2.0
    phi = problem.initial
    u_kinks = [lam * (k - y) / (2.0 * x) for k in spec.kink_lines]
    v_kinks = [math.log(u_k) for u_k in u_kinks if u_k > 0.0]

    def payoff(e2w, u):
        return phi(x * e2w, y + 2.0 * x * u / lam)

    return dual_rule(lambda order, width: _yor_band_rule(
        t_yor, v_kinks, order, width, tol, payoff), 0.34, budget)


def price(problem: CauchyProblem, point: EventPoint,
          tol: float = 1e-6) -> KernelResult:
    """Representation-formula price: kernel integrated against the payoff.

    The kernel follows problem.spec.kind: the Gaussian Gamma_K for the
    log-price family, Gamma_L through Yor's density for the price family.
    Its diffusion constant lambda = sigma^2/2 and the rate r come from
    spec.sigma and spec.rate; a rate on the price family, which has no
    discounting here, raises ValueError.  The payoff must satisfy the spec's
    growth bound (checked on a lattice).  A tol that is not positive and
    finite raises ValueError; a result whose error estimate exceeds tol
    raises ToleranceNotMetError.
    """
    spec = problem.spec
    r, lam = spec.rate, 0.5 * spec.sigma * spec.sigma
    KernelParams(lam)  # refuses lambda <= 0
    if point.t <= 0.0:
        raise ValueError(f"evaluation time must be positive, got {point.t}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    geometric = spec.kind is Averaging.GEOMETRIC
    if not geometric and r != 0.0:
        raise ValueError("the price-family kernel prices only r = 0")
    lat = np.linspace(-10, 10, 41)
    LX, LY = np.meshgrid(lat, lat, indexing="ij")
    if not geometric:
        LX = np.exp(np.linspace(-6, 6, 41))[:, None] * np.ones((1, 41))
        LY = np.abs(LY)
    ok, worst = growth_check(spec, (LX, LY), transformed=problem.initial)
    if not ok:
        raise GrowthViolationError(
            f"payoff exceeds its growth bound (worst ratio {worst:.3g})"
        )
    budget = tol - tol / 10.0       # what truncation's tol/10 leaves
    if geometric:
        value, err = _price_gamma_k(problem, point, r, lam, tol, budget)
    else:
        value, err = _price_gamma_l(problem, point, lam, tol, budget)
    err += tol / 10.0
    if value < 0.0:             # clamp, and count the clamp in the estimate
        value, err = 0.0, err - value
    if err > tol:
        raise ToleranceNotMetError(
            f"price {value:.6g} has error estimate {err:.3g} above tol "
            f"{tol:.3g}"
        )
    return KernelResult(value=value, abs_error_estimate=err,
                        tolerance_used=tol)
