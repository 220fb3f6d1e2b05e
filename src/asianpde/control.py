"""Value function of the bilinear steering problem behind the price-kernel bounds.

The state obeys dx = w*x ds, dy = x ds and must be driven from a start point
to an end point in fixed time while minimizing the control energy
integral of w^2.  The minimal energy has a closed two-branch form built on a
scalar auxiliary function g and its inverse; a piecewise-constant-control
optimizer provides an independent upper-bounding oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import EventPoint, GeometryKind, compose, inverse

__all__ = [
    "ControlEndpoints",
    "PsiBranch",
    "PsiValue",
    "InfeasibleError",
    "NonConvergenceError",
    "g",
    "g_inverse",
    "psi_canonical",
    "psi",
    "psi_direct",
    "psi_bruteforce",
]

PI_SQ = math.pi**2


class InfeasibleError(ValueError):
    """No admissible control reaches the requested endpoint."""


class NonConvergenceError(RuntimeError):
    """Oracle failed to meet the terminal-constraint residual."""


class PsiBranch(Enum):
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class PsiValue:
    cost: float
    branch: PsiBranch
    E: float


@dataclass(frozen=True)
class ControlEndpoints:
    """Start (x1, y1, t1) and end (x0, y0, t0) states; admissible iff
    x1, x0 > 0, t1 > t0 and y1 < y0 (y can only increase along paths)."""

    start: EventPoint
    end: EventPoint

    def __post_init__(self) -> None:
        if self.start.x <= 0.0 or self.end.x <= 0.0:
            raise ValueError("endpoint x coordinates must be positive")
        if self.start.t <= self.end.t:
            raise ValueError("start time must exceed end time")
        if self.start.y >= self.end.y:
            raise InfeasibleError("start y must lie strictly below end y")

    @property
    def horizon(self) -> float:
        return self.start.t - self.end.t


def g(r: float) -> float:
    """sinh(sqrt(r))/sqrt(r) for r > 0, extended by sin(sqrt(-r))/sqrt(-r)
    on (-pi^2, 0); continuous, strictly increasing, range (0, inf)."""
    if r <= -PI_SQ:
        raise ValueError(f"g is defined on (-pi^2, inf), got r={r}")
    if abs(r) < 1e-8:
        return 1.0 + r / 6.0 + r * r / 120.0
    if r > 0.0:
        s = math.sqrt(r)
        return math.sinh(s) / s
    m = math.sqrt(-r)
    return math.sin(m) / m


def g_inverse(s: float, tol: float = 1e-12) -> float:
    """Solve g(r) = s for r in (-pi^2, inf) by bracketed root find.

    The bracket is grown geometrically on the right and shrunk geometrically
    toward -pi^2 on the left; s -> 0+ maps to r -> -pi^2 without overflow.
    """
    # imported here: scipy.optimize is most of the time it takes to import
    # the CLI, and only this function and psi_bruteforce use it
    from scipy.optimize import brentq

    if s <= 0.0:
        raise ValueError(f"g_inverse requires s > 0, got {s}")
    if s == 1.0:
        return 0.0
    if s > 1.0:
        lo, hi = 0.0, 1.0
        while g(hi) < s:
            lo = hi
            hi *= 2.0
    else:
        hi = 0.0
        delta = PI_SQ / 2.0
        while g(-PI_SQ + delta) > s:
            hi = -PI_SQ + delta
            delta /= 2.0
            if delta < 1e-300:
                raise ValueError(f"g_inverse argument too small: {s}")
        lo = -PI_SQ + delta
    return brentq(lambda rr: g(rr) - s, lo, hi, xtol=tol, rtol=1e-15,
                  maxiter=200)


def _two_branch_cost(
    x1: float, y1: float, t1: float, x0: float, y0: float, t0: float,
    tol: float = 1e-12,
) -> PsiValue:
    T = t1 - t0
    dy = y0 - y1
    if T <= 0.0 or dy <= 0.0 or x1 <= 0.0 or x0 <= 0.0:
        raise InfeasibleError("endpoints violate admissibility")
    s = dy / (T * math.sqrt(x1 * x0))
    if s <= 0.0:
        raise InfeasibleError("inverse-g argument must be positive")
    r = g_inverse(s, tol=tol)
    E = 4.0 * r / (T * T)
    radicand = E + 4.0 * x1 * x0 / (dy * dy)
    if radicand < 0.0:
        if radicand < -1e-9 * max(1.0, abs(E)):
            raise InfeasibleError("negative radicand in the cost formula")
        radicand = 0.0
    root = 4.0 * math.sqrt(radicand)
    base = E * T + 4.0 * (x1 + x0) / dy
    if r >= -PI_SQ / 4.0:
        branch, cost = PsiBranch.UPPER, base - root
    else:
        branch, cost = PsiBranch.LOWER, base + root
    if cost < 0.0:
        if cost < -1e-9 * max(1.0, abs(base)):
            raise RuntimeError(f"negative control cost {cost}; formula misuse")
        cost = 0.0
    return PsiValue(cost=cost, branch=branch, E=E)


def psi_canonical(x: float, y: float, t: float) -> PsiValue:
    """Minimal energy from (x, y, t) to the canonical target (1, 0, 0)."""
    if x <= 0.0:
        raise ValueError(f"x must be positive, got {x}")
    if y >= 0.0:
        raise InfeasibleError(f"y must be negative, got {y}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    return _two_branch_cost(x, y, t, 1.0, 0.0, 0.0)


def psi(endpoints: ControlEndpoints) -> PsiValue:
    """Value via reduction to the canonical target through the group law.

    Left translations preserve the steering fields, so the value depends on
    the endpoints only through end^{-1} o start.
    """
    q = compose(GeometryKind.L, inverse(GeometryKind.L, endpoints.end),
                endpoints.start)
    return psi_canonical(q.x, q.y, q.t)


def psi_direct(endpoints: ControlEndpoints) -> PsiValue:
    """Value via the general two-branch formula, without group reduction."""
    s, e = endpoints.start, endpoints.end
    return _two_branch_cost(s.x, s.y, s.t, e.x, e.y, e.t)


def _phi(u: np.ndarray) -> np.ndarray:
    # (e^u - 1)/u, stable at 0.
    out = np.where(np.abs(u) < 1e-7, 1.0 + u / 2.0 + u * u / 6.0,
                   np.expm1(u) / np.where(u == 0.0, 1.0, u))
    return out


def _phi_prime(u: np.ndarray) -> np.ndarray:
    # d/du (e^u - 1)/u.
    small = np.abs(u) < 1e-5
    safe = np.where(small, 1.0, u)
    out = np.where(
        small,
        0.5 + u / 3.0 + u * u / 8.0,
        (safe * np.exp(safe) - np.expm1(safe)) / (safe * safe),
    )
    return out


def psi_bruteforce(
    endpoints: ControlEndpoints,
    n_steps: int = 32,
    iterations: int = 200,
    residual_tol: float = 1e-6,
) -> float:
    """Upper-bounding oracle: minimize energy over piecewise-constant controls.

    Each interval is integrated exactly (x moves by a multiplicative
    exponential, y by the exact integral of the exponential), so the only
    bias is the piecewise-constant restriction and the value converges to
    the true minimum from above as n_steps grows.  Terminal constraints are
    enforced by SLSQP and then projected out exactly through the last two
    intervals; raises NonConvergenceError if the projected residual exceeds
    residual_tol.
    """
    from scipy.optimize import minimize

    if n_steps < 8:
        raise ValueError("need n_steps >= 8")
    x1, y1 = endpoints.start.x, endpoints.start.y
    x0, y0 = endpoints.end.x, endpoints.end.y
    T = endpoints.horizon
    dt = T / n_steps
    log_ratio = math.log(x0 / x1)

    def state_terms(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = w * dt
        xs = x1 * np.exp(np.concatenate(([0.0], np.cumsum(u)[:-1])))
        return xs, u

    def y_terminal(w: np.ndarray) -> float:
        xs, u = state_terms(w)
        return y1 + float(np.sum(xs * dt * _phi(u)))

    def c2_jac(w: np.ndarray) -> np.ndarray:
        xs, u = state_terms(w)
        seg = xs * dt * _phi(u)
        # d y_T / d w_j: every later interval scales with exp growth, plus
        # the interval's own exact-integral derivative.
        tail = np.concatenate((np.cumsum(seg[::-1])[::-1][1:], [0.0]))
        return dt * tail + xs * dt * dt * _phi_prime(u)

    def objective(w: np.ndarray) -> float:
        return float(dt * np.sum(w * w))

    def objective_jac(w: np.ndarray) -> np.ndarray:
        return 2.0 * dt * w

    constraints = [
        {"type": "eq",
         "fun": lambda w: dt * np.sum(w) - log_ratio,
         "jac": lambda w: np.full(n_steps, dt)},
        {"type": "eq",
         "fun": lambda w: y_terminal(w) - y0,
         "jac": c2_jac},
    ]

    base = np.full(n_steps, log_ratio / T)
    centered = (np.arange(n_steps) + 0.5) / n_steps - 0.5
    betas = np.linspace(-24.0, 24.0, 97)
    resid = [abs(y_terminal(base + b * centered) - y0) for b in betas]
    ramp_start = base + betas[int(np.argmin(resid))] * centered

    best = math.inf
    for w0 in (base, ramp_start, 0.5 * (base + ramp_start)):
        res = minimize(
            objective, w0, jac=objective_jac, method="SLSQP",
            constraints=constraints,
            options={"maxiter": iterations, "ftol": 1e-14},
        )
        w = _project_terminal(res.x, dt, log_ratio, y0, y_terminal, c2_jac,
                              n_steps)
        if w is None:
            continue
        r1 = abs(dt * np.sum(w) - log_ratio)
        r2 = abs(y_terminal(w) - y0)
        if max(r1, r2 / max(1.0, abs(y0 - y1))) <= residual_tol:
            best = min(best, objective(w))
    if not math.isfinite(best):
        raise NonConvergenceError(
            f"terminal residual above {residual_tol} for all starts"
        )
    return best


def _project_terminal(w, dt, log_ratio, y0, y_terminal, c2_jac, n_steps):
    """Newton-project the last two controls onto the exact constraint set."""
    w = np.array(w, dtype=float)
    for _ in range(60):
        c1 = dt * np.sum(w) - log_ratio
        c2 = y_terminal(w) - y0
        if abs(c1) < 1e-13 and abs(c2) < 1e-13:
            return w
        jac2 = c2_jac(w)
        J = np.array([[dt, dt], [jac2[-2], jac2[-1]]])
        try:
            step = np.linalg.solve(J, [c1, c2])
        except np.linalg.LinAlgError:
            return None
        w[-2] -= step[0]
        w[-1] -= step[1]
    return w
