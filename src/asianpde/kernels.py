"""Constant-coefficient kernels for both operator families.

The log-price family has a Gaussian closed form.  The price family reduces
to the joint density of a Brownian motion and its integrated geometric
exponential, which carries the slowly decaying oscillatory integral handled
here by half-period-aligned panel quadrature with dual-rule error control.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import panel_nodes
from .geometry import EventPoint

__all__ = [
    "KernelParams",
    "KernelResult",
    "ThetaConvergenceError",
    "THETA_MIN_TIME",
    "gamma_k",
    "gamma_k_array",
    "gamma_k_mass",
    "theta",
    "theta_batch",
    "yor_density_batch",
    "yor_mass",
    "gamma_l1",
    "gamma_l1_array",
    "gamma_l1_mass",
    "gamma_l_lambda",
]

# Hard reliability guards for the oscillatory integral: below THETA_MIN_TIME
# the true value is ~exp(-pi^2/(2t)) while the integrand is O(1), so double
# precision has no correct digits left and we refuse instead of guessing.
THETA_MIN_TIME = 0.05
THETA_MAX_PANELS = 4096
# Gauss-Legendre order per half-period panel of the lower theta rule; the
# upper rule doubles it and their disagreement is the rule error
_THETA_ORDER = 24
_EPS = np.finfo(float).eps


class ThetaConvergenceError(RuntimeError):
    """Oscillatory quadrature cannot meet its error contract."""


@dataclass(frozen=True)
class KernelParams:
    """Diffusion constant of the model operator, lambda = sigma^2 / 2."""

    lambda_: float

    def __post_init__(self) -> None:
        if self.lambda_ <= 0.0:
            raise ValueError(f"lambda must be positive, got {self.lambda_}")


@dataclass(frozen=True)
class KernelResult:
    value: float
    abs_error_estimate: float
    tolerance_used: float

    def __post_init__(self) -> None:
        if self.value < 0.0 or self.abs_error_estimate < 0.0:
            raise ValueError("kernel value and error estimate must be >= 0")


# ---------------------------------------------------------------------------
# Gaussian kernel of the log-price family
# ---------------------------------------------------------------------------

def gamma_k_array(
    lam: float,
    x, y, t,
    xi, eta, tau,
) -> np.ndarray:
    """Vectorized Gaussian kernel; zero on t <= tau."""
    x, y, t = np.asarray(x, float), np.asarray(y, float), np.asarray(t, float)
    xi, eta, tau = (np.asarray(xi, float), np.asarray(eta, float),
                    np.asarray(tau, float))
    dt = t - tau
    out = np.zeros(np.broadcast(x, y, t, xi, eta, tau).shape)
    fwd = dt > 0.0
    if np.any(fwd):
        dtp = np.where(fwd, dt, 1.0)
        shear = y - eta + dtp * (x + xi) / 2.0
        expo = -((x - xi) ** 2) / (4.0 * lam * dtp) \
            - 3.0 * shear**2 / (lam * dtp**3)
        with np.errstate(under="ignore"):
            vals = math.sqrt(3.0) / (2.0 * lam * math.pi * dtp**2) \
                * np.exp(expo)
        out = np.where(fwd, vals, 0.0)
    return out


def gamma_k(params: KernelParams, z: EventPoint, pole: EventPoint) -> float:
    """Closed-form kernel of the constant-coefficient log-price operator.

    Total function: exactly 0 for z.t <= pole.t, strictly positive after.
    """
    return float(gamma_k_array(params.lambda_, z.x, z.y, z.t,
                               pole.x, pole.y, pole.t))


def gamma_k_mass(params: KernelParams, z: EventPoint, tau: float) -> float:
    """Pole-variable integral of the Gaussian kernel by quadrature.

    Uses the shear substitution s = eta - (y + dt*(x+xi)/2), under which the
    double integral factorizes into two 1D Gaussian quadratures.
    """
    lam = params.lambda_
    dt = z.t - tau
    if dt <= 0.0:
        return 0.0
    sx = math.sqrt(2.0 * lam * dt)
    sy = math.sqrt(lam * dt**3 / 6.0)
    xg, wgt = np.polynomial.legendre.leggauss(80)
    xi = z.x + 10.0 * sx * xg
    s = 10.0 * sy * xg
    fx = np.exp(-((z.x - xi) ** 2) / (4.0 * lam * dt))
    fs = np.exp(-3.0 * s**2 / (lam * dt**3))
    ix = 10.0 * sx * float(np.dot(wgt, fx))
    iy = 10.0 * sy * float(np.dot(wgt, fs))
    return math.sqrt(3.0) / (2.0 * lam * math.pi * dt**2) * ix * iy


# ---------------------------------------------------------------------------
# Oscillatory integral
# ---------------------------------------------------------------------------

def _theta_envelope(xi: np.ndarray, z: float, t: float) -> np.ndarray:
    with np.errstate(under="ignore", over="ignore"):
        return np.exp(-(xi**2) / (2.0 * t) - z * np.cosh(xi)) * np.sinh(xi)


def _theta_cutoff(z: float, t: float, floor: float) -> float:
    """Smallest xi beyond which the non-oscillatory envelope stays < floor."""
    step = max(t, 0.25)
    # hard cap: beyond this the Gaussian factor alone underflows
    cap = math.sqrt(2.0 * t * 750.0) + 5.0
    # step, 2*step, ... as a running sum: k * step can round differently and
    # move ceil(cutoff / t), the panel count, by one
    xi = np.cumsum(np.full(int(cap / step) + 2, step))
    xi = xi[xi < cap]
    below = np.flatnonzero(_theta_envelope(xi, z, t) < floor)
    return float(xi[below[0]]) if below.size else cap


def _theta_edges(z: float, t: float, tol: float) -> np.ndarray:
    if t < THETA_MIN_TIME:
        raise ThetaConvergenceError(
            f"t={t} below the reliable range (t >= {THETA_MIN_TIME}); "
            "the oscillatory integral loses all double-precision digits"
        )
    # truncating an alternating tail leaves a remainder of the order of the
    # envelope at the cutoff, so cut far deeper than the requested tol
    floor = min(tol * 1e-3, 1e-18)
    cutoff = _theta_cutoff(z, t, floor)
    # panels aligned to the half-periods of sin(pi*xi/t), each of width t
    n_half = int(math.ceil(cutoff / t))
    if n_half > THETA_MAX_PANELS:
        raise ThetaConvergenceError(
            f"{n_half} oscillation panels exceed the limit {THETA_MAX_PANELS}"
        )
    return np.linspace(0.0, n_half * t, n_half + 1)


def _check_t_tol(t: float, tol: float) -> None:
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")


def theta(z_arg: float, t: float, tol: float = 1e-10) -> KernelResult:
    """Oscillatory transform at one z: wraps :func:`theta_batch`.

    The exact transform is positive, so negative quadrature dust is clamped
    to 0 and its magnitude added to the error estimate.
    """
    vals, errs = theta_batch(np.array([z_arg], dtype=float), t, tol)
    value, err = float(vals[0]), float(errs[0])
    if value < 0.0:
        err -= value
        value = 0.0
    return KernelResult(value=value, abs_error_estimate=err,
                        tolerance_used=tol)


def theta_batch(z: np.ndarray, t: float, tol: float = 1e-10
                ) -> tuple[np.ndarray, np.ndarray]:
    """Oscillatory transform over an array of z at one shared t: the
    integral over (0, inf) of
    exp(-xi^2/(2t)) * exp(-z*cosh(xi)) * sinh(xi) * sin(pi*xi/t) dxi.

    One set of half-period panels is built from the smallest z (widest
    cutoff) and reused for every z.  The per-z error estimate is the
    disagreement of two Gauss rules (orders 24 and 48 per panel) plus an
    explicit roundoff floor eps * integral(|integrand|) and the truncation
    bound.  Values below that floor are returned as 0.  The z are taken in
    chunks of at most 1e6 z-by-node matrix elements, which bounds the
    working memory of a call.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("z values must be positive")
    _check_t_tol(t, tol)
    if z.size == 0:
        return np.zeros(z.shape), np.zeros(z.shape)
    zmin = float(np.min(z))
    edges = _theta_edges(zmin, t, tol)
    xs_a, ws_a = panel_nodes(edges, _THETA_ORDER)
    xs_b, ws_b = panel_nodes(edges, 2 * _THETA_ORDER)

    def accumulate(xs, ws):
        with np.errstate(under="ignore", over="ignore"):
            pref = (np.exp(-(xs**2) / (2.0 * t)) * np.sinh(xs)
                    * np.sin(math.pi * xs / t)) * ws
            absref = np.abs(pref)
            vals = np.empty(z.shape)
            scales = np.empty(z.shape)
            flat = z.ravel()
            out = vals.ravel()
            sc = scales.ravel()
            chunk = max(1, int(1e6 // max(xs.size, 1)))
            for i in range(0, flat.size, chunk):
                zz = flat[i:i + chunk, None]
                damp = np.exp(-zz * np.cosh(xs)[None, :])
                out[i:i + chunk] = damp @ pref
                sc[i:i + chunk] = damp @ absref
        return vals, scales

    va, sa = accumulate(xs_a, ws_a)
    vb, _ = accumulate(xs_b, ws_b)
    floor = _EPS * sa * max(1, len(edges) - 1) + min(tol * 1e-3, 1e-18) * t
    err = np.abs(va - vb) + floor
    # below the roundoff floor the computed value is noise around an
    # exactly positive but unresolvable quantity: report 0 with the floor
    vb = np.where(np.abs(vb) < floor, 0.0, vb)
    return vb, err


# ---------------------------------------------------------------------------
# Joint density of (log coordinate, integrated exponential)
# ---------------------------------------------------------------------------

def _yor_prefactor_log(w, y, t):
    return (math.pi**2 / (2.0 * t)
            - math.log(math.pi) - 0.5 * math.log(2.0 * math.pi * t)
            - (1.0 + np.exp(2.0 * np.minimum(w, 350.0))) / (2.0 * y)
            + w - 2.0 * np.log(y))


def yor_density_batch(w: np.ndarray, y: np.ndarray, t: float,
                      tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized density over matching arrays of (w, y) at one shared t.

    p = prefactor(w, y, t) * theta(e^w / y, t).  theta is evaluated once per
    distinct z = e^w / y among the points whose prefactor is nonzero; where
    the prefactor underflows to 0 the value and estimate are exactly 0.
    Negative quadrature dust is clamped to 0 and its magnitude added to the
    error estimate."""
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("y values must be positive")
    _check_t_tol(t, tol)
    with np.errstate(under="ignore", over="ignore"):
        pref = np.exp(_yor_prefactor_log(w, y, t))
    live = pref > 0.0
    z = np.exp(w[live]) / y[live]
    zs, back = np.unique(z, return_inverse=True)
    vals, errs = theta_batch(zs, t, tol)
    th = np.zeros(pref.shape)
    th_err = np.zeros(pref.shape)
    th[live] = vals[back]
    th_err[live] = errs[back]
    raw = pref * th
    err = pref * th_err + np.where(raw < 0.0, -raw, 0.0)
    return np.maximum(raw, 0.0), err


def yor_mass(t: float, tol: float = 1e-4) -> KernelResult:
    """Double integral of p(., ., t) over R x (0, inf) by panelled quadrature.

    Substitutes y = e^v to resolve both the essential singularity at y -> 0+
    and the heavy right tail.  Should be 1 for every t (p is a probability
    density); returned as a KernelResult so callers can see the estimate.
    """
    w_half = 8.0 * math.sqrt(t) + 3.0
    v_lo, v_hi = -9.0, 13.0 * math.sqrt(t) + 3.0

    def compute(order: int, width: float) -> tuple[float, float]:
        we = np.arange(-w_half, w_half + width, width)
        ve = np.arange(v_lo, v_hi + width, width)
        wn, wwt = panel_nodes(we, order)
        vn, vwt = panel_nodes(ve, order)
        W = np.repeat(wn, vn.size)
        V = np.tile(vn, wn.size)
        Y = np.exp(V)
        dens, err = yor_density_batch(W, Y, t, tol)
        wt2 = np.repeat(wwt, vn.size) * np.tile(vwt, wn.size) * Y
        return float(np.dot(wt2, dens)), float(np.dot(wt2, err))

    coarse, _ = compute(8, 0.5)
    fine, qerr = compute(12, 0.34)
    est = abs(fine - coarse) + qerr
    return KernelResult(value=fine, abs_error_estimate=est,
                        tolerance_used=tol)


# ---------------------------------------------------------------------------
# Kernel of the price family
# ---------------------------------------------------------------------------

def gamma_l1(z: EventPoint, pole: EventPoint, tol: float = 1e-10
             ) -> KernelResult:
    """Kernel of the unit-diffusion price operator at one evaluation point
    and one pole: wraps :func:`gamma_l1_array`."""
    vals, errs = gamma_l1_array(z.x, z.y, z.t, pole.x, pole.y, pole.t, tol)
    return KernelResult(float(vals), float(errs), tol)


def gamma_l1_array(x, y, t: float, xi, eta, tau: float, tol: float = 1e-10
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Kernel of the unit-diffusion price operator, vectorized: values and
    error estimates at evaluation points (x, y, t) for poles (xi, eta, tau).

    The space coordinates x, y, xi, eta broadcast; the times t and tau are
    scalars, because theta builds one node set per elapsed time.
    Transition-density reading: the value is the density of reaching
    (xi, eta) from (x, y) after elapsed time t - tau.  Identically 0 on
    {t <= tau} union {y >= eta}: time must advance and the running average
    can only increase.
    """
    x, y, xi, eta = (np.asarray(v, dtype=float) for v in (x, y, xi, eta))
    if np.any(x <= 0.0) or np.any(xi <= 0.0):
        raise ValueError("x coordinates of points and poles must be positive")
    shape = np.broadcast(x, y, xi, eta).shape
    vals = np.zeros(shape)
    errs = np.zeros(shape)
    if t <= tau:
        return vals, errs
    x, y, xi, eta = (np.broadcast_to(v, shape) for v in (x, y, xi, eta))
    alive = eta > y
    if np.any(alive):
        xa, xia = x[alive], xi[alive]
        dens, derr = yor_density_batch(0.5 * np.log(xia / xa),
                                       (eta[alive] - y[alive]) / (2.0 * xa),
                                       (t - tau) / 2.0, tol)
        pref = 1.0 / (4.0 * xa * xia)
        vals[alive] = pref * dens
        errs[alive] = pref * derr
    return vals, errs


def gamma_l1_mass(z: EventPoint, tau: float, tol: float = 1e-4
                  ) -> KernelResult:
    """Pole-variable double integral of gamma_l1; equals 1 in exact arithmetic.

    Substituting w = log(xi/x)/2 and u = (eta - y)/(2x) turns the integral
    into the total mass of the underlying joint density at elapsed/2, which
    is then integrated by the same panelled rule as yor_mass.
    """
    if z.t <= tau:
        return KernelResult(0.0, 0.0, tol)
    return yor_mass((z.t - tau) / 2.0, tol)


def gamma_l_lambda(params: KernelParams, z: EventPoint, pole: EventPoint,
                   tol: float = 1e-10) -> KernelResult:
    """General-diffusion price kernel via the diffusive rescaling
    (y, t) -> (lam*y, lam*t) with prefactor lam.

    This is the transition density of the drift-free exponential model with
    volatility sqrt(2*lam); at lam = 1 it coincides with gamma_l1.
    """
    lam = params.lambda_
    zs = EventPoint(z.x, lam * z.y, lam * z.t)
    ps = EventPoint(pole.x, lam * pole.y, lam * pole.t)
    base = gamma_l1(zs, ps, tol)
    return KernelResult(lam * base.value, lam * base.abs_error_estimate, tol)
