"""Constant-coefficient kernels for both operator families.

Each kernel is evaluated by one array function, which takes the diffusion
constant lam = sigma^2 / 2 first: :func:`gamma_k_array` for the log-price
family and :func:`gamma_l_array` for the price family.  The only other
kernel entry point, :func:`gamma_l_lambda`, is a scalar wrapper over
:func:`gamma_l_array` that the benchmark's ``kernel-points`` workload calls
and traces by name.

The log-price family has a Gaussian closed form.  The price family reduces
to the joint density of a Brownian motion and its integrated geometric
exponential, which carries the slowly decaying oscillatory integral theta.
theta is computed in the scaled form g(z) = e^z * theta(z, t), whose
integrand carries exp(-z*(cosh(xi) - 1)), by half-period-aligned panel
quadrature with dual-rule error control (:func:`theta_batch`).
:func:`_theta_factor` turns g into theta, and it alone adds theta's
truncation floor to the estimate and reports a value below it as 0.

Integrals of the density run in s = log z and v = log u, where theta
depends on s alone, so one theta call per rule covers every node
(:func:`_yor_band_rule`); pricing and :func:`yor_mass` share its box.  The
kink-free s axis is one uniform trapezoid of step 0.6 * width; the v axis,
which carries the payoff kinks, keeps its Gauss-Legendre panels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import (BLOCK_NODES, dual_rule, edges_with_kinks,
                          gauss_legendre, panel_nodes)
from .geometry import EventPoint

__all__ = [
    "KernelParams",
    "KernelResult",
    "ThetaConvergenceError",
    "THETA_MIN_TIME",
    "gamma_k_array",
    "gamma_k_mass",
    "theta",
    "theta_batch",
    "yor_density_batch",
    "yor_mass",
    "gamma_l_array",
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
# below this s, z = e^s is subnormal
_LOG_TINY = math.log(np.finfo(float).tiny)


class ThetaConvergenceError(RuntimeError):
    """Oscillatory quadrature cannot meet its error contract."""


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class KernelParams:
    """Diffusion constant of the model operator, lambda = sigma^2 / 2.

    Only :func:`gamma_l_lambda`, the benchmark's entry point, takes it; the
    array kernels take lam as a float."""

    lambda_: float

    def __post_init__(self) -> None:
        _check_positive("lambda", self.lambda_)


@dataclass(frozen=True)
class KernelResult:
    value: float
    abs_error_estimate: float

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
    """Gaussian kernel of the constant-coefficient log-price operator at
    evaluation points (x, y, t) for poles (xi, eta, tau), all broadcast;
    exactly 0 on t <= tau, strictly positive after where its exponent is
    representable.  A lam that is not positive and finite raises
    ValueError."""
    _check_positive("lambda", lam)
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


def gamma_k_mass(lam: float, z: EventPoint, tau: float) -> float:
    """Pole-variable integral of :func:`gamma_k_array` by quadrature.

    The nodes are 80 Gauss-Legendre points over ten standard deviations in
    xi and, in the shear variable s = eta - (y + dt*(x+xi)/2), in eta, where
    the kernel is a product of two 1D Gaussians.
    """
    _check_positive("lambda", lam)
    dt = z.t - tau
    if dt <= 0.0:
        return 0.0
    sx = math.sqrt(2.0 * lam * dt)
    sy = math.sqrt(lam * dt**3 / 6.0)
    xg, wgt = gauss_legendre(80)
    xi = z.x + 10.0 * sx * xg[:, None]
    eta = z.y + dt * (z.x + xi) / 2.0 + 10.0 * sy * xg
    vals = gamma_k_array(lam, z.x, z.y, z.t, xi, eta, tau)
    return 100.0 * sx * sy * float(wgt @ vals @ wgt)


# ---------------------------------------------------------------------------
# Oscillatory integral
# ---------------------------------------------------------------------------

def _theta_envelope(xi: np.ndarray, z: float, t: float) -> np.ndarray:
    # inf * 0 gives NaN at long times, which theta_batch then refuses
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
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
    cutoff = _theta_cutoff(z, t, _truncation_floor(tol))
    # panels aligned to the half-periods of sin(pi*xi/t), each of width t
    n_half = int(math.ceil(cutoff / t))
    if n_half > THETA_MAX_PANELS:
        raise ThetaConvergenceError(
            f"{n_half} oscillation panels exceed the limit {THETA_MAX_PANELS}"
        )
    return np.linspace(0.0, n_half * t, n_half + 1)


def _truncation_floor(tol: float) -> float:
    # truncating an alternating tail leaves a remainder of the order of the
    # envelope at the cutoff, so cut far deeper than the requested tol
    return min(tol * 1e-3, 1e-18)


def _check_t_tol(t: float, tol: float) -> None:
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    _check_positive("tol", tol)


def _theta_factor(z: np.ndarray, t: float, tol: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """theta(z, t) = e^-z * g(z) over an array of z, with its estimate:
    e^-z times the estimate of g from :func:`theta_batch`, plus the
    truncation floor min(tol*1e-3, 1e-18) * t.  The exact values are
    positive, so a value below its own estimate (negative quadrature dust
    included) is reported as 0, its magnitude added to the estimate.  This
    is the only code that applies the floor and that drop."""
    g, g_err = theta_batch(z, t, tol)
    with np.errstate(under="ignore"):
        damp = np.exp(-z)
    vals = damp * g
    errs = damp * g_err + _truncation_floor(tol) * t
    drop = vals < errs
    return (np.where(drop, 0.0, vals),
            np.where(drop, errs + np.abs(vals), errs))


def theta(z_arg: float, t: float, tol: float = 1e-10) -> KernelResult:
    """Oscillatory transform at one z: :func:`_theta_factor` at that z."""
    value, err = _theta_factor(np.array([z_arg], dtype=float), t, tol)
    return KernelResult(value=float(value[0]), abs_error_estimate=float(err[0]))


def theta_batch(z: np.ndarray, t: float, tol: float = 1e-10
                ) -> tuple[np.ndarray, np.ndarray]:
    """Scaled oscillatory transform g(z) = e^z * theta(z, t) over an array
    of z at one shared t: the integral over (0, inf) of
    exp(-xi^2/(2t)) * exp(-z*(cosh(xi) - 1)) * sinh(xi) * sin(pi*xi/t) dxi,
    with cosh(xi) - 1 written 2*sinh(xi/2)^2.

    One set of half-period panels is built from the smallest z (widest
    cutoff of the unscaled envelope) and reused for every z.  The per-z
    estimate of g is the disagreement of two Gauss rules (orders 24 and 48
    per panel) plus the roundoff floor eps * integral(|integrand|) * panels.
    The truncation floor of theta itself and the reporting of values below
    their estimate as 0 belong to :func:`_theta_factor` alone.  The z are
    taken in chunks of about 6e4 z-by-node elements, written into one
    reused buffer: about 0.5 MB a call.  A value or estimate that is not
    finite, as at t above about 1000 where sinh overflows, raises
    ThetaConvergenceError.
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

    def accumulate(xs, ws, with_scale):
        # a non-finite g is refused below, so its warnings are silenced
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            pref = (np.exp(-(xs**2) / (2.0 * t)) * np.sinh(xs)
                    * np.sin(math.pi * xs / t)) * ws
            absref = np.abs(pref) if with_scale else None
            cosh_m1 = 2.0 * np.sinh(0.5 * xs) ** 2
            flat = z.ravel()
            vals = np.empty(flat.size)
            scales = np.empty(flat.size)
            # whole groups of 8 rows: a BLAS matrix-vector kernel rounds a
            # row by its place in its group, so g does not depend on chunking
            chunk = max(8, int(6e4 // xs.size) // 8 * 8)
            buf = np.empty((min(chunk, flat.size), xs.size))
            for i in range(0, flat.size, chunk):
                zz = flat[i:i + chunk, None]
                damp = buf[:zz.shape[0]]
                np.multiply(-zz, cosh_m1, out=damp)
                np.exp(damp, out=damp)
                vals[i:i + chunk] = damp @ pref
                if with_scale:
                    scales[i:i + chunk] = damp @ absref
        return vals.reshape(z.shape), scales.reshape(z.shape)

    va, sa = accumulate(xs_a, ws_a, True)
    vb, _ = accumulate(xs_b, ws_b, False)
    err = np.abs(va - vb) + _EPS * sa * max(1, len(edges) - 1)
    # |va - vb| is not finite wherever vb is not, so err alone is checked
    if not np.isfinite(err).all():
        raise ThetaConvergenceError(
            f"theta at t={t} is not finite: its integrand overflows")
    return vb, err


# ---------------------------------------------------------------------------
# Joint density of (log coordinate, integrated exponential)
# ---------------------------------------------------------------------------

def _yor_log_c0(t: float) -> float:
    return (math.pi**2 / (2.0 * t)
            - math.log(math.pi) - 0.5 * math.log(2.0 * math.pi * t))


def yor_density_batch(w: np.ndarray, y: np.ndarray, t: float,
                      tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized density over matching arrays of (w, y) at one shared t.

    p = prefactor * theta(z, t) in the band rule's variable s = w - log y
    = log z, with prefactor exp(c0(t) + s - log y - 1/(2y) - e^2s * y/2).
    Where the prefactor underflows to 0, or z does (theta(0+, t) = 0), the
    value and estimate are exactly 0.  theta and its estimate come from one
    :func:`_theta_factor` call on the z of the other (live) points, as
    given; no z is deduplicated.  Both are multiplied by the prefactor, so
    the truncation floor and the dropping of values below their estimate
    are _theta_factor's."""
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("y values must be positive")
    _check_t_tol(t, tol)
    log_y = np.log(y)
    with np.errstate(under="ignore", over="ignore"):
        s = w - log_y
        z = np.exp(s)
        pref = np.exp(_yor_log_c0(t) + s - log_y - 0.5 / y
                      - 0.5 * (z * z) * y)
    live = (pref > 0.0) & (z > 0.0)
    pref = pref[live]
    th, th_err = _theta_factor(z[live], t, tol)
    out = np.zeros(live.shape)
    out_err = np.zeros(live.shape)
    out[live] = pref * th
    out_err[live] = pref * th_err
    return out, out_err


def _yor_band_rule(t: float, v_kinks, order: int, width: float, tol: float,
                   f) -> tuple[float, float]:
    """One tensor rule for the integral of p(w, u, t) * f(e^2w, u) over the
    box |w| <= w_half = 8 sqrt(t) + 3, log u in [-9, 13 sqrt(t) + 4]: the
    value and its density-level estimate.  f takes a block of e^2w and the
    row of u.

    The rule runs in s = w - log u = log z and v = log u, where dw du =
    ds dv and p du dw = exp(c0(t) + s - e^-v/2 - e^2s e^v/2) e^-z g(z) ds dv.
    theta enters through s alone, so one :func:`theta_batch` call on the
    outer nodes, at their exact z, serves every node.  Along s the
    integrand is analytic and carries no kink; it decays like e^-z above
    and is cut by the band below, so a uniform trapezoid converges
    geometrically on it.  Its nodes s_lo + k h, each of weight h with
    h = 0.6 * `width`, run from s_lo = -w_half - v_hi to the first node at
    or above 7 (below w_half - v_lo): above s = 7, e^-z underflows.  The v
    axis keeps Gauss-Legendre panels of `width` and `order`, which take
    each of `v_kinks` inside the box as one more edge, shared by every
    row.  A payoff with a kink in xi, and so in s + v, has no edge there:
    its price stays honest only through the disagreement of the two
    rules, as on Gamma_K's outer axis.  A Yor time whose e^s_lo is
    subnormal, t above about 1110, raises ThetaConvergenceError before any
    node is built.  The estimate and the dropping of values below it are
    :func:`_theta_factor`'s; both are the prefactor times a factor of s,
    so they are decided once per row.  Rows go in blocks of at most
    BLOCK_NODES nodes; a block keeps only the v columns that meet the band
    |s + v| <= w_half, and masks its nodes outside the band.
    """
    w_half = 8.0 * math.sqrt(t) + 3.0
    v_hi = 13.0 * math.sqrt(t) + 4.0
    s_lo, h = -w_half - v_hi, 0.6 * width
    if s_lo < _LOG_TINY:
        raise ThetaConvergenceError(
            f"Yor time t={t} too long: the s range starts at e^{s_lo:.4g}, "
            "below the smallest normal double")
    v_edges = edges_with_kinks(-9.0, v_hi, width, v_kinks)
    vn, vw = panel_nodes(v_edges, order)
    sn = s_lo + h * np.arange(math.ceil((7.0 - s_lo) / h) + 1)
    z = np.exp(sn)
    row_val, row_err = _theta_factor(z, t, tol)
    row_log = _yor_log_c0(t) + sn
    e2s = z * z
    u = np.exp(vn)
    col_log = -0.5 / u
    rows = max(1, BLOCK_NODES // vn.size)
    value = estimate = 0.0
    for a in range(0, sn.size, rows):
        r = slice(a, a + rows)
        # the columns that meet the band for some row of the block
        c = slice(np.searchsorted(vn, -w_half - sn[r][-1]),
                  np.searchsorted(vn, w_half - sn[r][0], side="right"))
        if c.start >= c.stop:
            continue
        expo = np.multiply.outer(e2s[r], -0.5 * u[c])
        expo += row_log[r, None]
        expo += col_log[c]
        expo[np.abs(np.add.outer(sn[r], vn[c])) > w_half] = -np.inf
        with np.errstate(under="ignore"):
            dens = np.exp(expo, out=expo)
        dens *= f(np.multiply.outer(e2s[r], u[c] ** 2), u[c])
        value += row_val[r] @ (dens @ vw[c])
        estimate += row_err[r] @ (np.abs(dens, out=dens) @ vw[c])
    return h * float(value), h * float(estimate)


def yor_mass(t: float, tol: float = 1e-4) -> KernelResult:
    """Double integral of p(., ., t) over R x (0, inf): a uniform trapezoid
    in s times Gauss-Legendre panels in v.

    The rule pair is :func:`_yor_band_rule` with f = 1 under `dual_rule`;
    v = log u resolves both the essential singularity at u -> 0+ and the
    heavy right tail.  Should be 1 for every t (p is a probability density);
    returned as a KernelResult so callers can see the estimate.  Raises
    ThetaConvergenceError when the estimate exceeds tol, as it does at
    short times where the density's oscillatory factor loses its digits.
    """
    value, est = dual_rule(lambda order, width: _yor_band_rule(
        t, (), order, width, tol, lambda e2w, u: 1.0), 0.34, tol)
    if not est <= tol:
        raise ThetaConvergenceError(
            f"mass at t={t} has error estimate {est:.1e} above tol={tol:.1e}")
    return KernelResult(value=value, abs_error_estimate=est)


# ---------------------------------------------------------------------------
# Kernel of the price family
# ---------------------------------------------------------------------------

def gamma_l_array(lam: float, x, y, t: float, xi, eta, tau: float,
                  tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Kernel of the price operator with diffusion constant lam, vectorized:
    values and error estimates at evaluation points (x, y, t) for poles
    (xi, eta, tau).

    The space coordinates x, y, xi, eta broadcast; the times t and tau are
    scalars, because theta builds one node set per elapsed time.  The
    diffusive rescaling (y, t) -> (lam*y, lam*t) maps the kernel onto the
    unit-diffusion one, times lam: every test and difference below runs on
    the rescaled y, t, eta and tau.  At unit diffusion the value is the
    density of reaching (xi, eta) from (x, y) after elapsed time t - tau,
    written through the Yor density at w = log(xi/x)/2, u = (eta - y)/(2x)
    and half the elapsed time.  Identically 0 on {t <= tau} union
    {y >= eta}: time must advance and the running average can only
    increase.  lam and tol must be positive and finite, and the x
    coordinates positive, wherever the points lie.
    """
    _check_positive("lambda", lam)
    _check_positive("tol", tol)
    x, y, xi, eta = (np.asarray(v, dtype=float) for v in (x, y, xi, eta))
    y, eta, t, tau = lam * y, lam * eta, lam * t, lam * tau
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
        vals[alive] = lam * (pref * dens)
        errs[alive] = lam * (pref * derr)
    return vals, errs


def gamma_l_lambda(params: KernelParams, z: EventPoint, pole: EventPoint,
                   tol: float = 1e-10) -> KernelResult:
    """:func:`gamma_l_array` at one evaluation point and one pole.

    Kept, with :class:`KernelParams`, because the benchmark's
    ``kernel-points`` workload calls it and traces it by name."""
    vals, errs = gamma_l_array(params.lambda_, z.x, z.y, z.t,
                               pole.x, pole.y, pole.t, tol)
    return KernelResult(float(vals), float(errs))
