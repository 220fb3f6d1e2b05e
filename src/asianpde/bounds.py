"""Two-sided kernel envelopes for the price-family kernel.

The theory only asserts that sandwich constants exist.  The price-family
envelope fixes its exponential rates as module constants; the
multiplicative constants are fitted as ratio extrema on a training grid,
then validated on a disjoint grid.  Envelope evaluation never clamps:
violations are the caller's to count.
"""
from __future__ import annotations

import math

import numpy as np

from .control import ControlEndpoints, psi
from .geometry import EventPoint

__all__ = [
    "gamma_l_envelope",
    "fit_multiplicative_constants",
    "sandwich_violations",
]

# rates multiplying the control value inside the price-family exponentials
_LOWER_RATE = 0.3
_UPPER_RATE = 0.2


def gamma_l_envelope(z: EventPoint, pole: EventPoint, epsilon: float
                     ) -> tuple[float, float]:
    """Unscaled control-value envelope for the price-family kernel.

    lower uses the shifted start (x, y + x0*eps*(t-t0), t - eps*(t-t0)),
    upper the start (x, y - x0*eps, t + eps) — note the bare eps in the
    upper shift.  Support region y >= y0 returns (0, 0); starts pushed past
    the admissible cone raise through the control module.  The caller fits
    the multiplicative constants.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if z.x <= 0.0 or pole.x <= 0.0:
        raise ValueError("x coordinates must be positive")
    if z.y >= pole.y or z.t <= pole.t:
        return 0.0, 0.0
    dt = z.t - pole.t
    x0 = pole.x
    pref = 1.0 / (x0**2 * dt**2)
    lower_start = EventPoint(z.x, z.y + x0 * epsilon * dt, z.t - epsilon * dt)
    upper_start = EventPoint(z.x, z.y - x0 * epsilon, z.t + epsilon)
    psi_lo = psi(ControlEndpoints(start=lower_start, end=pole)).cost
    psi_hi = psi(ControlEndpoints(start=upper_start, end=pole)).cost
    return (pref * math.exp(-_LOWER_RATE * psi_lo),
            pref * math.exp(-_UPPER_RATE * psi_hi))


def fit_multiplicative_constants(target: np.ndarray,
                                 lower_shape: np.ndarray,
                                 upper_shape: np.ndarray,
                                 slack: float = 0.1,
                                 floor: float = 0.0
                                 ) -> tuple[float, float]:
    """Ratio-extrema fit of (c_minus, c_plus) on a training set.

    c_minus*lower_shape <= target and target <= c_plus*upper_shape hold with
    a multiplicative margin `slack` on the training points; points where the
    target is at or below `floor` (noise) are ignored.
    """
    target = np.asarray(target, float)
    lo = np.asarray(lower_shape, float)
    hi = np.asarray(upper_shape, float)
    mask = (target > floor) & (lo > 0.0) & (hi > 0.0)
    if not np.any(mask):
        raise ValueError("no usable training points")
    c_minus = (1.0 - slack) * float(np.min(target[mask] / lo[mask]))
    c_plus = (1.0 + slack) * float(np.max(target[mask] / hi[mask]))
    return c_minus, c_plus


def sandwich_violations(target: np.ndarray, lower: np.ndarray,
                        upper: np.ndarray, tol: float = 0.0) -> int:
    """Count of points escaping the envelope beyond tolerance."""
    target = np.asarray(target, float)
    bad = (target < np.asarray(lower) - tol) \
        | (target > np.asarray(upper) + tol)
    return int(np.count_nonzero(bad))
