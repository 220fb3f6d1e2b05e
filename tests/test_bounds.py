"""Envelopes: degenerate cases, fit/validate protocol."""
import numpy as np
import pytest

from asianpde.bounds import (fit_multiplicative_constants, gamma_l_envelope,
                             sandwich_violations)
from asianpde.geometry import EventPoint
from asianpde.kernels import gamma_k_array, gamma_l_array


def test_envelope_constants_validation():
    z, pole = EventPoint(1.0, -1.0, 1.0), EventPoint(1.0, 0.0, 0.0)
    for eps in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            gamma_l_envelope(z, pole, eps)


# -- K sandwich: fit on train, assert on test -----------------------------------

def test_gamma_k_sandwich_fit_validate():
    lam_true = 1.0
    pole = EventPoint(0.0, 0.0, 0.0)
    rng = np.random.default_rng(8)
    pts = []
    while len(pts) < 2000:
        x = rng.uniform(-2.5, 2.5)
        y = rng.uniform(-1.5, 1.5)
        t = rng.uniform(0.2, 1.0)
        shear = y + t * x / 2.0
        d = abs(x) + abs(shear) ** (1 / 3) + t**0.5
        if 0.3 <= d <= 3.0:
            pts.append((x, y, t))
    pts = np.array(pts)
    target = gamma_k_array(lam_true, pts[:, 0], pts[:, 1], pts[:, 2],
                           0.0, 0.0, 0.0)
    lo_shape = gamma_k_array(0.5, pts[:, 0], pts[:, 1], pts[:, 2],
                             0.0, 0.0, 0.0)
    hi_shape = gamma_k_array(2.0, pts[:, 0], pts[:, 1], pts[:, 2],
                             0.0, 0.0, 0.0)
    c_minus, c_plus = fit_multiplicative_constants(
        target[::2], lo_shape[::2], hi_shape[::2])
    lo = c_minus * lo_shape[1::2]
    hi = c_plus * hi_shape[1::2]
    assert sandwich_violations(target[1::2], lo, hi) == 0


# -- L envelope -----------------------------------------------------------------

def test_gamma_l_envelope_support_region():
    lo, hi = gamma_l_envelope(EventPoint(1.0, 0.5, 1.0),
                              EventPoint(1.0, 0.5, 0.0), 0.25)
    assert (lo, hi) == (0.0, 0.0)
    lo, hi = gamma_l_envelope(EventPoint(1.0, 0.0, 0.0),
                              EventPoint(1.0, 0.5, 0.5), 0.25)
    assert (lo, hi) == (0.0, 0.0)


def test_gamma_l_envelope_fit_validate():
    # pole at (1, 0, 0); grid of admissible evaluation points
    pole = EventPoint(1.0, 0.0, 0.0)
    eps = 0.25
    xs = np.linspace(0.6, 1.8, 10)
    ys = np.linspace(-2.0, -0.4, 10)
    ts = np.linspace(0.5, 1.0, 10)
    pts = [(x, y, t) for x in xs for y in ys for t in ts
           if y + pole.x * eps * t < pole.y]
    assert len(pts) >= 1000
    xi = np.array([p[0] for p in pts])
    eta = np.array([p[1] for p in pts])

    target = np.empty(len(pts))
    for k, (x, y, t) in enumerate(pts):
        vals, _ = gamma_l_array(1.0, np.array([x]), np.array([y]), t,
                                pole.x, pole.y, pole.t, 1e-8)
        target[k] = vals[0]

    lo_shape = np.empty(len(pts))
    hi_shape = np.empty(len(pts))
    for k, (x, y, t) in enumerate(pts):
        lo_shape[k], hi_shape[k] = gamma_l_envelope(
            EventPoint(x, y, t), pole, eps)
    c_minus, c_plus = fit_multiplicative_constants(
        target[::2], lo_shape[::2], hi_shape[::2], floor=1e-250)
    mask = target[1::2] > 1e-250
    lo = c_minus * lo_shape[1::2][mask]
    hi = c_plus * hi_shape[1::2][mask]
    assert sandwich_violations(target[1::2][mask], lo, hi) == 0


def test_fit_requires_usable_points():
    with pytest.raises(ValueError):
        fit_multiplicative_constants(np.zeros(5), np.ones(5), np.ones(5),
                                     floor=1.0)
