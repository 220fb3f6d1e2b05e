"""Envelopes and band checks: degenerate cases, fit/validate protocol."""
import math

import numpy as np
import pytest

from asianpde.bounds import (EnvelopeConstants, fit_gaussian_tail_constant,
                             fit_multiplicative_constants, gamma_k_envelope,
                             gamma_l_envelope, gaussian_tail_envelope,
                             integral_band_check, sandwich_violations)
from asianpde.geometry import EventPoint
from asianpde.kernels import (KernelParams, gamma_k, gamma_k_array,
                              gamma_k_mass, gamma_l1_array)


def test_envelope_constants_validation():
    with pytest.raises(ValueError):
        EnvelopeConstants(lambda_minus=2.0, lambda_plus=1.0, c_minus=1.0,
                          c_plus=1.0)
    with pytest.raises(ValueError):
        EnvelopeConstants(lambda_minus=1.0, lambda_plus=1.0, c_minus=1.0,
                          c_plus=1.0, epsilon=1.5)


def test_degenerate_envelope_equals_kernel():
    consts = EnvelopeConstants(lambda_minus=0.8, lambda_plus=0.8,
                               c_minus=1.0, c_plus=1.0)
    z, pole = EventPoint(0.4, -0.2, 1.0), EventPoint(0.0, 0.0, 0.0)
    lo, hi = gamma_k_envelope(consts, z, pole)
    val = gamma_k(KernelParams(0.8), z, pole)
    assert lo == pytest.approx(val, rel=1e-14)
    assert hi == pytest.approx(val, rel=1e-14)


def test_envelope_zero_before_pole():
    consts = EnvelopeConstants(lambda_minus=0.5, lambda_plus=2.0,
                               c_minus=0.5, c_plus=2.0)
    lo, hi = gamma_k_envelope(consts, EventPoint(0, 0, 0),
                              EventPoint(0, 0, 1))
    assert lo == 0.0 and hi == 0.0


# -- integral band -------------------------------------------------------------

def test_band_check_trivial_inside():
    assert integral_band_check(1.0, 0.7, 2.0)


def test_band_check_kernel_mass():
    mass = gamma_k_mass(KernelParams(1.0), EventPoint(0.1, 0.2, 1.0), 0.0)
    assert integral_band_check(mass, 0.5, 1.0, tol=1e-9)


def test_band_check_outside():
    assert not integral_band_check(math.exp(0.5 * 1.0) * 1.1, 0.5, 1.0)
    with pytest.raises(ValueError):
        integral_band_check(1.0, -1.0, 1.0)


# -- Gaussian tail --------------------------------------------------------------

def test_gaussian_tail_decays():
    z = EventPoint(0.0, 0.0, 1.0)
    v1 = gaussian_tail_envelope(z, 0.0, 0.2, 5.0, EventPoint(6.0, 0.0, 0.5))
    v2 = gaussian_tail_envelope(z, 0.0, 0.2, 5.0, EventPoint(60.0, 0.0, 0.5))
    assert v2 < v1 * 1e-10


def test_gaussian_tail_preconditions():
    z = EventPoint(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gaussian_tail_envelope(z, 0.0, 0.2, 5.0, EventPoint(1.0, 0.0, 0.5))
    with pytest.raises(ValueError):
        gaussian_tail_envelope(z, 0.6, 0.2, 5.0, EventPoint(6.0, 0.0, 0.5))


def test_gaussian_tail_fit_and_validate():
    # fit C on a far-field training grid, then bound a disjoint test grid
    z = EventPoint(0.0, 0.0, 1.0)
    lam, tau = 1.0, 0.0
    # the kernel has a narrow ridge along the cancelled-shear direction:
    # sample angles densely so both grids resolve it, and keep test radii
    # inside the training hull
    angles = np.linspace(0.0, 2 * math.pi, 721)[:-1]

    def far_field(radii):
        AA, RR = np.meshgrid(angles, radii)
        xi = (RR * np.cos(AA)).ravel()
        eta = (RR * np.sin(AA)).ravel()
        vals = gamma_k_array(lam, z.x, z.y, z.t, xi, eta, tau)
        return xi, eta, vals, xi**2 + eta**2

    xi_tr, eta_tr, vals_tr, r2_tr = far_field(np.array([10.0, 12.0, 14.0]))
    xi_te, eta_te, vals_te, r2_te = far_field(np.array([11.0, 13.0]))
    c_bar = fit_gaussian_tail_constant(vals_tr, r2_tr,
                                       np.full_like(r2_tr, z.t - tau))
    bound = c_bar * np.exp(-c_bar * r2_te / (z.t - tau))
    assert np.all(bound >= vals_te)
    # and through the public evaluator
    probe = EventPoint(float(xi_te[0]), float(eta_te[0]), 0.5)
    assert gaussian_tail_envelope(z, tau, c_bar, 10.0, probe) > 0.0


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
        target[::2], lo_shape[::2], hi_shape[::2], slack=0.1)
    lo = c_minus * lo_shape[1::2]
    hi = c_plus * hi_shape[1::2]
    assert sandwich_violations(target[1::2], lo, hi) == 0


# -- L envelope -----------------------------------------------------------------

def test_gamma_l_envelope_support_region():
    consts = EnvelopeConstants(lambda_minus=1.0, lambda_plus=1.0,
                               c_minus=1.0, c_plus=1.0, epsilon=0.25)
    lo, hi = gamma_l_envelope(consts, EventPoint(1.0, 0.5, 1.0),
                              EventPoint(1.0, 0.5, 0.0))
    assert (lo, hi) == (0.0, 0.0)
    lo, hi = gamma_l_envelope(consts, EventPoint(1.0, 0.0, 0.0),
                              EventPoint(1.0, 0.5, 0.5))
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
        vals, _ = gamma_l1_array(np.array([x]), np.array([y]), t,
                                 pole.x, pole.y, pole.t, 1e-8)
        target[k] = vals[0]

    consts0 = EnvelopeConstants(lambda_minus=1.0, lambda_plus=1.0,
                                c_minus=1.0, c_plus=1.0, epsilon=eps)
    lo_shape = np.empty(len(pts))
    hi_shape = np.empty(len(pts))
    for k, (x, y, t) in enumerate(pts):
        lo_shape[k], hi_shape[k] = gamma_l_envelope(
            consts0, EventPoint(x, y, t), pole)
    c_minus, c_plus = fit_multiplicative_constants(
        target[::2], lo_shape[::2], hi_shape[::2], slack=0.1,
        floor=1e-250)
    mask = target[1::2] > 1e-250
    lo = c_minus * lo_shape[1::2][mask]
    hi = c_plus * hi_shape[1::2][mask]
    assert sandwich_violations(target[1::2][mask], lo, hi) == 0


def test_gamma_l_envelope_epsilon_monotone_admissibility():
    # the admissible cone for small epsilon contains the one for large
    pole = EventPoint(1.0, 0.0, 0.0)
    rng = np.random.default_rng(9)
    for _ in range(500):
        x = float(rng.uniform(0.3, 3.0))
        y = float(rng.uniform(-3.0, 0.5))
        t = float(rng.uniform(0.1, 2.0))
        adm_small = y + pole.x * 0.1 * t < pole.y
        adm_large = y + pole.x * 0.5 * t < pole.y
        if adm_large:
            assert adm_small


def test_fit_requires_usable_points():
    with pytest.raises(ValueError):
        fit_multiplicative_constants(np.zeros(5), np.ones(5), np.ones(5),
                                     floor=1.0)
