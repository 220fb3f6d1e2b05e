"""Closed-form kernels: Gaussian family, oscillatory transform, joint density.

Frozen reference values come from a 40-digit mpmath quadrature of the
oscillatory integral over (0, 26) in half-period panels, run once and pinned
here.  To regenerate them (mpmath 1.3):

    from mpmath import mp, mpf, quad, exp, cosh, sinh, sin, pi, sqrt
    mp.dps = 40

    def theta(z, t):
        z, t = mpf(z), mpf(t)
        f = lambda s: (exp(-s**2 / (2 * t) - z * cosh(s)) * sinh(s)
                       * sin(pi * s / t))
        return quad(f, [k * t for k in range(int(26 / t) + 1)])

    def yor(w, y, t):
        w, y, t = mpf(w), mpf(y), mpf(t)
        pref = (exp(pi**2 / (2 * t) - (1 + exp(2 * w)) / (2 * y) + w)
                / (pi * sqrt(2 * pi * t) * y**2))
        return pref * theta(exp(w) / y, t)
"""
import math
import tracemalloc

import numpy as np
import pytest

from asianpde import kernels
from asianpde._quadrature import edges_with_kinks, panel_nodes
from asianpde.geometry import EventPoint, GeometryKind, compose
from asianpde.kernels import (KernelParams, KernelResult, ThetaConvergenceError,
                              gamma_k_array, gamma_k_mass, gamma_l_array,
                              gamma_l_lambda, theta, theta_batch,
                              yor_density_batch, yor_mass)
from asianpde.mc import Averaging
from asianpde.pricing import (GrowthBound, PricingSpec, arithmetic_call_payoff,
                              make_arithmetic_problem, price)

# mpmath (dps=40), integral over (0, 26) in unit half-period panels
THETA_1_1 = 0.041857361969840540943
# theta(z, t) at (z, t), same quadrature with panels of width t
THETA_REF = {
    (0.3, 1.0): 0.014270562526464072159,
    (2.5, 1.0): 0.012753878200887462366,
    (10.0, 1.0): 3.1526656017186870969e-6,
    (0.5, 0.5): 6.4988389531320622617e-6,
    (3.0, 0.8): 0.00473126573535312632,
}
# joint density p(w, y, 1) at (w, y)
YOR_REF = {
    (0.2, 0.8): 0.22430135470570092114,
    (-1.0, 2.0): 0.0058597486379609993792,
    (1.5, 5.0): 0.016242787507687051619,
}
SQRT3_OVER_2PI = math.sqrt(3.0) / (2.0 * math.pi)


# -- Gaussian kernel ---------------------------------------------------------

def test_gamma_k_zero_before_pole():
    assert gamma_k_array(1.0, 0, 0, 0.5, 0, 0, 0.5) == 0.0
    assert gamma_k_array(1.0, 1, 2, 0.2, 0, 0, 0.7) == 0.0


def test_gamma_k_origin_value():
    val = gamma_k_array(1.0, 0, 0, 1, 0, 0, 0)
    assert val == pytest.approx(SQRT3_OVER_2PI, rel=1e-14)


def test_gamma_k_shifted_pole_value():
    # exponent collapses to -3 * |y - eta|^2 when x = xi = 0 and dt = 1
    val = gamma_k_array(1.0, 0, 0, 1, 0, 1, 0)
    assert val == pytest.approx(SQRT3_OVER_2PI * math.exp(-3.0), rel=1e-14)


def test_gamma_k_positive_after_pole():
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = EventPoint(*rng.normal(size=3))
        pole = EventPoint(*rng.normal(size=3))
        if z.t <= pole.t:
            continue
        dt = z.t - pole.t
        shear = z.y - pole.y + dt * (z.x + pole.x) / 2.0
        expo = -((z.x - pole.x) ** 2) / (4 * 0.7 * dt) \
            - 3 * shear**2 / (0.7 * dt**3)
        val = gamma_k_array(0.7, z.x, z.y, z.t, pole.x, pole.y, pole.t)
        if expo > -700.0:   # representable in double precision
            assert val > 0.0
        else:
            assert val >= 0.0


def test_gamma_k_mass_is_one():
    for lam in (0.5, 1.0, 2.0):
        for dt in (0.1, 1.0):
            m = gamma_k_mass(lam, EventPoint(0.3, -0.2, dt), 0.0)
            assert m == pytest.approx(1.0, abs=1e-10)


# each is called where its kernel is 0 (t <= tau), so lambda is checked
# before any early return
LAMBDA_CHECKS = {
    "gamma_k_array": lambda lam: gamma_k_array(lam, 0, 0, 0, 0, 0, 1),
    "gamma_l_array": lambda lam: gamma_l_array(lam, 1, 0, 0, 1, 1, 1),
    "gamma_k_mass": lambda lam: gamma_k_mass(lam, EventPoint(0, 0, 0), 1.0),
    "KernelParams": KernelParams,
}


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("check", LAMBDA_CHECKS)
def test_gamma_k_invalid_lambda(check, lam):
    with pytest.raises(ValueError, match="lambda must be positive"):
        LAMBDA_CHECKS[check](lam)


def test_gamma_k_residual_decays_quadratically():
    # central-difference residual of the model operator on the kernel
    lam, pole = 1.0, EventPoint(0.0, 0.0, 0.0)

    def residual(h):
        worst = 0.0
        for x in np.linspace(-1.0, 1.0, 7):
            for y in np.linspace(-0.8, 0.8, 7):
                for t in (0.4, 0.7):
                    f = lambda a, b, c: gamma_k_array(
                        lam, a, b, c, pole.x, pole.y, pole.t)
                    uxx = (f(x + h, y, t) - 2 * f(x, y, t)
                           + f(x - h, y, t)) / h**2
                    uy = (f(x, y + h, t) - f(x, y - h, t)) / (2 * h)
                    ut = (f(x, y, t + h) - f(x, y, t - h)) / (2 * h)
                    worst = max(worst, abs(float(
                        lam * uxx + x * uy - ut)))
        return worst

    r1, r2 = residual(1.0 / 64), residual(1.0 / 128)
    order = math.log2(r1 / r2)
    assert order >= 1.8


# -- oscillatory transform ---------------------------------------------------

def test_theta_reference_value():
    res = theta(1.0, 1.0, tol=1e-12)
    assert res.value == pytest.approx(THETA_1_1, rel=1e-12)
    assert abs(res.value - THETA_1_1) <= res.abs_error_estimate * 10 + 1e-15


def test_theta_dual_rule_agreement():
    for z, t in [(1.0, 1.0), (0.5, 0.5), (3.0, 0.8)]:
        res = theta(z, t, tol=1e-10)
        assert res.abs_error_estimate <= 1e-10


def test_theta_large_argument_dominated():
    res = theta(1e3, 1.0, tol=1e-10)
    assert abs(res.value) <= math.exp(-1e3) * 1e6 + 1e-300


def test_theta_small_time_guard():
    with pytest.raises(ThetaConvergenceError):
        theta(1.0, 0.04, tol=1e-8)
    with pytest.raises(ThetaConvergenceError):
        theta(1.0, 0.01, tol=1e-8)


def test_theta_input_validation():
    with pytest.raises(ValueError):
        theta(-1.0, 1.0)
    with pytest.raises(ValueError):
        theta(1.0, -1.0)
    with pytest.raises(ValueError):
        theta(1.0, 1.0, tol=0.0)
    # the batch rule checks its own inputs, not only the scalar wrapper
    with pytest.raises(ValueError):
        theta_batch(np.array([1.0]), 1.0, -1.0)
    with pytest.raises(ValueError):
        theta_batch(np.array([1.0]), -1.0)


def test_theta_batch_reference_values():
    # one call per shared t, so points sharing t share one node set
    for t in sorted({t for _, t in THETA_REF}):
        zs = np.array([z for z, tt in THETA_REF if tt == t])
        vals, errs = theta_batch(zs, t, tol=1e-10)
        # theta_batch returns g = e^z * theta and its estimate
        for z, v, e in zip(zs, vals * np.exp(-zs), errs * np.exp(-zs)):
            assert abs(v - THETA_REF[(z, t)]) <= e


def test_theta_batch_empty_input():
    vals, errs = theta_batch(np.array([]), 0.5)
    assert vals.shape == errs.shape == (0,)


def _stepped_cutoff(z, t, floor):
    # reference: walk xi = step, 2*step, ... one point at a time
    step = max(t, 0.25)
    xi = step
    cap = math.sqrt(2.0 * t * 750.0) + 5.0
    while xi < cap:
        if kernels._theta_envelope(np.array([xi]), z, t)[0] < floor:
            return xi
        xi += step
    return cap


def test_theta_cutoff_matches_stepping_loop():
    rng = np.random.default_rng(3)
    for _ in range(500):
        z = float(np.exp(rng.uniform(-8.0, 8.0)))
        t = float(rng.uniform(0.05, 3.0))
        floor = float(10.0 ** rng.uniform(-30.0, -5.0))
        assert kernels._theta_cutoff(z, t, floor) == \
            _stepped_cutoff(z, t, floor)


def test_kernel_result_validation():
    with pytest.raises(ValueError):
        KernelResult(value=-1.0, abs_error_estimate=0.0)


# -- joint density -----------------------------------------------------------

def test_yor_args_validation():
    with pytest.raises(ValueError):
        yor_density_batch(np.array([0.0]), np.array([-1.0]), 1.0)
    with pytest.raises(ValueError):
        yor_density_batch(np.array([0.0]), np.array([1.0]), 0.0)
    # checked before the prefactor, even where every prefactor is 0
    with pytest.raises(ValueError):
        yor_density_batch(np.array([0.0]), np.array([1e-6]), -1.0)
    with pytest.raises(ValueError):
        yor_density_batch(np.array([0.0]), np.array([1e-6]), 1.0, 0.0)


def test_yor_density_empty_input():
    vals, errs = yor_density_batch(np.array([]), np.array([]), 0.5)
    assert vals.shape == errs.shape == (0,)


def _repeated_grid():
    # a tensor grid stacked twice, with a row of y so small that the
    # prefactor underflows to 0
    ws = np.linspace(-2.0, 2.0, 9)
    ys = np.concatenate(([1e-6], np.geomspace(0.05, 30.0, 8)))
    W, Y = np.meshgrid(ws, ys)
    return np.tile(W.ravel(), 2), np.tile(Y.ravel(), 2)


def _yor_prefactor(w, y, t):
    """The prefactor of p(w, y, t) in closed form, as in the module
    docstring's mpmath reference: p = prefactor * theta(e^w / y, t)."""
    with np.errstate(under="ignore", over="ignore"):
        log_norm = np.log(math.pi * math.sqrt(2 * math.pi * t) * y**2)
        return np.exp(math.pi**2 / (2 * t) - (1 + np.exp(2 * w)) / (2 * y)
                      + w - log_norm)


def _record_theta_batch(monkeypatch):
    seen = []

    def recording(z, t, tol=1e-10):
        seen.append(np.array(z))
        return theta_batch(z, t, tol)

    monkeypatch.setattr(kernels, "theta_batch", recording)
    return seen


def test_yor_density_calls_theta_once_on_live_z(monkeypatch):
    seen = _record_theta_batch(monkeypatch)
    # a batch with a dead point calls theta_batch on its live z, in order
    w, y = np.array([0.2, 1.5, 0.3]), np.array([0.8, 1e-6, 5.0])
    yor_density_batch(w, y, 1.0, 1e-10)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0],
                                  np.exp(w[[0, 2]] - np.log(y[[0, 2]])))
    # a large batch too: every live z, repeated ones included
    seen.clear()
    w, y = _repeated_grid()
    yor_density_batch(w, y, 0.8, 1e-10)
    live = _yor_prefactor(w, y, 0.8) > 0.0
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], np.exp(w - np.log(y))[live])


def test_yor_density_where_z_underflows_is_exactly_zero():
    # the prefactor is about e^-700, live, but z = e^-800 / 0.25 is 0.0
    w, y = np.full(100, -800.0), np.full(100, 0.25)
    assert np.all(_yor_prefactor(w, y, 0.05) > 0.0)
    vals, errs = yor_density_batch(w, y, 0.05)
    assert np.all(vals == 0.0) and np.all(errs == 0.0)


def test_yor_density_doubled_input_gives_each_half_bitwise():
    w, y = _repeated_grid()
    vals, errs = yor_density_batch(w, y, 0.8, 1e-10)
    vals2, errs2 = yor_density_batch(np.tile(w, 2), np.tile(y, 2), 0.8, 1e-10)
    for half in (slice(0, w.size), slice(w.size, None)):
        np.testing.assert_array_equal(vals2[half], vals)
        np.testing.assert_array_equal(errs2[half], errs)


def test_yor_density_dead_points_are_exactly_zero():
    vals, errs = yor_density_batch(np.array([0.0]), np.array([1e-6]), 1.0)
    assert vals[0] == 0.0 and errs[0] == 0.0
    w = np.array([0.0, 0.2, 1.5, 0.3])
    y = np.array([1e-6, 0.8, 1e-6, 5.0])
    vals, errs = yor_density_batch(w, y, 1.0, 1e-12)
    assert vals[0] == errs[0] == vals[2] == errs[2] == 0.0
    assert abs(vals[1] - YOR_REF[(0.2, 0.8)]) <= errs[1]
    assert vals[3] > 0.0 and errs[3] > 0.0


def test_yor_density_reference_point():
    # p(0, 1, 1) = e^{pi^2/2} / (pi sqrt(2 pi)) * e^{-1} * theta(1, 1)
    pref = math.exp(math.pi**2 / 2.0) / (math.pi * math.sqrt(2 * math.pi)) \
        * math.exp(-1.0)
    vals, _ = yor_density_batch(np.array([0.0]), np.array([1.0]), 1.0, 1e-12)
    assert vals[0] == pytest.approx(pref * THETA_1_1, rel=1e-11)


def test_yor_density_vanishes_at_small_y():
    vals, _ = yor_density_batch(np.array([0.0]), np.array([1e-3]), 1.0, 1e-10)
    assert vals[0] < 1e-200


def test_yor_density_nonnegative_on_grid():
    ws = np.linspace(-3, 3, 13)
    ys = np.geomspace(0.01, 30, 13)
    W, Y = np.meshgrid(ws, ys)
    vals, errs = yor_density_batch(W.ravel(), Y.ravel(), 1.0, 1e-10)
    assert np.all(vals >= 0.0) and np.all(errs >= 0.0)


@pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
def test_yor_mass_is_one(t):
    # Gamma_L's pole-variable mass at diffusion lam and elapsed time dt is
    # yor_mass(lam * dt / 2): t = 0.5 is criterion 4's, t = 0.25 is lam = 0.5
    res = yor_mass(t, tol=1e-4)
    # the criterion band is 1e-3; the rule does far better
    assert res.value == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("t", [0.05, 0.1])
def test_yor_mass_refuses_short_times(t):
    # the rule's estimate there is 2.5e27 and 9.1e5, far above tol
    with pytest.raises(ThetaConvergenceError):
        yor_mass(t, tol=1e-4)


def test_yor_density_batch_reference_values():
    w = np.array([w for w, _ in YOR_REF])
    y = np.array([y for _, y in YOR_REF])
    vals, errs = yor_density_batch(w, y, 1.0, 1e-12)
    for ref, v, e in zip(YOR_REF.values(), vals, errs):
        assert abs(v - ref) <= e


def _call_spec():
    # sigma = 1.1 and Yor time sigma^2 T / 4 = 0.5
    T = 2.0 / 1.21
    return T, PricingSpec(payoff=arithmetic_call_payoff(1.0, T),
                          kind=Averaging.ARITHMETIC, sigma=1.1,
                          growth=GrowthBound(M=2.0 + 2.0 / T, C=1.0 / T),
                          kink_lines=(T,))


def test_arithmetic_price_memory_peak():
    # theta_batch's chunk buffer and one row block of the rule, which holds
    # at most BLOCK_NODES nodes, set the peak
    T, spec = _call_spec()
    tracemalloc.start()
    try:
        price(make_arithmetic_problem(spec), EventPoint(1.0, 0.0, T),
              tol=1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_arithmetic_price_calls_theta_once_per_rule(monkeypatch):
    # theta depends on s = log z alone: each rule evaluates it once, at the
    # exact z of its outer nodes, not at every node of the tensor rule
    seen = _record_theta_batch(monkeypatch)
    T, spec = _call_spec()
    price(make_arithmetic_problem(spec), EventPoint(1.0, 0.0, T), tol=1e-5)
    assert len(seen) == 2
    for z, step in zip(seen, (0.3, 0.204)):
        assert z.ndim == 1 and z.size <= 200
        assert np.all(np.diff(z) > 0.0)
        # the s axis is one uniform trapezoid of step 0.6 * width
        np.testing.assert_allclose(np.diff(np.log(z)), step, rtol=1e-9)


# -- price-family kernel -----------------------------------------------------

def _gamma_l1(z, pole, tol=1e-10):
    # unit-diffusion value at one point and one pole
    val, _ = gamma_l_array(1.0, z.x, z.y, z.t, pole.x, pole.y, pole.t, tol)
    return float(val)


def test_gamma_l1_support():
    tol = 1e-8
    # time must advance
    assert _gamma_l1(EventPoint(1, 0, 0.5), EventPoint(1, 1, 0.5), tol) == 0.0
    assert _gamma_l1(EventPoint(1, 0, 0.2), EventPoint(1, 1, 0.7), tol) == 0.0
    # the average can only increase toward the pole slot
    assert _gamma_l1(EventPoint(1, 1.0, 1.0), EventPoint(1, 1.0, 0.0),
                     tol) == 0.0
    assert _gamma_l1(EventPoint(1, 2.0, 1.0), EventPoint(1, 1.0, 0.0),
                     tol) == 0.0
    # interior of the support is strictly positive
    assert _gamma_l1(EventPoint(1, 0.0, 1.0), EventPoint(1, 1.0, 0.0),
                     tol) > 0.0


def test_gamma_l1_domain_errors():
    with pytest.raises(ValueError):
        _gamma_l1(EventPoint(-1, 0, 1), EventPoint(1, 1, 0))
    with pytest.raises(ValueError):
        _gamma_l1(EventPoint(1, 0, 1), EventPoint(0.0, 1, 0))


def test_gamma_l1_reproduction():
    # compose through tau = 0.5 and compare with the direct value; at
    # lam = 1.7 the legs have Yor times 0.425, where theta keeps its digits
    z, pole, tau = EventPoint(1, 0, 1), EventPoint(1, 1, 0), 0.5
    vn, vw = panel_nodes(edges_with_kinks(-7.0, 5.0, 0.25, ()), 10)
    en, ew = panel_nodes(edges_with_kinks(1e-12, 1.0, 0.025, ()), 10)
    xi = np.exp(np.repeat(vn, en.size))
    eta = np.tile(en, vn.size)
    wts = np.repeat(vw, en.size) * xi * np.tile(ew, vn.size)
    for lam in (1.0, 1.7):
        direct, _ = gamma_l_array(lam, z.x, z.y, z.t, pole.x, pole.y, pole.t,
                                  1e-9)
        first, _ = gamma_l_array(lam, z.x, z.y, z.t, xi, eta, tau, 1e-9)
        second, _ = gamma_l_array(lam, xi, eta, tau, pole.x, pole.y, pole.t,
                                  1e-9)
        composed = float(np.dot(wts, first * second))
        assert composed == pytest.approx(float(direct), rel=1e-2)
        assert composed == pytest.approx(float(direct), rel=1e-8)


def test_gamma_l1_left_invariance():
    # Gamma(g o z; g o pole) * g.x^2 = Gamma(z; pole)
    z, pole = EventPoint(1.2, 0.1, 0.9), EventPoint(0.8, 1.3, 0.1)
    base = _gamma_l1(z, pole)
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = EventPoint(float(rng.uniform(0.3, 3.0)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1)))
        moved = _gamma_l1(compose(GeometryKind.L, g, z),
                          compose(GeometryKind.L, g, pole))
        assert moved * g.x**2 == pytest.approx(base, rel=1e-9)


def test_gamma_l_lambda_wraps_gamma_l_array():
    rng = np.random.default_rng(2)
    for _ in range(20):
        lam = float(rng.uniform(0.25, 2.0))
        z = EventPoint(float(rng.uniform(0.3, 3)), float(rng.uniform(-1, 1)),
                       float(rng.uniform(0.5, 1.5)))
        # lam times the elapsed time in [0.2, 4], as in kernel-points
        pole = EventPoint(float(rng.uniform(0.3, 3)),
                          z.y + float(rng.uniform(0.1, 2)),
                          z.t - float(rng.uniform(0.2, 4.0)) / lam)
        res = gamma_l_lambda(KernelParams(lam), z, pole, 1e-10)
        val, err = gamma_l_array(lam, z.x, z.y, z.t, pole.x, pole.y, pole.t,
                                 1e-10)
        assert (res.value, res.abs_error_estimate) == (val, err)


def test_gamma_l_lambda_positive_inside_support():
    val, _ = gamma_l_array(0.5, 1, 0, 1, 1.2, 0.8, 0.0, 1e-8)
    assert val > 0.0
    val, _ = gamma_l_array(0.5, 1, 1, 1, 1.2, 0.8, 0.0, 1e-8)
    assert val == 0.0


def test_gamma_l1_integral_over_evaluation_vars_approaches_one():
    # the dx dy integral is a constant that tends to 1 as the elapsed time
    # shrinks; it is measured, never predicted
    pole = EventPoint(1.0, 0.5, 0.0)
    cbars = []
    for dt in (0.8, 0.6, 0.4):
        vn, vw = panel_nodes(edges_with_kinks(-5.0, 3.5, 0.25, ()), 8)
        en, ew = panel_nodes(edges_with_kinks(0.5 - 8 * dt, 0.5 - 1e-12,
                                              dt / 10, ()), 8)
        xi = np.exp(np.repeat(vn, en.size))
        eta = np.tile(en, vn.size)
        wts = np.repeat(vw, en.size) * xi * np.tile(ew, vn.size)
        vals, _ = gamma_l_array(1.0, xi, eta, dt, pole.x, pole.y, pole.t,
                                1e-8)
        cbars.append(float(np.dot(wts, vals)))
    gaps = [abs(c - 1.0) for c in cbars]
    assert all(c > 0.0 for c in cbars)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.5
