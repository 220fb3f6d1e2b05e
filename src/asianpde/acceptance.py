"""The acceptance criteria, each with its only copy of inputs and bounds.

:data:`CRITERIA` maps 1..12 to functions returning ``(passed, detail)``;
:func:`run` times one and fails it past its :data:`RUNTIME_BOUND_S` entry.
The test suite and ``asianpde validate`` both report this registry.
"""
from __future__ import annotations

import functools
import math
import time

import numpy as np

from ._quadrature import edges_with_kinks, panel_nodes
from .bounds import (fit_multiplicative_constants, gamma_l_envelope,
                     sandwich_violations)
from .control import (ControlEndpoints, PsiBranch, psi_bruteforce,
                      psi_canonical, psi_direct)
from .fd import (CoefficientField, GridSpec, MollifierMode, MollifierSpec,
                 apply_operator, approximate_fundamental_solution, mollify,
                 solve_cauchy)
from .geometry import EventPoint, GeometryKind, compose, dist
from .kernels import (gamma_k_array, gamma_k_mass, gamma_l_array, theta,
                      yor_mass)
from .mc import (Averaging, McConfig, ModelSpec, empirical_density,
                 fraction_within_bands, mc_price, simulate_terminal)
from .pricing import (CauchyProblem, GrowthBound, PricingSpec,
                      arithmetic_call_payoff, geometric_call_payoff,
                      make_arithmetic_problem, price, transform_geometric)

__all__ = ["CRITERIA", "RUNTIME_BOUND_S", "run"]


def criterion_1_kernel_normalization():
    worst = 0.0
    slowest = 0.0
    for lam in (0.5, 1.0, 2.0):
        for dt in (0.1, 1.0):
            t0 = time.time()
            mass = gamma_k_mass(lam, EventPoint(0.3, -0.2, dt), 0.0)
            slowest = max(slowest, time.time() - t0)
            worst = max(worst, abs(mass - 1.0))
    return (worst <= 1e-6 and slowest < 1.0,
            f"max |mass - 1| = {worst:.2e}, slowest case {slowest:.3f}s")


def criterion_2_reproduction_closed_form():
    lam = 1.0
    t0, tau, t1 = 0.0, 0.5, 1.0
    # pole-variable quadrature nodes (panel Gauss rule over the support)
    xn, xw = panel_nodes(edges_with_kinks(-7.0, 7.0, 0.5, ()), 12)
    yn, yw = panel_nodes(edges_with_kinks(-5.0, 5.0, 0.25, ()), 12)
    XX = np.repeat(xn, yn.size)
    YY = np.tile(yn, xn.size)
    WW = np.repeat(xw, yn.size) * np.tile(yw, xn.size)
    inner = gamma_k_array(lam, XX, YY, tau, 0.0, 0.0, t0)
    # evaluation grid carrying the L1 weights
    ex = np.linspace(-4.0, 4.0, 41)
    ey = np.linspace(-3.0, 3.0, 41)
    dA = (ex[1] - ex[0]) * (ey[1] - ey[0])
    l1 = 0.0
    for x in ex:
        direct = gamma_k_array(lam, x, ey, t1, 0.0, 0.0, t0)
        outer = gamma_k_array(lam, x, ey[:, None], t1, XX[None, :],
                              YY[None, :], tau)
        composed = outer @ (WW * inner)
        l1 += float(np.sum(np.abs(composed - direct))) * dA
    return l1 <= 1e-3, f"L1 discrepancy = {l1:.2e}"


def criterion_3_residual_order():
    lam = 1.0
    field = CoefficientField.constant(lam)

    def residual_norm(h):
        n = int(round(1.0 / h))
        grid = GridSpec(x_range=(-1.5, 1.5), y_range=(-1.5, 1.5),
                        t_range=(0.0, 1.0), nx=3 * n + 1, ny=3 * n + 1,
                        nt=n)
        X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
        t = 0.5
        um = gamma_k_array(lam, X, Y, t - h, 0.0, 0.0, 0.0)
        u0 = gamma_k_array(lam, X, Y, t, 0.0, 0.0, 0.0)
        up = gamma_k_array(lam, X, Y, t + h, 0.0, 0.0, 0.0)
        spat = apply_operator(field, u0, grid, t)
        res = spat - (up - um) / (2.0 * h)
        shear = Y + t * X / 2.0
        dmask = (np.abs(X) + np.abs(shear) ** (1 / 3) + t**0.5) >= 0.5
        dmask[[0, -1], :] = False
        dmask[:, [0, -1]] = False
        return float(np.max(np.abs(res[dmask])))

    r32 = residual_norm(1 / 32)
    r64 = residual_norm(1 / 64)
    r128 = residual_norm(1 / 128)
    o1 = math.log2(r32 / r64)
    o2 = math.log2(r64 / r128)
    return (o1 >= 1.8 and o2 >= 1.8,
            f"residuals {r32:.2e} -> {r64:.2e} -> {r128:.2e}, "
            f"orders {o1:.2f}, {o2:.2f}")


def criterion_4_yor_kernel_mass():
    # the pole-variable mass of Gamma_L at unit diffusion and elapsed time
    # 1 is the Yor density's at t = 1/2
    res = yor_mass(0.5, tol=1e-4)
    # dual-rule agreement honored at the requested tolerance
    dual_ok = True
    for z in (0.5, 1.0, 3.0):
        th = theta(z, 0.5, tol=1e-8)
        dual_ok &= th.abs_error_estimate <= 1e-8
    ok = 0.999 <= res.value <= 1.001 and dual_ok
    return ok, (f"mass = {res.value:.8f} (est err "
                f"{res.abs_error_estimate:.1e}), dual-rule ok = {dual_ok}")


def criterion_5_kernel_vs_mc_density():
    model = ModelSpec(mu=0.0, sigma=math.sqrt(2.0),
                      averaging=Averaging.ARITHMETIC)
    cfg = McConfig(n_paths=1_000_000, n_steps=512, seed=2024)
    samples = simulate_terminal(model, (1.0, 0.0), 1.0, cfg)
    qx = np.quantile(samples.s, [0.004, 0.985])
    qy = np.quantile(samples.a, [0.004, 0.985])
    bins = (np.linspace(qx[0], qx[1], 51), np.linspace(qy[0], qy[1], 51))
    hist = empirical_density((samples.s, samples.a), bins)
    XX, YY = np.meshgrid(hist.x_centers, hist.y_centers, indexing="ij")
    dens, _ = gamma_l_array(1.0, 1.0, 0.0, 1.0, XX.ravel(), YY.ravel(), 0.0,
                            1e-8)
    frac = fraction_within_bands(hist, dens.reshape(XX.shape))
    return frac >= 0.95, f"{frac:.1%} of 50x50 bins inside 3-sigma bands"


def criterion_6_psi_oracle():
    zero = psi_canonical(1.0, -2.0, 2.0).cost
    grid_ok = True
    worst = 0.0
    for x in (0.5, 0.75, 1.0, 1.5, 2.5):
        for y in (-0.3, -0.6, -1.0, -1.5, -2.5):
            for t in (0.5, 1.0, 2.0):
                closed = psi_canonical(x, y, t).cost
                ep = ControlEndpoints(start=EventPoint(x, y, t),
                                      end=EventPoint(1.0, 0.0, 0.0))
                brute = psi_bruteforce(ep, n_steps=32, iterations=300)
                lo_ok = brute >= closed - 1e-8
                hi_ok = brute <= closed * 1.02 + 1e-8
                grid_ok &= lo_ok and hi_ok
                if closed > 1e-9:
                    worst = max(worst, (brute - closed) / closed)
    # branch continuity at the boundary
    x, t = 1.3, 1.1
    dy_star = t * math.sqrt(x) * (2.0 / math.pi)
    eps = 1e-10
    lo = psi_canonical(x, -(dy_star - eps), t)
    hi = psi_canonical(x, -(dy_star + eps), t)
    cont = abs(lo.cost - hi.cost)
    ok = (zero <= 1e-6 and grid_ok and cont <= 1e-8
          and lo.branch is PsiBranch.LOWER and hi.branch is PsiBranch.UPPER)
    return ok, (f"zero-cost = {zero:.1e}, worst oracle gap = {worst:.3%}, "
                f"branch-boundary jump = {cont:.1e}")


def criterion_7_psi_invariance():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10_000):
        x0, x1 = rng.uniform(0.3, 3.0, size=2)
        t0 = float(rng.uniform(0.0, 1.0))
        t1 = t0 + float(rng.uniform(0.2, 2.0))
        y0 = float(rng.uniform(-1.0, 1.0))
        y1 = y0 - float(rng.uniform(0.05, 3.0))
        ep = ControlEndpoints(start=EventPoint(x1, y1, t1),
                              end=EventPoint(x0, y0, t0))
        g = EventPoint(float(rng.uniform(0.2, 4.0)),
                       float(rng.uniform(-2.0, 2.0)),
                       float(rng.uniform(-1.0, 1.0)))
        moved = ControlEndpoints(start=compose(GeometryKind.L, g, ep.start),
                                 end=compose(GeometryKind.L, g, ep.end))
        a = psi_direct(ep).cost
        b = psi_direct(moved).cost
        if max(a, b) > 1e-12:
            worst = max(worst, abs(a - b) / max(a, b))
    return (worst <= 1e-10,
            f"max relative deviation over 1e4 pairs = {worst:.2e}")


# -- 8 + 9 + 11: FD kernel family -------------------------------------------

LAM8, LAM8_UP = 0.5, 1.5
POLE8 = EventPoint(3.0, 1.0, 0.0)


def _criterion8_field():
    def a_fn(x, y, t):
        return LAM8 + (LAM8_UP - LAM8) / (1.0 + np.asarray(x) ** 2
                                          + np.asarray(y) ** 2)

    def b_fn(x, y, t):
        return 0.1 * np.sin(np.asarray(x))

    return CoefficientField(a=a_fn, b=b_fn, r=0.0, lam=LAM8, Lam=LAM8_UP)


@functools.cache
def _fd_kernels():
    """Kernel slices at T = 1 over mollified coefficients, n = 4, 8, 16;
    criteria 8 and 9 read the same family, so it is solved once."""
    field = _criterion8_field()
    grid = GridSpec(x_range=(-2.0, 8.0), y_range=(-4.5, 2.5),
                    t_range=(0.0, 1.0), nx=161, ny=161, nt=192)
    slices = {}
    for n in (4, 8, 16):
        mol = mollify(field, MollifierSpec(n=n, mode=MollifierMode.CUTOFF_CHI),
                      check_grid=grid)
        slices[n] = approximate_fundamental_solution(mol, POLE8, grid,
                                                     delta_width=2.5)
    return grid, slices


def criterion_8_fd_cauchy_sequence_and_mass():
    grid, slices = _fd_kernels()
    area = grid.cell_area
    d48 = float(np.sum(np.abs(slices[4].final - slices[8].final)) * area)
    d816 = float(np.sum(np.abs(slices[8].final - slices[16].final)) * area)
    cauchy_ok = d48 > d816 > 0.0
    band_ok = True
    for n, sol in slices.items():
        mass = float(sol.mass_history[-1])
        lo = math.exp(-LAM8_UP * 1.0) * 0.98
        hi = math.exp(LAM8_UP * 1.0) * 1.02
        band_ok &= lo <= mass <= hi
    return (cauchy_ok and band_ok,
            f"L1 Cauchy distances {d48:.2e} > {d816:.2e}, masses in "
            f"[e^-Lam, e^Lam] +- 2%: {band_ok}")


def criterion_9_envelope_sandwich():
    grid, slices = _fd_kernels()
    target_slice = slices[16].final
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    T = 1.0
    d = dist(GeometryKind.K, EventPoint(X, Y, T), POLE8)
    sel = (d >= 0.3) & (d <= 3.0) & (target_slice > 1e-12)
    xs, ys, vals = X[sel], Y[sel], target_slice[sel]
    lo_shape = gamma_k_array(0.25, xs, ys, T, POLE8.x, POLE8.y, POLE8.t)
    hi_shape = gamma_k_array(3.0, xs, ys, T, POLE8.x, POLE8.y, POLE8.t)
    n_pts = vals.size
    c_minus, c_plus = fit_multiplicative_constants(
        vals[::2], lo_shape[::2], hi_shape[::2])
    viol_k = sandwich_violations(vals[1::2], c_minus * lo_shape[1::2],
                                 c_plus * hi_shape[1::2])

    # price-family side: fitted control-value envelope vs the closed form
    pole = EventPoint(1.0, 0.0, 0.0)
    eps = 0.25
    pts = [(x, y, t)
           for x in np.linspace(0.6, 1.8, 10)
           for y in np.linspace(-2.0, -0.4, 10)
           for t in np.linspace(0.5, 1.0, 10)
           if y + pole.x * eps * t < pole.y]
    target_l = np.empty(len(pts))
    lo_l = np.empty(len(pts))
    hi_l = np.empty(len(pts))
    for k, (x, y, t) in enumerate(pts):
        v, _ = gamma_l_array(1.0, np.array([x]), np.array([y]), t,
                             pole.x, pole.y, pole.t, 1e-8)
        target_l[k] = v[0]
        lo_l[k], hi_l[k] = gamma_l_envelope(EventPoint(x, y, t), pole, eps)
    cl, cu = fit_multiplicative_constants(target_l[::2], lo_l[::2],
                                          hi_l[::2], floor=1e-250)
    mask = target_l[1::2] > 1e-250
    viol_l = sandwich_violations(target_l[1::2][mask],
                                 cl * lo_l[1::2][mask],
                                 cu * hi_l[1::2][mask])
    ok = viol_k == 0 and viol_l == 0 and n_pts >= 2000 and len(pts) >= 1000
    return ok, (f"log-price side: 0 of {vals[1::2].size} validation points "
                f"violate; price side: 0 of {int(mask.sum())} violate"
                if ok else
                f"violations: {viol_k} (log-price), {viol_l} (price)")


def criterion_11_comparison_principle():
    field = _criterion8_field()
    grid = GridSpec(x_range=(-2.0, 8.0), y_range=(-3.0, 2.0),
                    t_range=(0.0, 0.25), nx=65, ny=65, nt=64)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        init = np.maximum(rng.normal(size=(grid.nx, grid.ny)), 0.0)
        sol = solve_cauchy(field, init, grid)
        worst = min(worst, float(sol.final.min()))
    return (worst >= -1e-12,
            f"minimum value over 100 random nonnegative data = {worst:.2e}")


def criterion_10_dual_method_pricing():
    # geometric-average call, sigma = 0.4, r = 0, S = K = 1, T = 1
    sigma_g = 0.4
    lam_g = 0.5 * sigma_g**2
    spec_g = PricingSpec(payoff=geometric_call_payoff(1.0, 1.0),
                         kind=Averaging.GEOMETRIC, sigma=sigma_g, rate=0.0,
                         growth=GrowthBound(M=1.0, C=1.5),
                         kink_lines=(0.0,))
    prob_g = transform_geometric(spec_g)
    kp_g = price(prob_g, EventPoint(0.0, 0.0, 1.0), tol=1e-8).value
    model_g = ModelSpec(mu=-lam_g, sigma=sigma_g, r=0.0,
                        averaging=Averaging.GEOMETRIC)
    mc_g, se_g = mc_price(model_g, spec_g.payoff, (1.0, 0.0, 0.0), 1.0,
                          McConfig(n_paths=1_000_000, n_steps=256,
                                   seed=1001))
    dev_g = abs(kp_g - mc_g) / se_g

    # arithmetic-average call, sigma = sqrt(2), K = 1, T = 1
    sigma_a = math.sqrt(2.0)
    spec_a = PricingSpec(payoff=arithmetic_call_payoff(1.0, 1.0),
                         kind=Averaging.ARITHMETIC, sigma=sigma_a, rate=0.0,
                         growth=GrowthBound(M=2.0, C=1.0),
                         kink_lines=(1.0,))
    prob_a = make_arithmetic_problem(spec_a)
    kp_a = price(prob_a, EventPoint(1.0, 0.0, 1.0), tol=1e-5).value
    model_a = ModelSpec(mu=0.0, sigma=sigma_a, r=0.0,
                        averaging=Averaging.ARITHMETIC)
    mc_a, se_a = mc_price(model_a, spec_a.payoff, (1.0, 0.0, 0.0), 1.0,
                          McConfig(n_paths=1_000_000, n_steps=512,
                                   seed=1002))
    dev_a = abs(kp_a - mc_a) / se_a
    return dev_g <= 3.0 and dev_a <= 3.0, (
        f"geometric: kernel {kp_g:.6f} vs mc {mc_g:.6f} ({dev_g:.2f} se); "
        f"arithmetic: kernel {kp_a:.6f} vs mc {mc_a:.6f} ({dev_a:.2f} se)")


def criterion_12_initial_datum_attainment():
    lam = 0.25

    def plateau(x, y):
        rho = np.hypot(np.asarray(x, float), np.asarray(y, float))
        return 1.0 / (1.0 + np.maximum(rho - 1.0, 0.0) ** 2)

    spec = PricingSpec(payoff=plateau, kind=Averaging.GEOMETRIC,
                       sigma=math.sqrt(2 * lam), rate=0.0,
                       growth=GrowthBound(M=1.5, C=0.1))
    prob = CauchyProblem(spec=spec, initial=plateau)
    target = 1.0  # plateau value at the approach point (0, 0)
    worst = 0.0
    for dt in (1e-1, 1e-2, 1e-3):
        for (dx, dy) in [(0.0, 0.0), (0.3 * dt, 0.0),
                         (0.1 * dt, -0.2 * dt)]:
            res = price(prob, EventPoint(dx, dy, dt), tol=1e-8)
            worst = max(worst, abs(res.value - target))
    return (worst <= 1e-2,
            f"max |price - payoff| over 3 approach sequences x 3 times "
            f"= {worst:.2e}")


CRITERIA = {
    1: criterion_1_kernel_normalization,
    2: criterion_2_reproduction_closed_form,
    3: criterion_3_residual_order,
    4: criterion_4_yor_kernel_mass,
    5: criterion_5_kernel_vs_mc_density,
    6: criterion_6_psi_oracle,
    7: criterion_7_psi_invariance,
    8: criterion_8_fd_cauchy_sequence_and_mass,
    9: criterion_9_envelope_sandwich,
    10: criterion_10_dual_method_pricing,
    11: criterion_11_comparison_principle,
    12: criterion_12_initial_datum_attainment,
}


# wall-clock bounds in seconds; a criterion that takes as long or longer fails
RUNTIME_BOUND_S = {2: 30.0, 4: 60.0, 5: 300.0, 10: 600.0}


def run(n: int) -> tuple[bool, str, float]:
    """Run criterion n: (passed, detail, wall seconds).  Past its
    :data:`RUNTIME_BOUND_S` entry it fails, and its detail says so."""
    start = time.perf_counter()
    passed, detail = CRITERIA[n]()
    seconds = time.perf_counter() - start
    bound = RUNTIME_BOUND_S.get(n, math.inf)
    if not seconds < bound:
        passed = False
        detail += f"; runtime {seconds:.1f}s, bound {bound:.0f}s"
    return bool(passed), detail, seconds
