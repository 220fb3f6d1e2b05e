"""Finite-difference machinery: mollifiers, operators, solver, I/O."""
import math

import numpy as np
import pytest

from asianpde import fd
from asianpde._quadrature import edges_with_kinks, panel_nodes
from asianpde.fd import (BoundViolationError, CflError, CoefficientField,
                         GridMismatchError, GridSpec, MollifierMode,
                         MollifierSpec, apply_operator,
                         approximate_fundamental_solution, delta_approximant,
                         load_grid, mollify, save_grid, solve_cauchy)
from asianpde.geometry import EventPoint, GeometryKind
from asianpde.kernels import gamma_k_array, gamma_l_array


def make_grid(**kw):
    base = dict(x_range=(-4.0, 4.0), y_range=(-1.5, 1.5),
                t_range=(0.0, 0.25), nx=97, ny=97, nt=96)
    base.update(kw)
    return GridSpec(**base)


# -- mollifiers ---------------------------------------------------------------

def test_mollify_constant_field_cutoff():
    field = CoefficientField(a=0.8, b=0.3, r=0.1, lam=0.8, Lam=1.0)
    out = mollify(field, MollifierSpec(n=4, mode=MollifierMode.CUTOFF_CHI),
                  check_grid=make_grid())
    xs = np.linspace(-3, 3, 11)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    assert np.allclose(out.a(X, Y, 0.0), 0.8)  # inside the cutoff ball


def test_mollify_cutoff_outside_ball():
    lam, Lam = 0.5, 1.5

    def a_fn(x, y, t):
        return lam + (Lam - lam) / (1.0 + np.asarray(x)**2 + np.asarray(y)**2)

    field = CoefficientField(a=a_fn, b=0.4, r=0.2, lam=lam, Lam=Lam)
    n = 4
    out = mollify(field, MollifierSpec(n=n, mode=MollifierMode.CUTOFF_CHI),
                  check_grid=make_grid())
    # points with x^2 + y^2 >= (n+1)^2 must see (lam, 0, 0)
    pts = [(5.0, 1.0), (0.0, 6.0), (-4.0, -4.0)]
    for x, y in pts:
        assert x * x + y * y >= (n + 1) ** 2
        assert float(out.a(np.array(x), np.array(y), 0.0)) == lam
        assert float(out.b(np.array(x), np.array(y), 0.0)) == 0.0
        assert float(out.r(np.array(x), np.array(y), 0.0)) == 0.0
    # inside radius n nothing changes
    assert float(out.a(np.array(1.0), np.array(1.0), 0.0)) == pytest.approx(
        float(a_fn(1.0, 1.0, 0.0)), rel=1e-12)


def test_mollify_mode_mismatch():
    # the chi_n cut-off is the log-price family's limit; a price-family
    # field is refused
    field = CoefficientField.constant(1.0, kind=GeometryKind.L)
    with pytest.raises(ValueError, match="log-price fields only"):
        mollify(field, MollifierSpec(n=2, mode=MollifierMode.CUTOFF_CHI),
                check_grid=make_grid())


def test_mollify_bound_violation_detected():
    # a field that violates its own declared band trips the check
    field = CoefficientField(a=lambda x, y, t: 2.0 + 0 * np.asarray(x),
                             b=0.0, r=0.0, lam=0.5, Lam=1.0)
    with pytest.raises(BoundViolationError):
        mollify(field, MollifierSpec(n=2, mode=MollifierMode.CUTOFF_CHI),
                check_grid=make_grid())


# -- spatial operator ---------------------------------------------------------

def test_apply_operator_constants():
    grid = make_grid()
    field = CoefficientField.constant(1.0)
    u = np.ones((grid.nx, grid.ny))
    out = apply_operator(field, u, grid, 0.0)
    assert np.allclose(out, 0.0, atol=1e-13)
    field_r = CoefficientField(a=1.0, b=0.0, r=0.25, lam=1.0, Lam=1.0)
    out_r = apply_operator(field_r, u, grid, 0.0)
    interior = out_r[1:-1, 1:-1]
    assert np.allclose(interior, -0.25, atol=1e-13)


def test_apply_operator_kernel_residual_order():
    # spatial operator + central time difference on the exact kernel
    pole = EventPoint(0.0, 0.0, 0.0)
    field = CoefficientField.constant(1.0)

    def residual_norm(n):
        grid = GridSpec(x_range=(-3.0, 3.0), y_range=(-1.5, 1.5),
                        t_range=(0.0, 1.0), nx=n + 1, ny=n + 1, nt=n)
        X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
        t = 0.5
        dt = grid.dt
        um = gamma_k_array(1.0, X, Y, t - dt, 0.0, 0.0, 0.0)
        u0 = gamma_k_array(1.0, X, Y, t, 0.0, 0.0, 0.0)
        up = gamma_k_array(1.0, X, Y, t + dt, 0.0, 0.0, 0.0)
        spat = apply_operator(field, u0, grid, t)
        res = spat - (up - um) / (2.0 * dt)
        # mask away the pole neighbourhood
        shear = Y - 0.0 + t * (X + 0.0) / 2.0
        dist = np.abs(X) + np.abs(shear) ** (1 / 3) + t**0.5
        mask = (dist >= 0.5)
        mask[0, :] = mask[-1, :] = False
        mask[:, 0] = mask[:, -1] = False
        return float(np.max(np.abs(res[mask])))

    r1, r2 = residual_norm(64), residual_norm(128)
    assert math.log2(r1 / r2) >= 1.8


def test_apply_operator_shape_mismatch():
    grid = make_grid()
    field = CoefficientField.constant(1.0)
    with pytest.raises(GridMismatchError):
        apply_operator(field, np.zeros((5, 5)), grid, 0.0)


# -- Cauchy solver ------------------------------------------------------------

def test_constants_are_solutions():
    grid = make_grid()
    field = CoefficientField.constant(0.7)
    sol = solve_cauchy(field, np.ones((grid.nx, grid.ny)), grid)
    assert np.allclose(sol.final, 1.0, atol=1e-12)


def test_solution_matches_kernel_convolution():
    # narrow-Gaussian initial datum evolved to t: must match the exact
    # kernel convolved with the same datum (quadrature oracle) in L1
    lam = 1.0
    grid = GridSpec(x_range=(-3.0, 3.0), y_range=(-1.4, 1.4),
                    t_range=(0.0, 0.4), nx=145, ny=193, nt=100)
    field = CoefficientField.constant(lam)
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    s0 = 0.22
    initial = np.exp(-(X**2 + Y**2) / (2 * s0**2))
    sol = solve_cauchy(field, initial, grid)

    xn, xw = panel_nodes(edges_with_kinks(-1.2, 1.2, 0.3, ()), 8)
    XX = np.repeat(xn, xn.size)
    YY = np.tile(xn, xn.size)
    WW = np.repeat(xw, xn.size) * np.tile(xw, xn.size)
    phi = np.exp(-(XX**2 + YY**2) / (2 * s0**2))
    exact = np.zeros_like(sol.final)
    for k in range(XX.size):
        exact += WW[k] * phi[k] * gamma_k_array(
            lam, X, Y, 0.4, XX[k], YY[k], 0.0)
    num = float(np.sum(np.abs(sol.final - exact)) * grid.cell_area)
    den = float(np.sum(np.abs(exact)) * grid.cell_area)
    assert num / den <= 0.02


def test_nonnegative_data_stay_nonnegative():
    grid = make_grid(nx=65, ny=65, nt=64)

    def a_fn(x, y, t):
        return 0.5 + 1.0 / (1.0 + np.asarray(x)**2 + np.asarray(y)**2)

    field = CoefficientField(a=a_fn, b=lambda x, y, t: 0.1 * np.sin(x),
                             r=0.0, lam=0.5, Lam=1.5)
    rng = np.random.default_rng(1)
    for _ in range(5):
        init = np.maximum(rng.normal(size=(grid.nx, grid.ny)), 0.0)
        sol = solve_cauchy(field, init, grid)
        assert float(sol.final.min()) >= -1e-12


def test_drift_dominated_cell_is_refused():
    # a = 0.05 < |b|*dx/2 = 0.5: the implicit step is no M-matrix, and
    # unchecked it took this nonnegative datum down to -0.354
    grid = GridSpec(x_range=(-1.0, 1.0), y_range=(-1.0, 1.0),
                    t_range=(0.0, 0.1), nx=9, ny=9, nt=4)
    field = CoefficientField(a=0.05, b=4.0, r=0.0, lam=0.05, Lam=4.0)
    init = np.zeros((grid.nx, grid.ny))
    init[4] = 1.0
    with pytest.raises(ValueError, match="cell Peclet condition"):
        solve_cauchy(field, init, grid)


def test_max_principle_band():
    grid = make_grid(nx=65, ny=65, nt=64)
    field = CoefficientField(a=1.0, b=0.0, r=0.3, lam=1.0, Lam=1.0)
    rng = np.random.default_rng(2)
    init = rng.uniform(0.5, 2.0, size=(grid.nx, grid.ny))
    sol = solve_cauchy(field, init, grid)
    dt = grid.t_range[1] - grid.t_range[0]
    assert float(sol.final.max()) <= init.max() * math.exp(0.0) + 1e-12
    assert float(sol.final.min()) >= init.min() * math.exp(-1.0 * dt) - 1e-9


def test_implicit_step_matches_apply_operator():
    # one step on y-constant data: transport is exactly zero, so the step
    # solves (u1 - u0)/dt = D u1, with D the operator apply_operator applies
    grid = GridSpec(x_range=(-3.0, 3.0), y_range=(-1.0, 1.0),
                    t_range=(0.0, 0.01), nx=41, ny=9, nt=1)
    field = CoefficientField(a=lambda x, y, t: 1.0 + 0.5 * np.sin(x),
                             b=lambda x, y, t: 0.8 * np.cos(x),
                             r=lambda x, y, t: 0.2 + 0.02 * x**2,
                             lam=0.5, Lam=1.5)
    X, _ = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    u0 = np.exp(-X**2)
    u1 = solve_cauchy(field, u0, grid).final
    lhs = ((u1 - u0) / grid.dt)[1:-1, 1:-1]
    rhs = apply_operator(field, u1, grid, grid.ts[1])[1:-1, 1:-1]
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_implicit_solve_keeps_columns_apart():
    # a, b and r vary in y, so each y column has bands of its own: a solve
    # that flattened the columns in the wrong order would pair one column's
    # bands with another column's data
    grid = GridSpec(x_range=(-2.0, 2.0), y_range=(-1.0, 1.0),
                    t_range=(0.0, 0.1), nx=23, ny=7, nt=1)
    field = CoefficientField(a=lambda x, y, t: 1.0 + 0.5 * np.sin(x + 2 * y),
                             b=lambda x, y, t: 0.6 * np.cos(x) * y,
                             r=lambda x, y, t: 0.3 + 0.2 * y + 0.05 * x**2,
                             lam=0.5, Lam=1.5)
    t, dt = 0.05, 0.02
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    rhs = np.exp(-X**2) * (1.0 + Y + Y**2)
    bands = fd._x_bands(field, grid, t)
    # the solve takes and returns the march layout (ny, nx), x fastest
    u = fd._implicit_solver(bands, grid, t, dt)(rhs.T)
    lower, diag, upper = bands
    for j in range(grid.ny):
        D = (np.diag(diag[:, j]) + np.diag(lower[1:, j], -1)
             + np.diag(upper[:-1, j], 1))
        ref = np.linalg.solve(np.eye(grid.nx) - dt * D, rhs[:, j])
        assert np.max(np.abs(u.T[:, j] - ref)) <= 1e-13 * np.max(np.abs(ref))


def _reference_march(field, initial, grid):
    # the scheme written out plainly: gather-based upwind transport with
    # copy-out at the y edges, then one dense solve of I - dt*D per column
    nu = grid.physical_x(grid.xs) * grid.dt / grid.dy
    nupos = np.maximum(nu, 0.0)[:, None]
    nuneg = np.maximum(-nu, 0.0)[:, None]
    up, dn = np.r_[1:grid.ny, grid.ny - 1], np.r_[0, :grid.ny - 1]
    u = initial.copy()
    for n in range(grid.nt):
        u = u + nupos * (u[:, up] - u) + nuneg * (u[:, dn] - u)
        lower, diag, upper = fd._x_bands(field, grid, grid.ts[n + 1])
        for j in range(grid.ny):
            D = (np.diag(diag[:, j]) + np.diag(lower[1:, j], -1)
                 + np.diag(upper[:-1, j], 1))
            u[:, j] = np.linalg.solve(np.eye(grid.nx) - grid.dt * D, u[:, j])
    return u


@pytest.mark.parametrize("x_range, nx, kind", [
    ((-2.0, -0.5), 16, GeometryKind.K),  # every speed negative
    ((0.5, 2.0), 16, GeometryKind.K),    # every speed positive
    ((-1.0, 1.0), 17, GeometryKind.K),   # one node with speed exactly 0
    ((-1.0, 0.5), 16, GeometryKind.L),   # speed e^w > 0
])
def test_march_matches_reference_step(x_range, nx, kind):
    grid = GridSpec(x_range=x_range, y_range=(-1.0, 1.0),
                    t_range=(0.0, 0.1), nx=nx, ny=11, nt=3, kind=kind)
    r = 0.0 if kind is GeometryKind.L else (
        lambda x, y, t: 0.3 + 0.2 * y + 0.05 * x**2)
    field = CoefficientField(a=lambda x, y, t: 1.0 + 0.5 * np.sin(x + 2 * y),
                             b=lambda x, y, t: 0.6 * np.cos(x) * y, r=r,
                             lam=0.5, Lam=1.5, kind=kind)
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    initial = np.exp(-X**2) * (1.0 + Y + Y**2) + 0.1 * np.sin(3 * Y)
    u = solve_cauchy(field, initial, grid).final
    ref = _reference_march(field, initial, grid)
    assert u.shape == (grid.nx, grid.ny)
    assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_solve_leaves_initial_untouched():
    # the march updates its array in place and dgttrs overwrites it: it
    # must run on a copy whatever the memory order of the datum
    grid = make_grid(nx=17, ny=13, nt=4)
    field = CoefficientField.constant(1.0)
    datum = np.random.default_rng(3).uniform(size=(grid.nx, grid.ny))
    for initial in (datum.copy(), np.asfortranarray(datum)):
        solve_cauchy(field, initial, grid)
        assert np.array_equal(initial, datum)


def test_time_dependent_coefficients_rebuild_each_step():
    # r = t on constant data: each implicit step divides by 1 + dt * t_n
    grid = GridSpec(x_range=(-1.0, 1.0), y_range=(-1.0, 1.0),
                    t_range=(0.0, 1.0), nx=9, ny=9, nt=16)
    field = CoefficientField(a=1.0, b=0.0, r=lambda x, y, t: t, lam=1.0,
                             Lam=1.0)
    sol = solve_cauchy(field, np.ones((grid.nx, grid.ny)), grid)
    expected = np.prod(1.0 / (1.0 + grid.dt * grid.ts[1:]))
    assert np.allclose(sol.final, expected, rtol=1e-12, atol=0.0)


def test_time_independent_field_factors_once(monkeypatch):
    calls, solver = [], fd._implicit_solver

    def counted(*args):
        calls.append(args[2])
        return solver(*args)

    monkeypatch.setattr(fd, "_implicit_solver", counted)
    grid = make_grid(nx=17, ny=17, nt=12)
    field = CoefficientField(a=lambda x, y, t: 1.0 + 0.5 * np.sin(x),
                             b=lambda x, y, t: 0.2 * np.cos(y), r=0.1,
                             lam=0.5, Lam=1.5)
    solve_cauchy(field, np.ones((grid.nx, grid.ny)), grid)
    assert calls == [grid.ts[1]]


def test_cfl_violation_raises():
    grid = GridSpec(x_range=(-4.0, 4.0), y_range=(-1.0, 1.0),
                    t_range=(0.0, 1.0), nx=33, ny=257, nt=16)
    field = CoefficientField.constant(1.0)
    with pytest.raises(CflError):
        solve_cauchy(field, np.ones((grid.nx, grid.ny)), grid)


def test_initial_shape_mismatch():
    grid = make_grid()
    field = CoefficientField.constant(1.0)
    with pytest.raises(GridMismatchError):
        solve_cauchy(field, np.ones((3, 3)), grid)


# -- fundamental solution -----------------------------------------------------

def test_fd_kernel_matches_closed_form():
    field = CoefficientField.constant(1.0)
    grid = GridSpec(x_range=(-4.0, 4.0), y_range=(-1.1, 1.1),
                    t_range=(0.0, 0.5), nx=257, ny=257, nt=512)
    sol = approximate_fundamental_solution(field, EventPoint(0, 0, 0), grid,
                                           delta_width=2.0)
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    exact = gamma_k_array(1.0, X, Y, 0.5, 0.0, 0.0, 0.0)
    rel_l1 = float(np.sum(np.abs(sol.final - exact))
                   / np.sum(np.abs(exact)))
    assert rel_l1 <= 0.05


def test_fd_kernel_l_kind_support_and_match():
    # price family in log coordinates: delta at x=1 (w=0), y=0; the primal
    # solve from a (w, y) delta equals x0 * Gamma(e^w, y, t; pole), the
    # kernel in its first arguments (x0 = 1 here)
    lam = 1.0
    field = CoefficientField.constant(lam, kind=GeometryKind.L)
    grid = GridSpec(x_range=(-4.5, 3.2), y_range=(-8.0, 1.0),
                    t_range=(0.0, 0.8), nx=193, ny=257, nt=640,
                    kind=GeometryKind.L)
    pole = EventPoint(1.0, 0.0, 0.0)
    sol = approximate_fundamental_solution(field, pole, grid,
                                           delta_width=2.0)
    # the average coordinate only decreases toward the pole slot: mass
    # above the pole average beyond the delta width is negligible
    mask_hi = grid.ys >= pole.y + 3 * 2.0 * grid.dy
    frac = float(sol.final[:, mask_hi].sum() / max(sol.final.sum(), 1e-300))
    assert frac <= 1e-6
    W, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    vals, _ = gamma_l_array(1.0, np.exp(W.ravel()), Y.ravel(), 0.8,
                            pole.x, pole.y, pole.t, 1e-8)
    exact = vals.reshape(W.shape)
    num = float(np.sum(np.abs(sol.final - exact)) * grid.cell_area)
    den = float(np.sum(np.abs(exact)) * grid.cell_area)
    assert den > 0.5  # sanity: the box captures the bulk of the mass
    # first-order upwind smears the double-exponential decay at the
    # support edge y -> y0-, which dominates the global L1 gap; the bulk
    # placement must still agree tightly
    assert num / den <= 0.2
    ge = exact.sum(axis=0)
    gf = sol.final.sum(axis=0)
    ymean_ex = float(np.dot(grid.ys, ge) / ge.sum())
    ymean_fd = float(np.dot(grid.ys, gf) / gf.sum())
    assert abs(ymean_fd - ymean_ex) <= 2 * grid.dy
    we = exact.sum(axis=1)
    wf = sol.final.sum(axis=1)
    wmean_ex = float(np.dot(grid.xs, we) / we.sum())
    wmean_fd = float(np.dot(grid.xs, wf) / wf.sum())
    assert abs(wmean_fd - wmean_ex) <= 2 * grid.dx


def test_delta_approximant_normalized():
    grid = make_grid()
    g = delta_approximant(grid, 0.0, 0.0, 3.0)
    assert float(g.sum() * grid.cell_area) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        delta_approximant(grid, 0.0, 0.0, 1.0)


def test_pole_placement_validation():
    grid = make_grid()
    field = CoefficientField.constant(1.0)
    with pytest.raises(ValueError):
        approximate_fundamental_solution(field, EventPoint(10, 0, 0), grid)
    with pytest.raises(ValueError):
        approximate_fundamental_solution(field, EventPoint(0, 0, 0.1), grid)
    # the price family maps the pole price to log coordinates
    grid_l = make_grid(kind=GeometryKind.L)
    field_l = CoefficientField.constant(1.0, kind=GeometryKind.L)
    for x in (0.0, -1.0):
        with pytest.raises(ValueError, match="pole needs x > 0"):
            approximate_fundamental_solution(field_l, EventPoint(x, 0, 0),
                                             grid_l)


# -- serialization ------------------------------------------------------------

def test_grid_io_roundtrip(tmp_path):
    grid = make_grid(nx=33, ny=17, nt=8)
    field = CoefficientField.constant(1.0)
    sol = solve_cauchy(field, np.random.default_rng(0).uniform(
        size=(grid.nx, grid.ny)), grid)
    path = str(tmp_path / "out.grid")
    save_grid(sol, path)
    frames, info = load_grid(path)
    assert frames.shape == (1, grid.nx, grid.ny)
    assert np.array_equal(frames[0], sol.final)
    assert info["kind"] == "K" and info["endianness"] == "<"
    assert info["x_range"] == grid.x_range
    import json
    with open(path + ".meta.json") as fh:
        meta = json.load(fh)
    assert meta["scheme"]["splitting"] == "lie"
    assert meta["nx"] == 33
    assert meta["n_frames"] == 1 and meta["times"] == [grid.t_range[1]]


def test_grid_io_rejects_garbage(tmp_path):
    path = str(tmp_path / "bad.grid")
    with open(path, "wb") as fh:
        fh.write(b"not a grid file at all........................")
    with pytest.raises(ValueError):
        load_grid(path)

