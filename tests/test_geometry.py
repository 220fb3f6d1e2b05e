"""Group laws, quasi-distance, Holder estimation, bracket rank."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asianpde.geometry import (EventPoint, GeometryKind, HolderEstimate,
                               compose, dilate_k, dist, holder_seminorm,
                               identity, inverse, lie_rank)

K, L = GeometryKind.K, GeometryKind.L

coord = st.floats(-10.0, 10.0, allow_nan=False)
pos_coord = st.floats(0.05, 10.0, allow_nan=False)


def kpoint(x, y, t):
    return EventPoint(x, y, t)


k_points = st.builds(EventPoint, coord, coord, coord)
l_points = st.builds(EventPoint, pos_coord, coord, coord)


# -- compose / inverse -------------------------------------------------------

def test_compose_k_example():
    assert compose(K, kpoint(1, 2, 3), kpoint(4, 5, 6)) == kpoint(5, 1, 9)


def test_compose_l_example():
    assert compose(L, kpoint(2, 1, 1), kpoint(3, 4, 5)) == kpoint(6, 9, 6)


def test_k_zero_element():
    p = kpoint(0.7, -1.3, 2.2)
    assert compose(K, identity(K), p) == p
    assert compose(K, p, identity(K)) == p


def test_l_identity_element():
    p = kpoint(2.0, -1.0, 3.0)
    assert compose(L, identity(L), p) == p
    assert compose(L, p, identity(L)) == p


def test_inverse_k_example():
    assert inverse(K, kpoint(1, 2, 3)) == kpoint(-1, -5, -3)


def test_inverse_l_example():
    assert inverse(L, kpoint(2, 6, 5)) == kpoint(0.5, -3.0, -5)


@given(k_points)
def test_inverse_involution_k(p):
    q = inverse(K, inverse(K, p))
    assert math.isclose(q.x, p.x, abs_tol=1e-12)
    assert math.isclose(q.y, p.y, abs_tol=1e-9)
    assert math.isclose(q.t, p.t, abs_tol=1e-12)


@given(k_points)
def test_inverse_law_k(p):
    e = compose(K, inverse(K, p), p)
    assert abs(e.x) < 1e-12 and abs(e.y) < 1e-9 and abs(e.t) < 1e-12


@given(l_points)
def test_inverse_law_l(p):
    e = compose(L, inverse(L, p), p)
    assert math.isclose(e.x, 1.0, rel_tol=1e-12)
    assert abs(e.y) < 1e-9 and abs(e.t) < 1e-12


@given(k_points, k_points, k_points)
def test_associativity_k(p, q, w):
    a = compose(K, compose(K, p, q), w)
    b = compose(K, p, compose(K, q, w))
    assert math.isclose(a.x, b.x, abs_tol=1e-9)
    assert math.isclose(a.y, b.y, abs_tol=1e-7)
    assert math.isclose(a.t, b.t, abs_tol=1e-9)


@given(l_points, l_points, l_points)
def test_associativity_l(p, q, w):
    a = compose(L, compose(L, p, q), w)
    b = compose(L, p, compose(L, q, w))
    assert math.isclose(a.x, b.x, rel_tol=1e-12)
    assert math.isclose(a.y, b.y, abs_tol=1e-7)
    assert math.isclose(a.t, b.t, abs_tol=1e-12)


def test_l_domain_errors():
    with pytest.raises(ValueError):
        compose(L, kpoint(-1, 0, 0), kpoint(1, 0, 0))
    with pytest.raises(ValueError):
        inverse(L, kpoint(0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        dist(L, kpoint(1, 0, 0), kpoint(-2, 0, 0))


# -- dilations ---------------------------------------------------------------

def test_dilate_exponents():
    assert dilate_k(2.0, kpoint(1, 1, 1)) == kpoint(2, 8, 4)


def test_dilate_identity():
    p = kpoint(0.3, -2.0, 1.5)
    assert dilate_k(1.0, p) == p


def test_dilate_group_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = kpoint(*rng.normal(size=3))
        r = float(rng.uniform(0.1, 5.0))
        q = dilate_k(r, dilate_k(1.0 / r, p))
        assert math.isclose(q.x, p.x, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(q.y, p.y, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(q.t, p.t, rel_tol=1e-12, abs_tol=1e-12)


def test_dilate_domain_error():
    with pytest.raises(ValueError):
        dilate_k(0.0, kpoint(1, 1, 1))


# -- quasi-distance ----------------------------------------------------------

def test_dist_far_points_are_close():
    # the shear term cancels exactly for this pair, leaving |t - tau|^(1/2)
    assert dist(K, kpoint(1, 0, 1), kpoint(1, 1, 0)) == pytest.approx(1.0)


def test_dist_zero_on_diagonal():
    p = kpoint(0.4, -1.0, 2.0)
    assert dist(K, p, p) == 0.0
    assert dist(L, kpoint(2, 1, 1), kpoint(2, 1, 1)) == 0.0


def test_dist_k_homogeneity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        z = kpoint(*rng.normal(size=3))
        w = kpoint(*rng.normal(size=3))
        r = float(rng.uniform(0.2, 4.0))
        lhs = dist(K, dilate_k(r, z), dilate_k(r, w))
        assert math.isclose(lhs, r * dist(K, z, w), rel_tol=1e-12)


@pytest.mark.parametrize("kind", [K, L])
def test_dist_left_invariance(kind):
    # exact identity in real arithmetic; in floats the cube root amplifies
    # cancellation noise, so test on generic-position random triples where
    # the 1e-12 relative bound is attainable
    rng = np.random.default_rng(7)
    for _ in range(400):
        if kind is K:
            g, z, w = (kpoint(*rng.uniform(-4, 4, size=3)) for _ in range(3))
        else:
            g, z, w = (kpoint(float(rng.uniform(0.2, 4.0)),
                              *rng.uniform(-4, 4, size=2)) for _ in range(3))
        d0 = dist(kind, z, w)
        d1 = dist(kind, compose(kind, g, z), compose(kind, g, w))
        assert math.isclose(d0, d1, rel_tol=1e-12, abs_tol=1e-11)


def test_quasi_triangle_constant_bounded():
    # the triangle constant is not known analytically; measure it over
    # 1e6 random triples in a fixed box and require boundedness
    rng = np.random.default_rng(2)
    n = 1_000_000
    z = rng.uniform(-2, 2, size=(3, n))
    u = rng.uniform(-2, 2, size=(3, n))
    w = rng.uniform(-2, 2, size=(3, n))

    def dist_vec(a, b):
        shear = a[1] - b[1] + (a[2] - b[2]) * (a[0] + b[0]) / 2.0
        return (np.abs(a[0] - b[0]) + np.abs(shear) ** (1.0 / 3.0)
                + np.abs(a[2] - b[2]) ** 0.5)

    num = dist_vec(z, w)
    den = dist_vec(z, u) + dist_vec(u, w)
    mask = den > 0
    c_emp = float(np.max(num[mask] / den[mask]))
    print(f"empirical K quasi-triangle constant over 1e6 triples: {c_emp:.4f}")
    assert c_emp < 4.0

    # same experiment for the price geometry (empirical constant, reported)
    zl = np.vstack([rng.uniform(0.2, 3, n), z[1], z[2]])
    ul = np.vstack([rng.uniform(0.2, 3, n), u[1], u[2]])
    wl = np.vstack([rng.uniform(0.2, 3, n), w[1], w[2]])

    def dist_vec_l(a, b):
        s = np.sqrt(a[0] * b[0])
        shear = a[1] - b[1] + (a[2] - b[2]) * (a[0] + b[0]) / 2.0
        return (np.abs(a[0] - b[0]) / s + (np.abs(shear) / s) ** (1.0 / 3.0)
                + np.abs(a[2] - b[2]) ** 0.5)

    num = dist_vec_l(zl, wl)
    den = dist_vec_l(zl, ul) + dist_vec_l(ul, wl)
    mask = den > 0
    c_emp_l = float(np.max(num[mask] / den[mask]))
    print(f"empirical L quasi-triangle constant: {c_emp_l:.4f}")
    assert c_emp_l < 4.0


# -- Holder seminorm ---------------------------------------------------------

def test_holder_constant_field():
    pts = [(kpoint(0, 0, 0), 5.0), (kpoint(1, 2, 3), 5.0),
           (kpoint(-1, 0, 2), 5.0)]
    est = holder_seminorm(K, pts, alpha=0.5)
    assert est.seminorm == 0.0
    assert est.sample_count == 3


def test_holder_y_function_blows_up():
    # f(x,y,t) = y on pairs whose quasi-distance is |t-tau|^(1/2): shrinking
    # the time gap at fixed y-gap drives the estimate arbitrarily high, so
    # a function of y alone is never intrinsically Holder unless constant
    def pair(dt):
        x = 1.0 / dt  # keeps the shear term exactly cancelled
        return [(EventPoint(x, 0.0, dt), 0.0), (EventPoint(x, 1.0, 0.0), 1.0)]

    base = holder_seminorm(K, pair(1.0), alpha=1.0).seminorm
    assert base == pytest.approx(1.0)
    refined = holder_seminorm(K, pair(1e-6), alpha=1.0).seminorm
    assert refined > 1e2 * base


def test_holder_distance_power_is_sharp():
    # f = dist(., z0)^alpha has seminorm >= 1 witnessed by pairs through z0
    z0 = kpoint(0.0, 0.0, 0.0)
    alpha = 0.5
    rng = np.random.default_rng(3)
    pts = [(z0, 0.0)]
    for _ in range(40):
        p = kpoint(*rng.uniform(-1, 1, size=3))
        pts.append((p, dist(K, p, z0) ** alpha))
    est = holder_seminorm(K, pts, alpha=alpha)
    assert est.seminorm >= 1.0 - 1e-12
    # brute-force oracle over all pairs agrees with the estimator
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = dist(K, pts[i][0], pts[j][0])
            if d > 0:
                best = max(best, abs(pts[i][1] - pts[j][1]) / d**alpha)
    assert est.seminorm == pytest.approx(best)


def test_holder_lipschitz_is_finite_at_third():
    # Euclidean-Lipschitz functions live in the intrinsic class with
    # exponent 1/3 on bounded sets
    rng = np.random.default_rng(4)
    f = lambda p: 2.0 * p.x - 0.5 * p.y + 0.25 * p.t
    pts = [(kpoint(*rng.uniform(-2, 2, size=3)),) for _ in range(60)]
    samples = [(p[0], f(p[0])) for p in pts]
    est = holder_seminorm(K, samples, alpha=1.0 / 3.0)
    assert np.isfinite(est.seminorm)
    assert est.seminorm < 50.0


def test_holder_errors():
    with pytest.raises(ValueError):
        holder_seminorm(K, [(kpoint(0, 0, 0), 1.0)], alpha=0.5)
    with pytest.raises(ValueError):
        holder_seminorm(K, [(kpoint(0, 0, 0), 1.0), (kpoint(0, 0, 0), 2.0)],
                        alpha=0.5)
    with pytest.raises(ValueError):
        HolderEstimate(alpha=1.5, seminorm=0.0, sample_count=2)


# -- bracket rank ------------------------------------------------------------

def test_lie_rank_k_everywhere():
    assert lie_rank(K, kpoint(0, 0, 0)) == 3
    assert lie_rank(K, kpoint(-3, 7, 2)) == 3


def test_lie_rank_l():
    assert lie_rank(L, kpoint(1, 0, 0)) == 3


def test_lie_rank_l_near_degenerate_edge():
    # the determinant x^2 is nonzero for every x > 0, even where it
    # underflows in floating point (x = 1e-170, the subnormal 5e-324)
    for x in (1e-12, 1e-170, 5e-324):
        assert lie_rank(L, kpoint(x, 0.0, 0.0)) == 3
    with pytest.raises(ValueError):
        lie_rank(L, kpoint(0.0, 0.0, 0.0))
