"""Group laws and quasi-distance."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asianpde.geometry import EventPoint, GeometryKind, compose, dist, inverse

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
    p, e = kpoint(0.7, -1.3, 2.2), kpoint(0, 0, 0)
    assert compose(K, e, p) == p
    assert compose(K, p, e) == p


def test_l_identity_element():
    p, e = kpoint(2.0, -1.0, 3.0), kpoint(1, 0, 0)
    assert compose(L, e, p) == p
    assert compose(L, p, e) == p


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
        lhs = dist(K, EventPoint(r * z.x, r**3 * z.y, r**2 * z.t),
                   EventPoint(r * w.x, r**3 * w.y, r**2 * w.t))
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
