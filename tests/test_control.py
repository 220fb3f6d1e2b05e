"""Auxiliary function g, its inverse, the two-branch value and the oracle."""
import math

import numpy as np
import pytest

from asianpde.control import (PI_SQ, ControlEndpoints, InfeasibleError,
                              PsiBranch, g, g_inverse, psi,
                              psi_bruteforce, psi_canonical, psi_direct)
from asianpde.geometry import EventPoint, GeometryKind, compose


# -- g -----------------------------------------------------------------------

def test_g_at_zero():
    assert g(0.0) == pytest.approx(1.0, abs=1e-15)


def test_g_positive_branch():
    assert g(1.0) == pytest.approx(math.sinh(1.0), rel=1e-14)


def test_g_negative_branch():
    assert g(-PI_SQ / 4.0) == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_g_domain_error():
    with pytest.raises(ValueError):
        g(-PI_SQ)
    with pytest.raises(ValueError):
        g(-PI_SQ - 1.0)


def test_g_strictly_increasing_on_grid():
    rs = np.linspace(-PI_SQ + 1e-6, 50.0, 10_000)
    vals = np.array([g(r) for r in rs])
    assert np.all(np.diff(vals) > 0.0)
    assert vals[0] < 1e-4 and vals[-1] > 80.0  # range spans (0, inf)


def test_g_continuity_at_zero():
    assert abs(g(1e-9) - g(-1e-9)) < 1e-9


# -- g_inverse ---------------------------------------------------------------

def test_g_inverse_of_one():
    assert g_inverse(1.0) == 0.0


@pytest.mark.parametrize("r", [-2.0, -0.5, 0.3, 4.0])
def test_g_inverse_round_trip(r):
    assert g_inverse(g(r)) == pytest.approx(r, abs=1e-10)


def test_g_inverse_of_two_over_pi():
    assert g_inverse(2.0 / math.pi) == pytest.approx(-PI_SQ / 4.0, abs=1e-10)


def test_g_inverse_domain_error():
    with pytest.raises(ValueError):
        g_inverse(0.0)
    with pytest.raises(ValueError):
        g_inverse(-1.0)


def test_g_inverse_tiny_argument_no_overflow():
    r = g_inverse(1e-12)
    assert -PI_SQ < r < -PI_SQ + 1e-9
    assert g(r) == pytest.approx(1e-12, rel=1e-3)


def test_g_inverse_meets_residual_contract():
    for s in [1e-6, 0.3, 1.0 + 1e-9, 40.0, 1e4]:
        r = g_inverse(s, tol=1e-12)
        assert abs(g(r) - s) <= 1e-12 * max(1.0, s)


# -- psi_canonical -----------------------------------------------------------

def test_psi_zero_control_case():
    v = psi_canonical(1.0, -2.0, 2.0)
    assert v.cost == pytest.approx(0.0, abs=1e-6)
    assert v.branch is PsiBranch.UPPER
    assert v.E == pytest.approx(0.0, abs=1e-12)


def test_psi_zero_iff_straight_path():
    # zero cost exactly when x1 = x0 and the y gap equals x0 * horizon
    assert psi_canonical(1.0, -0.5, 0.5).cost == pytest.approx(0.0, abs=1e-9)
    assert psi_canonical(1.0, -0.4, 0.5).cost > 1e-3
    assert psi_canonical(1.3, -0.5, 0.5).cost > 1e-3


def test_psi_domain_and_feasibility():
    with pytest.raises(ValueError):
        psi_canonical(-1.0, -1.0, 1.0)
    with pytest.raises(InfeasibleError):
        psi_canonical(1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        psi_canonical(1.0, -1.0, -1.0)


def test_psi_branch_classification():
    # tight y gap at fixed horizon forces the lower branch
    low = psi_canonical(2.0, -0.5, 1.0)
    assert low.branch is PsiBranch.LOWER
    assert -4 * PI_SQ < low.E < -PI_SQ
    up = psi_canonical(1.0, -2.0, 1.0)
    assert up.branch is PsiBranch.UPPER
    assert up.E >= -PI_SQ


def test_psi_nonnegative_on_random_admissible():
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = float(rng.uniform(0.1, 5.0))
        y = -float(rng.uniform(0.05, 5.0))
        t = float(rng.uniform(0.1, 3.0))
        assert psi_canonical(x, y, t).cost >= 0.0


def test_branch_continuity_at_boundary():
    # at E = -pi^2/T^2 the square-root term vanishes and the two formulas
    # agree; approach the boundary from both sides
    x, t = 1.3, 1.1
    dy_star = t * math.sqrt(x) * (2.0 / math.pi)   # g(-pi^2/4) = 2/pi
    eps = 1e-10
    lo = psi_canonical(x, -(dy_star - eps), t)
    hi = psi_canonical(x, -(dy_star + eps), t)
    assert lo.branch is PsiBranch.LOWER and hi.branch is PsiBranch.UPPER
    assert lo.cost == pytest.approx(hi.cost, abs=1e-8)


# -- psi on endpoints --------------------------------------------------------

def test_endpoint_validation():
    with pytest.raises(InfeasibleError):
        ControlEndpoints(start=EventPoint(1, 1, 1), end=EventPoint(1, 0, 0))
    with pytest.raises(ValueError):
        ControlEndpoints(start=EventPoint(1, -1, 0), end=EventPoint(1, 0, 1))
    with pytest.raises(ValueError):
        ControlEndpoints(start=EventPoint(-1, -1, 1), end=EventPoint(1, 0, 0))


def test_psi_canonical_case_through_endpoints():
    ep = ControlEndpoints(start=EventPoint(1, -2, 2), end=EventPoint(1, 0, 0))
    assert psi(ep).cost == pytest.approx(0.0, abs=1e-9)


def test_psi_reduction_example():
    # start (2,0,1), end (1,1,0) reduces to the canonical point (2,-1,1)...
    # check the two evaluation paths agree to 1e-10 relative
    ep = ControlEndpoints(start=EventPoint(2, 0, 1), end=EventPoint(1, 1, 0))
    via_group = psi(ep)
    direct = psi_direct(ep)
    assert via_group.cost == pytest.approx(direct.cost, rel=1e-10)
    assert via_group.branch == direct.branch
    # and the reduced point is end^{-1} o start
    from asianpde.geometry import inverse
    q = compose(GeometryKind.L, inverse(GeometryKind.L, ep.end), ep.start)
    assert (q.x, q.y, q.t) == (2.0, -1.0, 1.0)
    assert psi_canonical(q.x, q.y, q.t).cost == pytest.approx(
        via_group.cost, rel=1e-12)


def test_psi_group_invariance_sample():
    rng = np.random.default_rng(6)
    for _ in range(300):
        x0, x1 = rng.uniform(0.3, 3.0, size=2)
        t0 = float(rng.uniform(0.0, 1.0))
        t1 = t0 + float(rng.uniform(0.2, 2.0))
        y0 = float(rng.uniform(-1.0, 1.0))
        y1 = y0 - float(rng.uniform(0.05, 3.0))
        ep = ControlEndpoints(start=EventPoint(x1, y1, t1),
                              end=EventPoint(x0, y0, t0))
        gel = EventPoint(float(rng.uniform(0.2, 4.0)),
                         float(rng.uniform(-2.0, 2.0)),
                         float(rng.uniform(-1.0, 1.0)))
        moved = ControlEndpoints(
            start=compose(GeometryKind.L, gel, ep.start),
            end=compose(GeometryKind.L, gel, ep.end))
        a = psi_direct(ep).cost
        b = psi_direct(moved).cost
        assert b == pytest.approx(a, rel=1e-10, abs=1e-12)


# -- brute-force oracle ------------------------------------------------------

def test_bruteforce_zero_case():
    ep = ControlEndpoints(start=EventPoint(1, -2, 2), end=EventPoint(1, 0, 0))
    assert psi_bruteforce(ep, n_steps=16, iterations=100) <= 1e-6


@pytest.mark.parametrize("x,y,t", [(1.0, -1.0, 2.0), (4.0, -2.0, 1.0)])
def test_bruteforce_sandwich(x, y, t):
    closed = psi_canonical(x, y, t).cost
    ep = ControlEndpoints(start=EventPoint(x, y, t), end=EventPoint(1, 0, 0))
    brute = psi_bruteforce(ep, n_steps=32, iterations=300)
    assert closed - 1e-8 <= brute <= closed * 1.02


def test_bruteforce_refinement_monotone():
    ep = ControlEndpoints(start=EventPoint(1, -1, 2), end=EventPoint(1, 0, 0))
    v32 = psi_bruteforce(ep, n_steps=32, iterations=300)
    v64 = psi_bruteforce(ep, n_steps=64, iterations=300)
    assert v64 <= v32 + 1e-8  # nested feasible sets


def test_bruteforce_rejects_tiny_n():
    ep = ControlEndpoints(start=EventPoint(1, -1, 2), end=EventPoint(1, 0, 0))
    with pytest.raises(ValueError):
        psi_bruteforce(ep, n_steps=4)
