"""Panel Gauss-Legendre rules, the Gauss-Hermite rule and the dual-rule
driver."""
import math

import numpy as np
import pytest

from asianpde._quadrature import (dual_rule, edges_with_kinks, gauss_hermite,
                                  gauss_legendre, panel_nodes)


def reference_panel_nodes(edges, order):
    """The 1-D construction: nodes and weights tiled panel by panel."""
    x, w = gauss_legendre(order)
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return ((mid[:, None] + half[:, None] * x[None, :]).ravel(),
            (half[:, None] * w[None, :]).ravel())


@pytest.mark.parametrize("edges", [
    edges_with_kinks(-7.0, 5.0, 0.25, ()),
    np.array([-3.0, -1.2, -1.2, 0.4, 2.5]),     # a zero-width panel
    [0.0, 1.0],
])
@pytest.mark.parametrize("order", [8, 12])
def test_panel_nodes_one_dimensional_unchanged(edges, order):
    nodes, weights = panel_nodes(edges, order)
    ref_nodes, ref_weights = reference_panel_nodes(edges, order)
    assert nodes.shape == weights.shape == ((len(edges) - 1) * order,)
    assert np.array_equal(nodes, ref_nodes)
    assert np.array_equal(weights, ref_weights)


def recording_rule(results):
    """A rule that returns the given (value, term) pairs in turn and records
    each (order, width) it is called with."""
    calls = []

    def rule(order, width):
        calls.append((order, width))
        return results[len(calls) - 1]

    return rule, calls


@pytest.mark.parametrize("coarse,fine", [
    ((1.0, 2e-7), (1.25, 5e-8)),
    ((1.0, 5e-8), (0.75, 2e-7)),
    ((0.5, 0.0), (0.5, 0.0)),
])
def test_dual_rule_runs_both_rules(coarse, fine):
    rule, calls = recording_rule([coarse, fine])
    value, est = dual_rule(rule, 0.3, 1e-6)
    assert calls == [(8, 0.5), (12, 0.3)]
    assert value == fine[0]
    assert est == abs(fine[0] - coarse[0]) + max(coarse[1], fine[1])


def test_dual_rule_stops_after_a_coarse_term_past_budget():
    rule, calls = recording_rule([(0.44, 4.2e-4), (0.45, 0.0)])
    assert dual_rule(rule, 0.34, 9e-6) == (0.44, 4.2e-4)
    assert calls == [(8, 0.5)]


@pytest.mark.parametrize("n", [24, 36])
def test_gauss_hermite_is_exact_to_degree_2n_minus_1(n):
    # integral of x^(2k) e^(-x^2) over the line is Gamma(k + 1/2); odd
    # moments vanish
    x, w = gauss_hermite(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    for k in range(n):
        assert w @ x**(2 * k) == pytest.approx(math.gamma(k + 0.5),
                                               rel=1e-12)
        assert abs(w @ x**(2 * k + 1)) <= 1e-12 * math.gamma(k + 1.0)
