"""Panel Gauss-Legendre rules."""
import numpy as np
import pytest

from asianpde._quadrature import gauss_legendre, panel_nodes, uniform_edges


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
    uniform_edges(-7.0, 5.0, 0.25),
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
