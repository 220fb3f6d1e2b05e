"""Shared quadrature primitives: cached Gauss-Legendre rules, panel
helpers, a cached Gauss-Hermite rule for the weight e^{-x^2} on the whole
line, and the dual-rule driver that gives every kernel integral its error
estimate."""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

# nodes in one row block of a tensor rule: the working memory of a block
# stays under 1 MB
BLOCK_NODES = 16_384


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=8)
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule for integral f(x) e^{-x^2} dx over the real line."""
    return np.polynomial.hermite.hermgauss(n)


def panel_nodes(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights tiled over the consecutive panels of a
    1-D array of edges."""
    x, w = gauss_legendre(order)
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return ((mid[:, None] + half[:, None] * x).ravel(),
            (half[:, None] * w).ravel())


def edges_with_kinks(lo: float, hi: float, width: float,
                     kinks: Sequence[float]) -> np.ndarray:
    """Panel edges of at most `width` on [lo, hi], plus each kink inside
    (lo, hi) as one more edge."""
    k = np.asarray(kinks, float)
    return np.unique(np.concatenate(
        (np.arange(lo, hi, width), [hi], k[(lo < k) & (k < hi)])))


def dual_rule(rule: Callable[[int, float], tuple[float, float]],
              fine_width: float, budget: float) -> tuple[float, float]:
    """Value and error estimate of rule(order, width) -> (value, term),
    where the term is the integrand's own error, 0.0 if it has none.

    The coarse rule is order 8, width 0.5 and the fine rule order 12,
    `fine_width`.  The value is the fine one and the estimate is
    |fine - coarse| plus the larger term.  A coarse term above `budget`
    returns the coarse pair at once: the fine rule never runs."""
    coarse, coarse_term = rule(8, 0.5)
    if coarse_term > budget:
        return coarse, coarse_term
    fine, fine_term = rule(12, fine_width)
    return fine, abs(fine - coarse) + max(coarse_term, fine_term)
