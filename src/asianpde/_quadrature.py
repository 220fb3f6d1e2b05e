"""Shared quadrature primitives: cached Gauss-Legendre rules and panel helpers."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# nodes in one row block of a tensor rule: the working memory of a block
# stays under 1 MB
BLOCK_NODES = 16_384


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


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


def uniform_edges(a: float, b: float, max_width: float) -> np.ndarray:
    n = max(1, int(np.ceil((b - a) / max_width)))
    return np.linspace(a, b, n + 1)
