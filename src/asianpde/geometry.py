"""Group structure and intrinsic metric for the two degenerate operator families.

Two non-commutative group laws live here: an additive-with-shear law on R^3
(the log-price geometry, kind K) and a multiplicative-in-x law on
R^+ x R^2 (the price geometry, kind L).  Both come with the anisotropic
quasi-distance that matches the kernel scaling exponents (1, 1/3, 1/2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "EventPoint",
    "GeometryKind",
    "compose",
    "inverse",
    "dist",
]


@dataclass(frozen=True)
class EventPoint:
    """A space-time point (x, y, t); doubles as evaluation point and pole.

    x is a log-price for the K geometry and a strictly positive price for
    the L geometry; y is the running-average coordinate.
    """

    x: float
    y: float
    t: float


class GeometryKind(Enum):
    K = "K"
    L = "L"


def _require_positive_x(kind: GeometryKind, *points: EventPoint) -> None:
    if kind is GeometryKind.L:
        for p in points:
            if p.x <= 0.0:
                raise ValueError(f"L geometry requires x > 0, got x={p.x}")


def compose(kind: GeometryKind, p: EventPoint, q: EventPoint) -> EventPoint:
    """Group product p*q of the selected geometry.

    K: (p.x + q.x, p.y + q.y - q.t * p.x, p.t + q.t)
    L: (p.x * q.x, p.y + p.x * q.y,       p.t + q.t)
    """
    _require_positive_x(kind, p, q)
    if kind is GeometryKind.K:
        return EventPoint(p.x + q.x, p.y + q.y - q.t * p.x, p.t + q.t)
    return EventPoint(p.x * q.x, p.y + p.x * q.y, p.t + q.t)


def inverse(kind: GeometryKind, p: EventPoint) -> EventPoint:
    """Group inverse: K -> (-x, -y - t*x, -t); L -> (1/x, -y/x, -t)."""
    _require_positive_x(kind, p)
    if kind is GeometryKind.K:
        return EventPoint(-p.x, -p.y - p.t * p.x, -p.t)
    return EventPoint(1.0 / p.x, -p.y / p.x, -p.t)


def dist(kind: GeometryKind, z: EventPoint, w: EventPoint) -> float:
    """Left-invariant quasi-distance with exponents (1, 1/3, 1/2).

    The shear-corrected middle term |y - eta + (t - tau)(x + xi)/2| couples
    the average coordinate to the transport direction; for the L geometry
    the first two terms are measured relative to sqrt(x * xi).
    """
    _require_positive_x(kind, z, w)
    dx = z.x - w.x
    dt = z.t - w.t
    shear = z.y - w.y + dt * (z.x + w.x) / 2.0
    if kind is GeometryKind.L:
        scale = math.sqrt(z.x * w.x)
        dx /= scale
        shear /= scale
    return abs(dx) + abs(shear) ** (1.0 / 3.0) + abs(dt) ** 0.5
