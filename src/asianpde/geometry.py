"""Group structure and intrinsic metric for the two degenerate operator families.

Two non-commutative group laws live here: an additive-with-shear law on R^3
(the log-price geometry, kind K) and a multiplicative-in-x law on
R^+ x R^2 (the price geometry, kind L).  Both come with the anisotropic
quasi-distance that matches the kernel scaling exponents (1, 1/3, 1/2),
a sampling-based Holder seminorm estimator, and the bracket rank of their
vector-field frames.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

__all__ = [
    "EventPoint",
    "GeometryKind",
    "HolderEstimate",
    "compose",
    "inverse",
    "identity",
    "dilate_k",
    "dist",
    "holder_seminorm",
    "lie_rank",
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


@dataclass(frozen=True)
class HolderEstimate:
    """Monte-Carlo lower estimate of an intrinsic Holder seminorm."""

    alpha: float
    seminorm: float
    sample_count: int

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.seminorm < 0.0:
            raise ValueError("seminorm must be nonnegative")


def _require_positive_x(kind: GeometryKind, *points: EventPoint) -> None:
    if kind is GeometryKind.L:
        for p in points:
            if p.x <= 0.0:
                raise ValueError(f"L geometry requires x > 0, got x={p.x}")


def identity(kind: GeometryKind) -> EventPoint:
    """Neutral element: (0,0,0) for K, (1,0,0) for L."""
    if kind is GeometryKind.K:
        return EventPoint(0.0, 0.0, 0.0)
    return EventPoint(1.0, 0.0, 0.0)


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


def dilate_k(r: float, p: EventPoint) -> EventPoint:
    """Anisotropic dilation (r*x, r^3*y, r^2*t) of the K geometry; r > 0."""
    if r <= 0.0:
        raise ValueError(f"dilation parameter must be positive, got {r}")
    return EventPoint(r * p.x, r**3 * p.y, r**2 * p.t)


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


def holder_seminorm(
    kind: GeometryKind,
    samples: Sequence[tuple[EventPoint, float]],
    alpha: float,
) -> HolderEstimate:
    """Max of |f(z)-f(w)| / d(z,w)^alpha over all sample pairs.

    A lower estimate of the true seminorm (sup over the continuum is not
    computable); use only for one-sided assertions.  Raises if two samples
    share a point but disagree in value.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    best = 0.0
    for (z, fz), (w, fw) in itertools.combinations(samples, 2):
        d = dist(kind, z, w)
        df = abs(fz - fw)
        if d == 0.0:
            if df > 0.0:
                raise ValueError(
                    "two samples share the same point with different values"
                )
            continue
        best = max(best, df / d**alpha)
    return HolderEstimate(alpha=alpha, seminorm=best, sample_count=len(samples))


def lie_rank(kind: GeometryKind, p: EventPoint) -> int:
    """Rank of the frame {X, Y, [X, Y]} evaluated at p.

    With X the diffusion field, Y the drift field and [X, Y] their
    commutator, the frame's determinant is 1 for K and x^2 for L.  Both are
    nonzero wherever the geometry is defined, so the rank is 3 there,
    arbitrarily close to the degenerate edge x -> 0+, where x^2 itself
    underflows and a numerical rank would lose conditioning.
    """
    _require_positive_x(kind, p)
    return 3
