"""Geometry of the ax+b group: product, inverse, hyperbolic metric, Haar measure.

The group is the upper half-space {(a, b) : a > 0, b real} with product
(a, b) * (a', b') = (a a', a b' + b), identity (1, 0), and left-Haar measure
da db / a^2 (one spatial dimension).  The left-invariant metric is the
hyperbolic metric of the upper half-plane with length element
ds^2 = (da^2 + db^2) / a^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupPoint",
    "IDENTITY",
    "mul",
    "inv",
    "dist",
    "node_distances",
    "haar_ball_volume",
]


@dataclass(frozen=True)
class GroupPoint:
    """A point (a, b) of the ax+b group: scale a > 0, translation b."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"invalid group point (a={self.a}, b={self.b}); need a > 0 and finite coordinates")


IDENTITY = GroupPoint(1.0, 0.0)


def mul(g: GroupPoint, h: GroupPoint) -> GroupPoint:
    """Group product (a, b) * (a', b') = (a a', a b' + b)."""
    return GroupPoint(g.a * h.a, g.a * h.b + g.b)


def inv(g: GroupPoint) -> GroupPoint:
    """Group inverse (a, b)^{-1} = (1/a, -b/a)."""
    return GroupPoint(1.0 / g.a, -g.b / g.a)


def dist(g: GroupPoint, h: GroupPoint) -> float:
    """Hyperbolic distance between two group points."""
    return float(node_distances(h.a, h.b, g))


def node_distances(a, b, anchor: GroupPoint):
    """Vectorized hyperbolic distance from (a, b) arrays to an anchor point.

    Closed form cosh d = 1 + (|b - b'|^2 + (a - a')^2) / (2 a a').
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = ((b - anchor.b) ** 2 + (a - anchor.a) ** 2) / (2.0 * a * anchor.a)
    # d = arccosh(1 + q); log1p form stays accurate for q near 0.
    return np.log1p(q + np.sqrt(q * (q + 2.0)))


def haar_ball_volume(R: float) -> tuple[float, float]:
    """Haar measure of the hyperbolic disk D((1,0), R), with an error estimate.

    Integrates dlam = da db / a^2 over the disk.  In u = log(a) the disk is
    u in [-R, R]; for each u the b-section is an interval whose length is
    known in closed form, so only a 1D quadrature in u is needed:

        lam = int_{-R}^{R} 2 sqrt(2 a (cosh R - 1) - (a - 1)^2) e^{-u} du,  a = e^u.

    The rule has 4096 midpoint nodes.  Returns (value, err) where err
    compares against the half-resolution rule.
    """
    if R <= 0:
        raise ValueError("R must be positive")

    def rule(m):
        u = -R + (2.0 * R / m) * (np.arange(m) + 0.5)
        a = np.exp(u)
        s2 = 2.0 * a * (math.cosh(R) - 1.0) - (a - 1.0) ** 2
        width = 2.0 * np.sqrt(np.clip(s2, 0.0, None))
        return float(np.sum(width * np.exp(-u)) * (2.0 * R / m))

    value = rule(4096)
    err = abs(value - rule(2048))
    return value, err
