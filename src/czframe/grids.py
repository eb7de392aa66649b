"""Finite discretizations: uniform spatial grid and hyperbolic frame lattice.

The frame lattice discretizes the upper half-plane with log-uniform scales and
translation spacing proportional to scale, which makes the node density nearly
uniform in the Haar measure dlam = da db / a^2.  Every cell has the same Haar
quadrature weight, dlam = (dlog a) * (db / a) = s * s (the log-scale step
equals the translation ratio s), so the lattice carries it as one number.
Every bump evaluates one step, e(t) = exp(-1/t) for t > 0 and 0 otherwise
(:func:`_exp_neg_inv`): :func:`smooth_bump`, and theta' and phi in wavelets.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .geometry import IDENTITY, node_distances

__all__ = [
    "SpatialGrid",
    "SampledFunction",
    "FrameGrid",
    "make_frame_grid",
    "validate_frame_grid",
    "row_nonzero_estimates",
    "inner_product",
    "l2_norm",
    "smooth_bump",
    "tail_nodes",
]


class GridMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid on [-L, L) with N nodes and spacing h = 2L/N."""

    L: float
    N: int

    def __post_init__(self):
        if self.N < 16:
            raise ValueError("spatial grid needs at least 16 nodes")
        if self.L <= 0:
            raise ValueError("half-width must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def x(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.N)


@dataclass
class SampledFunction:
    """Real function values on a spatial grid; complex values raise ``TypeError``."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise TypeError("sampled functions are real-valued")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.N,):
            raise GridMismatchError(
                f"values length {self.values.shape} does not match grid size {self.grid.N}"
            )

    @classmethod
    def from_callable(cls, grid: SpatialGrid, fn) -> "SampledFunction":
        return cls(grid, np.asarray(fn(grid.x)))


def inner_product(f: SampledFunction, g: SampledFunction) -> float:
    """L^2 inner product, sum f * g * h.  Grids must match."""
    if f.grid != g.grid:
        raise GridMismatchError("inner product requires a common grid")
    return float(np.sum(f.values * g.values) * f.grid.h)


def l2_norm(f: SampledFunction) -> float:
    return float(np.sqrt(np.sum(f.values * f.values) * f.grid.h))


def _exp_neg_inv(t, out=None) -> np.ndarray:
    """exp(-1/t) for t > 0, else 0 (NaN too), elementwise with no mask; ``out`` may be ``t``.

    fmax(t, tiny) sends t <= 0 and NaN to the smallest normal float, where
    exp(-1/t) is already +0.0, so nothing divides by zero and no -0.0 (which
    fmax may keep against +0.0) becomes exp(+inf).  A scalar gives a 0-d array.
    """
    if out is None:
        out = np.empty_like(t, dtype=float)
    np.fmax(t, sys.float_info.min, out=out)
    np.divide(-1.0, out, out=out)
    return np.exp(out, out=out)


def smooth_bump(x, center: float = 0.0, width: float = 1.0) -> np.ndarray:
    """The standard bump exp(-1/(1 - u^2)) at u = (x - center)/width, zero unless |u| < 1."""
    u = (np.asarray(x, dtype=float) - center) / width
    with np.errstate(over="ignore"):  # |u| > 1e154 squares to inf, where e is 0
        return _exp_neg_inv(1.0 - u * u)


@dataclass
class FrameGrid:
    """Hyperbolic lattice with one Haar weight ``dlam`` shared by every node.

    Nodes are grouped by scale: scale j has value ``scales[j]`` and occupies
    ``slice(offsets[j], offsets[j+1])`` in the flat ``a``/``b`` arrays.
    Scales are log-uniform with step s; translations are spaced s * a_j and
    extend to |b| <= L_b + cone_factor * a_j, where :func:`make_frame_grid`
    takes ``cone_factor``; a positive one keeps the lattice covering frame
    coefficients of box-supported functions at scales much larger than the
    box.  ``_rows`` caches the sparse frame-row matrices built by
    ``wavelets.frame_rows``, one per generator and spatial grid, so they live
    as long as the lattice does.
    """

    a: np.ndarray
    b: np.ndarray
    dlam: float
    scales: np.ndarray
    offsets: np.ndarray
    s: float
    L_b: float
    _dist0: np.ndarray = field(default=None, repr=False)
    _rows: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.a.size

    def scale_slice(self, j: int) -> slice:
        return slice(int(self.offsets[j]), int(self.offsets[j + 1]))

    @property
    def dist0(self) -> np.ndarray:
        """Hyperbolic distance of every node to the identity (cached)."""
        if self._dist0 is None:
            self._dist0 = node_distances(self.a, self.b, IDENTITY)
        return self._dist0


def validate_frame_grid(
    spatial: SpatialGrid,
    a_min: float,
    a_max: float,
    s: float = 0.25,
    L_b: float | None = None,
    cone_factor: float = 1.0,
) -> None:
    """Raise ValueError unless :func:`make_frame_grid` accepts these arguments.

    Checks only the arguments, so a config can be validated without
    building its lattice.
    """
    if not (0 < s <= 1):
        raise ValueError("spacing ratio s must lie in (0, 1]")
    if a_min < 2.0 * spatial.h:
        raise ValueError(
            f"a_min={a_min} is below the resolution limit 2h={2 * spatial.h}; "
            "increase a_min or refine the spatial grid"
        )
    if a_max <= a_min:
        raise ValueError("a_max must exceed a_min")
    if L_b is not None and L_b <= 0:
        raise ValueError("translation half-width L_b must be positive")
    if cone_factor < 0:
        raise ValueError("cone_factor must be nonnegative")
    # make_frame_grid's scale count and widest translation count (at an end
    # scale: the count falls with the scale, and only the ends can overflow)
    n_scales = math.log(a_max / a_min) / s
    if not math.isfinite(n_scales):
        raise ValueError(f"scale count log(a_max / a_min) / s = {n_scales} is not finite")
    with np.errstate(over="ignore"):
        ends = _scales(a_min, s, np.array([0.0, max(1, round(n_scales)) - 1.0]))
    L_b = spatial.L if L_b is None else L_b
    if not all(math.isfinite(_half_count(float(aj), s, L_b, cone_factor)) for aj in ends):
        raise ValueError("the per-scale translation count is not finite")


def _scale_count(a_min: float, a_max: float, s: float) -> int:
    """Number of log-uniform scale cells of step s on [a_min, a_max], at least one."""
    return max(1, round(math.log(a_max / a_min) / s))


def _scales(a_min: float, du: float, j) -> np.ndarray:
    """Scale of log-uniform cell j: the midpoint exp(log a_min + du (j + 1/2))."""
    return np.exp(math.log(a_min) + du * (j + 0.5))


def _half_count(aj, s: float, L_b: float, cone_factor: float):
    """Translation steps s * aj that fit in L_b + cone_factor * aj, before flooring."""
    return (L_b + cone_factor * aj) / (s * aj)


def make_frame_grid(
    spatial: SpatialGrid,
    a_min: float,
    a_max: float,
    s: float = 0.25,
    L_b: float | None = None,
    cone_factor: float = 1.0,
) -> FrameGrid:
    """Build the frame lattice for a spatial grid.

    Scale nodes are midpoints of log-uniform cells on [a_min, a_max] with step
    s; translation nodes at scale a are spaced s * a, symmetric about 0.
    Haar weight of every node: dlam = s * s (n = 1).

    Raises ValueError as :func:`validate_frame_grid` does, e.g. when
    a_min < 2h (scales below spatial resolution).
    """
    validate_frame_grid(spatial, a_min, a_max, s, L_b, cone_factor)
    if L_b is None:
        L_b = spatial.L

    scales = _scales(a_min, s, np.arange(_scale_count(a_min, a_max, s)))
    k = np.floor(_half_count(scales, s, L_b, cone_factor)).astype(np.int64)
    counts = 2 * k + 1
    offsets = np.concatenate(([0], np.cumsum(counts)))
    # each node's integer translation index m = -k ... k within its scale;
    # in place, so that at most three lattice-sized arrays are live at once
    m = np.arange(offsets[-1])
    m -= np.repeat(offsets[:-1] + k, counts)
    b = np.repeat(s * scales, counts)
    b *= m
    return FrameGrid(
        a=np.repeat(scales, counts),
        b=b,
        dlam=float(s * s),
        scales=scales,
        offsets=offsets,
        s=s,
        L_b=float(L_b),
    )


# Scales summed at a time by row_nonzero_estimates.
_SCALE_BLOCK = 1 << 18


def row_nonzero_estimates(
    spatial: SpatialGrid,
    a_min: float,
    a_max: float,
    s: float = 0.25,
    L_b: float | None = None,
    cone_factor: float = 1.0,
):
    """Estimated frame-row nonzeros of :func:`make_frame_grid`'s lattice, from the arguments alone.

    A scale contributes its node count, 2 floor(half count) + 1, times the
    window of a function supported in [-1, 1] at that scale,
    min(2 a / h + 1, N) grid points.  Yields one sum per block of
    consecutive scales, so a caller can stop at a budget without visiting
    every scale.  Call it only with arguments :func:`validate_frame_grid`
    accepts.
    """
    L_b = spatial.L if L_b is None else L_b
    n_scales = _scale_count(a_min, a_max, s)
    for j0 in range(0, n_scales, _SCALE_BLOCK):
        aj = _scales(a_min, s, np.arange(j0, min(j0 + _SCALE_BLOCK, n_scales)))
        with np.errstate(over="ignore"):  # a sum past the float range is inf, and too large
            nodes = 2.0 * np.floor(_half_count(aj, s, L_b, cone_factor)) + 1.0
            yield float(np.sum(nodes * np.minimum(2.0 * aj / spatial.h + 1.0, float(spatial.N))))


def tail_nodes(fgrid: FrameGrid, R: float) -> np.ndarray:
    """Boolean mask of nodes at hyperbolic distance >= R from the identity (none at R = inf)."""
    if not R >= 0:  # also refuses NaN, whose every comparison is False
        raise ValueError("R must be nonnegative")
    return fgrid.dist0 >= R
