"""Carleson-measure diagnostics for wavelet coefficient measures.

The coefficient measure of f places mass |<f, psi_(a,b)>|^2 * dlambda at
each lattice node.  The Carleson function takes suprema of tent masses
over base-ball volume; its vanishing profile along hyperbolic distance
separates CMO-type symbols (vanishing) from BMO-not-CMO symbols such as
log|x - x0| (non-vanishing along the dilation axis).  All tent and cone
suprema run over the frame lattice only, so reported values are lower
bounds of the continuum suprema and are exactly monotone under nesting.

Tents are closed on the lattice: the tent over B(b, a) collects nodes
(a', b') with a' <= a and |b' - b| <= a - a', both sides rounded once, so a
node's own minimal tent contains it and a node exactly on another tent's
edge, such as (a', -a') under the tent over (a, -a), counts.  The cone over
x is open: the nodes with |b - x| < a.  These are the package's only tent
and cone conventions.  Tent masses come from one pass per source scale over
its cumulative sums (:func:`tent_masses`); cone maxima, for
:func:`carleson_function` and the Stein audit, from per-scale index ranges
(:func:`_cone_maxima`): a scale's translations are sorted, so the cone nodes
over x are a run of at most 2/s + 1 of them, found by binary search.

Wavelet and bump pairings over the lattice both go through
:func:`~czframe.wavelets.analyze`, a product with the cached
:func:`~czframe.wavelets.frame_rows` matrix of the fixed generator psi or
:func:`~czframe.wavelets.bump_phi`; phi's matrix is the one the paraproducts
use on the same lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .grids import FrameGrid, SampledFunction, SpatialGrid, smooth_bump, tail_nodes
from .wavelets import analyze, bump_phi, make_mother_wavelet

__all__ = [
    "CoefficientMeasure",
    "coefficient_measure",
    "point_mass",
    "tent_masses",
    "carleson_function",
    "vanishing_profile",
    "stein_inequality_check",
    "BMOExample",
    "bmo_examples",
]


@dataclass
class CoefficientMeasure:
    """Nonnegative masses attached to the frame lattice nodes."""

    fgrid: FrameGrid
    masses: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.shape != (self.fgrid.n_nodes,):
            raise ValueError("one mass per lattice node required")
        if np.any(self.masses < 0.0):
            raise ValueError("masses must be nonnegative")


def coefficient_measure(f: SampledFunction, fgrid: FrameGrid) -> CoefficientMeasure:
    """mu_f: mass |<f, psi_(a,b)>|^2 * dlambda at each node."""
    fld = analyze(f, make_mother_wavelet(), fgrid)
    return CoefficientMeasure(fgrid, fld.values * fld.values * fgrid.dlam)


def point_mass(fgrid: FrameGrid, node_index: int) -> CoefficientMeasure:
    """Synthetic measure with a single unit atom at one lattice node."""
    m = np.zeros(fgrid.n_nodes)
    m[node_index] = 1.0
    return CoefficientMeasure(fgrid, m)


def tent_masses(mu: CoefficientMeasure) -> np.ndarray:
    """Mass of the closed tent over B(b, a) for every lattice node (a, b).

    One pass per source scale a_k: its masses are prefix-summed once, and
    every node at a scale a >= a_k (the lattice from ``offsets[k]`` on, since
    nodes are stored by increasing scale) adds the sum over its window
    fl(|b' - b|) <= r with r = fl(a - a_k), decided node by node as the
    brute-force sum decides it.  Each node adds its terms in increasing k.
    """
    fg = mu.fgrid
    out = np.zeros(fg.n_nodes)
    for k in range(fg.scales.size):
        sl = fg.scale_slice(k)
        b_k = fg.b[sl]
        pad = np.concatenate(([-np.inf], b_k, [np.inf]))  # pad[i + 1] is b_k[i]
        cum = np.concatenate(([0.0], np.cumsum(mu.masses[sl])))
        above = slice(sl.start, None)
        b = fg.b[above]
        r = fg.a[above] - fg.scales[k]
        # the window is b_k[lo:hi], hi counting the b' with fl(b' - b) <= r and lo
        # those with fl(b - b') > r, each a prefix of b_k.  A search for b +- r
        # misses its end by at most one node, so the next node, then the last
        # one, decides; in place, so that at most three arrays of len(b) and
        # two temporaries are live at once
        edge = np.searchsorted(b_k, b + r)
        edge += pad[edge + 1] - b <= r
        edge -= pad[edge] - b > r
        window = cum[edge]
        edge = np.searchsorted(b_k, b - r)
        edge += b - pad[edge + 1] > r
        edge -= b - pad[edge] <= r
        window -= cum[edge]
        out[above] += window
    return out


def _tent_ratios(mu: CoefficientMeasure) -> np.ndarray:
    """Tent mass over base-ball volume at every node, with |B(b, a)| = 2a."""
    return tent_masses(mu) / (2.0 * mu.fgrid.a)


def _cone_maxima(fgrid: FrameGrid, xs: np.ndarray, fields):
    """Per position x in ``xs``, the max of each field over the open cone |x - b| < a.

    Returns ``(maxima, covered)``: ``maxima[i, m]`` is the max of ``fields[i]``
    over the cone nodes above ``xs[m]`` (-inf where there are none), and
    ``covered[m]`` says whether any node is there.  Per scale, the
    translations are sorted, so each position's candidates are an index
    range found by ``searchsorted`` with a margin of one index on each side:
    at most 2/s + 3 nodes, to which the open-cone test is applied exactly.
    """
    xs = np.asarray(xs, dtype=float)
    maxima = np.full((len(fields), xs.size), -np.inf)
    covered = np.zeros(xs.size, dtype=bool)
    for j in range(fgrid.scales.size):
        sl = fgrid.scale_slice(j)
        b, a = fgrid.b[sl], fgrid.scales[j]
        lo = np.maximum(np.searchsorted(b, xs - a, side="left") - 1, 0)
        hi = np.minimum(np.searchsorted(b, xs + a, side="right") + 1, b.size)
        idx = np.minimum(lo[:, None] + np.arange(np.max(hi - lo)), b.size - 1)
        cone = (idx < hi[:, None]) & (np.abs(xs[:, None] - b[idx]) < a)
        covered |= cone.any(axis=1)
        for i, values in enumerate(fields):
            block = np.where(cone, values[sl][idx], -np.inf)
            np.maximum(maxima[i], block.max(axis=1, initial=-np.inf), out=maxima[i])
    return maxima, covered


def carleson_function(mu: CoefficientMeasure, x: float) -> float:
    """C mu(x): sup over cone nodes above x of tent mass / |B(b, a)|."""
    fg = mu.fgrid
    if abs(x) > fg.L_b:
        raise ValueError("x outside the translation box")
    maxima, covered = _cone_maxima(fg, [x], [_tent_ratios(mu)])
    return float(maxima[0, 0]) if covered[0] else 0.0


def vanishing_profile(mu: CoefficientMeasure, radii) -> np.ndarray:
    """R -> sup of tent mass ratio over tents indexed at distance >= R.

    Exactly non-increasing in R (nested node sets).
    """
    fg = mu.fgrid
    radii = np.asarray(radii, dtype=float)
    ratios = _tent_ratios(mu)
    out = np.zeros(len(radii))
    for i, r in enumerate(radii):
        sel = tail_nodes(fg, r)
        out[i] = float(np.max(ratios[sel])) if np.any(sel) else 0.0
    return out


def stein_inequality_check(f: SampledFunction, mu: CoefficientMeasure) -> float:
    """Audit integral |<f, phi_(a,b)>|^2 dmu <= C * integral Mf^2 * Cmu dx.

    The pairings are <f, phi_(a,b)> with the L2 dilates a^-1/2 phi((x-b)/a).
    Mf(x) is the nontangential maximum, the sup of |<f, phi_(a,b)>| over the
    cone nodes above x.  Returns the ratio LHS/RHS, which the caller bounds
    by its slack C (a slack audit, not a sharp constant).  The base-space
    integral is a Riemann sum over 257 equispaced positions on [-L, L], both
    endpoints included, each weighted by their spacing dx; a position that
    no cone covers adds nothing.  Mf and C mu at every position come from
    one :func:`_cone_maxima` pass, and the sum runs in position order.  A
    zero RHS gives 0 if the LHS is zero too and ``inf`` otherwise.
    """
    fg = mu.fgrid
    coeffs = analyze(f, bump_phi, fg).values
    lhs = float(np.sum(coeffs * coeffs * mu.masses))
    xs = np.linspace(-f.grid.L, f.grid.L, 257)
    dx = xs[1] - xs[0]
    (mfs, cmus), covered = _cone_maxima(fg, xs, [np.abs(coeffs), _tent_ratios(mu)])
    rhs = 0.0
    for mf, cmu, hit in zip(mfs.tolist(), cmus.tolist(), covered.tolist()):
        if hit:
            rhs += mf**2 * cmu * dx
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


@dataclass(frozen=True)
class BMOExample:
    """Named symbol with its expected mean-oscillation class."""

    label: str
    evaluator: object
    expected_class: str  # "CMO" or "BMO-not-CMO"


def bmo_examples(grid: SpatialGrid) -> tuple[BMOExample, ...]:
    """Symbol examples: smooth CMO members and one BMO-not-CMO function.

    The logarithm's singularity is placed at x0 = h/3, off every grid
    node, so all samples are finite.
    """
    x0 = grid.h / 3.0
    return (
        BMOExample("zero", lambda x: np.zeros_like(np.asarray(x, dtype=float)), "CMO"),
        BMOExample("bump", partial(smooth_bump, center=0.0, width=2.0), "CMO"),
        BMOExample("bump_shifted", partial(smooth_bump, center=-8.0, width=1.5), "CMO"),
        BMOExample(
            "log_singular",
            lambda x: np.log(np.abs(np.asarray(x, dtype=float) - x0)),
            "BMO-not-CMO",
        ),
    )
