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
its cumulative sums, shared by every measure on the lattice
(:func:`tent_masses`); a scale's translations are evenly spaced, so each
tent window's edges are computed from the spacing and then checked against
the two nodes beside them.  Cone maxima, for :func:`carleson_function` and
the Stein audit, come from per-scale index ranges (:func:`_cone_maxima`):
a scale's translations are sorted, so the cone nodes over x are a run of at
most 2/s + 1 of them, found by binary search.

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


def _same_lattice(mus) -> FrameGrid:
    """The one lattice of the measures ``mus``; ``ValueError`` if they are on several."""
    fg = mus[0].fgrid
    if any(mu.fgrid is not fg for mu in mus):
        raise ValueError("the measures must share one lattice")
    return fg


def _grid_count(x: np.ndarray, step: float, n: int) -> np.ndarray:
    """Per edge x, the count of m = -K ... K (n = 2K + 1) with m < fl(x / step); overwrites x."""
    q = np.divide(x, step, out=x)
    np.ceil(q, out=q)
    q += (n - 1) // 2
    return np.clip(q, 0, n, out=q).astype(np.intp)


def tent_masses(mus) -> list[np.ndarray]:
    """Mass of the closed tent over B(b, a) at every lattice node (a, b), for each measure.

    ``mus`` are measures on one lattice (``ValueError`` otherwise), and the
    result holds one array per measure, in order; no measure means no work
    and an empty list.  One pass per source scale a_k serves them all: each
    measure's masses there are prefix-summed once, and every node at a scale
    a >= a_k (the lattice from ``offsets[k]`` on, since nodes are stored by
    increasing scale) adds the sum over its window fl(|b' - b|) <= r with
    r = fl(a - a_k), decided node by node as the brute-force sum decides it.
    Each node adds its terms in increasing k.

    The window is b_k[lo:hi], hi counting the b' with fl(b' - b) <= r and lo
    those with fl(b - b') > r, each a prefix of b_k.  :func:`make_frame_grid`
    lays the scale out as b_k = fl(step * m), m = -K ... K, step = fl(s a_k),
    so each edge is first guessed by arithmetic (:func:`_grid_count` of
    fl(b +- r)), then the next node, then the last one, decides it exactly.
    The guess is at most one node off.  Every rounding involved (in b', in
    fl(b' - b), in fl(b +- r) and in its quotient by step) moves a decision
    by at most 3u E, with u = 2^-53 and E = L_b + (cone_factor + 1) a_max
    bounding every |b|, |b'| and r.  So the test and the guess can disagree
    only on the m with |m step - (b +- r)| <= 3u E, and there is at most one
    such m while 6u E < step, that is, unless E / (s a_k), about a scale's
    translation count, exceeds 2^50.  The two checks fix a miss of one node
    either way.
    """
    mus = list(mus)
    if not mus:
        return []
    fg = _same_lattice(mus)
    out = np.zeros((len(mus), fg.n_nodes))
    cum = np.zeros((len(mus), int(np.max(np.diff(fg.offsets))) + 1))  # cum[i, 0] stays 0
    for k in range(fg.scales.size):
        sl = fg.scale_slice(k)
        n = sl.stop - sl.start
        for mu, c in zip(mus, cum):
            np.cumsum(mu.masses[sl], out=c[1 : n + 1])
        pad = np.concatenate(([-np.inf], fg.b[sl], [np.inf]))  # pad[i + 1] is b_k[i]
        step = fg.s * fg.scales[k]
        above = slice(sl.start, None)
        b = fg.b[above]
        r = fg.a[above] - fg.scales[k]
        hi = _grid_count(b + r, step, n)
        hi += pad[hi + 1] - b <= r
        hi -= pad[hi] - b > r
        lo = _grid_count(b - r, step, n)
        lo += b - pad[lo + 1] > r
        lo -= b - pad[lo] <= r
        for total, c in zip(out, cum):
            window = c[hi]
            window -= c[lo]
            total[above] += window
    return list(out)


def _tent_ratios(mus) -> list[np.ndarray]:
    """Tent mass over base-ball volume at every node, with |B(b, a)| = 2a, for each measure."""
    ratios = tent_masses(mus)
    for ratio in ratios:
        ratio /= 2.0 * mus[0].fgrid.a
    return ratios


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
    """C mu(x): sup over cone nodes above x of tent mass / |B(b, a)|; x off [-L_b, L_b] raises."""
    fg = mu.fgrid
    if not abs(x) <= fg.L_b:  # also refuses NaN, whose every comparison is False
        raise ValueError("x outside the translation box")
    maxima, covered = _cone_maxima(fg, [x], _tent_ratios([mu]))
    return float(maxima[0, 0]) if covered[0] else 0.0


def vanishing_profile(mus, radii) -> list[np.ndarray]:
    """R -> sup of tent mass ratio over tents indexed at distance >= R, for each measure.

    ``mus`` are measures on one lattice, as for :func:`tent_masses`, which
    weighs them all in one pass; each radius's tail is selected once for
    all of them.  Exactly non-increasing in R (nested node sets).
    """
    mus = list(mus)
    if not mus:
        return []
    fg = _same_lattice(mus)
    radii = np.asarray(radii, dtype=float)
    ratios = _tent_ratios(mus)
    out = np.zeros((len(mus), len(radii)))
    for i, r in enumerate(radii):
        sel = tail_nodes(fg, r)
        if np.any(sel):
            for prof, ratio in zip(out, ratios):
                prof[i] = np.max(ratio[sel])
    return list(out)


def stein_inequality_check(audits) -> list[float]:
    """Audit integral |<f, phi_(a,b)>|^2 dmu <= C * integral Mf^2 * Cmu dx, for each (f, mu).

    ``audits`` are ``(f, mu)`` pairs whose functions share one grid and whose
    measures share one lattice (``ValueError`` otherwise); the result holds
    one ratio LHS/RHS per audit, in order, which the caller bounds by its
    slack C (a slack audit, not a sharp constant).  No audit means no work
    and an empty list.  The pairings are <f, phi_(a,b)> with the L2 dilates
    a^-1/2 phi((x-b)/a).  Mf(x) is the nontangential maximum, the sup of
    |<f, phi_(a,b)>| over the cone nodes above x.  The base-space integral
    is a Riemann sum over 257 equispaced positions on [-L, L] of the grid,
    both endpoints included, each weighted by their spacing dx; a position
    that no cone covers adds nothing.  One :func:`tent_masses` call gives
    every C mu, and one :func:`_cone_maxima` pass every Mf and C mu at those
    positions; each audit's sum runs in position order, so every ratio is
    bitwise the one its audit gets alone.  A zero RHS gives 0 if the LHS is
    zero too and ``inf`` otherwise.
    """
    audits = list(audits)
    if not audits:
        return []
    mus = [mu for _, mu in audits]
    fg = _same_lattice(mus)
    grid = audits[0][0].grid
    if any(f.grid != grid for f, _ in audits):
        raise ValueError("the audited functions must share one grid")
    # the tent pass before analyze, which may build and cache phi's rows: in the other order the
    # frame_local benchmark's peak RSS read 2 MB higher
    ratios = _tent_ratios(mus)
    coeffs = [analyze(f, bump_phi, fg).values for f, _ in audits]
    xs = np.linspace(-grid.L, grid.L, 257)
    dx = xs[1] - xs[0]
    maxima, covered = _cone_maxima(fg, xs, [np.abs(c) for c in coeffs] + ratios)
    out = []
    for mu, c, mfs, cmus in zip(mus, coeffs, maxima, maxima[len(audits):]):
        lhs = float(np.sum(c * c * mu.masses))
        rhs = 0.0
        for mf, cmu, hit in zip(mfs.tolist(), cmus.tolist(), covered.tolist()):
            if hit:
                rhs += mf**2 * cmu * dx
        if rhs == 0.0:
            out.append(0.0 if lhs == 0.0 else math.inf)
        else:
            out.append(lhs / rhs)
    return out


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
