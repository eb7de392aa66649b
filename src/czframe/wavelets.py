"""The two frame generators, frame elements, and the analysis/synthesis pair.

The mother wavelet psi (:func:`make_mother_wavelet`) is the derivative of the
smooth bump theta(x) = e(1 - x^2), for grids' step e(t) = exp(-1/t), times
the constant ``_PSI_NORM`` that brings the squared Calderon admissibility
constant int_0^inf |psihat(t)|^2 dt/t to 1.  With that normalization the
family psi_{(a,b)} = a^{-1/2} psi((x-b)/a) is a continuous Parseval frame:
coefficient energy against the Haar measure reproduces the L^2 norm, and
synthesis of the coefficients reproduces the function.  The plateau bump phi
(:func:`bump_phi`, mass :data:`M_PHI`), built on e as well, is what the
paraproducts and the Stein audit pair with.  Both are fixed functions whose
constants are literals, so building them costs nothing at start-up, and no
other module takes either generator as an argument.

Every lattice-wide operation (analysis, synthesis, and the bump pairings
and paraproduct factors built on them elsewhere) is a product with one
sparse matrix per generator from :func:`frame_rows`, cached on the lattice.
Its rows are always the L2 dilates a^{-1/2} fn((x - b)/a); an L1 pairing is
the L2 one times a^{-1/2}.  A caller that needs some rows only once asks
:func:`frame_rows` for those nodes, copied from the cache when there is
one and built uncached otherwise: the tail sweeps' analysis operator a run
at a time, and the decay fit (:func:`_analysis_blocks`) a block of whole
scales at a time.  :func:`frame_rows` is the one door to the row builder,
:func:`_scale_rows`, which takes a sorted index array and evaluates the
generator in cache-sized chunks of whole rows, so a row is the same bits
whichever way it is asked for.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .geometry import GroupPoint
from .grids import FrameGrid, SampledFunction, SpatialGrid, _exp_neg_inv

__all__ = [
    "CoefficientField",
    "make_mother_wavelet",
    "M_PHI",
    "bump_phi",
    "frame_element",
    "frame_rows",
    "analyze",
    "synthesize",
]


def _bump_derivative(x):
    """theta'(x) = e(d) * (-2x / d^2) with d = 1 - x^2, and 0 unless |x| < 1.

    theta = e(1 - x^2), with e = :func:`grids._exp_neg_inv`.  Every point is
    evaluated, with x replaced by -0.0 off (-1, 1): there d is 1, nothing
    overflows, and the product below is exactly +0.0.  No point is gathered
    or scattered, and NaN and +-inf map to 0.  A 0-d x works too.
    """
    x = np.asarray(x, dtype=float)
    xi = np.where(np.abs(x) < 1.0, x, -0.0)
    d = np.multiply(xi, xi, out=np.empty_like(xi))
    np.subtract(1.0, d, out=d)
    out = _exp_neg_inv(d)
    d *= d
    xi *= -2.0
    xi /= d
    out *= xi
    return out


# 1/sqrt of the raw admissibility integral int_0^inf |FT(theta')(t)|^2 dt/t:
# the midpoint rule on 8192 points of [0, 1] for the sine transform and 4096
# log-spaced t in [1e-4, 400].  tests/test_wavelets.py recomputes it.
_PSI_NORM = 1.3323698345610664


def _mother_wavelet(x):
    return _PSI_NORM * _bump_derivative(x)


def make_mother_wavelet():
    """The normalized mother wavelet psi = _PSI_NORM * theta'.

    Zero mean and support in [-1, 1] hold by construction (derivative of a
    compactly supported bump); the factor _PSI_NORM brings the admissibility
    constant to 1.  Every call returns the same function, so it keys one
    :func:`frame_rows` matrix per lattice.
    """
    return _mother_wavelet


def _transition(t):
    """C-infinity step e(t) / (e(t) + e(1 - t)): 0 for t <= 0, 1 for t >= 1, T(t) + T(1 - t) = 1."""
    g0 = _exp_neg_inv(t)
    return g0 / (g0 + _exp_neg_inv(1.0 - t))


# Mass of bump_phi: 1 from the plateau, and 1/4 from each shoulder, since the
# symmetry of _transition gives int_0^1 (1 - _transition) = 1/2.
M_PHI = 1.5


def bump_phi(x):
    """The plateau bump phi: radial, non-increasing, 1 on B(0, 1/2), 0 off B(0, 1)."""
    return 1.0 - _transition(2.0 * np.abs(x) - 1.0)


@dataclass
class CoefficientField:
    """Frame coefficients attached to the lattice nodes."""

    fgrid: FrameGrid
    values: np.ndarray

    def energy(self) -> float:
        return float(np.sum(self.values * self.values * self.fgrid.dlam))


def _check_resolution(a: float, grid: SpatialGrid):
    if a < 2.0 * grid.h:
        warnings.warn(f"frame element at scale a={a} is under-resolved (a < 2h)", stacklevel=3)


def frame_element(point: GroupPoint, grid: SpatialGrid) -> SampledFunction:
    """Sample psi_{(a,b)} = a^{-1/2} psi((x - b)/a) on the grid."""
    _check_resolution(point.a, grid)
    u = (grid.x - point.b) / point.a
    return SampledFunction(grid, make_mother_wavelet()(u) / math.sqrt(point.a))


# Nonzeros per block of :func:`_analysis_blocks`: about 25 MB of CSR at 12 B a
# nonzero (a float64 value and an int32 column index).
_BLOCK_NNZ = 1 << 21

# Target nonzeros per chunk of whole rows in :func:`_scale_rows`: a 256 kB
# float64 argument, so the generator's few temporaries of that size stay in a
# core's L2 cache.  Each chunk also costs some 20 small numpy calls, so a
# scale is cut into round(nnz / _CHUNK_NNZ) chunks, never a tiny remainder.
_CHUNK_NNZ = 1 << 15


def _windows(fgrid: FrameGrid, grid: SpatialGrid, nodes):
    """First grid index and width (int32) of the sampling window of each node in ``nodes``."""
    radius = fgrid.a[nodes]  # generators are supported in [-1, 1]
    b, h, L, N = fgrid.b[nodes], grid.h, grid.L, grid.N
    i_lo = np.clip(np.ceil((b - radius + L) / h), 0, N).astype(np.int32)
    i_hi = np.clip(np.floor((b + radius + L) / h) + 1, 0, N).astype(np.int32)
    return i_lo, np.maximum(i_hi - i_lo, 0)


def _scale_rows(fn, fgrid: FrameGrid, grid: SpatialGrid, nodes: np.ndarray):
    """The :func:`frame_rows` rows of ``nodes``, a checked and sorted index array, uncached.

    One CSR is preallocated and filled scale by scale (a scale's nodes share
    one dilation and its rows are consecutive), skipping the scales that hold
    none of ``nodes``.  A scale's rows of n nonzeros are cut into round(n /
    ``_CHUNK_NNZ``) chunks (at least one) of equally many whole rows, so a
    chunk holds about ``_CHUNK_NNZ`` nonzeros unless one row is wider.  A
    chunk's columns are written into ``indices`` and its arguments (x - b)/a
    into one reused buffer, so peak memory is the finished rows plus
    chunk-sized temporaries.  Every entry is the same elementwise expression
    as in :func:`frame_element`, so the chunking does not change a bit.
    """
    i_lo, widths = _windows(fgrid, grid, nodes)
    indptr = np.zeros(widths.size + 1, dtype=np.int32)
    np.cumsum(widths, out=indptr[1:])
    del widths  # each scale's widths come from indptr, so one node-sized array stays
    shift = np.subtract(indptr[:-1], i_lo, out=i_lo)  # entry p of row k is column p - shift[k]
    bounds = np.searchsorted(nodes, fgrid.offsets).tolist()  # scale j's rows: bounds[j:j + 2]
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    ramp, buf = np.arange(0, dtype=np.int32), np.empty(0)  # grown to the widest chunk
    x = grid.x
    for j in np.flatnonzero(np.diff(bounds)).tolist():  # the scales that hold a node
        r_start, r_end = bounds[j], bounds[j + 1]
        aj, root = fgrid.scales[j], math.sqrt(fgrid.scales[j])
        w_j, b_j = np.diff(indptr[r_start : r_end + 1]), fgrid.b[nodes[r_start:r_end]]
        runs = max(1, round(int(indptr[r_end] - indptr[r_start]) / _CHUNK_NNZ))
        step = -(-(r_end - r_start) // runs)  # rows per chunk, rounded up
        for r0 in range(r_start, r_end, step):
            r1 = min(r0 + step, r_end)
            p0, p1 = int(indptr[r0]), int(indptr[r1])
            if p0 == p1:
                continue
            if buf.size < p1 - p0:
                ramp, buf = np.arange(p1 - p0, dtype=np.int32), np.empty(p1 - p0)
            w, b = w_j[r0 - r_start : r1 - r_start], b_j[r0 - r_start : r1 - r_start]
            cols = np.add(ramp[: p1 - p0], p0, out=indices[p0:p1])
            cols -= np.repeat(shift[r0:r1], w)
            u = np.take(x, cols, out=buf[: p1 - p0], mode="clip")  # unbuffered; cols are in range
            u -= np.repeat(b, w)
            u /= aj
            np.divide(fn(u), root, out=data[p0:p1])
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(nodes.size, grid.N))


def frame_rows(fn, fgrid: FrameGrid, grid: SpatialGrid, nodes=None) -> scipy.sparse.csr_matrix:
    """Sparse matrix whose row k samples the L2 dilate of ``fn`` at lattice node k.

    Row k holds a_k^{-1/2} fn((x_i - b_k)/a_k) on the grid window
    [b_k - a_k, b_k + a_k] clipped to the box; ``fn`` must be supported in
    [-1, 1].  :func:`analyze`, :func:`synthesize` and the paraproduct
    factors are all products with this matrix; an L1-normalized pairing is
    the L2 one times a_k^{-1/2}.  It is cached on ``fgrid`` under
    ``(fn, grid)``, so it lives exactly as long as the lattice.  ``fn`` must
    be hashable.  This is the one door to :func:`_scale_rows`, which builds
    the cached matrix from every node index.

    With ``nodes``, a 1-D integer array of indices in [0, n_nodes) (anything
    else, such as a mask or a negative index, raises ``ValueError``, cached or
    not), the result is a new matrix of those rows, in that order: copied from
    the cached matrix when there is one, and otherwise built by
    :func:`_scale_rows` in lattice order, then taken in the given order, and
    not cached.  Either way it is the same bits, so a caller that needs some
    rows once, such as the analysis operator or the decay fit's blocks, never
    makes the lattice hold them all.
    """
    key = (fn, grid)
    rows = fgrid._rows.get(key)
    if nodes is None:
        if rows is None:
            rows = fgrid._rows[key] = _scale_rows(fn, fgrid, grid, np.arange(fgrid.n_nodes))
        return rows
    nodes = np.asarray(nodes)
    if nodes.ndim != 1 or nodes.dtype.kind not in "iu":
        raise ValueError("nodes must be a 1-D integer array")
    if nodes.size and not (nodes.min() >= 0 and nodes.max() < fgrid.n_nodes):
        raise ValueError(f"nodes must lie in [0, {fgrid.n_nodes})")
    if rows is not None:
        return rows[nodes]
    if np.all(nodes[1:] >= nodes[:-1]):
        return _scale_rows(fn, fgrid, grid, nodes)
    ordered = np.sort(nodes)
    return _scale_rows(fn, fgrid, grid, ordered)[np.searchsorted(ordered, nodes)]


def _analysis_blocks(f: SampledFunction, fgrid: FrameGrid):
    """Yield ``(nodes, coefficients)`` of psi's :func:`analyze`, a block of whole scales at a time.

    ``nodes`` is the block's slice of the lattice.  When ``fgrid`` already
    caches psi's :func:`frame_rows` matrix on this grid, the one block is the
    whole lattice, applied with that matrix.  Otherwise a block holds at most
    ``_BLOCK_NNZ`` row nonzeros, unless one scale alone has more; its rows
    come from :func:`frame_rows` for the block's node indices, applied once
    and dropped before the yield (so two blocks are never held at once), and
    never cached on ``fgrid``.  A CSR product sums each row in index order, so
    the coefficients are bitwise the same either way.
    """
    psi = make_mother_wavelet()
    rows = fgrid._rows.get((psi, f.grid))
    if rows is not None:
        yield slice(0, fgrid.n_nodes), (rows @ f.values) * f.grid.h
        return
    _, widths = _windows(fgrid, f.grid, slice(None))
    starts = np.concatenate([[0], np.cumsum(widths)])[fgrid.offsets]  # nonzeros before each scale
    j0 = 0
    while j0 < fgrid.scales.size:
        j1 = max(j0 + 1, int(np.searchsorted(starts, starts[j0] + _BLOCK_NNZ, side="right")) - 1)
        nodes = slice(int(fgrid.offsets[j0]), int(fgrid.offsets[j1]))
        coeffs = frame_rows(psi, fgrid, f.grid, np.arange(nodes.start, nodes.stop)) @ f.values
        yield nodes, coeffs * f.grid.h
        j0 = j1


def analyze(f: SampledFunction, fn, fgrid: FrameGrid) -> CoefficientField:
    """Frame coefficients <f, fn_{(a,b)}> at every lattice node, ``R f h``.

    ``R`` is the cached :func:`frame_rows` matrix of the generator ``fn`` on
    the lattice: ``make_mother_wavelet()`` for wavelet coefficients, or
    :func:`bump_phi` for the bump pairings of the paraproducts and the Stein
    audit.
    """
    rows = frame_rows(fn, fgrid, f.grid)
    return CoefficientField(fgrid, (rows @ f.values) * f.grid.h)


def synthesize(field: CoefficientField, fn, grid: SpatialGrid) -> SampledFunction:
    """Sum of coefficient * fn_{(a,b)} * dlam over the lattice, ``R^T (c dlam)``."""
    rows = frame_rows(fn, field.fgrid, grid)
    return SampledFunction(grid, rows.T @ (field.values * field.fgrid.dlam))
