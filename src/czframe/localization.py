"""Frame-side localization diagnostics for singular integral operators.

Matrix coefficients of an operator against the wavelet frame, the
four-regime decay majorant for cancellative kernels, weighted Schur
functionals over the frame lattice (with an explicit anchor lattice
standing in for the supremum), origin-anchored tail functionals, and the
weak-compactness profile measured along hyperbolic distance bins.

The anchor supremum is reduced by group covariance: the coefficients of
``T`` at anchor ``(a', b')`` against the translated/dilated lattice equal
the coefficients of the conjugated operator ``T_{(a',b')}`` at the
identity anchor against the reference lattice, and the weight ratio
``w(a,b)/w(a',b')`` turns into the reference weight.  Dilation/translation
invariant kernels (the Hilbert transform) are fixed points of the
conjugation, so their Schur value is anchor-independent by construction.

Coefficients are taken against the mother wavelet fixed in :mod:`czframe.wavelets`.
Every kernel is applied through :func:`~czframe.operators.discretize`.  The
weak-compactness pairings discretize a bounded kernel once, on a reference
grid, and a singular kernel once per node, conjugated to the node.
"""

from __future__ import annotations

import math
import warnings
from functools import partial

import numpy as np

from .geometry import GroupPoint, IDENTITY
from .grids import FrameGrid, SampledFunction, SpatialGrid, smooth_bump, tail_nodes
from .operators import CZKernel, apply_kernel, conjugate, discretize
# Never called here; perfbench's tracer test still expects this binding.
from .operators import kernel_matrix  # noqa: F401
from .wavelets import (CoefficientField, analyze, frame_element, frame_rows, make_mother_wavelet,
                       row_runs)

__all__ = [
    "decay_majorant",
    "matrix_coefficient",
    "coefficient_field",
    "verify_decay",
    "default_anchor_lattice",
    "schur_tail",
    "origin_tail",
    "default_test_bundle",
    "weak_compactness_profile",
]


def decay_majorant(delta: float, a, b):
    """The four-regime coefficient majorant of cancellative CZ operators, n = 1, delta in (0, 1].

    Regimes: a >= 1 with |b| <= a gives a**-(1/2+delta); a >= 1 with
    |b| > a gives a**(1/2) / |b|**(1+delta); a < 1 with |b| <= 1 gives
    a**(1/2+delta); a < 1 with |b| > 1 gives a**(1/2+delta) / |b|**(1+delta).
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    a = np.asarray(a, dtype=float)
    b = np.abs(np.asarray(b, dtype=float))
    if np.any(a <= 0.0):
        raise ValueError("scale must be positive")
    p = 0.5 + delta
    q = 1.0 + delta
    with np.errstate(divide="ignore"):
        out = np.select(
            [
                (a >= 1.0) & (b <= a),
                (a >= 1.0) & (b > a),
                (a < 1.0) & (b <= 1.0),
            ],
            [a ** (-p), a**0.5 / b**q, a**p],
            default=a**p / np.where(b > 1.0, b, 1.0) ** q,
        )
    return out


def matrix_coefficient(
    kernel: CZKernel,
    source: GroupPoint,
    target: GroupPoint,
    grid: SpatialGrid,
) -> float:
    """Frame matrix coefficient <T psi_source, psi_target> of wavelets with disjoint supports.

    The supports must be separated by at least one grid cell, so the kernel
    is regular between them; the coefficient is the direct double integral
    restricted to the two supports.  Raises ValueError otherwise: pair
    ``apply_kernel(kernel, psi_source)`` with ``psi_target`` instead.
    """
    if abs(source.b - target.b) < source.a + target.a + grid.h:
        raise ValueError("wavelet supports must be separated by a grid cell")
    f_src = frame_element(source, grid)
    f_tgt = frame_element(target, grid)
    x = grid.x
    tgt_idx = np.flatnonzero(f_tgt.values)
    src_idx = np.flatnonzero(f_src.values)
    if tgt_idx.size == 0 or src_idx.size == 0:
        return 0.0
    block = kernel(x[tgt_idx][:, None], x[src_idx][None, :])
    return float(f_tgt.values[tgt_idx] @ block @ f_src.values[src_idx] * grid.h**2)


def coefficient_field(
    kernel: CZKernel,
    fgrid: FrameGrid,
    grid: SpatialGrid,
    anchor: GroupPoint = IDENTITY,
) -> CoefficientField:
    """All frame coefficients of T psi_anchor, via conjugation reduction.

    Returns the field of <T_anchor psi, psi_(a,b)> over the lattice, which
    by covariance equals <T psi_anchor, psi_{(a,b) . anchor}> on the
    anchor-translated lattice.
    """
    k = kernel if anchor == IDENTITY else conjugate(kernel, anchor)
    f = frame_element(IDENTITY, grid)
    return analyze(apply_kernel(k, f), make_mother_wavelet(), fgrid)


def verify_decay(kernel: CZKernel, fgrid: FrameGrid, grid: SpatialGrid) -> float:
    """Fit the smallest C with |coeff(a,b)| <= C * bound(a,b), delta = kernel.delta.

    The coefficients are those of :func:`coefficient_field` at the identity
    anchor, a run of :func:`~czframe.wavelets.row_runs` at a time: each
    run's psi rows come from :func:`~czframe.wavelets.frame_rows`, its
    ratios are reduced to their maximum and the run is dropped, so neither
    the whole row matrix nor the per-node ratios are held and nothing is
    cached on ``fgrid``.  A row's product does not depend on its run and
    the maximum is exact, so C is bitwise the whole-lattice one.
    """
    if not kernel.exact_cancellation:
        warnings.warn(
            f"kernel {kernel.label!r} lacks exact cancellation; the decay "
            "majorant is not guaranteed",
            stacklevel=2,
        )
    Tpsi = apply_kernel(kernel, frame_element(IDENTITY, grid))
    psi = make_mother_wavelet()
    run_max = [np.max(np.abs(frame_rows(psi, fgrid, grid, run) @ Tpsi.values * grid.h)
                      / decay_majorant(kernel.delta, fgrid.a[run], fgrid.b[run]))
               for run in row_runs(fgrid, grid, np.arange(fgrid.n_nodes))]
    return float(np.max(run_max))  # np.max propagates NaN


def default_anchor_lattice() -> tuple[GroupPoint, ...]:
    """Dyadic anchor lattice standing in for the supremum over anchors."""
    return tuple(
        GroupPoint(a, b) for a in (0.25, 1.0, 4.0) for b in (-8.0, 0.0, 8.0)
    )


def _weighted_sum(values: np.ndarray, fgrid: FrameGrid, mask: np.ndarray) -> float:
    """Sum over the masked nodes of |values| w(a) dlambda, weight w(a) = a^(n/2), n = 1."""
    integrand = np.abs(values) * fgrid.a**0.5 * fgrid.dlam
    return float(np.sum(integrand[mask]))


def schur_tail(
    kernel: CZKernel,
    fgrid: FrameGrid,
    grid: SpatialGrid,
    radii,
    anchor: GroupPoint = IDENTITY,
) -> list[float]:
    """Weighted Schur functional at one anchor over nodes at distance >= R, per R in ``radii``.

    Computes w(a',b')^-1 * sum |<T psi_anchor, psi_(a,b)>| w(a,b) dlambda,
    w(a, b) = a^(1/2), over the nodes at hyperbolic distance >= R from the
    identity, reduced by covariance to the identity anchor of the reference
    lattice (the substitution absorbs the weight ratio exactly), from one
    coefficient field.  At R = 0 every node counts: that is the Schur value.
    """
    masks = [tail_nodes(fgrid, R) for R in radii]
    fld = coefficient_field(kernel, fgrid, grid, anchor)
    return [_weighted_sum(fld.values, fgrid, mask) for mask in masks]


def origin_tail(
    kernel: CZKernel,
    fgrid: FrameGrid,
    grid: SpatialGrid,
    R: float,
) -> float:
    """Tail functional with the excluded disk fixed at the identity.

    sup over the anchors of :func:`default_anchor_lattice` of
    w(anchor)^-1 * sum over nodes with d(node, e) >= R of
    |<T psi_anchor, psi_(a,b)>| w(a,b) dlambda, w(a, b) = a^(1/2).  No
    conjugation is possible here because the disk does not move with the
    anchor.
    """
    mask = tail_nodes(fgrid, R)
    T = discretize(kernel, grid)
    psi = make_mother_wavelet()
    best = 0.0
    for p in default_anchor_lattice():
        f = frame_element(p, grid)
        fld = analyze(SampledFunction(grid, T.matvec(f.values)), psi, fgrid)
        best = max(best, _weighted_sum(fld.values, fgrid, mask) / math.sqrt(p.a))
    return best


def default_test_bundle() -> tuple:
    """Smooth compactly supported test functions with uniform bounds: psi and two bumps."""
    return (make_mother_wavelet(), partial(smooth_bump, center=0.0, width=2.0),
            partial(smooth_bump, center=0.5, width=1.0))


# Width of the hyperbolic distance bins of weak_compactness_profile, the most
# nodes it pairs per bin, the fixed grid of a singular kernel's conjugated
# pairings and the grid a bounded kernel is discretized on once.
_BIN_WIDTH = 0.5
_MAX_NODES_PER_BIN = 24
_LOCAL = SpatialGrid(8.0, 512)
_REFERENCE = SpatialGrid(32.0, 2048)


def _max_pairing(F: np.ndarray, TF: np.ndarray, h: float) -> float:
    """max |<T f, g>| over the columns f, g of F, given TF = T F on a grid of step h."""
    return float(np.max(np.abs(F.T @ TF))) * h


def weak_compactness_profile(kernel: CZKernel, fgrid: FrameGrid, radii: np.ndarray) -> np.ndarray:
    """Profile R -> sup |<T f_(a,b), g_(a,b)>| over distance bins.

    For each radius the supremum runs over ordered pairs from
    :func:`default_test_bundle` and over the bin tail(R) less tail(R + 1/2) of
    :func:`~czframe.grids.tail_nodes` (a negative or NaN R raises), subsampled
    deterministically to at most 24 nodes (evenly spaced in node index).
    """
    bundle = default_test_bundle()
    T_ref = discretize(kernel, _REFERENCE) if kernel.bounded else None
    samples = np.column_stack([f(_LOCAL.x) for f in bundle]).astype(float)
    out = np.zeros(len(radii))
    for i, r in enumerate(radii):
        idx = np.flatnonzero(tail_nodes(fgrid, r) & ~tail_nodes(fgrid, r + _BIN_WIDTH))
        if idx.size > _MAX_NODES_PER_BIN:
            sel = np.linspace(0, idx.size - 1, _MAX_NODES_PER_BIN).astype(int)
            idx = idx[sel]
        best = 0.0
        for k in idx:
            node = GroupPoint(float(fgrid.a[k]), float(fgrid.b[k]))
            if kernel.bounded:
                # Bounded kernels stay resolved on the reference grid; pair in
                # the original coordinates, where the dilated test functions
                # are smooth: <T f_node, g_node> = a^-1 <T f(.-b)/a, g(.-b)/a>.
                u = (_REFERENCE.x - node.b) / node.a
                F = np.column_stack([f(u) for f in bundle])
                val = _max_pairing(F, T_ref.matvec(F), _REFERENCE.h) / node.a
            else:
                # Conjugate the operator to the node; the test functions stay
                # at unit scale on a fixed local grid, so the quadrature is
                # node-independent.
                T = discretize(conjugate(kernel, node), _LOCAL)
                val = _max_pairing(samples, T.matvec(samples), _LOCAL.h)
            best = max(best, val)
        out[i] = best
    return out
