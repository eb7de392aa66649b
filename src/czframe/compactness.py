"""Riesz-Kolmogorov tail functionals and their dense singular-value oracle.

The tail functional at radius R is the squared operator norm of the
composite map f |-> (sqrt(dlambda) <Tf, psi_node>)_{node in tail(R)}: the
supremum over the L2 unit ball of the coefficient energy of Tf outside the
hyperbolic disk of radius R.  It is the top eigenvalue of the composite
map's normal operator, computed by Lanczos (ARPACK ``eigsh``) from a seeded
start vector.  Vanishing tails as R grows indicate a precompact image; the
functional is reported together with the maximizing input (the witness) and
the solver's statistics.  It returns numbers only; :mod:`czframe.reporting`
classifies them against each record's check bounds.

Discretized operators A with (Tf)(x_i) = (A f)_i for sample vectors f are
applied only through ``matvec``/``rmatvec`` of a
:class:`~czframe.operators.DiscreteOperator`; for a CZ kernel it comes from
:func:`~czframe.operators.discretize` (A = kernel_matrix * h, Toeplitz/FFT
for convolution kernels, sparse factors for rank-one kernels).
:func:`operator_matrix` is the dense A (SVD cross-check, test oracle); wrap it
as ``DiscreteOperator(N, matrix=A)`` to solve on it.
:func:`singular_spectrum` is the one dense SVD, the oracle a Lanczos solve is
checked against.  The analysis operator is a copy of the lattice's cached
:func:`~czframe.wavelets.frame_rows` matrix of the fixed mother wavelet,
scaled by sqrt(dlambda) * h, one number for the whole lattice.

A sweep over radii builds that matrix once, with its rows in decreasing
``fgrid.dist0`` order, so every tail(R) is a zero-copy row prefix of it
(:func:`tail_views`).  The radii are independent solves from the same seeded
start vector; :func:`tail_functional` runs them concurrently on a thread pool
with one worker per usable core and collects them in radius order, so the
result is bitwise independent of the worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .grids import FrameGrid, SampledFunction, SpatialGrid, tail_nodes
from .operators import CZKernel, DiscreteOperator, kernel_matrix
from .wavelets import frame_rows, make_mother_wavelet

__all__ = [
    "LanczosResult",
    "TailFunctional",
    "analysis_operator",
    "operator_matrix",
    "rk_tail",
    "tail_functional",
    "tail_views",
    "singular_spectrum",
]

# Relative tolerance and restart cap of every Lanczos tail solve.
_TOL = 1e-6
_MAXITER = 500


def operator_matrix(kernel: CZKernel, grid: SpatialGrid) -> np.ndarray:
    """Dense sample-space matrix of the PV-discretized operator."""
    return kernel_matrix(kernel, grid) * grid.h


def analysis_operator(
    fgrid: FrameGrid, grid: SpatialGrid, order: np.ndarray | None = None
) -> scipy.sparse.csr_matrix:
    """Sparse map g |-> (sqrt(dlambda) <g, psi_node>)_node.

    Row ``k`` holds sqrt(dlambda) * h * psi_k(x_i) over the grid window
    intersecting the support of the frame element at node k: one copy of the
    cached :func:`~czframe.wavelets.frame_rows` matrix, its rows taken in
    ``order`` (node order by default) and its data scaled in place by the one
    number sqrt(dlambda) * h, so no second matrix-sized array is made and the
    cache stays unscaled.
    """
    if order is None:
        order = np.arange(fgrid.n_nodes)
    S = frame_rows(make_mother_wavelet(), fgrid, grid)[order]
    S.data *= np.sqrt(fgrid.dlam) * grid.h
    return S


def tail_views(
    fgrid: FrameGrid, grid: SpatialGrid, radii
) -> tuple[scipy.sparse.csr_matrix, list[scipy.sparse.csr_matrix]]:
    """The analysis operator sorted by distance, and each tail(R) as a view of it.

    The sorted matrix is :func:`analysis_operator` with its rows in the stable
    order ``argsort(-fgrid.dist0)``.  The rows of the nodes in
    ``tail_nodes(fgrid, R)`` are then its first n rows, so the tail matrix of
    each radius is a CSR row prefix sharing ``data``, ``indices`` and
    ``indptr`` with it.  A negative radius raises ``ValueError``.
    """
    S = analysis_operator(fgrid, grid, np.argsort(-fgrid.dist0, kind="stable"))
    views = []
    for r in radii:
        n = int(np.count_nonzero(tail_nodes(fgrid, float(r))))
        nnz = S.indptr[n]
        views.append(scipy.sparse.csr_matrix(
            (S.data[:nnz], S.indices[:nnz], S.indptr[:n + 1]), shape=(n, grid.N), copy=False
        ))
    return S, views


@dataclass
class LanczosResult:
    """Largest squared singular value of the composite tail map.

    ``iterations`` counts applications of the normal operator, ``residual``
    is ``||B u - value u||`` for the unit witness direction ``u``, and
    ``converged`` holds only when ARPACK converged and that residual is at
    most ``1e-6 * |value|``.
    """

    value: float
    witness: SampledFunction
    iterations: int
    converged: bool
    residual: float


@dataclass
class TailFunctional:
    """rk_tail profile of one operator over a radii list, with per-radius solver stats."""

    radii: np.ndarray
    values: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residuals: np.ndarray
    witnesses: list[SampledFunction] = field(repr=False)


def _lanczos_top(B_apply, n: int, seed: int) -> tuple[float, np.ndarray, int, bool, float]:
    """Top eigenpair of the symmetric PSD map ``B_apply`` by ARPACK Lanczos.

    The start vector comes from ``default_rng(seed)``, and so do the vectors
    ARPACK draws when it restarts from an exhausted Krylov space (by default
    it would draw them from fresh OS entropy).  Returns the Ritz value,
    its unit vector, the number of ``B_apply`` calls, whether it converged and
    the residual norm.  An operator that maps the start vector to exactly zero
    is taken to be zero after one application, since ARPACK needs a nontrivial
    Krylov space.
    """
    # Imported here so that runs which never solve do not load ARPACK.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    v0 /= np.linalg.norm(v0)
    calls = 0

    def counted(v: np.ndarray) -> np.ndarray:
        nonlocal calls
        calls += 1
        return B_apply(np.ravel(v))

    w = counted(v0)
    if not w.any():
        return 0.0, v0, calls, True, 0.0
    B = LinearOperator((n, n), matvec=counted, dtype=float)
    try:
        lams, vecs = eigsh(B, k=1, which="LA", v0=v0, tol=_TOL, maxiter=_MAXITER, rng=rng)
        ok = True
    except ArpackNoConvergence as exc:
        lams, vecs = exc.eigenvalues, exc.eigenvectors
        ok = False
    if len(lams):
        lam, u = float(lams[0]), vecs[:, 0]
        r = counted(u) - lam * u
    else:  # no Ritz pair converged: report the start vector's Rayleigh quotient
        lam, u = float(v0 @ w), v0
        r = w - lam * v0
    residual = float(np.linalg.norm(r))
    return lam, u, calls, ok and residual <= _TOL * abs(lam), residual


def rk_tail(
    A: DiscreteOperator,
    S_tail: scipy.sparse.csr_matrix,
    grid: SpatialGrid,
    seed: int = 0,
) -> LanczosResult:
    """Sup over the L2 unit ball of tail coefficient energy of Tf.

    ``A`` is the sample-space operator and ``S_tail`` the rows of the
    analysis operator at the tail nodes: a view from :func:`tail_views`, or
    ``analysis_operator(fgrid, grid)[tail_nodes(fgrid, R)]``.  Lanczos
    (ARPACK ``eigsh``) runs on the normal matrix of the composite map from a
    seeded start vector, with relative tolerance 1e-6 and at most 500
    restarts; on non-convergence the best Ritz value found is still reported,
    with ``converged=False``.
    """
    root_h = np.sqrt(grid.h)

    def B_apply(u: np.ndarray) -> np.ndarray:
        c = S_tail @ A.matvec(u / root_h)
        return A.rmatvec(S_tail.T @ c) / root_h

    lam, u, calls, ok, residual = _lanczos_top(B_apply, grid.N, seed)
    return LanczosResult(
        value=max(lam, 0.0),
        witness=SampledFunction(grid, u / root_h),
        iterations=calls,
        converged=ok,
        residual=residual,
    )


def _sweep_workers(n_solves: int) -> int:
    """Threads for a radius sweep: one per usable core, at most one per solve."""
    return min(len(os.sched_getaffinity(0)), n_solves)


def tail_functional(
    A: DiscreteOperator,
    fgrid: FrameGrid,
    grid: SpatialGrid,
    radii,
    seed: int = 0,
) -> TailFunctional:
    """rk_tail profile over a radii sweep, with per-radius solver statistics.

    Each radius is one :func:`rk_tail` solve, from ``seed``, on its view from
    :func:`tail_views`.  The solves run on a thread pool and are collected
    in radius order; an exception raised in a solve is raised here.
    """
    # Imported here so that runs which never sweep do not load the executor.
    from concurrent.futures import ThreadPoolExecutor

    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0.0):
        raise ValueError("radii must be strictly increasing")
    _, tails = tail_views(fgrid, grid, radii)
    pool = ThreadPoolExecutor(_sweep_workers(len(tails)))
    try:
        solves = list(pool.map(lambda S_tail: rk_tail(A, S_tail, grid, seed=seed), tails))
    finally:
        pool.shutdown(cancel_futures=True)
    return TailFunctional(
        radii=radii,
        values=np.array([res.value for res in solves]),
        iterations=np.array([res.iterations for res in solves]),
        converged=np.array([res.converged for res in solves]),
        residuals=np.array([res.residual for res in solves]),
        witnesses=[res.witness for res in solves],
    )


def singular_spectrum(A: np.ndarray, k: int) -> np.ndarray:
    """Top-k singular values of a dense matrix (square or not), descending.

    This is the package's one dense SVD: the oracle that Lanczos tail solves
    are checked against.  For an operator matrix acting on sample vectors the
    singular values equal those of the induced operator on the discrete L2
    space (the h-weighting cancels under the natural isometry).
    """
    if not 1 <= k <= min(A.shape):
        raise ValueError("k must satisfy 1 <= k <= min(A.shape)")
    # Imported here so that runs which never take a dense SVD do not load it.
    import scipy.linalg

    sv = scipy.linalg.svdvals(A)
    return sv[:k]
