"""Riesz-Kolmogorov tail functionals and their dense singular-value oracle.

The tail functional at radius R is the squared operator norm of the
composite map f |-> (sqrt(dlambda) <Tf, psi_node>)_{node in tail(R)}: the
supremum over the L2 unit ball of the coefficient energy of Tf outside the
hyperbolic disk of radius R.  It is the top eigenvalue of the composite
map's normal operator, computed by one Lanczos loop from a seeded start
vector that stops once the top Ritz pair has converged
(:func:`_lanczos_top`).  Vanishing tails as R grows indicate a precompact
image; the functional is reported together with the maximizing input (the
witness) and the solver's statistics.  It returns numbers only;
:mod:`czframe.reporting` classifies them against each record's check bounds.

Discretized operators A with (Tf)(x_i) = (A f)_i for sample vectors f are
applied only through ``matvec``/``rmatvec`` of a
:class:`~czframe.operators.DiscreteOperator`; for a CZ kernel it comes from
:func:`~czframe.operators.discretize` (A = kernel_matrix * h, Toeplitz/FFT
for convolution kernels, sparse factors for rank-one kernels).
:func:`operator_matrix` is the dense A (SVD cross-check, test oracle); wrap it
as ``DiscreteOperator(N, matrix=A)`` to solve on it.
:func:`singular_spectrum` is the one dense SVD, the oracle a Lanczos solve is
checked against.  The analysis operator holds the rows of the fixed mother
wavelet that it is asked for, from :func:`~czframe.wavelets.frame_rows`,
scaled by sqrt(dlambda) * h, one number for the whole lattice: taken from
the lattice's cached matrix when there is one, which stays unscaled, and
otherwise built for that call and never cached, so a tail sweep alone leaves
no rows on the lattice.

A sweep over radii (:func:`tail_functional`) solves every operator on every
distinct tail; two radii whose tails hold the same nodes share one solve.
One walk, :func:`_tails`, orders the nodes once by decreasing
``fgrid.dist0`` and each band (the nodes one tail adds to the next smaller
one) in lattice order, so every tail(R) is a prefix of that one order, and
yields each tail's operand on one of two routes, chosen by :func:`_use_gram`
from the sizes alone.  When the N x N Gram matrix G_R = S_R^T S_R of the
first tail has no more entries than its rows have nonzeros twice over, one G
is accumulated in place from the largest radius down, band by band, in
dense blocks of one size (:func:`_add_gram`), and after each band every
operator is solved on v |-> A^T(G(Av))/h, one operator after another.  Only
G's upper triangle is kept (its lower one holds partial sums that are never
read), and each application is one BLAS symmetric matrix-vector product
(``dsymv``) over that half instead of two sparse products.  Both of the
route's dense BLAS calls, the build's panel products (``dgemm``) and
``dsymv``, go through ``scipy.linalg.blas``: numpy bundles an OpenBLAS of
its own, whose thread pool would keep spinning between builds and compete
with scipy's for the same cores.  Otherwise the first tail's rows are copied
once, in that order, and that is the only copy: each tail is the copy's
first rows from :func:`~czframe.wavelets.row_range`, read-only views of its
``data`` and ``indices`` with a new ``indptr``.  The solves run concurrently
on a thread pool with one worker per usable core, collected in a fixed
order, so that route's result is bitwise independent of the worker count.  The two routes agree to rounding.  The
Gram route's products go through BLAS, whose rounding may depend on its
thread count, so a report is byte-identical when re-run in the
same environment.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .grids import FrameGrid, SampledFunction, SpatialGrid, tail_nodes
from .operators import CZKernel, DiscreteOperator, kernel_matrix
from . import wavelets  # ROW_BLOCK is read at call time, so one value sizes the runs and panels
from .wavelets import _windows, frame_rows, make_mother_wavelet, row_range, row_runs

__all__ = [
    "LanczosResult",
    "TailFunctional",
    "analysis_operator",
    "operator_matrix",
    "rk_tail",
    "tail_functional",
    "singular_spectrum",
]

# Relative tolerance of every Lanczos tail solve, and its cap on applications
# of the normal operator; the largest solve measured took 190 (Hilbert, N = 4096).
_TOL = 1e-6
_MAXITER = 500


def _use_gram(n: int, nnz: float) -> bool:
    """Whether a tail sweep on ``n`` samples runs on the N x N Gram matrix.

    ``nnz`` is the row nonzeros of the first (largest) tail.  One application
    of the rows and their transpose reads 2 nnz entries; one of the Gram
    matrix reads the N^2/2 of its upper triangle, but the Gram is still taken
    only when N^2 <= 2 nnz: a looser rule would move the N = 4096 refinement
    run onto a 134 MB Gram that no workload measures.
    :class:`~czframe.config.SuiteConfig` applies the same rule to its row
    estimate.
    """
    return n * n <= 2.0 * nnz


def operator_matrix(kernel: CZKernel, grid: SpatialGrid) -> np.ndarray:
    """Dense sample-space matrix of the PV-discretized operator."""
    return kernel_matrix(kernel, grid) * grid.h


def analysis_operator(
    fgrid: FrameGrid, grid: SpatialGrid, order: np.ndarray | None = None
) -> scipy.sparse.csr_matrix:
    """Sparse map g |-> (sqrt(dlambda) <g, psi_node>)_node.

    Row ``k`` holds sqrt(dlambda) * h * psi_k(x_i) over the grid window
    intersecting the support of the frame element at node k, its rows taken
    in ``order`` (node order by default): those rows from
    :func:`~czframe.wavelets.frame_rows` times the one number
    sqrt(dlambda) * h, in place unless they are a read-only slice of the
    lattice's cache, which then gets new data and stays unscaled.
    """
    if order is None:
        order = np.arange(fgrid.n_nodes)
    S = frame_rows(make_mother_wavelet(), fgrid, grid, order)
    out = S.data if S.data.flags.writeable else None  # a read-only slice of the cache: new data
    S.data = np.multiply(S.data, np.sqrt(fgrid.dlam) * grid.h, out=out)
    return S


def _tail_counts(fgrid: FrameGrid, radii) -> list[int]:
    """Node count of each tail(R), R in ``radii``; a negative or NaN R raises ``ValueError``."""
    return [int(np.count_nonzero(tail_nodes(fgrid, float(r)))) for r in radii]


def _add_gram(G: np.ndarray, fgrid: FrameGrid, grid: SpatialGrid, nodes: np.ndarray) -> None:
    """Add S^T S to ``G``'s upper triangle in place, S the analysis rows of ``nodes``.

    Every row is one contiguous window of columns (:func:`wavelets._windows`).
    Every row takes one path.  ``nodes`` is in lattice order, by scale and then
    by translation, as :func:`_tails` sorts each band, so a scale's windows
    come left to right.  The rows are walked in the runs of
    :func:`wavelets.row_runs`, each from :func:`analysis_operator`, so each row
    is evaluated once and an uncached lattice never holds them all; each of a
    run's blocks of ``wavelets.ROW_BLOCK`` rows is one dense block over the
    columns its windows span.  G is updated from a block ``ROW_BLOCK`` rows at
    a time, each panel from the block rows that meet its columns, over the
    columns from the panel's first one to the last those rows span, so only the
    panel's diagonal block reaches below the diagonal.  G's strict lower
    triangle is therefore not S^T S and must not be read.  Each panel is one
    ``scipy.linalg.blas.dgemm``, in the OpenBLAS that also runs the solves'
    ``dsymv`` (see the module docstring), on operands f2py takes uncopied: the
    block's transpose is F-contiguous, and only the panel's columns of it are
    copied, as the left factor.
    """
    # Imported here so that runs which never build a Gram do not load scipy.linalg.
    from scipy.linalg.blas import dgemm

    panel = wavelets.ROW_BLOCK
    for part in row_runs(fgrid, grid, nodes):
        starts, widths = _windows(fgrid, grid, part)  # as row_runs did: ~1 ms a default sweep
        ends = starts + widths
        S = analysis_operator(fgrid, grid, part)
        for r0 in range(0, part.size, panel):
            first, last = starts[r0:r0 + panel], ends[r0:r0 + panel]
            c0, c1 = int(first.min()), int(last.max())
            p = S.indptr[r0:r0 + first.size + 1]
            block = np.zeros((first.size, c1 - c0))
            block[np.repeat(np.arange(first.size), np.diff(p)), S.indices[p[0]:p[-1]] - c0] = \
                S.data[p[0]:p[-1]]
            for p0 in range(c0, c1, panel):
                p1 = min(p0 + panel, c1)
                meet = (first < p1) & (last > p0)
                if meet.any():  # the block's windows may leave a gap
                    j1 = max(int(last[meet].max()), p1)
                    D = block[meet, p0 - c0:j1 - c0]
                    left = np.ascontiguousarray(D[:, :p1 - p0].T)
                    # (D^T left^T)^T = left D: both operands F-contiguous, the result's .T C-order
                    G[p0:p1, p0:j1] += dgemm(1.0, D.T, left.T).T


def _tails(fgrid: FrameGrid, grid: SpatialGrid, counts, gram: bool):
    """Yield the operand of the tail of each row count n in ``counts``, in order.

    ``counts`` must be nondecreasing (radii from the largest down).  The nodes
    are ordered once, by the stable ``argsort(-fgrid.dist0)`` with each band
    (the nodes one tail adds to the one before) then sorted into lattice order,
    so a tail's n nodes are the first n and both routes take the rows in that
    one order.  With ``gram``, one N x N array is yielded every time, only its
    upper triangle holding S_n^T S_n: each band is added to it in place by
    :func:`_add_gram`, so use it before asking for the next.  Otherwise the
    largest tail's rows are copied once, into one :func:`analysis_operator`
    matrix, and S_n is yielded as its first n rows by
    :func:`wavelets.row_range`: read-only views of the copy's ``data`` and
    ``indices``, and a new ``indptr`` of n + 1 offsets.
    """
    order = np.argsort(-fgrid.dist0, kind="stable")
    for lo, hi in zip([0, *counts], counts):
        order[lo:hi].sort()
    if not gram:
        S = analysis_operator(fgrid, grid, order[:counts[-1]])
        for n in counts:
            yield row_range(S, 0, n)
        return
    G = np.zeros((grid.N, grid.N))
    for lo, hi in zip([0, *counts], counts):
        if hi > lo:
            _add_gram(G, fgrid, grid, order[lo:hi])
        yield G


@dataclass
class LanczosResult:
    """Largest squared singular value of the composite tail map.

    ``iterations`` counts applications of the normal operator, ``residual``
    is ``||B u - value u||`` for the unit witness direction ``u``, and
    ``converged`` holds when that residual is at most ``1e-6 * |value|``.
    A solve that reaches the cap of 500 applications without meeting its
    stop rule reports the Ritz pair it has, and that residual decides
    ``converged`` as for any other solve.
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


def _doubled(X: np.ndarray, cap: int) -> np.ndarray:
    """``X``'s rows atop as many unwritten ones (at most ``cap`` in all), C-order like ``X``."""
    Y = np.empty((min(2 * len(X), cap), X.shape[1]))
    Y[:len(X)] = X
    return Y


def _lanczos_top(B_apply, n: int, seed: int) -> tuple[float, np.ndarray, int, bool, float]:
    """Top eigenpair of the symmetric PSD map ``B_apply`` by one Lanczos loop.

    From the unit v0 of ``default_rng(seed)``, step k applies B to q_k, takes
    the three-term step and one classical Gram-Schmidt pass against every
    kept q, and a second pass only when the first removed more than
    1 - 1/sqrt(2) of the norm (Daniel, Gragg, Kaufman & Stewart, Math. Comp.
    30 (1976)).  With beta_k the norm left, it stops once beta_k |y_k| <=
    ``_TOL`` theta for the top pair (theta, y) of the tridiagonal matrix, or
    after ``min(_MAXITER, n)`` applications.  A breakdown (beta_k = 0) meets
    that rule, so the zero map ends after one application and a rank-one map
    or a multiple of a projector after two.  The q_k and the products B q_k
    are kept, as rows of two buffers that start at 16 rows and double when
    full, so the residual ``||B u - theta u||`` of the Ritz vector u costs no
    application; ``converged`` means it is at most ``_TOL * |theta|``.
    Returns theta, u, the number of applications, ``converged`` and that
    residual.  Every BLAS call is scipy's (see the module docstring).
    """
    # Imported here so that runs which never solve do not load scipy.linalg.
    from scipy.linalg.blas import ddot, dgemv, dnrm2
    from scipy.linalg.lapack import dstemr

    cap = min(_MAXITER, n)  # no more than n Lanczos vectors are orthogonal
    Q, BQ = np.empty((min(16, cap), n)), np.empty((min(16, cap), n))  # rows q_k, B q_k
    T = np.zeros((2, cap))  # the tridiagonal matrix: alpha_k, then beta_k
    q = np.random.default_rng(seed).standard_normal(n)
    q /= dnrm2(q)
    for k in range(cap):
        if k == len(Q):  # full: double both, one at a time; unwritten rows stay unresident
            Q = _doubled(Q, cap)
            BQ = _doubled(BQ, cap)
        Q[k] = q
        BQ[k] = B_apply(q)
        T[0, k] = ddot(q, BQ[k])
        r = BQ[k] - T[0, k] * q
        if k:
            r -= T[1, k - 1] * Q[k - 1]
        basis = Q[:k + 1].T  # F-contiguous, so BLAS reads it uncopied
        before = dnrm2(r)
        r = dgemv(-1.0, basis, dgemv(1.0, basis, r, trans=1), 1.0, r, overwrite_y=1)
        if dnrm2(r) < before / np.sqrt(2.0):
            r = dgemv(-1.0, basis, dgemv(1.0, basis, r, trans=1), 1.0, r, overwrite_y=1)
        T[1, k] = dnrm2(r)
        # only the top (k+1-th) pair; dstemr overwrites its off-diagonal argument
        _, theta, y, _ = dstemr(T[0, :k + 1], T[1, :k + 1].copy(), 3, 0.0, 0.0, k + 1, k + 1)
        if T[1, k] * abs(y[k, 0]) <= _TOL * theta[0]:
            break
        q = r / T[1, k]
    lam, y = float(theta[0]), y[:, 0]
    u = dgemv(1.0, basis, y)
    residual = float(dnrm2(dgemv(1.0, BQ[:k + 1].T, y) - lam * u))
    return lam, u, k + 1, residual <= _TOL * abs(lam), residual


def rk_tail(
    A: DiscreteOperator,
    S_tail: scipy.sparse.csr_matrix,
    grid: SpatialGrid,
    seed: int = 0,
) -> LanczosResult:
    """Sup over the L2 unit ball of tail coefficient energy of Tf.

    ``A`` is the sample-space operator and ``S_tail`` the rows of the
    analysis operator at the tail nodes, such as
    ``analysis_operator(fgrid, grid)[tail_nodes(fgrid, R)]`` or a row view
    from :func:`_tails`.  It may also be their N x N Gram matrix
    S_tail^T S_tail as a dense array, as :func:`_tails` yields it on the Gram
    route, of which only the upper triangle is read: it is applied by one
    BLAS ``dsymv``.
    One Lanczos loop (:func:`_lanczos_top`) runs on the normal matrix of the
    composite map from a seeded start vector and stops once the residual
    estimate of its top Ritz pair is at most 1e-6 times the Ritz value, or
    after 500 applications with the Ritz pair it has; ``converged`` says
    whether the explicit residual meets the same tolerance.  ``iterations``
    counts the applications: one for the zero map, two for a normal matrix
    whose nonzero eigenvalues are all equal (``finite_rank``'s is rank one),
    since its Krylov space breaks down.
    """
    root_h = np.sqrt(grid.h)
    if isinstance(S_tail, np.ndarray):
        # Imported here so that runs which never solve do not load scipy.linalg.
        from scipy.linalg.blas import dsymv

        def gram(x: np.ndarray) -> np.ndarray:
            # G.T is F-contiguous, so BLAS reads G's upper triangle as its lower, uncopied
            return dsymv(1.0, S_tail.T, x, lower=1)
    else:
        def gram(x: np.ndarray) -> np.ndarray:
            return S_tail.T @ (S_tail @ x)

    def B_apply(u: np.ndarray) -> np.ndarray:
        return A.rmatvec(gram(A.matvec(u / root_h))) / root_h

    lam, u, calls, ok, residual = _lanczos_top(B_apply, grid.N, seed)
    return LanczosResult(
        value=max(lam, 0.0),
        witness=SampledFunction(grid, u / root_h),
        iterations=calls,
        converged=ok,
        residual=residual,
    )


def _sweep_workers(n_solves: int) -> int:
    """Threads for a pooled sweep: one per usable core, at most one per solve."""
    return min(len(os.sched_getaffinity(0)), n_solves)


def tail_functional(
    operators,
    fgrid: FrameGrid,
    grid: SpatialGrid,
    radii,
    seed: int = 0,
) -> list[TailFunctional]:
    """rk_tail profile of each operator over a radii sweep, with per-radius solver statistics.

    Returns one :class:`TailFunctional` per operator in ``operators``, in
    order.  Each distinct tail is one :func:`rk_tail` solve per operator,
    from ``seed``; radii whose tails hold the same nodes share it.  The route
    is picked once, by :func:`_use_gram` on the first tail, and
    :func:`_tails` yields each tail's operand.  On the Gram route the solves
    run from the largest radius down, one operator after another, each on
    the one in-place Gram matrix.  Otherwise they run on the row views, all
    at once on a thread pool.  An exception raised in a solve is raised here.
    Empty, not strictly increasing, negative or NaN radii raise
    ``ValueError`` before anything is built; no operator means no work and
    an empty list.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("radii must be nonempty")
    if np.any(np.diff(radii) <= 0.0):
        raise ValueError("radii must be strictly increasing")
    counts = _tail_counts(fgrid, radii)
    operators = list(operators)
    if not operators:
        return []
    distinct = sorted(set(counts))  # one solve per tail, the smallest tail first
    _, widths = _windows(fgrid, grid, tail_nodes(fgrid, float(radii[0])))
    gram = _use_gram(grid.N, int(widths.sum()))
    tails = _tails(fgrid, grid, distinct, gram)
    if gram:
        solves = {}
        for n, G in zip(distinct, tails):
            for k, A in enumerate(operators):
                solves[k, n] = rk_tail(A, G, grid, seed=seed)
    else:
        views = dict(zip(distinct, tails))
        jobs = [(k, n) for k in range(len(operators)) for n in reversed(distinct)]  # radius order
        pool = ThreadPoolExecutor(_sweep_workers(len(jobs)))
        try:
            solved = pool.map(lambda job: rk_tail(operators[job[0]], views[job[1]], grid, seed=seed),
                              jobs)
            solves = dict(zip(jobs, solved))
        finally:
            pool.shutdown(cancel_futures=True)
    sweeps = []
    for k in range(len(operators)):
        res = [solves[k, n] for n in counts]
        sweeps.append(TailFunctional(
            radii=radii,
            values=np.array([r.value for r in res]),
            iterations=np.array([r.iterations for r in res]),
            converged=np.array([r.converged for r in res]),
            residuals=np.array([r.residual for r in res]),
            witnesses=[r.witness for r in res],
        ))
    return sweeps


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
