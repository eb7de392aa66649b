"""Riesz-Kolmogorov tail functionals and singular-value compactness proxies.

The tail functional at radius R is the squared operator norm of the
composite map f |-> (sqrt(dlambda) <Tf, psi_node>)_{node in tail(R)}: the
supremum over the L2 unit ball of the coefficient energy of Tf outside the
hyperbolic disk of radius R.  It is the top eigenvalue of the composite
map's normal operator, computed by Lanczos (ARPACK ``eigsh``) from a seeded
start vector.  Vanishing tails as R grows indicate a precompact image; the
functional is reported together with the maximizing input (the witness) and
the solver's statistics, so verdicts are auditable.

Discretized operators A with (Tf)(x_i) = (A f)_i for sample vectors f are
applied only through ``matvec``/``rmatvec`` of a
:class:`~czframe.operators.DiscreteOperator`; for a CZ kernel it comes from
:func:`~czframe.operators.discretize` (A = kernel_matrix * h, Toeplitz/FFT
for convolution kernels), and a plain matrix is taken as the dense
operator; :func:`operator_matrix` is the dense A (SVD cross-check, test
oracle).  The analysis operator is the lattice's cached
:func:`~czframe.wavelets.frame_rows` matrix with rows scaled by
sqrt(dlambda) * h.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .grids import FrameGrid, SampledFunction, SpatialGrid, tail_nodes
from .operators import CZKernel, DiscreteOperator, as_operator, kernel_matrix
from .wavelets import frame_rows

__all__ = [
    "LanczosResult",
    "TailFunctional",
    "analysis_operator",
    "operator_matrix",
    "rk_tail",
    "tail_functional",
    "singular_spectrum",
    "tail_verdict",
]

VANISHING_THRESHOLD = 1e-2
NON_VANISHING_THRESHOLD = 0.1


def operator_matrix(kernel: CZKernel, grid: SpatialGrid) -> np.ndarray:
    """Dense sample-space matrix of the PV-discretized operator."""
    return kernel_matrix(kernel, grid) * grid.h


def analysis_operator(psi, fgrid: FrameGrid, grid: SpatialGrid) -> scipy.sparse.csr_matrix:
    """Sparse map g |-> (sqrt(dlambda_node) <g, psi_node>)_node.

    Row ``k`` holds sqrt(dlambda_k) * h * psi_k(x_i) over the grid window
    intersecting the support of the frame element at node k: the cached
    :func:`~czframe.wavelets.frame_rows` matrix scaled row by row.
    """
    weights = scipy.sparse.diags(np.sqrt(fgrid.dlam) * grid.h)
    return (weights @ frame_rows(psi, fgrid, grid)).tocsr()


@dataclass
class LanczosResult:
    """Largest squared singular value of the composite tail map.

    ``iterations`` counts applications of the normal operator, ``residual``
    is ``||B u - value u||`` for the unit witness direction ``u``, and
    ``converged`` holds only when ARPACK converged and that residual is at
    most ``tol * |value|``.
    """

    value: float
    witness: SampledFunction
    iterations: int
    converged: bool
    residual: float


@dataclass
class TailFunctional:
    """rk_tail profile of one operator over a radii list, with per-radius solver stats."""

    operator_label: str
    radii: np.ndarray
    values: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residuals: np.ndarray
    witnesses: list[SampledFunction] = field(default_factory=list, repr=False)
    verdict: str = "inconclusive"

    def ratio(self) -> float:
        return float(self.values[-1] / self.values[0]) if self.values[0] else 0.0


def _lanczos_top(
    B_apply, n: int, tol: float, maxiter: int, seed: int
) -> tuple[float, np.ndarray, int, bool, float]:
    """Top eigenpair of the symmetric PSD map ``B_apply`` by ARPACK Lanczos.

    The start vector comes from ``default_rng(seed)``.  Returns the Ritz value,
    its unit vector, the number of ``B_apply`` calls, whether it converged and
    the residual norm.  An operator that maps the start vector to exactly zero
    is taken to be zero after one application, since ARPACK needs a nontrivial
    Krylov space.
    """
    # Imported here so that runs which never solve do not load ARPACK.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    v0 = np.random.default_rng(seed).standard_normal(n)
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
        lams, vecs = eigsh(B, k=1, which="LA", v0=v0, tol=tol, maxiter=maxiter)
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
    return lam, u, calls, ok and residual <= tol * abs(lam), residual


def rk_tail(
    A: DiscreteOperator | np.ndarray,
    S: scipy.sparse.csr_matrix,
    fgrid: FrameGrid,
    grid: SpatialGrid,
    R: float,
    tol: float = 1e-6,
    maxiter: int = 500,
    seed: int = 0,
) -> LanczosResult:
    """Sup over the L2 unit ball of tail coefficient energy of Tf.

    ``A`` is the sample-space operator (a matrix is taken as the dense
    operator) and ``S`` the analysis operator from
    :func:`analysis_operator` (pass it in so sweeps over R reuse the
    assembly).  Lanczos (ARPACK ``eigsh``) runs on the normal
    matrix of the composite map from a seeded start vector, with tolerance
    ``tol`` and at most ``maxiter`` restarts; on non-convergence the best
    Ritz value found is still reported, with ``converged=False``.
    """
    A = as_operator(A)
    mask = tail_nodes(fgrid, R)
    S_tail = S[mask]
    root_h = np.sqrt(grid.h)

    def B_apply(u: np.ndarray) -> np.ndarray:
        c = S_tail @ A.matvec(u / root_h)
        return A.rmatvec(S_tail.T @ c) / root_h

    lam, u, calls, ok, residual = _lanczos_top(B_apply, grid.N, tol, maxiter, seed)
    return LanczosResult(
        value=max(lam, 0.0),
        witness=SampledFunction(grid, u / root_h),
        iterations=calls,
        converged=ok,
        residual=residual,
    )


def tail_functional(
    A: DiscreteOperator | np.ndarray,
    psi,
    fgrid: FrameGrid,
    grid: SpatialGrid,
    radii,
    label: str = "",
    keep_witnesses: bool = True,
    **kwargs,
) -> TailFunctional:
    """rk_tail profile over a radii sweep with a trend verdict."""
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0.0):
        raise ValueError("radii must be strictly increasing")
    S = analysis_operator(psi, fgrid, grid)
    solves = [rk_tail(A, S, fgrid, grid, float(r), **kwargs) for r in radii]
    values = np.array([res.value for res in solves])
    return TailFunctional(
        operator_label=label,
        radii=radii,
        values=values,
        iterations=np.array([res.iterations for res in solves]),
        converged=np.array([res.converged for res in solves]),
        residuals=np.array([res.residual for res in solves]),
        witnesses=[res.witness for res in solves] if keep_witnesses else [],
        verdict=tail_verdict(values),
    )


def tail_verdict(values: np.ndarray) -> str:
    """Trend verdict: vanishing / non-vanishing / inconclusive.

    A finite grid cannot certify the infinite-volume limit; the verdict
    classifies the observed trend of tail(R_max)/tail(0) only, and callers
    must read it together with the truncation box recorded in reports.
    """
    if values[0] <= 0.0:
        return "vanishing"
    ratio = values[-1] / values[0]
    if ratio < VANISHING_THRESHOLD:
        return "vanishing"
    if ratio > NON_VANISHING_THRESHOLD:
        return "non-vanishing"
    return "inconclusive"


def singular_spectrum(A: np.ndarray, k: int) -> np.ndarray:
    """Top-k singular values of the discretized operator matrix, descending.

    ``A`` acts on sample vectors; its singular values equal those of the
    induced operator on the discrete L2 space (the h-weighting cancels
    under the natural isometry).
    """
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= N")
    # Imported here so that runs which never take a dense SVD do not load it.
    import scipy.linalg

    sv = scipy.linalg.svdvals(A)
    return sv[:k]
