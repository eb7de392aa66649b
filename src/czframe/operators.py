"""Calderon-Zygmund kernels: model zoo, principal-value application, T1, conjugation.

All kernels are given by vectorized evaluators K(x, y) defined off the
diagonal, together with declared size/smoothness constants (C_K, delta) and
structural flags.  Application to sampled functions is the principal-value
Riemann sum with the diagonal cell excluded; for antisymmetric kernels the
symmetric exclusion realizes the PV limit with O(h^2) consistency.

:func:`discretize` turns a kernel into a :class:`DiscreteOperator`, the
sample-space map (Tf)(x_i) = sum_j K(x_i, x_j) f(x_j) h applied matrix-free.
Convolution kernels K(x, y) = k(x - y) give a Toeplitz matrix, applied by a
circulant-embedded FFT (Chan & Ng, SIAM Rev. 38, 1996); every other kernel
is applied through its dense :func:`kernel_matrix`, which also stays the
oracle for the Toeplitz backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geometry import GroupPoint
from .grids import SampledFunction, SpatialGrid, smooth_bump

__all__ = [
    "CZKernel",
    "DiscreteOperator",
    "ModelOperator",
    "model_zoo",
    "get_model",
    "kernel_matrix",
    "discretize",
    "as_operator",
    "apply_kernel",
    "compute_T1",
    "compute_T1star",
    "transpose",
    "conjugate",
]


@dataclass(frozen=True)
class CZKernel:
    """Off-diagonal kernel with its CZ constants and structural flags.

    ``profile`` is set for convolution kernels only: K(x, y) = profile(x - y).
    """

    label: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    c_k: float
    delta: float
    antisymmetric: bool = False
    bounded: bool = False
    exact_cancellation: bool = False
    profile: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x, y):
        return self.fn(x, y)


@dataclass(frozen=True)
class ModelOperator:
    """Zoo entry: kernel plus analytically known metadata."""

    kernel: CZKernel
    known_compact: bool | None = None  # None: not asserted
    description: str = ""


def finite_rank_factors():
    """Smooth compactly supported factors u, v of the rank-one model kernel."""
    u = lambda x: smooth_bump(x, center=0.0, width=2.0)
    v = lambda y: smooth_bump(y, center=0.5, width=1.5)
    return u, v


def _hilbert(x, y):
    return 1.0 / (math.pi * (x - y))


def _hilbert_profile(d):
    return 1.0 / (math.pi * d)


def _damped_hilbert(alpha):
    def fn(x, y):
        return (1.0 + x * x + y * y) ** (-alpha / 2.0) / (math.pi * (x - y))

    return fn


def _finite_rank(x, y):
    u, v = finite_rank_factors()
    return u(x) * v(y)


def _zero(x, y):
    return np.zeros(np.broadcast(x, y).shape)


def _zero_profile(d):
    return np.zeros(np.shape(d))


def model_zoo() -> dict[str, ModelOperator]:
    """The fixed model operators, keyed by CLI label."""
    u, v = finite_rank_factors()
    sup_uv = float(np.max(smooth_bump(np.linspace(-2, 2, 4001), 0, 2.0))) * float(
        np.max(smooth_bump(np.linspace(-1, 2, 4001), 0.5, 1.5))
    )
    return {
        "hilbert": ModelOperator(
            CZKernel("hilbert", _hilbert, c_k=1.0 / math.pi, delta=1.0,
                     antisymmetric=True, exact_cancellation=True, profile=_hilbert_profile),
            known_compact=False,
            description="Hilbert transform kernel 1/(pi (x-y)); bounded, not compact",
        ),
        "damped_hilbert_05": ModelOperator(
            CZKernel("damped_hilbert_05", _damped_hilbert(0.5), c_k=2.0 / math.pi, delta=1.0,
                     antisymmetric=True),
            known_compact=None,
            description="Hilbert kernel damped by (1+x^2+y^2)^{-1/4}",
        ),
        "damped_hilbert_1": ModelOperator(
            CZKernel("damped_hilbert_1", _damped_hilbert(1.0), c_k=2.0 / math.pi, delta=1.0,
                     antisymmetric=True),
            known_compact=None,
            description="Hilbert kernel damped by (1+x^2+y^2)^{-1/2}",
        ),
        "finite_rank": ModelOperator(
            CZKernel("finite_rank", _finite_rank, c_k=8.0 * sup_uv, delta=1.0, bounded=True),
            known_compact=True,
            description="rank-one kernel u(x) v(y) with smooth compactly supported factors",
        ),
        "zero": ModelOperator(
            CZKernel("zero", _zero, c_k=0.0, delta=1.0, antisymmetric=True,
                     bounded=True, exact_cancellation=True, profile=_zero_profile),
            known_compact=True,
            description="zero operator",
        ),
    }


def get_model(label: str) -> ModelOperator:
    zoo = model_zoo()
    if label not in zoo:
        raise KeyError(f"unknown operator label {label!r}; known: {sorted(zoo)}")
    return zoo[label]


def kernel_matrix(kernel: CZKernel, grid: SpatialGrid) -> np.ndarray:
    """Dense kernel matrix on the grid.

    For singular kernels the diagonal cell is zeroed (the PV exclusion);
    bounded kernels are evaluated on the diagonal as well, so e.g. a
    rank-one kernel stays exactly rank one after discretization.
    """
    x = grid.x
    with np.errstate(divide="ignore", invalid="ignore"):
        K = kernel(x[:, None], x[None, :])
    if kernel.bounded:
        diag = np.asarray(kernel(x, x), dtype=float)
        K[np.arange(grid.N), np.arange(grid.N)] = np.nan_to_num(diag)
    else:
        np.fill_diagonal(K, 0.0)
    return K


class DiscreteOperator:
    """Sample-space operator f |-> A f on a grid of N points, applied matrix-free.

    ``matvec`` applies A and ``rmatvec`` applies A^T, to a vector or column by
    column to an N x k array; the quadrature weight h is part of A.  The
    operator holds either the dense matrix A or, for a Toeplitz A[i, j] =
    c[i - j], the rfft of c's length-2N circulant embedding, so each
    application is one rfft/irfft pair.  Exactly one of ``matrix`` and
    ``symbol`` is given.  ``dense()`` returns A.
    """

    def __init__(self, n: int, *, matrix: np.ndarray | None = None, symbol: np.ndarray | None = None):
        if (matrix is None) == (symbol is None):
            raise ValueError("DiscreteOperator needs exactly one of matrix and symbol")
        self.n = n
        self.matrix = matrix
        self.symbol = symbol

    def _circulant(self, x: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        m = 2 * self.n
        s = symbol if x.ndim == 1 else symbol[:, None]
        return np.fft.irfft(np.fft.rfft(x, m, axis=0) * s, m, axis=0)[: self.n]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix @ x
        return self._circulant(x, self.symbol)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix.T @ x
        # c[-m] embeds as the time reversal of c[m]'s column: conjugate symbol
        return self._circulant(x, np.conj(self.symbol))

    def dense(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        return self.matvec(np.eye(self.n))


def discretize(kernel: CZKernel, grid: SpatialGrid) -> DiscreteOperator:
    """The operator matrix kernel_matrix(kernel, grid) * h as a :class:`DiscreteOperator`.

    A kernel with a convolution ``profile`` gets the Toeplitz backend: the
    2N - 1 values c[m] = profile(m h) h, m = -(N-1) .. N-1, with the same
    diagonal policy as :func:`kernel_matrix` at m = 0.  Any other kernel gets
    the dense backend.
    """
    N, h = grid.N, grid.h
    if kernel.profile is None:
        return DiscreteOperator(N, matrix=kernel_matrix(kernel, grid) * h)
    m = np.arange(-(N - 1), N)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.asarray(kernel.profile(m * h), dtype=float)
    c[N - 1] = np.nan_to_num(c[N - 1]) if kernel.bounded else 0.0
    # first column of the 2N circulant: c[0..N-1], one zero, c[-(N-1)..-1]
    column = np.concatenate([c[N - 1:], [0.0], c[: N - 1]]) * h
    return DiscreteOperator(N, symbol=np.fft.rfft(column))


def as_operator(A) -> DiscreteOperator:
    """``A`` itself if it is a :class:`DiscreteOperator`, else the dense operator of the matrix."""
    if isinstance(A, DiscreteOperator):
        return A
    A = np.asarray(A)
    return DiscreteOperator(A.shape[0], matrix=A)


def apply_kernel(kernel: CZKernel, f: SampledFunction, K: np.ndarray | None = None) -> SampledFunction:
    """Principal-value quadrature Tf(x) = sum_{y != x} K(x, y) f(y) h."""
    if not (kernel.antisymmetric or kernel.bounded):
        raise ValueError(
            f"kernel {kernel.label!r} is neither antisymmetric nor bounded; "
            "PV quadrature with diagonal exclusion is unsupported"
        )
    if K is None:
        K = kernel_matrix(kernel, f.grid)
    return SampledFunction(f.grid, (K @ f.values) * f.grid.h)


def truncation_tail_bound(kernel: CZKernel, grid: SpatialGrid) -> float:
    """Analytic bound C_K * int_{|y| > L} |y|^{-1-delta} dy on the omitted T1 tail."""
    return kernel.c_k * 2.0 * grid.L ** (-kernel.delta) / kernel.delta


def compute_T1(kernel: CZKernel, grid: SpatialGrid, K: np.ndarray | None = None,
               tol: float | None = None) -> tuple[SampledFunction, float]:
    """T1(x) as a symmetric-window PV integral of K(x, .), with its tail bound.

    Each node integrates over the largest window |y - x| <= W(x) that fits in
    the box, so antisymmetric kernels cancel pairwise exactly (the PV limit).
    The omitted region is covered by the analytic tail bound; callers may pass
    ``tol`` to fail fast when that estimate is too large for their purpose.
    """
    if K is None:
        K = kernel_matrix(kernel, grid)
    N = grid.N
    idx = np.arange(N)
    w = np.minimum(idx, N - 1 - idx)
    csum = np.cumsum(K, axis=1)
    hi = csum[idx, idx + w]
    lo_idx = idx - w - 1
    lo = np.where(lo_idx >= 0, csum[idx, np.maximum(lo_idx, 0)], 0.0)
    t1 = SampledFunction(grid, (hi - lo) * grid.h)
    tail = truncation_tail_bound(kernel, grid)
    if tol is not None and tail > tol:
        raise ValueError(f"T1 truncation tail bound {tail:.3e} exceeds tolerance {tol:.3e}")
    return t1, tail


def transpose(kernel: CZKernel) -> CZKernel:
    """Kernel of the adjoint, K~(x, y) = K(y, x)."""
    fn, k = kernel.fn, kernel.profile
    sign_note = "_transpose"
    return replace(
        kernel,
        label=kernel.label + sign_note,
        fn=lambda x, y: fn(y, x),
        profile=None if k is None else (lambda d: k(-d)),
    )


def compute_T1star(kernel: CZKernel, grid: SpatialGrid, K: np.ndarray | None = None,
                   tol: float | None = None) -> tuple[SampledFunction, float]:
    """T*1 = T1 of the transposed kernel; ``K`` is the kernel matrix of T itself."""
    return compute_T1(transpose(kernel), grid, K=None if K is None else K.T, tol=tol)


def conjugate(kernel: CZKernel, g: GroupPoint) -> CZKernel:
    """Conjugated kernel K_{(a,b)}(x, y) = a K(a x + b, a y + b); same constants.

    A convolution profile k becomes d |-> a k(a d); translation drops out.
    """
    a, b = g.a, g.b
    fn, k = kernel.fn, kernel.profile
    return replace(
        kernel,
        label=f"{kernel.label}@({a:g},{b:g})",
        fn=lambda x, y: a * fn(a * x + b, a * y + b),
        profile=None if k is None else (lambda d: a * k(a * d)),
    )
