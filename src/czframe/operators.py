"""Calderon-Zygmund kernels: model zoo, principal-value application, T1, conjugation.

All kernels are given by vectorized evaluators K(x, y) defined off the
diagonal, together with declared size/smoothness constants (C_K, delta) and
structural flags.  Application to sampled functions is the principal-value
Riemann sum with the diagonal cell excluded; for antisymmetric kernels the
symmetric exclusion realizes the PV limit to first order in h only.  The
punctured sum omits the half-weight term at the singularity: H(1/(1+x^2))
on |x| <= 16 with L = 32 has relative error 1.465e-2, 7.32e-3 and 3.66e-3
at N = 1024, 2048 and 4096 (ROADMAP item 4 is the second-order rule).

:func:`discretize` is the one way a kernel becomes a sample-space operator,
a :class:`DiscreteOperator` (Tf)(x_i) = sum_j K(x_i, x_j) f(x_j) h applied
matrix-free where the kernel declares structure: a Toeplitz matrix by
circulant-embedded FFT for convolution kernels K(x, y) = k(x - y) (Chan & Ng,
SIAM Rev. 38, 1996), sparse factors A = Psi^T diag(d) Phi for rank-one kernels
K(x, y) = u(x) v(y), else the dense :func:`kernel_matrix`, which is also the
oracle of both structured backends.  Paraproducts use the factored backend
too.  T1 and T*1 are the operator's symmetric-window row and column sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.sparse

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
    ``factors`` is set for rank-one kernels only: K(x, y) = u(x) v(y), (u, v) = factors.
    """

    label: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    c_k: float
    delta: float
    antisymmetric: bool = False
    bounded: bool = False
    exact_cancellation: bool = False
    profile: Callable[[np.ndarray], np.ndarray] | None = None
    factors: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None

    def __call__(self, x, y):
        return self.fn(x, y)

    @property
    def dense(self) -> bool:
        """Whether :func:`discretize` stores this kernel as a dense N x N matrix."""
        return self.profile is None and self.factors is None


@dataclass(frozen=True)
class ModelOperator:
    """Zoo entry: a kernel and its one-line description."""

    kernel: CZKernel
    description: str = ""


def _hilbert(x, y):
    return 1.0 / (math.pi * (x - y))


def _hilbert_profile(d):
    return 1.0 / (math.pi * d)


def _damped_hilbert(alpha):
    def fn(x, y):
        return (1.0 + x * x + y * y) ** (-alpha / 2.0) / (math.pi * (x - y))

    return fn


def _zero(x, y):
    return np.zeros(np.broadcast(x, y).shape)


def _zero_profile(d):
    return np.zeros(np.shape(d))


def model_zoo() -> dict[str, ModelOperator]:
    """The fixed model operators, keyed by CLI label."""
    # smooth compactly supported factors of the rank-one kernel
    u = lambda x: smooth_bump(x, center=0.0, width=2.0)
    v = lambda y: smooth_bump(y, center=0.5, width=1.5)
    sup_uv = math.exp(-2.0)  # each bump peaks at exp(-1), at its centre
    return {
        "hilbert": ModelOperator(
            CZKernel("hilbert", _hilbert, c_k=1.0 / math.pi, delta=1.0,
                     antisymmetric=True, exact_cancellation=True, profile=_hilbert_profile),
            description="Hilbert transform kernel 1/(pi (x-y)); bounded, not compact",
        ),
        "damped_hilbert_05": ModelOperator(
            CZKernel("damped_hilbert_05", _damped_hilbert(0.5), c_k=2.0 / math.pi, delta=1.0,
                     antisymmetric=True),
            description="Hilbert kernel damped by (1+x^2+y^2)^{-1/4}",
        ),
        "damped_hilbert_1": ModelOperator(
            CZKernel("damped_hilbert_1", _damped_hilbert(1.0), c_k=2.0 / math.pi, delta=1.0,
                     antisymmetric=True),
            description="Hilbert kernel damped by (1+x^2+y^2)^{-1/2}",
        ),
        "finite_rank": ModelOperator(
            CZKernel("finite_rank", lambda x, y: u(x) * v(y), c_k=8.0 * sup_uv, delta=1.0,
                     bounded=True, factors=(u, v)),
            description="rank-one kernel u(x) v(y) with smooth compactly supported factors",
        ),
        "zero": ModelOperator(
            CZKernel("zero", _zero, c_k=0.0, delta=1.0, antisymmetric=True,
                     bounded=True, exact_cancellation=True, profile=_zero_profile),
            description="zero operator",
        ),
    }


def get_model(label: str) -> ModelOperator:
    zoo = model_zoo()
    if label not in zoo:
        raise KeyError(f"unknown operator label {label!r}; known: {sorted(zoo)}")
    return zoo[label]


# Entries per row block of :func:`kernel_matrix` and of the dense
# ``DiscreteOperator.window_sums``: 512 kB of float64, so the temporaries of a
# block stay small next to the N x N matrix it fills or reads.
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(n: int):
    """Consecutive row slices of an n x n matrix, each of about ``_BLOCK_ENTRIES`` entries."""
    m = max(1, _BLOCK_ENTRIES // n)
    return (slice(i, min(i + m, n)) for i in range(0, n, m))


def kernel_matrix(kernel: CZKernel, grid: SpatialGrid) -> np.ndarray:
    """Dense kernel matrix on the grid.

    For singular kernels the diagonal cell is zeroed (the PV exclusion);
    bounded kernels are evaluated on the diagonal as well, so e.g. a
    rank-one kernel stays exactly rank one after discretization.  K is
    filled a block of rows at a time (:func:`_row_blocks`), so the kernel's
    arithmetic temporaries are block-sized and the peak is K itself; the
    evaluation is elementwise, so K is bitwise the one-broadcast matrix.
    """
    x = grid.x
    K = np.empty((x.size, x.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in _row_blocks(x.size):
            K[rows] = kernel(x[rows, None], x[None, :])
    diag = np.nan_to_num(np.asarray(kernel(x, x), dtype=float)) if kernel.bounded else 0.0
    np.fill_diagonal(K, diag)
    return K


class DiscreteOperator:
    """Sample-space operator f |-> A f on a grid of N points, applied matrix-free.

    ``matvec`` applies A and ``rmatvec`` applies A^T, to a vector or column by
    column to an N x k array; the quadrature weight h is part of A.  The
    operator holds exactly one backend:

    - ``matrix``: the dense matrix A;
    - ``column``: for a Toeplitz A[i, j] = c[i - j], the length-2N circulant
      column (c[0..N-1], 0, c[-(N-1)..-1]), its rfft and the rfft's
      conjugate (the symbol of A^T), so each application is one rfft/irfft
      pair;
    - ``factors``: a triple (Psi, d, Phi) of sparse matrices and a weight
      vector with A = Psi^T diag(d) Phi, so ``matvec`` is Psi^T (d * Phi f)
      and ``rmatvec`` is Phi^T (d * Psi f); both transposes are the
      zero-copy ``.T`` views of the factors.

    ``dense()`` returns A.
    """

    def __init__(self, n: int, *, matrix: np.ndarray | None = None,
                 column: np.ndarray | None = None, factors: tuple | None = None):
        if sum(b is not None for b in (matrix, column, factors)) != 1:
            raise ValueError("DiscreteOperator needs exactly one of matrix, column and factors")
        self.n = n
        self.matrix = matrix
        self.column = column
        self.symbol = None if column is None else np.fft.rfft(column)
        # c[-m] embeds as the time reversal of c[m]'s column: A^T has the conjugate symbol
        self.conj_symbol = None if column is None else np.conj(self.symbol)
        self.factors = factors

    def _circulant(self, x: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        m = 2 * self.n
        s = symbol if x.ndim == 1 else symbol[:, None]
        return np.fft.irfft(np.fft.rfft(x, m, axis=0) * s, m, axis=0)[: self.n]

    def _factored(self, x: np.ndarray, inner, outer) -> np.ndarray:
        d = self.factors[1]
        return outer.T @ ((d if np.ndim(x) == 1 else d[:, None]) * (inner @ x))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix @ x
        if self.factors is not None:
            return self._factored(x, self.factors[2], self.factors[0])
        return self._circulant(x, self.symbol)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix.T @ x
        if self.factors is not None:
            return self._factored(x, self.factors[0], self.factors[2])
        return self._circulant(x, self.conj_symbol)

    def dense(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        if self.factors is not None:
            Psi, d, Phi = self.factors
            return (Psi.T @ (scipy.sparse.diags(d) @ Phi)).toarray()
        return self.matvec(np.eye(self.n))

    def window_sums(self, transpose: bool = False) -> np.ndarray:
        """Row sums of A (of A^T if ``transpose``) over |j - i| <= min(i, N - 1 - i).

        Each window is the largest one centred on node i inside the box.  A
        Toeplitz row or column window holds c[0] and the pairs c[m] + c[-m]:
        one prefix sum serves both, exactly 0 for an antisymmetric profile.
        Otherwise the rows of ``dense()`` are prefix-summed a block of rows at
        a time (:func:`_row_blocks`), so no second N x N array is made; a
        row's prefix sum does not depend on the other rows, so the sums are
        bitwise those of one whole-matrix cumsum.  For A^T the prefix sums of
        the columns are taken in row order instead, row j of a block being the
        sum of row j - 1 and A's row j, carried from block to block: each
        column adds its entries in the same order as a cumsum along A^T's
        strided rows, which it replaces.  Window i is its prefix sum at the
        window's end less the one just before its start, 0 when that is
        before the first entry.
        """
        n = self.n
        idx = np.arange(n)
        w = np.minimum(idx, n - 1 - idx)
        if self.column is not None:
            c = self.column
            return c[0] + np.concatenate([[0.0], np.cumsum(c[1:n] + c[:n:-1])])[w]
        A = self.dense()
        if not transpose:
            out = np.empty(n, dtype=A.dtype)
            for rows in _row_blocks(n):
                csum = np.cumsum(A[rows], axis=1)
                i, wi = idx[rows], w[rows]
                r = i - rows.start
                out[rows] = csum[r, i + wi] - np.where(i > wi, csum[r, i - wi - 1], 0.0)
            return out
        # column i's prefix sums at row i + w[i] (hi) and row i - w[i] - 1 (lo, 0 if none)
        hi, lo = np.empty(n, dtype=A.dtype), np.zeros(n, dtype=A.dtype)
        blocks = list(_row_blocks(n))
        buf = np.empty((blocks[0].stop, n), dtype=A.dtype)  # the first block is the tallest
        last = np.zeros(n, dtype=A.dtype)  # a row of buf, read before the next block overwrites it
        for rows in blocks:
            csum = buf[: rows.stop - rows.start]
            np.add(last, A[rows.start], out=csum[0])
            for j in range(1, csum.shape[0]):
                np.add(csum[j - 1], A[rows.start + j], out=csum[j])
            last = csum[-1]
            for row, sums in ((idx + w, hi), (idx - w - 1, lo)):
                cols = np.flatnonzero((row >= rows.start) & (row < rows.stop))
                sums[cols] = csum[row[cols] - rows.start, cols]
        return hi - lo


def discretize(kernel: CZKernel, grid: SpatialGrid) -> DiscreteOperator:
    """The operator matrix kernel_matrix(kernel, grid) * h as a :class:`DiscreteOperator`.

    A kernel neither antisymmetric nor bounded has no diagonal-excluding PV
    quadrature and raises ``ValueError``.  A convolution ``profile`` gives the
    Toeplitz backend: c[m] = profile(m h) h, m = -(N-1) .. N-1, with the same
    diagonal policy as :func:`kernel_matrix` at m = 0.  Rank-one ``factors``
    (u, v) give the factored backend (U, [1], V h) with the 1 x N CSR rows U and
    V of u(x) and v(x).  Any other kernel gets the dense backend.
    """
    if not (kernel.antisymmetric or kernel.bounded):
        raise ValueError(f"kernel {kernel.label!r} is neither antisymmetric nor bounded; "
                         "PV quadrature with diagonal exclusion is unsupported")
    N, h = grid.N, grid.h
    if kernel.factors is not None:
        U, V = (scipy.sparse.csr_matrix(np.asarray(w(grid.x), dtype=float)[None, :])
                for w in kernel.factors)
        return DiscreteOperator(N, factors=(U, np.ones(1), V * h))
    if kernel.dense:
        A = kernel_matrix(kernel, grid)
        A *= h  # in place: bitwise kernel_matrix * h, without a second N x N array
        return DiscreteOperator(N, matrix=A)
    m = np.arange(-(N - 1), N)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.asarray(kernel.profile(m * h), dtype=float)
    c[N - 1] = np.nan_to_num(c[N - 1]) if kernel.bounded else 0.0
    return DiscreteOperator(N, column=np.concatenate([c[N - 1:], [0.0], c[: N - 1]]) * h)


def apply_kernel(kernel: CZKernel, f: SampledFunction) -> SampledFunction:
    """Principal-value quadrature Tf(x) = sum_{y != x} K(x, y) f(y) h."""
    return SampledFunction(f.grid, discretize(kernel, f.grid).matvec(f.values))


def truncation_tail_bound(kernel: CZKernel, grid: SpatialGrid) -> float:
    """Analytic bound C_K * int_{|y| > L} |y|^{-1-delta} dy on the omitted T1 tail."""
    return kernel.c_k * 2.0 * grid.L ** (-kernel.delta) / kernel.delta


def compute_T1(kernel: CZKernel, grid: SpatialGrid,
               T: DiscreteOperator | None = None) -> tuple[SampledFunction, float]:
    """T1 as the symmetric-window PV sums ``T.window_sums()``, with the analytic tail bound.

    Antisymmetric kernels cancel pairwise exactly (the PV limit).  ``T``
    defaults to the dense discretization, the reference for the Toeplitz and
    factored sums; perfbench's tracer test counts its kernel assembly.
    """
    if T is None:
        T = discretize(replace(kernel, profile=None, factors=None), grid)
    return SampledFunction(grid, T.window_sums()), truncation_tail_bound(kernel, grid)


def transpose(kernel: CZKernel) -> CZKernel:
    """Kernel of the adjoint, K~(x, y) = K(y, x); rank-one factors swap."""
    fn, k, uv = kernel.fn, kernel.profile, kernel.factors
    return replace(
        kernel,
        label=kernel.label + "_transpose",
        fn=lambda x, y: fn(y, x),
        profile=None if k is None else (lambda d: k(-d)),
        factors=None if uv is None else uv[::-1],
    )


def compute_T1star(kernel: CZKernel, grid: SpatialGrid,
                   T: DiscreteOperator | None = None) -> tuple[SampledFunction, float]:
    """T*1, the window sums of A^T: T1 of the transposed kernel; ``T`` as in :func:`compute_T1`."""
    if T is None:
        T = discretize(replace(kernel, profile=None, factors=None), grid)
    return SampledFunction(grid, T.window_sums(True)), truncation_tail_bound(kernel, grid)


def conjugate(kernel: CZKernel, g: GroupPoint) -> CZKernel:
    """Conjugated kernel K_{(a,b)}(x, y) = a K(a x + b, a y + b); same constants.

    A convolution profile k becomes d |-> a k(a d); translation drops out.
    Rank-one factors (u, v) become (x |-> a u(a x + b), y |-> v(a y + b)).
    """
    a, b = g.a, g.b
    fn, k, uv = kernel.fn, kernel.profile, kernel.factors
    return replace(
        kernel,
        label=f"{kernel.label}@({a:g},{b:g})",
        fn=lambda x, y: a * fn(a * x + b, a * y + b),
        profile=None if k is None else (lambda d: a * k(a * d)),
        factors=None if uv is None else (lambda x: a * uv[0](a * x + b),
                                         lambda y: uv[1](a * y + b)),
    )
