"""Paraproducts with wavelet symbols and the operator decomposition.

P_beta f = sum over lattice nodes of <f, phitilde_(a,b)> <beta, psi_(a,b)>
psi_(a,b) dlambda, where phitilde is the L1-normalized dilation
a^-1 phi((. - b)/a) of the plateau bump phi; psi and phi are the generators
fixed in :mod:`czframe.wavelets`.  Pairing with phitilde makes P_beta 1 =
m_phi * beta up to reproducing-formula error, with m_phi = integral of phi
= 3/2 (:data:`~czframe.wavelets.M_PHI`) reported explicitly rather than
silently renormalized.  A symbol beta is passed as its coefficient field
``analyze(beta, make_mother_wavelet(), fgrid)``, except to
:func:`paraproduct_compactness`, which takes the symbols themselves.

The decomposition T = S + P_1 + P_2* takes the computed T1 and T*1 as
symbols, scaled by 1/m_phi so the paraproducts carry the symbols exactly
and S1 pairs to zero; S is a handle acting by Sf = Tf - P_1 f - P_2* f,
which makes the reconstruction identity exact by construction.  One
discretization of T gives T1, T*1 (its window sums) and Tf.

On sample vectors P_beta is the factored operator Psi^T diag(d) Phi of
:func:`paraproduct_operator`, the one place P_beta is formed:
:func:`paraproduct_apply` and :func:`paraproduct_adjoint_apply` are its
``matvec`` and ``rmatvec``, and its tail sweeps need no dense matrix.  Psi
and Phi are the cached :func:`~czframe.wavelets.frame_rows` matrices of psi
and phi, whose rows are the L2 dilates a^-1/2 phi((. - b)/a); the L1 dilate
phitilde is a^-1/2 times that, so the factor a^-1/2 rides on d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compactness import TailFunctional, tail_functional
# Unused here; perfbench's tracer test checks that this module binds them.
from .compactness import operator_matrix, singular_spectrum  # noqa: F401
from .grids import FrameGrid, SampledFunction, SpatialGrid
from .operators import CZKernel, DiscreteOperator, compute_T1, compute_T1star, discretize
from .wavelets import (M_PHI, CoefficientField, analyze, bump_phi, frame_rows, make_mother_wavelet,
                       synthesize)

__all__ = [
    "paraproduct_apply",
    "paraproduct_adjoint_apply",
    "paraproduct_apply_to_constant",
    "paraproduct_adjoint_apply_to_constant",
    "paraproduct_operator",
    "paraproduct_compactness",
    "Decomposition",
    "decompose",
]


def paraproduct_apply(
    symbol: CoefficientField, f: SampledFunction
) -> SampledFunction:
    """P_beta f, the ``matvec`` of :func:`paraproduct_operator`."""
    return SampledFunction(f.grid, paraproduct_operator(symbol, f.grid).matvec(f.values))


def paraproduct_apply_to_constant(
    symbol: CoefficientField, grid: SpatialGrid
) -> SampledFunction:
    """P_beta applied to the constant 1, with the pairing taken analytically.

    The constant is not square integrable and any box truncation distorts
    its bump pairings at scales comparable to the box, so the exact value
    <1, phitilde_(a,b)> = m_phi is used at every node; the result is m_phi
    times the lattice reconstruction of beta.
    """
    weighted = CoefficientField(symbol.fgrid, M_PHI * symbol.values)
    return synthesize(weighted, make_mother_wavelet(), grid)


def paraproduct_adjoint_apply_to_constant(
    symbol: CoefficientField, grid: SpatialGrid
) -> SampledFunction:
    """P*_beta applied to the constant 1: identically zero since integral psi = 0."""
    return SampledFunction(grid, np.zeros(grid.N))


def paraproduct_adjoint_apply(
    symbol: CoefficientField, g: SampledFunction
) -> SampledFunction:
    """P*_beta g = sum <g, psi_node> symbol coeff phitilde_node dlambda, the ``rmatvec``.

    Symbols are the analysis of real data, so their coefficients are real and
    the adjoint is the transpose of :func:`paraproduct_operator`.
    """
    return SampledFunction(g.grid, paraproduct_operator(symbol, g.grid).rmatvec(g.values))


def paraproduct_operator(
    symbol: CoefficientField, grid: SpatialGrid
) -> DiscreteOperator:
    """P_beta on sample vectors as the factored operator Psi^T diag(d) Phi.

    Psi and Phi are the cached :func:`frame_rows` matrices of psi and phi,
    and d = symbol coefficients * dlambda * h a^-1/2, which folds the
    quadrature weight and the L1 normalization of phi into the diagonal.
    """
    fgrid = symbol.fgrid
    d = symbol.values * fgrid.dlam * grid.h / np.sqrt(fgrid.a)
    Psi, Phi = frame_rows(make_mother_wavelet(), fgrid, grid), frame_rows(bump_phi, fgrid, grid)
    return DiscreteOperator(grid.N, factors=(Psi, d, Phi))


def paraproduct_compactness(
    betas: list[SampledFunction],
    fgrid: FrameGrid,
    radii,
    seed: int = 0,
) -> list[TailFunctional]:
    """Tail functional of P_beta for each symbol beta in ``betas``, in order.

    The symbols share one grid, and their factored operators are swept in
    one :func:`tail_functional` call.  No symbol means no work and an empty
    list.
    """
    if not betas:
        return []
    grid, psi = betas[0].grid, make_mother_wavelet()
    ops = [paraproduct_operator(analyze(beta, psi, fgrid), grid) for beta in betas]
    return tail_functional(ops, fgrid, grid, radii, seed=seed)


@dataclass
class Decomposition:
    """Handles for T = S + P_1 + P_2* with 1/m_phi folded into the symbols."""

    symbol_t1: CoefficientField
    symbol_t1star: CoefficientField
    t1: SampledFunction
    t1star: SampledFunction
    t1_truncation_error: float
    T: DiscreteOperator = field(repr=False)  # T on the grid, discretized once

    def apply_p1(self, f: SampledFunction) -> SampledFunction:
        return paraproduct_apply(self.symbol_t1, f)

    def apply_p2_adjoint(self, f: SampledFunction) -> SampledFunction:
        return paraproduct_adjoint_apply(self.symbol_t1star, f)

    def apply_t(self, f: SampledFunction) -> SampledFunction:
        return SampledFunction(f.grid, self.T.matvec(f.values))

    def parts(self, f: SampledFunction) -> tuple[SampledFunction, ...]:
        """(T f, S f, P_1 f, P_2* f), each operator applied once: S f = T f - P_1 f - P_2* f."""
        tf = self.apply_t(f)
        p1 = self.apply_p1(f)
        p2 = self.apply_p2_adjoint(f)
        return tf, SampledFunction(f.grid, tf.values - p1.values - p2.values), p1, p2

    def apply_s(self, f: SampledFunction) -> SampledFunction:
        return self.parts(f)[1]

    def s_applied_to_constant(self) -> SampledFunction:
        """S1 = T1 - P_1(1) - P_2*(1), constant paths taken analytically.

        Equals T1 minus its lattice reconstruction; a small result means
        the paraproduct has absorbed the symbol.
        """
        grid = self.t1.grid
        p1 = paraproduct_apply_to_constant(self.symbol_t1, grid)
        return SampledFunction(grid, self.t1.values - p1.values)


def decompose(
    kernel: CZKernel, fgrid: FrameGrid, grid: SpatialGrid
) -> Decomposition:
    """Split T into a cancellative part and two symbol paraproducts.

    The paraproduct symbols are T1/m_phi and T*1/m_phi, so P_1 applied to
    the constant reproduces T1 itself (up to reproducing-formula error)
    and S1 pairs to zero against well-resolved wavelets.
    """
    T = discretize(kernel, grid)
    t1, err = compute_T1(kernel, grid, T)
    t1s, _ = compute_T1star(kernel, grid, T)
    psi = make_mother_wavelet()
    return Decomposition(
        symbol_t1=analyze(SampledFunction(grid, t1.values / M_PHI), psi, fgrid),
        symbol_t1star=analyze(SampledFunction(grid, t1s.values / M_PHI), psi, fgrid),
        t1=t1,
        t1star=t1s,
        t1_truncation_error=err,
        T=T,
    )
