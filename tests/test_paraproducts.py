"""Paraproduct identities, adjointness, compactness dichotomy, decomposition."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from czframe.compactness import tail_functional
from czframe.grids import (
    SampledFunction,
    SpatialGrid,
    inner_product,
    l2_norm,
    make_frame_grid,
    smooth_bump,
)
from czframe.operators import DiscreteOperator, get_model
from czframe.paraproducts import (
    Decomposition,
    decompose,
    paraproduct_adjoint_apply,
    paraproduct_adjoint_apply_to_constant,
    paraproduct_apply,
    paraproduct_apply_to_constant,
    paraproduct_compactness,
    paraproduct_operator,
)
from czframe.wavelets import M_PHI, analyze, bump_phi, frame_rows, make_mother_wavelet, synthesize


@pytest.fixture(scope="module")
def psi():
    return make_mother_wavelet()


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(32.0, 2048)


@pytest.fixture(scope="module")
def fgrid(grid):
    return make_frame_grid(grid, 0.0625, 512.0, s=0.125, cone_factor=1.0)


# The compact symbol of these tests: the smooth bump on [-2, 2].
_bump = partial(smooth_bump, center=0.0, width=2.0)


def test_bump_phi_shape():
    xs = np.linspace(-2.0, 2.0, 2001)
    vals = bump_phi(xs)
    assert np.all(vals[np.abs(xs) <= 0.5] == 1.0)  # plateau
    assert np.all(vals[np.abs(xs) >= 1.0] == 0.0)  # compact support
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.allclose(vals, bump_phi(-xs))  # even


def test_m_phi_is_the_integral_of_phi():
    # oracle for the closed form: the trapezoid rule on 100,001 points
    xs = np.linspace(-1.0, 1.0, 100001)
    assert float(np.trapezoid(bump_phi(xs), xs)) == pytest.approx(M_PHI, rel=0, abs=1e-12)


def test_transition_is_symmetric():
    # T(t) + T(1 - t) = 1 everywhere, the identity behind M_PHI = 3/2
    from czframe.wavelets import _transition

    t = np.linspace(-0.5, 1.5, 100001)
    assert np.max(np.abs(_transition(t) + _transition(1.0 - t) - 1.0)) <= 4 * np.finfo(float).eps


def test_apply_to_constant_reproduces_scaled_symbol(psi, grid, fgrid):
    beta = SampledFunction.from_callable(grid, _bump)
    sym = analyze(beta, psi, fgrid)
    out = paraproduct_apply_to_constant(sym, grid)
    # P_beta 1 = m_phi * (lattice reconstruction of beta) exactly
    rec = synthesize(sym, psi, grid)
    assert np.max(np.abs(out.values - M_PHI * rec.values)) < 1e-12
    # and approximately m_phi * beta at frame accuracy
    rel = l2_norm(SampledFunction(grid, out.values - M_PHI * beta.values)) / (
        M_PHI * l2_norm(beta)
    )
    assert rel < 0.05


def test_adjoint_kills_constants(psi, grid, fgrid):
    beta = SampledFunction.from_callable(grid, _bump)
    sym = analyze(beta, psi, fgrid)
    out = paraproduct_adjoint_apply_to_constant(sym, grid)
    assert np.max(np.abs(out.values)) <= 1e-9


def test_adjointness(psi, grid, fgrid):
    beta = SampledFunction.from_callable(grid, _bump)
    sym = analyze(beta, psi, fgrid)
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-(x**2)))
    g = SampledFunction.from_callable(grid, lambda x: np.exp(-(((x - 1.0) / 2.0) ** 2)))
    lhs = inner_product(paraproduct_apply(sym, f), g)
    rhs = inner_product(f, paraproduct_adjoint_apply(sym, g))
    assert abs(lhs - rhs) < 1e-10


def test_factored_operator_matches_paraproduct_matrix(psi):
    # oracle: Psi^T diag(coeff * dlambda) Phi h from per-node samples, with
    # the L2 dilates a^-1/2 psi((x - b)/a) and the L1 dilates a^-1 phi((x - b)/a)
    small = SpatialGrid(32.0, 512)
    sfg = make_frame_grid(small, 0.25, 16.0, s=0.25)
    sym = analyze(SampledFunction.from_callable(small, _bump), psi, sfg)
    u = (small.x[None, :] - sfg.b[:, None]) / sfg.a[:, None]
    Psi = psi(u) / np.sqrt(sfg.a)[:, None]
    Phi = bump_phi(u) / sfg.a[:, None] * small.h
    expected = Psi.T @ ((sym.values * sfg.dlam)[:, None] * Phi)
    P = paraproduct_operator(sym, small)
    scale = np.max(np.abs(expected))
    X = np.random.default_rng(0).standard_normal((small.N, 3))
    for got, want in (
        (P.dense(), expected),
        (P.matvec(X), expected @ X),
        (P.rmatvec(X), expected.T @ X),
        (P.matvec(X[:, 0]), expected @ X[:, 0]),
        (P.rmatvec(X[:, 0]), expected.T @ X[:, 0]),
    ):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * scale * max(1.0, np.max(np.abs(X)))


def test_building_the_operator_copies_no_rows(psi, grid, fgrid):
    # the factored backend applies Psi^T and Phi^T as views of the cached
    # rows, so building P_beta allocates only its diagonal d
    sym = analyze(SampledFunction.from_callable(grid, _bump), psi, fgrid)
    frame_rows(bump_phi, fgrid, grid)
    tracemalloc.start()
    try:
        P = paraproduct_operator(sym, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.factors[1].nbytes < peak < 4 * 2**20


@pytest.fixture(scope="module")
def wide():
    # the paraproduct diagnostic's lattice
    big = SpatialGrid(2048.0, 4096)
    return big, make_frame_grid(big, 2.0, 1024.0, s=0.25, L_b=1024.0, cone_factor=0.0)


def test_factored_and_dense_tail_sweeps_agree(psi, wide):
    big, pfg = wide
    radii = np.arange(0.0, 5.5, 0.5)
    sym = analyze(SampledFunction.from_callable(big, _bump), psi, pfg)
    A = DiscreteOperator(big.N, matrix=paraproduct_operator(sym, big).dense())
    factored, dense = tail_functional([paraproduct_operator(sym, big), A], pfg, big, radii)
    assert factored.converged.all() and dense.converged.all()
    assert np.array_equal(factored.iterations, dense.iterations)
    np.testing.assert_allclose(factored.values, dense.values, rtol=1e-12, atol=0.0)


def test_compactness_dichotomy(wide):
    # smooth compactly supported symbol -> vanishing tails; log symbol -> not
    big, pfg = wide
    radii = np.arange(0.0, 5.5, 1.0)
    beta_c = SampledFunction.from_callable(big, _bump)
    x0 = big.h / 3.0
    beta_l = SampledFunction.from_callable(big, lambda x: np.log(np.abs(x - x0)))
    tf_c, tf_l = paraproduct_compactness([beta_c, beta_l], pfg, radii)
    assert tf_c.values[-1] / tf_c.values[0] < 1e-2
    assert tf_l.values[-1] / tf_l.values[0] > 0.1
    assert tf_c.values[0] > 0.0 and tf_l.values[0] > 0.0
    # one two-symbol sweep returns bitwise what two one-symbol sweeps return
    for beta, got in ((beta_c, tf_c), (beta_l, tf_l)):
        [want] = paraproduct_compactness([beta], pfg, radii)
        for key in ("values", "iterations", "converged", "residuals"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), key
        assert np.array_equal(got.witnesses[-1].values, want.witnesses[-1].values)


def test_no_symbol_builds_nothing(wide, monkeypatch):
    from czframe import paraproducts

    for name in ("analyze", "paraproduct_operator", "tail_functional"):
        monkeypatch.setattr(paraproducts, name, lambda *a, name=name, **k: pytest.fail(f"called {name}"))
    assert paraproduct_compactness([], wide[1], np.arange(0.0, 5.5, 1.0)) == []


def test_decompose_hilbert_s_equals_t(grid, fgrid):
    # T1 = T*1 = 0 for the Hilbert kernel, so both symbols vanish and S = T
    dec = decompose(get_model("hilbert").kernel, fgrid, grid)
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-(x**2)))
    s = dec.apply_s(f)
    t = dec.apply_t(f)
    assert np.max(np.abs(s.values - t.values)) < 1e-9


def test_decompose_reconstruction_exact(grid, fgrid):
    # T = S + P1 + P2* holds by construction, bitwise
    dec = decompose(get_model("damped_hilbert_1").kernel, fgrid, grid)
    rng = np.random.default_rng(5)
    f = SampledFunction(grid, rng.standard_normal(grid.N) * np.exp(-((grid.x / 8.0) ** 2)))
    total = dec.apply_s(f).values + dec.apply_p1(f).values + dec.apply_p2_adjoint(f).values
    assert np.max(np.abs(total - dec.apply_t(f).values)) < 1e-12


def test_decomposition_parts_apply_each_operator_once(grid, fgrid, monkeypatch):
    # parts(f) is bitwise (T f, T f - P_1 f - P_2* f, P_1 f, P_2* f) from one
    # application each of T, P_1 and P_2*; apply_s is its S f
    from czframe import paraproducts

    dec = decompose(get_model("damped_hilbert_1").kernel, fgrid, grid)
    rng = np.random.default_rng(8)
    f = SampledFunction(grid, rng.standard_normal(grid.N))
    tf, p1, p2 = dec.apply_t(f), dec.apply_p1(f), dec.apply_p2_adjoint(f)
    calls = []
    matvec = dec.T.matvec
    monkeypatch.setattr(dec.T, "matvec", lambda x: calls.append("T") or matvec(x))
    operator = paraproducts.paraproduct_operator
    monkeypatch.setattr(paraproducts, "paraproduct_operator",
                        lambda *a: calls.append("P") or operator(*a))
    parts = dec.parts(f)
    assert sorted(calls) == ["P", "P", "T"]
    expected = (tf.values, tf.values - p1.values - p2.values, p1.values, p2.values)
    assert [part.values.tobytes() for part in parts] == [v.tobytes() for v in expected]
    assert dec.apply_s(f).values.tobytes() == expected[1].tobytes()


def test_decompose_s1_small_against_wavelets(grid, fgrid):
    # S1 pairs to near zero against well-resolved wavelets, relative to the
    # corresponding T1 pairings
    from czframe.geometry import GroupPoint
    from czframe.wavelets import frame_element

    dec = decompose(get_model("damped_hilbert_1").kernel, fgrid, grid)
    s1 = dec.s_applied_to_constant()
    t1 = dec.t1
    pts = [GroupPoint(a, b) for a in (0.5, 1.0, 2.0) for b in (0.0, 4.0)]
    num = max(abs(inner_product(s1, frame_element(p, grid))) for p in pts)
    den = max(abs(inner_product(t1, frame_element(p, grid))) for p in pts)
    assert num / den < 0.05


@pytest.mark.parametrize("label, assemblies", [("hilbert", 0), ("damped_hilbert_1", 1)])
def test_decompose_discretizes_once(monkeypatch, label, assemblies):
    import czframe.operators as operators_mod
    import czframe.paraproducts as paraproducts_mod
    from czframe.operators import apply_kernel, compute_T1, discretize, kernel_matrix, transpose

    small = SpatialGrid(8.0, 256)
    sfg = make_frame_grid(small, 0.25, 16.0, s=0.25)
    kernel = get_model(label).kernel
    ops, mats = [], []
    monkeypatch.setattr(paraproducts_mod, "discretize", lambda *a: ops.append(a) or discretize(*a))
    monkeypatch.setattr(operators_mod, "kernel_matrix", lambda *a: mats.append(a) or kernel_matrix(*a))
    dec = decompose(kernel, sfg, small)
    f = SampledFunction.from_callable(small, lambda x: np.exp(-(x**2)))
    t, s = dec.apply_t(f), dec.apply_s(f)
    assert (len(ops), len(mats)) == (1, assemblies)
    monkeypatch.undo()
    # the kept operator gives bitwise the values of a fresh discretization
    assert np.array_equal(t.values, apply_kernel(kernel, f).values)
    np.testing.assert_allclose(
        dec.t1star.values, compute_T1(transpose(kernel), small)[0].values, rtol=0, atol=1e-14
    )
    assert np.array_equal(
        s.values, t.values - dec.apply_p1(f).values - dec.apply_p2_adjoint(f).values
    )
