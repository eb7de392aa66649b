"""Tail coefficient-energy functional via Lanczos, and spectra.

Every tail solve is one Lanczos loop that stops once the top Ritz pair has
converged; ``iterations`` counts its applications of the normal operator.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas

from czframe import compactness
from czframe.compactness import (
    analysis_operator,
    operator_matrix,
    rk_tail,
    singular_spectrum,
    tail_functional,
)
from czframe.grids import SpatialGrid, make_frame_grid, tail_nodes
from czframe.operators import DiscreteOperator, discretize, get_model
from czframe.wavelets import make_mother_wavelet


def _dense_operator(label, grid):
    """The dense oracle matrix of a zoo kernel as a :class:`DiscreteOperator`."""
    return DiscreteOperator(grid.N, matrix=operator_matrix(get_model(label).kernel, grid))


@pytest.fixture(scope="module")
def psi():
    return make_mother_wavelet()


@pytest.fixture(scope="module")
def small_grid():
    return SpatialGrid(32.0, 256)


@pytest.fixture(scope="module")
def small_fgrid(small_grid):
    return make_frame_grid(small_grid, 0.5, 64.0, s=0.25)


def test_analysis_operator_rows_are_scaled_frame_elements(small_grid, small_fgrid):
    from czframe.geometry import GroupPoint
    from czframe.wavelets import frame_element

    S = analysis_operator(small_fgrid, small_grid)
    assert S.shape == (small_fgrid.n_nodes, small_grid.N)
    for i in (0, small_fgrid.n_nodes // 2, small_fgrid.n_nodes - 1):
        pt = GroupPoint(float(small_fgrid.a[i]), float(small_fgrid.b[i]))
        el = frame_element(pt, small_grid)
        expected = math.sqrt(small_fgrid.dlam) * small_grid.h * el.values
        assert np.allclose(S[i].toarray().ravel(), expected, atol=1e-14)


def test_analysis_operator_scales_a_copy_of_the_cached_rows(psi, small_grid):
    # oracle: sqrt(dlam) * h times the frame rows, in node and in permuted
    # order; the cached frame-row matrix must come out unscaled
    fg = make_frame_grid(small_grid, 0.5, 64.0, s=0.25)  # a fresh cache
    rows = compactness.frame_rows(psi, fg, small_grid)
    cached = rows.toarray()
    expected = math.sqrt(fg.dlam) * small_grid.h * cached
    assert np.array_equal(analysis_operator(fg, small_grid).toarray(), expected)
    order = np.random.default_rng(0).permutation(fg.n_nodes)
    assert np.array_equal(analysis_operator(fg, small_grid, order).toarray(), expected[order])
    assert compactness.frame_rows(psi, fg, small_grid) is rows
    assert np.array_equal(rows.toarray(), cached)


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_analysis_operator_scales_every_row_block(psi, small_grid, small_fgrid, block):
    # oracle: sqrt(dlam) * h times the frame rows; every block of `block`
    # nodes of a permuted order, taken as its own `order`, gets exactly its
    # rows, and the cached frame rows stay unscaled however often it is copied
    rows = compactness.frame_rows(psi, small_fgrid, small_grid)
    cached = rows.toarray()
    expected = math.sqrt(small_fgrid.dlam) * small_grid.h * cached
    order = np.random.default_rng(0).permutation(small_fgrid.n_nodes)
    for start in range(0, small_fgrid.n_nodes, block):
        idx = order[start:start + block]
        S = analysis_operator(small_fgrid, small_grid, idx)
        assert np.array_equal(S.toarray(), expected[idx])
    assert np.array_equal(rows.toarray(), cached)


@pytest.mark.parametrize("R", [0.0, 1.0])
@pytest.mark.parametrize("label", ["hilbert", "damped_hilbert_1", "finite_rank"])
def test_rk_value_matches_dense_svd(small_grid, small_fgrid, label, R):
    # oracle: sigma_max^2 of the explicitly assembled composite tail matrix
    A = operator_matrix(get_model(label).kernel, small_grid)
    S = analysis_operator(small_fgrid, small_grid)
    res = rk_tail(DiscreteOperator(small_grid.N, matrix=A), S[tail_nodes(small_fgrid, R)],
                  small_grid)
    M = np.asarray(S[np.asarray(small_fgrid.dist0 >= R)] @ A) / math.sqrt(small_grid.h)
    dense = float(scipy.linalg.svdvals(M)[0] ** 2)
    assert res.converged
    assert abs(res.value - dense) / dense < 1e-3
    # the reported residual is that of the unit witness direction
    u = res.witness.values * math.sqrt(small_grid.h)
    explicit = float(np.linalg.norm(M.T @ (M @ u) - res.value * u))
    assert res.residual == pytest.approx(explicit, rel=1e-3, abs=1e-12)
    assert res.residual <= 1e-6 * res.value


def test_rk_zero_operator_short_circuits(small_grid, small_fgrid):
    A = _dense_operator("zero", small_grid)
    S = analysis_operator(small_fgrid, small_grid)
    res = rk_tail(A, S[tail_nodes(small_fgrid, 0.0)], small_grid)
    assert res.value == 0.0
    assert res.iterations == 1
    assert res.converged


def test_rk_reports_non_convergence(small_grid, small_fgrid, monkeypatch):
    # one application is far too few for Hilbert's clustered top spectrum
    monkeypatch.setattr(compactness, "_MAXITER", 1)
    A = _dense_operator("hilbert", small_grid)
    S = analysis_operator(small_fgrid, small_grid)
    res = rk_tail(A, S[tail_nodes(small_fgrid, 0.0)], small_grid)
    assert res.iterations == 1
    assert res.converged is False
    assert res.residual > 1e-6 * res.value


def test_solve_capped_one_application_short_is_not_converged(small_grid, small_fgrid,
                                                              monkeypatch):
    # the stop rule ends the solve at the first step it holds: one application
    # fewer, at the cap, is reported with its Ritz pair and converged=False
    A = _dense_operator("hilbert", small_grid)
    S_tail = analysis_operator(small_fgrid, small_grid)[tail_nodes(small_fgrid, 0.0)]
    full = rk_tail(A, S_tail, small_grid)
    assert full.converged and 2 < full.iterations < compactness._MAXITER
    monkeypatch.setattr(compactness, "_MAXITER", full.iterations - 1)
    capped = rk_tail(A, S_tail, small_grid)
    assert capped.iterations == full.iterations - 1
    assert capped.converged is False
    assert capped.residual > 1e-6 * capped.value


def test_short_solve_reserves_no_basis_for_the_cap():
    # the zero map ends after one application: the basis and product buffers
    # grow as they fill instead of taking min(500, n) rows each up front
    tracemalloc.start()
    try:
        lam, _, calls, ok, _ = compactness._lanczos_top(np.zeros_like, 2048, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (lam, calls, ok) == (0.0, 1, True)
    assert peak < 2**20


def test_rk_witness_is_extremal(small_grid, small_fgrid):
    # the returned witness attains the reported value up to tolerance
    A = operator_matrix(get_model("damped_hilbert_1").kernel, small_grid)
    S = analysis_operator(small_fgrid, small_grid)
    res = rk_tail(DiscreteOperator(small_grid.N, matrix=A), S[tail_nodes(small_fgrid, 1.0)],
                  small_grid)
    u = res.witness.values
    norm2 = float(u @ u) * small_grid.h
    c = S[np.asarray(small_fgrid.dist0 >= 1.0)] @ (A @ u)
    energy = float(c @ c)
    assert abs(energy / norm2 - res.value) / res.value < 1e-3


def test_rk_seed_determinism(small_grid, small_fgrid):
    A = _dense_operator("damped_hilbert_1", small_grid)
    S = analysis_operator(small_fgrid, small_grid)
    r1 = rk_tail(A, S[tail_nodes(small_fgrid, 0.5)], small_grid, seed=3)
    r2 = rk_tail(A, S[tail_nodes(small_fgrid, 0.5)], small_grid, seed=3)
    assert r1.value == r2.value
    assert np.array_equal(r1.witness.values, r2.witness.values)


def test_tail_functional_profiles(small_grid, small_fgrid):
    radii = np.arange(0.0, 6.5, 0.5)
    A0 = _dense_operator("zero", small_grid)
    [tz] = tail_functional([A0], small_fgrid, small_grid, radii)
    assert np.all(tz.values == 0.0)

    Af = _dense_operator("finite_rank", small_grid)
    [tf] = tail_functional([Af], small_fgrid, small_grid, radii)
    assert tf.values[0] > 0.0
    assert tf.values[-1] / tf.values[0] < 1e-2

    Ah = _dense_operator("hilbert", small_grid)
    [th] = tail_functional([Ah], small_fgrid, small_grid, radii)
    assert th.values[-1] / th.values[0] > 0.1


def test_tail_functional_radii_validation(small_grid, small_fgrid, monkeypatch):
    # every check fails before a tail is built
    for name in ("_tails", "analysis_operator"):
        monkeypatch.setattr(compactness, name, lambda *a, name=name: pytest.fail(f"called {name}"))
    A = _dense_operator("zero", small_grid)
    for radii, match in (([0.0, 0.0, 1.0], "strictly increasing"), ([], "nonempty"),
                         ([-0.5, 1.0], "nonnegative")):
        with pytest.raises(ValueError, match=match):
            tail_functional([A], small_fgrid, small_grid, radii)


def test_tail_views_reject_negative_radius(small_grid, small_fgrid):
    # the per-radius tail mask and the sweep over a discretized operator both refuse it
    with pytest.raises(ValueError, match="nonnegative"):
        tail_nodes(small_fgrid, -0.5)
    A = discretize(get_model("zero").kernel, small_grid)
    with pytest.raises(ValueError, match="nonnegative"):
        tail_functional([A], small_fgrid, small_grid, [-0.5, 1.0])


def test_nan_radius_is_refused_and_inf_is_empty(small_grid, small_fgrid):
    # NaN fails every comparison, so a sign test alone would take it for an
    # empty tail and report a vanishing functional from invalid input
    with pytest.raises(ValueError, match="nonnegative"):
        tail_nodes(small_fgrid, math.nan)
    A = _dense_operator("hilbert", small_grid)
    with pytest.raises(ValueError, match="nonnegative"):
        tail_functional([A], small_fgrid, small_grid, [0.0, math.nan])
    assert not tail_nodes(small_fgrid, math.inf).any()
    [tf] = tail_functional([A], small_fgrid, small_grid, [0.0, math.inf])
    assert tf.values[0] > 0.0 and tf.values[1] == 0.0 and tf.converged.all()


def test_singular_spectrum_finite_rank(small_grid):
    A = operator_matrix(get_model("finite_rank").kernel, small_grid)
    sv = singular_spectrum(A, 4)
    assert sv[0] > 0.0
    assert sv[1] / sv[0] < 1e-12  # exactly rank one up to roundoff
    with pytest.raises(ValueError):
        singular_spectrum(A, 0)


def test_singular_spectrum_rectangular():
    # the rk_power_vs_svd cross-check takes it of a tall composite map
    M = np.random.default_rng(1).standard_normal((7, 3))
    np.testing.assert_array_equal(singular_spectrum(M, 3), scipy.linalg.svdvals(M))
    with pytest.raises(ValueError):
        singular_spectrum(M, 4)


def test_singular_spectrum_hilbert_flat(small_grid):
    # discretized Hilbert transform is near-unitary: flat leading spectrum
    A = operator_matrix(get_model("hilbert").kernel, small_grid)
    sv = singular_spectrum(A, 32)
    assert np.all(sv <= 1.05)
    assert np.all(sv >= 0.8)


def test_damped_spectrum_shrinks_with_domain_enlargement(small_grid):
    # fixed sample count, growing box: the relative singular-value tail of the
    # damped kernel shrinks, unlike the undamped one
    ratios = []
    for L in (32.0, 64.0):
        g = SpatialGrid(L, 512)
        A = operator_matrix(get_model("damped_hilbert_1").kernel, g)
        sv = scipy.linalg.svdvals(A)
        ratios.append(sv[16] / sv[0])
    assert ratios[1] < ratios[0]


def test_rk_zero_fft_operator_short_circuits(small_grid, small_fgrid):
    A = discretize(get_model("zero").kernel, small_grid)
    assert A.matrix is None
    S = analysis_operator(small_fgrid, small_grid)
    res = rk_tail(A, S[tail_nodes(small_fgrid, 0.0)], small_grid)
    assert res.value == 0.0
    assert res.iterations == 1
    assert res.converged


def test_rk_fft_backend_matches_dense(small_grid, small_fgrid):
    # the Toeplitz/FFT Hilbert operator against its dense oracle matrix
    kern = get_model("hilbert").kernel
    radii = [0.0, 2.0, 4.0]
    [fft] = tail_functional([discretize(kern, small_grid)], small_fgrid, small_grid, radii)
    A = DiscreteOperator(small_grid.N, matrix=operator_matrix(kern, small_grid))
    [dense] = tail_functional([A], small_fgrid, small_grid, radii)
    assert discretize(kern, small_grid).matrix is None
    assert np.array_equal(fft.iterations, dense.iterations)
    assert fft.converged.all() and dense.converged.all()
    np.testing.assert_allclose(fft.values, dense.values, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("label", ["hilbert", "finite_rank"])
def test_tail_functional_repeats_bitwise_in_process(small_grid, small_fgrid, label):
    A = discretize(get_model(label).kernel, small_grid)
    radii = [0.0, 1.0, 3.0]
    [first] = tail_functional([A], small_fgrid, small_grid, radii, seed=2)
    [second] = tail_functional([A], small_fgrid, small_grid, radii, seed=2)
    assert np.array_equal(first.iterations, second.iterations)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.witnesses[-1].values, second.witnesses[-1].values)


SWEEP_RADII = [0.0, 0.5, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("label", ["hilbert", "finite_rank"])
def test_sweep_equals_plain_loop_bitwise(small_grid, small_fgrid, monkeypatch, workers, label):
    # the pooled sweep returns exactly what one rk_tail call per view returns
    # the small lattice selects the Gram path; the pool serves the other one
    monkeypatch.setattr(compactness, "_use_gram", lambda n, nnz: False)
    A = discretize(get_model(label).kernel, small_grid)
    counts = compactness._tail_counts(small_fgrid, SWEEP_RADII)[::-1]
    views = list(compactness._tails(small_fgrid, small_grid, counts, gram=False))[::-1]
    loop = [rk_tail(A, S_tail, small_grid, seed=1) for S_tail in views]
    asked = []
    monkeypatch.setattr(compactness, "_sweep_workers", lambda n: asked.append(n) or workers)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
    try:
        [tf] = tail_functional([A], small_fgrid, small_grid, SWEEP_RADII, seed=1)
    finally:
        sys.setswitchinterval(switch)
    assert asked == [len(SWEEP_RADII)]
    assert np.array_equal(tf.values, [r.value for r in loop])
    assert np.array_equal(tf.iterations, [r.iterations for r in loop])
    assert np.array_equal(tf.residuals, [r.residual for r in loop])
    assert np.array_equal(tf.converged, [r.converged for r in loop])
    for got, want in zip(tf.witnesses, loop):
        assert np.array_equal(got.values, want.witness.values)


# No node of the small lattice lies within 0.05 of the identity (its nearest
# is at 0.068), so the band [0, 0.05) is empty and both radii hold one tail.
GRAM_RADII = [0.0, 0.05, 0.5, 1.0, 2.0, 3.0]


def _force_path(monkeypatch, gram):
    monkeypatch.setattr(compactness, "_use_gram", lambda n, nnz: gram)


def test_small_lattice_selects_the_gram_path(small_grid, small_fgrid):
    # N^2 <= 2 nnz of the first tail, so the sweeps below run on the Gram
    # unless a test forces the sparse path
    S = analysis_operator(small_fgrid, small_grid)[tail_nodes(small_fgrid, 0.0)]
    assert small_grid.N**2 <= 2 * S.nnz
    assert compactness._use_gram(small_grid.N, S.nnz)
    assert not compactness._use_gram(small_grid.N, small_grid.N**2 / 2 - 1)


@pytest.mark.parametrize("chunks", ["default", "small"])
def test_tail_grams_equal_the_sparse_products(small_grid, small_fgrid, monkeypatch, chunks):
    # oracle: S_R^T S_R of the masked analysis rows, for each radius of the
    # sweep, the empty band included, on the upper triangle that G stores;
    # "small" (_PANEL = 8) cuts the bands into several copies of many blocks,
    # some of which span two scales, and a block into several panels
    if chunks == "small":
        monkeypatch.setattr(compactness, "_PANEL", 8)
    rows = analysis_operator(small_fgrid, small_grid)
    counts = compactness._tail_counts(small_fgrid, GRAM_RADII)
    assert counts[0] == counts[1] and len(set(counts)) == len(counts) - 1
    ascending = counts[::-1]
    seen = 0
    tails = compactness._tails(small_fgrid, small_grid, ascending, gram=True)
    for R, G in zip(GRAM_RADII[::-1], tails):
        S = rows[tail_nodes(small_fgrid, R)]
        want = (S.T @ S).toarray()
        # only the upper triangle is stored; the lower one is never read
        np.testing.assert_allclose(np.triu(G), np.triu(want), rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())
        seen += 1
    assert seen == len(GRAM_RADII)


def _checked_panel_products(grid, fgrid, monkeypatch):
    """Shapes of the ``dgemm`` calls that build every tail Gram of the sweep.

    Each call must take F-contiguous float64 operands, which f2py passes
    uncopied, and each G must match the sparse product on its upper triangle.
    """
    blas_dgemm, calls = scipy.linalg.blas.dgemm, []

    def counted(alpha, a, b, *args, **kwargs):
        for x in (a, b):
            assert x.dtype == np.float64 and x.flags.f_contiguous
        calls.append(a.shape)
        return blas_dgemm(alpha, a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.blas, "dgemm", counted)
    rows = analysis_operator(fgrid, grid)
    ascending = compactness._tail_counts(fgrid, GRAM_RADII)[::-1]
    for R, G in zip(GRAM_RADII[::-1], compactness._tails(fgrid, grid, ascending, True)):
        S = rows[tail_nodes(fgrid, R)]
        want = (S.T @ S).toarray()
        np.testing.assert_allclose(np.triu(G), np.triu(want), rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())
    return calls


def test_gram_panels_run_in_scipy_blas(small_grid, small_fgrid, monkeypatch):
    # every panel product runs in scipy's BLAS, the one that applies G, and
    # takes its operands as they are
    assert _checked_panel_products(small_grid, small_fgrid, monkeypatch)


def test_rows_narrower_than_the_panel_still_run_in_dgemm(small_grid, small_fgrid, monkeypatch):
    # one path for every row: with the panel wider than every window, each
    # row still enters G through a dense block and its panel products
    monkeypatch.setattr(compactness, "_PANEL", small_grid.N + 1)
    assert _checked_panel_products(small_grid, small_fgrid, monkeypatch)


def test_gram_build_copies_runs_of_whole_blocks_in_lattice_order(small_grid, small_fgrid,
                                                                  monkeypatch):
    # no band is copied whole: each analysis_operator copy holds whole blocks
    # of _PANEL rows (a band's last one may be short), in increasing node
    # order, and about _PANEL * N nonzeros, plus at most one block
    panel = 8
    monkeypatch.setattr(compactness, "_PANEL", panel)
    copy, copies = compactness.analysis_operator, []

    def recorded(fgrid, grid, order=None):
        S = copy(fgrid, grid, order)
        copies.append((order, S.nnz))
        return S

    monkeypatch.setattr(compactness, "analysis_operator", recorded)
    ascending = compactness._tail_counts(small_fgrid, GRAM_RADII)[::-1]
    for _ in compactness._tails(small_fgrid, small_grid, ascending, True):
        pass
    assert len(copies) > len(set(ascending))
    for order, nnz in copies:
        assert np.all(np.diff(order) > 0)
        assert nnz <= 2 * panel * small_grid.N
    assert sum(order.size % panel != 0 for order, _ in copies) <= len(set(ascending))
    assert sum(order.size for order, _ in copies) == max(ascending)


@pytest.mark.parametrize("label", ["hilbert", "damped_hilbert_1", "finite_rank"])
def test_gram_and_sparse_paths_agree(small_grid, small_fgrid, monkeypatch, label):
    # one backend each: Toeplitz, dense and factored
    A = discretize(get_model(label).kernel, small_grid)
    backend = {"hilbert": A.column, "damped_hilbert_1": A.matrix, "finite_rank": A.factors}
    assert backend[label] is not None
    sweeps = {}
    for gram in (True, False):
        _force_path(monkeypatch, gram)
        [sweeps[gram]] = tail_functional([A], small_fgrid, small_grid, GRAM_RADII, seed=4)
    fast, slow = sweeps[True], sweeps[False]
    assert np.array_equal(fast.iterations, slow.iterations)
    assert np.array_equal(fast.converged, slow.converged) and fast.converged.all()
    np.testing.assert_allclose(fast.values, slow.values, rtol=1e-12, atol=0.0)


def test_gram_lower_triangle_is_never_read(small_grid, small_fgrid, monkeypatch):
    # NaN below the diagonal of every yielded G must not reach any result
    _force_path(monkeypatch, True)
    ops = [discretize(get_model(label).kernel, small_grid) for label in ("hilbert", "finite_rank")]
    clean = tail_functional(ops, small_fgrid, small_grid, GRAM_RADII, seed=5)
    tails = compactness._tails

    def poisoned(*args):
        for G in tails(*args):
            G[np.tril_indices_from(G, -1)] = np.nan
            yield G

    monkeypatch.setattr(compactness, "_tails", poisoned)
    dirty = tail_functional(ops, small_fgrid, small_grid, GRAM_RADII, seed=5)
    for want, got in zip(clean, dirty):
        for key in ("values", "iterations", "converged", "residuals"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), key
        for u, v in zip(got.witnesses, want.witnesses):
            assert np.array_equal(u.values, v.values)


@pytest.mark.parametrize("gram", [True, False])
def test_rank_one_solve_ends_after_two_applications(small_grid, small_fgrid, monkeypatch, gram):
    # finite_rank's normal operator has rank one: its Krylov space breaks down at step two
    _force_path(monkeypatch, gram)
    A = discretize(get_model("finite_rank").kernel, small_grid)
    [tf] = tail_functional([A], small_fgrid, small_grid, SWEEP_RADII, seed=3)
    assert tf.converged.all() and np.all(tf.iterations == 2)
    S = analysis_operator(small_fgrid, small_grid)
    dense = A.dense()
    for R, value in zip(SWEEP_RADII, tf.values):
        M = np.asarray(S[np.asarray(small_fgrid.dist0 >= R)] @ dense) / math.sqrt(small_grid.h)
        assert value == pytest.approx(float(singular_spectrum(M, 1)[0] ** 2), rel=1e-12, abs=0.0)


def _spectral_map(eigenvalues, n=40, seed=0):
    """B v = Q diag(eigenvalues) Q^T v for a random Q with orthonormal columns."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, len(eigenvalues))))
    return lambda v: Q @ (np.asarray(eigenvalues) * (Q.T @ v))


def test_rank_two_map_is_not_cut_short():
    lam, _, calls, ok, _ = compactness._lanczos_top(_spectral_map([3.0, 1.0]), 40, seed=0)
    # the Krylov space of v0 is spanned by v0 and B's two-dimensional range
    assert calls == 3 and ok
    assert lam == pytest.approx(3.0, rel=1e-12)


def test_multiple_of_a_projector_ends_after_two_applications():
    # every nonzero eigenvalue equal: B v0 spans an invariant line however big the range
    mu = 2.5
    lam, _, calls, ok, residual = compactness._lanczos_top(_spectral_map([mu, mu]), 40, seed=0)
    assert calls == 2 and ok and residual <= 1e-12 * mu
    assert lam == pytest.approx(mu, rel=1e-12)


@pytest.mark.parametrize("gram", [True, False])
def test_operators_are_solved_independently(small_grid, small_fgrid, monkeypatch, gram):
    # a sweep of several operators returns what one sweep per operator returns
    _force_path(monkeypatch, gram)
    ops = [discretize(get_model(label).kernel, small_grid) for label in ("hilbert", "finite_rank")]
    both = tail_functional(ops, small_fgrid, small_grid, SWEEP_RADII, seed=2)
    assert len(both) == 2
    for A, got in zip(ops, both):
        [want] = tail_functional([A], small_fgrid, small_grid, SWEEP_RADII, seed=2)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.iterations, want.iterations)
        assert np.array_equal(got.witnesses[-1].values, want.witnesses[-1].values)


@pytest.mark.parametrize("gram", [True, False])
def test_repeated_tail_is_solved_once(small_grid, small_fgrid, monkeypatch, gram):
    _force_path(monkeypatch, gram)
    solve, calls = compactness.rk_tail, []
    monkeypatch.setattr(compactness, "rk_tail", lambda *a, **k: calls.append(1) or solve(*a, **k))
    A = discretize(get_model("hilbert").kernel, small_grid)
    [tf] = tail_functional([A], small_fgrid, small_grid, GRAM_RADII, seed=1)
    assert len(calls) == len(GRAM_RADII) - 1
    assert tf.values[0] == tf.values[1] and tf.residuals[0] == tf.residuals[1]
    assert tf.iterations[0] == tf.iterations[1] and tf.converged[0] == tf.converged[1]
    assert np.array_equal(tf.witnesses[0].values, tf.witnesses[1].values)
    # and the shared solve is the one a sweep without the repeated radius makes
    [ref] = tail_functional([A], small_fgrid, small_grid, GRAM_RADII[1:], seed=1)
    assert np.array_equal(tf.values[1:], ref.values)
    assert np.array_equal(tf.iterations[1:], ref.iterations)


def test_no_operator_builds_nothing(small_grid, small_fgrid, monkeypatch):
    for name in ("_tails", "analysis_operator"):
        monkeypatch.setattr(compactness, name, lambda *a, name=name: pytest.fail(f"called {name}"))
    assert tail_functional([], small_fgrid, small_grid, SWEEP_RADII) == []
    with pytest.raises(ValueError):  # the radii are still checked
        tail_functional([], small_fgrid, small_grid, [1.0, 0.0])


def test_sweep_workers_follow_usable_cores(monkeypatch):
    monkeypatch.setattr(compactness.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert compactness._sweep_workers(9) == 3
    assert compactness._sweep_workers(2) == 2


def test_sparse_tails_are_row_prefixes_of_one_sorted_copy(small_grid, small_fgrid, monkeypatch):
    build, copies = compactness.analysis_operator, []

    def recorded(*args):
        copies.append(build(*args))
        return copies[-1]

    monkeypatch.setattr(compactness, "analysis_operator", recorded)
    ascending = compactness._tail_counts(small_fgrid, SWEEP_RADII)[::-1]
    views = list(compactness._tails(small_fgrid, small_grid, ascending, gram=False))
    [S_sorted] = copies
    order = np.argsort(-small_fgrid.dist0, kind="stable")
    S = build(small_fgrid, small_grid)
    assert np.all(np.diff(small_fgrid.dist0[order]) <= 0.0)
    for R, view in zip(SWEEP_RADII[::-1], views):
        for part in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(view, part), getattr(S_sorted, part))
        mask = tail_nodes(small_fgrid, R)
        n = view.shape[0]
        assert n == np.count_nonzero(mask) and view.shape[1] == small_grid.N
        # permuted back to node order, the view is the masked analysis operator
        back = np.zeros((small_fgrid.n_nodes, small_grid.N))
        back[order[:n]] = view.toarray()
        assert np.array_equal(back[mask], S[mask].toarray())
        assert not back[~mask].any()
    # a sweep copies only its first tail's rows: fewer from radius 1 than from 0
    _force_path(monkeypatch, False)
    A = discretize(get_model("zero").kernel, small_grid)
    copied = []
    for radii in (SWEEP_RADII, SWEEP_RADII[2:]):
        copies.clear()
        tail_functional([A], small_fgrid, small_grid, radii)
        [copy] = copies
        assert copy.shape[0] == np.count_nonzero(tail_nodes(small_fgrid, radii[0]))
        copied.append(copy.shape[0])
    assert copied[1] < copied[0] == small_fgrid.n_nodes


@pytest.mark.parametrize("panel", [None, 8])
def test_tails_are_bitwise_the_same_with_or_without_cached_rows(psi, small_grid, monkeypatch,
                                                                panel):
    # a lattice without psi's cached matrix builds each run of rows itself and
    # keeps none, and every tail operand is bitwise the one the cache gives
    if panel is not None:
        monkeypatch.setattr(compactness, "_PANEL", panel)
    cached, bare = (make_frame_grid(small_grid, 0.5, 64.0, s=0.25) for _ in range(2))
    compactness.frame_rows(psi, cached, small_grid)
    ascending = compactness._tail_counts(cached, GRAM_RADII)[::-1]
    for gram in (True, False):
        pairs = zip(*(compactness._tails(fg, small_grid, ascending, gram) for fg in (cached, bare)))
        for want, got in pairs:
            if gram:
                assert got.tobytes() == want.tobytes()
            else:
                for part in ("data", "indices", "indptr"):
                    assert getattr(got, part).tobytes() == getattr(want, part).tobytes()
    assert bare._rows == {}


def test_gram_sweep_never_holds_the_lattice_rows(psi):
    # on the default lattice, where psi's rows are about 9 runs of _PANEL * N
    # nonzeros at 12 B each, a Gram sweep holds G and at most one copied part
    # of two runs, its dense block, the block's scatter indices and a panel
    # product, each no larger than a run: under 6 runs in all
    grid = SpatialGrid(32.0, 2048)
    fgrid = make_frame_grid(grid, 0.0625, 512.0, s=0.125, cone_factor=1.0)
    A = discretize(get_model("zero").kernel, grid)
    run = compactness._PANEL * grid.N * 12
    rows = compactness.frame_rows(psi, make_frame_grid(grid, 0.0625, 512.0, s=0.125,
                                                       cone_factor=1.0), grid)
    assert compactness._use_gram(grid.N, rows.nnz) and 12 * rows.nnz > 8 * run
    del rows
    tracemalloc.start()
    try:
        [tf] = tail_functional([A], fgrid, grid, SWEEP_RADII)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(tf.values == 0.0)
    assert peak < 8 * grid.N**2 + 6 * run
    assert fgrid._rows == {}
