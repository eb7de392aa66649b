"""Model kernels, principal-value quadrature, T1, conjugation symmetry, and the
discrete operator backends checked against the dense kernel matrix."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from czframe.geometry import GroupPoint
from czframe.grids import SampledFunction, SpatialGrid
from czframe.operators import (
    CZKernel,
    DiscreteOperator,
    apply_kernel,
    compute_T1,
    compute_T1star,
    conjugate,
    discretize,
    get_model,
    kernel_matrix,
    model_zoo,
    transpose,
    truncation_tail_bound,
)


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(32.0, 2048)


def test_zoo_labels():
    zoo = model_zoo()
    assert set(zoo) == {"hilbert", "damped_hilbert_05", "damped_hilbert_1", "finite_rank", "zero"}
    with pytest.raises(KeyError):
        get_model("nonsense")


def test_hilbert_of_gaussian_matches_dawson(grid):
    # H[exp(-x^2)](x) = 2 Dawson(x) / sqrt(pi)  (closed form via scipy.special)
    import scipy.special

    kern = get_model("hilbert").kernel
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-(x**2)))
    Hf = apply_kernel(kern, f)
    exact = 2.0 * scipy.special.dawsn(grid.x) / math.sqrt(math.pi)
    mask = np.abs(grid.x) <= 16.0
    rel = np.max(np.abs(Hf.values[mask] - exact[mask])) / np.max(np.abs(exact))
    assert rel < 0.02


def test_kernel_matrix_diagonal_policy(grid):
    sing = kernel_matrix(get_model("hilbert").kernel, grid)
    assert np.all(np.diag(sing) == 0.0)
    fr = kernel_matrix(get_model("finite_rank").kernel, grid)
    u, v = get_model("finite_rank").kernel.factors
    assert np.allclose(np.diag(fr), u(grid.x) * v(grid.x))
    # bounded diagonal keeps the kernel exactly rank one
    assert np.linalg.matrix_rank(fr, tol=1e-10) == 1


def test_pv_diagonal_exclusion_requires_structure(grid):
    bad = CZKernel("bad", lambda x, y: x + y, c_k=1.0, delta=1.0)
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-(x**2)))
    with pytest.raises(ValueError):
        apply_kernel(bad, f)
    with pytest.raises(ValueError):
        discretize(bad, grid)


@pytest.mark.parametrize("label", sorted(model_zoo()))
def test_apply_kernel_matches_dense_quadrature(grid, label):
    kern = get_model(label).kernel
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-((x - 1.0) ** 2)))
    expected = (kernel_matrix(kern, grid) @ f.values) * grid.h
    np.testing.assert_allclose(apply_kernel(kern, f).values, expected, rtol=0, atol=1e-12)


def test_finite_rank_application_factorizes(grid):
    kern = get_model("finite_rank").kernel
    u, v = kern.factors
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-(x**2)))
    Tf = apply_kernel(kern, f)
    scalar = np.sum(v(grid.x) * f.values) * grid.h
    assert np.allclose(Tf.values, scalar * u(grid.x), atol=1e-14)


def test_finite_rank_constant_is_eight_sup_uv():
    # each factor peaks at exp(-1), at its centre; the sampled sup is the oracle
    kern = get_model("finite_rank").kernel
    u, v = kern.factors
    sup_uv = float(np.max(u(np.linspace(-2, 2, 4001)))) * float(np.max(v(np.linspace(-1, 2, 4001))))
    assert kern.c_k == 8.0 * sup_uv == 8.0 * math.exp(-2.0)


def test_t1_hilbert_vanishes(grid):
    t1, err = compute_T1(get_model("hilbert").kernel, grid)
    assert np.max(np.abs(t1.values)) < 1e-12
    assert err == truncation_tail_bound(get_model("hilbert").kernel, grid)


def test_t1_finite_rank_is_integral_times_factor(grid):
    kern = get_model("finite_rank").kernel
    u, v = kern.factors
    t1, _ = compute_T1(kern, grid)
    iv = np.sum(v(grid.x)) * grid.h
    # away from box edges the symmetric window covers supp v entirely
    mask = np.abs(grid.x) <= 16.0
    assert np.max(np.abs(t1.values[mask] - iv * u(grid.x)[mask])) < 1e-12


@pytest.mark.parametrize("t1", [compute_T1, compute_T1star])
def test_default_t1_is_the_dense_reference(t1, monkeypatch):
    # without an operator, T1 and T*1 assemble the dense matrix for every kernel
    import czframe.operators as operators_mod

    calls = []
    monkeypatch.setattr(
        operators_mod, "kernel_matrix", lambda *a: calls.append(a) or kernel_matrix(*a)
    )
    for label in ("hilbert", "finite_rank"):
        t1(get_model(label).kernel, SpatialGrid(8.0, 128))
    assert len(calls) == 2


def test_t1star_is_t1_of_transpose(grid):
    kern = get_model("damped_hilbert_1").kernel
    a, _ = compute_T1star(kern, grid)
    b, _ = compute_T1(transpose(kern), grid)
    assert np.array_equal(a.values, b.values)


def test_conjugation_identity_fixed_point():
    kern = get_model("hilbert").kernel
    cj = conjugate(kern, GroupPoint(3.0, -2.0))
    x = np.linspace(-4, 4, 101)[:, None]
    y = np.linspace(-4, 4, 101)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = cj(x, y) - kern(x, y)
    off = ~np.isclose(x, y)
    # dilation-translation invariance: the Hilbert kernel is a fixed point
    assert np.max(np.abs(diff[np.broadcast_to(off, diff.shape)])) < 1e-13


def test_conjugation_scaling_rule():
    kern = get_model("finite_rank").kernel
    g = GroupPoint(2.0, 1.0)
    cj = conjugate(kern, g)
    x, y = np.array([0.3]), np.array([0.7])
    assert np.allclose(cj(x, y), g.a * kern(g.a * x + g.b, g.a * y + g.b))


def test_zero_kernel(grid):
    kern = get_model("zero").kernel
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-(x**2)))
    assert np.all(apply_kernel(kern, f).values == 0.0)


def _toeplitz_kernels():
    hilbert = get_model("hilbert").kernel
    return {
        "hilbert": hilbert,
        "zero": get_model("zero").kernel,
        "hilbert@(0.37,2.5)": conjugate(hilbert, GroupPoint(0.37, 2.5)),
        "hilbert@(3,-1.25)": conjugate(hilbert, GroupPoint(3.0, -1.25)),
        "hilbert_transpose": transpose(hilbert),
        # bounded and not symmetric: c[m] != c[-m], c[0] != 0
        "shifted_gaussian": CZKernel(
            "shifted_gaussian", lambda x, y: np.exp(-((x - y - 0.3) ** 2)), c_k=1.0,
            delta=1.0, bounded=True, profile=lambda d: np.exp(-((d - 0.3) ** 2)),
        ),
    }


def _window_sums_oracle(A):
    """Row sums of A over |j - i| <= min(i, N - 1 - i), one row at a time."""
    n = A.shape[0]
    out = np.empty(n)
    for i in range(n):
        w = min(i, n - 1 - i)
        out[i] = A[i, i - w: i + w + 1].sum()
    return out


@pytest.mark.parametrize("label", sorted(_toeplitz_kernels()))
def test_toeplitz_backend_matches_dense_oracle(label):
    grid = SpatialGrid(8.0, 256)
    kern = _toeplitz_kernels()[label]
    op = discretize(kern, grid)
    assert op.matrix is None and op.n == grid.N
    A = kernel_matrix(kern, grid) * grid.h
    rng = np.random.default_rng(5)
    for x in (rng.standard_normal(grid.N), rng.standard_normal((grid.N, 3))):
        assert op.matvec(x).shape == x.shape
        # the dense oracle itself rounds x - y with the conjugating translation
        np.testing.assert_allclose(op.matvec(x), A @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(op.rmatvec(x), A.T @ x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(op.dense(), A, rtol=0, atol=1e-13)
    for transpose_ in (False, True):
        sums = op.window_sums(transpose_)
        np.testing.assert_allclose(
            sums, _window_sums_oracle(A.T if transpose_ else A), rtol=0, atol=1e-12
        )
        if label in ("hilbert", "zero"):
            assert not sums.any()
    if label == "zero":
        assert not op.matvec(rng.standard_normal(grid.N)).any()


@pytest.mark.parametrize("label", ["damped_hilbert_1"])
def test_non_convolution_kernels_get_the_dense_backend(label):
    grid = SpatialGrid(8.0, 128)
    kern = get_model(label).kernel
    assert kern.profile is None and kern.factors is None
    op = discretize(kern, grid)
    A = kernel_matrix(kern, grid) * grid.h
    assert np.array_equal(op.dense(), A)
    x = np.random.default_rng(6).standard_normal((grid.N, 2))
    assert np.array_equal(op.matvec(x), A @ x)
    assert np.array_equal(op.rmatvec(x), A.T @ x)
    for transpose_ in (False, True):
        np.testing.assert_allclose(
            op.window_sums(transpose_), _window_sums_oracle(A.T if transpose_ else A),
            rtol=0, atol=1e-12,
        )
    assert conjugate(kern, GroupPoint(2.0, 1.0)).profile is None


def _kernel_matrix_oracle(kernel, grid):
    """The dense matrix of a singular kernel in one N x N broadcast."""
    x = grid.x
    with np.errstate(divide="ignore", invalid="ignore"):
        K = kernel(x[:, None], x[None, :])
    np.fill_diagonal(K, 0.0)
    return K


def _one_cumsum_window_sums(A):
    """The window sums from one prefix sum over the whole matrix."""
    n = A.shape[0]
    idx = np.arange(n)
    w = np.minimum(idx, n - 1 - idx)
    csum = np.cumsum(A, axis=1)
    return csum[idx, idx + w] - np.where(idx > w, csum[idx, idx - w - 1], 0.0)


def _traced(fn, *args):
    """``fn(*args)`` and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# None: the default block; 3 * 2048 + 5 entries: 3 rows a block, a ragged last one
@pytest.mark.parametrize("block_entries", [None, 3 * 2048 + 5], ids=["default", "ragged"])
def test_dense_assembly_and_window_sums_go_by_row_blocks(grid, block_entries, monkeypatch):
    import czframe.operators as operators_mod

    if block_entries is not None:
        monkeypatch.setattr(operators_mod, "_BLOCK_ENTRIES", block_entries)
        assert grid.N % (block_entries // grid.N) != 0
    kern = get_model("damped_hilbert_1").kernel
    dense_bytes = 8.0 * grid.N**2
    K, peak = _traced(kernel_matrix, kern, grid)
    assert peak < 1.25 * dense_bytes
    assert K.tobytes() == _kernel_matrix_oracle(kern, grid).tobytes()
    K *= grid.h
    op = DiscreteOperator(grid.N, matrix=K)
    for transpose_ in (False, True):
        sums, peak = _traced(op.window_sums, transpose_)
        assert peak < dense_bytes / 4
        M = K.T if transpose_ else K
        assert sums.tobytes() == _one_cumsum_window_sums(M).tobytes()
        np.testing.assert_allclose(sums, _window_sums_oracle(M), rtol=0, atol=1e-12)


@pytest.mark.parametrize("rows_per_block", [1, 2, 5, None])
def test_transposed_window_sums_equal_the_strided_cumsum_bitwise(rows_per_block, monkeypatch):
    # column prefix sums taken down the rows, carried across row blocks, add
    # each column's entries in the order of a cumsum along A^T's rows; odd
    # and even sizes, one-row blocks and a ragged last block included
    import czframe.operators as operators_mod

    rng = np.random.default_rng(11)
    for n in (17, 64):
        if rows_per_block is not None:
            monkeypatch.setattr(operators_mod, "_BLOCK_ENTRIES", rows_per_block * n)
        A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-8, 8, (n, n))
        op = DiscreteOperator(n, matrix=A)
        assert op.window_sums(True).tobytes() == _one_cumsum_window_sums(A.T).tobytes()
        assert op.window_sums(False).tobytes() == _one_cumsum_window_sums(A).tobytes()


def _assert_factored_matches_dense(op, A):
    """The factored ``op`` against the dense oracle A: applications, dense() and T1/T*1."""
    assert op.matrix is None and op.column is None and op.factors is not None
    rng = np.random.default_rng(6)
    for x in (rng.standard_normal(op.n), rng.standard_normal((op.n, 2))):
        assert op.matvec(x).shape == x.shape
        np.testing.assert_allclose(op.matvec(x), A @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(op.rmatvec(x), A.T @ x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(op.dense(), A, rtol=0, atol=1e-12)
    for transpose_ in (False, True):
        np.testing.assert_allclose(
            op.window_sums(transpose_), _window_sums_oracle(A.T if transpose_ else A),
            rtol=0, atol=1e-12,
        )


def test_rank_one_kernel_gets_the_factored_backend():
    grid = SpatialGrid(8.0, 128)
    kern = get_model("finite_rank").kernel
    assert kern.profile is None and kern.factors is not None
    op = discretize(kern, grid)
    U, d, Vh = op.factors
    assert U.shape == Vh.shape == (1, grid.N) and np.array_equal(d, [1.0])
    # compactly supported factors: the rows store only the support
    assert 0 < U.nnz < grid.N and 0 < Vh.nnz < grid.N
    _assert_factored_matches_dense(op, kernel_matrix(kern, grid) * grid.h)


@pytest.mark.parametrize("g", [GroupPoint(2.0, 1.0), GroupPoint(0.37, -2.5)])
def test_transformed_rank_one_kernels_keep_consistent_factors(g):
    grid = SpatialGrid(8.0, 128)
    kern = get_model("finite_rank").kernel
    for k in (transpose(kern), conjugate(kern, g), transpose(conjugate(kern, g))):
        _assert_factored_matches_dense(discretize(k, grid), kernel_matrix(k, grid) * grid.h)
    # the transpose's oracle is the transposed matrix of the original kernel
    np.testing.assert_allclose(
        discretize(transpose(kern), grid).dense(), (kernel_matrix(kern, grid) * grid.h).T,
        rtol=0, atol=1e-12,
    )


def test_discrete_operator_needs_exactly_one_backend():
    with pytest.raises(ValueError):
        DiscreteOperator(4)
    with pytest.raises(ValueError):
        DiscreteOperator(4, matrix=np.eye(4), column=np.ones(8))
    factors = (scipy.sparse.identity(4, format="csr"), np.ones(4), scipy.sparse.identity(4, format="csr"))
    assert np.array_equal(DiscreteOperator(4, factors=factors).dense(), np.eye(4))
    with pytest.raises(ValueError):
        DiscreteOperator(4, matrix=np.eye(4), factors=factors)
    with pytest.raises(ValueError):
        DiscreteOperator(4, column=np.ones(8), factors=factors)
