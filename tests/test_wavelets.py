"""Mother wavelet certificates, frame analysis/synthesis identities, frame rows."""

import math
import tracemalloc

import numpy as np
import pytest

import czframe.wavelets as wavelets_mod
from czframe.geometry import GroupPoint
from czframe.grids import SampledFunction, SpatialGrid, inner_product, l2_norm, make_frame_grid
from czframe.wavelets import (
    CoefficientField,
    analyze,
    bump_phi,
    frame_element,
    frame_rows,
    make_mother_wavelet,
    row_range,
    synthesize,
)


def _coefficient(f: SampledFunction, psi, point: GroupPoint) -> float:
    """Per-node oracle: <f, psi_(a,b)> summed over the support window alone."""
    grid, a, b = f.grid, point.a, point.b
    i0 = max(0, int(math.ceil((b - a + grid.L) / grid.h)))  # psi is supported in [-1, 1]
    i1 = min(grid.N, int(math.floor((b + a + grid.L) / grid.h)) + 1)
    if i0 >= i1:
        return 0.0
    x = -grid.L + grid.h * np.arange(i0, i1)
    w = psi((x - b) / a) / math.sqrt(a)
    return float(np.sum(f.values[i0:i1] * w) * grid.h)


@pytest.fixture(scope="module")
def psi():
    return make_mother_wavelet()


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(32.0, 2048)


@pytest.fixture(scope="module")
def fgrid(grid):
    return make_frame_grid(grid, 0.0625, 512.0, s=0.125, cone_factor=1.0)


def test_wavelet_shape_properties(psi):
    xs = np.linspace(-2.0, 2.0, 4001)
    vals = psi(xs)
    # compact support in [-1, 1]
    assert np.all(vals[np.abs(xs) >= 1.0] == 0.0)
    # odd: psi(-x) = -psi(x)
    assert np.allclose(vals, -psi(-xs))
    # zero mean by construction (derivative of a compactly supported bump)
    assert abs(np.trapezoid(vals, xs)) < 1e-12


def test_frame_element_norm_scale_invariance(psi, grid):
    # the a^{-1/2} normalization makes every frame element have the same L2 norm
    norms = [
        l2_norm(frame_element(GroupPoint(a, b), grid))
        for a, b in [(1.0, 0.0), (2.0, 3.0), (4.0, -5.0)]
    ]
    assert max(norms) - min(norms) < 1e-5
    xs = np.linspace(-1.0, 1.0, 200001)
    assert abs(norms[0] - math.sqrt(np.trapezoid(psi(xs) ** 2, xs))) < 1e-3


def test_coefficient_matches_inner_product(psi, grid):
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-((x - 1.0) ** 2)))
    pt = GroupPoint(2.0, 0.5)
    el = frame_element(pt, grid)
    direct = inner_product(f, el)
    windowed = _coefficient(f, psi, pt)
    assert abs(direct - windowed) < 1e-12


def test_analyze_matches_pointwise_coefficients(psi, grid, fgrid):
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-(x**2)) * np.cos(x))
    field = analyze(f, psi, fgrid)
    rng = np.random.default_rng(7)
    for i in rng.choice(fgrid.n_nodes, size=25, replace=False):
        pt = GroupPoint(float(fgrid.a[i]), float(fgrid.b[i]))
        assert abs(field.values[i] - _coefficient(f, psi, pt)) < 1e-12


def test_parseval_energy(psi, grid, fgrid):
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-(x**2)))
    field = analyze(f, psi, fgrid)
    energy = field.energy()
    assert abs(energy - l2_norm(f) ** 2) / l2_norm(f) ** 2 < 0.02


def test_roundtrip_reconstruction(psi, grid, fgrid):
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-(x**2)))
    rec = synthesize(analyze(f, psi, fgrid), psi, grid)
    rel = l2_norm(SampledFunction(grid, rec.values - f.values)) / l2_norm(f)
    assert rel < 0.05


def test_refinement_improves_parseval(psi, grid):
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-(x**2)))
    target = l2_norm(f) ** 2
    errs = []
    for s in (0.5, 0.25, 0.125):
        fg = make_frame_grid(grid, 0.0625, 512.0, s=s, cone_factor=1.0)
        errs.append(abs(analyze(f, psi, fg).energy() - target) / target)
    assert errs[0] > errs[1] > errs[2]


def test_under_resolved_scale_warns(psi, grid):
    with pytest.warns(UserWarning):
        frame_element(GroupPoint(grid.h, 0.0), grid)


@pytest.fixture(scope="module")
def tiny():
    # small box whose large-scale windows overrun it on both sides
    grid = SpatialGrid(4.0, 64)
    return grid, make_frame_grid(grid, 0.25, 16.0, s=0.5, cone_factor=1.0)


def test_analyze_matches_coefficient_on_every_node(psi, tiny):
    grid, fg = tiny
    both = (fg.b - fg.a < -grid.L) & (fg.b + fg.a > grid.L - grid.h)
    left = (fg.b - fg.a < -grid.L) & ~both
    right = (fg.b + fg.a > grid.L - grid.h) & ~both
    assert both.any() and left.any() and right.any()
    rng = np.random.default_rng(3)
    noise = SampledFunction(grid, rng.standard_normal(grid.N))
    smooth = SampledFunction.from_callable(grid, lambda x: np.sin(x) * np.exp(-(x**2) / 4.0))
    for f in (noise, smooth):
        field = analyze(f, psi, fg)
        assert field.values.dtype == np.float64
        for i in range(fg.n_nodes):
            pt = GroupPoint(float(fg.a[i]), float(fg.b[i]))
            assert abs(field.values[i] - _coefficient(f, psi, pt)) < 1e-12


def test_synthesize_is_adjoint_of_analyze(psi, tiny):
    # <analyze f, c>_dlam = <f, synthesize c>
    grid, fg = tiny
    rng = np.random.default_rng(4)
    f = SampledFunction(grid, rng.standard_normal(grid.N))
    c = rng.standard_normal(fg.n_nodes)
    lhs = np.sum(analyze(f, psi, fg).values * c * fg.dlam)
    rhs = inner_product(f, synthesize(CoefficientField(fg, c), psi, grid))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_frame_rows_cached_per_function_and_grid(psi, tiny):
    grid, fg = tiny
    rows = frame_rows(psi, fg, grid)
    assert frame_rows(psi, fg, SpatialGrid(4.0, 64)) is rows
    assert frame_rows(make_mother_wavelet(), fg, grid) is rows
    assert frame_rows(psi, fg, SpatialGrid(4.0, 128)) is not rows
    other = make_frame_grid(grid, 0.25, 16.0, s=0.5, cone_factor=1.0)
    assert frame_rows(psi, other, grid) is not rows
    # a second generator gets its own matrix, of its L2 dilates
    phi_rows = frame_rows(bump_phi, fg, grid)
    assert phi_rows is not rows and frame_rows(bump_phi, fg, grid) is phi_rows
    k = fg.n_nodes - 1
    u = (grid.x - fg.b[k]) / fg.a[k]
    np.testing.assert_allclose(phi_rows[k].toarray()[0], bump_phi(u) / np.sqrt(fg.a[k]),
                               rtol=0, atol=1e-15)


def _scale_nodes(fg, j0, j1):
    """The nodes of scales [j0, j1) as a sorted index array, the one node form of _scale_rows."""
    return np.arange(fg.offsets[j0], fg.offsets[j1])


def test_scale_blocks_match_frame_rows_bitwise(psi, tiny, monkeypatch):
    # the row builder builds the rows of any scale range exactly as frame_rows
    # builds the whole lattice, and a walk over row_runs, cached or not, gives
    # every coefficient as the same float
    from czframe.wavelets import _scale_rows, row_runs

    grid, fg = tiny
    n = fg.scales.size
    assert n >= 6
    whole, full = _scale_rows(psi, fg, grid, _scale_nodes(fg, 0, n)), frame_rows(psi, fg, grid)
    for part in ("data", "indices", "indptr"):
        assert getattr(whole, part).tobytes() == getattr(full, part).tobytes()
    v = np.random.default_rng(5).standard_normal(grid.N)
    full = frame_rows(psi, fg, grid) @ v * grid.h
    one_scale = [(j, j + 1) for j in range(n)]
    several = [(0, 3), (3, 5), (5, n)]
    for cuts in (one_scale, several, [(0, n)]):
        for j0, j1 in cuts:
            got = _scale_rows(psi, fg, grid, _scale_nodes(fg, j0, j1)) @ v * grid.h
            assert got.tobytes() == full[fg.offsets[j0] : fg.offsets[j1]].tobytes()
    # fg caches psi's rows now, so the walk also runs on an uncached twin
    twin = make_frame_grid(grid, 0.25, 16.0, s=0.5, cone_factor=1.0)
    nodes = np.arange(fg.n_nodes)
    for block in (wavelets_mod.ROW_BLOCK, 4):
        monkeypatch.setattr(wavelets_mod, "ROW_BLOCK", block)
        for lattice in (twin, fg):
            runs = row_runs(lattice, grid, nodes)
            assert len(runs) > (block == 4)
            assert np.concatenate(runs).tobytes() == nodes.tobytes()
            got = np.concatenate([frame_rows(psi, lattice, grid, run) @ v * grid.h for run in runs])
            assert got.tobytes() == full.tobytes()
    assert twin._rows == {}


def test_frame_rows_checks_every_node_set_cached_or_not(psi):
    # both lattices refuse the same node sets, rather than reading a negative
    # index from the end or a mask as a selection, and give every valid set,
    # in any order, as the same bits
    grid = SpatialGrid(4.0, 64)
    cached, bare = (make_frame_grid(grid, 0.25, 16.0, s=0.5, cone_factor=1.0) for _ in range(2))
    frame_rows(psi, cached, grid)
    n = bare.n_nodes
    bad = [np.array([3, -1]), np.array([0, n]), np.ones(n, dtype=bool), np.array([0.0, 1.0]),
           np.array([[0, 1]]), np.arange(n)[::-1].reshape(1, -1)]
    for lattice in (cached, bare):
        for nodes in bad:
            with pytest.raises(ValueError, match="nodes"):
                frame_rows(psi, lattice, grid, nodes)
    perm = np.random.default_rng(3).permutation(n)
    valid = [np.arange(n), perm, np.sort(perm[: n // 3]), perm[: n // 2].astype(np.uint32),
             np.array([n - 1, 5, 5, 0], dtype=np.int32), [2, 1], np.array([], dtype=int)]
    for nodes in valid:
        want, got = (frame_rows(psi, lattice, grid, nodes) for lattice in (cached, bare))
        assert got.shape == want.shape == (len(nodes), grid.N)
        for part in ("data", "indices", "indptr"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes()
    assert bare._rows == {}


def _small_lattice(shape):
    """A small lattice shaped like the suite's default one or its Carleson side lattice."""
    if shape == "default":
        grid = SpatialGrid(4.0, 256)
        return grid, make_frame_grid(grid, 0.0625, 32.0, s=0.125, cone_factor=1.0)
    grid = SpatialGrid(64.0, 1024)
    return grid, make_frame_grid(grid, 0.5, 32.0, s=0.25, L_b=32.0, cone_factor=0.0)


def _node_sets(fg):
    """Node sets in and out of lattice order, empty, single, and across several scales."""
    rng = np.random.default_rng(9)
    tail = np.argsort(-fg.dist0, kind="stable")[: fg.n_nodes // 2]
    several = np.arange(fg.offsets[2], fg.offsets[6])
    return {
        "sorted": np.sort(rng.choice(fg.n_nodes, fg.n_nodes // 3, replace=False)),
        "unsorted": rng.permutation(fg.n_nodes)[: fg.n_nodes // 3],
        "tail_order": tail,
        "empty": np.array([], dtype=np.intp),
        "single": np.array([fg.n_nodes // 2]),
        "several_scales": several,
        "several_scales_reversed": several[::-1].copy(),
        "every_node": np.arange(fg.n_nodes),
    }


@pytest.mark.parametrize("shape", ["default", "carleson_side"])
@pytest.mark.parametrize("chunk", [7, None])
def test_uncached_node_rows_match_the_cached_matrix_bitwise(psi, shape, chunk, monkeypatch):
    # frame_rows of a node set on an uncached lattice builds exactly the rows
    # the cached matrix holds, in the given order, down to the sign of zero,
    # and caches nothing; on the cached lattice it copies them, except that a
    # run of consecutive ascending nodes gets read-only views of the cache's
    # data and indices
    if chunk is not None:
        monkeypatch.setattr(wavelets_mod, "_CHUNK_NNZ", chunk)
    grid, cached = _small_lattice(shape)
    _, bare = _small_lattice(shape)
    for fn in (psi, bump_phi):
        full = frame_rows(fn, cached, grid)
        for name, nodes in _node_sets(cached).items():
            want = full[nodes]
            run = nodes.size > 0 and bool(np.all(np.diff(nodes) == 1))
            for lattice in (bare, cached):
                got = frame_rows(fn, lattice, grid, nodes)
                assert got.shape == (nodes.size, grid.N), name
                for part in ("data", "indices", "indptr"):
                    a, b = getattr(got, part), getattr(want, part)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)
                    view = lattice is cached and run and part != "indptr"
                    assert np.shares_memory(a, getattr(full, part)) == view, (name, part)
                    assert a.flags.writeable != view, (name, part)
    assert bare._rows == {}


def test_row_range_views_the_rows_it_slices(psi):
    # rows r0 ... r1 - 1 bitwise, their data and indices read-only views of
    # the matrix's however few entries they hold, a new indptr, and the
    # matrix untouched; an empty range's views lie in the matrix's arrays too
    grid, fg = _small_lattice("default")
    S = frame_rows(psi, fg, grid)
    before = {part: getattr(S, part).copy() for part in ("data", "indices", "indptr")}
    n = S.shape[0]
    for r0, r1 in [(0, n // 5), (n // 3, n // 2), (0, n), (n // 2, n // 2)]:
        got, want = row_range(S, r0, r1), S[r0:r1]
        assert got.shape == want.shape == (r1 - r0, grid.N)
        for part in ("data", "indices", "indptr"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (r0, r1, part)
        for part in ("data", "indices"):
            a = getattr(got, part)
            assert np.shares_memory(a if a.size else a.base, getattr(S, part)), (r0, r1, part)
            assert not a.flags.writeable, (r0, r1, part)
        assert not np.shares_memory(got.indptr, S.indptr) and got.indptr.flags.writeable
    assert 2 * (S.indptr[n // 5] - S.indptr[0]) < S.nnz  # under half: scipy would copy it
    for part, arr in before.items():
        assert getattr(S, part).tobytes() == arr.tobytes() and getattr(S, part).flags.writeable


def _masked_bump_derivative(x):
    """theta' by gathering the points with |x| < 1 and scattering them back."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    d = 1.0 - xi * xi
    out[inside] = np.exp(-1.0 / d) * (-2.0 * xi / (d * d))
    return out


def test_bump_derivative_matches_the_masked_evaluation():
    # every point is evaluated, with -0.0 standing in off (-1, 1): bitwise
    # the gather/scatter evaluation, edges, signed zeros and non-finite points
    # included
    from czframe.wavelets import _bump_derivative

    special = [1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), 0.0, -0.0,
               np.nan, np.inf, -np.inf]
    x = np.concatenate([np.random.default_rng(11).uniform(-1.5, 1.5, 20001), special])
    got = _bump_derivative(x)
    assert got.tobytes() == _masked_bump_derivative(x).tobytes()
    assert np.all(got[-4:] == 0.0) and got[-9] == got[-8] == 0.0
    assert _bump_derivative(0.5).tobytes() == _masked_bump_derivative(0.5).tobytes()


def _masked_transition(t):
    """The C-infinity step with exp(-1/t) and exp(-1/(1 - t)) scattered into zeros through masks."""
    t = np.asarray(t, dtype=float)
    g0 = np.zeros_like(t)
    pos = t > 0.0
    g0[pos] = np.exp(-1.0 / t[pos])
    g1 = np.zeros_like(t)
    neg = t < 1.0
    g1[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return g0 / (g0 + g1)


def test_transition_and_bump_phi_match_the_masked_evaluation():
    # the step e(t) / (e(t) + e(1 - t)) and phi = 1 - step(2|x| - 1) are
    # bitwise the masked evaluations, edges, signed zeros and non-finite
    # points included; NaN gives 0/0 in both
    from czframe.wavelets import _transition

    special = [0.0, -0.0, 0.5, -0.5, np.nextafter(0.5, 0.0), 1.0, -1.0, np.nextafter(1.0, 0.0),
               np.nextafter(-1.0, 0.0), 5e-324, np.finfo(float).tiny, 1e300, np.inf, -np.inf,
               np.nan]
    x = np.concatenate([np.random.default_rng(12).uniform(-1.5, 1.5, 20001), special])
    with np.errstate(invalid="ignore", over="ignore"):  # masked: -1/5e-324 overflows
        for t in (x, 0.75 * x + 0.5):
            assert _transition(t).tobytes() == _masked_transition(t).tobytes()
        assert bump_phi(x).tobytes() == (1.0 - _masked_transition(2.0 * np.abs(x) - 1.0)).tobytes()
        for v in (0.25, -0.0, 1.0, np.nan):
            want = np.asarray(_masked_transition(v)).tobytes()
            assert np.asarray(_transition(v)).tobytes() == want
            want = np.asarray(1.0 - _masked_transition(2.0 * abs(v) - 1.0)).tobytes()
            assert np.asarray(bump_phi(v)).tobytes() == want


@pytest.mark.parametrize("chunk", [7, 45, None])
def test_scale_rows_chunks_match_frame_elements_bitwise(psi, tiny, monkeypatch, chunk):
    # chunks of whole rows (one row when it is wider than the chunk) give
    # every row exactly the frame_element samples on its window, and 0 off it
    from czframe.wavelets import _scale_rows

    if chunk is not None:
        monkeypatch.setattr(wavelets_mod, "_CHUNK_NNZ", chunk)
    grid, fg = tiny
    rows = _scale_rows(psi, fg, grid, _scale_nodes(fg, 0, fg.scales.size))
    for k in range(fg.n_nodes):
        el = frame_element(GroupPoint(float(fg.a[k]), float(fg.b[k])), grid).values
        p0, p1 = rows.indptr[k], rows.indptr[k + 1]
        cols = rows.indices[p0:p1]
        assert np.all(np.diff(cols) == 1)
        assert rows.data[p0:p1].tobytes() == el[cols].tobytes()
        assert not np.any(np.delete(el, cols))


def test_scale_rows_do_not_depend_on_the_chunk(psi, grid, monkeypatch):
    # one-row chunks, a few rows each, and the default on the full scale range
    from czframe.wavelets import _scale_rows

    fg = make_frame_grid(grid, 0.0625, 512.0, s=0.5, cone_factor=1.0)
    built = {}
    for chunk in (wavelets_mod._CHUNK_NNZ, 7, 1000):
        monkeypatch.setattr(wavelets_mod, "_CHUNK_NNZ", chunk)
        for fn in (psi, bump_phi):
            rows = _scale_rows(fn, fg, grid, _scale_nodes(fg, 0, fg.scales.size))
            built.setdefault(fn, []).append(
                b"".join(getattr(rows, p).tobytes() for p in ("data", "indices", "indptr")))
    assert all(len(set(parts)) == 1 for parts in built.values())


def test_decay_block_build_peaks_near_its_csr_bytes(psi):
    # the first whole scales of the refined lattice (N 4096, s 1/16) that hold
    # at most 2**21 nonzeros: ~2M nonzeros, built with chunk-sized temporaries only
    from czframe.wavelets import _scale_rows, _windows

    grid = SpatialGrid(32.0, 4096)
    fg = make_frame_grid(grid, 0.0625, 512.0, s=0.0625, cone_factor=1.0)
    _, widths = _windows(fg, grid, slice(None))
    before = np.concatenate([[0], np.cumsum(widths)])[fg.offsets]  # nonzeros before each scale
    j1 = int(np.searchsorted(before, 1 << 21, side="right")) - 1
    nodes = _scale_nodes(fg, 0, j1)  # the input, made before the build is traced
    tracemalloc.start()
    try:
        rows = _scale_rows(psi, fg, grid, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr = rows.data.nbytes + rows.indices.nbytes + rows.indptr.nbytes
    assert rows.nnz > 1_900_000
    assert peak <= 1.1 * csr


def test_analysis_operator_matches_dense_assembly(psi, tiny):
    from czframe.compactness import analysis_operator

    grid, fg = tiny
    dense = np.array(
        [frame_element(GroupPoint(float(a), float(b)), grid).values for a, b in zip(fg.a, fg.b)]
    )
    expected = np.sqrt(fg.dlam) * grid.h * dense
    np.testing.assert_allclose(
        analysis_operator(fg, grid).toarray(), expected, rtol=0, atol=1e-14
    )


def test_paraproduct_matrix_matches_dense_assembly(psi, tiny):
    # P_beta = sum_k psi_k (x) coeff_k dlam_k a_k^-1 phi((y - b_k)/a_k) h
    from czframe.paraproducts import paraproduct_operator

    grid, fg = tiny
    beta = SampledFunction.from_callable(grid, lambda x: np.exp(-(x**2)))
    sym = analyze(beta, psi, fg)
    u = (grid.x[None, :] - fg.b[:, None]) / fg.a[:, None]
    Psi = psi(u) / np.sqrt(fg.a)[:, None]
    Phi = bump_phi(u) / fg.a[:, None]
    expected = Psi.T @ ((sym.values * fg.dlam)[:, None] * Phi) * grid.h
    A = paraproduct_operator(sym, grid).dense()
    assert np.max(np.abs(A - expected)) <= 1e-12 * np.max(np.abs(expected))


def _admissibility_oracle(norm_const):
    """int_0^inf |psihat(t)|^2 dt/t for psi = norm_const * theta', by dense sine quadrature.

    psi is real and odd, so psihat(t) = -2i int_0^1 psi(x) sin(tx) dx: the
    midpoint rule on 8192 points in x, and 4096 log-spaced t in [1e-4, 400],
    summed in v = log t (the integrand |psihat|^2/t vanishes like t at the
    origin).  The sin(t x) table is built 256 rows of t at a time; the whole
    table would be 268 MB.
    """
    from czframe.wavelets import _bump_derivative

    hx = 1.0 / 8192
    x = hx * (np.arange(8192) + 0.5)
    px = norm_const * _bump_derivative(x)
    v = np.linspace(math.log(1e-4), math.log(400.0), 4096)
    t = np.exp(v)
    I = np.concatenate([np.sin(np.outer(t[i : i + 256], x)) @ px
                        for i in range(0, t.size, 256)]) * hx
    return float(np.sum(4.0 * I * I) * (v[1] - v[0]))


def test_full_size_norm_const_is_pinned():
    # _PSI_NORM is 1/sqrt of the raw (norm_const 1) admissibility integral
    from czframe.wavelets import _PSI_NORM

    assert abs(1.0 / math.sqrt(_admissibility_oracle(1.0)) - _PSI_NORM) <= 1e-15 * _PSI_NORM


def test_admissibility_certificate():
    # normalization target: squared Fourier admissibility integral equals 1
    from czframe.wavelets import _PSI_NORM

    assert abs(_admissibility_oracle(_PSI_NORM) - 1.0) <= 1e-14
