"""Decay majorant, weighted Schur functionals, and weak-compactness pairings."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from czframe import localization
from czframe.geometry import GroupPoint, IDENTITY
from czframe.grids import SpatialGrid, make_frame_grid
from czframe.localization import (
    coefficient_field,
    default_anchor_lattice,
    decay_majorant,
    default_test_bundle,
    matrix_coefficient,
    origin_tail,
    schur_tail,
    verify_decay,
    weak_compactness_profile,
)
from czframe.operators import apply_kernel, conjugate, discretize, get_model, kernel_matrix
from czframe.wavelets import frame_element, frame_rows, make_mother_wavelet


@pytest.fixture(scope="module")
def psi():
    return make_mother_wavelet()


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(32.0, 2048)


@pytest.fixture(scope="module")
def fgrid(grid):
    return make_frame_grid(grid, 0.0625, 512.0, s=0.125, cone_factor=1.0)


def test_decay_majorant_regimes():
    d = 1.0
    # one closed-form value per regime
    assert decay_majorant(d, 4.0, 2.0) == pytest.approx(4.0 ** (-1.5))
    assert decay_majorant(d, 4.0, 16.0) == pytest.approx(math.sqrt(4.0) / 16.0**2)
    assert decay_majorant(d, 0.25, 0.5) == pytest.approx(0.25**1.5)
    assert decay_majorant(d, 0.25, 8.0) == pytest.approx(0.25**1.5 / 8.0**2)


def test_decay_majorant_continuity_across_seams():
    d = 0.7
    for a, b in [(1.0, 0.5), (2.0, 2.0), (0.5, 1.0)]:
        lo = decay_majorant(d, a - 1e-9, b)
        hi = decay_majorant(d, a + 1e-9, b)
        assert abs(lo - hi) / hi < 1e-6
    assert decay_majorant(d, 3.0, 3.0 - 1e-9) == pytest.approx(
        decay_majorant(d, 3.0, 3.0 + 1e-9), rel=1e-6
    )


def test_decay_bound_validation():
    with pytest.raises(ValueError):
        decay_majorant(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        decay_majorant(2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        decay_majorant(1.0, -1.0, 0.0)


def test_matrix_coefficient_disjoint_supports_match_direct(psi, grid):
    # supports of the two frame elements are far apart: the pairing reduces to
    # a double integral of the kernel against the two windows
    kern = get_model("damped_hilbert_1").kernel
    p, q = GroupPoint(1.0, -10.0), GroupPoint(2.0, 12.0)
    val = matrix_coefficient(kern, p, q, grid)
    # direct dense quadrature oracle
    xs = grid.x
    wp = psi((xs - p.b) / p.a) / math.sqrt(p.a)
    wq = psi((xs - q.b) / q.a) / math.sqrt(q.a)
    with np.errstate(divide="ignore"):
        K = np.nan_to_num(kern(xs[:, None], xs[None, :]), posinf=0.0, neginf=0.0)
    np.fill_diagonal(K, 0.0)
    direct = float(wq @ K @ wp) * grid.h**2
    assert abs(val - direct) / abs(direct) < 1e-6


@pytest.mark.parametrize("q", [GroupPoint(1.0, 0.0), GroupPoint(2.0, 3.0), GroupPoint(0.5, -1.5)])
def test_matrix_coefficient_rejects_overlapping_supports(grid, q):
    # supports closer than a grid cell have no regular kernel block: the
    # caller applies the operator and pairs instead, as the pv diagnostic does
    kern = get_model("hilbert").kernel
    with pytest.raises(ValueError, match="separated"):
        matrix_coefficient(kern, GroupPoint(1.0, 0.0), q, grid)


def test_verify_decay_fitted_constant_finite(grid, fgrid):
    fit = verify_decay(get_model("hilbert").kernel, fgrid, grid)
    assert 0.0 < fit < 10.0
    assert math.isfinite(fit)


def test_verify_decay_warns_only_without_exact_cancellation():
    grid = SpatialGrid(8.0, 256)
    fg = make_frame_grid(grid, 0.125, 8.0, s=0.5)
    with pytest.warns(UserWarning, match="'damped_hilbert_1' lacks exact cancellation"):
        verify_decay(get_model("damped_hilbert_1").kernel, fg, grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verify_decay(get_model("hilbert").kernel, fg, grid)
    assert not [w for w in caught if "exact cancellation" in str(w.message)]


def test_verify_decay_caches_no_frame_rows(grid):
    fg = make_frame_grid(grid, 0.0625, 512.0, s=0.125, cone_factor=1.0)
    verify_decay(get_model("hilbert").kernel, fg, grid)
    assert fg._rows == {}


def test_verify_decay_reads_cached_rows_bitwise(psi, grid, monkeypatch):
    # a lattice that caches psi's rows gives the fit from them, building no
    # rows; an uncached twin streams its blocks and stays uncached
    import czframe.wavelets as wavelets_mod

    kern = get_model("hilbert").kernel
    cached = make_frame_grid(grid, 0.0625, 512.0, s=0.125, cone_factor=1.0)
    frame_rows(psi, cached, grid)
    streamed = make_frame_grid(grid, 0.0625, 512.0, s=0.125, cone_factor=1.0)
    built = []
    scale_rows = wavelets_mod._scale_rows
    monkeypatch.setattr(wavelets_mod, "_scale_rows",
                        lambda *a: built.append(a[0]) or scale_rows(*a))
    fit = verify_decay(kern, cached, grid)
    assert built == []
    assert fit == verify_decay(kern, streamed, grid)
    assert built and streamed._rows == {}
    assert list(cached._rows) == [(psi, grid)]


def test_verify_decay_streams_blocks_of_the_full_rows(psi):
    # 9.4M row nonzeros (113 MB): several blocks, so the full matrix must
    # never be resident, and the fit must still be the whole-lattice maximum
    from czframe.wavelets import _analysis_blocks, _BLOCK_NNZ

    kern = get_model("hilbert").kernel
    grid = SpatialGrid(32.0, 8192)
    fg = make_frame_grid(grid, 0.0625, 512.0, s=0.125, cone_factor=1.0)
    tracemalloc.start()
    try:
        fit = verify_decay(kern, fg, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    other = make_frame_grid(grid, 0.0625, 512.0, s=0.125, cone_factor=1.0)
    rows = frame_rows(psi, other, grid)
    assert peak < 0.5 * (rows.data.nbytes + rows.indices.nbytes)
    Tpsi = apply_kernel(kern, frame_element(IDENTITY, grid))
    coeffs = rows @ Tpsi.values * grid.h
    assert fit == float(np.max(np.abs(coeffs) / decay_majorant(kern.delta, other.a, other.b)))
    blocks = list(_analysis_blocks(Tpsi, fg))
    assert len(blocks) > 2
    assert all(rows.indptr[nodes.stop] - rows.indptr[nodes.start] <= _BLOCK_NNZ
               for nodes, _ in blocks)
    assert np.concatenate([c for _, c in blocks]).tobytes() == coeffs.tobytes()


def test_schur_anchor_invariance_hilbert(grid, fgrid):
    # the Hilbert kernel is a fixed point of conjugation, so the reduced Schur
    # functional is bitwise identical at every anchor
    kern = get_model("hilbert").kernel
    (base,) = schur_tail(kern, fgrid, grid, [0.0], IDENTITY)
    # at R = 0 the tail is the Schur value: the weighted sum over every node
    coeffs = coefficient_field(kern, fgrid, grid).values
    assert base == float(np.sum(np.abs(coeffs) * fgrid.a**0.5 * fgrid.dlam))
    for anchor in default_anchor_lattice():
        assert schur_tail(kern, fgrid, grid, [0.0], anchor) == [base]


def test_schur_tail_refuses_a_nan_radius(grid, fgrid):
    with pytest.raises(ValueError, match="nonnegative"):
        schur_tail(get_model("hilbert").kernel, fgrid, grid, [0.0, np.nan])


def test_weak_compactness_profile_refuses_a_nan_or_negative_radius(fgrid):
    # its bins are cut by tail_nodes, which refuses both, as every other sweep does
    for r in (np.nan, -1.0):
        with pytest.raises(ValueError, match="nonnegative"):
            weak_compactness_profile(get_model("hilbert").kernel, fgrid, np.array([1.0, r]))


def test_schur_tail_monotone_and_decaying(grid, fgrid):
    kern = get_model("hilbert").kernel
    t0, t1, t6 = schur_tail(kern, fgrid, grid, [0.0, 1.0, 6.0])
    assert t0 >= t1 >= t6 > 0.0
    assert t1 / t6 >= 5.0
    # one field serves every radius: each value is bitwise its single-radius one
    assert [schur_tail(kern, fgrid, grid, [r])[0] for r in (6.0, 0.0, 1.0)] == [t6, t0, t1]
    with pytest.raises(ValueError):
        schur_tail(kern, fgrid, grid, [1.0, -1.0])


def test_schur_diagnostic_builds_one_field_per_anchor(monkeypatch):
    from czframe import reporting
    from czframe.config import SuiteConfig

    calls = []
    field = localization.coefficient_field

    def counted(kernel, fgrid, grid, anchor=IDENTITY):
        calls.append(anchor)
        return field(kernel, fgrid, grid, anchor)

    monkeypatch.setattr(localization, "coefficient_field", counted)
    cfg = SuiteConfig.from_dict({"grid": {"L": 32, "N": 512}, "diagnostics": ["schur"],
                                 "frame": {"a_min": 0.5, "a_max": 64, "s": 0.25}})
    ctx = reporting._Context(cfg)
    reporting._diag_schur(ctx)
    (rec,) = ctx.records
    assert ctx.profiles == {}
    assert len(calls) == len(set(calls)) == 3
    assert rec["values"]["schur_value"] > rec["values"]["tail_1"] > rec["values"]["tail_6"] > 0.0


def test_origin_tail_finite_rank_vanishes(grid, fgrid, monkeypatch):
    # a fixed-rank smooth kernel localizes near the identity: the fixed-disk
    # tail at radius 6 is negligible against the full value
    import czframe.operators as operators_mod

    kern = get_model("finite_rank").kernel
    ops, mats = [], []
    monkeypatch.setattr(
        localization, "discretize", lambda *a: ops.append(a) or discretize(*a)
    )
    monkeypatch.setattr(
        operators_mod, "kernel_matrix", lambda *a: mats.append(a) or kernel_matrix(*a)
    )
    full = origin_tail(kern, fgrid, grid, 0.0)
    monkeypatch.undo()
    # one factored discretization serves all nine default anchors
    assert len(ops) == 1 and len(default_anchor_lattice()) == 9
    assert mats == []
    tail = origin_tail(kern, fgrid, grid, 8.0)
    assert tail / full < 1e-3
    assert origin_tail(kern, fgrid, grid, 6.0) < full


def test_weak_compactness_profiles(grid, fgrid):
    radii = np.arange(0.0, 8.5, 0.5)
    hp = weak_compactness_profile(get_model("hilbert").kernel, fgrid, radii)
    # translation-dilation invariance: the profile is constant
    assert np.max(hp) - np.min(hp) < 1e-8
    fp = weak_compactness_profile(get_model("finite_rank").kernel, fgrid, radii)
    assert fp[-1] < 1e-4
    assert fp[0] > fp[-1]


@pytest.mark.parametrize("label", ["finite_rank", "hilbert"])
def test_batched_pairings_match_per_pair_path(label, monkeypatch):
    # oracle: one matvec per ordered (f, g) pair at every sampled node
    kernel = get_model(label).kernel
    local, reference = SpatialGrid(4.0, 128), SpatialGrid(8.0, 256)
    monkeypatch.setattr(localization, "_MAX_NODES_PER_BIN", 4)
    monkeypatch.setattr(localization, "_LOCAL", local)
    monkeypatch.setattr(localization, "_REFERENCE", reference)
    fg = make_frame_grid(reference, 0.25, 16.0, s=0.5)
    radii = np.array([0.0, 1.0, 2.0, 3.0])
    bundle = default_test_bundle()
    prof = weak_compactness_profile(kernel, fg, radii)
    expected = []
    for r in radii:
        idx = np.flatnonzero((fg.dist0 >= r) & (fg.dist0 < r + 0.5))
        idx = idx[np.linspace(0, idx.size - 1, 4).astype(int)] if idx.size > 4 else idx
        best = 0.0
        for k in idx:
            node = GroupPoint(float(fg.a[k]), float(fg.b[k]))
            if kernel.bounded:
                K, x, h, scale = kernel_matrix(kernel, reference), reference.x, reference.h, node.a
                u = (x - node.b) / node.a
            else:
                K, h, scale = kernel_matrix(conjugate(kernel, node), local), local.h, 1.0
                u = local.x
            for f in bundle:
                for g in bundle:
                    best = max(best, abs(g(u) @ K @ f(u) * h**2 / scale))
        expected.append(best)
    assert max(expected) > 0.0
    np.testing.assert_allclose(prof, expected, rtol=1e-12, atol=0.0)
