"""Spatial grid, sampled functions, and frame lattice construction."""

import warnings

import numpy as np
import pytest

from czframe.grids import (
    FrameGrid,
    GridMismatchError,
    SampledFunction,
    SpatialGrid,
    _exp_neg_inv,
    inner_product,
    l2_norm,
    make_frame_grid,
    smooth_bump,
    tail_nodes,
    validate_frame_grid,
)


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(32.0, 2048)


def test_spatial_grid_basics(grid):
    assert grid.h == 2.0 * 32.0 / 2048
    assert grid.x.shape == (2048,)
    assert grid.x[0] == -32.0
    assert np.allclose(np.diff(grid.x), grid.h)


def test_spatial_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid(32.0, 8)
    with pytest.raises(ValueError):
        SpatialGrid(-1.0, 256)


def test_inner_product_and_norm(grid):
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-(x**2)))
    # integral exp(-2 x^2) = sqrt(pi/2)
    assert abs(l2_norm(f) ** 2 - np.sqrt(np.pi / 2.0)) < 1e-10
    g = SampledFunction.from_callable(grid, lambda x: x * np.exp(-(x**2)))
    # odd times even integrates to zero
    assert abs(inner_product(f, g)) < 1e-12


def test_grid_mismatch_rejected(grid):
    other = SpatialGrid(32.0, 1024)
    f = SampledFunction(grid, np.zeros(grid.N))
    g = SampledFunction(other, np.zeros(other.N))
    with pytest.raises(GridMismatchError):
        inner_product(f, g)


def test_sampled_function_shape_validation(grid):
    with pytest.raises(ValueError):
        SampledFunction(grid, np.zeros(17))


def test_sampled_function_is_real(grid):
    with pytest.raises(TypeError):
        SampledFunction(grid, np.zeros(grid.N, dtype=complex))
    with pytest.raises(TypeError):
        SampledFunction.from_callable(grid, lambda x: np.exp(1j * x))
    f = SampledFunction(grid, np.arange(grid.N))
    assert f.values.dtype == np.float64
    assert isinstance(inner_product(f, f), float)


def test_frame_grid_preconditions(grid):
    with pytest.raises(ValueError):
        make_frame_grid(grid, grid.h, 16.0)  # below 2h resolution limit
    with pytest.raises(ValueError):
        make_frame_grid(grid, 0.25, 16.0, s=0.0)
    with pytest.raises(ValueError):
        make_frame_grid(grid, 0.25, 16.0, s=1.5)
    with pytest.raises(ValueError):
        make_frame_grid(grid, 0.25, 16.0, L_b=0.0)
    with pytest.raises(ValueError):
        make_frame_grid(grid, 0.25, 16.0, cone_factor=-1.0)


@pytest.mark.parametrize(
    "L, a_min, a_max, cone_factor",
    [
        (32.0, 0.25, 16.0, 1e308),  # L_b + cone_factor * a overflows at the top scale
        (1e-300, 1e-300, 1e308, 1.0),  # a_max / a_min overflows: infinitely many scales
    ],
)
def test_frame_grid_rejects_non_finite_counts(L, a_min, a_max, cone_factor):
    spatial = SpatialGrid(L, 2048)
    with pytest.raises(ValueError, match="not finite"):
        validate_frame_grid(spatial, a_min, a_max, cone_factor=cone_factor)
    with pytest.raises(ValueError, match="not finite"):
        make_frame_grid(spatial, a_min, a_max, cone_factor=cone_factor)


def test_frame_grid_structure(grid):
    fg = make_frame_grid(grid, 0.25, 16.0, s=0.25)
    assert fg.n_nodes == len(fg.a) == len(fg.b)
    assert np.all(fg.a >= 0.25) and np.all(fg.a <= 16.0)
    # scale_slice partitions the nodes
    total = sum(fg.scale_slice(j).stop - fg.scale_slice(j).start for j in range(len(fg.scales)))
    assert total == fg.n_nodes
    # one Haar weight, s * s, shared by every node
    assert isinstance(fg.dlam, float) and fg.dlam == fg.s * fg.s > 0.0


def test_tail_nodes_nested(grid):
    fg = make_frame_grid(grid, 0.25, 16.0, s=0.25)
    m1 = tail_nodes(fg, 1.0)
    m2 = tail_nodes(fg, 2.0)
    assert np.all(m2 <= m1)  # larger radius excludes more nodes
    assert np.array_equal(tail_nodes(fg, 0.0), np.ones(fg.n_nodes, dtype=bool))


def test_cone_extension_widens_translation_range(grid):
    fg0 = make_frame_grid(grid, 0.25, 16.0, s=0.25, L_b=16.0, cone_factor=0.0)
    fg1 = make_frame_grid(grid, 0.25, 16.0, s=0.25, L_b=16.0, cone_factor=1.0)
    assert np.max(np.abs(fg1.b)) > np.max(np.abs(fg0.b))


def test_smooth_bump_closed_form():
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0),
               1e200]
    u = np.array([-2.5, -1.0, -0.999, -0.5, 0.0, 0.3, 0.999, 1.0, 1.0 + 1e-12, 7.0, *special])
    inside = np.abs(u) < 1.0
    want = np.where(inside, np.exp(-1.0 / (1.0 - np.where(inside, u, 0.0) ** 2)), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no point, NaN and +-inf included, warns
        got = smooth_bump(u)
        zero_d = [smooth_bump(v) for v in (0.0, np.float64(0.3), np.array(-0.3), np.nan, np.inf)]
    assert got.tobytes() == want.tobytes()  # bitwise, including u = +-1 and |u| > 1
    assert all(np.shape(v) == () for v in zero_d)
    assert [float(v) for v in zero_d] == [np.exp(-1.0), *[np.exp(-1.0 / (1.0 - 0.3 * 0.3))] * 2,
                                          0.0, 0.0]
    # center and width act as x -> (x - center) / width, bitwise
    x = np.linspace(-9.0, 9.0, 1001)
    assert np.array_equal(smooth_bump(x, -8.0, 1.5), smooth_bump((x + 8.0) / 1.5))
    assert np.all(smooth_bump(x, 0.5, 1.5)[np.abs(x - 0.5) >= 1.5] == 0.0)


def test_exp_neg_inv_is_the_one_step():
    # e(t) = exp(-1/t) for t > 0 and +0.0 otherwise, NaN included, with no warning
    t = np.array([-np.inf, -1.0, -0.0, 0.0, 5e-324, np.finfo(float).tiny, 1e-3, 0.5, 1.0, 1e300,
                  np.inf, np.nan])
    pos = t > 0.0
    with np.errstate(over="ignore"):  # -1/5e-324 overflows to -inf
        want = np.where(pos, np.exp(-1.0 / np.where(pos, t, 1.0)), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _exp_neg_inv(t)
        buf = t.copy()
        assert _exp_neg_inv(buf, out=buf) is buf
    assert got.tobytes() == buf.tobytes() == want.tobytes()
    assert _exp_neg_inv(0.5).shape == () and float(_exp_neg_inv(0.5)) == np.exp(-2.0)
