"""Group, metric, and Haar-measure oracles for the ax+b half-plane."""

import math

import numpy as np
import pytest

from czframe.geometry import (
    GroupPoint,
    IDENTITY,
    dist,
    haar_ball_volume,
    inv,
    mul,
    node_distances,
)

RTOL = 1e-12
N_SAMPLES = 10_000


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(42)
    a = np.exp(rng.uniform(-3.0, 3.0, size=(N_SAMPLES, 3)))
    b = rng.uniform(-50.0, 50.0, size=(N_SAMPLES, 3))
    return a, b


def _close(u, v, rtol=RTOL):
    return abs(u - v) <= rtol * max(abs(u), abs(v), 1.0)


def test_group_product_oracle():
    # (a, b) * (a', b') = (a a', a b' + b), worked by hand
    g = mul(GroupPoint(2.0, 3.0), GroupPoint(4.0, -1.0))
    assert g.a == 8.0 and g.b == 1.0


def test_group_axioms(samples):
    a, b = samples
    for i in range(N_SAMPLES):
        g = GroupPoint(a[i, 0], b[i, 0])
        h = GroupPoint(a[i, 1], b[i, 1])
        k = GroupPoint(a[i, 2], b[i, 2])
        lhs = mul(mul(g, h), k)
        rhs = mul(g, mul(h, k))
        assert _close(lhs.a, rhs.a) and _close(lhs.b, rhs.b)
        e1 = mul(g, IDENTITY)
        e2 = mul(IDENTITY, g)
        assert _close(e1.a, g.a) and _close(e1.b, g.b)
        assert _close(e2.a, g.a) and _close(e2.b, g.b)
        gi = mul(g, inv(g))
        assert _close(gi.a, 1.0) and abs(gi.b) <= RTOL * max(abs(g.b), 1.0)


def test_metric_axioms(samples):
    a, b = samples
    for i in range(0, N_SAMPLES, 2):
        g = GroupPoint(a[i, 0], b[i, 0])
        h = GroupPoint(a[i, 1], b[i, 1])
        k = GroupPoint(a[i, 2], b[i, 2])
        dgh = dist(g, h)
        assert dgh >= 0.0
        assert dist(g, g) <= RTOL
        assert _close(dgh, dist(h, g))
        assert dist(g, k) <= dist(g, h) + dist(h, k) + RTOL


def test_left_invariance(samples):
    a, b = samples
    for i in range(0, N_SAMPLES, 2):
        g = GroupPoint(a[i, 0], b[i, 0])
        h = GroupPoint(a[i, 1], b[i, 1])
        ell = GroupPoint(a[i, 2], b[i, 2])
        assert _close(dist(mul(ell, g), mul(ell, h)), dist(g, h))


def test_distance_oracle_scale_axis():
    # d((1,0),(a,0)) = |log a| along the scale axis
    for a in (2.0, 0.5, 7.0):
        assert _close(dist(IDENTITY, GroupPoint(a, 0.0)), abs(math.log(a)), 1e-10)


def test_vectorized_distance_consistency():
    rng = np.random.default_rng(3)
    a = np.exp(rng.uniform(-2, 2, 64))
    b = rng.uniform(-10, 10, 64)
    d = node_distances(a, b, IDENTITY)
    for i in range(64):
        assert _close(d[i], dist(IDENTITY, GroupPoint(a[i], b[i])), 1e-12)
    anchor = GroupPoint(2.0, -3.0)
    da = node_distances(a, b, anchor)
    for i in range(64):
        assert _close(da[i], dist(anchor, GroupPoint(a[i], b[i])), 1e-12)


def _q_distance(q):
    return np.log1p(q + np.sqrt(q * (q + 2.0)))


def test_one_distance_formula_keeps_every_bit():
    # a tail sweep orders nodes by dist0, so a last-bit change would reorder ties
    from czframe.config import SuiteConfig
    from czframe.grids import SpatialGrid, make_frame_grid

    cfg = SuiteConfig.from_dict({})
    fg = make_frame_grid(SpatialGrid(cfg.grid_L, cfg.grid_N), cfg.a_min, cfg.a_max,
                         s=cfg.s, L_b=cfg.L_b, cone_factor=cfg.cone_factor)
    assert fg.n_nodes == 66_630
    q0 = (fg.b * fg.b + (fg.a - 1.0) ** 2) / (2.0 * fg.a)
    assert np.array_equal(fg.dist0, _q_distance(q0))
    rng = np.random.default_rng(7)
    a = np.exp(rng.uniform(-4.0, 4.0, size=(20_000, 2)))
    b = rng.uniform(-100.0, 100.0, size=(20_000, 2))
    for (ga, ha), (gb, hb) in zip(a.tolist(), b.tolist()):
        q = ((gb - hb) ** 2 + (ga - ha) ** 2) / (2.0 * ga * ha)
        assert dist(GroupPoint(ga, gb), GroupPoint(ha, hb)) == float(_q_distance(q))


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_haar_ball_volume(R):
    # Hyperbolic disk area oracle: 2 pi (cosh R - 1)
    value, err = haar_ball_volume(R)
    exact = 2.0 * math.pi * (math.cosh(R) - 1.0)
    assert abs(value - exact) / exact < 0.01
    assert err >= 0.0


def test_group_point_validation():
    with pytest.raises(ValueError):
        GroupPoint(0.0, 1.0)
    with pytest.raises(ValueError):
        GroupPoint(-2.0, 1.0)
    with pytest.raises(ValueError):
        GroupPoint(math.inf, 1.0)
