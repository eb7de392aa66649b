"""Coefficient measures, tent masses, Carleson function, and max-function audit."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import czframe.carleson as carleson_mod
import czframe.wavelets as wavelets_mod
from czframe.carleson import (
    CoefficientMeasure,
    bmo_examples,
    carleson_function,
    coefficient_measure,
    point_mass,
    stein_inequality_check,
    tent_masses,
    vanishing_profile,
)
from czframe.geometry import IDENTITY
from czframe.grids import SampledFunction, SpatialGrid, make_frame_grid, smooth_bump
from czframe.operators import get_model
from czframe.paraproducts import decompose
from czframe.wavelets import CoefficientField, bump_phi, frame_element, make_mother_wavelet


@pytest.fixture(scope="module")
def psi():
    return make_mother_wavelet()


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(64.0, 1024)


@pytest.fixture(scope="module")
def fgrid(grid):
    return make_frame_grid(grid, 0.5, 32.0, s=0.25, L_b=32.0, cone_factor=0.0)


def test_measure_validation(fgrid):
    with pytest.raises(ValueError):
        CoefficientMeasure(fgrid, np.zeros(3))
    with pytest.raises(ValueError):
        CoefficientMeasure(fgrid, -np.ones(fgrid.n_nodes))


@pytest.mark.parametrize("index", [True, False, -1, "n_nodes", 1.0, "0"])
def test_point_mass_refuses_an_index_it_would_misread(fgrid, index):
    # numpy would put the atom on every node for True and on the last for -1
    if index == "n_nodes":
        index = fgrid.n_nodes
    with pytest.raises(ValueError):
        point_mass(fgrid, index)


def test_point_mass_takes_a_numpy_integer(fgrid):
    k = fgrid.n_nodes - 1
    for index in (np.int64(k), np.intp(k), k):
        masses = point_mass(fgrid, index).masses
        assert masses[k] == 1.0 and masses.sum() == 1.0


def test_point_mass_carleson_function(fgrid):
    # one atom at node k: C mu(x) = sup over tents containing the atom of
    # mass / (2a); for x in the atom's cone the sup is attained and positive
    k = fgrid.n_nodes // 3
    mu = point_mass(fgrid, k)
    a_k, b_k = float(fgrid.a[k]), float(fgrid.b[k])
    val = carleson_function(mu, b_k)
    # the smallest tent containing the atom is the node's own: mass/(2 a_k)
    assert val == pytest.approx(1.0 / (2.0 * a_k))
    with pytest.raises(ValueError):
        carleson_function(mu, 1e9)


def test_carleson_function_refuses_a_nan_point(fgrid):
    # NaN compares False with the box edge, so it must be refused, not read as an empty cone
    mu = point_mass(fgrid, fgrid.n_nodes // 3)
    with pytest.raises(ValueError, match="outside the translation box"):
        carleson_function(mu, np.nan)


def test_vanishing_profile_monotone_and_compact_support(grid, fgrid):
    f = SampledFunction.from_callable(grid, partial(smooth_bump, center=0.0, width=2.0))
    mu = coefficient_measure(f, fgrid)
    radii = np.arange(0.0, 5.5, 0.5)
    (prof,) = vanishing_profile([mu], radii)
    assert np.all(np.diff(prof) <= 0.0)
    assert prof[0] > 0.0
    assert prof[-1] / prof[0] < 0.1


def test_vanishing_profile_refuses_a_nan_radius(grid, fgrid):
    f = SampledFunction.from_callable(grid, partial(smooth_bump, center=0.0, width=2.0))
    mu = coefficient_measure(f, fgrid)
    with pytest.raises(ValueError, match="nonnegative"):
        vanishing_profile([mu], [0.0, np.nan])
    assert vanishing_profile([mu], [np.inf])[0][0] == 0.0  # the empty tail


def test_log_singular_profile_does_not_vanish():
    wide = SpatialGrid(512.0, 4096)
    wfg = make_frame_grid(wide, 0.5, 256.0, s=0.25, L_b=256.0, cone_factor=0.0)
    ex = [e for e in bmo_examples(wide) if e.label == "log_singular"][0]
    f = SampledFunction.from_callable(wide, ex.evaluator)
    mu = coefficient_measure(f, wfg)
    (prof,) = vanishing_profile([mu], np.arange(0.0, 5.5, 0.5))
    assert prof[-1] / prof[0] > 0.2


def test_stein_audit_matches_the_cached_rows(psi, grid, monkeypatch):
    # the audit pairs f with the cached L2 phi rows; oracle: per-node
    # samples a^-1/2 phi((x - b)/a), summed against f
    fg = make_frame_grid(grid, 0.5, 32.0, s=0.25, L_b=32.0, cone_factor=0.0)
    f = SampledFunction(grid, np.exp(-((grid.x / 4.0) ** 2)) + np.sin(grid.x))
    mu = coefficient_measure(f, fg)
    [ratio] = stein_inequality_check([(f, mu)])
    assert set(fg._rows) == {(psi, grid), (bump_phi, grid)}
    u = (grid.x[None, :] - fg.b[:, None]) / fg.a[:, None]
    oracle = (bump_phi(u) / np.sqrt(fg.a)[:, None]) @ f.values * grid.h
    monkeypatch.setattr(carleson_mod, "analyze",
                        lambda g, fn, fgrid: CoefficientField(fgrid, oracle))
    assert stein_inequality_check([(f, mu)])[0] == pytest.approx(ratio, rel=1e-12)


def test_phi_rows_built_once_per_lattice(grid, monkeypatch):
    # the Stein audits and the paraproducts share one cached phi dictionary
    fg = make_frame_grid(grid, 0.5, 32.0, s=0.25, L_b=32.0, cone_factor=0.0)
    built = []
    scale_rows = wavelets_mod._scale_rows

    def counting(fn, *args):
        built.append(fn)
        return scale_rows(fn, *args)

    monkeypatch.setattr(wavelets_mod, "_scale_rows", counting)
    mu = coefficient_measure(SampledFunction.from_callable(grid, lambda x: np.exp(-(x**2))), fg)
    for f in (np.exp(-(grid.x**2)), np.exp(-(((grid.x - 3.0) / 1.5) ** 2))):
        stein_inequality_check([(SampledFunction(grid, f), mu)])
    dec = decompose(get_model("damped_hilbert_1").kernel, fg, grid)
    dec.apply_p1(SampledFunction(grid, np.exp(-(grid.x**2))))
    assert built.count(bump_phi) == 1


def test_stein_inequality_gaussian(grid, fgrid):
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-((x / 4.0) ** 2)))
    mu = coefficient_measure(f, fgrid)
    [ratio] = stein_inequality_check([(f, mu)])
    assert 0.0 <= ratio <= 10.0


def test_stein_inequality_point_mass(grid, fgrid):
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-(((x + 8.0) / 2.0) ** 2)))
    mu = point_mass(fgrid, fgrid.n_nodes // 2)
    [ratio] = stein_inequality_check([(f, mu)])
    assert ratio <= 10.0


def _oracle_cone(x, fgrid):
    """The open cone over x as a mask over every lattice node."""
    return np.abs(x - fgrid.b) < fgrid.a


def _oracle_carleson_function(mu, x):
    fg = mu.fgrid
    sel = _oracle_cone(x, fg)
    if not np.any(sel):
        return 0.0
    return float(np.max(tent_masses([mu])[0][sel] / (2.0 * fg.a[sel])))


def _oracle_stein(f, mu):
    """The Stein audit with one full-lattice cone mask per position."""
    fg = mu.fgrid
    coeffs = carleson_mod.analyze(f, bump_phi, fg).values
    lhs = float(np.sum(np.abs(coeffs) ** 2 * mu.masses))
    ratios = tent_masses([mu])[0] / (2.0 * fg.a)
    xs = np.linspace(-f.grid.L, f.grid.L, 257)
    dx = xs[1] - xs[0]
    rhs = 0.0
    for x in xs:
        sel = _oracle_cone(float(x), fg)
        if not np.any(sel):
            continue
        mf = float(np.max(np.abs(coeffs[sel])))
        cmu = float(np.max(ratios[sel]))
        rhs += mf**2 * cmu * dx
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


@pytest.fixture(scope="module")
def lattices(grid, fgrid):
    """The suite's default lattice and the cone_factor=0 one, each with its grid."""
    default = SpatialGrid(32.0, 2048)
    return {
        "default": (default, make_frame_grid(default, 0.0625, 512.0, s=0.125, cone_factor=1.0)),
        "cone_factor_0": (grid, fgrid),
    }


def _edge_positions(fg, count=6):
    """Positions x = b +- a exactly, with |x - b| == a, inside the translation box."""
    rng = np.random.default_rng(2)
    out = []
    for k in rng.permutation(fg.n_nodes):
        for x in (fg.b[k] + fg.a[k], fg.b[k] - fg.a[k]):
            if abs(x - fg.b[k]) == fg.a[k] and abs(x) <= fg.L_b:
                out.append(float(x))
        if len(out) >= count:
            return out
    raise AssertionError("no exact cone edges found")


def _brute_tent(mu, i):
    """The closed-tent mass at node i, summed over every node of the lattice."""
    fg = mu.fgrid
    inside = (fg.a <= fg.a[i]) & (np.abs(fg.b - fg.b[i]) <= fg.a[i] - fg.a)
    return float(np.sum(mu.masses[inside]))


def _integer_measure(fg):
    """Random integer masses, so that every tent sum is exact in floating point."""
    return CoefficientMeasure(fg, np.random.default_rng(0).integers(1, 10, fg.n_nodes) * 1.0)


def _on_exact_ties(fg):
    """The nodes (a, +-a), whose tent edges pass exactly through the nodes (a', +-a')."""
    return np.abs(fg.b) == fg.a


@pytest.mark.parametrize("name", ["default", "cone_factor_0"])
def test_tent_masses_against_brute_force(lattices, name):
    # every node of the last scale, both ends of the first and a random
    # subsample, tied nodes included; the tied nodes have a test of their own
    _, fg = lattices[name]
    mu = _integer_measure(fg)
    (fast,) = tent_masses([mu])
    first, last = fg.scale_slice(0), fg.scale_slice(fg.scales.size - 1)
    rng = np.random.default_rng(1)
    nodes = [first.start, first.stop - 1, *range(last.start, last.stop),
             *rng.choice(fg.n_nodes, size=40, replace=False)]
    assert any(_on_exact_ties(fg)[i] for i in nodes)
    for i in nodes:
        assert fast[i] == _brute_tent(mu, i)


@pytest.mark.parametrize("name", ["default", "cone_factor_0"])
def test_tent_masses_closed_on_exact_ties(lattices, name):
    _, fg = lattices[name]
    mu = _integer_measure(fg)
    (fast,) = tent_masses([mu])
    tied = np.flatnonzero(_on_exact_ties(fg))
    assert tied.size > 0
    assert [fast[i] for i in tied] == [_brute_tent(mu, i) for i in tied]


def _searched_tent_masses(mu):
    """The closed-tent masses with every window edge found by binary search over b_k."""
    fg = mu.fgrid
    out = np.zeros(fg.n_nodes)
    for k in range(fg.scales.size):
        sl = fg.scale_slice(k)
        b_k = fg.b[sl]
        pad = np.concatenate(([-np.inf], b_k, [np.inf]))
        cum = np.concatenate(([0.0], np.cumsum(mu.masses[sl])))
        above = slice(sl.start, None)
        b, r = fg.b[above], fg.a[above] - fg.scales[k]
        hi = np.searchsorted(b_k, b + r)
        hi += pad[hi + 1] - b <= r
        hi -= pad[hi] - b > r
        lo = np.searchsorted(b_k, b - r)
        lo += b - pad[lo + 1] > r
        lo -= b - pad[lo] <= r
        out[above] += cum[hi] - cum[lo]
    return out


# s = 1/m puts the nodes (a', +-a') on tent edges: exactly for a power of two, up to
# rounding for 1/3; any s in [1/8, 1] otherwise
_spacing = st.sampled_from([0.125, 0.25, 1.0 / 3.0, 0.5, 1.0]) | st.floats(0.125, 1.0)


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([64, 128, 256]), L=st.floats(2.0, 64.0), span=st.floats(1.2, 300.0),
       lift=st.floats(1.0, 3.0), s=_spacing, cone_factor=st.floats(0.0, 2.0),
       L_b=st.none() | st.floats(0.5, 64.0), seed=st.integers(0, 2**16))
# exact ties: each node (a, +-a)'s tent ends on the finer nodes (a', +-a')
@example(N=128, L=8.0, span=64.0, lift=1.0, s=0.25, cone_factor=0.0, L_b=8.0, seed=0)
# a lower edge that rounding moves past the guess: the check of the next node takes it
@example(N=64, L=32.0, span=4.0, lift=2.0, s=1.0 / 3.0, cone_factor=1.0, L_b=2.0, seed=0)
def test_arithmetic_tent_edges_match_the_searched_edges(N, L, span, lift, s, cone_factor, L_b,
                                                         seed):
    # integer masses make every window sum exact, so == compares the windows themselves
    grid = SpatialGrid(L, N)
    a_min = 2.0 * grid.h * lift
    fg = make_frame_grid(grid, a_min, a_min * span, s=s, L_b=L_b, cone_factor=cone_factor)
    rng = np.random.default_rng(seed)
    mus = [CoefficientMeasure(fg, rng.integers(0, 10, fg.n_nodes) * 1.0) for _ in range(2)]
    for mu, fast in zip(mus, tent_masses(mus)):
        assert fast.tobytes() == _searched_tent_masses(mu).tobytes()


def test_one_pass_serves_every_measure_as_if_alone(lattices):
    _, fg = lattices["default"]
    rng = np.random.default_rng(3)
    mus = [CoefficientMeasure(fg, rng.random(fg.n_nodes)), point_mass(fg, fg.n_nodes // 5),
           _integer_measure(fg)]
    together = tent_masses(mus)
    assert len(together) == 3
    for mu, fast in zip(mus, together):
        assert fast.tobytes() == tent_masses([mu])[0].tobytes()
    radii = np.arange(0.0, 4.5, 0.5)
    profiles = vanishing_profile(mus, radii)
    for mu, prof in zip(mus, profiles):
        assert prof.tobytes() == vanishing_profile([mu], radii)[0].tobytes()
    assert tent_masses([]) == [] and vanishing_profile([], radii) == []


def test_one_stein_pass_serves_every_audit_as_if_alone(lattices, monkeypatch):
    # one tent_masses call and one _cone_maxima pass for all the audits, each
    # ratio bitwise its single-audit value
    grid, fg = lattices["default"]
    mu_psi = coefficient_measure(frame_element(IDENTITY, grid), fg)
    mu_pt = point_mass(fg, int(np.argmin(fg.dist0)))
    audits = [
        (SampledFunction(grid, np.exp(-grid.x**2)), mu_psi),
        (SampledFunction(grid, smooth_bump(grid.x, 0.0, 1.5)), mu_pt),
        (SampledFunction(grid, np.exp(-((grid.x / 4.0) ** 2))), _integer_measure(fg)),
    ]
    alone = [stein_inequality_check([audit])[0] for audit in audits]
    calls = []
    for name in ("tent_masses", "_cone_maxima"):
        wrapped = getattr(carleson_mod, name)
        monkeypatch.setattr(carleson_mod, name,
                            lambda *a, f=wrapped, name=name: calls.append(name) or f(*a))
    together = stein_inequality_check(audits)
    assert calls == ["tent_masses", "_cone_maxima"]
    assert len(together) == 3
    for (f, mu), got, want in zip(audits, together, alone):
        assert got > 0.0
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert got == _oracle_stein(f, mu)
    assert stein_inequality_check([]) == []
    _, other = lattices["cone_factor_0"]
    with pytest.raises(ValueError, match="one lattice"):
        stein_inequality_check([audits[0], (audits[1][0], point_mass(other, 0))])
    wider = SpatialGrid(2.0 * grid.L, 2 * grid.N)
    with pytest.raises(ValueError, match="one grid"):
        stein_inequality_check([audits[0], (SampledFunction(wider, np.exp(-wider.x**2)), mu_pt)])


def test_measures_on_several_lattices_are_refused(grid, fgrid, lattices):
    _, other = lattices["default"]
    mus = [point_mass(fgrid, 0), point_mass(other, 0)]
    with pytest.raises(ValueError, match="one lattice"):
        tent_masses(mus)
    with pytest.raises(ValueError, match="one lattice"):
        vanishing_profile(mus, [0.0, 1.0])
    twin = make_frame_grid(grid, 0.5, 32.0, s=0.25, L_b=32.0, cone_factor=0.0)  # equal, not one
    with pytest.raises(ValueError, match="one lattice"):
        tent_masses([point_mass(fgrid, 0), point_mass(twin, 0)])


@pytest.mark.parametrize("name", ["default", "cone_factor_0"])
def test_stein_audit_matches_the_mask_oracle(lattices, name):
    grid, fg = lattices[name]
    gauss = SampledFunction(grid, np.exp(-grid.x**2))
    mu_psi = coefficient_measure(frame_element(IDENTITY, grid), fg)
    bump = SampledFunction(grid, smooth_bump(grid.x, 0.0, 1.5))
    mu_pt = point_mass(fg, int(np.argmin(fg.dist0)))
    for f, mu in ((gauss, mu_psi), (bump, mu_pt)):
        [ratio] = stein_inequality_check([(f, mu)])
        assert ratio > 0.0
        assert ratio == _oracle_stein(f, mu)
    xs = np.linspace(-grid.L, grid.L, 257)
    uncovered = [x for x in xs if not np.any(_oracle_cone(x, fg))]
    assert bool(uncovered) == (name == "cone_factor_0")  # positions no cone covers are skipped


@pytest.mark.parametrize("name", ["default", "cone_factor_0"])
def test_carleson_function_matches_the_mask_oracle(lattices, name):
    _, fg = lattices[name]
    rng = np.random.default_rng(9)
    mu = CoefficientMeasure(fg, rng.random(fg.n_nodes))
    edges = _edge_positions(fg)
    xs = [0.0, float(fg.b[fg.n_nodes // 3]), *edges, *rng.uniform(-fg.L_b, fg.L_b, 8)]
    for x in xs:
        assert carleson_function(mu, x) == _oracle_carleson_function(mu, x)


@pytest.mark.parametrize("name", ["default", "cone_factor_0"])
def test_cone_maxima_match_the_mask_oracle(lattices, name):
    # the open cone excludes x = b +- a exactly; a position past every cone
    # has no node at all
    _, fg = lattices[name]
    rng = np.random.default_rng(4)
    fields = [rng.random(fg.n_nodes), rng.standard_normal(fg.n_nodes)]
    edges = _edge_positions(fg)
    far = fg.L_b + 2.0 * float(fg.a.max())
    xs = np.array([*edges, far, -far, *rng.uniform(-fg.L_b, fg.L_b, 16)])
    maxima, covered = carleson_mod._cone_maxima(fg, xs, fields)
    for m, x in enumerate(xs):
        sel = _oracle_cone(x, fg)
        assert covered[m] == np.any(sel)
        for i, values in enumerate(fields):
            expected = np.max(values[sel]) if np.any(sel) else -np.inf
            assert maxima[i, m] == expected
    assert not covered[len(edges)] and not covered[len(edges) + 1]
    # each edge position sits exactly on the boundary of some node's cone
    for x in edges:
        assert np.any(np.abs(x - fg.b) == fg.a)


def test_bmo_examples_and_norms(grid):
    exs = {e.label: e for e in bmo_examples(grid)}
    assert set(exs) == {"zero", "bump", "bump_shifted", "log_singular"}
    vals = SampledFunction.from_callable(grid, exs["log_singular"].evaluator)
    assert np.all(np.isfinite(vals.values))  # singularity placed off-grid
