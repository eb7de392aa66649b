"""Suite configuration, runner, and byte-stable output emission."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from czframe.config import DEFAULT_TOLERANCES, DIAGNOSTIC_NAMES, ConfigError, SuiteConfig
from czframe.grids import SpatialGrid, make_frame_grid, tail_nodes
from czframe.operators import DiscreteOperator
from czframe.reporting import _Context, _diag_rk_tail, emit, run_suite
from czframe.wavelets import frame_rows, make_mother_wavelet


QUICK = {
    "grid": {"L": 32, "N": 1024},
    "frame": {"a_min": 0.25, "a_max": 64, "s": 0.25},
    "diagnostics": ["frame", "pv"],
    "operators": ["hilbert"],
    # coarse lattice: relax the frame tolerances while keeping the run fast
    "tolerances": {"parseval": 0.1, "roundtrip": 0.3},
}


def test_default_config_valid():
    cfg = SuiteConfig()
    cfg.validate()
    assert cfg.diagnostics == DIAGNOSTIC_NAMES
    assert cfg.tol("parseval") == DEFAULT_TOLERANCES["parseval"]


def test_resident_bytes_estimated_from_config_alone():
    # under 1 GB by default: frame rows plus one dense N x N matrix, the
    # decomposition's damped_hilbert_1 (built whatever the selected operators)
    # or rk_tail's Gram, which never live at once
    cfg = SuiteConfig()
    assert cfg.resident_bytes() < 2**30
    no_dense = dataclasses.replace(cfg, diagnostics=("frame", "pv", "paraproduct"))
    assert cfg.resident_bytes() - no_dense.resident_bytes() == 8.0 * cfg.grid_N**2
    for one in ("rk_tail", "decomposition"):
        alone = dataclasses.replace(no_dense, diagnostics=no_dense.diagnostics + (one,))
        assert alone.resident_bytes() == cfg.resident_bytes()
    # at N = 4096 the rows have fewer than N^2 / 2 nonzeros: no Gram, but a
    # sorted copy of the rows, so rk_tail doubles the row term; the dense
    # matrix of the decomposition, larger still, is live at another time
    fine = dataclasses.replace(no_dense, grid_N=4096)
    rows_only = dataclasses.replace(fine, diagnostics=("frame",)).resident_bytes()
    assert dataclasses.replace(fine, diagnostics=("rk_tail",)).resident_bytes() == 2 * rows_only
    assert 2 * rows_only < 8.0 * fine.grid_N**2 + rows_only == dataclasses.replace(
        fine, diagnostics=("rk_tail", "decomposition")).resident_bytes()
    no_dense_ops = dataclasses.replace(cfg, operators=("hilbert",))
    assert no_dense_ops.resident_bytes() == cfg.resident_bytes()
    # the row term bounds the built rows from above, clipped windows included
    small = SuiteConfig(grid_N=1024, a_min=0.25, a_max=64.0, s=0.25, diagnostics=("frame",))
    grid = SpatialGrid(small.grid_L, small.grid_N)
    rows = frame_rows(make_mother_wavelet(), make_frame_grid(grid, 0.25, 64.0, s=0.25), grid)
    assert rows.nnz <= small.resident_bytes() / 12 <= 1.5 * rows.nnz
    # summing stops past the physical memory, so 1e302 scales are never visited
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    assert SuiteConfig(s=1e-300).resident_bytes() > memory


@pytest.mark.parametrize("raw", [
    {"grid": {"N": 4194304}},  # 140 TB for damped_hilbert_1's dense matrix
    {"grid": {"N": 4194304}, "operators": ["damped_hilbert_1"]},
    {"frame": {"s": 1e-300}},  # scales beyond count
])
def test_config_beyond_physical_memory_rejected(raw):
    with pytest.raises(ConfigError, match="physical memory"):
        SuiteConfig.from_dict(raw)


@pytest.mark.parametrize("raw, fits", [
    # the decomposition builds an 11.9 GiB dense damped_hilbert_1 whatever the operators
    ({"grid": {"N": 40000}, "operators": ["hilbert"], "diagnostics": ["decomposition"]}, False),
    # pv discretizes no dense N x N kernel, whichever operators are selected
    ({"grid": {"N": 40000}, "operators": ["damped_hilbert_1"], "diagnostics": ["pv"]}, True),
])
def test_dense_term_follows_the_decomposition_diagnostic(monkeypatch, raw, fits):
    # validated only, never run
    from czframe import config

    monkeypatch.setattr(config, "_physical_memory", lambda: 8 * 2**30)
    if fits:
        assert SuiteConfig.from_dict(raw).resident_bytes() < 2**30
    else:
        with pytest.raises(ConfigError, match="physical memory"):
            SuiteConfig.from_dict(raw)


def test_from_dict_roundtrip():
    cfg = SuiteConfig.from_dict(QUICK)
    assert cfg.grid_N == 1024
    assert cfg.diagnostics == ("frame", "pv")
    d = cfg.to_dict()
    assert SuiteConfig.from_dict(d) == cfg


def test_from_dict_rejects_bad_input():
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict(["not", "an", "object"])
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"bogus_key": 1})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"diagnostics": ["no_such_diag"]})
    with pytest.raises(ConfigError, match="diagnostics"):
        SuiteConfig.from_dict({"diagnostics": []})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"operators": ["no_such_op"]})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"radii": [1.0, 1.0]})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"tolerances": {"unknown_tol": 0.1}})
    for bad_tol in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            SuiteConfig.from_dict({"tolerances": {"parseval": bad_tol}})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"seed": -1})


def test_suite_without_records_fails():
    # a selected diagnostic that writes no record certifies nothing: it leaves a FAIL record
    cfg = SuiteConfig.from_dict({**QUICK, "diagnostics": ["weak_compactness"], "operators": []})
    rep = run_suite(cfg)
    assert [(r["name"], r["values"]) for r in rep.records] == [
        ("weak_compactness", {"error": "no record written"})]
    assert rep.verdict == "FAIL"


@pytest.fixture(scope="module")
def quick_report():
    cfg = SuiteConfig.from_dict(QUICK)
    return cfg, run_suite(cfg)


def test_quick_run_passes(quick_report):
    cfg, rep = quick_report
    assert rep.verdict == "PASS"
    assert all(set(r) >= {"name", "operator", "verdict", "values", "tolerances", "grid"} for r in rep.records)


def test_failed_record_fails_suite():
    # an impossible tolerance turns the cheap diagnostic red
    cfg = SuiteConfig.from_dict({**QUICK, "tolerances": {**QUICK["tolerances"], "pv_rel": 1e-12}})
    rep = run_suite(cfg)
    assert rep.verdict == "FAIL"
    assert any(r["verdict"] == "FAIL" for r in rep.records)


def test_emit_outputs_and_byte_stability(quick_report, tmp_path):
    cfg, rep = quick_report
    out1, out2 = tmp_path / "a", tmp_path / "b"
    paths1 = emit(rep, str(out1))
    paths2 = emit(rep, str(out2))
    names1 = sorted(os.path.basename(p) for p in paths1)
    assert "report.json" in names1
    assert "summary.txt" in names1
    assert any(n.endswith(".csv") for n in names1)
    # identical content across emissions
    for p1, p2 in zip(sorted(paths1), sorted(paths2)):
        assert os.path.basename(p1) == os.path.basename(p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
    # report.json is valid JSON carrying the config and verdict
    with open(out1 / "report.json") as fh:
        payload = json.load(fh)
    assert payload["verdict"] == "PASS"
    assert payload["config"]["diagnostics"] == ["frame", "pv"]


def test_csv_format(quick_report, tmp_path):
    cfg, rep = quick_report
    paths = emit(rep, str(tmp_path))
    csvs = [p for p in paths if p.endswith(".csv")]
    for p in csvs:
        with open(p) as fh:
            lines = fh.read().strip().split("\n")
        header = lines[0].split(",")
        assert len(header) >= 2
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header)
            for c in cells:
                float(c)  # every data cell is numeric


def test_record_verdict_and_echo_come_from_its_bounds(monkeypatch):
    from czframe import reporting

    cfg = SuiteConfig()
    values = {"err": 0.01, "gain": 7.0, "pair": [0.5, 0.25]}
    bounds = (("err", "<=", "parseval"), ("gain", ">", "schur_tail_factor"))

    def rec(*checks, ok=True):
        monkeypatch.setitem(reporting.CHECKS, "check", checks)
        return reporting._record(cfg, "check", "hilbert", dict(values), {"N": 8}, ok=ok)

    ok = rec(*bounds)
    assert ok["verdict"] == "PASS"
    assert ok["tolerances"] == {"parseval": 0.02, "schur_tail_factor": 5.0}
    assert set(ok["tolerances"]) == {tol_key for _, _, tol_key in bounds}
    assert rec(*bounds, ("gain", "<", "stein_slack"))["verdict"] == "PASS"  # 7 < 10
    assert rec(*bounds, ("gain", ">=", "stein_slack"))["verdict"] == "FAIL"  # one bound fails
    assert rec(*bounds, ok=False)["verdict"] == "FAIL"
    assert rec()["tolerances"] == {}
    assert rec((("err", "gain"), "<", "stein_slack"))["verdict"] == "PASS"
    assert rec((("err", "gain"), "<", "roundtrip"))["verdict"] == "FAIL"
    # a name not keyed alone picks (name, case): the case is the record's
    # expected_class if it has one, else its operator
    monkeypatch.setitem(reporting.CHECKS, ("cased", "hilbert"), (("gain", "<", "roundtrip"),))
    monkeypatch.setitem(reporting.CHECKS, ("cased", "CMO"), (("gain", ">", "roundtrip"),))
    assert reporting._record(cfg, "cased", "hilbert", dict(values), {})["verdict"] == "FAIL"
    classed = {**values, "expected_class": "CMO"}
    assert reporting._record(cfg, "cased", "hilbert", classed, {})["verdict"] == "PASS"
    with pytest.raises(KeyError):  # an unknown case has no bounds, so it raises
        reporting._record(cfg, "cased", None, dict(values), {})
    with pytest.raises(KeyError):
        reporting._record(cfg, "cased", "hilbert", {**values, "expected_class": "neither"}, {})


def test_no_check_name_is_keyed_both_ways():
    from czframe.reporting import CHECKS

    alone = {key for key in CHECKS if isinstance(key, str)}
    cased = {key[0] for key in CHECKS if isinstance(key, tuple)}
    assert alone and cased and not alone & cased
    assert all(isinstance(key, str) or len(key) == 2 for key in CHECKS)


@pytest.mark.parametrize("name, operator", [
    ("rk_tail", "damped_hilbert_1"),
    ("weak_compactness_profile", "zero"),
    ("weak_compactness_profile", None),
])
def test_unknown_operator_of_a_case_keyed_name_raises(name, operator):
    from czframe.reporting import _record

    with pytest.raises(KeyError):
        _record(SuiteConfig(), name, operator, {"ratio": 0.5, "metric": 0.0}, {})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_record_non_finite_value_fails_and_is_spelled_out(monkeypatch, bad):
    from czframe import reporting
    from czframe.reporting import _record

    monkeypatch.setitem(reporting.CHECKS, "check", ())
    cfg = SuiteConfig()
    top = _record(cfg, "check", None, {"x": bad, "n": 3}, {}, ok=True)
    assert top["verdict"] == "FAIL"
    assert top["values"] == {"x": str(bad), "n": 3}
    nested = _record(cfg, "check", None, {"xs": [1.0, bad], "ok": [True]}, {})
    assert nested["verdict"] == "FAIL"
    assert nested["values"]["xs"] == [1.0, str(bad)]
    assert str(bad) in ("nan", "inf", "-inf")


NAN = float("nan")


@pytest.mark.parametrize("name, case, ratio, verdict, trend", [
    ("rk_tail", "zero", 0.0, "PASS", "vanishing"),
    ("rk_tail", "finite_rank", 5e-4, "PASS", "vanishing"),
    ("rk_tail", "finite_rank", 5e-3, "FAIL", "inconclusive"),  # under 1e-2, over the 1e-3 bound
    ("rk_tail", "hilbert", 0.5, "PASS", "non-vanishing"),
    ("rk_tail", "hilbert", 0.05, "FAIL", "inconclusive"),
    ("rk_tail", "hilbert", 5e-4, "FAIL", "vanishing"),  # the trend says what the ratio does
    ("paraproduct_compactness", "CMO", 0.0044, "PASS", "vanishing"),
    ("paraproduct_compactness", "CMO", 0.05, "FAIL", "inconclusive"),
    ("paraproduct_compactness", "BMO-not-CMO", 0.541, "PASS", "non-vanishing"),
    ("rk_tail", "finite_rank", NAN, "FAIL", "inconclusive"),
    ("rk_tail", "hilbert", NAN, "FAIL", "inconclusive"),
    ("paraproduct_compactness", "CMO", NAN, "FAIL", "inconclusive"),
])
def test_trend_comes_from_the_checks_bounds(name, case, ratio, verdict, trend):
    from czframe.reporting import _record

    rec = _record(SuiteConfig(), name, case, {"ratio": ratio}, {})  # the case as the operator
    assert (rec["verdict"], rec["values"]["verdict_trend"]) == (verdict, trend)


def test_tolerance_override_moves_the_trend_with_the_verdict():
    from czframe.reporting import _record

    def rec(cfg):
        r = _record(cfg, "paraproduct_compactness", "bump",
                    {"ratio": 0.0044, "expected_class": "CMO"}, {})
        return r["verdict"], r["values"]["verdict_trend"]

    assert rec(SuiteConfig()) == ("PASS", "vanishing")
    strict = SuiteConfig.from_dict({"tolerances": {"pp_vanishing_ratio": 1e-3}})
    assert rec(strict) == ("FAIL", "inconclusive")


def test_only_trend_records_carry_a_trend():
    from czframe.reporting import CHECKS, TRENDS, _record

    for name, labels in TRENDS.items():  # every label reads a real CHECKS case
        assert all((name, case) in CHECKS for _, case in labels)
    rec = _record(SuiteConfig(), "carleson_profile", "bump",
                  {"ratio": 0.0, "expected_class": "CMO"}, {})
    assert rec["verdict"] == "PASS" and "verdict_trend" not in rec["values"]


def test_nan_carleson_profile_fails_every_record(monkeypatch):
    from czframe import carleson
    from czframe.reporting import _carleson_profiles

    monkeypatch.setattr(carleson, "vanishing_profile",
                        lambda mus, radii: [np.full(len(radii), np.nan) for _ in mus])
    ctx = _Context(SuiteConfig())
    _carleson_profiles(ctx)
    records = ctx.records
    assert [r["operator"] for r in records] == ["zero", "bump", "bump_shifted", "log_singular"]
    assert all(r["verdict"] == "FAIL" and r["values"]["ratio"] == "nan" for r in records)


RK_SMALL = {
    "grid": {"L": 32, "N": 256},
    "frame": {"a_min": 0.5, "a_max": 64, "s": 0.25},
    "diagnostics": ["rk_tail"],
    "operators": ["hilbert"],
    "radii": [0, 1, 2],
}


def _rk_records(cfg):
    ctx = _Context(cfg)
    _diag_rk_tail(ctx)
    return {r["name"]: r for r in ctx.records}


@pytest.mark.parametrize("gram", [True, False])
def test_rk_tail_alone_leaves_no_frame_rows_on_its_lattices(monkeypatch, gram):
    # the sweep and its dense cross-check build the rows they use uncached,
    # so a run of rk_tail alone caches no frame-row matrix on any lattice
    from czframe import compactness, reporting

    monkeypatch.setattr(compactness, "_use_gram", lambda n, nnz: gram)
    lattices, make = [], reporting.make_frame_grid
    monkeypatch.setattr(reporting, "make_frame_grid",
                        lambda *a, **k: lattices.append(make(*a, **k)) or lattices[-1])
    rep = run_suite(SuiteConfig.from_dict(RK_SMALL))
    assert [r["verdict"] for r in rep.records] == ["PASS", "PASS"]
    assert len(lattices) == 2
    assert all(fg._rows == {} for fg in lattices)


def test_probe_gap_draws_f_then_g_and_keeps_a_nan():
    # three (f, g) pairs, f drawn first, as the two loops it replaced drew them
    from czframe.grids import inner_product
    from czframe.reporting import _probe_gap

    grid = SpatialGrid(8.0, 64)
    rng = np.random.default_rng(3)
    want = 0.0
    for _ in range(3):
        f, g = rng.standard_normal(grid.N), rng.standard_normal(grid.N)
        want = max(want, abs(f[0] - 2.0 * g[-1]))
    gap = _probe_gap(np.random.default_rng(3), grid, lambda f, g: f.values[0] - 2.0 * g.values[-1])
    assert gap == want > 0.0
    calls = iter([1.0, np.nan, 2.0])
    assert math.isnan(_probe_gap(rng, grid, lambda f, g: next(calls)))
    assert math.isnan(_probe_gap(rng, grid, lambda f, g: inner_product(f, g) * np.nan))


def test_sweeps_cover_the_selected_cases_in_checks_order():
    from czframe.reporting import _diag_weak_compactness

    ctx = _Context(SuiteConfig.from_dict({**RK_SMALL, "operators": ["zero", "hilbert"]}))
    _diag_rk_tail(ctx)
    assert [(r["name"], r["operator"]) for r in ctx.records] == [
        ("rk_tail", "hilbert"), ("rk_tail", "zero"), ("rk_power_vs_svd", "damped_hilbert_1")]
    assert sorted(ctx.profiles) == ["rk_tail_hilbert", "rk_tail_zero", "rk_witness_hilbert"]
    ctx = _Context(SuiteConfig.from_dict({**RK_SMALL, "diagnostics": ["weak_compactness"],
                                          "operators": ["finite_rank"]}))
    _diag_weak_compactness(ctx)
    assert [r["operator"] for r in ctx.records] == ["finite_rank"]
    assert list(ctx.profiles) == ["weak_compactness_finite_rank"]


def test_sweep_record_and_profile_come_from_one_helper():
    from czframe.compactness import TailFunctional

    ctx = _Context(SuiteConfig.from_dict(RK_SMALL))
    radii, prof = [0.0, 1.0], np.array([2.0, 0.5])
    ctx.sweep("rk_tail", "hilbert", radii, prof, {"ratio": 0.25}, "rk_tail_x")
    assert ctx.profiles == {
        "rk_tail_x": {"columns": ["R", "value"], "rows": [[0.0, 2.0], [1.0, 0.5]]}}
    (rec,) = ctx.records
    assert rec["verdict"] == "PASS" and "converged" not in rec["values"]
    assert rec["grid"] == ctx.grid_meta()
    tf = TailFunctional(radii=np.array(radii), values=prof, witnesses=[None, None],
                        iterations=np.array([3, 4]), converged=np.array([True, False]),
                        residuals=np.array([1e-12, 1e-3]))
    ctx.sweep("rk_tail", "hilbert", radii, prof, {"ratio": 0.25}, "x", tf=tf, grid={"N": 1})
    rec = ctx.records[-1]
    assert rec["values"]["converged"] == [True, False] and rec["values"]["iterations"] == [3, 4]
    assert rec["verdict"] == "FAIL" and rec["grid"] == {"N": 1}
    tf.converged[1] = True
    ctx.sweep("rk_tail", "hilbert", radii, prof, {"ratio": 0.25}, "x", tf=tf, ok=False)
    assert ctx.records[-1]["verdict"] == "FAIL"
    assert len(ctx.records) == 3 and sorted(ctx.profiles) == ["rk_tail_x", "x"]


def test_rk_tail_record_carries_solver_stats():
    rec = _rk_records(SuiteConfig.from_dict(RK_SMALL))["rk_tail"]
    assert rec["verdict"] == "PASS"
    v = rec["values"]
    assert v["converged"] == [True, True, True]
    assert len(v["iterations"]) == len(v["residual"]) == 3


def test_unconverged_radius_fails_rk_tail_record(monkeypatch):
    from czframe import compactness

    solve = compactness.rk_tail
    cfg = SuiteConfig.from_dict(RK_SMALL)
    ctx = _Context(cfg)
    S_one = compactness.analysis_operator(ctx.fgrid, ctx.grid)[tail_nodes(ctx.fgrid, 1.0)]
    energy_at_one = S_one.multiply(S_one).sum()

    def stalls_at_one(A, S_tail, grid, **kwargs):
        # the tail at R = 1 by its energy ||S||_F^2, the trace of its Gram
        # matrix, so the rows and the Gram route alike are recognized
        res = solve(A, S_tail, grid, **kwargs)
        energy = np.trace(S_tail) if isinstance(S_tail, np.ndarray) else S_tail.multiply(S_tail).sum()
        at_one = math.isclose(energy, energy_at_one, rel_tol=1e-12)
        return dataclasses.replace(res, converged=False) if at_one else res

    monkeypatch.setattr(compactness, "rk_tail", stalls_at_one)
    records = _rk_records(cfg)
    rec = records["rk_tail"]
    assert rec["values"]["converged"] == [True, False, True]
    assert rec["values"]["ratio"] > DEFAULT_TOLERANCES["rk_hilbert_ratio"]  # the value check alone passes
    assert rec["verdict"] == "FAIL"
    assert records["rk_power_vs_svd"]["verdict"] == "PASS"


def test_paraproduct_record_carries_solver_stats_and_fails_unconverged(monkeypatch):
    from czframe import compactness, reporting

    solve, side = compactness.rk_tail, reporting._side_lattice
    lattices = []

    def recorded_side(*args, **kwargs):
        lattices.append(side(*args, **kwargs))
        return lattices[-1]

    def stalls_at_one(A, S_tail, grid, **kwargs):
        res = solve(A, S_tail, grid, **kwargs)
        n_at_one = int(np.count_nonzero(tail_nodes(lattices[-1][1], 1.0)))
        return dataclasses.replace(res, converged=False) if S_tail.shape[0] == n_at_one else res

    monkeypatch.setattr(reporting, "_side_lattice", recorded_side)
    monkeypatch.setattr(compactness, "rk_tail", stalls_at_one)
    ctx = _Context(SuiteConfig.from_dict(RK_SMALL))
    reporting._diag_paraproduct(ctx)
    compact = [r for r in ctx.records if r["name"] == "paraproduct_compactness"]
    assert [r["operator"] for r in compact] == ["bump", "bump_shifted", "log_singular"]
    for rec in compact:
        v = rec["values"]
        assert v["converged"] == [True, True, False] + [True] * 8  # radii 0, 0.5, ..., 5
        assert len(v["iterations"]) == len(v["residual"]) == 11
        assert v["verdict_trend"] != "inconclusive"  # the value check alone passes
        assert rec["verdict"] == "FAIL"


class _MatvecFails(DiscreteOperator):
    def matvec(self, x):
        raise FloatingPointError("matvec failed in a worker")


def test_worker_failure_reaches_the_caller_and_becomes_one_fail_record(monkeypatch):
    from czframe import compactness, reporting

    cfg = SuiteConfig.from_dict({**RK_SMALL, "diagnostics": ["rk_tail", "decomposition"]})
    ctx = _Context(cfg)
    failing = _MatvecFails(ctx.grid.N, matrix=np.eye(ctx.grid.N))
    with pytest.raises(FloatingPointError):
        compactness.tail_functional([failing], ctx.fgrid, ctx.grid, [0.0, 1.0, 2.0])

    monkeypatch.setattr(
        reporting, "discretize", lambda kernel, grid: _MatvecFails(grid.N, matrix=np.eye(grid.N))
    )
    rep = run_suite(cfg)
    names = [r["name"] for r in rep.records]
    assert names.count("rk_tail") == 1 and "rk_power_vs_svd" not in names
    rk = rep.records[names.index("rk_tail")]
    assert rk["verdict"] == "FAIL"
    assert rk["values"] == {"error": "FloatingPointError: matvec failed in a worker"}
    later = names[names.index("rk_tail") + 1:]
    assert later and all(n == "decomposition" for n in later)  # the next diagnostic still ran


@pytest.mark.parametrize("name", ["frame", "decomposition"])
def test_raising_diagnostic_becomes_fail_record(monkeypatch, name):
    # "decomposition" also names a record with CHECKS bounds; its error record
    # must not be checked against them. It is the last diagnostic, so pv runs
    # before it rather than after.
    from czframe import reporting

    def broken(ctx):
        raise ZeroDivisionError("no lattice today")

    monkeypatch.setitem(reporting._DIAGNOSTICS, name, broken)
    rep = run_suite(SuiteConfig.from_dict({**QUICK, "diagnostics": sorted({name, "pv"})}))
    failed = [r for r in rep.records if r["verdict"] == "FAIL"]
    assert [r["name"] for r in failed] == [name]
    assert failed[0]["values"] == {"error": "ZeroDivisionError: no lattice today"}
    assert failed[0]["tolerances"] == {}
    # the other diagnostic still ran, in the suite's order
    names = [r["name"] for r in rep.records]
    assert names == (["frame", "pv_application"] if name == "frame"
                     else ["pv_application", "decomposition"])
    assert rep.verdict == "FAIL"


def test_raising_diagnostic_drops_what_it_wrote(monkeypatch, tmp_path):
    # a record and a profile written before the raise reach neither the
    # Report nor the output directory; the next diagnostic still runs
    from czframe import reporting

    def writes_then_raises(ctx):
        ctx.record("pv_application", "hilbert", {"relative_error": 0.0, "dual_path_gap": 0.0})
        ctx.profile("half_written", ["x", "value"], [0.0], [1.0])
        raise ValueError("late failure")

    monkeypatch.setitem(reporting._DIAGNOSTICS, "frame", writes_then_raises)
    rep = run_suite(SuiteConfig.from_dict({**QUICK, "diagnostics": ["frame", "pv"]}))
    assert [(r["name"], r["verdict"]) for r in rep.records] == [
        ("frame", "FAIL"), ("pv_application", "PASS")]
    assert rep.records[0]["values"] == {"error": "ValueError: late failure"}
    assert rep.profiles == {}
    emit(rep, str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == ["report.json", "summary.txt"]


def test_record_carries_one_solve_as_json_scalars():
    # rk_power_vs_svd's single solve: the same helper as a sweep's, with
    # numpy scalars stored as the Python int, bool and float they hold
    ctx = _Context(SuiteConfig.from_dict(RK_SMALL))
    values = {"power": 1.0, "dense_svd": 1.0, "relative_gap": 0.0}
    ctx.record("rk_power_vs_svd", "damped_hilbert_1", values, solve=(7, True, 1e-13))
    ctx.record("rk_power_vs_svd", "damped_hilbert_1", values,
               solve=(np.int64(9), np.bool_(False), np.float64(0.5)))
    converged, stalled = ctx.records
    assert converged["verdict"] == "PASS" and stalled["verdict"] == "FAIL"
    assert converged["values"]["iterations"] == 7 and stalled["values"]["residual"] == 0.5
    for rec in ctx.records:
        stats = [rec["values"][key] for key in ("iterations", "converged", "residual")]
        assert [type(v) for v in stats] == [int, bool, float]
    assert values == {"power": 1.0, "dense_svd": 1.0, "relative_gap": 0.0}  # not mutated
    json.dumps(ctx.records, allow_nan=False)


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_frame_ladder_clips_coarse_spacings(s):
    # the coarser levels 4s and 2s are clipped to 1, the largest valid spacing;
    # loose error bounds leave the verdict to the refinement check alone
    cfg = SuiteConfig.from_dict({**QUICK, "frame": {**QUICK["frame"], "s": s},
                                 "diagnostics": ["frame"],
                                 "tolerances": {"parseval": 10.0, "roundtrip": 10.0}})
    (rec,) = run_suite(cfg).records
    assert rec["name"] == "frame_identities"
    history = rec["values"]["parseval_history"]
    assert len(history) == len(rec["values"]["roundtrip_history"]) == (2 if s == 0.5 else 1)
    # one level shows no refinement, so that record cannot pass
    assert rec["verdict"] == ("PASS" if s == 0.5 else "FAIL")


# Any JSON value; objects shaped like a config whose entries are any numbers;
# and such objects with one entry replaced by any JSON value.  Python's json
# module also reads NaN, +-Infinity and integers of any size, so those are
# JSON values too.
_number = st.integers() | st.floats() | st.sampled_from([10**400, -(10**400), 2**63, 1e-300])
_json = st.recursive(
    st.none() | st.booleans() | _number | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_value = st.integers(0, 4096) | st.floats(0.0, 1024.0) | _number


def _section(keys, value=_value):
    return st.fixed_dictionaries({}, optional={k: value for k in keys})


_config = st.fixed_dictionaries(
    {},
    optional={
        "grid": _section(["L", "N"]),
        "frame": _section(["a_min", "a_max", "s", "L_b", "cone_factor"], _value | st.none()),
        "operators": st.lists(st.sampled_from(["hilbert", "zero", "finite_rank"]), max_size=3),
        "diagnostics": st.lists(st.sampled_from(DIAGNOSTIC_NAMES), max_size=3),
        "radii": st.lists(_value, max_size=4),
        "tolerances": _section(["parseval", "pv_rel"]),
        "seed": _value,
    },
)
_one_entry_junk = st.builds(
    lambda cfg, key, junk: {**cfg, key: junk},
    _config,
    st.sampled_from(["grid", "frame", "operators", "diagnostics", "radii", "tolerances", "seed", "bogus"]),
    _json,
)


@settings(max_examples=500, deadline=None)
@given(_config | _one_entry_junk | _json)
@example({"grid": {"N": 10**400}})
def test_from_dict_validates_or_raises_config_error(raw):
    try:
        cfg = SuiteConfig.from_dict(raw)
    except ConfigError:
        return
    cfg.validate()
