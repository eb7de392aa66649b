"""End-to-end acceptance: one full default suite run plus direct spot checks.

The expensive work happens once in a session fixture that drives the real CLI
entry point on the default configuration; the individual tests then assert the
recorded diagnostics at their contracted tolerances.
"""

import importlib.util
import json
import math
import operator
import os
import time
from pathlib import Path

import numpy as np
import pytest

from czframe.cli import main
from czframe.config import DEFAULT_TOLERANCES
from czframe.geometry import GroupPoint, dist, haar_ball_volume, mul, inv
from czframe.reporting import CHECKS

README = Path(__file__).resolve().parent.parent / "README.md"
COMPARE = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


@pytest.fixture(scope="session")
def full_suite(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    cfgp = base / "suite.json"
    cfgp.write_text("{}\n")  # full default configuration
    out1 = base / "run1"
    t0 = time.monotonic()
    code = main(["--config", str(cfgp), "--out", str(out1)])
    elapsed = time.monotonic() - t0
    with open(out1 / "report.json") as fh:
        report = json.load(fh)
    return {
        "exit_code": code,
        "elapsed": elapsed,
        "out": out1,
        "base": base,
        "config_path": cfgp,
        "report": report,
    }


def _record(report, name, operator=None):
    hits = [
        r
        for r in report["records"]
        if r["name"] == name and (operator is None or r["operator"] == operator)
    ]
    assert hits, f"no record {name}/{operator}"
    assert len(hits) == 1
    return hits[0]


# --- group geometry ------------------------------------------


def test_group_geometry_randomized():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    n = 10_000
    a = np.exp(rng.uniform(-3, 3, size=(3, n)))
    b = rng.uniform(-50, 50, size=(3, n))
    pts = [[GroupPoint(float(a[k, i]), float(b[k, i])) for k in range(3)] for i in range(n)]
    for p, q, r in pts:
        # associativity and inverses at 1e-12 relative tolerance
        lhs, rhs = mul(mul(p, q), r), mul(p, mul(q, r))
        assert abs(lhs.a - rhs.a) <= 1e-12 * max(1.0, abs(rhs.a))
        assert abs(lhs.b - rhs.b) <= 1e-12 * max(1.0, abs(rhs.b))
        e = mul(p, inv(p))
        assert abs(e.a - 1.0) <= 1e-12 and abs(e.b) <= 1e-12 * max(1.0, abs(p.b))
        # metric axioms: symmetry and triangle inequality
        assert abs(dist(p, q) - dist(q, p)) <= 1e-12 * max(1.0, dist(p, q))
        assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-12
        # left-invariance
        d0, d1 = dist(q, r), dist(mul(p, q), mul(p, r))
        assert abs(d0 - d1) <= 1e-12 * max(1.0, d0)
    assert time.monotonic() - t0 < 10.0


def test_haar_ball_volume_closed_form():
    # centered at the identity; left-invariance moves the ball anywhere
    vol, _ = haar_ball_volume(1.0)
    exact = 2.0 * math.pi * (math.cosh(1.0) - 1.0)
    assert abs(vol - exact) / exact < 0.01


# --- recorded diagnostics of the default suite --------------


def test_frame_identities(full_suite):
    rec = _record(full_suite["report"], "frame_identities")
    v = rec["values"]
    assert v["parseval_error"] < 0.02
    assert v["roundtrip_error"] < 0.05
    # monotone improvement over three lattice refinements
    assert v["parseval_history"][0] > v["parseval_history"][1] > v["parseval_history"][2]
    assert v["roundtrip_history"][0] > v["roundtrip_history"][1] > v["roundtrip_history"][2]


def test_pv_application(full_suite):
    rec = _record(full_suite["report"], "pv_application", "hilbert")
    assert rec["values"]["relative_error"] < 0.02
    assert rec["values"]["dual_path_gap"] < 1e-4


def test_decay_bound_stability(full_suite):
    rec = _record(full_suite["report"], "decay_bound", "hilbert")
    v = rec["values"]
    assert v["fitted_c"] > 0.0 and math.isfinite(v["fitted_c"])
    assert v["relative_change"] <= 0.20


def test_schur_localization(full_suite):
    rec = _record(full_suite["report"], "schur_localization", "hilbert")
    v = rec["values"]
    assert math.isfinite(v["schur_value"]) and v["schur_value"] > 0.0
    assert v["anchor_spread"] <= 1e-10
    assert v["tail_factor"] >= 5.0


def test_weak_compactness_dichotomy(full_suite):
    hil = _record(full_suite["report"], "weak_compactness_profile", "hilbert")
    assert hil["values"]["metric"] < 1e-8
    fr = _record(full_suite["report"], "weak_compactness_profile", "finite_rank")
    assert fr["values"]["profile_end"] < 1e-4


def test_rk_tail_dichotomy(full_suite):
    fr = _record(full_suite["report"], "rk_tail", "finite_rank")
    assert fr["values"]["ratio"] < 1e-3
    hil = _record(full_suite["report"], "rk_tail", "hilbert")
    assert hil["values"]["ratio"] > 0.1
    # exported witness profile for the non-compact model
    assert (full_suite["out"] / "rk_witness_hilbert.csv").exists()


def test_rk_power_iteration_vs_dense_svd(full_suite):
    rec = _record(full_suite["report"], "rk_power_vs_svd", "damped_hilbert_1")
    assert rec["grid"]["N"] == 256
    assert rec["values"]["relative_gap"] <= 1e-3


def test_carleson_dichotomy(full_suite):
    bump = _record(full_suite["report"], "carleson_profile", "bump")
    assert bump["values"]["ratio"] < 1e-2
    log = _record(full_suite["report"], "carleson_profile", "log_singular")
    assert log["values"]["ratio"] > 0.2


def test_carleson_maximal_inequality(full_suite):
    rec = _record(full_suite["report"], "stein_inequality")
    assert rec["values"]["ratio_gaussian"] <= 10.0
    assert rec["values"]["ratio_point_mass"] <= 10.0
    assert rec["values"]["ratio_point_mass"] > 0.0  # the test bump meets phi's window at the atom


def test_paraproduct_identities(full_suite):
    rec = _record(full_suite["report"], "paraproduct_identities")
    v = rec["values"]
    assert v["symbol_rel_error"] < 0.05
    assert v["adjoint_constant_max"] <= 1e-9
    assert v["adjointness_gap"] <= 1e-10


def test_paraproduct_compactness_dichotomy(full_suite):
    bump = _record(full_suite["report"], "paraproduct_compactness", "bump")
    assert bump["values"]["ratio"] < 1e-2
    log = _record(full_suite["report"], "paraproduct_compactness", "log_singular")
    assert log["values"]["ratio"] > 0.1


def test_decomposition(full_suite):
    rec = _record(full_suite["report"], "decomposition", "damped_hilbert_1")
    v = rec["values"]
    assert v["reconstruction_gap"] <= 1e-10
    assert v["paired_s1_ratio"] <= 0.05
    assert v["hilbert_s_minus_t"] <= 1e-9


def test_every_tolerance_is_read_by_some_record():
    # a tolerance no record checks would be a knob that changes nothing
    assert {tol for bounds in CHECKS.values() for _, _, tol in bounds} == set(DEFAULT_TOLERANCES)


def _readme_checks() -> dict:
    """(record, operator) -> [(value, comparator, tolerance key)] from README's table."""
    rows = {}
    for line in README.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        ops = [None] if cells[1] == "—" else [op.strip("`") for op in cells[1].split(", ")]
        checks = [tuple(check.strip("`").split()) for check in cells[2].split(", ")]
        for op in ops:
            rows[(cells[0].strip("`"), op)] = checks
    return rows


def _table_checks(record) -> list:
    """The record's ``CHECKS`` entry as README rows: one (value, comparator, tolerance) a value."""
    name, case = record["name"], record["values"].get("expected_class", record["operator"])
    bounds = CHECKS[(name, case)] if (name, case) in CHECKS else CHECKS[name]
    return [(value, cmp, tol) for keys, cmp, tol in bounds
            for value in ((keys,) if isinstance(keys, str) else keys)]


def test_readme_check_table_matches_records(full_suite):
    table = _readme_checks()
    records = full_suite["report"]["records"]
    assert len(table) == len(records) == 21
    assert set(table) == {(r["name"], r["operator"]) for r in records}
    for r in records:
        checks = table[(r["name"], r["operator"])]
        assert checks == _table_checks(r), (r["name"], r["operator"])
        assert set(r["tolerances"]) == {tol for _, _, tol in checks}, r["name"]
        for value, cmp, tol in checks:  # every record PASSes, so each listed check holds
            assert COMPARE[cmp](r["values"][value], r["tolerances"][tol]), (r["name"], value)


# Checked values that the default suite computes as exactly 0.0, and why. A
# zero can mean the check never exercised what it names, so every one must be
# explained here, and an entry whose value is no longer zero must go.
EXACT_ZEROS = {
    ("carleson_profile", "bump", "ratio"):
        "vacuous: the side lattice's tents over the bump end before the last radius",
    ("carleson_profile", "bump_shifted", "ratio"):
        "vacuous: the side lattice's tents over the bump end before the last radius",
    ("paraproduct_identities", None, "adjoint_constant_max"):
        "vacuous: P*_beta 1 is returned as zeros, not computed",
    ("schur_localization", "hilbert", "anchor_spread"):
        "by construction: every anchor is conjugated to the identity, and Hilbert's "
        "conjugate is Hilbert, so the Schur values are bitwise equal",
    ("weak_compactness_profile", "hilbert", "metric"):
        "by construction: every node is conjugated to one fixed-grid pairing, and "
        "Hilbert's conjugate is Hilbert",
    ("schur_localization", "hilbert", "finite_rank_origin_tail"):
        "exact: no wavelet at the origin-tail radius meets the finite-rank kernel's support",
    ("weak_compactness_profile", "finite_rank", "metric"):
        "exact: no test function at the last radius meets the finite-rank kernel's support",
    ("rk_tail", "finite_rank", "ratio"):
        "exact: no tail wavelet at the last radius meets the finite-rank operator's range",
    ("rk_tail", "zero", "ratio"): "exact: T = 0",
    ("rk_tail", "zero", "tail_0"): "exact: T = 0",
    ("carleson_profile", "zero", "ratio"): "exact: the zero symbol has the zero measure",
    ("decomposition", "damped_hilbert_1", "hilbert_s_minus_t"):
        "exact: Hilbert's T1 and T*1 are 0, so both symbols vanish and S = T",
}
# Values that a record's ``ok`` checks, outside CHECKS: the zero operator's
# tail must vanish exactly.
OK_CHECKED = {("rk_tail", "zero", "tail_0")}


def _zero_audit(records, allowed) -> tuple[list, list]:
    """Checked values that are exactly 0.0 but not in ``allowed``, and stale ``allowed`` entries."""
    zeros = set()
    for r in records:
        keys = {value for value, _, _ in _table_checks(r)}
        keys |= {key for name, op, key in OK_CHECKED if (name, op) == (r["name"], r["operator"])}
        zeros |= {(r["name"], r["operator"], key) for key in keys
                  if isinstance(r["values"].get(key), float) and r["values"][key] == 0.0}
    return sorted(zeros - set(allowed), key=str), sorted(set(allowed) - zeros, key=str)


def test_every_exact_zero_is_explained(full_suite):
    unexplained, stale = _zero_audit(full_suite["report"]["records"], EXACT_ZEROS)
    assert not unexplained, f"checked values exactly 0.0 with no reason: {unexplained}"
    assert not stale, f"explained zeros that are no longer 0.0: {stale}"


def test_zero_audit_sees_unexplained_and_stale_zeros():
    records = [
        {"name": "rk_tail", "operator": "zero", "values": {"ratio": 0.0, "tail_0": 0.0}},
        {"name": "rk_tail", "operator": "hilbert", "values": {"ratio": 0.0, "tail_0": 0.0}},
        {"name": "carleson_profile", "operator": "bump",
         "values": {"ratio": 1e-3, "expected_class": "CMO"}},
    ]
    allowed = {("rk_tail", "zero", "ratio"): "", ("carleson_profile", "bump", "ratio"): ""}
    assert _zero_audit(records, allowed) == (
        [("rk_tail", "hilbert", "ratio"), ("rk_tail", "zero", "tail_0")],
        [("carleson_profile", "bump", "ratio")],
    )


# --- refinement h -> h/2 -------------------------------------


def _verdicts(report):
    return {(r["name"], r["operator"]): (r["verdict"], r["values"].get("verdict_trend"))
            for r in report["records"]}


def test_verdicts_survive_refinement(full_suite):
    # the whole default suite at N = 4096 (h halved, same lattices) keeps every
    # record, every verdict and every tail trend of the N = 2048 run
    cfgp = full_suite["base"] / "refined.json"
    cfgp.write_text('{"grid": {"N": 4096}}\n')
    out = full_suite["base"] / "refined"
    assert main(["--config", str(cfgp), "--out", str(out)]) == 0
    with open(out / "report.json") as fh:
        refined = json.load(fh)
    assert refined["config"]["grid"]["N"] == 4096
    coarse = _verdicts(full_suite["report"])
    assert len(refined["records"]) == len(full_suite["report"]["records"]) == len(coarse) == 21
    assert {verdict for verdict, _ in coarse.values()} == {"PASS"}
    assert _verdicts(refined) == coarse


# --- CLI contract --------------------------------------------


def test_cli_full_suite_exit_code_and_runtime(full_suite):
    assert full_suite["exit_code"] == 0
    assert full_suite["report"]["verdict"] == "PASS"
    assert full_suite["elapsed"] < 1200.0  # 20 minutes


def test_cli_reemission_byte_identical(full_suite):
    out2 = full_suite["base"] / "run2"
    code = main(["--config", str(full_suite["config_path"]), "--out", str(out2)])
    assert code == 0
    names1 = sorted(os.listdir(full_suite["out"]))
    names2 = sorted(os.listdir(out2))
    assert names1 == names2
    for name in names1:
        with open(full_suite["out"] / name, "rb") as f1, open(out2 / name, "rb") as f2:
            assert f1.read() == f2.read(), f"re-emission differs for {name}"


# --- benchmark references ------------------------------------

ROOT = Path(__file__).resolve().parent.parent
# Records each benchmark workload's reference pins, out of the default 21.
REFERENCE_RECORDS = {"frame_local": 13, "paraproduct": 4, "tail_solve": 4}


def _perfbench(name):
    """perfbench/<name>.py, loaded from its file without running it as a script."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_references_partition_the_default_report(full_suite):
    # a record reorder, rename or grid change would zero a workload's
    # records_passed; the default run must hold each workload's reference
    ref = _perfbench("reference")
    got = ref.summarize(full_suite["out"])
    assert len(got["records"]) == 21 and len(got["profiles"]) == 14
    wants = {p.stem: ref.load_reference(p.stem) for p in sorted(ref.REFERENCE_DIR.glob("*.json"))}
    assert {name: len(want["records"]) for name, want in wants.items()} == REFERENCE_RECORDS
    records, profiles = [], {}
    for name, want in wants.items():
        remaining = iter(got["records"])  # an ordered subsequence of the default report
        assert all(record in remaining for record in want["records"]), name
        assert not set(profiles) & set(want["profiles"]), name
        records += want["records"]
        profiles.update(want["profiles"])
        config = {key: v for key, v in want["config"].items() if key != "diagnostics"}
        assert config == {key: v for key, v in got["config"].items() if key != "diagnostics"}
    def canonical(rows):
        return sorted(json.dumps(row, sort_keys=True) for row in rows)

    assert canonical(records) == canonical(got["records"])
    assert profiles == got["profiles"]  # the same CSVs, each with its header and row count


# A small config on which each benchmark workload's diagnostics still reach
# every function the traced benchmark expects a call to.
TRACED_SMALL = {
    "grid": {"L": 32, "N": 512},
    "frame": {"a_min": 0.5, "a_max": 64, "s": 0.25},
    "radii": [0, 1, 2],
    "operators": ["hilbert", "finite_rank", "zero"],
}


@pytest.mark.parametrize(
    "workload", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_traced_benchmark_workload_calls_every_expected_function(workload, tmp_path):
    # a --trace 1 run fails its check when a listed function records no call,
    # so a change that stops calling one must update perfbench/workloads.py
    workloads, tracer = _perfbench("workloads"), _perfbench("tracer")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TRACED_SMALL, **workloads.WORKLOADS[workload]}))
    with tracer.Tracer() as traced:
        code = main(["--config", str(config), "--out", str(tmp_path / "out")])
    assert code in (0, 1)
    diagnostics = [f"reporting.diag.{d}" for d in workloads.WORKLOADS[workload]["diagnostics"]]
    expected = (*workloads.EXPECTED_CALLS[workload], *diagnostics)
    assert [name for name in expected if traced.fn_calls[name] == 0] == []
