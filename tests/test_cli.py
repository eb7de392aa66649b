"""Command-line entry point: exit codes, operator listing, output files."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from czframe.cli import main
from czframe.config import SuiteConfig

QUICK = {
    "grid": {"L": 32, "N": 1024},
    "frame": {"a_min": 0.25, "a_max": 64, "s": 0.25},
    "diagnostics": ["pv"],
    "operators": ["hilbert"],
}


def _write_config(tmp_path, payload):
    p = tmp_path / "suite.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_list_operators(capsys):
    assert main(["--list-operators"]) == 0
    out = capsys.readouterr().out
    for label in ("hilbert", "damped_hilbert_1", "finite_rank", "zero"):
        assert label in out


def test_missing_arguments_exit_2(capsys):
    assert main([]) == 2
    assert main(["--config", "x.json"]) == 2
    assert main(["--out", "y"]) == 2


def test_unreadable_config_exit_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_bytes(b'{"seed": 1}\xff')  # not UTF-8: UnicodeDecodeError
    assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_text("[" * 200000 + "]" * 200000)  # nested past the recursion limit
    assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "Traceback" not in "".join(capsys.readouterr())
    assert not (tmp_path / "o").exists()


def test_invalid_config_exit_2(tmp_path, capsys):
    cfgp = _write_config(tmp_path, {"bogus": 1})
    assert main(["--config", cfgp, "--out", str(tmp_path / "o")]) == 2


def test_quick_suite_exit_0_and_outputs(tmp_path, capsys):
    cfgp = _write_config(tmp_path, QUICK)
    out = tmp_path / "results"
    assert main(["--config", cfgp, "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert (out / "summary.txt").exists()
    with open(out / "report.json") as fh:
        assert json.load(fh)["verdict"] == "PASS"


def test_failing_suite_exit_1(tmp_path, capsys):
    cfgp = _write_config(tmp_path, {**QUICK, "tolerances": {"pv_rel": 1e-12}})
    out = tmp_path / "results"
    assert main(["--config", cfgp, "--out", str(out)]) == 1
    with open(out / "report.json") as fh:
        assert json.load(fh)["verdict"] == "FAIL"


def test_suite_without_records_exit_1(tmp_path, capsys):
    cfgp = _write_config(tmp_path, {**QUICK, "diagnostics": ["weak_compactness"], "operators": []})
    out = tmp_path / "results"
    assert main(["--config", cfgp, "--out", str(out)]) == 1
    assert "suite verdict: FAIL (1 records)" in capsys.readouterr().out
    with open(out / "report.json") as fh:
        report = json.load(fh)
    assert report["verdict"] == "FAIL"
    assert [(r["name"], r["verdict"]) for r in report["records"]] == [("weak_compactness", "FAIL")]


@pytest.mark.parametrize("payload", [
    {"operators": [], "diagnostics": ["weak_compactness", "pv"]},
    {"operators": ["damped_hilbert_05"], "diagnostics": ["rk_tail", "weak_compactness", "pv"]},
])
def test_selected_diagnostic_without_records_exit_1(tmp_path, capsys, payload):
    # pv writes a passing record; weak_compactness and rk_tail, given none of
    # the operators they read, write none and so certify nothing
    cfgp = _write_config(tmp_path, {**QUICK, **payload})
    out = tmp_path / "results"
    assert main(["--config", cfgp, "--out", str(out)]) == 1
    with open(out / "report.json") as fh:
        records = json.load(fh)["records"]
    assert len(records) > 1
    assert [(r["name"], r["values"]) for r in records if r["verdict"] == "FAIL"] == [
        (name, {"error": "no record written"})
        for name in ("weak_compactness", "rk_tail") if name in payload["diagnostics"]]


def test_rk_tail_without_a_selected_operator_exit_1(tmp_path, capsys):
    # the rk_power_vs_svd cross-check alone certifies no selected operator
    payload = {"operators": ["damped_hilbert_05"], "diagnostics": ["rk_tail", "pv"]}
    cfgp = _write_config(tmp_path, {**QUICK, **payload})
    out = tmp_path / "results"
    assert main(["--config", cfgp, "--out", str(out)]) == 1
    with open(out / "report.json") as fh:
        records = json.load(fh)["records"]
    assert [(r["name"], r["verdict"]) for r in records] == [
        ("pv_application", "PASS"), ("rk_tail", "FAIL")]
    assert records[1]["values"] == {"error": "no record written"}


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfgp = _write_config(tmp_path, {**QUICK, "seed": 1})
    out = tmp_path / "r"
    assert main(["--config", cfgp, "--out", str(out), "--seed", "7"]) == 0
    with open(out / "report.json") as fh:
        assert json.load(fh)["seed"] == 7


@pytest.mark.parametrize("radii", ["abc", 3, {"R": 1}, ["a", 1], [-1, 0], [0, 10**400], []])
def test_bad_radii_exit_2(tmp_path, capsys, radii):
    cfgp = _write_config(tmp_path, {"diagnostics": ["frame"], "radii": radii})
    assert main(["--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert "radii" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [1.7, 1.0, True, "3"])
def test_non_integer_seed_exit_2(tmp_path, capsys, seed):
    cfgp = _write_config(tmp_path, {"diagnostics": ["frame"], "seed": seed})
    assert main(["--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        {"grid": {"L": "abc"}},
        {"grid": {"L": 10**400}},
        {"grid": 5},
        {"grid": {"N": 2048.5}},
        {"grid": {"N": True}},
        {"grid": {"N": 10**400}},
        {"grid": {"M": 16}},
        {"frame": {"a_min": 0.001}},
        {"frame": {"s": 2}},
        {"frame": {"a_max": "big"}},
        {"frame": {"cone_factor": -1}},
        {"frame": [0.1]},
        {"frame": {"cone_factor": 1e308}},
        {"grid": {"L": 1e-300}, "frame": {"a_min": 1e-300, "a_max": 1e308}},
        {"operators": "hilbert"},
        {"frame": {"a_min": None}},
    ],
)
def test_bad_grid_or_frame_exit_2(tmp_path, capsys, payload):
    cfgp = _write_config(tmp_path, {"diagnostics": ["frame"], **payload})
    out = tmp_path / "o"
    assert main(["--config", cfgp, "--out", str(out)]) == 2
    assert "invalid config" in capsys.readouterr().err
    assert not out.exists()  # rejected at config loading, before any work


def test_box_missing_a_frame_test_function_exit_2(tmp_path, capsys):
    # on [-0.001, 0.001) the test bump centred at -8 samples to all zeros, and the
    # frame diagnostic would divide by its norm
    payload = {"grid": {"L": 0.001}, "diagnostics": ["frame", "pv"]}
    out = tmp_path / "o"
    assert main(["--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
    err = "".join(capsys.readouterr())
    assert "invalid config" in err and "bump_shift" in err and "Traceback" not in err
    assert not out.exists()
    # the box is refused only for the frame diagnostic
    assert SuiteConfig.from_dict({**payload, "diagnostics": ["pv"]}).grid_L == 0.001


def test_config_beyond_physical_memory_exit_2(tmp_path, capsys):
    # rejected by the pre-flight estimate: nothing of the 140 TB is allocated
    cfgp = _write_config(tmp_path, {"grid": {"N": 4194304}, "operators": ["damped_hilbert_1"]})
    out = tmp_path / "o"
    assert main(["--config", cfgp, "--out", str(out)]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", [float("inf"), -float("inf"), float("nan"), 10**400, 0.0, "1"])
def test_non_finite_or_non_positive_tolerance_exit_2(tmp_path, capsys, tol):
    # json writes inf/nan as the bare tokens Infinity/NaN, which json.load reads back
    cfgp = _write_config(tmp_path, {**QUICK, "tolerances": {"pv_rel": tol}})
    out = tmp_path / "o"
    assert main(["--config", cfgp, "--out", str(out)]) == 2
    assert "pv_rel" in capsys.readouterr().err
    assert not out.exists()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _nan_kernel_application(kernel, f, **kwargs):
    from czframe.grids import SampledFunction

    return SampledFunction(f.grid, f.values * float("nan"))


@pytest.mark.parametrize("case", ["quick", "error_record", "nan_value"])
def test_report_json_is_strict(tmp_path, capsys, monkeypatch, case):
    from czframe import reporting

    if case == "error_record":
        monkeypatch.setitem(reporting._DIAGNOSTICS, "pv", lambda ctx: 1 / 0)
    if case == "nan_value":
        monkeypatch.setattr(reporting, "apply_kernel", _nan_kernel_application)
    out = tmp_path / "results"
    code = main(["--config", _write_config(tmp_path, QUICK), "--out", str(out)])
    assert "Traceback" not in "".join(capsys.readouterr())
    report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
    (record,) = report["records"]
    if case == "quick":
        assert code == 0 and record["verdict"] == "PASS"
        return
    assert code == 1 and record["verdict"] == "FAIL"
    if case == "error_record":
        assert record["values"] == {"error": "ZeroDivisionError: division by zero"}
    else:
        assert record["name"] == "pv_application"
        assert record["values"] == {"relative_error": "nan", "dual_path_gap": "nan"}
        assert "FAIL pv_application [hilbert]: dual_path_gap=nan relative_error=nan" in (
            out / "summary.txt"
        ).read_text()


@pytest.mark.parametrize("diagnostics", [3, "frame", [1], None, []])
def test_bad_diagnostics_exit_2(tmp_path, capsys, diagnostics):
    cfgp = _write_config(tmp_path, {"diagnostics": diagnostics})
    out = tmp_path / "o"
    assert main(["--config", cfgp, "--out", str(out)]) == 2
    assert "diagnostics" in capsys.readouterr().err
    assert not out.exists()


def test_raising_diagnostic_exit_1_without_traceback(tmp_path, capsys, monkeypatch):
    from czframe import reporting

    def broken(ctx):
        raise RuntimeError("boom")

    monkeypatch.setitem(reporting._DIAGNOSTICS, "frame", broken)
    cfgp = _write_config(tmp_path, {**QUICK, "diagnostics": ["frame", "pv"]})
    out = tmp_path / "results"
    assert main(["--config", cfgp, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    with open(out / "report.json") as fh:
        records = json.load(fh)["records"]
    assert records[0]["name"] == "frame"
    assert records[0]["values"] == {"error": "RuntimeError: boom"}
    assert any(r["name"].startswith("pv") for r in records[1:])
    assert "FAIL frame: error=RuntimeError: boom" in (out / "summary.txt").read_text()


def test_import_loads_no_dense_or_sparse_linalg():
    # scipy.linalg is imported on first use and the sparse eigensolvers never;
    # a cold start that takes no dense SVD or Lanczos solve pays for neither.
    code = (
        "import sys, czframe, czframe.cli; "
        "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _run_cli_with_blas_threads(tmp_path, threads, payload):
    out = tmp_path / f"threads_{threads}"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    config = _write_config(tmp_path, payload)
    run = subprocess.run([sys.executable, "-m", "czframe.cli", "--config", config, "--out", str(out)],
                         env=env, capture_output=True, text=True)
    assert run.returncode in (0, 1), run.stderr  # a report was written, whatever its verdict
    return json.loads((out / "report.json").read_text())["records"]


def test_rk_tail_agrees_across_blas_thread_counts(tmp_path):
    # The Gram path's BLAS products may round differently with another thread
    # count. The records, verdicts and iteration counts must not move, and
    # each value by at most 1e-12 times the record's scale (tail_0, or the
    # cross-check's power). The lattice reaches distance 3, and N^2 <= 2 nnz,
    # so the sweep runs on the Gram.
    payload = {
        "grid": {"L": 32, "N": 256},
        "frame": {"a_min": 0.5, "a_max": 64},
        "diagnostics": ["rk_tail"],
        "radii": [0, 1, 2, 3],
    }
    one, two = (_run_cli_with_blas_threads(tmp_path, t, payload) for t in (1, 2))
    assert [(r["name"], r["operator"], r["verdict"]) for r in one] == [
        (r["name"], r["operator"], r["verdict"]) for r in two]
    assert [r["name"] for r in one].count("rk_tail") == 3
    for a, b in zip(one, two):
        va, vb = a["values"], b["values"]
        assert va.keys() == vb.keys()
        assert va["iterations"] == vb["iterations"] and va["converged"] == vb["converged"]
        scale = va["tail_0"] if a["name"] == "rk_tail" else va["power"]
        for key, x in va.items():
            if isinstance(x, str) or key in ("iterations", "converged"):
                assert x == vb[key]
            else:
                assert np.allclose(x, vb[key], rtol=0.0, atol=1e-12 * scale), key
