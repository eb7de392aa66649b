"""The reference check rejects the outputs a faster but weaker run would emit."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _emit_like_reference(out: Path, ref: dict, seed: int) -> None:
    """Write a passing output directory shaped exactly like the reference."""
    out.mkdir()
    records = [
        {"name": name, "operator": op, "grid": grid, "verdict": "PASS", "values": {}, "tolerances": {}}
        for name, op, grid in ref["records"]
    ]
    report = {"config": {**ref["config"], "seed": seed}, "seed": seed, "verdict": "PASS", "records": records}
    (out / "report.json").write_text(json.dumps(report))
    for name, shape in ref["profiles"].items():
        rows = "".join(f"{i},0.5\n" for i in range(shape["rows"]))
        (out / name).write_text(shape["header"] + "\n" + rows)


def _edit_report(out: Path, edit) -> None:
    report = json.loads((out / "report.json").read_text())
    edit(report)
    (out / "report.json").write_text(json.dumps(report))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_matches_its_workload(workload, tmp_path):
    ref = reference.load_reference(workload)
    assert ref["config"]["diagnostics"] == WORKLOADS[workload]["diagnostics"]
    _emit_like_reference(tmp_path / "out", ref, seed=7)
    assert reference.check(tmp_path / "out", 0, 7, ref) == (len(ref["records"]), [])


def test_rejects_a_fail_record(tmp_path):
    ref = reference.load_reference("frame_local")
    out = tmp_path / "out"
    _emit_like_reference(out, ref, seed=3)
    _edit_report(out, lambda r: r["records"][4].update(verdict="FAIL"))
    passed, problems = reference.check(out, 1, 3, ref)
    assert passed == len(ref["records"]) - 1
    assert any("exit code 1" in p for p in problems)
    assert any("is FAIL" in p for p in problems)


def test_rejects_a_changed_grid(tmp_path):
    ref = reference.load_reference("paraproduct")
    out = tmp_path / "out"
    _emit_like_reference(out, ref, seed=0)
    _edit_report(out, lambda r: r["records"][1]["grid"].update(N=2048))
    passed, problems = reference.check(out, 0, 0, ref)
    assert passed == len(ref["records"]) - 1
    assert any(p.startswith("record 1 ") for p in problems)


def test_rejects_a_shortened_profile(tmp_path):
    ref = reference.load_reference("tail_solve")
    out = tmp_path / "out"
    _emit_like_reference(out, ref, seed=0)
    csv = out / "rk_tail_hilbert.csv"
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))
    passed, problems = reference.check(out, 0, 0, ref)
    assert passed == len(ref["records"])
    assert problems == ["profile rk_tail_hilbert.csv: {'header': 'R,value', 'rows': 8} != "
                        "reference {'header': 'R,value', 'rows': 9}"]


def test_rejects_fewer_radii_and_a_wrong_seed(tmp_path):
    ref = reference.load_reference("tail_solve")
    out = tmp_path / "out"
    _emit_like_reference(out, ref, seed=0)
    _edit_report(out, lambda r: r["config"].update(radii=[0.0, 4.0, 8.0]))
    _, problems = reference.check(out, 0, 5, ref)
    assert any("config echo" in p for p in problems)
    assert any("seed echo" in p for p in problems)
