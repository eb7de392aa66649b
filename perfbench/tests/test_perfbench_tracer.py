"""The tracer rebinds every import site, counts work exactly and undoes itself."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(1, str(ROOT / "src"))

import czframe  # noqa: E402
from czframe import cli, compactness, operators, paraproducts, reporting, wavelets  # noqa: E402,F401
from tracer import Tracer  # noqa: E402

# (defining module, name, every other module that binds it by name)
BINDINGS = (
    (wavelets, "analyze", ("czframe", "reporting", "carleson", "localization", "paraproducts")),
    (operators, "kernel_matrix", ("localization", "compactness")),
    (compactness, "singular_spectrum", ("paraproducts",)),
    (compactness, "tail_functional", ("paraproducts",)),
    (compactness, "operator_matrix", ("paraproducts",)),
    (reporting, "run_suite", ("czframe", "cli")),
    (reporting, "emit", ("czframe", "cli")),
)


def _module(name):
    return czframe if name == "czframe" else sys.modules[f"czframe.{name}"]


def test_tracer_finds_every_binding_and_restores_them():
    originals = {(home.__name__, name): getattr(home, name) for home, name, _ in BINDINGS}
    diagnostics = dict(reporting._DIAGNOSTICS)
    with Tracer():
        for home, name, sites in BINDINGS:
            wrapper = getattr(home, name)
            assert wrapper is not originals[(home.__name__, name)]
            assert wrapper.__wrapped__ is originals[(home.__name__, name)]
            for site in sites:
                assert getattr(_module(site), name) is wrapper, f"{site}.{name} not traced"
        for name, fn in reporting._DIAGNOSTICS.items():
            assert fn.__wrapped__ is diagnostics[name]
    for home, name, sites in BINDINGS:
        for site in (home.__name__.rsplit(".", 1)[-1], *sites):
            assert getattr(_module(site), name) is originals[(home.__name__, name)]
    assert reporting._DIAGNOSTICS == diagnostics


def test_counts_come_from_return_values():
    grid = czframe.SpatialGrid(4.0, 64)
    kernel = operators.get_model("hilbert").kernel
    with Tracer() as tracer:
        compactness.operator_matrix(kernel, grid)
        paraproducts.compute_T1(kernel, grid)
    assert tracer.fn_calls["operators.kernel_matrix"] == 2
    assert tracer.counts["operators.kernel_matrix.bytes"] == 2 * 64 * 64 * 8
    assert tracer.layer_calls["compactness"] == 1
    # outermost operators calls: kernel_matrix under compactness, and compute_T1
    assert tracer.layer_calls["operators"] == 2
    # self times partition the two top-level spans
    total_self = sum(tracer.self_time.values())
    top_level = tracer.busy["compactness"] + tracer.fn_time["operators.compute_T1"]
    assert abs(total_self - top_level) < 1e-9


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = Tracer().metrics(suite_s=1.0, untraced_s=1.0, alloc_peak_mb=0.0, cpu_s=0.0)
    assert [(m["name"], m["unit"]) for m in declared] == [(k, u) for k, (_, u) in metrics.items()]
