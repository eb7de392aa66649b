"""The benchmark's workloads and what each one is expected to exercise.

The three configs split the nine default diagnostics between them, so their
``suite_s`` values add up to the default-suite wall time. Each workload drives
different layers (the ``why`` of each workload is in ``BENCHMARK.json``), so a
change to one layer should move one workload and leave the others flat.

``paraproduct`` is not listed in ``BENCHMARK.json``: 86% of its ~50 s suite is
three dense 4096x4096 SVDs, whose wall time swings by up to 30% from one call
to the next on a shared 2-core machine, and one suite per run is all the time
budget allows. Run it by hand with ``--workload paraproduct``.
"""

WORKLOADS = {
    "tail_solve": {"diagnostics": ["rk_tail"]},
    "paraproduct": {"diagnostics": ["paraproduct"]},
    "frame_local": {
        "diagnostics": [
            "frame",
            "pv",
            "decay",
            "schur",
            "weak_compactness",
            "carleson",
            "decomposition",
        ]
    },
}

# Wrapped functions that must record at least one call in a traced run of the
# workload; a zero means the tracer missed a binding or the suite skipped work.
EXPECTED_CALLS = {
    "tail_solve": (
        "reporting.run_suite",
        "reporting.emit",
        "compactness.operator_matrix",
        "compactness.analysis_operator",
        "compactness.tail_functional",
        "compactness.rk_tail",
        "operators.kernel_matrix",
    ),
    "paraproduct": (
        "reporting.run_suite",
        "reporting.emit",
        "wavelets.analyze",
        "wavelets.synthesize",
        "compactness.analysis_operator",
        "compactness.tail_functional",
        "compactness.rk_tail",
        "compactness.singular_spectrum",
        "paraproducts.paraproduct_apply",
        "paraproducts.paraproduct_matrix",
        "paraproducts.paraproduct_compactness",
    ),
    "frame_local": (
        "reporting.run_suite",
        "reporting.emit",
        "operators.kernel_matrix",
        "operators.apply_kernel",
        "operators.compute_T1",
        "wavelets.analyze",
        "wavelets.synthesize",
        "wavelets.frame_element",
        "localization.coefficient_field",
        "localization.verify_decay",
        "localization.origin_tail",
        "localization.weak_compactness_profile",
        "carleson.coefficient_measure",
        "carleson.tent_masses",
        "carleson.stein_inequality_check",
        "paraproducts.paraproduct_apply",
        "paraproducts.decompose",
    ),
}
