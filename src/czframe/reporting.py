"""Suite orchestration, the check table and deterministic report emission.

Running a suite executes the selected diagnostics in dependency order
(grids, frame identities, then operator diagnostics), never aborting on a
diagnostic failure, and returns a Report whose serialization is
byte-stable: emitting the same Report twice produces identical files.

Diagnostics only compute values. Every record's checks are declared once, in
``CHECKS``, as ``(value key, comparator, tolerance key)`` bounds, keyed by the
record's name alone or else by ``(name, case)``: the case is the record's
``expected_class`` value if it has one, else its operator. ``_record`` derives
a record's verdict and its ``tolerances`` echo from them; its ``ok`` argument
carries the conditions that are not tolerance checks (solver convergence,
monotone refinement, finite Schur values, an exactly zero tail for the zero
operator). A diagnostic returns nothing: ``_Context`` is the one output path.
Every record goes through ``_Context.record``, which alone adds a solver's
statistics and fails the record unless every solve converged; every profile
sweep and its ``R,value`` CSV through ``_Context.sweep``; any other CSV through
``_Context.profile``. A tail-ratio record's ``verdict_trend`` is read from the
same table through ``TRENDS``, so a tolerance override moves it with the
verdict. A non-finite value fails its record and is stored as the string
``"nan"``, ``"inf"`` or ``"-inf"``, so report.json is strict JSON. The
configuration these read lives in :mod:`czframe.config`.

Outputs: report.json (machine summary with per-record tolerances and grid
metadata), one CSV per exported profile (9 significant digits), and a
plain-text summary.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from operator import ge, gt, le, lt

import numpy as np

from . import carleson as carleson_mod
from . import compactness as compactness_mod
from . import localization as localization_mod
from . import paraproducts as paraproducts_mod
from .config import DIAGNOSTIC_NAMES, SuiteConfig, frame_test_family
from .geometry import IDENTITY, GroupPoint
from .grids import SampledFunction, SpatialGrid, inner_product, l2_norm, make_frame_grid
from .grids import smooth_bump
from .operators import DiscreteOperator, apply_kernel, discretize, get_model
from .wavelets import M_PHI, analyze, frame_element, make_mother_wavelet, synthesize

__all__ = ["CHECKS", "Report", "run_suite", "emit"]


@dataclass
class Report:
    """Suite results: one record per check plus exported profiles."""

    config: dict
    seed: int
    records: list = field(default_factory=list)
    profiles: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        """PASS when there are records and every one passes; no record certifies nothing."""
        passed = bool(self.records) and all(r["verdict"] == "PASS" for r in self.records)
        return "PASS" if passed else "FAIL"


class _Context:
    """The suite's configuration, grid and lattice, shared by every diagnostic.

    ``records`` and ``profiles`` buffer what the running diagnostic writes.
    """

    def __init__(self, cfg: SuiteConfig):
        self.cfg = cfg
        self.grid = SpatialGrid(cfg.grid_L, cfg.grid_N)
        self.fgrid = self.lattice(self.grid, cfg.s)
        self.records, self.profiles = [], {}

    def lattice(self, grid: SpatialGrid, s: float):
        """The configured frame lattice on ``grid`` at spacing ratio ``s``."""
        cfg = self.cfg
        return make_frame_grid(
            grid, cfg.a_min, cfg.a_max, s=s, L_b=cfg.L_b, cone_factor=cfg.cone_factor
        )

    def grid_meta(self, fgrid=None) -> dict:
        grid = self.grid
        fgrid = fgrid or self.fgrid
        return {
            "L": grid.L,
            "N": grid.N,
            "a_min": float(fgrid.scales[0]),
            "a_max": float(fgrid.scales[-1]),
            "s": fgrid.s,
            "n_nodes": fgrid.n_nodes,
        }

    def record(self, name, operator, values: dict, ok=True, grid=None, solve=None):
        """Append a checked record (:func:`_record`); ``grid`` defaults to this lattice's echo.

        ``solve`` is a solver's ``(iterations, converged, residual)``, scalars or one
        entry per radius; the record carries them and fails unless all converged.
        """
        if solve is not None:
            iterations, converged, residual = map(np.asarray, solve)
            values = {**values, "iterations": iterations.tolist(),
                      "converged": converged.tolist(), "residual": residual.tolist()}
            ok = ok and bool(np.all(converged))
        self.records.append(_record(self.cfg, name, operator, values,
                                    grid or self.grid_meta(), ok=ok))

    def sweep(self, name, label, radii, profile, values, csv, tf=None, ok=True, grid=None):
        """Append a profile's record and its ``R,value`` CSV; a tail sweep ``tf`` adds solves."""
        solve = None if tf is None else (tf.iterations, tf.converged, tf.residuals)
        self.record(name, label, values, ok=ok, grid=grid, solve=solve)
        self.profiles[csv] = _profile(["R", "value"], radii, profile)

    def profile(self, name, columns: list, *cols):
        """Store the exported profile ``name`` (:func:`_profile`)."""
        self.profiles[name] = _profile(columns, *cols)


def _side_lattice(L: float, N: int, a_min: float, a_max: float,
                  L_b: float | None = None, cone_factor: float = 1.0):
    """A fixed auxiliary lattice at spacing ratio 1/4 as ``(grid, fgrid, meta)``.

    ``meta`` records the requested ``a_min``/``a_max``, not the realized
    extreme scales.
    """
    grid = SpatialGrid(L, N)
    fgrid = make_frame_grid(grid, a_min, a_max, s=0.25, L_b=L_b, cone_factor=cone_factor)
    meta = {"L": grid.L, "N": grid.N, "a_min": a_min, "a_max": a_max}
    return grid, fgrid, {**meta, "s": fgrid.s, "n_nodes": fgrid.n_nodes}


_COMPARATORS = {"<=": le, "<": lt, ">=": ge, ">": gt}

# Every record's checks, as (value key or keys, comparator, tolerance key),
# keyed by record name or, where the bounds depend on the record's operator
# or its BMO example's expected class, by (name, case); never both ways.
CHECKS = {
    "frame_identities": (("parseval_error", "<=", "parseval"),
                         ("roundtrip_error", "<=", "roundtrip")),
    "pv_application": (("relative_error", "<=", "pv_rel"), ("dual_path_gap", "<=", "dual_path")),
    "decay_bound": (("relative_change", "<=", "decay_stability"),),
    "schur_localization": (("anchor_spread", "<=", "schur_anchor"),
                           ("tail_factor", ">=", "schur_tail_factor"),
                           ("finite_rank_origin_tail", "<=", "origin_tail_finite_rank")),
    ("weak_compactness_profile", "hilbert"): (("metric", "<=", "wc_hilbert_constancy"),),
    ("weak_compactness_profile", "finite_rank"): (("metric", "<=", "wc_finite_rank_tail"),),
    ("rk_tail", "hilbert"): (("ratio", ">", "rk_hilbert_ratio"),),
    ("rk_tail", "finite_rank"): (("ratio", "<", "rk_finite_rank_ratio"),),
    ("rk_tail", "zero"): (("ratio", "<", "rk_finite_rank_ratio"),),
    "rk_power_vs_svd": (("relative_gap", "<=", "rk_svd_agreement"),),
    ("carleson_profile", "CMO"): (("ratio", "<", "carleson_vanishing_ratio"),),
    ("carleson_profile", "BMO-not-CMO"): (("ratio", ">", "carleson_nonvanishing_ratio"),),
    "carleson_constant": (("carleson_at_0", "<=", "carleson_constant"),),
    "stein_inequality": ((("ratio_gaussian", "ratio_point_mass"), "<=", "stein_slack"),),
    "paraproduct_identities": (("symbol_rel_error", "<=", "pp_symbol_rel"),
                               ("adjoint_constant_max", "<=", "pp_adjoint_constant"),
                               ("adjointness_gap", "<=", "pp_adjointness")),
    ("paraproduct_compactness", "CMO"): (("ratio", "<", "pp_vanishing_ratio"),),
    ("paraproduct_compactness", "BMO-not-CMO"): (("ratio", ">", "pp_nonvanishing_ratio"),),
    "decomposition": (("hilbert_s_minus_t", "<=", "decomp_hilbert"),
                      ("reconstruction_gap", "<=", "decomp_reconstruction"),
                      ("paired_s1_ratio", "<=", "decomp_s1_rel")),
}

# The verdict_trend of a tail-ratio record: the first label whose CHECKS case
# holds for the record's values, else "inconclusive".
TRENDS = {
    "rk_tail": (("vanishing", "finite_rank"), ("non-vanishing", "hilbert")),
    "paraproduct_compactness": (("vanishing", "CMO"), ("non-vanishing", "BMO-not-CMO")),
}


def _tail_ratio(values) -> float:
    """tail(R_max) / tail(0) of a profile, 0.0 when tail(0) is 0; NaN stays NaN."""
    return float(values[-1] / values[0]) if values[0] else 0.0


def _cases(name: str, operators) -> list:
    """``name``'s case-keyed ``CHECKS`` operators that ``operators`` selects, in table order."""
    return [key[1] for key in CHECKS
            if isinstance(key, tuple) and key[0] == name and key[1] in operators]


def _probe_gap(rng, grid: SpatialGrid, gap) -> float:
    """max |gap(f, g)| over three standard-normal pairs from ``rng``, f drawn first; NaN stays."""
    draws = (SampledFunction(grid, rng.standard_normal(grid.N)) for _ in range(6))
    return float(np.max([abs(gap(f, g)) for f, g in zip(draws, draws)]))


def _nonfinite(v) -> bool:
    return isinstance(v, float) and not math.isfinite(v)


def _strict(v):
    """``v`` with every non-finite float spelled "nan", "inf" or "-inf"."""
    if isinstance(v, list):
        return [_strict(x) for x in v]
    return str(float(v)) if _nonfinite(v) else v


def _record(cfg: SuiteConfig, name, operator, values: dict, grid_meta: dict, ok=True):
    """One PASS/FAIL record, checked against its ``CHECKS`` entry.

    The entry is ``CHECKS[name]`` if the name is keyed alone, else
    ``CHECKS[(name, case)]`` with the case ``values["expected_class"]`` if
    given, else ``operator``; an unknown case raises ``KeyError``. A value key
    may be a tuple of keys checked against the same tolerance. The record
    PASSes when ``ok`` holds, every bound holds and every value (list entries
    included) is finite. ``tolerances`` echoes exactly the bounds' tolerance
    keys. A record named in ``TRENDS`` also gets ``verdict_trend``, checked the
    same way against each label's case.
    """
    def check(bounds):
        tolerances = {tol_key: cfg.tol(tol_key) for _, _, tol_key in bounds}
        return all(_COMPARATORS[cmp](values[key], tolerances[tol_key])
                   for keys, cmp, tol_key in bounds
                   for key in ((keys,) if isinstance(keys, str) else keys)), tolerances

    held, tolerances = check(CHECKS[name] if name in CHECKS
                             else CHECKS[(name, values.get("expected_class", operator))])
    ok = ok and held
    if name in TRENDS:
        trend = next((label for label, c in TRENDS[name] if check(CHECKS[(name, c)])[0]),
                     "inconclusive")
        values = {**values, "verdict_trend": trend}
    flat = [x for v in values.values() for x in (v if isinstance(v, list) else [v])]
    return {
        "name": name,
        "operator": operator,
        "verdict": "PASS" if ok and not any(map(_nonfinite, flat)) else "FAIL",
        "values": {key: _strict(v) for key, v in values.items()},
        "tolerances": tolerances,
        "grid": grid_meta,
    }


def _profile(columns: list, *cols) -> dict:
    """An exported profile: ``columns`` over the zipped value sequences."""
    return {"columns": columns, "rows": [[float(v) for v in row] for row in zip(*cols)]}


def _diag_frame(ctx: _Context):
    cfg, psi = ctx.cfg, make_mother_wavelet()
    history = []
    # coarser spacings clipped to the largest valid one, 1; s = 1 leaves one level
    for s in sorted({min(c, 1.0) for c in (max(cfg.s * 4, 1.0 / 2), cfg.s * 2, cfg.s)},
                    reverse=True):
        fg = ctx.fgrid if s == cfg.s else ctx.lattice(ctx.grid, s)
        worst_p, worst_r = 0.0, 0.0
        for vals in frame_test_family(ctx.grid).values():
            f = SampledFunction(ctx.grid, vals)
            fld = analyze(f, psi, fg)
            norm2 = l2_norm(f) ** 2
            worst_p = max(worst_p, abs(fld.energy() - norm2) / norm2)
            rec = synthesize(fld, psi, ctx.grid)
            r_err = np.linalg.norm(rec.values - f.values) / np.linalg.norm(f.values)
            worst_r = max(worst_r, float(r_err))
        history.append((s, worst_p, worst_r))
    ss, ps, rs = (list(col) for col in zip(*history))
    ctx.record(
        "frame_identities", None,
        {"parseval_error": ps[-1], "roundtrip_error": rs[-1],
         "parseval_history": ps, "roundtrip_history": rs},
        # refinement helps; a one-level ladder shows no refinement
        ok=len(ss) > 1 and all(x > y for h in (ps, rs) for x, y in zip(h, h[1:])),
    )
    ctx.profile("frame_refinement", ["s", "parseval_error", "roundtrip_error"], ss, ps, rs)


def _diag_pv(ctx: _Context):
    grid = ctx.grid
    H = get_model("hilbert").kernel
    hf = apply_kernel(H, SampledFunction(grid, 1.0 / (1.0 + grid.x**2)))
    target = grid.x / (1.0 + grid.x**2)
    m = np.abs(grid.x) <= 16.0
    rel = float(np.linalg.norm(hf.values[m] - target[m]) / np.linalg.norm(target[m]))
    src, tgt = GroupPoint(1.0, 0.0), GroupPoint(1.0, 8.0)
    direct = localization_mod.matrix_coefficient(H, src, tgt, grid)
    applied = apply_kernel(H, frame_element(src, grid))
    via_apply = inner_product(applied, frame_element(tgt, grid))
    ctx.record("pv_application", "hilbert",
               {"relative_error": rel, "dual_path_gap": abs(direct - via_apply)})


def _diag_decay(ctx: _Context):
    cfg = ctx.cfg
    H = get_model("hilbert").kernel
    fit = localization_mod.verify_decay(H, ctx.fgrid, ctx.grid)
    grid2 = SpatialGrid(cfg.grid_L, cfg.grid_N * 2)
    fit2 = localization_mod.verify_decay(H, ctx.lattice(grid2, cfg.s / 2), grid2)
    ctx.record(  # a non-finite fit fails the record through its values
        "decay_bound", "hilbert",
        {"fitted_c": fit, "fitted_c_refined": fit2, "relative_change": abs(fit2 - fit) / fit},
    )


def _diag_schur(ctx: _Context):
    cfg, grid, fgrid = ctx.cfg, ctx.grid, ctx.fgrid
    H = get_model("hilbert").kernel
    # one coefficient field per anchor; the other two give the Schur value (R = 0) alone
    schur_0, tail_1, tail_6 = localization_mod.schur_tail(H, fgrid, grid, (0.0, 1.0, 6.0))
    vals = [schur_0] + [localization_mod.schur_tail(H, fgrid, grid, (0.0,), anchor=p)[0]
                        for p in (GroupPoint(2.0, 0.0), GroupPoint(1.0, 5.0))]
    r_big = max(6.0, max(cfg.radii))
    ft = localization_mod.origin_tail(get_model("finite_rank").kernel, fgrid, grid, r_big)
    ctx.record(
        "schur_localization", "hilbert",
        {"schur_value": vals[0], "anchor_spread": max(vals) - min(vals),
         "tail_1": tail_1, "tail_6": tail_6,
         "tail_factor": tail_1 / tail_6 if tail_6 > 0.0 else math.inf,
         "finite_rank_origin_tail": ft, "origin_tail_radius": r_big},
        ok=all(math.isfinite(v) for v in vals),
    )


def _diag_weak_compactness(ctx: _Context):
    cfg = ctx.cfg
    radii = np.arange(0.0, max(cfg.radii) + 0.5, 0.5)
    for label in _cases("weak_compactness_profile", cfg.operators):
        prof = localization_mod.weak_compactness_profile(get_model(label).kernel, ctx.fgrid, radii)
        # Hilbert's profile must stay constant, finite_rank's must vanish
        metric = float(prof.max() - prof.min()) if label == "hilbert" else float(prof[-1])
        ctx.sweep(
            "weak_compactness_profile", label, radii, prof,
            {"metric": metric, "profile_start": float(prof[0]), "profile_end": float(prof[-1])},
            f"weak_compactness_{label}")


def _diag_rk_tail(ctx: _Context):
    cfg = ctx.cfg
    labels = _cases("rk_tail", cfg.operators)
    if not labels:  # the cross-check certifies only a solver that ran on a selected operator
        return
    sweeps = compactness_mod.tail_functional(
        [discretize(get_model(label).kernel, ctx.grid) for label in labels],
        ctx.fgrid, ctx.grid, list(cfg.radii), seed=cfg.seed)
    for label, tf in zip(labels, sweeps):
        tail_0 = float(tf.values[0])
        # the zero operator's tail must also vanish exactly
        ctx.sweep(
            "rk_tail", label, tf.radii, tf.values,
            {"ratio": _tail_ratio(tf.values), "tail_0": tail_0, "tail_max": float(tf.values[-1])},
            f"rk_tail_{label}", tf=tf, ok=label != "zero" or tail_0 == 0.0)
        if label == "hilbert":
            ctx.profile("rk_witness_hilbert", ["x", "value"], ctx.grid.x, tf.witnesses[-1].values)
    # downsampled dense-SVD cross-check
    small, sfg, meta = _side_lattice(32.0, 256, 0.5, 64.0)
    S = compactness_mod.analysis_operator(sfg, small)
    A = compactness_mod.operator_matrix(get_model("damped_hilbert_1").kernel, small)
    res = compactness_mod.rk_tail(DiscreteOperator(small.N, matrix=A), S, small,
                                  seed=cfg.seed)  # R = 0: every row
    M = np.asarray(S @ A) / math.sqrt(small.h)
    dense = float(compactness_mod.singular_spectrum(M, 1)[0] ** 2)
    ctx.record(
        "rk_power_vs_svd", "damped_hilbert_1",
        {"power": res.value, "dense_svd": dense, "relative_gap": abs(res.value - dense) / dense},
        grid=meta, solve=(res.iterations, res.converged, res.residual),
    )


def _carleson_profiles(ctx: _Context):
    """The tent-ratio profile of each BMO example on the wide side lattice, in one sweep.

    A function of its own, so the side lattice and its cached psi rows are
    freed before the rest of :func:`_diag_carleson` runs.
    """
    wide, wfg, meta = _side_lattice(2048.0, 16384, 0.5, 1024.0, L_b=1024.0, cone_factor=0.0)
    radii = np.arange(0.0, 8.5, 0.5)
    examples = carleson_mod.bmo_examples(wide)
    profiles = carleson_mod.vanishing_profile(
        [carleson_mod.coefficient_measure(SampledFunction.from_callable(wide, ex.evaluator), wfg)
         for ex in examples], radii)
    for ex, prof in zip(examples, profiles):
        ctx.sweep(
            "carleson_profile", ex.label, radii, prof,
            {"ratio": _tail_ratio(prof), "expected_class": ex.expected_class},
            f"carleson_profile_{ex.label}", grid=meta)


def _diag_carleson(ctx: _Context):
    _carleson_profiles(ctx)
    # constant annihilation on a well-resolved interior lattice
    half = ctx.grid.L / 2.0
    fg_int = make_frame_grid(ctx.grid, 0.5, half, s=0.125, L_b=half, cone_factor=0.0)
    one = SampledFunction(ctx.grid, np.ones(ctx.grid.N))
    mu1 = carleson_mod.coefficient_measure(one, fg_int)
    at_0 = carleson_mod.carleson_function(mu1, 0.0)
    ctx.record("carleson_constant", None, {"carleson_at_0": at_0},
               grid=ctx.grid_meta(fgrid=fg_int))
    # slack inequality audit; the point-mass test bump meets phi's window at the atom
    mu_psi = carleson_mod.coefficient_measure(frame_element(IDENTITY, ctx.grid), ctx.fgrid)
    gauss = SampledFunction(ctx.grid, np.exp(-ctx.grid.x**2))
    mu_pt = carleson_mod.point_mass(ctx.fgrid, int(np.argmin(ctx.fgrid.dist0)))
    bump = SampledFunction(ctx.grid, smooth_bump(ctx.grid.x, 0.0, 1.5))
    r1, r2 = carleson_mod.stein_inequality_check([(gauss, mu_psi), (bump, mu_pt)])
    ctx.record("stein_inequality", None, {"ratio_gaussian": r1, "ratio_point_mass": r2})


def _diag_paraproduct(ctx: _Context):
    cfg, grid = ctx.cfg, ctx.grid
    beta = SampledFunction(grid, smooth_bump(grid.x, 0.0, 2.0))
    sym = analyze(beta, make_mother_wavelet(), ctx.fgrid)
    pb1 = paraproducts_mod.paraproduct_apply_to_constant(sym, grid)
    target = M_PHI * beta.values
    rel = float(np.linalg.norm(pb1.values - target) / np.linalg.norm(target))
    pstar1 = paraproducts_mod.paraproduct_adjoint_apply_to_constant(sym, grid)
    gap = _probe_gap(np.random.default_rng(cfg.seed), grid, lambda f, g: (
        inner_product(paraproducts_mod.paraproduct_apply(sym, f), g)
        - inner_product(f, paraproducts_mod.paraproduct_adjoint_apply(sym, g))))
    ctx.record(
        "paraproduct_identities", None,
        {"symbol_rel_error": rel, "adjoint_constant_max": float(np.max(np.abs(pstar1.values))),
         "adjointness_gap": gap, "m_phi": M_PHI},
    )
    # compactness dichotomy on a wide coarse lattice
    pgrid, pfg, meta = _side_lattice(2048.0, 4096, 2.0, 1024.0, L_b=1024.0, cone_factor=0.0)
    radii = np.arange(0.0, 5.5, 0.5)
    examples = [ex for ex in carleson_mod.bmo_examples(pgrid) if ex.label != "zero"]
    sweeps = paraproducts_mod.paraproduct_compactness(
        [SampledFunction.from_callable(pgrid, ex.evaluator) for ex in examples],
        pfg, radii, seed=cfg.seed)
    for ex, tf in zip(examples, sweeps):
        ctx.sweep(
            "paraproduct_compactness", ex.label, tf.radii, tf.values,
            {"ratio": _tail_ratio(tf.values), "expected_class": ex.expected_class},
            f"paraproduct_tail_{ex.label}", tf=tf, grid=meta)


def _diag_decomposition(ctx: _Context):
    grid, fgrid = ctx.grid, ctx.fgrid
    rng = np.random.default_rng(ctx.cfg.seed)
    # Hilbert degenerates to S = T
    dec_h = paraproducts_mod.decompose(get_model("hilbert").kernel, fgrid, grid)
    tf, sf, _, _ = dec_h.parts(SampledFunction(grid, rng.standard_normal(grid.N)))
    s_minus_t = float(np.max(np.abs(sf.values - tf.values)))
    # reconstruction for the damped model
    dec = paraproducts_mod.decompose(get_model("damped_hilbert_1").kernel, fgrid, grid)

    def reconstruction_gap(f, g):
        tf, sf, p1, p2 = dec.parts(f)
        return inner_product(tf, g) - (
            inner_product(sf, g) + inner_product(p1, g) + inner_product(p2, g))

    gap = _probe_gap(rng, grid, reconstruction_gap)
    # paired S1 smallness
    s1 = dec.s_applied_to_constant()
    t1_inf = float(np.max(np.abs(dec.t1.values)))
    worst = 0.0
    for a, b in ((1.0, 0.0), (0.5, 2.0), (2.0, -4.0), (1.0, 6.0), (4.0, 0.0)):
        w = frame_element(GroupPoint(a, b), grid)
        l1 = float(np.sum(np.abs(w.values)) * grid.h)
        worst = max(worst, abs(inner_product(s1, w)) / (l1 * t1_inf))
    ctx.record(
        "decomposition", "damped_hilbert_1",
        {"hilbert_s_minus_t": s_minus_t, "reconstruction_gap": gap, "paired_s1_ratio": worst,
         "t1_truncation_error": dec.t1_truncation_error, "m_phi": M_PHI},
    )


_DIAGNOSTICS = {
    "frame": _diag_frame,
    "pv": _diag_pv,
    "decay": _diag_decay,
    "schur": _diag_schur,
    "weak_compactness": _diag_weak_compactness,
    "rk_tail": _diag_rk_tail,
    "carleson": _diag_carleson,
    "paraproduct": _diag_paraproduct,
    "decomposition": _diag_decomposition,
}


def run_suite(cfg: SuiteConfig) -> Report:
    """Execute the selected diagnostics; failures never abort the run.

    Each diagnostic writes into the context's emptied buffers, merged into the
    Report after it. One that raises, or writes no record, leaves instead one
    FAIL record named after it, dropping what it wrote: ``values`` hold
    ``error`` ("<Type>: <message>", or "no record written"), ``tolerances``
    are empty, and the later diagnostics still run. It bypasses ``CHECKS``: no
    record's bounds apply to an error, though ``decomposition`` and ``rk_tail``
    name records too.
    """
    cfg.validate()
    report = Report(config=cfg.to_dict(), seed=cfg.seed)
    ctx = _Context(cfg)
    for name in DIAGNOSTIC_NAMES:
        if name not in cfg.diagnostics:
            continue
        ctx.records, ctx.profiles = [], {}
        error = None
        try:
            _DIAGNOSTICS[name](ctx)
        except Exception as exc:  # the suite boundary: report it, keep running
            error = f"{type(exc).__name__}: {exc}"
        if error or not ctx.records:  # a selected diagnostic that certifies nothing fails
            ctx.records, ctx.profiles = [{"name": name, "operator": None, "verdict": "FAIL",
                                          "values": {"error": error or "no record written"},
                                          "tolerances": {}, "grid": ctx.grid_meta()}], {}
        report.records.extend(ctx.records)
        report.profiles.update(ctx.profiles)
    return report


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, list):
        return "[" + ",".join(_fmt_value(x) for x in v) + "]"
    return str(v)


def emit(report: Report, out_dir: str) -> list[str]:
    """Write report.json (strict JSON), per-profile CSVs, and summary.txt; byte-stable."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    json_path = os.path.join(out_dir, "report.json")
    payload = {
        "config": report.config,
        "seed": report.seed,
        "verdict": report.verdict,
        "records": report.records,
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    written.append(json_path)

    for name in sorted(report.profiles):
        prof = report.profiles[name]
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w") as fh:
            fh.write(",".join(prof["columns"]) + "\n")
            for row in prof["rows"]:
                fh.write(",".join(_fmt(float(v)) for v in row) + "\n")
        written.append(path)

    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w") as fh:
        fh.write(f"suite verdict: {report.verdict} (seed {report.seed})\n")
        for rec in report.records:
            op = f" [{rec['operator']}]" if rec["operator"] else ""
            vals = " ".join(f"{k}={_fmt_value(v)}" for k, v in sorted(rec["values"].items()))
            fh.write(f"{rec['verdict']:4s} {rec['name']}{op}: {vals}\n")
    written.append(summary_path)
    return written
