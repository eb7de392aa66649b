"""Suite configuration: the JSON schema, its defaults and their validation.

A suite is described by one JSON object. ``SuiteConfig.from_dict`` accepts
exactly the keys that ``SuiteConfig().to_dict()`` emits, the ``grid`` and
``frame`` sections included, so the schema is spelled once, by ``to_dict``.
Loading validates everything a run depends on: operator and diagnostic
names, radii, tolerances, the grid and lattice preconditions, the box
against the frame diagnostic's test functions (:func:`frame_test_family`,
defined here so that the check and the diagnostic read one family), and an
estimate of the run's largest arrays against physical memory. A bad config
raises ``ConfigError`` before any work is done.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .compactness import _use_gram
from .grids import (SampledFunction, SpatialGrid, l2_norm, row_nonzero_estimates, smooth_bump,
                    validate_frame_grid)
from .operators import model_zoo

__all__ = ["ConfigError", "SuiteConfig", "DEFAULT_TOLERANCES", "DIAGNOSTIC_NAMES",
           "DEFAULT_OPERATORS"]


class ConfigError(ValueError):
    """Invalid suite configuration; nothing is executed."""


DEFAULT_TOLERANCES = {
    "parseval": 0.02,
    "roundtrip": 0.05,
    "pv_rel": 0.02,
    "dual_path": 1e-4,
    "decay_stability": 0.2,
    "schur_anchor": 1e-10,
    "schur_tail_factor": 5.0,
    "origin_tail_finite_rank": 1e-3,
    "wc_hilbert_constancy": 1e-8,
    "wc_finite_rank_tail": 1e-4,
    "rk_finite_rank_ratio": 1e-3,
    "rk_hilbert_ratio": 0.1,
    "rk_svd_agreement": 1e-3,
    "carleson_vanishing_ratio": 1e-2,
    "carleson_nonvanishing_ratio": 0.2,
    "carleson_constant": 1e-6,
    "stein_slack": 10.0,
    "pp_symbol_rel": 0.05,
    "pp_adjoint_constant": 1e-9,
    "pp_adjointness": 1e-10,
    "pp_vanishing_ratio": 1e-2,
    "pp_nonvanishing_ratio": 0.1,
    "decomp_reconstruction": 1e-10,
    "decomp_s1_rel": 0.05,
    "decomp_hilbert": 1e-9,
}

# In the order a suite runs them.
DIAGNOSTIC_NAMES = ("frame", "pv", "decay", "schur", "weak_compactness", "rk_tail", "carleson",
                    "paraproduct", "decomposition")

DEFAULT_OPERATORS = ("hilbert", "damped_hilbert_1", "finite_rank", "zero")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v, name: str) -> float:
    try:
        if _is_number(v) and math.isfinite(v):
            return float(v)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ConfigError(f"{name} must be a finite number")


def _integer(v, name: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{name} must be an integer")
    return v


def _section(raw: dict, name: str, keys) -> dict:
    sec = raw.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(sec) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return sec


def frame_test_family(grid: SpatialGrid) -> dict:
    """The ``frame`` diagnostic's test functions sampled on ``grid``, by name."""
    x = grid.x
    return {
        "gauss": np.exp(-(x**2)),
        "gauss_shift": np.exp(-((x - 10.0) ** 2)),
        "bump_w2": smooth_bump(x, 0.0, 2.0),
        "bump_shift": smooth_bump(x, -8.0, 1.5),
    }


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@dataclass(frozen=True)
class SuiteConfig:
    """Validated suite configuration."""

    grid_L: float = 32.0
    grid_N: int = 2048
    a_min: float = 0.0625
    a_max: float = 512.0
    s: float = 0.125
    L_b: float | None = None
    cone_factor: float = 1.0
    operators: tuple[str, ...] = DEFAULT_OPERATORS
    diagnostics: tuple[str, ...] = DIAGNOSTIC_NAMES
    radii: tuple[float, ...] = tuple(float(r) for r in range(0, 9))
    tolerances: dict = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "SuiteConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        schema = cls().to_dict()
        unknown = set(raw) - set(schema)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs: dict = {}
        grid = _section(raw, "grid", schema["grid"])
        if "L" in grid:
            kwargs["grid_L"] = _finite(grid["L"], "grid.L")
        if "N" in grid:
            kwargs["grid_N"] = _integer(grid["N"], "grid.N")
        for key, val in _section(raw, "frame", schema["frame"]).items():
            if val is not None:
                kwargs[key] = _finite(val, f"frame.{key}")
        for key in ("operators", "diagnostics"):
            if key in raw:
                names = raw[key]
                if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                    raise ConfigError(f"{key} must be a list of strings")
                kwargs[key] = tuple(names)
        if "radii" in raw:
            radii = raw["radii"]
            if not isinstance(radii, list):
                raise ConfigError("radii must be a list of numbers")
            kwargs["radii"] = tuple(_finite(r, "radii") for r in radii)
        if "tolerances" in raw:
            if not isinstance(raw["tolerances"], dict):
                raise ConfigError("tolerances must be an object")
            kwargs["tolerances"] = dict(raw["tolerances"])
        if "seed" in raw:
            kwargs["seed"] = _integer(raw["seed"], "seed")
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        zoo = set(model_zoo())
        for op in self.operators:
            if op not in zoo:
                raise ConfigError(f"unknown operator label {op!r}; known: {sorted(zoo)}")
        if not self.diagnostics:
            raise ConfigError("diagnostics must be a nonempty list")
        for d in self.diagnostics:
            if d not in DIAGNOSTIC_NAMES:
                raise ConfigError(f"unknown diagnostic {d!r}; known: {list(DIAGNOSTIC_NAMES)}")
        if not self.radii:
            raise ConfigError("radii must be a nonempty list")
        if not all(math.isfinite(r) and r >= 0.0 for r in self.radii):
            raise ConfigError("radii must be finite and nonnegative")
        if np.any(np.diff(self.radii) <= 0.0):
            raise ConfigError("radii must be strictly increasing")
        for key, val in self.tolerances.items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance {key!r}")
            if not _finite(val, f"tolerance {key!r}") > 0.0:
                raise ConfigError(f"tolerance {key!r} must be positive")
        try:
            validate_frame_grid(SpatialGrid(self.grid_L, self.grid_N), self.a_min, self.a_max,
                                s=self.s, L_b=self.L_b, cone_factor=self.cone_factor)
        except (ValueError, OverflowError) as exc:  # OverflowError: grid.N beyond the float range
            raise ConfigError(f"grid/frame: {exc}") from None
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        memory = _physical_memory()
        if max(self.resident_bytes(), 8.0 * self.grid_N) > memory:  # or one sample vector
            raise ConfigError(
                f"the run's largest arrays need more than the {memory / 2**30:.1f} GiB "
                "of physical memory; reduce grid.N or the lattice"
            )
        if "frame" in self.diagnostics:
            grid = SpatialGrid(self.grid_L, self.grid_N)
            for name, vals in frame_test_family(grid).items():
                if l2_norm(SampledFunction(grid, vals)) ** 2 == 0.0:  # frame divides by it
                    raise ConfigError(
                        f"frame test function {name!r} samples to zero on the grid "
                        f"(L={self.grid_L}, N={self.grid_N}); widen grid.L or refine grid.N"
                    )

    def resident_bytes(self) -> float:
        """Estimated bytes of the run's largest resident arrays, from the config alone.

        The configured lattice's frame rows at 12 B a nonzero (a float64 value
        and an int32 column index), plus the largest of the per-diagnostic
        extras, which never live at once.  The ``decomposition`` diagnostic
        discretizes ``damped_hilbert_1`` on the dense backend of
        ``discretize`` whatever ``operators`` selects: 8 N^2 B.  ``rk_tail``
        accumulates the 8 N^2 B tail Gram matrix when
        ``compactness._use_gram`` holds on the row estimate, and otherwise
        holds a sorted copy of the first tail's rows next to the cached ones:
        12 B per row nonzero more.  The row term is counted for every run,
        an upper bound: rk_tail builds only the rows it uses and caches
        none, so in a run in which no other diagnostic caches psi's rows the
        Gram route never holds them all, and the sparse route holds its
        lattice-order build of the first tail's rows only while it takes the
        copy.  The dense term is the actual peak: ``kernel_matrix``,
        the dense ``window_sums`` and the Gram build go by blocks, so their
        temporaries are small.
        Summing stops as soon as the estimate exceeds the physical memory, so
        a lattice with more scales than fit is never visited in full.  Call it only on a
        validated grid and frame.
        """
        spatial = SpatialGrid(self.grid_L, self.grid_N)
        memory = _physical_memory()
        dense = 8.0 * float(self.grid_N) ** 2
        decomposition = "decomposition" in self.diagnostics
        total = dense if decomposition else 0.0
        rows = 0.0
        for nnz in row_nonzero_estimates(spatial, self.a_min, self.a_max, self.s,
                                         self.L_b, self.cone_factor):
            rows += nnz
            if total + 12.0 * rows > memory:
                break
        if "rk_tail" in self.diagnostics:
            total = max(total, dense if _use_gram(self.grid_N, rows) else 12.0 * rows)
        return total + 12.0 * rows

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))

    def to_dict(self) -> dict:
        return {
            "grid": {"L": self.grid_L, "N": self.grid_N},
            "frame": {
                "a_min": self.a_min,
                "a_max": self.a_max,
                "s": self.s,
                "L_b": self.L_b,
                "cone_factor": self.cone_factor,
            },
            "operators": list(self.operators),
            "diagnostics": list(self.diagnostics),
            "radii": list(self.radii),
            "tolerances": dict(self.tolerances),
            "seed": self.seed,
        }
