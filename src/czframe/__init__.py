"""Continuous wavelet-frame compactness diagnostics for singular integral operators.

The package represents Calderon-Zygmund operators in a continuous wavelet
frame indexed by the ax+b group and evaluates compactness machinery on a
model-operator zoo: frame identities, coefficient localization and Schur
tests, Riesz-Kolmogorov tail functionals, Carleson-measure diagnostics,
and paraproduct decompositions.
"""

from .geometry import GroupPoint, IDENTITY, dist, haar_ball_volume
from .grids import FrameGrid, SampledFunction, SpatialGrid, make_frame_grid
from .operators import apply_kernel, get_model, model_zoo
from .config import SuiteConfig
from .reporting import Report, emit, run_suite
from .wavelets import analyze, frame_element, make_mother_wavelet, synthesize

__version__ = "0.1.0"

__all__ = [
    "GroupPoint",
    "IDENTITY",
    "dist",
    "haar_ball_volume",
    "FrameGrid",
    "SampledFunction",
    "SpatialGrid",
    "make_frame_grid",
    "apply_kernel",
    "get_model",
    "model_zoo",
    "Report",
    "SuiteConfig",
    "emit",
    "run_suite",
    "analyze",
    "frame_element",
    "make_mother_wavelet",
    "synthesize",
    "__version__",
]
