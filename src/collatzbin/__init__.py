"""Exact-arithmetic toolkit for the Collatz map in binary form.

The classic 3x+1 dynamics, rewritten as a map on binary fractions in
[1/2, 1): exact dyadic arithmetic, the interval map and its circle-map
companion, per-step length accounting, periodic-orbit exclusion scans,
exhaustive and randomized orbit experiments, and PBM orbit rasters.
"""

from . import analysis, exact, harness, maps, raster, verify
from .analysis import *  # noqa: F403
from .exact import *  # noqa: F403
from .harness import *  # noqa: F403
from .maps import *  # noqa: F403
from .raster import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted({n for m in (analysis, exact, harness, maps, raster, verify) for n in m.__all__})
