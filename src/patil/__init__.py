"""Recovery of Hardy-space functions on the upper half plane from
boundary data on a bounded real interval, with residue-based growth
analysis of the approximants outside that interval."""

import os as _os
import sys as _sys

# OpenBLAS reads its thread count once, when numpy loads it, from the first
# of these variables that is set.  The one BLAS call here is a 2-column
# least-squares fit, and a second thread only spins on an idle core, so
# load it with one thread unless the user chose a count; the variable is
# removed again, so the environment stays the user's.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(
        v in _os.environ for v in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .approximant import (  # noqa: E402
    BoundarySignal,
    approximant_boundary,
    approximant_interior,
    approximant_table,
    approximant_values,
    l2_error_on_window,
    sup_error_on_compact,
)
from .asymptotics import (  # noqa: E402
    ContourSpec,
    StripSingularity,
    contour_identity_check,
    contour_residuals,
    fit_growth_exponent,
    kernel_k,
    predict_growth_exponent,
    residue_kernel_pole,
    residue_merged,
    residue_strip_pole,
)
from .catalog import (  # noqa: E402
    CatalogEntry,
    entry_names,
    example1,
    example2,
    get_entry,
    h2_reference_pole,
)
from .quadrature import (  # noqa: E402
    DecayCertificate,
    QuadTolerance,
    integrate_adaptive,
    integrate_real_line,
    pv_integrate,
)
from .quench import (  # noqa: E402
    Interval,
    QuenchParams,
    phase_G,
    quench_boundary,
    quench_interior,
    xi_of_lambda,
)

__version__ = "0.1.0"
