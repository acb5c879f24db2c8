"""Recovery of Hardy-space functions on the upper half plane from
boundary data on a bounded real interval, with residue-based growth
analysis of the approximants outside that interval.  ``import patil``
loads numpy alone; import each name from its module, as patil.quench.Interval."""

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
import numpy as _numpy  # noqa: E402,F401 -- with the user's count, if they chose one

__version__ = "0.1.0"
