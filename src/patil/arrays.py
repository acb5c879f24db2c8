"""numpy, loaded on first use, and evaluators that follow their input.

Only array work needs numpy: the u- and t-paths of g_lambda, the array
adapter of the G7/K15 engine (``quadrature.integrate_batch``, whose
integrand takes and returns arrays, and the functions built on it),
``kernel_k``, ``residue_merged``, ``Interval.from_u``, ``phase_G`` and
evaluators given arrays.  ``import patil``, the engine itself
(``quadrature.integrate_rows``, whose integrand returns lists of node
values), the contour identity, the residue path of g_lambda and the
growth fit load none of it.
"""

import os
import sys

# OpenBLAS reads its thread count once, when numpy loads it, from the first
# of these variables that is set, and starts one thread per core there.
# patil makes no BLAS call a second thread would speed up, so numpy is
# loaded with one thread unless the user chose a count; the variable is
# removed again, so the environment stays the user's.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_numpy = None


def numpy():
    """The numpy module, imported by the first call (see the note above)."""
    global _numpy
    if _numpy is None:
        if "numpy" not in sys.modules and not any(
                v in os.environ for v in _BLAS_THREAD_VARS):
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
            try:
                import numpy as np
            finally:
                del os.environ["OPENBLAS_NUM_THREADS"]
        import numpy as np  # with the user's count, if they chose one
        _numpy = np
    return _numpy


def evaluator(scalar, array=None, dtype=complex):
    """A function of a number, a list or an array that follows its input.

    A Python int, float or complex ``x`` gives ``scalar(dtype(x))``, a
    list the list of those values, and anything else an ndarray of its
    shape: ``array`` (``scalar`` by default) of ``x`` as an ndarray of
    ``dtype``.  Only the last loads numpy.
    """
    array = array or scalar

    def evaluate(x):
        if type(x) in (int, float, complex):
            return scalar(dtype(x))
        if type(x) is list:
            return [scalar(dtype(v)) for v in x]
        np = numpy()
        return np.asarray(array(np.asarray(x, dtype=dtype)))
    return evaluate
