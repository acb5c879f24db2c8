"""Recovery of Hardy-space functions on the upper half plane from
boundary data on a bounded real interval, with residue-based growth
analysis of the approximants outside that interval."""

from .approximant import (
    BoundarySignal,
    approximant_boundary,
    approximant_interior,
    approximant_values,
    l2_error_on_window,
    sup_error_on_compact,
)
from .asymptotics import (
    ContourSpec,
    StripSingularity,
    contour_identity_check,
    fit_growth_exponent,
    kernel_k,
    predict_growth_exponent,
    residue_kernel_pole,
    residue_merged,
    residue_strip_pole,
)
from .catalog import (
    CatalogEntry,
    entry_names,
    example1,
    example2,
    get_entry,
    h2_reference_pole,
)
from .quadrature import (
    DecayCertificate,
    QuadTolerance,
    integrate_adaptive,
    integrate_real_line,
    pv_integrate,
)
from .quench import (
    Interval,
    QuenchParams,
    phase_G,
    quench_boundary,
    quench_interior,
    xi_of_lambda,
)

__version__ = "0.1.0"
