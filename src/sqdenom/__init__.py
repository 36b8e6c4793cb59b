"""Exact location of rational squares in unit intervals (a, a+1).

Order the positive rationals by denominator first, numerator second; this
package computes, entirely in exact arithmetic, where the first square of a
rational lands strictly between consecutive integers, how many witnesses
each denominator admits, and the bounding-curve structure those counts
follow.
"""

from .analysis import (
    SweepRecord,
    TauProfile,
    conjecture1_search,
    k_set,
    off_bound_points,
    offbound_minima,
    offbound_peaks,
    on_bound_fraction,
    sweep,
    symmetry_report,
    tau_profile,
    upward_closure_check,
)
from .confrac import CFExpansion, first_rational_between, sqrt_cf
from .exactmath import (
    Surd,
    floor_surd,
    is_perfect_square,
    isqrt,
    surd_cmp,
)
from .figures import FIG5_K_VALUES, generate_figures, heatmap_data, heatmap_svg
from .sigmacore import (
    Decomposition,
    ZeroWindow,
    decompose,
    min_k,
    on_bound_criterion,
    sigma,
    sigma_k,
    sigma_l,
    sigma_lower,
    sigma_r,
    sigma_upper,
    t_set,
    tau,
    zero_windows,
)

__version__ = "0.1.0"
