"""Exact location of rational squares in unit intervals (a, a+1).

Order the positive rationals by denominator first, numerator second; this
package computes, entirely in exact arithmetic, where the first square of a
rational lands strictly between consecutive integers, how many witnesses
each denominator admits, and the bounding-curve structure those counts
follow.

The public names resolve on first access (PEP 562), so importing the
package, or one submodule such as `sqdenom.cli`, loads no other submodule;
`from sqdenom import sigma` works as an eager import would.
"""

import importlib

__version__ = "0.1.0"

_SOURCES = {
    "analysis": (
        "SweepRecord",
        "conjecture1_search",
        "k_set",
        "off_bound_points",
        "offbound_minima",
        "offbound_peaks",
        "on_bound_fraction",
        "sweep",
        "symmetry_report",
        "upward_closure_check",
    ),
    "confrac": ("CFExpansion", "first_rational_between", "sqrt_cf"),
    "exactmath": ("Surd", "is_perfect_square", "isqrt", "surd_cmp"),
    "figures": ("FIG5_K_VALUES", "generate_figures", "heatmap_data", "heatmap_svg"),
    "sigmacore": (
        "Decomposition",
        "ZeroWindow",
        "decompose",
        "min_k",
        "on_bound_criterion",
        "sigma",
        "sigma_k",
        "sigma_lower",
        "sigma_upper",
        "t_set",
        "tau",
        "zero_windows",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
