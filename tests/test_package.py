"""The package's public names: resolved on first access, same objects as before."""

import importlib

import pytest

import sqdenom

DEFINED_IN = {
    "analysis": [
        "SweepRecord", "conjecture1_search", "k_set", "off_bound_points",
        "offbound_minima", "offbound_peaks", "on_bound_fraction", "sweep",
        "symmetry_report", "upward_closure_check",
    ],
    "confrac": ["CFExpansion", "first_rational_between", "sqrt_cf"],
    "exactmath": ["Surd", "is_perfect_square", "isqrt", "surd_cmp"],
    "figures": ["FIG5_K_VALUES", "generate_figures", "heatmap_data", "heatmap_svg"],
    "sigmacore": [
        "Decomposition", "ZeroWindow", "decompose", "min_k", "on_bound_criterion",
        "sigma", "sigma_k", "sigma_lower", "sigma_upper",
        "t_set", "tau", "zero_windows",
    ],
}
NAMES = sorted(name for names in DEFINED_IN.values() for name in names)


def test_all_lists_the_public_names():
    assert len(NAMES) == 33
    assert sorted(sqdenom.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(sqdenom._SOURCES))
def test_lazy_table_names_are_in_their_modules_all(module):
    # the union pin above misses a name dropped from one list but not the other
    defining = importlib.import_module(f"sqdenom.{module}")
    assert set(sqdenom._SOURCES[module]) <= set(defining.__all__)


@pytest.mark.parametrize("module", sorted(DEFINED_IN))
def test_names_are_the_defining_modules_objects(module):
    defining = importlib.import_module(f"sqdenom.{module}")
    for name in DEFINED_IN[module]:
        assert getattr(sqdenom, name) is getattr(defining, name), name


def test_star_import_dir_and_submodules():
    namespace = {}
    exec("from sqdenom import *", namespace)
    assert all(namespace[name] is getattr(sqdenom, name) for name in NAMES)
    assert set(NAMES) | {"__version__"} <= set(dir(sqdenom))
    assert not hasattr(sqdenom, "no_such_name")
    from sqdenom import analysis

    assert analysis is importlib.import_module("sqdenom.analysis")
