"""breaklab: structural-break statistics, simulated DGPs, and limit-process
critical values for reproducible Monte Carlo size/power studies.

``import breaklab`` loads none of its modules.  Each exported name, and each
submodule named as an attribute (``breaklab.experiments``), loads its module
on first use and is then the very object that module defines.  So a process
that only tabulates never loads the replication engine.
"""

import importlib

__version__ = "0.1.0"

#: module -> the names the package exports from it
_EXPORTS = {
    "break_tests": (
        "TestOutcome",
        "cusum_path",
        "cusum_sq_path",
        "decide",
        "register_statistic",
        "scan_range",
        "wald_path",
        "z_mean_path",
    ),
    "dgp": (
        "DgpSpec",
        "Sample",
        "SampleStack",
        "gen_ar1",
        "gen_cointegration",
        "gen_linear_regression",
        "gen_location",
        "gen_predictive_lur",
        "generate",
        "sample_from_csv",
        "sample_to_csv",
        "spec_from_config",
        "spec_to_config",
    ),
    "errors": (
        "BreakIndexError",
        "BreakLabError",
        "DataError",
        "DegenerateSampleError",
        "NumericalError",
        "SingularDesignError",
        "SpecError",
        "TableLookupError",
    ),
    "estimators": (
        "OlsFit",
        "SplitFit",
        "ols_fit",
        "partial_sum_covariance",
        "residual_partial_sums",
        "split_fit",
    ),
    "experiments": (
        "ExperimentSpec",
        "McReport",
        "McRow",
        "TableSource",
        "run_experiment",
        "size_distortion_study",
    ),
    "limit_lab": (
        "CriticalValueTable",
        "PathGrid",
        "load_table",
        "save_table",
        "simulate_bridge",
        "simulate_cointegration_tstat_limit",
        "simulate_cvm_p1",
        "simulate_lur_cusum_limit",
        "simulate_ou",
        "simulate_qp_sup",
        "tabulate",
    ),
    "rng": (
        "DEFAULT_MASTER_SEED",
        "InnovCov",
        "SeedSpec",
        "StreamStack",
        "derive_stream",
        "draw_gaussian_pairs",
        "limit_draw_stream",
        "replication_stream",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "kernels", "schema")

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
