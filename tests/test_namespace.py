"""The package namespace: every exported name is the object its module
defines, whether it was loaded by name, by ``dir`` or by ``import *``."""

import importlib

import pytest

import breaklab

#: the names the package exports, by the module that defines each
EXPORTS = {
    "break_tests": [
        "TestOutcome", "cusum_path", "cusum_sq_path", "decide", "register_statistic", "scan_range",
        "wald_path", "z_mean_path",
    ],
    "dgp": [
        "DgpSpec", "Sample", "SampleStack", "gen_ar1", "gen_cointegration", "gen_linear_regression",
        "gen_location", "gen_predictive_lur", "generate", "sample_from_csv", "sample_to_csv",
        "spec_from_config", "spec_to_config",
    ],
    "errors": [
        "BreakIndexError", "BreakLabError", "DataError", "DegenerateSampleError", "NumericalError",
        "SingularDesignError", "SpecError", "TableLookupError",
    ],
    "estimators": [
        "OlsFit", "SplitFit", "ols_fit", "partial_sum_covariance", "residual_partial_sums", "split_fit",
    ],
    "experiments": [
        "ExperimentSpec", "McReport", "McRow", "TableSource", "run_experiment", "size_distortion_study",
    ],
    "limit_lab": [
        "CriticalValueTable", "PathGrid", "load_table", "save_table", "simulate_bridge",
        "simulate_cointegration_tstat_limit", "simulate_cvm_p1", "simulate_lur_cusum_limit",
        "simulate_ou", "simulate_qp_sup", "tabulate",
    ],
    "rng": [
        "DEFAULT_MASTER_SEED", "InnovCov", "SeedSpec", "StreamStack", "derive_stream",
        "draw_gaussian_pairs", "limit_draw_stream", "replication_stream",
    ],
}
NAMES = {name for names in EXPORTS.values() for name in names}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_exported_name_is_the_object_of_its_module(module):
    mod = importlib.import_module(f"breaklab.{module}")
    for name in EXPORTS[module]:
        assert getattr(breaklab, name) is getattr(mod, name), name


def test_dir_lists_every_exported_name():
    assert NAMES <= set(dir(breaklab))


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from breaklab import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        breaklab.nosuch
    assert getattr(breaklab, "BACKEND", None) is None  # perfbench records it when present
    assert breaklab.__version__ == "0.1.0"


def test_a_submodule_resolves_after_a_bare_import(python):
    code = (
        "import sys, breaklab\n"
        "assert 'breaklab.experiments' not in sys.modules\n"
        "assert breaklab.experiments is sys.modules['breaklab.experiments']\n"
        "assert breaklab.TableSource is breaklab.experiments.TableSource\n"
    )
    proc = python(["-c", code])
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
