"""breaklab: structural-break statistics, simulated DGPs, and limit-process
critical values for reproducible Monte Carlo size/power studies."""

from .break_tests import (
    TestOutcome,
    cusum_path,
    cusum_sq_path,
    decide,
    register_statistic,
    scan_range,
    wald_path,
    z_mean_path,
)
from .dgp import (
    DgpSpec,
    Sample,
    SampleStack,
    gen_ar1,
    gen_cointegration,
    gen_linear_regression,
    gen_location,
    gen_predictive_lur,
    generate,
    sample_from_csv,
    sample_to_csv,
    spec_from_config,
    spec_to_config,
)
from .errors import (
    BreakIndexError,
    BreakLabError,
    DataError,
    DegenerateSampleError,
    NumericalError,
    SingularDesignError,
    SpecError,
    TableLookupError,
)
from .estimators import (
    OlsFit,
    SplitFit,
    ols_fit,
    partial_sum_covariance,
    residual_partial_sums,
    split_fit,
)
from .experiments import (
    ExperimentSpec,
    McReport,
    McRow,
    TableSource,
    run_experiment,
    size_distortion_study,
)
from .limit_lab import (
    CriticalValueTable,
    PathGrid,
    load_table,
    save_table,
    simulate_bridge,
    simulate_cointegration_tstat_limit,
    simulate_cvm_p1,
    simulate_lur_cusum_limit,
    simulate_ou,
    simulate_qp_sup,
    tabulate,
)
from .rng import (
    DEFAULT_MASTER_SEED,
    InnovCov,
    SeedSpec,
    StreamStack,
    derive_stream,
    draw_gaussian_pairs,
    limit_draw_stream,
    replication_stream,
)

__version__ = "0.1.0"
