"""Exact Bayesian evidence for Gaussian covariance structure selection.

Three structures for the covariance of a mean-zero d-variate Gaussian are
compared: arbitrary positive definite (A), non-constant diagonal (D), and
constant diagonal (C). Conjugate gamma/Wishart priors on the
half-precision give every structure a closed-form marginal likelihood
(evidence), an exact flexibility penalty, and the BIC-family criteria;
simulation harnesses verify the asymptotic divergence rates of the
evidence ratios.
"""

__version__ = "0.1.0"

from .data import Dataset, SuffStats, center_columns, concat, load_csv, suff_stats
from .errors import (
    AsymmetricMatrixError,
    ConfigError,
    CovselError,
    CsvParseError,
    DegenerateScatterError,
    DimensionMismatchError,
    EmptyDatasetError,
    NonRegularPriorError,
    NotPositiveDefiniteError,
    SupportError,
)
from .precision import DiagPrecision, FullPrecision, HalfPrecision, IsoPrecision
from .priors import (
    GammaHyper,
    GammaVecHyper,
    Hyper,
    HyperTriple,
    PriorSampleSize,
    WishartHyper,
    conjugate_update,
    empirical_bayes,
    hyper_from_jsonable,
    hyper_to_jsonable,
    kl_objective,
    log_normalizer,
    log_prior_density,
    match_down,
    match_up,
    matched_family,
    mclust_default,
    prior_sample_size,
    rate_matrix,
    sample_half_precision,
)
from .specialfn import chol_log_det, log_mv_gamma
from .structures import (
    FitReport,
    SelectionResult,
    criteria,
    flexibility,
    log_evidence,
    log_evidence_flat,
    log_likelihood,
    map_estimate,
    param_count,
    select_structure,
)
from .asymptotics import (
    RateStudyConfig,
    flexibility_bic_gap,
    linear_rate_constant,
    log_rate_constant,
    rate_study,
    second_moment_matrix,
)
from .montecarlo import (
    ConfusionTable,
    McNemarResult,
    SimConfig,
    confusion_table,
    generate_instance,
    mcnemar,
    oracle_hyper,
    run_cell,
    run_row,
)
from .regression import (
    RegressionData,
    RegressionFit,
    RegressionHyper,
    enumerate_covariates,
    fit_coefficients,
    fit_regression,
    lambda_path,
    log_evidence_regression,
    residual_stats,
    standard_hypers,
)
