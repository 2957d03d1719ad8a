"""Delta Variance: epistemic uncertainty from gradients and curvature.

The central quantity is the quadratic form nu(z) = delta' Sigma delta, where
delta is the gradient of a quantity of interest with respect to the model
parameters and Sigma is a covariance built from Fisher information, the loss
Hessian, or their sandwich combination. The subpackages provide the scalar
autodiff tape, trainable models, covariance estimators, quantities of
interest, validation oracles (posterior Monte Carlo, leave-one-out,
adversarial retraining, gradient-space Mahalanobis), ensemble and dropout
baselines, evaluation metrics, a desk-scale benchmark, and a CLI.
"""

__version__ = "0.1.0"

from .autodiff import ParameterVector, Tape, Var
from .baselines import (
    cost_accounting,
    dropout_variance_batch,
    ensemble_variance_batch,
    train_ensemble,
)
from .bench import Scenario, make_scenario, run_scenario, write_report
from .covariance import (
    CovarianceEstimate,
    canonical_sigma,
    empirical_fisher,
    invert,
    laplace_sigma,
    load_covariance,
    sandwich,
    save_covariance,
)
from .delta_variance import (
    BlockScales,
    GradientDelta,
    block_variances,
    delta_variance,
    finetune_scales,
)
from .evaluation import (
    error_correlation,
    fit_laplace_calibration,
    improvement,
    laplace_loglik,
    retention_auc,
    standard_error,
)
from .exceptions import (
    ConfigError,
    ConvergenceError,
    DegenerateEigenvalueError,
    DeltaVarError,
    NumericalError,
    ResourceError,
    StructuralError,
    TrainingError,
)
from .models import Dataset, Model, TrainConfig, make_model, predict, train
from .oracles import (
    OracleReport,
    adversarial_shift,
    eps_loo_variance,
    gaussian_posterior_mc,
    loo_variance,
    mahalanobis_gradient_distance,
    richardson_eps_loo,
)
from .qoi import eigenvalue_delta, make_qoi, parse_qoi, qoi_value_and_delta

__all__ = [
    "ParameterVector", "Tape", "Var",
    "Dataset", "Model", "TrainConfig", "make_model", "predict", "train",
    "CovarianceEstimate", "empirical_fisher", "canonical_sigma",
    "laplace_sigma", "sandwich", "invert", "save_covariance",
    "load_covariance",
    "GradientDelta", "delta_variance", "block_variances",
    "BlockScales", "finetune_scales",
    "make_qoi", "parse_qoi", "qoi_value_and_delta", "eigenvalue_delta",
    "OracleReport", "gaussian_posterior_mc", "loo_variance",
    "eps_loo_variance", "richardson_eps_loo", "adversarial_shift",
    "mahalanobis_gradient_distance",
    "train_ensemble", "ensemble_variance_batch", "dropout_variance_batch",
    "cost_accounting",
    "retention_auc", "error_correlation", "laplace_loglik",
    "fit_laplace_calibration", "improvement", "standard_error",
    "Scenario", "make_scenario", "run_scenario", "write_report",
    "DeltaVarError", "StructuralError", "NumericalError", "TrainingError",
    "ConvergenceError", "ResourceError", "DegenerateEigenvalueError", "ConfigError",
    "__version__",
]
