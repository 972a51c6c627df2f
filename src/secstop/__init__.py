"""Exact optimal stopping when the number of candidates is random.

Three selection rules (classic best-only, best-or-worst, postdoc
second-best) over four count models (known n, Uniform[1, n], Poisson,
explicit pmf): exact threshold success curves and optimal cutoffs,
backward-induction policies, closed-form asymptotic estimators with
failure scans, and a reproducible Monte Carlo harness.
"""

from .core_model import (
    CountModel,
    CutoffReport,
    EstimatorCheck,
    Explicit,
    Known,
    Poisson,
    ThresholdPolicy,
    Uniform,
    Variant,
    explicit_from_dict,
    nice_probability,
    support,
    tail_prob,
    threshold_success_known,
    truncate_to_explicit,
)
from .dp import DPPolicy, backward_induction, exhaustive_oracle
from .estimate import (
    EstimatorId,
    affine_shift,
    g_theta,
    integer_estimate,
    lambda0,
    lambda_m,
    poisson_cutoff_estimates,
    theta,
    uniform_cutoff_estimates,
    with_estimates,
)
from .exact import (
    SuccessCurve,
    best_cutoff,
    closed_form_uniform,
    poisson_smoothing_coefficients,
    step_accept_prob,
    step_reject_prob,
    success_curve,
)
from .lab import (
    AsymptoteReport,
    Convergent,
    FailureScan,
    asymptote_probe,
    cf_convergents,
    scan_estimator_failures,
    verify_convergent_cutoffs,
)
from .mc import SimConfig, SimReport, merge, simulate
from .specfun import TruncationError

__all__ = [
    "CountModel",
    "CutoffReport",
    "EstimatorCheck",
    "Explicit",
    "Known",
    "Poisson",
    "ThresholdPolicy",
    "Uniform",
    "Variant",
    "explicit_from_dict",
    "nice_probability",
    "support",
    "tail_prob",
    "threshold_success_known",
    "truncate_to_explicit",
    "DPPolicy",
    "backward_induction",
    "exhaustive_oracle",
    "EstimatorId",
    "affine_shift",
    "g_theta",
    "integer_estimate",
    "lambda0",
    "lambda_m",
    "poisson_cutoff_estimates",
    "theta",
    "uniform_cutoff_estimates",
    "with_estimates",
    "SuccessCurve",
    "best_cutoff",
    "closed_form_uniform",
    "poisson_smoothing_coefficients",
    "step_accept_prob",
    "step_reject_prob",
    "success_curve",
    "AsymptoteReport",
    "Convergent",
    "FailureScan",
    "asymptote_probe",
    "cf_convergents",
    "scan_estimator_failures",
    "verify_convergent_cutoffs",
    "SimConfig",
    "SimReport",
    "merge",
    "simulate",
    "TruncationError",
]
