"""Exact optimal stopping when the number of candidates is random.

Three selection rules (classic best-only, best-or-worst, postdoc
second-best) over four count models (known n, Uniform[1, n], Poisson,
explicit pmf): exact threshold success curves and optimal cutoffs,
backward-induction policies, closed-form asymptotic estimators with
failure scans, and a reproducible Monte Carlo harness.

`import secstop` loads none of its submodules.  Each exported name is
listed once in `_EXPORTS` with the module that defines it, and that module
is imported on the name's first access (PEP 562); the name is then cached
in the package, so `from secstop import X`, `secstop.X` and
`from secstop import *` give the defining module's own object.
"""

from importlib import import_module

_EXPORTS = {
    "CountModel": "core_model",
    "CutoffReport": "core_model",
    "EstimatorCheck": "core_model",
    "Explicit": "core_model",
    "Known": "core_model",
    "Poisson": "core_model",
    "ThresholdPolicy": "core_model",
    "Uniform": "core_model",
    "Variant": "core_model",
    "explicit_from_dict": "core_model",
    "nice_probability": "core_model",
    "support": "core_model",
    "tail_prob": "core_model",
    "threshold_success_known": "core_model",
    "truncate_to_explicit": "core_model",
    "DPPolicy": "dp",
    "backward_induction": "dp",
    "exhaustive_oracle": "dp",
    "EstimatorId": "estimate",
    "affine_shift": "estimate",
    "g_theta": "estimate",
    "integer_estimate": "estimate",
    "lambda0": "estimate",
    "lambda_m": "estimate",
    "poisson_cutoff_estimates": "estimate",
    "theta": "estimate",
    "uniform_cutoff_estimates": "estimate",
    "with_estimates": "estimate",
    "SuccessCurve": "exact",
    "best_cutoff": "exact",
    "closed_form_uniform": "exact",
    "poisson_smoothing_coefficients": "exact",
    "step_accept_prob": "exact",
    "step_reject_prob": "exact",
    "success_curve": "exact",
    "AsymptoteReport": "lab",
    "Convergent": "lab",
    "FailureScan": "lab",
    "asymptote_probe": "lab",
    "cf_convergents": "lab",
    "scan_estimator_failures": "lab",
    "verify_convergent_cutoffs": "lab",
    "SimConfig": "mc",
    "SimReport": "mc",
    "merge": "mc",
    "simulate": "mc",
    "TruncationError": "specfun",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
