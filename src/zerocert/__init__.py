"""Certification engine for candidate zero distributions under a
delta-subharmonic growth majorant: zero distributions and charges,
variable-radius means, Jensen measures and their potentials, necessity
sweeps, and canonical-product sufficiency checks.

The public names resolve on first use (PEP 562): ``import zerocert``
imports no submodule, and ``zerocert.margin_sweep`` imports only what
zerocert.criterion needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DomainError", "EngineError", "GenusOverflow", "InvalidModel",
               "InvalidPotential", "NotSummable", "PreconditionViolation",
               "SchemaError"),
    "quadrature": ("ToleranceFailure", "circle_mean", "integrate",
                   "mean_on_circle"),
    "measures": ("RadialDensity", "Region", "RieszCharge", "ZeroDistribution"),
    "majorants": ("DSubharmonicMajorant", "SubharmonicModel", "eval_M",
                  "make_harmonic", "make_log_abs_poly", "make_log_poly_growth",
                  "make_radial_power", "make_zero_model", "model_sum"),
    "means": ("SQRT_E", "DiskFractionProfile", "HatRadius", "MeanChainReport",
              "PlanePowerProfile", "check_mean_chain", "default_kernel",
              "disk_mean", "hat_radius", "mollified_mean"),
    "jensen": ("CirclePart", "JensenMeasure", "JensenPotential", "PJReport",
               "log_potential", "poisson_jensen_check",
               "potential_to_measure", "uniform_circle"),
    "testfam": ("PulledBackTest", "SmoothCappedLogFamily", "SpikeTable",
                "TruncatedLogFamily", "inversion_pullback"),
    "criterion": ("Lemma1Constants", "M0Report", "MarginCurve",
                  "MarginSample", "check_m0", "green_disk",
                  "lemma1_constants", "m0_dyadic_grid", "margin_sweep"),
    "construct": ("ProductRepresentation", "SufficiencyReport",
                  "build_product", "genus", "verify_sufficiency",
                  "weierstrass_log_abs"),
    "scenario": ("SCHEMA", "Scenario", "build_sufficiency_grid",
                 "load_scenario", "validate_scenario"),
}

# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME, key=str.lower)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
