"""Certification engine for candidate zero distributions under a
delta-subharmonic growth majorant: zero distributions and charges,
variable-radius means, Jensen measures and their potentials, necessity
sweeps, and canonical-product sufficiency checks."""

from .errors import (DomainError, EngineError, GenusOverflow, InvalidModel,
                     InvalidPotential, NotSummable, PreconditionViolation,
                     SchemaError)
from .quadrature import (ToleranceFailure, circle_mean, integrate,
                         mean_on_circle)
from .measures import RadialDensity, Region, RieszCharge, ZeroDistribution
from .majorants import (DSubharmonicMajorant, SubharmonicModel, eval_M,
                        make_harmonic, make_log_abs_poly, make_log_poly_growth,
                        make_radial_power, make_zero_model, model_sum)
from .means import (SQRT_E, DiskFractionProfile, HatRadius, MeanChainReport,
                    PlanePowerProfile, check_mean_chain, default_kernel,
                    disk_mean, hat_radius, mollified_mean)
from .jensen import (CirclePart, JensenMeasure, JensenPotential, PJReport,
                     green_disk, log_potential, poisson_jensen_check,
                     potential_to_measure, uniform_circle)
from .testfam import (PulledBackTest, SmoothCappedLogFamily, TestPotential,
                      TruncatedLogFamily, inversion_pullback,
                      smooth_capped_log, truncated_log_plane)
from .criterion import (Lemma1Constants, M0Report, MarginCurve, MarginSample,
                        check_m0, lemma1_constants, m0_dyadic_grid,
                        margin_sweep)
from .construct import (ProductRepresentation, SufficiencyReport,
                        build_product, genus, verify_sufficiency,
                        weierstrass_log_abs)
from .scenario import (SCHEMA, Scenario, build_sufficiency_grid,
                       load_scenario, validate_scenario)

__version__ = "0.1.0"

__all__ = [
    "SQRT_E", "CirclePart", "DiskFractionProfile",
    "DomainError", "DSubharmonicMajorant", "EngineError", "GenusOverflow",
    "HatRadius", "InvalidModel",
    "InvalidPotential", "JensenMeasure", "JensenPotential",
    "Lemma1Constants", "M0Report", "MarginCurve", "MarginSample",
    "MeanChainReport", "NotSummable", "PJReport", "PlanePowerProfile",
    "PreconditionViolation", "ProductRepresentation", "PulledBackTest",
    "RadialDensity", "Region", "RieszCharge", "SCHEMA", "Scenario",
    "SchemaError", "SmoothCappedLogFamily", "SubharmonicModel",
    "SufficiencyReport", "TestPotential", "ToleranceFailure",
    "TruncatedLogFamily", "ZeroDistribution", "build_product",
    "build_sufficiency_grid", "check_m0",
    "check_mean_chain", "circle_mean", "default_kernel", "disk_mean",
    "eval_M", "genus", "green_disk", "hat_radius", "integrate",
    "inversion_pullback", "lemma1_constants", "load_scenario",
    "log_potential", "m0_dyadic_grid", "make_harmonic",
    "make_log_abs_poly", "make_log_poly_growth", "make_radial_power",
    "make_zero_model", "margin_sweep",
    "mean_on_circle", "model_sum", "mollified_mean",
    "poisson_jensen_check", "potential_to_measure",
    "smooth_capped_log", "truncated_log_plane", "uniform_circle",
    "validate_scenario", "verify_sufficiency", "weierstrass_log_abs",
]
