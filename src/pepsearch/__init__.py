"""Simulation and counting analysis for conduction-electron
exclusion-principle tests with x-ray detectors."""

from .core import (EmissionLine, GeometryConfig, PhysicsConstants,
                   ResponseModel, RunMeta, fwhm_to_sigma)
from .efficiency import EfficiencyResult, run_efficiency
from .errors import (CalibrationError, ConfigError, DomainError, FitError,
                     FormatError)
from .eventio import RunHeader, Spectrum, histogram, read_run, write_run
from .limits import (LimitResult, Measurement, RoiDefinition,
                     SubtractionResult, compute_limit, count_roi,
                     normalize_livetime, project_sensitivity, subtract)
from .simulate import (InjectionConfig, SourceModel,
                       expected_violation_counts, simulate_campaign,
                       simulate_run)

__version__ = "0.1.0"

__all__ = [
    "CalibrationError", "ConfigError", "DomainError", "EfficiencyResult",
    "EmissionLine", "FitError", "FormatError", "GeometryConfig",
    "InjectionConfig", "LimitResult", "Measurement", "PhysicsConstants",
    "ResponseModel", "RoiDefinition", "RunHeader", "RunMeta", "SourceModel",
    "Spectrum", "SubtractionResult", "compute_limit", "count_roi",
    "expected_violation_counts", "fwhm_to_sigma", "histogram",
    "normalize_livetime", "project_sensitivity", "read_run",
    "run_efficiency", "simulate_campaign", "simulate_run", "subtract",
    "write_run", "__version__",
]
