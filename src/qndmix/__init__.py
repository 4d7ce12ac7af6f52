"""Mixtures of i.i.d. multinomial records from repeated QND measurements:
simulation, maximum-likelihood estimation, and Monte-Carlo checks of the
associated asymptotic theory (local asymptotic normality of mixtures,
Cramer-Rao saturation, mixture collapse, posterior purification).
"""

from .asymptotics import (
    ExperimentPlan,
    consistency_experiment,
    cramer_rao_experiment,
    estimate_experiment,
    fig1_experiment,
    lamn_experiment,
    mixture_collapse_experiment,
    mle_path,
    purification_experiment,
)
from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    InferenceError,
    QndmixError,
    RefusalError,
    SingularFisherError,
)
from .estimate import (
    EstimationReport,
    LogLikelihood,
    loglik,
    loglik_component,
    maximize_scalar,
    mle,
)
from .model import (
    IdentifiabilityReport,
    MixtureWeights,
    ParameterBox,
    ParametricFamily,
    check_identifiability,
    fisher_information,
    kl_matrix,
)
from .presets import PRESETS, Preset, get_preset, poisson_like_weights
from .quantum import (
    FilterState,
    QndSystem,
    filter_step,
    filter_trajectory,
    hermitian_expm,
)
from .simulate import (
    CountVector,
    Trajectory,
    counts,
    sample_component,
    sample_mixture_trajectory,
    sample_trajectory,
    substream,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConstructionError",
    "CountVector",
    "DomainError",
    "EstimationReport",
    "ExperimentPlan",
    "FilterState",
    "IdentifiabilityReport",
    "InferenceError",
    "LogLikelihood",
    "MixtureWeights",
    "ParameterBox",
    "ParametricFamily",
    "PRESETS",
    "Preset",
    "QndSystem",
    "QndmixError",
    "RefusalError",
    "SingularFisherError",
    "Trajectory",
    "check_identifiability",
    "consistency_experiment",
    "counts",
    "cramer_rao_experiment",
    "estimate_experiment",
    "fig1_experiment",
    "filter_step",
    "filter_trajectory",
    "fisher_information",
    "get_preset",
    "hermitian_expm",
    "kl_matrix",
    "lamn_experiment",
    "loglik",
    "loglik_component",
    "maximize_scalar",
    "mixture_collapse_experiment",
    "mle",
    "mle_path",
    "poisson_like_weights",
    "purification_experiment",
    "sample_component",
    "sample_mixture_trajectory",
    "sample_trajectory",
    "substream",
]
