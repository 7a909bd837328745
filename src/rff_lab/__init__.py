"""Simulation laboratory for radio-frequency-fingerprint feature extraction.

The package models per-subcarrier device fingerprints observed through a
real-Gaussian channel, implements five feature-extraction methods, and
compares Monte-Carlo silhouette scores and classification accuracies against
closed-form (Taylor/delta-method) predictions.

Each library module's ``__all__`` is republished here; the command-line
module `rff_lab.cli` is not imported.
"""

#: the one place the version is written; the CLI and the build read it here
__version__ = "0.1.0"

from . import analytic, channel, classifier, config, experiments, gaussian_moments
from . import signal_model, silhouette
from .analytic import *
from .channel import *
from .classifier import *
from .config import *
from .experiments import *
from .gaussian_moments import *
from .signal_model import *
from .silhouette import *

__all__ = [
    "__version__",
    *analytic.__all__,
    *channel.__all__,
    *classifier.__all__,
    *config.__all__,
    *experiments.__all__,
    *gaussian_moments.__all__,
    *signal_model.__all__,
    *silhouette.__all__,
]
