"""Simulation laboratory for radio-frequency-fingerprint feature extraction.

The package models per-subcarrier device fingerprints observed through a
real-Gaussian channel, implements five feature-extraction methods, and
compares Monte-Carlo silhouette scores and classification accuracies against
closed-form (Taylor/delta-method) predictions.
"""

#: the one place the version is written; the CLI and the build read it here
__version__ = "0.1.0"

from .analytic import FeatureLaw, expected_inter, expected_intra, expected_silhouette, feature_law
from .channel import ChannelParams, ChannelScenario, Phase, init_trial_channel, sample_csi_block
from .classifier import LdaModel, accuracy, fit, predict_batch
from .config import ConfigError, parse_config, render_config
from .experiments import (
    CorrelationReport,
    ExperimentConfig,
    SweepRecord,
    TrialResult,
    correlate,
    default_config,
    run_sweep,
    run_trial,
)
from .gaussian_moments import (
    GaussianMoments,
    GaussianSpec,
    McRatioResult,
    RatioForm,
    RatioParams,
    cross_difference_moments,
    direct_ratio_moments,
    in_regime,
    mc_ratio_detail,
    paired_product_mean,
    reciprocal_moments,
)
from .signal_model import (
    DeviceFingerprint,
    Method,
    ModelParams,
    draw_fingerprint,
    extract_batch,
)
from .silhouette import normalize_block, silhouette_from_normalized

__all__ = [
    "__version__",
    "ChannelParams",
    "ChannelScenario",
    "ConfigError",
    "CorrelationReport",
    "DeviceFingerprint",
    "ExperimentConfig",
    "FeatureLaw",
    "GaussianMoments",
    "GaussianSpec",
    "LdaModel",
    "McRatioResult",
    "Method",
    "ModelParams",
    "Phase",
    "RatioForm",
    "RatioParams",
    "SweepRecord",
    "TrialResult",
    "accuracy",
    "correlate",
    "cross_difference_moments",
    "default_config",
    "direct_ratio_moments",
    "draw_fingerprint",
    "expected_inter",
    "expected_intra",
    "expected_silhouette",
    "extract_batch",
    "feature_law",
    "fit",
    "in_regime",
    "init_trial_channel",
    "mc_ratio_detail",
    "normalize_block",
    "paired_product_mean",
    "parse_config",
    "predict_batch",
    "reciprocal_moments",
    "render_config",
    "run_sweep",
    "run_trial",
    "sample_csi_block",
    "silhouette_from_normalized",
]
