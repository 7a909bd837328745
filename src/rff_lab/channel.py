"""Per-subcarrier channel state information (CSI) under three scenarios.

The CSI on each subcarrier is a real Gaussian amplitude.  What distinguishes
the scenarios is how draws are shared between the training and test phases of
one trial:

* ``DETERMINISTIC`` — one K-vector is drawn per trial and shared, bitwise, by
  every sample of every device in both phases (a static channel).
* ``IID_STOCHASTIC`` — every sample gets a fresh i.i.d. draw from
  ``N(mu_h, sigma_h^2)`` on every subcarrier; train and test phases share the
  distribution but never the draws.
* ``NON_IID_STOCHASTIC`` — like the i.i.d. scenario, but test-phase draws come
  from ``N(mu_h_non, sigma_h_non^2)``, a different distribution.

Negative draws are kept (untruncated Gaussians), and the K subcarriers of one
sample draw independently.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ChannelScenario",
    "Phase",
    "ChannelParams",
    "TrialChannel",
    "init_trial_channel",
    "sample_csi_block",
]


class ChannelScenario(enum.Enum):
    """Sharing semantics of CSI draws between the train and test phases."""

    DETERMINISTIC = "deterministic"
    IID_STOCHASTIC = "iid"
    NON_IID_STOCHASTIC = "non_iid"


class Phase(enum.Enum):
    TRAIN = "train"
    TEST = "test"


def require_finite(params) -> None:
    """Reject a parameter record whose float fields hold a NaN or an infinity."""
    for field in fields(params):
        value = getattr(params, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class ChannelParams:
    """Gaussian CSI parameters: train-phase pair and non-i.i.d. test pair."""

    mu_h: float
    sigma_h: float
    mu_h_non: float
    sigma_h_non: float

    def __post_init__(self) -> None:
        require_finite(self)
        for name in ("sigma_h", "sigma_h_non"):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    def for_phase(self, scenario: ChannelScenario, phase: Phase) -> tuple[float, float]:
        """(mean, std) of the CSI draws in one phase of a scenario."""
        if scenario is ChannelScenario.NON_IID_STOCHASTIC and phase is Phase.TEST:
            return self.mu_h_non, self.sigma_h_non
        return self.mu_h, self.sigma_h


@dataclass(frozen=True)
class TrialChannel:
    """Per-trial channel state: fixed CSI vector only in the deterministic case."""

    scenario: ChannelScenario
    params: ChannelParams
    n_subcarriers: int
    fixed_csi: np.ndarray | None

    def __post_init__(self) -> None:
        is_det = self.scenario is ChannelScenario.DETERMINISTIC
        if is_det != (self.fixed_csi is not None):
            raise ValueError("fixed_csi must be present iff scenario is deterministic")
        if self.fixed_csi is not None and self.fixed_csi.shape != (self.n_subcarriers,):
            raise ValueError(
                f"fixed_csi has shape {self.fixed_csi.shape}, "
                f"expected ({self.n_subcarriers},)"
            )


def init_trial_channel(
    scenario: ChannelScenario,
    params: ChannelParams,
    k: int,
    rng: np.random.Generator,
) -> TrialChannel:
    """Set up one trial's channel; draws the shared K-vector if deterministic."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if scenario is ChannelScenario.NON_IID_STOCHASTIC and (
        params.mu_h_non == params.mu_h and params.sigma_h_non == params.sigma_h
    ):
        warnings.warn(
            "non-i.i.d. scenario with identical train/test CSI distributions; "
            "this degenerates to the i.i.d. scenario",
            stacklevel=2,
        )
    fixed = None
    if scenario is ChannelScenario.DETERMINISTIC:
        fixed = rng.normal(params.mu_h, params.sigma_h, size=k)
        fixed.flags.writeable = False
    return TrialChannel(scenario=scenario, params=params, n_subcarriers=k, fixed_csi=fixed)


def sample_csi_block(trial: TrialChannel, phase: Phase, block: np.ndarray) -> np.ndarray:
    """Overwrite ``block`` with a phase's CSI: its standard normals scaled, or the fixed row."""
    if trial.fixed_csi is not None:
        block[...] = trial.fixed_csi
        return block
    mu, sigma = trial.params.for_phase(trial.scenario, phase)
    block *= sigma
    block += mu
    return block
