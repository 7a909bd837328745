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
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is only named in annotations: a config loads none of it
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
    """Reject a record with a NaN or an infinity in a float field or a tuple field."""
    for field in fields(params):
        value = getattr(params, field.name)
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"{field.name} must be finite, got {x}")


def require_at_least(name: str, value, least):
    """``value``, or a ValueError: ``NAME must be >= LEAST, got VALUE``."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _as_normal(z: np.ndarray, loc: float, scale: float) -> np.ndarray:
    """Make standard normals ``z`` N(loc, scale^2) in place, and return ``z``.

    numpy's ``rng.normal(loc, scale)`` is ``loc + scale * standard_normal``;
    scaling then shifting in place rounds the same twice, so the bits match,
    a zero's sign included: ``-0.0 + 0.0`` is ``+0.0``.
    """
    z *= scale
    z += loc
    return z


@dataclass(frozen=True)
class ChannelParams:
    """Gaussian CSI parameters: train-phase pair and non-i.i.d. test pair."""

    mu_h: float
    sigma_h: float
    mu_h_non: float
    sigma_h_non: float

    def __post_init__(self) -> None:
        require_finite(self)
        require_at_least("sigma_h", self.sigma_h, 0)
        require_at_least("sigma_h_non", self.sigma_h_non, 0)

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
    require_at_least("k", k, 1)
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
        fixed = _as_normal(rng.standard_normal(k), params.mu_h, params.sigma_h)
        fixed.flags.writeable = False
    return TrialChannel(scenario=scenario, params=params, n_subcarriers=k, fixed_csi=fixed)


def sample_csi_block(trial: TrialChannel, phase: Phase, block: np.ndarray) -> np.ndarray:
    """Overwrite ``block`` with a phase's CSI: its standard normals scaled, or the fixed row."""
    if trial.fixed_csi is not None:
        block[...] = trial.fixed_csi
        return block
    return _as_normal(block, *trial.params.for_phase(trial.scenario, phase))
