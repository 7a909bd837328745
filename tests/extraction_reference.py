"""Per-device reference extraction: one device, one phase, one call at a time.

`rff_lab.signal_model.extract_batch` draws a whole phase at once, one
standard-normal call per device and drawn slab of its slab-major
``(3, D, N, K)`` blocks, and runs the feature arithmetic once over the
``(D, N, K)`` slabs.  The functions here are the definitional form it is
checked against: each device's fingerprints and each (device, phase) batch
come from ``rng.normal`` calls on that device's own stream, in the documented
draw order, and every feature law is one expression.  Stacking the batches
of a phase must give the library's tensor byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rff_lab.channel import Phase, TrialChannel
from rff_lab.signal_model import Method, ModelParams, phase_law, ratio_law


@dataclass(frozen=True)
class DeviceFingerprint:
    """One device's per-subcarrier fingerprints, fixed for a whole trial."""

    tu: np.ndarray
    tu_s: np.ndarray


def draw_fingerprint(params: ModelParams, rng: np.random.Generator) -> DeviceFingerprint:
    """Draw one device's fingerprints (``tu`` first, then ``tu_s``)."""
    tu = rng.normal(params.mu_u, params.sigma_u, size=params.r_l)
    tu_s = rng.normal(params.mu_s, params.sigma_s, size=params.r_s)
    return DeviceFingerprint(tu=tu, tu_s=tu_s)


def sample_csi_block(
    trial: TrialChannel, phase: Phase, rng: np.random.Generator, n_samples: int
) -> np.ndarray:
    """(n_samples, K) CSI matrix; the deterministic row repeats without consuming rng."""
    k = trial.n_subcarriers
    if trial.fixed_csi is not None:
        return np.broadcast_to(trial.fixed_csi, (n_samples, k))
    mu, sigma = trial.params.for_phase(trial.scenario, phase)
    return rng.normal(mu, sigma, size=(n_samples, k))


def extract_batch(
    method: Method,
    params: ModelParams,
    fp: DeviceFingerprint,
    trial: TrialChannel,
    phase: Phase,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(n_samples, K) raw feature matrix of one device; may contain non-finite entries.

    Draw order within the rng stream: the CSI block first, then the noise
    blocks in formula reading order (numerator noise then denominator noise
    for SL/CR; denominator noise then additive noise for PC/RC).
    """
    k = method.subcarriers(params)
    csi = sample_csi_block(trial, phase, rng, n_samples)

    def noise() -> np.ndarray:
        return rng.normal(0.0, params.sigma_n, size=(n_samples, k))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if method is Method.RAW:
            return params.f_ra * csi * fp.tu * params.x + noise()
        csi_law = trial.params.for_phase(trial.scenario, phase)
        law = phase_law(ratio_law, method, params, csi_law, phase)
        signal = law.amplitude * csi * (fp.tu_s if law.short_preamble else fp.tu)
        if law.noise_in_numerator:
            return (signal + noise()) / (law.ratio.rho * csi + noise())
        return signal / (law.ratio.rho * csi + noise()) + noise()
