"""Closed-form (second-order) expected silhouette distances and scores.

Each extracted feature decomposes per subcarrier as ``r = a * t * phi + w``
where ``t`` is the device fingerprint variate, ``phi`` is the channel/noise
factor of the method's law, ``a`` is a deterministic amplitude, and ``w`` is
additive noise (absent for the pure-ratio methods).  After per-sample
z-normalization, a normalized training sample and a normalized test sample
are approximately standardized, so their expected squared distance over K
subcarriers is

    D = K * (2 - 2 * (E[r_tr * r_te] - mu_tr * mu_te) / (sigma_tr * sigma_te))

with per-phase feature moments ``(mu, sigma^2)``.  Only the cross moment
``E[r_tr * r_te]`` distinguishes the cases:

* intra (same device) shares the fingerprint: ``E[t^2] = mu_t^2 + sigma_t^2``;
  inter (different devices) factorizes: ``E[t] E[t'] = mu_t^2``;
* the deterministic scenario shares one channel realization between the
  phases, giving a shared-channel factor ``E[g(H)^2]`` with
  ``g(H) = E_noise[phi]``; both stochastic scenarios draw independent
  channels, giving ``E[phi_tr] * E[phi_te]``.

`feature_law` states all of a (method, phase) in one `FeatureLaw`: the
amplitude ``a``, the fingerprint moments, ``E[phi]``, ``E[g(H)^2]`` and the
feature's variance; its mean is ``a mu_t E[phi]``.  RAW's ``phi`` is the CSI,
and its exact law is typed out.  A ratio method's ``phi`` is the direct ratio
``H/(rho*H + N)`` of its `RatioLaw`, and its moments are the
`gaussian_moments` forms that `validate-claims` checks.  The variance is
``a^2 (mu_t^2 Var[phi] + sigma_t^2 E[phi^2]) + sigma_n^2 G``, where the gain
``G`` of noise in the numerator is ``E[1/(rho*H + N)^2]`` and otherwise 1.
Only ``Var[phi]`` is typed, since ``E[phi^2] - E[phi]^2`` cancels.

The expected silhouette score is the matching closed ratio

    S = a_tr a_te sigma_t^2 Phi / (sigma_tr sigma_te
        - a_tr a_te mu_t^2 (Phi - E[phi_tr] E[phi_te]))

where ``Phi`` is the scenario's shared factor (``E[g^2]`` deterministic,
``E[phi_tr] E[phi_te]`` stochastic); it equals ``(inter - intra)/inter`` of
the distances above.  All expressions are exact for RAW and second-order
approximations for the four ratio methods; they degrade when the noise is
not small against the ratio denominators.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .channel import ChannelScenario, Phase
from .gaussian_moments import GaussianSpec, RatioParams
from .gaussian_moments import direct_ratio_moments, paired_product_mean, reciprocal_moments
from .signal_model import Method, ModelParams, phase_law, ratio_law

__all__ = [
    "FeatureLaw",
    "feature_law",
    "expected_intra",
    "expected_inter",
    "expected_silhouette",
]


@dataclass(frozen=True)
class FeatureLaw:
    """Closed-form law of one method's feature in one phase: ``r = a t phi + w``."""

    amplitude: float  # a: deterministic feature amplitude
    fingerprint: tuple[float, float]  # (mu_t, sigma_t^2) of the fingerprint
    phi_mean: float  # E[phi]: mean of the channel/noise factor
    phi_shared: float  # E[g(H)^2] if this phase's channel served both phases
    variance: float  # per-subcarrier variance of the feature

    @property
    def mean(self) -> float:  # per-subcarrier mean of the feature
        return self.amplitude * self.fingerprint[0] * self.phi_mean


def _phi_variance(rho: float, mu_h: float, sn2: float) -> float:
    """Var[phi] of ``phi = H/(rho*H + N)``, typed: E[phi^2] - E[phi]^2 cancels."""
    return sn2 * (rho**2 * mu_h**2 - sn2) / (rho**6 * mu_h**4)


def feature_law(
    method: Method, params: ModelParams, channel_moments: tuple[float, float]
) -> FeatureLaw:
    """The law of one method's feature under CSI moments ``(mu_hc, sigma_hc_sq)``."""
    mu_h, sig_h2 = channel_moments
    sn2 = params.sigma_n**2
    if method is Method.RAW:
        f, x = params.f_ra, params.x
        mu_u, su2 = params.mu_u, params.sigma_u**2
        # exact, and typed: a^2 (mu_u^2 Var H + sigma_u^2 E[H^2]) moves the last ulp
        variance = f**2 * x**2 * (mu_u**2 * sig_h2 + su2 * mu_h**2 + su2 * sig_h2) + sn2
        return FeatureLaw(f * x, (mu_u, su2), mu_h, mu_h**2 + sig_h2, variance)
    law = ratio_law(method, params, channel_moments)
    a, r = law.amplitude, law.rho
    mu_t, st2 = law.fingerprint
    g = GaussianSpec(mean=mu_h, variance=sig_h2)
    p = RatioParams(rho=r, noise_variance=sn2)
    phi = direct_ratio_moments(g, p)
    noise_gain = reciprocal_moments(g, p).second_moment if law.noise_in_numerator else 1.0
    var_phi = _phi_variance(r, mu_h, sn2)
    variance = a**2 * (mu_t**2 * var_phi + st2 * phi.second_moment) + sn2 * noise_gain
    return FeatureLaw(a, law.fingerprint, phi.mean, paired_product_mean(g, p), variance)


def _setup(
    method: Method, scenario: ChannelScenario, params: ModelParams
) -> tuple[FeatureLaw, FeatureLaw, float]:
    """Per-phase laws plus the scenario's cross factor Phi."""
    channel = params.channel
    train, test = (
        phase_law(feature_law, method, params, channel.for_phase(scenario, phase), phase)
        for phase in (Phase.TRAIN, Phase.TEST)
    )
    if scenario is ChannelScenario.DETERMINISTIC:
        phi_cross = train.phi_shared
    else:
        phi_cross = train.phi_mean * test.phi_mean
    return train, test, phi_cross


def _std_product(train: FeatureLaw, test: FeatureLaw) -> float:
    # The truncated ratio expansion can go negative (noise above the ratio
    # denominator); there is then no standard deviation to normalize by.
    for phase, law in (("train", train), ("test", test)):
        if not law.variance > 0.0:
            raise ValueError(
                f"{phase} feature variance {law.variance:.6g} is not "
                "positive; normalized distances undefined at these parameters"
            )
    product = train.variance * test.variance
    if not sys.float_info.min <= product < math.inf:
        # The product of two positive floats underflowed or overflowed; the
        # factored form stays in range, but would move the pinned bytes if
        # it were used everywhere.
        return math.sqrt(train.variance) * math.sqrt(test.variance)
    return product**0.5


def _expected_distance(
    method: Method,
    scenario: ChannelScenario,
    params: ModelParams,
    same_device: bool,
) -> float:
    train, test, phi_cross = _setup(method, scenario, params)
    mu_t, sig_t2 = train.fingerprint
    # E[t t']: mu_t^2 + sigma_t^2 for one device, mu_t^2 across two devices
    fingerprint_sq = mu_t**2 + sig_t2 if same_device else mu_t**2
    cross = train.amplitude * test.amplitude * fingerprint_sq * phi_cross
    centered = cross - train.mean * test.mean
    k = method.subcarriers(params)
    return k * (2.0 - 2.0 * centered / _std_product(train, test))


def expected_intra(
    method: Method, scenario: ChannelScenario, params: ModelParams
) -> float:
    """Expected mean squared normalized distance to the same device's test set."""
    return _expected_distance(method, scenario, params, same_device=True)


def expected_inter(
    method: Method, scenario: ChannelScenario, params: ModelParams
) -> float:
    """Expected mean squared normalized distance to another device's test set."""
    return _expected_distance(method, scenario, params, same_device=False)


def expected_silhouette(
    method: Method, scenario: ChannelScenario, params: ModelParams
) -> float:
    """Closed-form expected silhouette score, ``(inter - intra) / inter``."""
    train, test, phi_cross = _setup(method, scenario, params)
    mu_t, sig_t2 = train.fingerprint
    gain = train.amplitude * test.amplitude
    numerator = gain * sig_t2 * phi_cross
    denominator = _std_product(train, test) - gain * mu_t**2 * (
        phi_cross - train.phi_mean * test.phi_mean
    )
    if denominator <= 0.0:
        raise ValueError(
            "expected inter distance is not positive; score undefined at these "
            "parameters"
        )
    return numerator / denominator

