"""Closed-form (second-order) expected silhouette distances and scores.

Each extracted feature decomposes per subcarrier as ``r = a * t * phi + w``
where ``t`` is the device fingerprint variate, ``phi`` is the channel/noise
factor of the method's law, ``a`` is a deterministic amplitude, and ``w`` is
additive noise (absent for the pure-ratio methods).  After per-sample
z-normalization, a normalized training sample and a normalized test sample
are approximately standardized, so their expected squared distance over K
subcarriers is

    D = K * (2 - 2 * (E[r_tr * r_te] - mu_tr * mu_te) / (sigma_tr * sigma_te))

with per-phase feature moments ``(mu, sigma^2)`` from
`analytic_feature_moments`.  Only the cross moment ``E[r_tr * r_te]``
distinguishes the cases:

* intra (same device) shares the fingerprint: ``E[t^2] = mu_t^2 + sigma_t^2``;
  inter (different devices) factorizes: ``E[t] E[t'] = mu_t^2``;
* the deterministic scenario shares one channel realization between the
  phases, giving a shared-channel factor ``E[g(H)^2]`` with
  ``g(H) = E_noise[phi]``; both stochastic scenarios draw independent
  channels, giving ``E[phi_tr] * E[phi_te]``.

Both ingredients of ``phi`` come from one place: RAW's ``phi`` is the CSI
itself, and every ratio method's is the `gaussian_moments` direct ratio
``H/(rho*H + N)`` of its `signal_model.RatioLaw`, so ``E[phi]`` is
`direct_ratio_moments` and ``E[g(H)^2]`` is `paired_product_mean` — the same
functions `validate-claims` checks against Monte Carlo.  The law also
supplies the amplitude ``a`` and the fingerprint moments.

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

from dataclasses import dataclass

from .channel import ChannelScenario, Phase, ScenarioMoments
from .gaussian_moments import GaussianSpec, RatioParams, direct_ratio_moments, paired_product_mean
from .signal_model import (
    FeatureMoments,
    Method,
    ModelParams,
    analytic_feature_moments,
    ratio_law,
)

__all__ = [
    "expected_intra",
    "expected_inter",
    "expected_silhouette",
]


@dataclass(frozen=True)
class _PhaseTerms:
    """Per-phase ingredients of the cross-moment expressions."""

    amplitude: float  # a: deterministic feature amplitude
    fingerprint: tuple[float, float]  # (mu_t, sigma_t^2) of the fingerprint
    phi_mean: float  # E[phi]: mean of the channel/noise factor
    phi_shared: float  # E[g(H)^2] if this phase's channel served both phases
    moments: FeatureMoments  # (mu, sigma^2) of the full feature


def _phase_terms(
    method: Method, params: ModelParams, channel_moments: tuple[float, float]
) -> _PhaseTerms:
    mu_c, sig_c2 = channel_moments
    moments = analytic_feature_moments(method, params, channel_moments)
    if method is Method.RAW:
        fingerprint = (params.mu_u, params.sigma_u**2)
        amplitude = params.f_ra * params.x
        return _PhaseTerms(amplitude, fingerprint, mu_c, mu_c**2 + sig_c2, moments)
    law = ratio_law(method, params, channel_moments)
    g = GaussianSpec(mean=mu_c, variance=sig_c2)
    p = RatioParams(rho=law.rho, noise_variance=params.sigma_n**2)
    return _PhaseTerms(
        law.amplitude,
        law.fingerprint,
        direct_ratio_moments(g, p).mean,
        paired_product_mean(g, p),
        moments,
    )


def _setup(
    method: Method, scenario: ChannelScenario, params: ModelParams
) -> tuple[_PhaseTerms, _PhaseTerms, float]:
    """Per-phase terms plus the scenario's cross factor Phi."""
    moments = ScenarioMoments.resolve(params.channel, scenario)
    mu_tr, sig_tr = moments.for_phase(Phase.TRAIN)
    mu_te, sig_te = moments.for_phase(Phase.TEST)
    train = _phase_terms(method, params, (mu_tr, sig_tr**2))
    test = _phase_terms(method, params, (mu_te, sig_te**2))
    if scenario is ChannelScenario.DETERMINISTIC:
        phi_cross = train.phi_shared
    else:
        phi_cross = train.phi_mean * test.phi_mean
    return train, test, phi_cross


def _std_product(train: _PhaseTerms, test: _PhaseTerms) -> float:
    # The truncated ratio expansion can go negative (noise above the ratio
    # denominator); there is then no standard deviation to normalize by.
    for phase, terms in (("train", train), ("test", test)):
        if not terms.moments.variance > 0.0:
            raise ValueError(
                f"{phase} feature variance {terms.moments.variance:.6g} is not "
                "positive; normalized distances undefined at these parameters"
            )
    return (train.moments.variance * test.moments.variance) ** 0.5


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
    centered = cross - train.moments.mean * test.moments.mean
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

