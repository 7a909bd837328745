"""Feature extraction for the five fingerprinting methods.

A device is characterized by two per-subcarrier fingerprint vectors, drawn
once per trial and fixed across that device's samples:

* ``tu`` — the transmit-chain fingerprint used by the RAW, CR, PC, and RC
  methods, i.i.d. ``N(mu_u, sigma_u^2)`` across the ``r_l`` data subcarriers;
* ``tu_s`` — the short-preamble fingerprint used by the SL method, i.i.d.
  ``N(mu_s, sigma_s^2)`` across the ``r_s`` short-preamble subcarriers.

Per extracted sample, every method observes the same CSI vector ``H`` in its
numerator and denominator (one propagation per sample) and fresh zero-mean
Gaussian noises of variance ``sigma_n^2``, one independent draw per noise
symbol per subcarrier.  With ``gamma = f_ra*f_tu_l*x`` and
``beta = f_ru*f_ta*x``, the per-subcarrier feature laws are::

    RAW   r = f_ra*H*tu*x + N
    SL    r = (f_ra*H*tu_s*x + N_s) / (f_ra*H*f_tu_l*x + N_l)
    CR    r = (f_ra*H*tu*x   + N_a) / (f_ru*H*f_ta*x   + N_u)
    PC    r = f_ra*H*tu*x^2        / (f_ru*H*f_ta*x   + N_u) + N_a
    RC    r = alpha*f_ra*H*tu      / (f_ru*H*f_ta*x   + N_u) + N_a

where ``alpha`` scales the reciprocal payload so its transmit power reaches
the amplifier budget ``eta``: ``alpha = sqrt(eta / P)`` with ``P`` the second
moment of ``1/(beta*H + N_u)`` under the phase's CSI distribution (see
`ratio_law`).  Division by a noisy denominator can produce non-finite values
at very low SNR; extraction reports them unmasked and the experiment harness
counts and excludes those samples.

The four ratio laws differ only in a few constants, and `ratio_law` states
them once per method as a `RatioLaw`: the ratio's `RatioParams` (the scale
``rho``, ``gamma`` for SL and ``beta`` otherwise, and ``sigma_n^2``), the
observed fingerprint ``t`` and its moments (``tu_s`` for SL, ``tu``
otherwise), the amplitude ``a`` (``f_ra*x``, ``f_ra*x^2`` or
``alpha*f_ra``), and whether the noise enters the numerator (SL, CR) or is
added after the ratio (PC, RC)::

    numerator noise   r = (a*H*t + N) / (rho*H + N)
    additive noise    r =  a*H*t / (rho*H + N) + N

That record is the single description of each ratio method: `extract_batch`
draws from it and `analytic.feature_law` derives closed-form moments from it
(see `gaussian_moments`); both take a phase's law through `phase_law`.

The noise level is configured through a conventional SNR mapping:
``sigma_n^2 = s^2 * 10^(-snr_db/10)`` where ``s = f_ra*mu_u*mu_h*x`` is the
nominal received amplitude of the RAW baseline (equal to 1 under the default
parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .channel import ChannelScenario, Phase, TrialChannel, _as_normal, require_finite
from .channel import sample_csi_block
from .config import Method, ModelParams
from .gaussian_moments import GaussianSpec, RatioParams, reciprocal_moments

__all__ = [
    "ModelParams",
    "Method",
    "Fingerprints",
    "RatioLaw",
    "draw_fingerprint",
    "extract_batch",
    "ratio_law",
    "phase_law",
]


@dataclass(frozen=True)
class Fingerprints:
    """Every device's per-subcarrier fingerprints, one row each, fixed for a trial."""

    tu: np.ndarray  # (D, r_l)
    tu_s: np.ndarray  # (D, r_s)

    def __post_init__(self) -> None:
        self.tu.flags.writeable = False
        self.tu_s.flags.writeable = False


def draw_fingerprint(params: ModelParams, rngs: list[np.random.Generator]) -> Fingerprints:
    """Draw device ``d``'s fingerprints from ``rngs[d]`` (``tu`` first, then ``tu_s``)."""
    z = np.empty((len(rngs), params.r_l + params.r_s))
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    tu, tu_s = z[:, : params.r_l], z[:, params.r_l :]
    return Fingerprints(
        _as_normal(tu, params.mu_u, params.sigma_u), _as_normal(tu_s, params.mu_s, params.sigma_s)
    )


@dataclass(frozen=True)
class RatioLaw:
    """The constants that set one ratio method apart from the others."""

    ratio: RatioParams  # (rho, sigma_n^2) of H/(rho*H + N); rho is gamma for SL, else beta
    fingerprint: tuple[float, float]  # (mu_t, sigma_t^2) of the observed fingerprint
    amplitude: float  # a in a*H*t
    noise_in_numerator: bool  # (a*H*t + N)/(rho*H + N), else a*H*t/(rho*H + N) + N
    short_preamble: bool = False  # observes tu_s on the r_s short-preamble subcarriers


def ratio_law(method: Method, params: ModelParams, csi: GaussianSpec) -> RatioLaw:
    """The law of a ratio method under a phase's CSI law ``csi``.

    ``csi`` only matters for RC, whose gain ``alpha = sqrt(eta / P)`` reads
    ``P``, the second moment of ``1/(beta*H + N)``: the
    `gaussian_moments.reciprocal_moments` that `validate-claims` checks::

        P = (beta^2 mu^2 + 3 beta^2 sigma^2 + 3 sigma_n^2) / (beta^4 mu^4)
    """
    if method is Method.RAW:
        raise ValueError(f"{method.value!r} is not a ratio method")
    x, f_ra = params.x, params.f_ra
    rho = params.gamma() if method is Method.SL else params.beta()
    ratio = RatioParams(rho=rho, noise_variance=params.sigma_n**2)
    long = (params.mu_u, params.sigma_u**2)
    if method is Method.SL:
        short = (params.mu_s, params.sigma_s**2)
        return RatioLaw(ratio, short, f_ra * x, noise_in_numerator=True, short_preamble=True)
    if method is Method.CR:
        return RatioLaw(ratio, long, f_ra * x, noise_in_numerator=True)
    if method is Method.PC:
        return RatioLaw(ratio, long, f_ra * x**2, noise_in_numerator=False)
    alpha = math.sqrt(params.eta / reciprocal_moments(csi, ratio).second_moment)
    return RatioLaw(ratio, long, alpha * f_ra, noise_in_numerator=False)


def phase_law(
    build, method: Method, params: ModelParams, csi: tuple[float, float], phase: Phase
):
    """``build(method, params, GaussianSpec(mu, sigma^2))``, the phase's CSI ``(mu, sigma)``.

    ``build`` is `ratio_law` or `analytic.feature_law`; the one `GaussianSpec`
    built here is the phase's CSI law for both.  A float overflow, a zero
    division, a ValueError of the build (such as a form singular at
    ``mu == 0``, or a noise variance past the floats) or a non-finite field is
    a ValueError naming the method and the phase.
    """
    mu, sigma = csi
    try:
        law = build(method, params, GaussianSpec(mu, sigma**2))
        require_finite(law)
        return law
    except (OverflowError, ZeroDivisionError, ValueError):
        raise ValueError(
            f"{method.value} closed form is not finite in the {phase.value} phase"
        ) from None


def extract_batch(
    method: Method,
    params: ModelParams,
    fp: Fingerprints,
    trial: TrialChannel,
    phase: Phase,
    n_samples: int,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """(D, n_samples, K) raw features of one phase; may contain non-finite entries.

    The draws fill ``blocks``, a C-contiguous float64 ``(3, D, n_samples, K)``
    array allocated here and laid out slab-major: slab 0 the CSI, slabs 1 and
    2 the noises (RAW draws one noise and leaves slab 2 alone), each slab one
    contiguous ``(D, n_samples, K)`` tensor.  Device ``d`` draws its standard
    normals from ``rngs[d]``, one call per drawn slab into ``blocks[s, d]``:
    the CSI first (none in the deterministic scenario), then the noises in
    formula reading order (numerator then denominator noise for SL/CR;
    denominator then additive noise for PC/RC).  The arithmetic then runs
    once over the phase, in place, on whole slabs, and the features
    overwrite slab 0: the result is ``blocks[0]``, C-contiguous.  ``trial``
    is a trial of ``params.channel``, whose law a ratio method reads.

    The draws (`_fill`) and the arithmetic (`_block_features`) are two halves
    that a trial runs apart, on blocks it keeps in its thread's scratch (see
    `rff_lab.experiments`).
    """
    k = method.subcarriers(params)
    if trial.n_subcarriers != k:
        raise ValueError(f"{method.value} needs {k} subcarriers, trial has {trial.n_subcarriers}")
    law = _extraction_law(method, params, trial.scenario, phase)
    blocks = np.empty((3, len(rngs), n_samples, k))
    _fill(method, trial, [rngs], [blocks], ((0, d) for d in range(len(rngs))))
    return _block_features(law, params, fp, trial, phase, blocks)


def _extraction_law(
    method: Method, params: ModelParams, scenario: ChannelScenario, phase: Phase
) -> RatioLaw | None:
    """The law `_block_features` reads in one phase: None for RAW, else the
    method's `ratio_law` at the phase's CSI law of ``params.channel``."""
    if method is Method.RAW:
        return None
    return phase_law(ratio_law, method, params, params.channel.for_phase(scenario, phase), phase)


def _fill(
    method: Method,
    trial: TrialChannel,
    streams: Sequence[Sequence[np.random.Generator]],
    blocks: Sequence[np.ndarray],
    pending: Iterable[tuple[int, int]],
) -> None:
    """The draw half of `extract_batch`: fill each ``(phase, device)`` index that
    ``pending`` yields.  Device ``d`` of phase ``p`` fills its slabs
    ``blocks[p][s, d]`` from ``streams[p][d]`` in stream order: the CSI (none
    in the deterministic scenario), then the noises (one for RAW).

    The streams are independent, so the devices may come in any order.  Two
    threads may drain one iterator: each device is taken whole, so each stream
    still fills its slabs in order.
    """
    drawn = range(0 if trial.fixed_csi is None else 1, 2 if method is Method.RAW else 3)
    for p, d in pending:
        rng, phase_blocks = streams[p][d], blocks[p]
        for s in drawn:
            rng.standard_normal(out=phase_blocks[s, d])


def _block_features(
    law: RatioLaw | None,
    params: ModelParams,
    fp: Fingerprints,
    trial: TrialChannel,
    phase: Phase,
    blocks: np.ndarray,
) -> np.ndarray:
    """The arithmetic half of `extract_batch`: the features of filled blocks, in
    slab 0, under the phase's `_extraction_law` ``law`` (None for RAW)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        csi = sample_csi_block(trial, phase, blocks[0])
        noise = blocks[1:2] if law is None else blocks[1:]
        _as_normal(noise, 0.0, params.sigma_n)
        if law is None:  # RAW: f_ra*H*tu*x, in place of H
            csi *= params.f_ra
            csi *= fp.tu[:, None]
            csi *= params.x
            return np.add(csi, noise[0], out=csi)
        denominator = noise[int(law.noise_in_numerator)]
        denominator += law.ratio.rho * csi
        csi *= law.amplitude  # the signal a*H*t, in place of H
        csi *= (fp.tu_s if law.short_preamble else fp.tu)[:, None]
        if law.noise_in_numerator:
            np.add(csi, noise[0], out=csi)
            return np.divide(csi, denominator, out=csi)
        np.divide(csi, denominator, out=csi)
        return np.add(csi, noise[1], out=csi)
