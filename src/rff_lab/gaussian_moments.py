"""Second-order Taylor (delta-method) moments of four Gaussian ratio forms.

Throughout, ``G ~ N(mu_g, sigma_g^2)`` is a Gaussian signal variable and the
noise variables ``W, W1, W2 ~ N(0, sigma_w^2)`` are i.i.d. and independent of
``G``.  The four ratio forms and their second-order moment approximations
(Taylor expansion of the ratio around the noise-free point, then expectation)
are:

``DIRECT_RATIO``      ``Z = G / (rho*G + W)``::

    E[Z]   = (rho^2 mu_g^2 +   sigma_w^2) / (rho^3 mu_g^2)
    E[Z^2] = (rho^2 mu_g^2 + 3 sigma_w^2) / (rho^4 mu_g^2)

``PAIRED_PRODUCT``    ``Z = G^2 / ((rho*G + W1)(rho*G + W2))``::

    E[Z]   = (rho^2 mu_g^2 + 2 sigma_w^2) / (rho^4 mu_g^2)

``CROSS_DIFFERENCE``  ``Z = (G1*W2 - G2*W1) / ((rho*G1 + W1)(rho*G2 + W2))``
with ``G1, G2`` i.i.d. copies of ``G``::

    E[Z]   = 0
    E[Z^2] = 2 sigma_w^2 / (rho^4 mu_g^2)

``RECIPROCAL``        ``Z = 1 / (rho*G + W)``::

    E[Z]   = (rho^2 mu_g^2 + rho^2 sigma_g^2 +   sigma_w^2) / (rho^3 mu_g^3)
    E[Z^2] = (rho^2 mu_g^2 + 3 rho^2 sigma_g^2 + 3 sigma_w^2) / (rho^4 mu_g^4)

Only the reciprocal form retains ``sigma_g^2`` terms; the other three drop
them by construction (their expansions treat the signal at its mean), which
limits accuracy when ``sigma_g/mu_g`` is not small.  All four are implemented
as stated, the reciprocal second moment verbatim (the sweep reads it); the
direct and paired forms are factored as ``(1/rho^k)(1 + c q)``, ``q =
sigma_w^2/(rho^2 mu_g^2)``, so their zero-noise limits are exact.  The
expansions are accurate in the high-SNR regime ``sigma_w / (|rho| mu_g) <=
0.1``; `mc_ratio_detail` provides a brute-force Monte-Carlo estimate to
quantify the approximation error, and `in_regime` exposes the regime gate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._scratch import scratch
from .channel import _as_normal, require_at_least, require_finite

__all__ = [
    "GaussianSpec",
    "RatioParams",
    "GaussianMoments",
    "McRatioResult",
    "RatioForm",
    "direct_ratio_moments",
    "paired_product_mean",
    "cross_difference_moments",
    "reciprocal_moments",
    "mc_ratio_detail",
    "in_regime",
    "MAX_NONFINITE_FRACTION",
]

#: Largest tolerated fraction of non-finite Monte-Carlo draws before the
#: oracle refuses the parameter point as outside the approximation regime.
MAX_NONFINITE_FRACTION = 1e-3


@dataclass(frozen=True)
class GaussianSpec:
    """Mean and variance of the Gaussian signal variable ``G``."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        require_finite(self)
        require_at_least("variance", self.variance, 0)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class RatioParams:
    """Denominator slope ``rho`` and the zero-mean noise variance ``sigma_w^2``."""

    rho: float
    noise_variance: float

    def __post_init__(self) -> None:
        require_finite(self)
        require_at_least("noise_variance", self.noise_variance, 0)
        if self.rho == 0.0:
            raise ValueError(f"rho must be nonzero, got {self.rho}")

    @property
    def noise_std(self) -> float:
        return math.sqrt(self.noise_variance)


@dataclass(frozen=True)
class GaussianMoments:
    """First moment ``E[Z]`` and raw second moment ``E[Z^2]`` of a ratio."""

    mean: float
    second_moment: float


@dataclass(frozen=True)
class McRatioResult:
    """Monte-Carlo moments plus the standard errors needed to judge them."""

    moments: GaussianMoments
    se_mean: float
    se_second_moment: float
    n_effective: int
    nonfinite_fraction: float


class RatioForm(enum.Enum):
    """The four ratio structures whose moments this module approximates."""

    DIRECT_RATIO = "direct_ratio"
    PAIRED_PRODUCT = "paired_product"
    CROSS_DIFFERENCE = "cross_difference"
    RECIPROCAL = "reciprocal"


#: Each form once: the variables it draws into whole scratch rows, in draw
#: order, a signal variable ("g") or a noise one ("w"), and its ratio as a
#: plain expression of ``rho``, those rows and the last variable (W or W2),
#: which is drawn a chunk at a time.  Each operation rounds once, as in the
#: whole-array expression, so chunking leaves the bytes as they are.
_FORMS = {
    RatioForm.DIRECT_RATIO: ("g", lambda rho, g, w: g / (rho * g + w)),
    RatioForm.PAIRED_PRODUCT: (
        "gw", lambda rho, g, w1, w2: g**2 / ((rho * g + w1) * (rho * g + w2))
    ),
    RatioForm.CROSS_DIFFERENCE: (
        "ggw",
        lambda rho, g1, g2, w1, w2: (g1 * w2 - g2 * w1) / ((rho * g1 + w1) * (rho * g2 + w2)),
    ),
    RatioForm.RECIPROCAL: ("g", lambda rho, g, w: 1.0 / (rho * g + w)),
}
#: Rows of `mc_ratio_detail`'s scratch per form: one per whole-row draw, and
#: at least 2, since the ratios overwrite row 0 and the statistics need a
#: free row after them.
_MC_ROWS = {form: max(2, len(draws)) for form, (draws, _) in _FORMS.items()}
#: Entries of the last variable (W or W2) drawn and used per step; its
#: temporaries stay this small whatever the draw count.
_MC_CHUNK = 8192


def _check_domain(g: GaussianSpec, p: RatioParams) -> None:
    if g.mean == 0.0:
        raise ValueError("formula is singular at mu_g == 0")


def in_regime(g: GaussianSpec, p: RatioParams) -> bool:
    """True when ``sigma_w / (|rho| mu_g) <= 0.1``, the high-SNR regime gate."""
    return p.noise_std <= 0.1 * abs(p.rho) * abs(g.mean)


def direct_ratio_moments(g: GaussianSpec, p: RatioParams) -> GaussianMoments:
    """Moments of ``Z = G/(rho*G + W)``.

    Implemented in the factored form ``(1/rho)(1 + q)`` with
    ``q = sigma_w^2/(rho^2 mu_g^2)`` so the zero-noise limit ``1/rho`` is
    exact in floating point.
    """
    _check_domain(g, p)
    q = p.noise_variance / (p.rho**2 * g.mean**2)
    return GaussianMoments(
        mean=(1.0 / p.rho) * (1.0 + q),
        second_moment=(1.0 / p.rho**2) * (1.0 + 3.0 * q),
    )


def paired_product_mean(g: GaussianSpec, p: RatioParams) -> float:
    """First moment of ``Z = G^2 / ((rho*G + W1)(rho*G + W2))``."""
    _check_domain(g, p)
    q = p.noise_variance / (p.rho**2 * g.mean**2)
    return (1.0 / p.rho**2) * (1.0 + 2.0 * q)


def cross_difference_moments(g: GaussianSpec, p: RatioParams) -> GaussianMoments:
    """Moments of ``Z = (G1*W2 - G2*W1)/((rho*G1 + W1)(rho*G2 + W2))``.

    The approximate mean is exactly 0 for every valid input.
    """
    _check_domain(g, p)
    return GaussianMoments(
        mean=0.0,
        second_moment=2.0 * p.noise_variance / (p.rho**4 * g.mean**2),
    )


def reciprocal_moments(g: GaussianSpec, p: RatioParams) -> GaussianMoments:
    """Moments of ``Z = 1/(rho*G + W)``; the only form keeping sigma_g terms."""
    _check_domain(g, p)
    q = (p.rho**2 * g.variance + p.noise_variance) / (p.rho**2 * g.mean**2)
    scale = 1.0 / (p.rho * g.mean)
    second = p.rho**2 * g.mean**2 + 3.0 * p.rho**2 * g.variance + 3.0 * p.noise_variance
    return GaussianMoments(
        mean=scale * (1.0 + q),
        second_moment=second / (p.rho**4 * g.mean**4),
    )


def _ratio_into(
    form: RatioForm, g: GaussianSpec, p: RatioParams, rows: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Fill ``rows[0]`` with i.i.d. realizations of the selected ratio form.

    Draw order is fixed (signal variables first, then noises, numerator
    before denominator) so results are reproducible for a given seed.  Each
    variable before the last fills a whole row (`_FORMS`); the last is drawn
    `_MC_CHUNK` entries at a time, and each chunk's ratios are evaluated as
    the form's expression and written over row 0, so its intermediates are
    temporaries of at most `_MC_CHUNK` entries.  ``standard_normal`` gives the
    same stream however a draw is split into calls.
    """
    draws, ratio = _FORMS[form]
    sw = p.noise_std
    laws = {"g": (g.mean, g.std), "w": (0.0, sw)}
    for row, kind in zip(rows, draws):
        _as_normal(rng.standard_normal(out=row), *laws[kind])
    n_draws = rows.shape[1]
    last = np.empty(_MC_CHUNK)
    for start in range(0, n_draws, _MC_CHUNK):
        chunk = slice(start, min(start + _MC_CHUNK, n_draws))
        w = last[: chunk.stop - start]
        _as_normal(rng.standard_normal(out=w), 0.0, sw)
        rows[0, chunk] = ratio(p.rho, *rows[: len(draws), chunk], w)
    return rows[0]


def _mean_and_se(x: np.ndarray) -> tuple[float, float]:
    """The mean of ``x`` and its standard error, ``x.std(ddof=1) / sqrt(n)``.

    The bits are numpy's ``x.mean()`` and ``x.std(ddof=1)``, by the same
    steps; ``x`` is overwritten with its squared deviations.  One value has a
    NaN standard error (a one-trial sweep cell).
    """
    n = x.size
    mean = np.add.reduce(x) / n
    if n < 2:
        return float(mean), math.nan
    np.subtract(x, mean, out=x)
    np.square(x, out=x)
    std = np.sqrt(np.add.reduce(x) / (n - 1))
    return float(mean), float(std / math.sqrt(n))


def mc_ratio_detail(
    form: RatioForm,
    g: GaussianSpec,
    p: RatioParams,
    n_draws: int,
    seed: int,
) -> McRatioResult:
    """Monte-Carlo moments of a ratio form, with standard errors.

    Non-finite draws (denominator zero-crossings) are excluded from the
    moments and reported via ``nonfinite_fraction``; more than 0.1% of them
    raises, signaling parameters outside the approximation regime.

    Every draw, ratio and deviation of the call lives in this thread's
    scratch buffer (`rff_lab._scratch`), 2 rows of ``n_draws`` for the
    direct, paired and reciprocal forms and 3 for the cross-difference form,
    so a thread making many calls allocates no draw-sized array after its
    largest one; the last variable takes one row of 8192 entries for the
    call, and the ratio's intermediates are temporaries of at most 8192
    entries.  The thread keeps that buffer until it exits: 24 MB after a
    cross-difference call of 10^6 draws.  The result does not depend on it.
    """
    require_at_least("n_draws", n_draws, 10**4)
    rows = scratch(_MC_ROWS[form], n_draws)
    rng = np.random.default_rng(seed)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = _ratio_into(form, g, p, rows, rng)
    finite = np.isfinite(z)
    n_eff = int(np.count_nonzero(finite))
    nonfinite_fraction = 1.0 - n_eff / n_draws
    if nonfinite_fraction > MAX_NONFINITE_FRACTION:
        raise ValueError(
            f"{nonfinite_fraction:.2%} of draws were non-finite "
            f"(> {MAX_NONFINITE_FRACTION:.2%}); parameters are outside the "
            "approximation regime"
        )
    # z sits in row 0; row 1 is free for the statistics
    free = rows[1]
    if n_eff < n_draws:
        z, free = np.compress(finite, z, out=rows[1, :n_eff]), rows[0]
    z2 = np.square(z, out=free[:n_eff])
    mean, se_mean = _mean_and_se(z)
    second, se_second = _mean_and_se(z2)
    return McRatioResult(
        moments=GaussianMoments(mean=mean, second_moment=second),
        se_mean=se_mean,
        se_second_moment=se_second,
        n_effective=n_eff,
        nonfinite_fraction=nonfinite_fraction,
    )
