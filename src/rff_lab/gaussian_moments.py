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
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not (self.variance >= 0.0):
            raise ValueError(f"variance must be >= 0, got {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class RatioParams:
    """Denominator slope ``rho`` and the zero-mean noise variance ``sigma_w^2``."""

    rho: float
    noise_variance: float

    def __post_init__(self) -> None:
        if self.rho == 0.0 or not math.isfinite(self.rho):
            raise ValueError(f"rho must be finite and nonzero, got {self.rho}")
        if not (self.noise_variance >= 0.0):
            raise ValueError(
                f"noise_variance must be >= 0, got {self.noise_variance}"
            )

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


#: The variables each form draws into whole scratch rows, in draw order: a
#: signal variable ("g") or a noise one ("w").  The last variable (W or W2)
#: is not listed: it is drawn a chunk at a time.
_ROW_DRAWS = {
    RatioForm.DIRECT_RATIO: "g",  # G
    RatioForm.PAIRED_PRODUCT: "gw",  # G, W1
    RatioForm.CROSS_DIFFERENCE: "ggw",  # G1, G2, W1
    RatioForm.RECIPROCAL: "g",  # G
}
#: Rows of `mc_ratio_detail`'s scratch per form: one per whole-row draw, and
#: at least 2, since the ratios overwrite row 0 and the statistics need a
#: free row after them.
_MC_ROWS = {form: max(2, len(draws)) for form, draws in _ROW_DRAWS.items()}
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


def _normal_into(
    row: np.ndarray, loc: float, scale: float, rng: np.random.Generator
) -> None:
    """Fill ``row`` with the bits of ``rng.normal(loc, scale, row.size)``.

    numpy draws ``loc + scale * standard_normal``; scaling in place is the
    same two roundings, and ``+= 0.0`` turns a zero scale's ``-0.0`` into the
    ``+0.0`` that ``normal(0.0, 0.0)`` gives.
    """
    rng.standard_normal(out=row)
    row *= scale
    row += loc


def _ratio_into(
    form: RatioForm, g: GaussianSpec, p: RatioParams, rows: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Fill ``rows[0]`` with i.i.d. realizations of the selected ratio form.

    Draw order is fixed (signal variables first, then noises, numerator
    before denominator) so results are reproducible for a given seed.  Each
    variable before the last fills a whole row (`_ROW_DRAWS`, which each
    formula unpacks); the last is drawn `_MC_CHUNK` entries at a time, and
    each chunk's ratios are computed at once and written over row 0.
    ``standard_normal`` gives the same stream however a draw is split into
    calls.  Each formula is evaluated in its written operation order, one
    rounding per operation, so the values are those of the plain array
    expression.
    """
    sw, rho = p.noise_std, p.rho
    if form is RatioForm.DIRECT_RATIO:  # G / (rho*G + W)
        def ratio(v: np.ndarray, w: np.ndarray, t: np.ndarray) -> None:
            (gv,) = v
            np.multiply(gv, rho, out=t)
            t += w
            np.divide(gv, t, out=gv)

    elif form is RatioForm.PAIRED_PRODUCT:  # G^2 / ((rho*G + W1)(rho*G + W2))
        def ratio(v: np.ndarray, w2: np.ndarray, t: np.ndarray) -> None:
            gg, w1 = v
            np.multiply(gg, rho, out=t)
            w1 += t
            w2 += t
            w1 *= w2
            np.square(gg, out=t)
            np.divide(t, w1, out=gg)

    elif form is RatioForm.CROSS_DIFFERENCE:  # (G1*W2 - G2*W1) / ((rho*G1 + W1)(rho*G2 + W2))
        def ratio(v: np.ndarray, w2: np.ndarray, t: np.ndarray) -> None:
            g1, g2, w1 = v
            np.multiply(g1, w2, out=t)
            g1 *= rho
            g1 += w1  # rho*G1 + W1
            w1 *= g2  # G2*W1
            t -= w1
            np.multiply(g2, rho, out=w1)
            w1 += w2  # rho*G2 + W2
            g1 *= w1
            np.divide(t, g1, out=g1)

    elif form is RatioForm.RECIPROCAL:  # 1 / (rho*G + W)
        def ratio(v: np.ndarray, w: np.ndarray, t: np.ndarray) -> None:
            (gv,) = v
            np.multiply(gv, rho, out=t)
            t += w
            np.divide(1.0, t, out=gv)

    else:
        raise ValueError(f"unknown ratio form: {form!r}")
    draws = _ROW_DRAWS[form]
    laws = {"g": (g.mean, g.std), "w": (0.0, sw)}
    for row, kind in zip(rows, draws):
        _normal_into(row, *laws[kind], rng)
    n_draws = rows.shape[1]
    last, temp = np.empty((2, _MC_CHUNK))
    for start in range(0, n_draws, _MC_CHUNK):
        chunk = slice(start, min(start + _MC_CHUNK, n_draws))
        size = chunk.stop - start
        _normal_into(last[:size], 0.0, sw, rng)
        ratio(rows[: len(draws), chunk], last[:size], temp[:size])
    return rows[0]


def _mean_and_se(x: np.ndarray) -> tuple[float, float]:
    """``x.mean()`` and ``x.std(ddof=1) / sqrt(n)`` by numpy's own steps.

    ``x`` is overwritten with its squared deviations.
    """
    n = x.size
    mean = np.add.reduce(x) / n
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
    largest one; the last variable and the ratio's intermediates take two
    rows of 8192 entries for the call.  The thread keeps that buffer until it
    exits: 24 MB after a cross-difference call of 10^6 draws.  The result
    does not depend on it.
    """
    if n_draws < 10**4:
        raise ValueError(f"n_draws must be >= 1e4, got {n_draws}")
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
