"""The Monte-Carlo ratio oracle written as plain array expressions.

`rff_lab.gaussian_moments.mc_ratio_detail` draws into a caller's scratch
rows with ``out=`` arguments and reduces by numpy's own steps.  This is the
definitional form it is checked against: each variable comes from
``rng.normal`` in the documented draw order, each ratio is one expression,
and the moments and standard errors are ``mean`` and ``std(ddof=1)`` of the
finite draws.  The library must give the same result field for field.
"""

from __future__ import annotations

import math

import numpy as np

from rff_lab.gaussian_moments import (
    MAX_NONFINITE_FRACTION,
    GaussianMoments,
    GaussianSpec,
    McRatioResult,
    RatioForm,
    RatioParams,
)


def draw_ratio(
    form: RatioForm, g: GaussianSpec, p: RatioParams, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """One vector of i.i.d. realizations of the selected ratio form.

    Draw order: signal variables first, then noises, numerator before
    denominator.
    """
    mu, sg, sw, rho = g.mean, g.std, p.noise_std, p.rho
    if form is RatioForm.DIRECT_RATIO:
        gg = rng.normal(mu, sg, n_draws)
        w = rng.normal(0.0, sw, n_draws)
        return gg / (rho * gg + w)
    if form is RatioForm.PAIRED_PRODUCT:
        gg = rng.normal(mu, sg, n_draws)
        w1 = rng.normal(0.0, sw, n_draws)
        w2 = rng.normal(0.0, sw, n_draws)
        return gg**2 / ((rho * gg + w1) * (rho * gg + w2))
    if form is RatioForm.CROSS_DIFFERENCE:
        g1 = rng.normal(mu, sg, n_draws)
        g2 = rng.normal(mu, sg, n_draws)
        w1 = rng.normal(0.0, sw, n_draws)
        w2 = rng.normal(0.0, sw, n_draws)
        return (g1 * w2 - g2 * w1) / ((rho * g1 + w1) * (rho * g2 + w2))
    if form is RatioForm.RECIPROCAL:
        gg = rng.normal(mu, sg, n_draws)
        w = rng.normal(0.0, sw, n_draws)
        return 1.0 / (rho * gg + w)
    raise ValueError(f"unknown ratio form: {form!r}")


def mc_ratio_detail(
    form: RatioForm, g: GaussianSpec, p: RatioParams, n_draws: int, seed: int
) -> McRatioResult:
    """The oracle's result from fresh arrays, ``mean`` and ``std(ddof=1)``."""
    rng = np.random.default_rng(seed)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = draw_ratio(form, g, p, n_draws, rng)
    finite = np.isfinite(z)
    n_eff = int(finite.sum())
    nonfinite_fraction = 1.0 - n_eff / n_draws
    if nonfinite_fraction > MAX_NONFINITE_FRACTION:
        raise ValueError(f"{nonfinite_fraction:.2%} of draws were non-finite")
    z = z[finite]
    z2 = z**2
    return McRatioResult(
        moments=GaussianMoments(mean=float(z.mean()), second_moment=float(z2.mean())),
        se_mean=float(z.std(ddof=1) / math.sqrt(n_eff)),
        se_second_moment=float(z2.std(ddof=1) / math.sqrt(n_eff)),
        n_effective=n_eff,
        nonfinite_fraction=nonfinite_fraction,
    )
