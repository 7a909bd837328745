"""Closed-form ratio moments against hand values and Monte-Carlo oracles."""

import math
import threading
import tracemalloc

import numpy as np
import oracle_reference as reference
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rff_lab import _scratch
from rff_lab.channel import _as_normal
from rff_lab.gaussian_moments import (
    MAX_NONFINITE_FRACTION,
    GaussianSpec,
    RatioForm,
    RatioParams,
    cross_difference_moments,
    direct_ratio_moments,
    in_regime,
    mc_ratio_detail,
    paired_product_mean,
    reciprocal_moments,
)
from rff_lab.gaussian_moments import _MC_CHUNK, _MC_ROWS

SEED = 42


# ---------------------------------------------------------------------------
# exact values: zero-noise limits and direct substitutions
# ---------------------------------------------------------------------------


def test_direct_ratio_zero_noise_is_reciprocal_rho():
    m = direct_ratio_moments(GaussianSpec(1.0, 0.01), RatioParams(1.0, 0.0))
    assert m.mean == 1.0
    assert m.second_moment == 1.0
    m2 = direct_ratio_moments(GaussianSpec(3.0, 0.2), RatioParams(2.0, 0.0))
    assert m2.mean == pytest.approx(0.5, rel=1e-15)
    assert m2.second_moment == pytest.approx(0.25, rel=1e-15)


def test_direct_ratio_hand_substitution():
    m = direct_ratio_moments(GaussianSpec(1.0, 0.01), RatioParams(1.0, 0.01))
    assert m.mean == pytest.approx(1.01, rel=1e-12)
    assert m.second_moment == pytest.approx(1.03, rel=1e-12)


def test_paired_product_zero_noise_and_hand_value():
    assert paired_product_mean(GaussianSpec(1.0, 0.0), RatioParams(1.0, 0.0)) == 1.0
    assert paired_product_mean(
        GaussianSpec(1.0, 0.01), RatioParams(1.0, 0.01)
    ) == pytest.approx(1.02, rel=1e-12)


def test_cross_difference_mean_is_exactly_zero_and_hand_value():
    m = cross_difference_moments(GaussianSpec(1.0, 0.01), RatioParams(1.0, 0.01))
    assert m.mean == 0.0
    assert m.second_moment == pytest.approx(0.02, rel=1e-12)


def test_reciprocal_zero_spread_limits():
    m = reciprocal_moments(GaussianSpec(1.0, 0.0), RatioParams(2.0, 0.0))
    assert m.mean == pytest.approx(0.5, rel=1e-15)
    assert m.second_moment == pytest.approx(0.25, rel=1e-15)


def test_reciprocal_hand_substitution():
    m = reciprocal_moments(GaussianSpec(1.0, 0.0225), RatioParams(1.0, 0.01))
    assert m.mean == pytest.approx(1.0325, rel=1e-12)
    assert m.second_moment == pytest.approx(1.0975, rel=1e-12)


def test_zero_mean_signal_is_domain_error():
    g0 = GaussianSpec(0.0, 1.0)
    p = RatioParams(1.0, 0.01)
    for fn in (direct_ratio_moments, paired_product_mean,
               cross_difference_moments, reciprocal_moments):
        with pytest.raises(ValueError):
            fn(g0, p)


def test_parameter_validation():
    with pytest.raises(ValueError):
        GaussianSpec(1.0, -0.1)
    with pytest.raises(ValueError):
        GaussianSpec(math.nan, 0.1)
    with pytest.raises(ValueError):
        RatioParams(0.0, 0.1)
    with pytest.raises(ValueError):
        RatioParams(1.0, -0.1)
    for variance in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^variance must be finite"):
            GaussianSpec(1.0, variance)
        with pytest.raises(ValueError, match="^noise_variance must be finite"):
            RatioParams(1.0, variance)


# ---------------------------------------------------------------------------
# regime gate
# ---------------------------------------------------------------------------


def test_in_regime_boundary_and_sign():
    g = GaussianSpec(1.0, 0.0)
    assert in_regime(g, RatioParams(1.0, 0.01))  # sigma_w = 0.1 exactly
    assert not in_regime(g, RatioParams(1.0, 0.0101))
    assert in_regime(GaussianSpec(-1.0, 0.0), RatioParams(-1.0, 0.01))


# ---------------------------------------------------------------------------
# Monte-Carlo oracle agreement (tolerances pinned per contract)
# ---------------------------------------------------------------------------


def test_direct_ratio_mean_vs_oracle_half_percent():
    g, p = GaussianSpec(1.0, 0.01), RatioParams(1.0, 0.0025)
    oracle = mc_ratio_detail(RatioForm.DIRECT_RATIO, g, p, 10**6, SEED).moments
    analytic = direct_ratio_moments(g, p)
    assert abs(analytic.mean - oracle.mean) / abs(oracle.mean) <= 0.005


def test_paired_product_mean_vs_oracle_one_percent():
    g, p = GaussianSpec(2.0, 0.0), RatioParams(1.0, 0.04)
    oracle = mc_ratio_detail(RatioForm.PAIRED_PRODUCT, g, p, 10**6, SEED).moments
    analytic = paired_product_mean(g, p)
    assert abs(analytic - oracle.mean) / abs(oracle.mean) <= 0.01


def test_cross_difference_second_vs_oracle_two_percent():
    g, p = GaussianSpec(1.0, 0.0), RatioParams(2.0, 0.01)
    oracle = mc_ratio_detail(RatioForm.CROSS_DIFFERENCE, g, p, 10**6, SEED).moments
    analytic = cross_difference_moments(g, p)
    rel = abs(analytic.second_moment - oracle.second_moment) / abs(
        oracle.second_moment
    )
    assert rel <= 0.02


def test_cross_difference_oracle_mean_near_zero():
    g, p = GaussianSpec(1.0, 0.01), RatioParams(1.0, 0.01)
    oracle = mc_ratio_detail(RatioForm.CROSS_DIFFERENCE, g, p, 10**6, SEED).moments
    assert abs(oracle.mean) <= 0.005


def test_reciprocal_mean_vs_oracle_one_percent():
    g, p = GaussianSpec(1.0, 0.0225), RatioParams(1.0, 0.001)
    oracle = mc_ratio_detail(RatioForm.RECIPROCAL, g, p, 10**6, SEED).moments
    analytic = reciprocal_moments(g, p)
    assert abs(analytic.mean - oracle.mean) / abs(oracle.mean) <= 0.01


def test_oracle_degenerate_point_is_exact():
    oracle = mc_ratio_detail(
        RatioForm.DIRECT_RATIO, GaussianSpec(1.0, 0.0), RatioParams(1.0, 0.0),
        10**4, SEED,
    ).moments
    assert oracle.mean == pytest.approx(1.0, abs=1e-14)
    assert oracle.second_moment == pytest.approx(1.0, abs=1e-14)


def test_oracle_convergence_with_more_draws():
    """|oracle - analytic| shrinks as draws grow, within noise bands."""
    g, p = GaussianSpec(1.0, 0.01), RatioParams(1.0, 0.0025)
    analytic = direct_ratio_moments(g, p).mean
    gaps, ses = [], []
    for n in (10**4, 10**5, 10**6):
        detail = mc_ratio_detail(RatioForm.DIRECT_RATIO, g, p, n, SEED)
        gaps.append(abs(detail.moments.mean - analytic))
        ses.append(detail.se_mean)
    # allow sampling noise: each step must not grow beyond 2x the coarser SE
    assert gaps[1] <= gaps[0] + 2.0 * ses[0]
    assert gaps[2] <= gaps[1] + 2.0 * ses[1]
    assert gaps[2] <= gaps[0]


# ---------------------------------------------------------------------------
# oracle mechanics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("loc", [0.0, -3.5, 5e-324])
@pytest.mark.parametrize("scale", [0.0, 1e-300, 0.15])
def test_scaled_standard_normals_are_numpys_normal_bits(loc, scale):
    z = np.random.default_rng(SEED).standard_normal(4096)
    assert _as_normal(z, loc, scale) is z
    assert z.tobytes() == np.random.default_rng(SEED).normal(loc, scale, 4096).tobytes()
    if loc == 0.0:  # normal(0.0, 0.0) gives +0.0, never -0.0
        assert not np.signbit(z[z == 0.0]).any()


def test_oracle_rejects_small_draw_counts():
    with pytest.raises(ValueError):
        mc_ratio_detail(
            RatioForm.DIRECT_RATIO, GaussianSpec(1.0, 0.0), RatioParams(1.0, 0.0),
            9999, SEED,
        )


def test_oracle_rejects_always_singular_denominator():
    # G degenerate at 0 with zero noise: every draw divides by zero
    with pytest.raises(ValueError, match="non-finite"):
        mc_ratio_detail(
            RatioForm.RECIPROCAL, GaussianSpec(0.0, 0.0), RatioParams(1.0, 0.0),
            10**4, SEED,
        )


def test_oracle_deterministic_given_seed():
    g, p = GaussianSpec(1.0, 0.01), RatioParams(1.0, 0.01)
    a = mc_ratio_detail(RatioForm.PAIRED_PRODUCT, g, p, 10**4, 123)
    b = mc_ratio_detail(RatioForm.PAIRED_PRODUCT, g, p, 10**4, 123)
    c = mc_ratio_detail(RatioForm.PAIRED_PRODUCT, g, p, 10**4, 124)
    assert a == b
    assert a.moments.mean != c.moments.mean


def test_oracle_reports_effective_draws():
    g, p = GaussianSpec(1.0, 0.01), RatioParams(1.0, 0.01)
    detail = mc_ratio_detail(RatioForm.DIRECT_RATIO, g, p, 10**5, SEED)
    assert detail.n_effective >= int(0.999 * 10**5)
    assert 0.0 <= detail.nonfinite_fraction <= 1e-3
    assert detail.se_mean > 0.0
    assert detail.se_second_moment > 0.0


# ---------------------------------------------------------------------------
# the oracle against its plain-expression reference
# ---------------------------------------------------------------------------

MAX_TEST_DRAWS = 60_000

oracle_points = st.tuples(
    st.sampled_from(list(RatioForm)),
    st.floats(0.5, 4.0) | st.floats(-4.0, -0.5),   # mu_g
    st.just(0.0) | st.floats(0.0, 0.3),             # sigma_g
    st.floats(0.25, 4.0) | st.floats(-4.0, -0.25),  # rho
    st.just(0.0) | st.floats(0.0, 0.3),             # sigma_w
    st.integers(10**4, MAX_TEST_DRAWS),             # n_draws
    st.integers(0, 2**32 - 1),                      # seed
)


def _every_form_at(n_draws: int) -> list[tuple]:
    return [(form, 1.5, 0.2, -0.75, 0.15, n_draws, SEED) for form in RatioForm]


@given(st.lists(oracle_points, min_size=2, max_size=4))
@example(_every_form_at(2 * _MC_CHUNK))  # the last chunk is whole
@example(_every_form_at(2 * _MC_CHUNK + 1))  # the last chunk is one entry
@settings(max_examples=30, deadline=None)
def test_oracle_equals_the_reference_with_and_without_a_reused_work(points):
    """Every field equals the reference, on a fresh thread scratch and on the
    thread's reused one, NaN-filled before each call, so no stale row leaks."""
    for form, mu_g, sigma_g, rho, sigma_w, n_draws, seed in points:
        g, p = GaussianSpec(mu_g, sigma_g**2), RatioParams(rho, sigma_w**2)
        expected = reference.mc_ratio_detail(form, g, p, n_draws, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_scratch, "_local", threading.local())
            assert mc_ratio_detail(form, g, p, n_draws, seed) == expected
        _scratch.scratch(_MC_ROWS[form], n_draws).fill(np.nan)
        assert mc_ratio_detail(form, g, p, n_draws, seed) == expected


def test_oracle_partial_nonfinite_share_equals_the_reference():
    """A few draws overflow and are dropped; the rest still give the reference.

    G ~ N(1e154, (1e153)^2) squares past the largest float (about 1.34e154
    squared) in about 3e-4 of the draws, so those ratios are inf/inf = NaN.
    With rho = 0.5 the denominator stays below G^2, and every other draw is a
    finite ratio near 1/rho^2 = 4.
    """
    g, p = GaussianSpec(1e154, 1e306), RatioParams(0.5, 1e304)
    n_draws = 10**5
    _scratch.scratch(_MC_ROWS[RatioForm.PAIRED_PRODUCT], n_draws).fill(np.nan)
    detail = mc_ratio_detail(RatioForm.PAIRED_PRODUCT, g, p, n_draws, SEED)
    assert 0.0 < detail.nonfinite_fraction <= MAX_NONFINITE_FRACTION
    assert detail.n_effective < n_draws
    assert detail == reference.mc_ratio_detail(RatioForm.PAIRED_PRODUCT, g, p, n_draws, SEED)
    assert detail.moments.mean == pytest.approx(4.0, rel=1e-2)


def test_oracle_with_a_reused_work_allocates_no_draw_sized_array():
    """On a warm thread scratch, each call peaks below one float64 array of
    n_draws (the finite mask is 1/8, the last variable's chunks 0.16)."""
    n_draws = 10**5
    g, p = GaussianSpec(1.0, 0.01), RatioParams(1.0, 0.01)
    # warm up with the form that takes the most rows
    mc_ratio_detail(RatioForm.CROSS_DIFFERENCE, g, p, n_draws, SEED)
    for form in RatioForm:
        tracemalloc.start()
        try:
            mc_ratio_detail(form, g, p, n_draws, SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_draws, (form, peak / (8 * n_draws))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

in_regime_params = st.tuples(
    st.floats(0.5, 4.0),      # mu_g
    st.floats(0.0, 0.04),     # sigma_g^2
    st.sampled_from([0.5, 1.0, 2.0, -1.0]),  # rho
    st.floats(0.0, 1.0),      # noise scale in units of the regime bound
)


@given(in_regime_params)
@settings(max_examples=50, deadline=None)
def test_in_regime_variances_are_nonnegative(draw):
    mu_g, var_g, rho, w_scale = draw
    sigma_w = w_scale * 0.1 * abs(rho) * mu_g
    g = GaussianSpec(mu_g, var_g)
    p = RatioParams(rho, sigma_w**2)
    assert in_regime(g, p)
    for moments in (direct_ratio_moments(g, p), reciprocal_moments(g, p),
                    cross_difference_moments(g, p)):
        assert moments.second_moment - moments.mean**2 >= -1e-12


@given(st.floats(0.1, 10.0))
@settings(max_examples=25, deadline=None)
def test_direct_ratio_scale_covariance(c):
    """Z = G/(rho G + W) is invariant under G -> cG, W -> cW."""
    g, p = GaussianSpec(1.3, 0.02), RatioParams(0.7, 0.003)
    scaled_g = GaussianSpec(1.3 * c, 0.02 * c**2)
    scaled_p = RatioParams(0.7, 0.003 * c**2)
    base = direct_ratio_moments(g, p)
    scaled = direct_ratio_moments(scaled_g, scaled_p)
    assert scaled.mean == pytest.approx(base.mean, rel=1e-12)
    assert scaled.second_moment == pytest.approx(base.second_moment, rel=1e-12)


@given(st.floats(0.5, 3.0), st.floats(0.0, 0.05), st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=25, deadline=None)
def test_cross_difference_mean_always_zero(mu_g, var_g, rho):
    m = cross_difference_moments(GaussianSpec(mu_g, var_g), RatioParams(rho, 0.01))
    assert m.mean == 0.0
