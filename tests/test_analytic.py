"""Tests for the closed-form expected distances and silhouette scores.

The reference functions in this file are independent second-order
transcriptions of the per-method expressions, written out term by term for
each (method, scenario) case instead of through the shared cross-moment
algebra the implementation uses.  Agreement between the two derivations at
1e-9 relative guards both against transcription slips.
"""

import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rff_lab.analytic import (
    _phi_variance,
    expected_inter,
    expected_intra,
    expected_silhouette,
    feature_law,
)
from rff_lab.channel import ChannelParams, ChannelScenario, Phase, init_trial_channel
from rff_lab.experiments import default_config
from rff_lab.gaussian_moments import GaussianSpec, RatioParams, direct_ratio_moments, in_regime
from rff_lab.signal_model import Method, ModelParams, draw_fingerprint, extract_batch
from rff_lab.silhouette import normalize_block
from silhouette_reference import NormalizedSample, inter_distance, intra_distance

BASE_PARAMS = default_config().params

ALL_METHODS = tuple(Method)
ALL_SCENARIOS = tuple(ChannelScenario)
SNR_GRID = (0.0, 10.0, 20.0, 30.0, 40.0)


def params_at(snr_db: float) -> ModelParams:
    return BASE_PARAMS.with_snr(snr_db)


# ---------------------------------------------------------------------------
# independent reference forms (term-by-term transcriptions)
# ---------------------------------------------------------------------------
# Shorthand inside the reference functions: f = receiver front-end gain acting
# on the numerator, x = probe amplitude, (mh, sh2) = channel mean/variance of
# the governing phase, sn2 = noise variance, g/b = gamma/beta denominator
# scales, (mu, su2) / (ms, ss2) = long/short fingerprint mean and variance.


def _raw_var(p: ModelParams, mh: float, sh2: float) -> float:
    f, x = p.f_ra, p.x
    return f**2 * x**2 * (p.mu_u**2 * sh2 + p.sigma_u**2 * mh**2 + p.sigma_u**2 * sh2) + p.sigma_n**2


def _sl_var(p: ModelParams, mh: float, sh2: float) -> float:
    f, x, g, sn2 = p.f_ra, p.x, p.gamma(), p.sigma_n**2
    ms2, ss2 = p.mu_s**2, p.sigma_s**2
    num = f**2 * x**2 * (
        ms2 * sn2 * (g**2 * mh**2 - sn2) + g**2 * mh**2 * ss2 * (g**2 * mh**2 + 3 * sn2)
    ) + g**2 * sn2 * (g**2 * mh**2 + 3 * g**2 * sh2 + 3 * sn2)
    return num / (g**6 * mh**4)


def _cr_var(p: ModelParams, mh: float, sh2: float) -> float:
    f, x, b, sn2 = p.f_ra, p.x, p.beta(), p.sigma_n**2
    mu2, su2 = p.mu_u**2, p.sigma_u**2
    num = f**2 * x**2 * (
        mu2 * sn2 * (b**2 * mh**2 - sn2) + b**2 * mh**2 * su2 * (b**2 * mh**2 + 3 * sn2)
    ) + b**2 * sn2 * (b**2 * mh**2 + 3 * b**2 * sh2 + 3 * sn2)
    return num / (b**6 * mh**4)


def _pc_var(p: ModelParams, mh: float, sh2: float) -> float:
    f, x, b, sn2 = p.f_ra, p.x, p.beta(), p.sigma_n**2
    mu2, su2 = p.mu_u**2, p.sigma_u**2
    inner = f**2 * x**4 * (
        mu2 * sn2 * (b**2 * mh**2 - sn2) + b**2 * mh**2 * su2 * (b**2 * mh**2 + 3 * sn2)
    ) / (b**6 * mh**4)
    return inner + sn2


def _alpha2(p: ModelParams, mh: float, sh2: float) -> float:
    b, sn2 = p.beta(), p.sigma_n**2
    return p.eta * b**4 * mh**4 / (b**2 * mh**2 + 3 * b**2 * sh2 + 3 * sn2)


def _rc_var(p: ModelParams, mh: float, sh2: float) -> float:
    f, b, sn2 = p.f_ra, p.beta(), p.sigma_n**2
    mu2, su2 = p.mu_u**2, p.sigma_u**2
    a2 = _alpha2(p, mh, sh2)
    inner = a2 * f**2 * (
        mu2 * sn2 * (b**2 * mh**2 - sn2) + su2 * (b**4 * mh**4 + 3 * b**2 * mh**2 * sn2)
    ) / (b**6 * mh**4)
    return inner + sn2


def _det_channel(p: ModelParams) -> tuple[float, float]:
    return p.channel.mu_h, p.channel.sigma_h**2


def _reference_det_distances(method: Method, p: ModelParams) -> tuple[float, float]:
    """(intra, inter) under the shared-channel scenario."""
    mh, sh2 = _det_channel(p)
    f, x, sn2 = p.f_ra, p.x, p.sigma_n**2
    rl, rs = p.r_l, p.r_s
    g, b = p.gamma(), p.beta()
    mu2, su2 = p.mu_u**2, p.sigma_u**2
    ms2, ss2 = p.mu_s**2, p.sigma_s**2
    if method is Method.RAW:
        var = _raw_var(p, mh, sh2)
        intra = 2 * rl * sn2 / var
        inter = 2 * rl * (f**2 * x**2 * su2 * (mh**2 + sh2) + sn2) / var
    elif method is Method.SL:
        var = _sl_var(p, mh, sh2)
        intra = 2 * rs * (
            f**2 * x**2 * mh**2 * sn2 * (ms2 + ss2)
            + sn2 * (g**2 * (mh**2 + 3 * sh2) + 3 * sn2)
        ) / (var * g**4 * mh**4)
        inter = 2 * rs * (
            f**2 * x**2 * mh**2 * (ms2 * sn2 + ss2 * (g**2 * mh**2 + 3 * sn2))
            + sn2 * (g**2 * (mh**2 + 3 * sh2) + 3 * sn2)
        ) / (var * g**4 * mh**4)
    elif method is Method.CR:
        var = _cr_var(p, mh, sh2)
        intra = 2 * rl * (
            f**2 * x**2 * mh**2 * sn2 * (mu2 + su2)
            + sn2 * (b**2 * (mh**2 + 3 * sh2) + 3 * sn2)
        ) / (var * b**4 * mh**4)
        inter = 2 * rl * (
            f**2 * x**2 * mh**2 * (mu2 * sn2 + su2 * (b**2 * mh**2 + 3 * sn2))
            + sn2 * (b**2 * (mh**2 + 3 * sh2) + 3 * sn2)
        ) / (var * b**4 * mh**4)
    elif method is Method.PC:
        var = _pc_var(p, mh, sh2)
        intra = (2 * rl / var) * (
            f**2 * x**4 * sn2 * (mu2 + su2) / (b**4 * mh**2) + sn2
        )
        inter = 2 * rl * (
            f**2 * x**4 * (mu2 * sn2 + su2 * (b**2 * mh**2 + 3 * sn2))
            + b**4 * mh**2 * sn2
        ) / (var * b**4 * mh**2)
    else:  # RC
        var = _rc_var(p, mh, sh2)
        a2 = _alpha2(p, mh, sh2)
        intra = (2 * rl / var) * (
            a2 * f**2 * sn2 * (mu2 + su2) / (b**4 * mh**2) + sn2
        )
        inter = (2 * rl / var) * (
            a2 * f**2 * (mu2 * sn2 + su2 * (b**2 * mh**2 + 3 * sn2)) / (b**4 * mh**2)
            + sn2
        )
    return intra, inter


def _reference_det_silhouette(method: Method, p: ModelParams) -> float:
    mh, sh2 = _det_channel(p)
    f, x, sn2 = p.f_ra, p.x, p.sigma_n**2
    g, b = p.gamma(), p.beta()
    mu2, su2 = p.mu_u**2, p.sigma_u**2
    ms2, ss2 = p.mu_s**2, p.sigma_s**2
    if method is Method.RAW:
        num = f**2 * x**2 * su2 * (mh**2 + sh2)
        return num / (num + sn2)
    if method is Method.SL:
        num = f**2 * x**2 * ss2 * mh**2 * (g**2 * mh**2 + 2 * sn2)
        den = f**2 * x**2 * mh**2 * (
            ms2 * sn2 + ss2 * (g**2 * mh**2 + 3 * sn2)
        ) + sn2 * (g**2 * (mh**2 + 3 * sh2) + 3 * sn2)
        return num / den
    if method is Method.CR:
        num = f**2 * x**2 * su2 * mh**2 * (b**2 * mh**2 + 2 * sn2)
        den = f**2 * x**2 * mh**2 * (
            mu2 * sn2 + su2 * (b**2 * mh**2 + 3 * sn2)
        ) + sn2 * (b**2 * (mh**2 + 3 * sh2) + 3 * sn2)
        return num / den
    if method is Method.PC:
        num = f**2 * x**4 * su2 * (b**2 * mh**2 + 2 * sn2)
        den = f**2 * x**4 * (
            mu2 * sn2 + su2 * (b**2 * mh**2 + 3 * sn2)
        ) + b**4 * mh**2 * sn2
        return num / den
    a2 = _alpha2(p, mh, sh2)
    num = a2 * f**2 * su2 * (b**2 * mh**2 + 2 * sn2)
    den = a2 * f**2 * (mu2 * sn2 + su2 * (b**2 * mh**2 + 3 * sn2)) + b**4 * mh**2 * sn2
    return num / den


def _reference_iid_intra(method: Method, p: ModelParams) -> float:
    mh, sh2 = _det_channel(p)
    f, x, sn2 = p.f_ra, p.x, p.sigma_n**2
    rl, rs = p.r_l, p.r_s
    g, b = p.gamma(), p.beta()
    mu2, su2 = p.mu_u**2, p.sigma_u**2
    ms2, ss2 = p.mu_s**2, p.sigma_s**2
    if method is Method.RAW:
        return 2 * rl * (f**2 * x**2 * sh2 * (mu2 + su2) + sn2) / _raw_var(p, mh, sh2)
    if method is Method.SL:
        num = f**2 * x**2 * sn2 * (ms2 + ss2) * (g**2 * mh**2 - sn2) + g**2 * sn2 * (
            g**2 * mh**2 + 3 * g**2 * sh2 + 3 * sn2
        )
        return 2 * rs * num / (_sl_var(p, mh, sh2) * g**6 * mh**4)
    if method is Method.CR:
        num = f**2 * x**2 * sn2 * (mu2 + su2) * (b**2 * mh**2 - sn2) + b**2 * sn2 * (
            b**2 * mh**2 + 3 * b**2 * sh2 + 3 * sn2
        )
        return 2 * rl * num / (_cr_var(p, mh, sh2) * b**6 * mh**4)
    if method is Method.PC:
        inner = f**2 * x**4 * sn2 * (mu2 + su2) * (b**2 * mh**2 - sn2) / (b**6 * mh**4)
        return (2 * rl / _pc_var(p, mh, sh2)) * (inner + sn2)
    a2 = _alpha2(p, mh, sh2)
    inner = a2 * f**2 * sn2 * (mu2 + su2) * (b**2 * mh**2 - sn2) / (b**6 * mh**4)
    return (2 * rl / _rc_var(p, mh, sh2)) * (inner + sn2)


def _reference_iid_inter(method: Method, p: ModelParams) -> float:
    mh, sh2 = _det_channel(p)
    f, x, sn2 = p.f_ra, p.x, p.sigma_n**2
    rl, rs = p.r_l, p.r_s
    g, b = p.gamma(), p.beta()
    mu2, su2 = p.mu_u**2, p.sigma_u**2
    ms2, ss2 = p.mu_s**2, p.sigma_s**2
    if method is Method.RAW:
        num = f**2 * x**2 * (mu2 * sh2 + su2 * mh**2 + su2 * sh2) + sn2
        return 2 * rl * num / _raw_var(p, mh, sh2)
    if method is Method.SL:
        num = f**2 * x**2 * (
            ms2 * sn2 * (g**2 * mh**2 - sn2)
            + g**2 * ss2 * mh**2 * (g**2 * mh**2 + 3 * sn2)
        ) + g**2 * sn2 * (g**2 * mh**2 + 3 * g**2 * sh2 + 3 * sn2)
        return 2 * rs * num / (_sl_var(p, mh, sh2) * g**6 * mh**4)
    if method is Method.CR:
        num = f**2 * x**2 * (
            mu2 * sn2 * (b**2 * mh**2 - sn2)
            + b**2 * su2 * mh**2 * (b**2 * mh**2 + 3 * sn2)
        ) + b**2 * sn2 * (b**2 * mh**2 + 3 * b**2 * sh2 + 3 * sn2)
        return 2 * rl * num / (_cr_var(p, mh, sh2) * b**6 * mh**4)
    if method is Method.PC:
        inner = f**2 * x**4 * (
            mu2 * sn2 * (b**2 * mh**2 - sn2)
            + su2 * b**2 * mh**2 * (b**2 * mh**2 + 3 * sn2)
        ) / (b**6 * mh**4)
        return (2 * rl / _pc_var(p, mh, sh2)) * (inner + sn2)
    a2 = _alpha2(p, mh, sh2)
    num = a2 * f**2 * (
        mu2 * sn2 * (b**2 * mh**2 - sn2)
        + su2 * (b**4 * mh**4 + 3 * b**2 * mh**2 * sn2)
    ) + b**6 * mh**4 * sn2
    return 2 * rl * num / (b**6 * mh**4 * _rc_var(p, mh, sh2))


def _reference_iid_silhouette(method: Method, p: ModelParams) -> float:
    mh, sh2 = _det_channel(p)
    f, x, sn2 = p.f_ra, p.x, p.sigma_n**2
    g, b = p.gamma(), p.beta()
    mu2, su2 = p.mu_u**2, p.sigma_u**2
    ms2, ss2 = p.mu_s**2, p.sigma_s**2
    if method is Method.RAW:
        num = f**2 * x**2 * su2 * mh**2
        den = f**2 * x**2 * (mu2 * sh2 + su2 * mh**2 + su2 * sh2) + sn2
        return num / den
    if method is Method.SL:
        num = f**2 * x**2 * ss2 * (g**4 * mh**4 + 2 * g**2 * mh**2 * sn2 + sn2**2)
        den = f**2 * x**2 * (
            ms2 * sn2 * (g**2 * mh**2 - sn2)
            + g**2 * ss2 * mh**2 * (g**2 * mh**2 + 3 * sn2)
        ) + g**2 * sn2 * (g**2 * mh**2 + 3 * g**2 * sh2 + 3 * sn2)
        return num / den
    if method is Method.CR:
        num = f**2 * x**2 * su2 * (b**4 * mh**4 + 2 * b**2 * mh**2 * sn2 + sn2**2)
        den = f**2 * x**2 * (
            mu2 * sn2 * (b**2 * mh**2 - sn2)
            + b**2 * su2 * mh**2 * (b**2 * mh**2 + 3 * sn2)
        ) + b**2 * sn2 * (b**2 * mh**2 + 3 * b**2 * sh2 + 3 * sn2)
        return num / den
    if method is Method.PC:
        num = f**2 * x**4 * su2 * (b**2 * mh**2 + sn2) ** 2
        den = f**2 * x**4 * (
            mu2 * sn2 * (b**2 * mh**2 - sn2)
            + su2 * b**2 * mh**2 * (b**2 * mh**2 + 3 * sn2)
        ) + b**6 * mh**4 * sn2
        return num / den
    a2 = _alpha2(p, mh, sh2)
    num = a2 * f**2 * su2 * (b**2 * mh**2 + sn2) ** 2
    den = a2 * f**2 * (
        mu2 * sn2 * (b**2 * mh**2 - sn2)
        + su2 * (b**4 * mh**4 + 3 * b**2 * mh**2 * sn2)
    ) + b**6 * mh**4 * sn2
    return num / den


# ---------------------------------------------------------------------------
# composition and bounds
# ---------------------------------------------------------------------------


class TestComposition:
    @pytest.mark.parametrize("snr_db", SNR_GRID)
    def test_silhouette_equals_distance_composition(self, snr_db):
        p = params_at(snr_db)
        for method in ALL_METHODS:
            for scenario in ALL_SCENARIOS:
                intra = expected_intra(method, scenario, p)
                inter = expected_inter(method, scenario, p)
                sil = expected_silhouette(method, scenario, p)
                composed = (inter - intra) / max(inter, intra)
                assert sil == pytest.approx(composed, rel=1e-9), (method, scenario)

    @pytest.mark.parametrize("snr_db", SNR_GRID)
    def test_distances_nonnegative_and_ordered(self, snr_db):
        p = params_at(snr_db)
        for method in ALL_METHODS:
            for scenario in ALL_SCENARIOS:
                intra = expected_intra(method, scenario, p)
                inter = expected_inter(method, scenario, p)
                sil = expected_silhouette(method, scenario, p)
                assert 0.0 <= intra <= inter, (method, scenario)
                assert 0.0 <= sil < 1.0, (method, scenario)


class TestTypedPhiVariance:
    """Var[phi] is the one ratio moment `feature_law` types out instead of
    reading it from `gaussian_moments`: check it against E[phi^2] - E[phi]^2,
    within the rounding that difference carries, wherever the regime holds."""

    @staticmethod
    def check(rho: float, mu_h: float, share: float) -> None:
        sigma_n = share * 0.1 * abs(rho) * abs(mu_h)  # share of the regime bound
        g, p = GaussianSpec(mu_h, 0.0), RatioParams(rho, sigma_n**2)
        assert in_regime(g, p)
        phi = direct_ratio_moments(g, p)
        var_phi = _phi_variance(rho, mu_h, sigma_n**2)
        assert var_phi >= 0.0
        tolerance = 8 * np.finfo(float).eps * phi.second_moment
        assert abs(var_phi - (phi.second_moment - phi.mean**2)) <= tolerance

    @pytest.mark.parametrize("rho", (0.5, 1.0, 2.0, -1.3))
    @pytest.mark.parametrize("mu_h", (0.3, 1.0, 2.5, -0.8))
    def test_matches_the_direct_ratio_moments_on_a_grid(self, rho, mu_h):
        for share in (0.0, 1e-4, 0.01, 0.3, 1.0):
            self.check(rho, mu_h, share)

    @given(
        st.floats(1e-3, 1e3).flatmap(lambda v: st.sampled_from((v, -v))),
        st.floats(1e-3, 1e3).flatmap(lambda v: st.sampled_from((v, -v))),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_direct_ratio_moments_in_regime(self, rho, mu_h, share):
        self.check(rho, mu_h, share)


class TestScenarioReduction:
    def test_matched_test_distribution_reduces_to_iid(self):
        channel = ChannelParams(
            mu_h=BASE_PARAMS.channel.mu_h,
            sigma_h=BASE_PARAMS.channel.sigma_h,
            mu_h_non=BASE_PARAMS.channel.mu_h,
            sigma_h_non=BASE_PARAMS.channel.sigma_h,
        )
        for snr_db in (10.0, 25.0, 40.0):
            p = replace(params_at(snr_db), channel=channel)
            for method in ALL_METHODS:
                for expected in (expected_intra, expected_inter, expected_silhouette):
                    iid = expected(method, ChannelScenario.IID_STOCHASTIC, p)
                    non = expected(method, ChannelScenario.NON_IID_STOCHASTIC, p)
                    assert non == pytest.approx(iid, rel=1e-6), (method, expected)


# ---------------------------------------------------------------------------
# agreement with the term-by-term reference forms
# ---------------------------------------------------------------------------


class TestReferenceFormAgreement:
    @pytest.mark.parametrize("snr_db", (20.0, 30.0, 40.0))
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_shared_channel_distances(self, method, snr_db):
        p = params_at(snr_db)
        ref_intra, ref_inter = _reference_det_distances(method, p)
        got_intra = expected_intra(method, ChannelScenario.DETERMINISTIC, p)
        got_inter = expected_inter(method, ChannelScenario.DETERMINISTIC, p)
        assert got_intra == pytest.approx(ref_intra, rel=1e-9)
        assert got_inter == pytest.approx(ref_inter, rel=1e-9)

    @pytest.mark.parametrize("snr_db", (20.0, 30.0, 40.0))
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_shared_channel_silhouettes(self, method, snr_db):
        p = params_at(snr_db)
        got = expected_silhouette(method, ChannelScenario.DETERMINISTIC, p)
        assert got == pytest.approx(_reference_det_silhouette(method, p), rel=1e-9)

    @pytest.mark.parametrize("snr_db", (20.0, 30.0, 40.0))
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_redrawn_channel_distances(self, method, snr_db):
        p = params_at(snr_db)
        got_intra = expected_intra(method, ChannelScenario.IID_STOCHASTIC, p)
        got_inter = expected_inter(method, ChannelScenario.IID_STOCHASTIC, p)
        assert got_intra == pytest.approx(_reference_iid_intra(method, p), rel=1e-9)
        assert got_inter == pytest.approx(_reference_iid_inter(method, p), rel=1e-9)

    @pytest.mark.parametrize("snr_db", (20.0, 30.0, 40.0))
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_redrawn_channel_silhouettes(self, method, snr_db):
        p = params_at(snr_db)
        got = expected_silhouette(method, ChannelScenario.IID_STOCHASTIC, p)
        assert got == pytest.approx(_reference_iid_silhouette(method, p), rel=1e-9)


# ---------------------------------------------------------------------------
# limits, orderings, and frozen values
# ---------------------------------------------------------------------------


class TestHighSnrLimits:
    def test_shared_channel_scores_approach_one(self):
        p = params_at(120.0)
        for method in ALL_METHODS:
            assert expected_silhouette(method, ChannelScenario.DETERMINISTIC, p) > 0.999

    def test_redrawn_channel_raw_saturates_below_one(self):
        p = params_at(120.0)
        su2, mu2 = p.sigma_u**2, p.mu_u**2
        mh2, sh2 = p.channel.mu_h**2, p.channel.sigma_h**2
        limit = su2 * mh2 / (mu2 * sh2 + su2 * mh2 + su2 * sh2)  # 0.01 / 0.032725
        got = expected_silhouette(Method.RAW, ChannelScenario.IID_STOCHASTIC, p)
        assert got == pytest.approx(limit, abs=1e-4)
        assert limit == pytest.approx(0.3056, abs=5e-4)

    def test_redrawn_channel_ratio_methods_approach_one(self):
        p = params_at(120.0)
        for method in (Method.SL, Method.CR, Method.PC, Method.RC):
            for scenario in (
                ChannelScenario.IID_STOCHASTIC,
                ChannelScenario.NON_IID_STOCHASTIC,
            ):
                assert expected_silhouette(method, scenario, p) > 0.999, (method, scenario)

    def test_shifted_test_distribution_caps_raw_lower(self):
        p = params_at(120.0)
        iid = expected_silhouette(Method.RAW, ChannelScenario.IID_STOCHASTIC, p)
        non = expected_silhouette(Method.RAW, ChannelScenario.NON_IID_STOCHASTIC, p)
        assert non < iid < 1.0


class TestOrderings:
    @pytest.mark.parametrize("snr_db", (15.0, 20.0, 25.0, 30.0, 35.0))
    def test_redrawn_channel_method_ordering(self, snr_db):
        p = params_at(snr_db)
        scores = {
            m: expected_silhouette(m, ChannelScenario.IID_STOCHASTIC, p)
            for m in (Method.SL, Method.CR, Method.PC, Method.RC)
        }
        assert scores[Method.RC] >= scores[Method.PC] >= scores[Method.CR] >= scores[Method.SL]

    @pytest.mark.parametrize("snr_db", (25.0, 30.0, 35.0, 40.0))
    def test_amplified_beats_plain_precoding_under_shifted_distribution(self, snr_db):
        p = params_at(snr_db)
        rc = expected_silhouette(Method.RC, ChannelScenario.NON_IID_STOCHASTIC, p)
        pc = expected_silhouette(Method.PC, ChannelScenario.NON_IID_STOCHASTIC, p)
        assert rc >= pc

    @pytest.mark.parametrize("snr_db", (20.0, 30.0, 40.0))
    def test_shared_channel_pairwise_orderings(self, snr_db):
        p = params_at(snr_db)
        det = {
            m: expected_silhouette(m, ChannelScenario.DETERMINISTIC, p)
            for m in ALL_METHODS
        }
        # precoding removes the denominator's channel spread term
        assert det[Method.PC] > det[Method.CR]
        # the short-preamble fingerprint spread is smaller, so its score is lower
        assert det[Method.CR] > det[Method.SL]
        # power amplification lifts the numerator above the plain precoded form
        assert det[Method.RC] > det[Method.PC]


class TestFrozenValues:
    def test_raw_shared_channel_distances_at_reference_noise(self):
        p = params_at(20.0)  # sigma_n^2 == 0.01
        var = 0.032725 + 0.01
        assert expected_intra(Method.RAW, ChannelScenario.DETERMINISTIC, p) == pytest.approx(
            2 * 52 * 0.01 / var, rel=1e-12
        )
        assert expected_inter(Method.RAW, ChannelScenario.DETERMINISTIC, p) == pytest.approx(
            2 * 52 * (0.01 * 1.0225 + 0.01) / var, rel=1e-12
        )

    def test_default_grid_closed_forms_are_pinned(self):
        """Every closed form of the default grid reproduces these exact floats.

        Hashes ``float.hex`` of both phases' `FeatureLaw` fields (RC's gain
        alpha included) and of the expected intra, inter and silhouette of
        each of the 105 cells.  The sweep CSV pins only the silhouette, to 17
        digits; this pins every step before it.  A deliberate change to the
        closed-form arithmetic re-records this digest.
        """
        cfg = default_config()
        values = []
        for scenario in cfg.scenarios:
            for method in cfg.methods:
                for snr_db in cfg.snr_db_grid:
                    p = cfg.params.with_snr(snr_db)
                    for phase in (Phase.TRAIN, Phase.TEST):
                        mu, sigma = p.channel.for_phase(scenario, phase)
                        law = feature_law(method, p, GaussianSpec(mu, sigma**2))
                        values += (law.amplitude, *law.fingerprint, law.phi_mean)
                        values += (law.phi_shared, law.mean, law.variance)
                    for expected in (expected_intra, expected_inter, expected_silhouette):
                        values.append(expected(method, scenario, p))
        assert len(values) == 105 * (2 * 7 + 3)
        text = " ".join(map(float.hex, values))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b2aa954bd84b91f0a78a39ad32ef0fe04454e7aed555731cae715c8963549551"
        )

    def test_zero_noise_collapses_shared_channel_intra(self):
        p = replace(BASE_PARAMS, sigma_n=0.0)
        for method in ALL_METHODS:
            assert expected_intra(method, ChannelScenario.DETERMINISTIC, p) == pytest.approx(
                0.0, abs=1e-12
            )
            assert expected_silhouette(method, ChannelScenario.DETERMINISTIC, p) == pytest.approx(
                1.0, rel=1e-12
            )

    @pytest.mark.parametrize("snr_db", (5.0, 20.0, 35.0))
    def test_redrawn_channel_inter_is_twice_the_dimension(self, snr_db):
        # With independently drawn train/test channels, different devices'
        # normalized features are uncorrelated, so the expected squared
        # distance is exactly 2K whatever the method or noise level.
        p = params_at(snr_db)
        for method in ALL_METHODS:
            k = method.subcarriers(p)
            for scenario in (
                ChannelScenario.IID_STOCHASTIC,
                ChannelScenario.NON_IID_STOCHASTIC,
            ):
                assert expected_inter(method, scenario, p) == pytest.approx(
                    2.0 * k, rel=1e-12
                ), (method, scenario)

    def test_identical_fingerprints_zero_the_score(self):
        p = replace(params_at(25.0), sigma_u=0.0)
        for method in (Method.RAW, Method.CR, Method.PC, Method.RC):
            for scenario in ALL_SCENARIOS:
                assert expected_silhouette(method, scenario, p) == pytest.approx(
                    0.0, abs=1e-15
                )
                assert expected_inter(method, scenario, p) == pytest.approx(
                    expected_intra(method, scenario, p), rel=1e-12
                )
        p_sl = replace(params_at(25.0), sigma_s=0.0)
        assert expected_silhouette(
            Method.SL, ChannelScenario.IID_STOCHASTIC, p_sl
        ) == pytest.approx(0.0, abs=1e-15)

    def test_zero_variance_features_are_rejected(self):
        p = replace(
            BASE_PARAMS,
            sigma_n=0.0,
            sigma_u=0.0,
            channel=ChannelParams(1.0, 0.0, 1.0, 0.2),
        )
        with pytest.raises(ValueError, match="variance"):
            expected_intra(Method.RAW, ChannelScenario.DETERMINISTIC, p)

    def test_negative_feature_variance_is_rejected(self):
        # PC's truncated train-phase variance is -0.473 here: the noise is
        # above the ratio denominator, and there is no std to normalize by.
        p = replace(
            BASE_PARAMS, x=0.7, f_ra=1.3, f_ta=0.9, f_ru=1.1, f_tu_l=1.2,
            channel=replace(BASE_PARAMS.channel, mu_h=0.8, mu_h_non=1.1),
        ).with_snr(0.0)
        scenario = ChannelScenario.NON_IID_STOCHASTIC
        for expected in (expected_intra, expected_inter, expected_silhouette):
            with pytest.raises(ValueError, match="train feature variance .* not positive"):
                expected(Method.PC, scenario, p)

    @pytest.mark.parametrize("scale", [1e-100, 1e-160, 1e100])
    def test_variance_product_past_the_floats_keeps_the_score(self, scale):
        # Each phase's variance is 2 * scale^2: positive, but the product of
        # the two under- or overflows a float.  Scaling sigma_n and sigma_u
        # together scales every variance alike, so the score and the inter
        # distance equal those at the reference scale.
        def at(s):
            channel = replace(BASE_PARAMS.channel, sigma_h=0.0, sigma_h_non=0.0)
            return replace(BASE_PARAMS, sigma_n=s, sigma_u=s, channel=channel)

        scenario = ChannelScenario.DETERMINISTIC
        for expected in (expected_inter, expected_silhouette):
            assert expected(Method.RAW, scenario, at(scale)) == pytest.approx(
                expected(Method.RAW, scenario, at(0.1)), rel=1e-12
            )
        assert 0.0 <= expected_intra(Method.RAW, scenario, at(scale)) <= 4 * 52

    @pytest.mark.parametrize("scale", [1e-100, 1e-3, 0.1])
    def test_fingerprint_spread_far_below_its_mean_keeps_the_distances(self, scale):
        # RAW, one fixed channel shared by both phases, sigma_n = sigma_u =
        # scale: half of each feature's variance is the fingerprint's, so
        # intra is K and inter 2K at every scale.  Unfactored, the centered
        # cross moment cancels against mu_t^2 and intra drifts to 2K.
        channel = replace(BASE_PARAMS.channel, sigma_h=0.0, sigma_h_non=0.0)
        p = replace(BASE_PARAMS, sigma_n=scale, sigma_u=scale, channel=channel)
        scenario = ChannelScenario.DETERMINISTIC
        assert expected_intra(Method.RAW, scenario, p) == 52.0
        assert expected_inter(Method.RAW, scenario, p) == 104.0

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize(
        "channel, phase",
        [
            (replace(BASE_PARAMS.channel, sigma_h=1e200), "train"),  # sigma^2 overflows
            (replace(BASE_PARAMS.channel, sigma_h_non=1e200), "test"),
        ],
    )
    def test_closed_form_past_the_floats_names_method_and_phase(self, method, channel, phase):
        p = replace(params_at(30.0), channel=channel)
        for expected in (expected_intra, expected_inter, expected_silhouette):
            with pytest.raises(
                ValueError, match=f"{method.value} closed form is not finite in the {phase} phase"
            ):
                expected(method, ChannelScenario.NON_IID_STOCHASTIC, p)

    def test_a_variance_that_sums_past_the_floats_is_rejected_not_scored(self):
        # each term of RAW's variance is finite, their sum is inf; scoring it
        # would report a silhouette of exactly 0
        p = replace(
            BASE_PARAMS, mu_u=1.3e154, sigma_u=1.3e154,
            channel=replace(BASE_PARAMS.channel, sigma_h=1.0),
        ).with_snr(30.0)
        with pytest.raises(ValueError, match="raw closed form is not finite in the train"):
            expected_silhouette(Method.RAW, ChannelScenario.IID_STOCHASTIC, p)

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    @pytest.mark.parametrize("method", [m for m in ALL_METHODS if m is not Method.RAW])
    def test_a_closed_form_builds_one_csi_law_and_one_ratio_per_phase(
        self, monkeypatch, method, scenario
    ):
        built = {GaussianSpec: 0, RatioParams: 0}
        for record in built:
            def counted(self, record=record, check=record.__post_init__):
                built[record] += 1
                check(self)

            monkeypatch.setattr(record, "__post_init__", counted)
        expected_silhouette(method, scenario, params_at(30.0))
        assert built == {GaussianSpec: 2, RatioParams: 2}

    def test_ratio_law_past_the_floats_stops_extraction(self):
        # RC's gain alpha needs the test-phase CSI variance, which overflows
        p = replace(params_at(30.0), channel=replace(BASE_PARAMS.channel, sigma_h_non=1e200))
        fp = draw_fingerprint(p, [np.random.default_rng(0)])
        trial = init_trial_channel(
            ChannelScenario.NON_IID_STOCHASTIC, p.channel, p.r_l, np.random.default_rng(1)
        )
        rngs = [np.random.default_rng(2)]
        assert np.isfinite(extract_batch(Method.RC, p, fp, trial, Phase.TRAIN, 4, rngs)).all()
        with pytest.raises(ValueError, match="rc closed form is not finite in the test phase"):
            extract_batch(Method.RC, p, fp, trial, Phase.TEST, 4, rngs)


    @pytest.mark.parametrize("method", [m for m in ALL_METHODS if m is not Method.RAW])
    def test_a_form_singular_at_zero_mean_csi_names_method_and_phase(self, method):
        p = replace(params_at(30.0), channel=replace(BASE_PARAMS.channel, mu_h_non=0.0))
        with pytest.raises(ValueError) as excinfo:
            expected_silhouette(method, ChannelScenario.NON_IID_STOCHASTIC, p)
        assert str(excinfo.value) == f"{method.value} closed form is not finite in the test phase"


# ---------------------------------------------------------------------------
# Monte-Carlo cross-check of one stochastic-scenario prediction
# ---------------------------------------------------------------------------


class TestMonteCarloAgreement:
    def _measured_distances(self, method: Method, seed: int) -> tuple[float, float]:
        p = params_at(30.0)  # sigma_n^2 == 1e-3
        k = method.subcarriers(p)
        rng = np.random.default_rng(seed)
        n_per_phase = 8

        def normalized_set(fp, phase):
            trial = init_trial_channel(
                ChannelScenario.IID_STOCHASTIC, p.channel, k, rng
            )
            raw = extract_batch(method, p, fp, trial, phase, n_per_phase, [rng])[0]
            values, _ = normalize_block(raw)
            return [NormalizedSample(values=v) for v in values]

        intra_sum, inter_sum, count = 0.0, 0.0, 0
        for _ in range(400):
            fp_a = draw_fingerprint(p, [rng])
            fp_b = draw_fingerprint(p, [rng])
            train_a = normalized_set(fp_a, Phase.TRAIN)
            test_a = normalized_set(fp_a, Phase.TEST)
            test_b = normalized_set(fp_b, Phase.TEST)
            for sample in train_a:
                intra_sum += intra_distance(sample, test_a, k)
                inter_sum += inter_distance(sample, [(1, test_b)], k)
                count += 1
        return intra_sum / count, inter_sum / count

    def test_short_long_redrawn_channel_distances_track_predictions(self):
        # K == 12 here, and per-sample normalization carries an O(1/K) bias
        # the closed forms ignore, so this method gets the looser band.
        p = params_at(30.0)
        intra, inter = self._measured_distances(Method.SL, seed=2718)
        assert intra == pytest.approx(
            expected_intra(Method.SL, ChannelScenario.IID_STOCHASTIC, p), rel=0.10
        )
        assert inter == pytest.approx(2.0 * Method.SL.subcarriers(p), rel=0.02)

    def test_challenge_response_redrawn_channel_distances_track_predictions(self):
        # The closed forms also ignore that one fingerprint draw is shared by
        # every sample of a device-trial, which conditions the per-sample
        # normalization; the resulting intra bias is ~5% here, so the band is
        # 10% for ratio methods.  (Composite-score agreement is asserted at
        # 0.05 absolute by the acceptance suite.)
        p = params_at(30.0)
        intra, inter = self._measured_distances(Method.CR, seed=31415)
        assert intra == pytest.approx(
            expected_intra(Method.CR, ChannelScenario.IID_STOCHASTIC, p), rel=0.10
        )
        assert inter == pytest.approx(2.0 * Method.CR.subcarriers(p), rel=0.02)
