"""Feature extraction laws, amplification factor, and closed-form moments."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import extraction_reference as reference
from rff_lab.analytic import feature_law
from rff_lab.channel import ChannelParams, ChannelScenario, Phase, init_trial_channel
from rff_lab.experiments import default_config
from rff_lab.gaussian_moments import GaussianSpec, RatioForm, RatioParams, mc_ratio_detail
from rff_lab.signal_model import (
    Method,
    ModelParams,
    amplification_factor,
    draw_fingerprint,
    extract_batch,
)

BASE_PARAMS = default_config().params  # shipped defaults; sigma_n is set per test


def unit_params(**overrides) -> ModelParams:
    """All constants 1, all spreads 0 unless overridden."""
    base = dict(
        x=1.0, f_ra=1.0, f_ta=1.0, f_ru=1.0, f_tu_l=1.0, eta=1.0,
        r_l=8, r_s=4, mu_u=1.0, sigma_u=0.0, mu_s=1.0, sigma_s=0.0,
        sigma_n=0.0,
        channel=ChannelParams(1.0, 0.0, 1.0, 0.0),
    )
    base.update(overrides)
    return ModelParams(**base)


def det_trial(params, seed=0, k=None):
    return init_trial_channel(
        ChannelScenario.DETERMINISTIC, params.channel,
        params.r_l if k is None else k,
        np.random.default_rng(seed),
    )


# ---------------------------------------------------------------------------
# parameters and SNR mapping
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        unit_params(eta=0.0)
    with pytest.raises(ValueError):
        unit_params(r_s=9)  # r_s > r_l
    with pytest.raises(ValueError):
        unit_params(sigma_u=-0.1)
    with pytest.raises(ValueError):
        unit_params(f_ru=0.0)  # beta becomes zero


def test_gamma_beta_accessors():
    p = unit_params(f_ra=2.0, f_tu_l=3.0, x=0.5, f_ru=4.0, f_ta=0.25)
    assert p.gamma() == 2.0 * 3.0 * 0.5
    assert p.beta() == 4.0 * 0.25 * 0.5


def test_snr_mapping_reference_amplitude_one():
    p = BASE_PARAMS
    assert p.snr_reference_amplitude() == 1.0
    assert p.sigma_n_for_snr(20.0) == pytest.approx(0.1, rel=1e-12)
    assert p.sigma_n_for_snr(30.0) ** 2 == pytest.approx(1e-3, rel=1e-12)
    p30 = p.with_snr(30.0)
    assert p30.sigma_n == pytest.approx(math.sqrt(1e-3), rel=1e-12)


def test_method_subcarrier_counts():
    assert Method.SL.subcarriers(BASE_PARAMS) == BASE_PARAMS.r_s == 12
    for method in (Method.RAW, Method.CR, Method.PC, Method.RC):
        assert method.subcarriers(BASE_PARAMS) == BASE_PARAMS.r_l == 52


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_degenerate_spreads():
    fp = draw_fingerprint(unit_params(mu_u=2.0, mu_s=3.0), [np.random.default_rng(0)])
    np.testing.assert_array_equal(fp.tu, np.full((1, 8), 2.0))
    np.testing.assert_array_equal(fp.tu_s, np.full((1, 4), 3.0))


def test_fingerprint_spreads_match_table():
    rng = np.random.default_rng(42)
    tu = np.concatenate(
        [draw_fingerprint(BASE_PARAMS, [rng]).tu[0] for _ in range(2000)]
    )
    tu_s = np.concatenate(
        [draw_fingerprint(BASE_PARAMS, [rng]).tu_s[0] for _ in range(2000)]
    )
    assert tu.std() == pytest.approx(0.1, rel=0.05)
    assert tu_s.std() == pytest.approx(0.08, rel=0.05)
    assert tu.mean() == pytest.approx(1.0, abs=0.01)


def test_fingerprint_is_immutable():
    fp = draw_fingerprint(BASE_PARAMS, [np.random.default_rng(0)])
    with pytest.raises(ValueError):
        fp.tu[0, 0] = 99.0


# ---------------------------------------------------------------------------
# extraction laws: exact noiseless identities
# ---------------------------------------------------------------------------


def test_raw_noiseless_identity():
    p = unit_params()
    sample = extract_batch(
        Method.RAW, p, draw_fingerprint(p, [np.random.default_rng(0)]),
        det_trial(p), Phase.TRAIN, 1, [np.random.default_rng(1)],
    )[0, 0]
    np.testing.assert_allclose(sample, np.ones(8), rtol=0, atol=0)


def test_cr_noiseless_channel_cancellation_returns_fingerprint():
    p = unit_params(sigma_u=0.1, channel=ChannelParams(1.0, 0.3, 1.0, 0.3))
    fp = draw_fingerprint(p, [np.random.default_rng(3)])
    trial = det_trial(p, seed=4)
    rngs = [np.random.default_rng(5)]
    sample = extract_batch(Method.CR, p, fp, trial, Phase.TRAIN, 1, rngs)[0, 0]
    np.testing.assert_allclose(sample, fp.tu[0], rtol=1e-12)


@pytest.mark.parametrize("method", [Method.SL, Method.CR, Method.PC, Method.RC])
def test_noiseless_features_are_csi_independent(method):
    """With zero noise the ratio methods cancel the channel entirely."""
    p = unit_params(
        sigma_u=0.1, sigma_s=0.08,
        channel=ChannelParams(1.0, 0.25, 1.2, 0.4),
    )
    fp = draw_fingerprint(p, [np.random.default_rng(7)])
    trial = init_trial_channel(
        ChannelScenario.IID_STOCHASTIC, p.channel, method.subcarriers(p),
        np.random.default_rng(8),
    )
    batch = extract_batch(method, p, fp, trial, Phase.TRAIN, 6, [np.random.default_rng(9)])[0]
    # every sample saw a fresh CSI draw, yet all rows coincide
    np.testing.assert_allclose(batch, np.broadcast_to(batch[0], batch.shape), rtol=1e-12)


def test_raw_features_do_depend_on_csi():
    p = unit_params(channel=ChannelParams(1.0, 0.25, 1.0, 0.25))
    fp = draw_fingerprint(p, [np.random.default_rng(7)])
    trial = init_trial_channel(
        ChannelScenario.IID_STOCHASTIC, p.channel, p.r_l, np.random.default_rng(8)
    )
    batch = extract_batch(Method.RAW, p, fp, trial, Phase.TRAIN, 2, [np.random.default_rng(9)])[0]
    assert not np.allclose(batch[0], batch[1])


def test_sl_uses_short_subcarrier_count():
    p = BASE_PARAMS.with_snr(30.0)
    fp = draw_fingerprint(p, [np.random.default_rng(0)])
    trial = det_trial(p, k=p.r_s)
    batch = extract_batch(Method.SL, p, fp, trial, Phase.TRAIN, 3, [np.random.default_rng(1)])
    assert batch.shape == (1, 3, p.r_s)


# ---------------------------------------------------------------------------
# amplification factor
# ---------------------------------------------------------------------------


def test_amplification_factor_unit_passthrough():
    p = unit_params()
    assert amplification_factor(p, (1.0, 0.0)) == pytest.approx(1.0, rel=1e-15)


def test_amplification_factor_table_value():
    p = replace(BASE_PARAMS, sigma_n=math.sqrt(1e-3))
    alpha = amplification_factor(p, (1.0, 0.15**2))
    expected = math.sqrt(2.0 / (1.0 + 3 * 0.0225 + 3 * 1e-3))
    assert alpha == pytest.approx(expected, rel=1e-12)
    assert alpha == pytest.approx(1.369, abs=3e-3)  # quoted two-decimal value
    assert alpha > 1.0  # eta exceeds the baseband power here


def test_amplification_power_matches_reciprocal_second_moment():
    """1/alpha^2 tracks the Monte-Carlo power of the reciprocal term within 2%."""
    p = replace(BASE_PARAMS, sigma_n=math.sqrt(1e-3))
    alpha = amplification_factor(p, (1.0, 0.15**2))
    power = p.eta / alpha**2
    oracle = mc_ratio_detail(
        RatioForm.RECIPROCAL,
        GaussianSpec(1.0, 0.15**2),
        RatioParams(p.beta(), p.sigma_n**2),
        10**6,
        42,
    ).moments
    assert abs(power - oracle.second_moment) / oracle.second_moment <= 0.02


def test_rc_baseband_power_reaches_eta():
    """alpha^2 times the empirical reciprocal-term power equals eta within 5%."""
    p = BASE_PARAMS.with_snr(30.0)
    rng = np.random.default_rng(11)
    h = rng.normal(1.0, 0.15, 10**6)
    noise = rng.normal(0.0, p.sigma_n, 10**6)
    base = 1.0 / (p.beta() * h + noise)
    alpha = amplification_factor(p, (1.0, 0.15**2))
    assert alpha**2 * np.mean(base**2) == pytest.approx(p.eta, rel=0.05)


def test_amplification_factor_domain_error():
    with pytest.raises(ValueError):
        amplification_factor(unit_params(), (0.0, 0.0))


# ---------------------------------------------------------------------------
# closed-form feature moments
# ---------------------------------------------------------------------------


def test_raw_moments_degenerate():
    m = feature_law(Method.RAW, unit_params(), (1.0, 0.0))
    assert (m.mean, m.variance) == (1.0, 0.0)


def test_raw_moments_table_value():
    p = replace(BASE_PARAMS, sigma_n=0.1)
    m = feature_law(Method.RAW, p, (1.0, 0.15**2))
    assert m.mean == pytest.approx(1.0, rel=1e-12)
    assert m.variance == pytest.approx(0.042725, rel=1e-12)


def test_moments_domain_error_on_zero_channel_mean():
    with pytest.raises(ValueError):
        feature_law(Method.SL, BASE_PARAMS, (0.0, 0.01))


def _pooled_extraction_moments(method, scenario, params, n_trials=1500, n=50, seed=100):
    """Pool draws over many single-device trials: estimates the full per-entry
    moments including the fingerprint and per-trial channel spread."""
    values = []
    root = np.random.SeedSequence(seed)
    for trial_seed in root.spawn(n_trials):
        child = trial_seed.spawn(3)
        trial = init_trial_channel(
            scenario, params.channel, method.subcarriers(params),
            np.random.default_rng(child[0]),
        )
        fp = draw_fingerprint(params, [np.random.default_rng(child[1])])
        batch = extract_batch(
            method, params, fp, trial, Phase.TRAIN, n, [np.random.default_rng(child[2])]
        )[0]
        values.append(batch[np.isfinite(batch).all(axis=1)])
    pooled = np.concatenate(values).ravel()
    return pooled.mean(), pooled.var()


@pytest.mark.parametrize("scenario", list(ChannelScenario))
@pytest.mark.parametrize("method", list(Method))
def test_moment_agreement_in_regime(method, scenario):
    """Sample moments track the closed forms at SNR 25 dB (2% mean, 5% var)."""
    params = BASE_PARAMS.with_snr(25.0)
    mu_c, sigma_c = params.channel.for_phase(scenario, Phase.TRAIN)
    analytic = feature_law(method, params, (mu_c, sigma_c**2))
    mean, var = _pooled_extraction_moments(method, scenario, params)
    assert abs(mean - analytic.mean) / abs(analytic.mean) <= 0.02
    assert abs(var - analytic.variance) / analytic.variance <= 0.05


def test_rc_extraction_mean_matches_closed_form_tightly():
    """Deterministic scenario at 30 dB: batch mean within 1% of the formula."""
    params = BASE_PARAMS.with_snr(30.0)
    analytic = feature_law(Method.RC, params, (1.0, 0.15**2))
    mean, _ = _pooled_extraction_moments(
        Method.RC, ChannelScenario.DETERMINISTIC, params, n_trials=2000, seed=200
    )
    assert abs(mean - analytic.mean) / abs(analytic.mean) <= 0.01


def test_extraction_deterministic_given_rng():
    p = BASE_PARAMS.with_snr(20.0)
    fp = draw_fingerprint(p, [np.random.default_rng(1)])
    trial = det_trial(p)
    a = extract_batch(Method.PC, p, fp, trial, Phase.TRAIN, 4, [np.random.default_rng(9)])
    b = extract_batch(Method.PC, p, fp, trial, Phase.TRAIN, 4, [np.random.default_rng(9)])
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    ("n_devices", "blocks"),
    [
        (1, np.empty((2, 1, 4, 52))),
        (1, np.empty((3, 1, 5, 52))),
        (1, np.empty((3, 1, 4, 52), dtype=np.float32)),
        (1, np.empty((3, 1, 4, 104))[..., ::2]),
        (2, np.empty((2, 3, 4, 52))),  # the (D, 3, N, K) device-major layout
    ],
    ids=["two-slabs", "wrong-samples", "float32", "strided", "device-major"],
)
def test_extraction_rejects_blocks_that_cannot_hold_the_phase(n_devices, blocks):
    p = BASE_PARAMS.with_snr(20.0)
    rngs = [np.random.default_rng(seed) for seed in range(n_devices)]
    fp = draw_fingerprint(p, rngs)
    with pytest.raises(ValueError, match="blocks must be C-contiguous float64"):
        extract_batch(Method.PC, p, fp, det_trial(p), Phase.TRAIN, 4, rngs, blocks=blocks)


# ---------------------------------------------------------------------------
# whole-phase extraction against the per-device reference
# ---------------------------------------------------------------------------

#: ordinary, negative-mean and subnormal channels; at mu_h = 5e-324 the SNR
#: mapping underflows sigma_n to 0, so the noise is all signed zeros
CHANNELS = (
    BASE_PARAMS.channel,
    ChannelParams(-0.4, 0.9, 0.3, 1.5),
    ChannelParams(5e-324, 5e-324, 5e-324, 5e-324),
    ChannelParams(5e-324, 5e-324, 1.0, 0.2),
    ChannelParams(1.0, 0.15, 5e-324, 0.0),
)


def _outcome(extract):
    try:
        return extract()
    except ValueError as exc:  # a law past the floats must fail alike
        return str(exc)


@pytest.mark.filterwarnings("ignore:non-i.i.d. scenario")
@given(
    method=st.sampled_from(list(Method)),
    scenario=st.sampled_from(list(ChannelScenario)),
    n_devices=st.integers(2, 12),
    n_samples=st.integers(1, 30),
    snr_db=st.floats(-20.0, 300.0),
    channel=st.sampled_from(CHANNELS),
    gains=st.lists(st.floats(0.5, 2.0), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@example(Method.RAW, ChannelScenario.IID_STOCHASTIC, 12, 30, 30.0, CHANNELS[2], [1.0] * 5, 0)
# signed-zero noise: 0/0 in SL's ratio takes its NaN's sign from the zeros
@example(
    Method.SL, ChannelScenario.IID_STOCHASTIC, 12, 30, 30.0, CHANNELS[2], [1.0] * 4 + [0.5], 0
)
# the per-slab draw calls of a deterministic trial: PC's start at slab 1 and
# span slabs 1 and 2, RAW's fill slab 1 alone
@example(Method.PC, ChannelScenario.DETERMINISTIC, 5, 7, 30.0, CHANNELS[0], [1.0] * 5, 11)
@example(Method.RAW, ChannelScenario.DETERMINISTIC, 3, 4, 30.0, CHANNELS[0], [1.0] * 5, 12)
@settings(max_examples=300, deadline=None)
def test_whole_phase_extraction_matches_the_per_device_reference(
    method, scenario, n_devices, n_samples, snr_db, channel, gains, seed
):
    """Every byte of both phases and both fingerprints equals a stack of per-device calls.

    So do both phases extracted into one reused ``blocks`` array.
    """
    x, f_ra, f_ta, f_ru, f_tu_l = gains  # after the SNR mapping, which they would move
    params = replace(
        replace(BASE_PARAMS, channel=channel).with_snr(snr_db),
        x=x, f_ra=f_ra, f_ta=f_ta, f_ru=f_ru, f_tu_l=f_tu_l,
    )
    k = method.subcarriers(params)

    def streams():  # stream 0 the channel; 3d + 1, 3d + 2, 3d + 3 device d's
        children = np.random.SeedSequence(seed).spawn(3 * n_devices + 1)
        return [np.random.default_rng(child) for child in children]

    def whole_phases(blocks):
        rngs = streams()
        trial = init_trial_channel(scenario, params.channel, k, rngs[0])
        fp = draw_fingerprint(params, rngs[1::3])
        return fp, [
            _outcome(lambda: extract_batch(
                method, params, fp, trial, phase, n_samples, phase_rngs, blocks=blocks
            ).copy())
            for phase, phase_rngs in ((Phase.TRAIN, rngs[2::3]), (Phase.TEST, rngs[3::3]))
        ]

    fp, whole = whole_phases(None)
    # both phases reuse one caller's blocks, whose stale contents are ignored
    _, reused = whole_phases(np.full((3, n_devices, n_samples, k), np.nan))

    rngs = streams()
    trial = init_trial_channel(scenario, params.channel, k, rngs[0])
    fps = [reference.draw_fingerprint(params, rng) for rng in rngs[1::3]]
    per_device = [
        _outcome(lambda: np.stack([
            reference.extract_batch(method, params, device_fp, trial, phase, n_samples, rng)
            for device_fp, rng in zip(fps, phase_rngs)
        ]))
        for phase, phase_rngs in ((Phase.TRAIN, rngs[2::3]), (Phase.TEST, rngs[3::3]))
    ]

    assert fp.tu.tobytes() == np.stack([f.tu for f in fps]).tobytes()
    assert fp.tu_s.tobytes() == np.stack([f.tu_s for f in fps]).tobytes()
    for got, expected in zip(whole + reused, per_device * 2):
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got.shape == expected.shape == (n_devices, n_samples, k)
            assert got.tobytes() == expected.tobytes()
