"""CSI sharing semantics and distributional checks for the three scenarios."""

import numpy as np
import pytest
from scipy import stats

from rff_lab.channel import (
    ChannelParams,
    ChannelScenario,
    Phase,
    init_trial_channel,
    sample_csi_block,
)

BASE_CHANNEL = ChannelParams(mu_h=1.0, sigma_h=0.15, mu_h_non=1.0, sigma_h_non=0.2)


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(1.0, -0.1, 1.0, 0.2)
    with pytest.raises(ValueError):
        ChannelParams(float("nan"), 0.1, 1.0, 0.2)


def test_scenario_moments_resolution():
    for scenario in (ChannelScenario.DETERMINISTIC, ChannelScenario.IID_STOCHASTIC):
        assert BASE_CHANNEL.for_phase(scenario, Phase.TRAIN) == (1.0, 0.15)
        assert BASE_CHANNEL.for_phase(scenario, Phase.TEST) == (1.0, 0.15)
    non_iid = ChannelScenario.NON_IID_STOCHASTIC
    assert BASE_CHANNEL.for_phase(non_iid, Phase.TRAIN) == (1.0, 0.15)
    assert BASE_CHANNEL.for_phase(non_iid, Phase.TEST) == (1.0, 0.2)


def test_deterministic_zero_variance_csi_is_mean_vector():
    params = ChannelParams(1.0, 0.0, 1.0, 0.2)
    trial = init_trial_channel(
        ChannelScenario.DETERMINISTIC, params, 3, np.random.default_rng(0)
    )
    np.testing.assert_array_equal(trial.fixed_csi, [1.0, 1.0, 1.0])


def test_deterministic_fixed_csi_mean_over_trials():
    rng = np.random.default_rng(42)
    means = [
        init_trial_channel(ChannelScenario.DETERMINISTIC, BASE_CHANNEL, 52, rng)
        .fixed_csi.mean()
        for _ in range(200)
    ]
    assert abs(np.mean(means) - 1.0) <= 0.07


def test_stochastic_scenarios_have_no_fixed_csi():
    for scenario in (ChannelScenario.IID_STOCHASTIC, ChannelScenario.NON_IID_STOCHASTIC):
        trial = init_trial_channel(scenario, BASE_CHANNEL, 8, np.random.default_rng(0))
        assert trial.fixed_csi is None


def test_deterministic_phase_invariance_bitwise():
    trial = init_trial_channel(
        ChannelScenario.DETERMINISTIC, BASE_CHANNEL, 52, np.random.default_rng(7)
    )
    rng = np.random.default_rng(1)
    first = sample_csi_block(trial, Phase.TRAIN, rng, 1)[0]
    second = sample_csi_block(trial, Phase.TEST, rng, 1)[0]
    assert first.tobytes() == second.tobytes()
    block = sample_csi_block(trial, Phase.TRAIN, rng, 5)
    assert all(row.tobytes() == first.tobytes() for row in block)


def test_deterministic_block_does_not_consume_rng():
    trial = init_trial_channel(
        ChannelScenario.DETERMINISTIC, BASE_CHANNEL, 4, np.random.default_rng(7)
    )
    rng_a = np.random.default_rng(3)
    sample_csi_block(trial, Phase.TRAIN, rng_a, 10)
    rng_b = np.random.default_rng(3)
    assert rng_a.normal() == rng_b.normal()


def test_stochastic_draws_are_fresh_per_call():
    trial = init_trial_channel(
        ChannelScenario.IID_STOCHASTIC, BASE_CHANNEL, 16, np.random.default_rng(0)
    )
    rng = np.random.default_rng(5)
    a = sample_csi_block(trial, Phase.TRAIN, rng, 1)[0]
    b = sample_csi_block(trial, Phase.TRAIN, rng, 1)[0]
    assert not np.array_equal(a, b)


def test_non_iid_test_phase_std_matches_target():
    trial = init_trial_channel(
        ChannelScenario.NON_IID_STOCHASTIC, BASE_CHANNEL, 1, np.random.default_rng(0)
    )
    draws = sample_csi_block(trial, Phase.TEST, np.random.default_rng(11), 10**4)
    assert draws.std() == pytest.approx(0.2, rel=0.05)


def test_iid_train_test_independence():
    trial = init_trial_channel(
        ChannelScenario.IID_STOCHASTIC, BASE_CHANNEL, 1, np.random.default_rng(0)
    )
    rng = np.random.default_rng(13)
    train = sample_csi_block(trial, Phase.TRAIN, rng, 10**4)[:, 0]
    test = sample_csi_block(trial, Phase.TEST, rng, 10**4)[:, 0]
    r = np.corrcoef(train, test)[0, 1]
    assert abs(r) <= 0.05


@pytest.mark.parametrize(
    "scenario,phase,target_mu,target_sigma",
    [
        (ChannelScenario.IID_STOCHASTIC, Phase.TRAIN, 1.0, 0.15),
        (ChannelScenario.IID_STOCHASTIC, Phase.TEST, 1.0, 0.15),
        (ChannelScenario.NON_IID_STOCHASTIC, Phase.TRAIN, 1.0, 0.15),
        (ChannelScenario.NON_IID_STOCHASTIC, Phase.TEST, 1.0, 0.2),
    ],
)
def test_stochastic_draws_match_target_distribution(
    scenario, phase, target_mu, target_sigma
):
    trial = init_trial_channel(scenario, BASE_CHANNEL, 1, np.random.default_rng(0))
    draws = sample_csi_block(trial, phase, np.random.default_rng(17), 10**4)[:, 0]
    result = stats.kstest(draws, "norm", args=(target_mu, target_sigma))
    assert result.pvalue > 0.01


def test_deterministic_pooled_draws_match_target_distribution():
    rng = np.random.default_rng(19)
    pooled = np.concatenate(
        [
            init_trial_channel(ChannelScenario.DETERMINISTIC, BASE_CHANNEL, 52, rng).fixed_csi
            for _ in range(200)
        ]
    )
    result = stats.kstest(pooled, "norm", args=(1.0, 0.15))
    assert result.pvalue > 0.01


def test_iid_train_and_test_identically_distributed():
    trial = init_trial_channel(
        ChannelScenario.IID_STOCHASTIC, BASE_CHANNEL, 1, np.random.default_rng(0)
    )
    rng = np.random.default_rng(23)
    train = sample_csi_block(trial, Phase.TRAIN, rng, 10**4)[:, 0]
    test = sample_csi_block(trial, Phase.TEST, rng, 10**4)[:, 0]
    result = stats.ks_2samp(train, test)
    assert result.pvalue > 0.01


def test_non_iid_with_identical_distributions_warns():
    params = ChannelParams(1.0, 0.15, 1.0, 0.15)
    with pytest.warns(UserWarning, match="degenerates"):
        init_trial_channel(
            ChannelScenario.NON_IID_STOCHASTIC, params, 4, np.random.default_rng(0)
        )


def test_trial_channel_shape_validation():
    with pytest.raises(ValueError):
        init_trial_channel(
            ChannelScenario.DETERMINISTIC, BASE_CHANNEL, 0, np.random.default_rng(0)
        )
