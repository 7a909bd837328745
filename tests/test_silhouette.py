"""Normalization and the train-vs-test silhouette score."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rff_lab.channel import ChannelScenario, Phase, init_trial_channel
from rff_lab.experiments import default_config
from rff_lab.analytic import expected_intra
from rff_lab.signal_model import Method, draw_fingerprint, extract_batch
from rff_lab.silhouette import device_tensor, normalize_block, silhouette_from_normalized
from silhouette_reference import (
    NormalizedSample,
    SilhouetteBreakdown,
    definition_silhouette,
    inter_distance,
    intra_distance,
    normalize,
)


def _normalized_sets(rng, n_devices=4, n_samples=6, k=5, spread=1.0):
    """Random per-device normalized matrices with device-specific centers."""
    sets = []
    for d in range(n_devices):
        center = rng.normal(0.0, spread, k)
        raw = center + rng.normal(0.0, 1.0, (n_samples, k))
        sets.append(normalize_block(raw)[0])
    return sets


def _random_kept(rng, n_devices, n_rows):
    """A random (D, N) kept mask with at least one kept row per device."""
    kept = rng.random((n_devices, n_rows)) < 0.6
    kept[np.arange(n_devices), rng.integers(0, n_rows, n_devices)] = True
    return kept


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_moments():
    sample = normalize(np.array([3.0, 5.0, 9.0, 11.0]))
    assert abs(sample.values.mean()) <= 1e-9
    assert abs(sample.values.std() - 1.0) <= 1e-9
    assert not sample.degenerate


def test_normalize_constant_vector_is_degenerate_zero():
    sample = normalize(np.array([4.0, 4.0, 4.0]))
    np.testing.assert_array_equal(sample.values, np.zeros(3))
    assert sample.degenerate


def test_normalize_rejects_short_or_non_vector():
    with pytest.raises(ValueError):
        normalize(np.array([1.0]))
    with pytest.raises(ValueError):
        normalize(np.ones((2, 2)))


def test_normalize_block_matches_rowwise_normalize():
    rng = np.random.default_rng(0)
    raw = rng.normal(1.0, 2.0, (7, 5))
    raw[3] = 6.0  # constant row: finite, normalized to zeros
    block, finite = normalize_block(raw)
    for i, row in enumerate(raw):
        np.testing.assert_allclose(block[i], normalize(row).values, atol=1e-12)
    assert finite.all()
    assert (~block.any(axis=1)).tolist() == [False, False, False, True, False, False, False]


def test_normalize_block_of_a_tensor_matches_each_matrix():
    rng = np.random.default_rng(1)
    tensor = rng.normal(0.5, 3.0, (4, 6, 5))
    tensor[2, 1] = -1.5  # constant row
    block, finite = normalize_block(tensor)
    assert block.shape == tensor.shape and finite.shape == (4, 6)
    for device, matrix in enumerate(tensor):
        rows, flags = normalize_block(matrix)
        np.testing.assert_array_equal(block[device], rows)
        np.testing.assert_array_equal(finite[device], flags)
    zero_rows = ~block.any(axis=2)
    assert finite.all() and zero_rows.sum() == 1 and zero_rows[2, 1]
    # into the slabs of a stale block, interleaved (D, 3, N, K) or slab-major
    # (3, D, N, K) as a trial's: the same bytes
    interleaved = np.full((4, 3, 6, 5), np.nan)
    slab_major = np.full((3, 4, 6, 5), np.nan)
    for out, square in (
        (interleaved[:, 1], interleaved[:, 2]),
        (slab_major[1], slab_major[2]),
    ):
        into, flags = normalize_block(tensor, out=out, square=square)
        assert np.shares_memory(into, out)
        assert into.tobytes() == block.tobytes() and np.array_equal(flags, finite)


def test_drop_nonfinite_rows():
    block = np.array([[[1.0, 2.0], [np.nan, 0.0], [3.0, np.inf], [4.0, 5.0]]])
    normalized, finite = normalize_block(block)
    assert finite.tolist() == [[True, False, False, True]]
    np.testing.assert_array_equal(normalized, [[[-1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 1.0]]])


def test_all_finite_matrix_is_returned_unchanged():
    block = np.arange(12.0).reshape(2, 3, 2)
    finite = normalize_block(block)[1]
    assert finite.shape == (2, 3) and finite.all()
    assert np.array_equal(block, np.arange(12.0).reshape(2, 3, 2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_finite_row_whose_sum_overflows_is_dropped_as_is_inf_minus_inf():
    """The first row's sum overflows and the third's is NaN; neither may warn,
    and both are dropped to zeros, though only the third holds a non-finite entry."""
    block = np.array([[[1e308, 1e308], [1.0, 2.0], [np.inf, -np.inf]]])
    normalized, finite = normalize_block(block)
    assert finite.tolist() == [[False, True, False]]
    np.testing.assert_array_equal(normalized, [[[0.0, 0.0], [-1.0, 1.0], [0.0, 0.0]]])


#: One entry of a spoiled row: finite for the last, but its square overflows.
_SPOILED_ENTRY = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "square overflows": 1e155}


@given(
    st.integers(1, 4),  # devices
    st.integers(1, 6),  # rows per device
    st.integers(2, 8),  # K
    st.lists(
        st.sampled_from([None, "constant", "sum overflows", *_SPOILED_ENTRY]),
        min_size=24,
        max_size=24,
    ),  # how each row is spoiled
    st.integers(0, 10**6),  # seed
)
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normalize_block_keeps_exactly_the_rows_of_finite_spread(n_dev, n_rows, k, spoil, seed):
    """The mask is each row's own verdict, every kept row is that row
    normalized alone, bit for bit, every other row is zeros, and nothing warns."""
    rng = np.random.default_rng(seed)
    block = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), (n_dev, n_rows, k))
    rows = block.reshape(-1, k)
    for row, how in zip(rows, spoil):
        if how == "constant":
            row[:] = 0.25 * rng.integers(-8, 9)  # sums exactly, so the spread is 0
        elif how == "sum overflows":
            row[:2] = 1e308
        elif how is not None:
            row[rng.integers(k)] = _SPOILED_ENTRY[how]
    normalized, finite = normalize_block(block)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.isfinite(block).all(axis=2) & np.isfinite(block.std(axis=2))
    np.testing.assert_array_equal(finite, expected)
    for index in np.ndindex(finite.shape):
        if finite[index]:
            alone = normalize_block(block[index][None])[0][0]
            assert normalized[index].tobytes() == alone.tobytes()
        else:
            assert not normalized[index].any()
    constant = [i for i, how in enumerate(spoil[: len(rows)]) if how == "constant"]
    assert finite.reshape(-1)[constant].all()
    assert not normalized.reshape(-1, k)[constant].any()


@given(
    st.integers(2, 4096),  # K
    st.integers(-300, 300),  # decimal magnitude
    st.floats(-10.0, 10.0),  # value
)
@example(3, 0, 0.1)
@example(52, 0, 0.3)
@settings(max_examples=200, deadline=None)
def test_a_constant_row_maps_to_zeros_at_any_k_and_magnitude(k, exponent, value):
    """A constant row's inexact mean leaves equal rounding dust in its centered
    entries; that dust is not a spread to scale up to all -1 or all +1."""
    row = np.full((1, k), value * 10.0**exponent)
    normalized, finite = normalize_block(row)
    assert not normalized.any()
    if abs(row[0, 0]) < 1e150:  # neither its sum nor its dust's squares overflow
        assert finite[0]
    reference = normalize(row[0])
    assert reference.degenerate and not reference.values.any()


def test_device_tensor_checks_the_mask_and_zeroes_dropped_rows():
    tensor = np.ones((3, 2, 4))
    same, mask = device_tensor(tensor)
    assert same is tensor and mask.all() and mask.shape == (3, 2)
    kept = np.array([[True, True], [True, False], [False, True]])
    zeroed, mask = device_tensor(tensor, kept)
    assert np.array_equal(mask, kept)
    np.testing.assert_array_equal(zeroed.any(axis=2), kept)
    assert tensor.all()  # the input is left as it was
    with pytest.raises(ValueError, match="consistent dimension"):
        device_tensor([np.ones((2, 4)), np.ones((2, 3))])
    with pytest.raises(ValueError, match="tensor"):
        device_tensor(np.ones((2, 4)))


@pytest.mark.parametrize("shape", [(2, 3), (3,), (3, 2, 1), (3, 3)])
def test_a_kept_mask_of_the_wrong_shape_is_rejected(shape):
    tensor = np.ones((3, 2, 4))
    with pytest.raises(ValueError, match="kept mask"):
        silhouette_from_normalized(tensor, tensor, train_kept=np.ones(shape, dtype=bool))
    with pytest.raises(ValueError, match="kept mask"):
        silhouette_from_normalized(tensor, tensor, test_kept=np.ones(shape, dtype=bool))


def test_normalized_sample_is_immutable():
    sample = normalize(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        sample.values[0] = 5.0


# ---------------------------------------------------------------------------
# distances and the coefficient rule
# ---------------------------------------------------------------------------


def test_intra_distance_hand_value():
    train = NormalizedSample(np.array([-1.0, 1.0]))
    test = [NormalizedSample(np.array([1.0, -1.0]))]
    assert intra_distance(train, test, 2) == 8.0


def test_intra_distance_averages_over_test_set():
    train = NormalizedSample(np.array([0.0, 0.0]))
    test = [
        NormalizedSample(np.array([1.0, 0.0])),
        NormalizedSample(np.array([0.0, 3.0])),
    ]
    assert intra_distance(train, test, 2) == 5.0  # (1 + 9) / 2


def test_intra_distance_errors():
    train = NormalizedSample(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        intra_distance(train, [], 2)
    with pytest.raises(ValueError):
        intra_distance(train, [NormalizedSample(np.zeros(3))], 2)


def test_inter_distance_two_devices_is_plain_average():
    train = NormalizedSample(np.array([0.0, 0.0]))
    other = [(1, [NormalizedSample(np.array([2.0, 0.0]))])]
    assert inter_distance(train, other, 2) == 4.0


def test_inter_distance_picks_minimum_device():
    train = NormalizedSample(np.array([1.0, -1.0]))
    matching = [NormalizedSample(np.array([1.0, -1.0]))]
    distant = [NormalizedSample(np.array([5.0, 5.0]))]
    assert inter_distance(train, [(1, distant), (2, matching)], 2) == 0.0


def test_inter_distance_requires_other_devices():
    with pytest.raises(ValueError):
        inter_distance(NormalizedSample(np.zeros(2)), [], 2)


def test_breakdown_coefficient_rule():
    assert SilhouetteBreakdown.from_distances(2.0, 4.0).coefficient == 0.5
    assert SilhouetteBreakdown.from_distances(4.0, 2.0).coefficient == -0.5
    assert SilhouetteBreakdown.from_distances(0.0, 5.0).coefficient == 1.0
    assert SilhouetteBreakdown.from_distances(5.0, 0.0).coefficient == -1.0
    assert SilhouetteBreakdown.from_distances(0.0, 0.0).coefficient == 0.0


# ---------------------------------------------------------------------------
# fast path == literal definition
# ---------------------------------------------------------------------------


def test_fast_path_matches_definition():
    rng = np.random.default_rng(5)
    for _ in range(10):
        train = _normalized_sets(rng)
        test = _normalized_sets(rng)
        fast = silhouette_from_normalized(train, test)
        literal = definition_silhouette(train, test)
        assert fast == pytest.approx(literal, abs=1e-12)


@given(
    st.integers(2, 4),  # devices
    st.integers(1, 5),  # train samples
    st.integers(1, 5),  # test samples
    st.integers(2, 6),  # K
    st.integers(0, 10**6),  # seed
)
@settings(max_examples=40, deadline=None)
def test_fast_path_matches_definition_property(n_dev, n_tr, n_te, k, seed):
    rng = np.random.default_rng(seed)
    train = [normalize_block(rng.normal(0, 1, (n_tr, k)))[0] for _ in range(n_dev)]
    test = [normalize_block(rng.normal(0, 1, (n_te, k)))[0] for _ in range(n_dev)]
    fast = silhouette_from_normalized(train, test)
    literal = definition_silhouette(train, test)
    assert fast == pytest.approx(literal, abs=1e-12)
    assert -1.0 <= fast <= 1.0
    # the same sets as one (D, N, K) tensor per phase
    assert silhouette_from_normalized(np.stack(train), np.stack(test)) == fast


@given(
    st.integers(2, 5),  # devices
    st.integers(1, 6),  # train rows per device, kept or not
    st.integers(1, 6),  # test rows per device, kept or not
    st.integers(2, 6),  # K
    st.integers(0, 10**6),  # seed
)
@settings(max_examples=40, deadline=None)
def test_fast_path_matches_definition_property_masked(n_dev, n_tr, n_te, k, seed):
    """Dropped rows anywhere, zeroed as the non-finite screen leaves them."""
    rng = np.random.default_rng(seed)
    train = normalize_block(rng.normal(0, 1, (n_dev, n_tr, k)))[0]
    test = normalize_block(rng.normal(0, 1, (n_dev, n_te, k)))[0]
    train_kept = _random_kept(rng, n_dev, n_tr)
    test_kept = _random_kept(rng, n_dev, n_te)
    train[~train_kept] = 0.0
    test[~test_kept] = 0.0
    fast = silhouette_from_normalized(train, test, train_kept, test_kept)
    literal = definition_silhouette(
        [rows[kept] for rows, kept in zip(train, train_kept)],
        [rows[kept] for rows, kept in zip(test, test_kept)],
    )
    assert fast == pytest.approx(literal, abs=1e-12)
    assert -1.0 <= fast <= 1.0


# ---------------------------------------------------------------------------
# score-level behavior
# ---------------------------------------------------------------------------


def test_score_zero_when_devices_identical_sets():
    rng = np.random.default_rng(2)
    shared = rng.normal(0.0, 1.0, (40, 6))
    block = normalize_block(np.stack([shared, shared]))[0]
    score = silhouette_from_normalized(block, block.copy())
    assert abs(score) <= 1e-12  # intra == inter exactly for every sample


def test_score_approaches_one_for_disjoint_tight_clusters():
    rng = np.random.default_rng(3)
    base_a = rng.normal(0.0, 1.0, 8)
    base_b = rng.normal(10.0, 1.0, 8)
    train = [
        base_a + rng.normal(0, 1e-6, (30, 8)),
        base_b + rng.normal(0, 1e-6, (30, 8)),
    ]
    test = [
        base_a + rng.normal(0, 1e-6, (30, 8)),
        base_b + rng.normal(0, 1e-6, (30, 8)),
    ]
    score = silhouette_from_normalized(normalize_block(train)[0], normalize_block(test)[0])
    assert score >= 0.999


def test_score_bounds_on_random_inputs():
    """At least 10^3 random configurations stay inside [-1, 1]."""
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n_dev = int(rng.integers(2, 5))
        k = int(rng.integers(2, 7))
        n_tr, n_te = (int(n) for n in rng.integers(1, 5, 2))
        scale = 10.0 ** rng.integers(-6, 7)
        train = rng.normal(0, scale, (n_dev, n_tr, k))
        test = rng.normal(0, scale, (n_dev, n_te, k))
        if rng.random() < 0.2:
            train[0, 0] = 7.7  # inject degenerate constant rows
        train_kept = _random_kept(rng, n_dev, n_tr)
        test_kept = _random_kept(rng, n_dev, n_te)
        train[~train_kept] = 0.0
        test[~test_kept] = 0.0
        score = silhouette_from_normalized(
            normalize_block(train)[0], normalize_block(test)[0], train_kept, test_kept
        )
        assert -1.0 <= score <= 1.0


def test_score_permutation_invariance():
    rng = np.random.default_rng(7)
    train = _normalized_sets(rng, n_devices=3, n_samples=8)
    test = _normalized_sets(rng, n_devices=3, n_samples=9)
    base = silhouette_from_normalized(train, test)

    shuffled = [m[rng.permutation(m.shape[0])] for m in train]
    assert silhouette_from_normalized(shuffled, test) == pytest.approx(base, abs=1e-12)

    order = [2, 0, 1]
    relabeled_tr = [train[i] for i in order]
    relabeled_te = [test[i] for i in order]
    assert silhouette_from_normalized(relabeled_tr, relabeled_te) == pytest.approx(
        base, abs=1e-12
    )


def test_score_affine_invariance_per_sample():
    rng = np.random.default_rng(9)
    train_raw = [rng.normal(2.0, 1.5, (6, 7)) for _ in range(3)]
    test_raw = [rng.normal(2.0, 1.5, (6, 7)) for _ in range(3)]
    base = silhouette_from_normalized(normalize_block(train_raw)[0], normalize_block(test_raw)[0])

    def affine(mat):
        a = rng.uniform(0.5, 3.0, (mat.shape[0], 1))
        b = rng.normal(0.0, 4.0, (mat.shape[0], 1))
        return a * mat + b

    assert silhouette_from_normalized(
        normalize_block([affine(m) for m in train_raw])[0],
        normalize_block([affine(m) for m in test_raw])[0],
    ) == pytest.approx(base, abs=1e-9)


def test_score_validates_inputs():
    good = np.zeros((3, 4))
    with pytest.raises(ValueError):
        silhouette_from_normalized([good], [good])  # one device
    with pytest.raises(ValueError):
        silhouette_from_normalized([good, good], [good])  # misaligned
    with pytest.raises(ValueError):
        silhouette_from_normalized([good, good], [good, np.zeros((3, 5))])


def test_identical_fingerprint_devices_score_near_zero():
    params = default_config().params.with_snr(25.0)
    fp = draw_fingerprint(params, [np.random.default_rng(21)])
    trial = init_trial_channel(
        ChannelScenario.IID_STOCHASTIC, params.channel, params.r_l,
        np.random.default_rng(22),
    )
    rng = np.random.default_rng(23)
    sets = [
        extract_batch(Method.RAW, params, fp, trial, Phase.TRAIN, 600, [rng])[0]
        for _ in range(4)
    ]
    score = silhouette_from_normalized(
        normalize_block(sets[:2])[0], normalize_block(sets[2:])[0]
    )
    assert abs(score) <= 0.05


def test_intra_distance_tracks_closed_form_prediction():
    """Trial-averaged intra distance vs the closed form (5% tolerance)."""
    params = default_config().params.with_snr(30.0)
    predicted = expected_intra(
        Method.RAW, ChannelScenario.DETERMINISTIC, params
    )
    rng_root = np.random.SeedSequence(31)
    totals = []
    n_samples = 0
    for trial_seed in rng_root.spawn(500):
        child = trial_seed.spawn(4)
        trial = init_trial_channel(
            ChannelScenario.DETERMINISTIC, params.channel, params.r_l,
            np.random.default_rng(child[0]),
        )
        fp = draw_fingerprint(params, [np.random.default_rng(child[1])])
        train = extract_batch(
            Method.RAW, params, fp, trial, Phase.TRAIN, 4, [np.random.default_rng(child[2])]
        )[0]
        test = extract_batch(
            Method.RAW, params, fp, trial, Phase.TEST, 4, [np.random.default_rng(child[3])]
        )[0]
        train_n = normalize_block(train)[0]
        test_n = [NormalizedSample(v.copy()) for v in normalize_block(test)[0]]
        for row in train_n:
            totals.append(intra_distance(NormalizedSample(row.copy()), test_n, params.r_l))
            n_samples += 1
    assert n_samples == 2000
    assert np.mean(totals) == pytest.approx(predicted, rel=0.05)
