"""Tests for the from-scratch linear discriminant analysis classifier."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rff_lab.classifier import LdaModel, accuracy, fit, predict_batch
from silhouette_reference import (
    definition_lda,
    definition_pooled,
    definition_predictions,
    definition_weights,
    eigen_floor_fires,
)


def _symmetric_two_class_train(delta: float = 0.5) -> list[np.ndarray]:
    """Two classes with exact means +/-e1 and pooled covariance c*I."""
    e1 = np.array([1.0, 0.0])
    offsets = np.array(
        [[delta, 0.0], [-delta, 0.0], [0.0, delta], [0.0, -delta]]
    )
    return [e1 + offsets, -e1 + offsets]


def predict(model: LdaModel, sample: np.ndarray) -> int:
    """The label of one K-vector."""
    return int(predict_batch(model, sample[None])[0])


def assert_weights_match_reference(
    model: LdaModel, train_sets, rtol: float = 1e-12
) -> None:
    """`model.weights` within ``rtol`` (relative to the largest) of the solved
    reference weights."""
    expected = definition_weights(train_sets)
    error = np.abs(model.weights - expected).max()
    assert error <= rtol * np.abs(expected).max()


def _separable_three_class_sets() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(11)
    means = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    train = np.array([mu + rng.standard_normal((40, 2)) * 0.1 for mu in means])
    test = np.array([mu + rng.standard_normal((25, 2)) * 0.1 for mu in means])
    return train, test


class TestDecisionBoundary:
    def test_symmetric_classes_split_on_first_coordinate(self):
        model = fit(_symmetric_two_class_train())
        assert predict(model, np.array([0.3, 5.0])) == 0
        assert predict(model, np.array([1e-9, -2.0])) == 0
        assert predict(model, np.array([-0.3, 5.0])) == 1
        assert predict(model, np.array([-1e-9, 2.0])) == 1

    def test_tie_on_boundary_goes_to_lowest_index(self):
        model = fit(_symmetric_two_class_train())
        # x1 == 0 is equidistant from both class means under equal priors.
        assert predict(model, np.array([0.0, 0.0])) == 0
        assert predict(model, np.array([0.0, 3.7])) == 0

    def test_class_mean_is_assigned_to_its_own_class(self):
        rng = np.random.default_rng(7)
        means = np.array(
            [[10.0, 0.0, 0.0, 0.0], [0.0, 10.0, 0.0, 0.0], [0.0, 0.0, 10.0, 0.0]]
        )
        train = [mu + 0.05 * rng.standard_normal((30, 4)) for mu in means]
        model = fit(train)
        for label in range(3):
            assert predict(model, train[label].mean(axis=0)) == label

    def test_separated_clusters_reach_perfect_accuracy(self):
        train, test = _separable_three_class_sets()
        model = fit(train)
        assert accuracy(model, test) == 1.0


class TestDegenerateInputs:
    def test_constant_class_fits_with_ridge(self):
        constant = np.tile([2.0, -1.0, 0.5], (10, 1))
        rng = np.random.default_rng(3)
        spread = rng.standard_normal((10, 3)) + np.array([-4.0, 2.0, 0.0])
        model = fit([constant, spread])  # default ridge absorbs zero scatter
        assert predict(model, constant[0]) == 0

    def test_duplicated_column_fits_and_predicts_as_the_reference(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((12, 2))
        degenerate = np.column_stack([base[:, 0], base[:, 0], base[:, 1]])
        train = [degenerate, degenerate + 3.0]
        queries = rng.normal(1.5, 2.0, (40, 3))
        model = fit(train)
        # Only the ridge lifts the null direction, so the condition number
        # (~3e6) scales the rounding of the weights.
        _, pooled = definition_pooled(train)
        rtol = np.finfo(float).eps * np.linalg.cond(pooled)
        assert_weights_match_reference(model, train, rtol)
        np.testing.assert_array_equal(
            predict_batch(model, queries), definition_predictions(train, [queries])[0]
        )

    @pytest.mark.parametrize("scale, spoil", [(1e-156, 0.0), (1.0, np.nan)])
    def test_a_scatter_that_cannot_be_regularized_raises(self, scale, spoil):
        # A ridge RIDGE * trace / K below the smallest normal float, whose
        # inverse overflows, or a trace that is not finite.
        train, _ = _separable_three_class_sets()
        train[1, 3, 0] += spoil
        with pytest.raises(ValueError, match="not finite or too small"):
            fit(scale * train)

    @pytest.mark.parametrize("scale", [1e-162, 1e-170, 1e-200])
    def test_features_whose_scatter_underflows_raise(self, scale):
        # The squared deviations underflow to a zero trace, though the samples
        # differ: the plain RIDGE would swamp the scores (chance accuracy).
        train, _ = _separable_three_class_sets()
        with pytest.raises(ValueError, match="not finite or too small"):
            fit(scale * train)

    @pytest.mark.parametrize("scale", [1.0, 1e-200])
    def test_identical_samples_still_fit(self, scale):
        # A scatter that is truly zero is no underflow: the plain RIDGE regularizes it.
        means = scale * np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
        model = fit(np.repeat(means[:, None], 4, axis=1))
        assert np.isfinite(model.weights).all() and np.isfinite(model.offsets).all()

    @settings(max_examples=200, deadline=None)
    @given(exponent=st.floats(-300.0, 0.0))
    def test_a_scaled_separable_set_raises_or_classifies_as_at_scale_one(self, exponent):
        train, test = _separable_three_class_sets()
        at_one = accuracy(fit(train), test)
        scale = 10.0**exponent
        try:
            model = fit(scale * train)
        except ValueError as err:
            assert "too small to regularize" in str(err)
            return
        assert accuracy(model, scale * test) == at_one

    def test_identical_huge_samples_overflow_the_offsets_and_raise(self):
        # Zero scatter at scale 1e150: RIDGE is absolute, so mu . Sigma^-1 mu
        # is about K * 1e302 / 1e-6.
        train = np.full((3, 4, 300), 1e151)
        with pytest.raises(ValueError, match="overflow"):
            fit(train)

    def test_identical_class_distributions_hit_chance_floor(self):
        rng = np.random.default_rng(2024)
        n_classes, n_test = 4, 400
        train = [rng.standard_normal((200, 5)) for _ in range(n_classes)]
        test = [rng.standard_normal((n_test, 5)) for _ in range(n_classes)]
        model = fit(train)
        acc = accuracy(model, test)
        p = 1.0 / n_classes
        eps = np.sqrt(p * (1.0 - p) / (n_classes * n_test))
        assert p - 3.0 * eps <= acc <= p + 3.0 * eps


class TestInvariances:
    def test_global_scaling_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(17)
        train = [rng.standard_normal((20, 4)) + mu for mu in (0.0, 1.5, -2.0)]
        samples = rng.standard_normal((50, 4))
        scale = 7.3
        base = predict_batch(fit(train), samples)
        scaled = predict_batch(
            fit([scale * t for t in train]), scale * samples
        )
        assert np.array_equal(base, scaled)

    def test_label_permutation_permutes_predictions(self):
        rng = np.random.default_rng(23)
        train = [rng.standard_normal((15, 3)) + mu for mu in (0.0, 2.0, -2.0, 4.0)]
        samples = rng.standard_normal((60, 3))
        perm = [2, 0, 3, 1]  # new position p holds old class perm[p]
        base = predict_batch(fit(train), samples)
        permuted = predict_batch(fit([train[c] for c in perm]), samples)
        relabel = np.empty(len(perm), dtype=int)
        for new_pos, old_class in enumerate(perm):
            relabel[old_class] = new_pos
        assert np.array_equal(relabel[base], permuted)


class TestKeptMask:
    @pytest.mark.parametrize("seed", range(6))
    def test_masked_fit_and_accuracy_match_a_per_device_loop(self, seed):
        rng = np.random.default_rng(seed)
        n_classes, n, k = int(rng.integers(2, 6)), int(rng.integers(3, 12)), 4
        centers = rng.normal(0.0, 1.5, (n_classes, 1, k))
        train = centers + rng.standard_normal((n_classes, n, k))
        test = centers + rng.standard_normal((n_classes, n + 2, k))
        train_kept = rng.random(train.shape[:2]) < 0.7
        test_kept = rng.random(test.shape[:2]) < 0.7
        train_kept[:, :2] = True  # >= 2 kept rows per class
        test_kept[:, 0] = True
        # dropped rows count for nothing, whatever they hold
        train[~train_kept] = rng.choice([np.nan, np.inf, 1e6], size=((~train_kept).sum(), 1))
        test[~test_kept] = 1e6
        model = fit(train, train_kept)
        train_sets = [rows[kept] for rows, kept in zip(train, train_kept)]
        _, expected = definition_lda(
            train_sets, [rows[kept] for rows, kept in zip(test, test_kept)]
        )
        assert_weights_match_reference(model, train_sets)
        assert accuracy(model, test, test_kept) == expected

    def test_all_kept_mask_equals_no_mask(self):
        rng = np.random.default_rng(8)
        train = rng.standard_normal((3, 10, 4)) + np.arange(3)[:, None, None]
        test = rng.standard_normal((3, 7, 4)) + np.arange(3)[:, None, None]
        model = fit(train)
        masked = fit(train, np.ones((3, 10), dtype=bool))
        np.testing.assert_array_equal(model.weights, masked.weights)
        np.testing.assert_array_equal(model.offsets, masked.offsets)
        assert accuracy(model, test) == accuracy(model, test, np.ones((3, 7), dtype=bool))


class TestOneProductScatter:
    """`fit` forms the within-class scatter as one product of all centered rows;
    the reference sums one product per class."""

    @pytest.mark.parametrize(
        "n_classes, n, k, masked, seed",
        [(40, 10, 52, False, 0), (40, 10, 52, True, 1), (10, 100, 52, True, 2),
         (5, 9, 4, True, 3), (3, 30, 12, True, 4)],
    )
    def test_weights_and_predictions_match_the_per_class_sums(
        self, n_classes, n, k, masked, seed
    ):
        rng = np.random.default_rng(seed)
        centers = rng.normal(0.0, 0.3, (n_classes, 1, k))
        train = centers + rng.standard_normal((n_classes, n, k))
        test = centers + rng.standard_normal((n_classes, n, k))
        train_kept = rng.random(train.shape[:2]) < (0.7 if masked else 1.0)
        test_kept = rng.random(test.shape[:2]) < (0.7 if masked else 1.0)
        train_kept[:, :2] = test_kept[:, 0] = True
        train[~train_kept] = np.nan  # dropped rows count for nothing
        model = fit(train, train_kept)
        train_sets = [rows[kept] for rows, kept in zip(train, train_kept)]
        test_sets = [rows[kept] for rows, kept in zip(test, test_kept)]
        assert_weights_match_reference(model, train_sets)
        predictions = predict_batch(model, test.reshape(-1, k)).reshape(n_classes, n)
        for label, expected in enumerate(definition_predictions(train_sets, test_sets)):
            np.testing.assert_array_equal(predictions[label][test_kept[label]], expected)
        assert accuracy(model, test, test_kept) == definition_lda(train_sets, test_sets)[1]


class TestValidation:
    def test_fit_rejects_single_class(self):
        with pytest.raises(ValueError, match="two classes"):
            fit([np.zeros((5, 2))])

    def test_fit_rejects_inconsistent_dimensions(self):
        with pytest.raises(ValueError, match="consistent dimension"):
            fit([np.zeros((5, 2)), np.zeros((5, 3))])

    def test_fit_needs_more_samples_than_classes(self):
        with pytest.raises(ValueError, match="more samples than classes"):
            fit([np.zeros((1, 2)), np.ones((1, 2))])

    def test_predict_batch_rejects_wrong_width(self):
        model = fit(_symmetric_two_class_train())
        with pytest.raises(ValueError, match="got shape"):
            predict_batch(model, np.zeros((4, 3)))

    def test_accuracy_rejects_misaligned_test_sets(self):
        model = fit(_symmetric_two_class_train())
        with pytest.raises(ValueError, match="align"):
            accuracy(model, [np.zeros((3, 2))])

    def test_accuracy_rejects_empty_test_sets(self):
        model = fit(_symmetric_two_class_train())
        with pytest.raises(ValueError, match="no test samples"):
            accuracy(model, [np.empty((0, 2)), np.empty((0, 2))])

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (4, 3, 1)])
    def test_a_kept_mask_of_the_wrong_shape_is_rejected(self, shape):
        train = np.random.default_rng(1).standard_normal((4, 3, 2))
        with pytest.raises(ValueError, match="kept mask"):
            fit(train, np.ones(shape, dtype=bool))
        model = fit(train)
        with pytest.raises(ValueError, match="kept mask"):
            accuracy(model, train, np.ones(shape, dtype=bool))

    @pytest.mark.parametrize(
        "weights, offsets", [((3, 2), (3,)), ((3, 2), (2, 1)), ((3,), (3,))]
    )
    def test_model_rejects_mismatched_offsets_shape(self, weights, offsets):
        with pytest.raises(ValueError, match="offsets"):
            LdaModel(weights=np.zeros(weights), offsets=np.zeros(offsets))

    def test_model_arrays_are_immutable(self):
        model = fit(_symmetric_two_class_train())
        with pytest.raises(ValueError):
            model.weights[0, 0] = 99.0
        with pytest.raises(ValueError):
            model.offsets[0] = 99.0


class TestRetiredEigenCheck:
    """`fit` once ran an eigenvalue conditioning check before inverting;
    `silhouette_reference.eigen_floor_fires` keeps it.  At the constant ridge
    it cannot fire wherever `fit`'s own scale check passes."""

    @settings(max_examples=150, deadline=None)
    @given(
        n_classes=st.integers(2, 12),
        n=st.integers(2, 60),
        k=st.sampled_from([2, 3, 12, 52, 128, 300]),
        log10_scale=st.floats(-150.0, 150.0),
        duplicated=st.booleans(),
        constant_share=st.sampled_from([0.0, 0.5, 1.0]),
        masked=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_the_eigen_floor_never_fires_where_fit_succeeds(
        self, n_classes, n, k, log10_scale, duplicated, constant_share, masked, seed
    ):
        rng = np.random.default_rng(seed)
        train = rng.normal(0.0, 1.5, (n_classes, 1, k)) + rng.standard_normal(
            (n_classes, n, k)
        )
        if duplicated:
            train[..., k // 2:] = train[..., :1]
        constant = rng.random(n_classes) < constant_share
        train[constant] = train[constant, :1]
        train *= 10.0**log10_scale
        kept = rng.random((n_classes, n)) < (0.6 if masked else 1.0)
        kept[:, 0] = kept[0, 1] = True

        with mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv:
            try:
                model = fit(train, kept)
            except ValueError as err:
                assert "regularize" in str(err) or "overflow" in str(err)
                return
        assert not eigen_floor_fires(inv.call_args.args[0])
        assert np.isfinite(model.weights).all()
        assert np.isfinite(model.offsets).all()
