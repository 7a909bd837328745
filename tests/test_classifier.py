"""Tests for the from-scratch linear discriminant analysis classifier."""

from __future__ import annotations

import numpy as np
import pytest

from rff_lab.classifier import LdaModel, accuracy, fit, predict_batch
from silhouette_reference import definition_lda, definition_pooled, definition_predictions


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


class TestDecisionBoundary:
    def test_symmetric_classes_split_on_first_coordinate(self):
        model = fit(_symmetric_two_class_train(), ridge=0.0)
        assert predict(model, np.array([0.3, 5.0])) == 0
        assert predict(model, np.array([1e-9, -2.0])) == 0
        assert predict(model, np.array([-0.3, 5.0])) == 1
        assert predict(model, np.array([-1e-9, 2.0])) == 1

    def test_tie_on_boundary_goes_to_lowest_index(self):
        model = fit(_symmetric_two_class_train(), ridge=0.0)
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
            assert predict(model, model.class_means[label]) == label

    def test_separated_clusters_reach_perfect_accuracy(self):
        rng = np.random.default_rng(11)
        means = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
        train = [mu + rng.standard_normal((40, 2)) * 0.1 for mu in means]
        test = [mu + rng.standard_normal((25, 2)) * 0.1 for mu in means]
        model = fit(train)
        assert accuracy(model, test) == 1.0


class TestDegenerateInputs:
    def test_constant_class_fits_with_ridge(self):
        constant = np.tile([2.0, -1.0, 0.5], (10, 1))
        rng = np.random.default_rng(3)
        spread = rng.standard_normal((10, 3)) + np.array([-4.0, 2.0, 0.0])
        model = fit([constant, spread])  # default ridge absorbs zero scatter
        assert predict(model, constant[0]) == 0

    def test_duplicated_column_without_ridge_raises_singular(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((12, 2))
        degenerate = np.column_stack([base[:, 0], base[:, 0], base[:, 1]])
        train = [degenerate, degenerate + 3.0]
        with pytest.raises(ValueError, match="singular"):
            fit(train, ridge=0.0)

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
        means, expected = definition_lda(
            [rows[kept] for rows, kept in zip(train, train_kept)],
            [rows[kept] for rows, kept in zip(test, test_kept)],
        )
        np.testing.assert_allclose(model.class_means, means, rtol=1e-12, atol=1e-12)
        assert accuracy(model, test, test_kept) == expected

    def test_all_kept_mask_equals_no_mask(self):
        rng = np.random.default_rng(8)
        train = rng.standard_normal((3, 10, 4)) + np.arange(3)[:, None, None]
        test = rng.standard_normal((3, 7, 4)) + np.arange(3)[:, None, None]
        model = fit(train)
        masked = fit(train, np.ones((3, 10), dtype=bool))
        np.testing.assert_array_equal(model.class_means, masked.class_means)
        np.testing.assert_array_equal(
            model.pooled_covariance_inverse, masked.pooled_covariance_inverse
        )
        assert accuracy(model, test) == accuracy(model, test, np.ones((3, 7), dtype=bool))


class TestOneProductScatter:
    """`fit` forms the within-class scatter as one product of all centered rows;
    the reference sums one product per class."""

    @pytest.mark.parametrize(
        "n_classes, n, k, masked, seed",
        [(40, 10, 52, False, 0), (40, 10, 52, True, 1), (10, 100, 52, True, 2),
         (5, 9, 4, True, 3), (3, 30, 12, True, 4)],
    )
    def test_pooled_covariance_and_predictions_match_the_per_class_sums(
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
        _, pooled = definition_pooled(train_sets)
        error = np.abs(np.linalg.inv(model.pooled_covariance_inverse) - pooled).max()
        assert error <= 1e-12 * np.abs(pooled).max()
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

    def test_fit_rejects_negative_ridge(self):
        with pytest.raises(ValueError, match="ridge"):
            fit([np.zeros((5, 2)), np.ones((5, 2))], ridge=-1e-9)

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

    def test_model_rejects_mismatched_precision_shape(self):
        with pytest.raises(ValueError, match="precision"):
            LdaModel(
                class_means=np.zeros((2, 3)),
                pooled_covariance_inverse=np.eye(2),
                priors=np.array([0.5, 0.5]),
            )

    def test_model_rejects_bad_priors(self):
        with pytest.raises(ValueError, match="priors"):
            LdaModel(
                class_means=np.zeros((2, 3)),
                pooled_covariance_inverse=np.eye(3),
                priors=np.array([0.9, 0.2]),
            )

    @pytest.mark.parametrize("excess", [5e-6, -5e-6])
    def test_priors_within_isclose_tolerance_of_one_are_accepted(self, excess):
        LdaModel(
            class_means=np.zeros((2, 3)),
            pooled_covariance_inverse=np.eye(3),
            priors=np.array([0.5 + excess, 0.5]),
        )

    @pytest.mark.parametrize("excess", [2e-5, -2e-5, np.nan])
    def test_priors_beyond_isclose_tolerance_of_one_or_nan_are_rejected(self, excess):
        with pytest.raises(ValueError, match="priors"):
            LdaModel(
                class_means=np.zeros((2, 3)),
                pooled_covariance_inverse=np.eye(3),
                priors=np.array([0.5 + excess, 0.5]),
            )

    def test_model_arrays_are_immutable(self):
        model = fit(_symmetric_two_class_train())
        with pytest.raises(ValueError):
            model.class_means[0, 0] = 99.0
