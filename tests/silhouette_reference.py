"""The silhouette score written out literally, one sample at a time.

This is the O(N*M*K) definition that `rff_lab.silhouette` evaluates in
vectorized form: every training sample's mean squared distance to every
sample of its own and of each other device's test set.  Tests use it as the
oracle for the vectorized path and as a plain per-sample distance probe.
`definition_lda` does the same for `rff_lab.classifier`: the equal-prior LDA
fitted and scored one device's set at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from rff_lab.classifier import DEFAULT_RIDGE
from rff_lab.silhouette import ZERO_DISTANCE_TOLERANCE


@dataclass(frozen=True)
class NormalizedSample:
    """A feature vector with (mean, population std) scaled to (0, 1).

    A constant raw vector cannot be normalized; it maps to all-zeros with
    ``degenerate=True`` instead of raising.
    """

    values: np.ndarray
    degenerate: bool = False

    def __post_init__(self) -> None:
        self.values.flags.writeable = False


@dataclass(frozen=True)
class SilhouetteBreakdown:
    """Intra/inter distances of one training sample and their coefficient."""

    intra: float
    inter: float
    coefficient: float

    @classmethod
    def from_distances(cls, intra: float, inter: float) -> "SilhouetteBreakdown":
        biggest = max(inter, intra)
        coefficient = (inter - intra) / biggest if biggest > 0.0 else 0.0
        return cls(intra=intra, inter=inter, coefficient=coefficient)


def normalize(raw: np.ndarray) -> NormalizedSample:
    """Z-normalize one feature vector across its subcarriers."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.shape[0] < 2:
        raise ValueError(f"expected a vector of length >= 2, got shape {raw.shape}")
    std = float(raw.std())
    if std == 0.0:
        return NormalizedSample(values=np.zeros_like(raw), degenerate=True)
    return NormalizedSample(values=(raw - raw.mean()) / std)


def intra_distance(
    train: NormalizedSample, test_set: Sequence[NormalizedSample], k: int
) -> float:
    """Mean squared distance from one training sample to its own test set."""
    if len(test_set) == 0:
        raise ValueError("test_set must be nonempty")
    mat = np.stack([s.values for s in test_set])
    if train.values.shape != (k,) or mat.shape[1] != k:
        raise ValueError(
            f"inconsistent dimensions: train {train.values.shape}, "
            f"test {mat.shape}, expected K={k}"
        )
    value = float(((mat - train.values) ** 2).sum(axis=1).mean())
    return 0.0 if value < k * ZERO_DISTANCE_TOLERANCE else value


def inter_distance(
    train: NormalizedSample,
    other_test_sets: Sequence[tuple[int, Sequence[NormalizedSample]]],
    k: int,
) -> float:
    """Smallest per-device mean squared distance to the other devices' test sets."""
    if len(other_test_sets) == 0:
        raise ValueError("at least one other device is required")
    return min(
        intra_distance(train, test_set, k) for _, test_set in other_test_sets
    )


def definition_silhouette(
    train_sets: Sequence[np.ndarray], test_sets: Sequence[np.ndarray]
) -> float:
    """Mean coefficient over every training sample of already-normalized sets."""
    k = train_sets[0].shape[1]
    coefficients = []
    for i, train in enumerate(train_sets):
        own = [NormalizedSample(v.copy()) for v in test_sets[i]]
        others = [
            (j, [NormalizedSample(v.copy()) for v in test_sets[j]])
            for j in range(len(test_sets))
            if j != i
        ]
        for row in train:
            sample = NormalizedSample(row.copy())
            intra = intra_distance(sample, own, k)
            inter = inter_distance(sample, others, k)
            coefficients.append(
                SilhouetteBreakdown.from_distances(intra, inter).coefficient
            )
    return float(np.mean(coefficients))


def definition_pooled(train_sets: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Class means and the ridge-regularized pooled covariance, its scatter
    summed one class at a time."""
    k = train_sets[0].shape[1]
    means = np.array([m.mean(axis=0) for m in train_sets])
    scatter = sum((m - mu).T @ (m - mu) for m, mu in zip(train_sets, means))
    pooled = scatter / (sum(len(m) for m in train_sets) - len(train_sets))
    pooled += DEFAULT_RIDGE * np.trace(pooled) / k * np.eye(k)
    return means, pooled


def definition_predictions(
    train_sets: Sequence[np.ndarray], test_sets: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Each test set's labels under the pooled, ridge-regularized LDA."""
    means, pooled = definition_pooled(train_sets)
    weights = np.linalg.inv(pooled) @ means.T
    offsets = -0.5 * np.einsum("ck,kc->c", means, weights)
    return [np.argmax(m @ weights + offsets, axis=1) for m in test_sets]


def definition_lda(
    train_sets: Sequence[np.ndarray], test_sets: Sequence[np.ndarray]
) -> tuple[np.ndarray, float]:
    """Class means and test accuracy of the pooled, ridge-regularized LDA."""
    means, _ = definition_pooled(train_sets)
    predictions = definition_predictions(train_sets, test_sets)
    correct = sum(int((p == label).sum()) for label, p in enumerate(predictions))
    return means, correct / sum(len(m) for m in test_sets)
