"""Per-sample feature normalization and the train-vs-test silhouette score.

Every feature vector is z-normalized across its own subcarriers (population
standard deviation, divisor K).  For the n-th *training* sample of device i:

* intra distance — mean squared Euclidean distance from that sample to all of
  device i's *test* samples;
* inter distance — for every other device, the mean squared distance to that
  device's test samples; the smallest of those per-device means is taken;
* coefficient — ``(inter - intra) / max(inter, intra)``, defined as 0 when
  ``max(inter, intra) <= 0`` (no separation evidence).

The score is the average coefficient over all training samples of all
devices, always in ``[-1, 1]``.  Distances pair training samples against test
sets only — training samples are never compared with each other.

Full K-dimensional distances are used (not a single-subcarrier shortcut), and
the per-device mean of squared distances is evaluated through the exact
identity ``mean_m ||a - b_m||^2 = ||a||^2 - 2 a . mean(b) + mean_m ||b_m||^2``
so the cost is O(N*C*K) instead of O(N*M*K).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "NormalizedSample",
    "SilhouetteBreakdown",
    "normalize",
    "normalize_block",
    "intra_distance",
    "inter_distance",
    "silhouette_score",
    "silhouette_from_normalized",
]

#: Mean squared distances below K times this collapse to exactly 0.  Duplicate
#: samples otherwise leave rounding dust (~1e-31) in place of a true zero, and
#: the coefficient would become a ratio of dust instead of hitting the
#: defined-as-zero degenerate case.  Real distances between distinct
#: normalized samples are many orders of magnitude above this.
ZERO_DISTANCE_TOLERANCE = 1e-12


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


def normalize_block(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise `normalize` of an (n, K) matrix.

    Returns the normalized matrix and a boolean vector marking degenerate
    (constant, mapped-to-zero) rows.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] < 2:
        raise ValueError(f"expected an (n, K>=2) matrix, got shape {matrix.shape}")
    std = matrix.std(axis=1, keepdims=True)
    degenerate = std[:, 0] == 0.0
    safe_std = np.where(std == 0.0, 1.0, std)
    out = (matrix - matrix.mean(axis=1, keepdims=True)) / safe_std
    out[degenerate] = 0.0
    return out, degenerate


def _as_matrix(samples: Sequence[NormalizedSample]) -> np.ndarray:
    return np.stack([s.values for s in samples])


def intra_distance(
    train: NormalizedSample, test_set: Sequence[NormalizedSample], k: int
) -> float:
    """Mean squared distance from one training sample to its own test set."""
    if len(test_set) == 0:
        raise ValueError("test_set must be nonempty")
    mat = _as_matrix(test_set)
    _check_k(train, mat, k)
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


def _check_k(train: NormalizedSample, mat: np.ndarray, k: int) -> None:
    if train.values.shape != (k,) or mat.shape[1] != k:
        raise ValueError(
            f"inconsistent dimensions: train {train.values.shape}, "
            f"test {mat.shape}, expected K={k}"
        )


def silhouette_from_normalized(
    train_sets: Sequence[np.ndarray], test_sets: Sequence[np.ndarray]
) -> float:
    """Silhouette score over already-normalized per-device (n, K) matrices."""
    n_dev = len(train_sets)
    if n_dev < 2 or len(test_sets) != n_dev:
        raise ValueError("need >= 2 devices with aligned train and test sets")
    k = train_sets[0].shape[1]
    for mat in (*train_sets, *test_sets):
        if mat.ndim != 2 or mat.shape[1] != k or mat.shape[0] < 1:
            raise ValueError("every device needs >= 1 sample of consistent dimension")

    # Per-device test moments: mean vector and mean squared norm.
    te_mean = np.stack([mat.mean(axis=0) for mat in test_sets])  # (C, K)
    te_sq = np.array([(mat**2).sum(axis=1).mean() for mat in test_sets])  # (C,)

    coefficients: list[np.ndarray] = []
    for i, train in enumerate(train_sets):
        row_sq = (train**2).sum(axis=1)  # (n_i,)
        # dists[n, d] = mean over device d's test samples of ||train_n - te||^2;
        # the expanded form can leave cancellation residue (negative or dust-
        # positive) where the true value is 0, so snap that band to exactly 0.
        dists = row_sq[:, None] - 2.0 * (train @ te_mean.T) + te_sq[None, :]
        dists = np.where(dists < k * ZERO_DISTANCE_TOLERANCE, 0.0, dists)
        intra = dists[:, i]
        inter = np.min(np.delete(dists, i, axis=1), axis=1)
        biggest = np.maximum(inter, intra)
        with np.errstate(invalid="ignore", divide="ignore"):
            coef = np.where(biggest > 0.0, (inter - intra) / np.where(biggest > 0.0, biggest, 1.0), 0.0)
        coefficients.append(coef)
    return float(np.concatenate(coefficients).mean())


def silhouette_score(
    train_sets: Sequence[np.ndarray], test_sets: Sequence[np.ndarray]
) -> float:
    """Average silhouette coefficient over all devices' training samples.

    Accepts per-device (n, K) matrices of *raw* features; every sample is
    normalized here.  Result is in ``[-1, 1]``.
    """
    train_norm = [normalize_block(ts)[0] for ts in train_sets]
    test_norm = [normalize_block(ts)[0] for ts in test_sets]
    return silhouette_from_normalized(train_norm, test_norm)
