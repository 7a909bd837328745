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

A phase's samples are one ``(D, N, K)`` tensor: device, sample, subcarrier.
Per-device sets of unequal size are zero-padded to the largest and carry a
``(D, N)`` mask of their real rows (`device_tensor`); every reduction
below runs once over the whole tensor, never once per device.

Full K-dimensional distances are used (not a single-subcarrier shortcut), and
the per-device mean of squared distances is evaluated through the exact
identity ``mean_m ||a - b_m||^2 = ||a||^2 - 2 a . mean(b) + mean_m ||b_m||^2``
so the cost is O(N*C*K) instead of O(N*M*K).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "device_tensor",
    "normalize_block",
    "silhouette_score",
    "silhouette_from_normalized",
]

#: Mean squared distances below K times this collapse to exactly 0.  Duplicate
#: samples otherwise leave rounding dust (~1e-31) in place of a true zero, and
#: the coefficient would become a ratio of dust instead of hitting the
#: defined-as-zero degenerate case.  Real distances between distinct
#: normalized samples are many orders of magnitude above this.
ZERO_DISTANCE_TOLERANCE = 1e-12

#: Per-device sample sets: a (D, N, K) tensor, or D matrices of shape (n_d, K).
DeviceSets = np.ndarray | Sequence[np.ndarray]


def device_tensor(sets: DeviceSets) -> tuple[np.ndarray, np.ndarray]:
    """Per-device sample sets as one ``(D, N, K)`` tensor and its ``(D, N)`` row mask.

    A three-dimensional array already holds N rows for every device and is
    used as it is.  Matrices of unequal height are zero-padded at the end to
    the tallest; the mask marks each device's real rows, which come first.
    """
    if isinstance(sets, np.ndarray) and sets.ndim == 3:
        return np.asarray(sets, dtype=float), np.ones(sets.shape[:2], dtype=bool)
    mats = [np.asarray(m, dtype=float) for m in sets]
    k = mats[0].shape[-1] if mats else 0
    if not mats or any(m.ndim != 2 or m.shape[1] != k for m in mats):
        raise ValueError("expected per-device (n, K) sets of one consistent dimension")
    sizes = np.array([m.shape[0] for m in mats])
    tensor = np.zeros((len(mats), int(sizes.max()), k))
    for rows, mat in zip(tensor, mats):
        rows[: mat.shape[0]] = mat
    return tensor, np.arange(tensor.shape[1]) < sizes[:, None]


def normalize_block(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z-normalize every row of an ``(..., K)`` array across its K entries.

    Returns the normalized array and a boolean array over the rows (the input
    shape without its last axis) marking degenerate rows: a constant row
    cannot be normalized and maps to all zeros instead.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim < 2 or matrix.shape[-1] < 2:
        raise ValueError(f"expected an (..., n, K>=2) array, got shape {matrix.shape}")
    # The steps of np.std, keeping the centered rows for the output.
    centered = matrix - matrix.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True))
    degenerate = std[..., 0] == 0.0
    out = centered / np.where(std == 0.0, 1.0, std)
    out[degenerate] = 0.0
    return out, degenerate


def _score(
    train: np.ndarray, train_mask: np.ndarray, test: np.ndarray, test_mask: np.ndarray
) -> float:
    """Silhouette score of normalized, padded (D, N, K) tensors."""
    n_dev, _, k = train.shape
    # Per-device test moments: mean vector and mean squared norm.  Padded rows
    # are zeros, so they add nothing to either sum.
    test_counts = test_mask.sum(axis=1)
    te_mean = test.sum(axis=1) / test_counts[:, None]  # (D, K)
    te_sq = (test**2).sum(axis=2).sum(axis=1) / test_counts  # (D,)

    row_sq = (train**2).sum(axis=2)  # (D, N)
    # dists[i, n, d] = mean over device d's test samples of ||train[i, n] - te||^2;
    # the expanded form can leave cancellation residue (negative or dust-
    # positive) where the true value is 0, so snap that band to exactly 0.
    dists = row_sq[:, :, None] - 2.0 * (train @ te_mean.T) + te_sq
    dists = np.where(dists < k * ZERO_DISTANCE_TOLERANCE, 0.0, dists)
    own = np.eye(n_dev, dtype=bool)[:, None, :]  # (D, 1, D): d == i
    intra = np.diagonal(dists, axis1=0, axis2=2).T  # (D, N)
    inter = np.where(own, np.inf, dists).min(axis=2)
    biggest = np.maximum(inter, intra)
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.where(biggest > 0.0, (inter - intra) / np.where(biggest > 0.0, biggest, 1.0), 0.0)
    return float(coef[train_mask].mean())


def _phase_tensors(
    train_sets: DeviceSets, test_sets: DeviceSets
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    n_dev = len(train_sets)
    if n_dev < 2 or len(test_sets) != n_dev:
        raise ValueError("need >= 2 devices with aligned train and test sets")
    train, train_mask = device_tensor(train_sets)
    test, test_mask = device_tensor(test_sets)
    if (
        train.shape[2] != test.shape[2]
        or not train_mask.any(axis=1).all()
        or not test_mask.any(axis=1).all()
    ):
        raise ValueError("every device needs >= 1 sample of consistent dimension")
    return train, train_mask, test, test_mask


def silhouette_from_normalized(train_sets: DeviceSets, test_sets: DeviceSets) -> float:
    """Silhouette score over already-normalized per-device samples.

    Each phase is a (D, N, K) tensor or D per-device (n, K) matrices.
    """
    return _score(*_phase_tensors(train_sets, test_sets))


def silhouette_score(train_sets: DeviceSets, test_sets: DeviceSets) -> float:
    """Average silhouette coefficient over all devices' training samples.

    Accepts per-device samples of *raw* features, as for
    `silhouette_from_normalized`; every sample is normalized here.  Result is
    in ``[-1, 1]``.
    """
    train, train_mask, test, test_mask = _phase_tensors(train_sets, test_sets)
    return _score(normalize_block(train)[0], train_mask, normalize_block(test)[0], test_mask)
