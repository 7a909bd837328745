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
An optional ``(D, N)`` kept mask leaves rows out (in a trial, the rows that
`normalize_block` finds finite); a row outside the mask counts for nothing,
whatever its values.  Every reduction below runs once over the whole
tensor, never once per device.

Full K-dimensional distances are used (not a single-subcarrier shortcut), and
the per-device mean of squared distances is evaluated through the exact
identity ``mean_m ||a - b_m||^2 = ||a||^2 - 2 a . mean(b) + mean_m ||b_m||^2``
so the cost is O(N*C*K) instead of O(N*M*K).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "device_tensor",
    "normalize_block",
    "silhouette_from_normalized",
]

#: Mean squared distances below K times this collapse to exactly 0.  Duplicate
#: samples otherwise leave rounding dust (~1e-31) in place of a true zero, and
#: the coefficient would become a ratio of dust instead of hitting the
#: defined-as-zero degenerate case.  Real distances between distinct
#: normalized samples are many orders of magnitude above this.
ZERO_DISTANCE_TOLERANCE = 1e-12


def device_tensor(
    samples: np.ndarray, kept: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """A phase's ``(D, N, K)`` samples and ``(D, N)`` kept mask (default: all rows).

    Rows outside the mask are zeroed in the returned tensor, so per-device
    sums over it count only the kept rows.
    """
    try:
        samples = np.asarray(samples, dtype=float)
    except ValueError:  # per-device sets of unequal shape
        raise ValueError("expected equal (N, K) sets of one consistent dimension") from None
    if samples.ndim != 3:
        raise ValueError(f"expected a (D, N, K) tensor, got shape {samples.shape}")
    if kept is None:
        return samples, np.ones(samples.shape[:2], dtype=bool)
    kept = np.asarray(kept, dtype=bool)
    if kept.shape != samples.shape[:2]:
        raise ValueError(f"kept mask has shape {kept.shape}, expected {samples.shape[:2]}")
    if not kept.all():
        samples = np.where(kept[..., None], samples, 0.0)
    return samples, kept


def normalize_block(
    matrix: np.ndarray, *, out: np.ndarray | None = None, square: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Z-normalize every row of an ``(..., K)`` array across its K entries.

    Returns the normalized array and a boolean array over the rows (the input
    shape without its last axis) marking the *finite* rows, those whose
    spread is finite.  A row with a non-finite entry, or whose sum or squared
    deviations overflow, is not finite and maps to all zeros.  A constant row
    cannot be normalized either and maps to all zeros, but it is finite
    unless its sum or its rounding dust squared overflows: a row is scaled
    only where its spread exceeds ``K * eps * |mean|``, the dust that a
    constant row's inexact mean leaves in its centered entries.

    ``out`` receives the normalized array and ``square`` the squared
    deviations, float64 arrays of the input's shape that overlap neither it
    nor each other; ``None`` allocates them.  The result does not depend on
    them.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim < 2 or matrix.shape[-1] < 2:
        raise ValueError(f"expected an (..., n, K>=2) array, got shape {matrix.shape}")
    # The steps of np.std, its means without np.mean's wrapper, keeping the
    # centered rows for the output.  A row that is not finite gives a spread
    # of inf or NaN, never a warning.
    k = matrix.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(matrix, axis=-1, keepdims=True) / k
        centered = np.subtract(matrix, mean, out=out)
        squared = np.multiply(centered, centered, out=square)
        std = np.sqrt(np.add.reduce(squared, axis=-1, keepdims=True) / k)
    finite = std[..., 0] < np.inf
    scaled = finite & (std[..., 0] > k * np.finfo(float).eps * np.abs(mean[..., 0]))
    if scaled.all():
        return np.divide(centered, std, out=centered), finite
    normalized = np.divide(centered, np.where(scaled[..., None], std, 1.0), out=centered)
    normalized[~scaled] = 0.0
    return normalized, finite


def _score(
    train: np.ndarray, train_mask: np.ndarray, test: np.ndarray, test_mask: np.ndarray
) -> float:
    """Silhouette score of normalized (D, N, K) tensors with their kept masks."""
    n_dev, _, k = train.shape
    # Per-device test moments: mean vector and mean squared norm.  Rows outside
    # the mask are zeros, so they add nothing to either sum.
    test_counts = test_mask.sum(axis=1)
    te_mean = test.sum(axis=1) / test_counts[:, None]  # (D, K)
    te_sq = (test**2).sum(axis=2).sum(axis=1) / test_counts  # (D,)

    row_sq = (train**2).sum(axis=2)  # (D, N)
    # dists[i, n, d] = mean over device d's test samples of ||train[i, n] - te||^2,
    # copied as others[d, i, n]: one contiguous (D, N) plane per test device,
    # so the inter minimum is an elementwise minimum of D planes.  The expanded
    # form can leave cancellation residue (negative or dust-positive) where the
    # true value is 0, so snap that band to exactly 0.
    dists = row_sq[:, :, None] - 2.0 * (train @ te_mean.T) + te_sq
    others = dists.transpose(2, 0, 1).copy()
    others[others < k * ZERO_DISTANCE_TOLERANCE] = 0.0
    device = np.arange(n_dev)
    intra = others[device, device]  # (D, N)
    others[device, device] = np.inf
    inter = np.minimum.reduce(others)
    biggest = np.maximum(inter, intra)
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.where(biggest > 0.0, (inter - intra) / np.where(biggest > 0.0, biggest, 1.0), 0.0)
    return float(coef[train_mask].mean())


def silhouette_from_normalized(
    train: np.ndarray,
    test: np.ndarray,
    train_kept: np.ndarray | None = None,
    test_kept: np.ndarray | None = None,
) -> float:
    """Silhouette score of already-normalized ``(D, N, K)`` train and test tensors.

    ``train_kept``/``test_kept`` are optional ``(D, N)`` masks of the rows to
    score; every device needs at least one kept row in each phase.  Result
    is in ``[-1, 1]``.
    """
    train, train_kept = device_tensor(train, train_kept)
    test, test_kept = device_tensor(test, test_kept)
    if train.shape[0] < 2 or test.shape[0] != train.shape[0]:
        raise ValueError("need >= 2 devices with aligned train and test sets")
    if (
        train.shape[2] != test.shape[2]
        or not train_kept.any(axis=1).all()
        or not test_kept.any(axis=1).all()
    ):
        raise ValueError("every device needs >= 1 sample of consistent dimension")
    return _score(train, train_kept, test, test_kept)
