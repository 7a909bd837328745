"""Linear discriminant analysis with equal priors, written from scratch.

Classes share one pooled covariance estimate: the within-class scatter
divided by ``N_total - C``, regularized by ``RIDGE * (trace / K)`` on the
diagonal (plain ``RIDGE`` when the trace is zero, i.e. each class's samples
are identical).  `fit` folds the class means and that precision into one linear
rule, and a sample is assigned to the class with the largest

    delta_c(x) = x . w_c + b_c,   w_c = Sigma^-1 mu_c,   b_c = -1/2 mu_c . w_c

with ties resolved toward the lowest class index.  Equal priors add the same
``log(1/C)`` to every class, so the rule leaves it out.  Class labels are the
device positions of the ``(C, N, K)`` tensor passed to `fit` / `accuracy`,
with an optional ``(C, N)`` kept mask of the rows to use (see
`silhouette.device_tensor`).  Both work on the whole tensor at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .silhouette import device_tensor

__all__ = ["LdaModel", "fit", "predict_batch", "accuracy"]

RIDGE = 1e-6


@dataclass(frozen=True)
class LdaModel:
    """Fitted discriminant: the class scores are ``x @ weights + offsets``."""

    weights: np.ndarray  # (K, C), Sigma^-1 mu^T
    offsets: np.ndarray  # (C,), -1/2 mu . Sigma^-1 mu

    def __post_init__(self) -> None:
        if self.weights.ndim != 2 or self.offsets.shape != self.weights.shape[1:]:
            raise ValueError("offsets must be one per class of the weights")
        for arr in (self.weights, self.offsets):
            arr.flags.writeable = False

    @property
    def n_classes(self) -> int:
        return self.weights.shape[1]


def fit(train: np.ndarray, kept: np.ndarray | None = None) -> LdaModel:
    """Fit the discriminant on a (C, N, K) training tensor (class = position)."""
    samples, mask = device_tensor(train, kept)
    if len(samples) < 2:
        raise ValueError("need at least two classes")
    counts = mask.sum(axis=1)
    if counts.min() < 1:
        raise ValueError("every class needs >= 1 kept sample")

    n_classes, _, k = samples.shape
    n_total = int(counts.sum())
    if n_total <= n_classes:
        raise ValueError("need more samples than classes to pool covariance")

    means = samples.sum(axis=1) / counts[:, None]
    centered = samples - means[:, None, :]
    if not mask.all():
        centered[~mask] = 0.0
    # The within-class scatter as one symmetric product of all centered rows.
    rows = centered.reshape(-1, k)
    pooled = (rows.T @ rows) / (n_total - n_classes)

    trace = float(np.trace(pooled))
    scale = trace / k if trace > 0.0 else 1.0
    # The ridge lifts every eigenvalue to at least RIDGE * scale, less the
    # Gram's rounding, while numerical singularity sits near eps * K * trace:
    # the two meet only for K of about 67,000, so the matrix is always
    # invertible.  What can fail is the scale itself: a non-finite trace, a
    # ridge below the smallest normal float, whose inverse overflows, or a zero
    # trace of samples that differ, whose squared deviations underflowed.
    underflowed = trace == 0.0 and centered.any()
    if underflowed or not (np.isfinite(trace) and RIDGE * scale >= np.finfo(float).tiny):
        raise ValueError(
            f"pooled covariance trace {trace:.6g} is not finite or too small "
            "to regularize"
        )
    precision = np.linalg.inv(pooled + RIDGE * scale * np.eye(k))
    weights = precision @ means.T
    offsets = -0.5 * np.einsum("ck,kc->c", means, weights)
    # Zero scatter leaves the plain RIDGE, which does not scale with the
    # features: identical samples near 1e150 square past the largest float.
    if not np.isfinite(offsets).all():
        raise ValueError("class offsets overflow: the features are too large to fit")
    return LdaModel(weights=weights, offsets=offsets)


def predict_batch(model: LdaModel, samples: np.ndarray) -> np.ndarray:
    """Class labels for an (n, K) batch; ties go to the lowest index."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != model.weights.shape[0]:
        raise ValueError(f"expected (n, K) samples, got shape {samples.shape}")
    # np.argmax returns the first (lowest-index) maximizer on ties.
    return np.argmax(samples @ model.weights + model.offsets, axis=1)


def accuracy(model: LdaModel, test: np.ndarray, kept: np.ndarray | None = None) -> float:
    """Fraction of kept test samples assigned to their own device (class = position)."""
    samples, mask = device_tensor(test, kept)
    if len(samples) != model.n_classes:
        raise ValueError("test sets must align with the fitted classes")
    total = int(mask.sum())
    if total == 0:
        raise ValueError("no test samples")
    n_classes, n, k = samples.shape
    predictions = predict_batch(model, samples.reshape(n_classes * n, k))
    own = predictions.reshape(n_classes, n) == np.arange(n_classes)[:, None]
    return int((own & mask).sum()) / total
