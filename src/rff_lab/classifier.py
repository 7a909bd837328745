"""Linear discriminant analysis with equal priors, written from scratch.

Classes share one pooled covariance estimate: the within-class scatter
divided by ``N_total - C``, regularized by ``ridge * (trace / K)`` on the
diagonal (plain ``ridge`` when the trace is zero, i.e. all samples are
identical).  A sample is assigned to the class with the largest

    delta_c(x) = x . Sigma^-1 mu_c - 1/2 mu_c . Sigma^-1 mu_c + log prior_c

with ties resolved toward the lowest class index.  Class labels are the
device positions of the ``(C, N, K)`` tensor passed to `fit` / `accuracy`,
with an optional ``(C, N)`` kept mask of the rows to use (see
`silhouette.device_tensor`).  Both work on the whole tensor at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import require_at_least
from .silhouette import device_tensor

__all__ = ["LdaModel", "fit", "predict_batch", "accuracy"]

DEFAULT_RIDGE = 1e-6


@dataclass(frozen=True)
class LdaModel:
    """Fitted discriminant: per-class means, shared precision, priors."""

    class_means: np.ndarray  # (C, K)
    pooled_covariance_inverse: np.ndarray  # (K, K)
    priors: np.ndarray  # (C,), sums to 1

    def __post_init__(self) -> None:
        c, k = self.class_means.shape
        if self.pooled_covariance_inverse.shape != (k, k):
            raise ValueError("precision matrix does not match feature dimension")
        # np.isclose's tolerance, atol + rtol * 1, without its call
        if self.priors.shape != (c,) or not abs(self.priors.sum() - 1.0) <= 1e-8 + 1e-5:
            raise ValueError("priors must be one per class and sum to 1")
        for arr in (self.class_means, self.pooled_covariance_inverse, self.priors):
            arr.flags.writeable = False

    @property
    def n_classes(self) -> int:
        return self.class_means.shape[0]


def fit(
    train: np.ndarray, kept: np.ndarray | None = None, ridge: float = DEFAULT_RIDGE
) -> LdaModel:
    """Fit the discriminant on a (C, N, K) training tensor (class = position)."""
    require_at_least("ridge", ridge, 0)
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
    regularized = pooled + ridge * scale * np.eye(k)

    eigenvalues = np.linalg.eigvalsh(regularized)
    smallest = float(eigenvalues[0])
    largest = float(eigenvalues[-1])
    # Eigenvalues at rounding-noise scale (exact duplicates of a column land
    # around 1e-17 * largest) mean the matrix is numerically singular even
    # though the computed eigenvalue may be a hair above zero.
    floor = largest * np.finfo(float).eps * k
    if smallest <= floor or not np.isfinite(smallest):
        raise ValueError(
            "pooled covariance is singular after regularization: "
            f"smallest eigenvalue {smallest:.6g}"
        )

    precision = np.linalg.inv(regularized)
    priors = np.full(n_classes, 1.0 / n_classes)
    return LdaModel(
        class_means=means, pooled_covariance_inverse=precision, priors=priors
    )


def predict_batch(model: LdaModel, samples: np.ndarray) -> np.ndarray:
    """Class labels for an (n, K) batch; ties go to the lowest index."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != model.class_means.shape[1]:
        raise ValueError(f"expected (n, K) samples, got shape {samples.shape}")
    projected = model.pooled_covariance_inverse @ model.class_means.T  # (K, C)
    offsets = -0.5 * np.einsum(
        "ck,kc->c", model.class_means, projected
    ) + np.log(model.priors)
    scores = samples @ projected + offsets  # (n, C)
    # np.argmax returns the first (lowest-index) maximizer on ties.
    return np.argmax(scores, axis=1)


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
