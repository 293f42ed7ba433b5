"""Immutable data containers for labeled and unlabeled samples."""

from dataclasses import dataclass

import numpy as np


def _as_features(x) -> np.ndarray:
    f = np.asarray(x, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("features contain non-finite values")
    return f


@dataclass
class LabeledSample:
    """Feature matrix with labels, optional dataset-of-origin tags, and
    optional per-row importance weights.

    Weights are density ratios attached by task construction; rows that
    fall outside the target support carry weight exactly 0.
    """

    features: np.ndarray
    labels: np.ndarray
    origin: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.features = _as_features(self.features)
        self.labels = np.asarray(self.labels)
        if not np.can_cast(self.labels.dtype, np.int64):  # floats and uint64 included
            raise ValueError(f"labels must be integers within int64, got dtype {self.labels.dtype}")
        self.labels = self.labels.astype(np.int64)
        m = self.features.shape[0]
        if self.labels.shape != (m,):
            raise ValueError("labels length does not match features")
        if self.origin is not None:
            self.origin = np.asarray(self.origin, dtype=np.int64)
            if self.origin.shape != (m,):
                raise ValueError("origin length does not match features")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != (m,):
                raise ValueError("weights length does not match features")
            if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
                raise ValueError("weights must be finite and >= 0")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledSample":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledSample(
            features=self.features[idx],
            labels=self.labels[idx],
            origin=None if self.origin is None else self.origin[idx],
            weights=None if self.weights is None else self.weights[idx],
        )

    def unlabeled(self) -> "UnlabeledSample":
        return UnlabeledSample(features=self.features)


@dataclass
class UnlabeledSample:
    """Feature matrix without labels (the observable view of a target sample)."""

    features: np.ndarray

    def __post_init__(self):
        self.features = _as_features(self.features)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]
