"""Dataset container and workload loading helpers.

A :class:`Dataset` bundles an image tensor, integer labels and descriptive
metadata.  It is deliberately immutable-ish (arrays are stored read-only) so
that fault-injection experiments can share one dataset object across many
trials without accidental cross-contamination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.utils.rng import RNGLike, resolve_rng

__all__ = ["Dataset", "load_workload", "train_test_split"]


@dataclass(frozen=True)
class Dataset:
    """Immutable image-classification dataset.

    Attributes
    ----------
    images:
        Float array of shape ``(n_samples, height, width)`` with values in
        ``[0, 1]``.
    labels:
        Integer array of shape ``(n_samples,)`` with class ids in
        ``[0, n_classes)``.
    name:
        Human-readable workload name (``"synthetic-mnist"`` etc.).
    metadata:
        Free-form provenance information (generator seed, jitter settings…).
    """

    images: np.ndarray
    labels: np.ndarray
    name: str = "unnamed"
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        images = np.asarray(self.images, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if images.ndim != 3:
            raise ValueError(
                f"images must have shape (n, height, width), got {images.shape}"
            )
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        if images.shape[0] != labels.shape[0]:
            raise ValueError(
                f"images ({images.shape[0]}) and labels ({labels.shape[0]}) "
                "must have the same number of samples"
            )
        if images.size and (images.min() < 0.0 or images.max() > 1.0):
            raise ValueError("image values must lie in [0, 1]")
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be non-negative integers")
        images.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.images.shape[0])

    def __iter__(self) -> Iterator[Tuple[np.ndarray, int]]:
        for index in range(len(self)):
            yield self.images[index], int(self.labels[index])

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])

    # ------------------------------------------------------------------ #
    # derived properties
    # ------------------------------------------------------------------ #
    @property
    def image_shape(self) -> Tuple[int, int]:
        """Height and width of a single image."""
        return int(self.images.shape[1]), int(self.images.shape[2])

    @property
    def n_pixels(self) -> int:
        """Number of pixels per image — the SNN input dimension."""
        height, width = self.image_shape
        return height * width

    @property
    def n_classes(self) -> int:
        """Number of distinct classes present in the labels."""
        if self.labels.size == 0:
            return 0
        return int(self.labels.max()) + 1

    def class_counts(self) -> Dict[int, int]:
        """Return a mapping from class id to sample count."""
        unique, counts = np.unique(self.labels, return_counts=True)
        return {int(cls): int(count) for cls, count in zip(unique, counts)}

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def flattened_images(self) -> np.ndarray:
        """Return images flattened to ``(n_samples, n_pixels)``."""
        return self.images.reshape(len(self), -1).copy()

    def subset(self, indices: np.ndarray, name_suffix: str = "subset") -> "Dataset":
        """Return a new dataset restricted to *indices* (order preserved)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self)):
            raise IndexError("subset indices out of range")
        return Dataset(
            images=self.images[indices].copy(),
            labels=self.labels[indices].copy(),
            name=f"{self.name}/{name_suffix}",
            metadata=dict(self.metadata),
        )

    def take(self, n_samples: int, rng: RNGLike = None) -> "Dataset":
        """Return a random subset of *n_samples* items (without replacement)."""
        if n_samples < 0:
            raise ValueError(f"n_samples must be non-negative, got {n_samples}")
        if n_samples > len(self):
            raise ValueError(
                f"cannot take {n_samples} samples from a dataset of {len(self)}"
            )
        generator = resolve_rng(rng)
        indices = generator.choice(len(self), size=n_samples, replace=False)
        return self.subset(np.sort(indices), name_suffix=f"take{n_samples}")

    def shuffled(self, rng: RNGLike = None) -> "Dataset":
        """Return a new dataset with samples in random order."""
        generator = resolve_rng(rng)
        order = generator.permutation(len(self))
        return self.subset(order, name_suffix="shuffled")


def train_test_split(
    dataset: Dataset,
    test_fraction: float = 0.2,
    rng: RNGLike = None,
    stratified: bool = True,
) -> Tuple[Dataset, Dataset]:
    """Split *dataset* into train and test subsets.

    Parameters
    ----------
    dataset:
        The dataset to split.
    test_fraction:
        Fraction of samples placed in the test set, in ``(0, 1)``.
    rng:
        Seed or generator controlling the split.
    stratified:
        If true (default), the split keeps per-class proportions so each
        class appears in both subsets whenever it has at least two samples.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    if len(dataset) < 2:
        raise ValueError("dataset must contain at least two samples to split")
    generator = resolve_rng(rng)

    if stratified:
        test_indices = []
        for cls in np.unique(dataset.labels):
            cls_indices = np.flatnonzero(dataset.labels == cls)
            cls_indices = generator.permutation(cls_indices)
            n_test = max(1, int(round(test_fraction * cls_indices.size)))
            n_test = min(n_test, cls_indices.size - 1) if cls_indices.size > 1 else 0
            test_indices.append(cls_indices[:n_test])
        test_idx = (
            np.sort(np.concatenate(test_indices))
            if test_indices
            else np.array([], dtype=np.int64)
        )
    else:
        order = generator.permutation(len(dataset))
        n_test = max(1, int(round(test_fraction * len(dataset))))
        test_idx = np.sort(order[:n_test])

    mask = np.zeros(len(dataset), dtype=bool)
    mask[test_idx] = True
    train_idx = np.flatnonzero(~mask)
    return (
        dataset.subset(train_idx, name_suffix="train"),
        dataset.subset(test_idx, name_suffix="test"),
    )


def load_workload(
    name: str,
    n_samples: int = 200,
    rng: RNGLike = None,
    **generator_kwargs: object,
) -> Dataset:
    """Generate one of the named synthetic workloads.

    Parameters
    ----------
    name:
        ``"mnist"`` / ``"synthetic-mnist"`` or ``"fashion"`` /
        ``"fashion-mnist"`` / ``"synthetic-fashion-mnist"``.
    n_samples:
        Number of images to generate.
    rng:
        Seed or generator for reproducible generation.
    generator_kwargs:
        Extra keyword arguments forwarded to the generator constructor.
    """
    # Imported here to avoid a circular import at package-initialisation time.
    from repro.data.synthetic_fashion import SyntheticFashionMNIST
    from repro.data.synthetic_mnist import SyntheticMNIST

    key = name.strip().lower()
    if key in {"mnist", "synthetic-mnist", "digits"}:
        generator = SyntheticMNIST(**generator_kwargs)
    elif key in {"fashion", "fashion-mnist", "synthetic-fashion-mnist"}:
        generator = SyntheticFashionMNIST(**generator_kwargs)
    else:
        raise ValueError(
            "unknown workload name "
            f"{name!r}; expected 'mnist' or 'fashion-mnist' (synthetic variants)"
        )
    return generator.generate(n_samples=n_samples, rng=rng)
