"""Dataset loading: IDX image/label files, pooling, and synthetic clusters.

Feature matrices are d x N with values in [0, 1]; labels are one-hot
classes x N. IDX files may be gzip-compressed (detected by suffix or the
gzip signature).
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """An IDX file violates the format; the message names the byte offset."""


@dataclass
class Dataset:
    x: np.ndarray          # d x N, values in [0, 1]
    y: np.ndarray          # classes x N, one-hot
    name: str
    split: str             # "train" or "test"

    @property
    def n_samples(self) -> int:
        return self.x.shape[1]

    @property
    def features(self) -> int:
        return self.x.shape[0]

    @property
    def classes(self) -> int:
        return self.y.shape[0]


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    """(classes x N) one-hot matrix from integer labels."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(f"labels outside [0, {classes})")
    out = np.zeros((classes, labels.size))
    out[labels, np.arange(labels.size)] = 1.0
    return out


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        head = f.read(2)
        f.seek(0)
        if path.endswith(".gz") or head == b"\x1f\x8b":
            return gzip.open(f).read()
        return f.read()


def _read_u32(raw: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(raw):
        raise IdxFormatError(f"{path}: truncated header at offset {offset}")
    return struct.unpack_from(">I", raw, offset)[0]


def load_idx(images_path: str, labels_path: str, classes: int = 10,
             name: str = "idx", split: str = "train") -> Dataset:
    """Parse a big-endian IDX image/label pair into a Dataset.

    Pixels are scaled by 1/255. Raises IdxFormatError on a bad magic
    number, a truncated payload, or an image/label count mismatch.
    """
    raw_img = _read_bytes(images_path)
    magic = _read_u32(raw_img, 0, images_path)
    if magic != IMAGE_MAGIC:
        raise IdxFormatError(
            f"{images_path}: bad image magic 0x{magic:08X} at offset 0 "
            f"(expected 0x{IMAGE_MAGIC:08X})"
        )
    n = _read_u32(raw_img, 4, images_path)
    rows = _read_u32(raw_img, 8, images_path)
    cols = _read_u32(raw_img, 12, images_path)
    need = 16 + n * rows * cols
    if len(raw_img) < need:
        raise IdxFormatError(
            f"{images_path}: truncated pixel data at offset {len(raw_img)} "
            f"(expected {need} bytes)"
        )
    pixels = np.frombuffer(raw_img, dtype=np.uint8, count=n * rows * cols, offset=16)

    raw_lab = _read_bytes(labels_path)
    magic = _read_u32(raw_lab, 0, labels_path)
    if magic != LABEL_MAGIC:
        raise IdxFormatError(
            f"{labels_path}: bad label magic 0x{magic:08X} at offset 0 "
            f"(expected 0x{LABEL_MAGIC:08X})"
        )
    n_lab = _read_u32(raw_lab, 4, labels_path)
    if n_lab != n:
        raise IdxFormatError(
            f"{labels_path}: {n_lab} labels but {images_path} has {n} images"
        )
    if len(raw_lab) < 8 + n:
        raise IdxFormatError(
            f"{labels_path}: truncated label data at offset {len(raw_lab)} "
            f"(expected {8 + n} bytes)"
        )
    labels = np.frombuffer(raw_lab, dtype=np.uint8, count=n, offset=8)

    x = (pixels.reshape(n, rows * cols).T / 255.0).astype(np.float64)
    return Dataset(x=x, y=one_hot(labels, classes), name=name, split=split)


def downsample_196(ds: Dataset) -> Dataset:
    """2x2 average pooling of 28x28 images down to 14x14 = 196 features."""
    if ds.features != 784:
        raise ValueError(f"downsample_196 expects 784 features, got {ds.features}")
    n = ds.n_samples
    imgs = ds.x.T.reshape(n, 28, 28)
    pooled = imgs.reshape(n, 14, 2, 14, 2).mean(axis=(2, 4))
    return Dataset(x=pooled.reshape(n, 196).T.copy(), y=ds.y, name=ds.name, split=ds.split)


def synth_gaussian_blobs(classes: int, d: int, n_per_class: int, seed: int,
                         noise: float = 0.08, name: str = "blobs",
                         split: str = "train") -> Dataset:
    """Seeded class-separated Gaussian clusters clipped to [0, 1].

    ``seed`` fixes the class means. The train split draws its samples from
    the same stream as the means; any other split draws them around the
    same means from a stream of its own, so a test split is a fresh sample
    of the training clusters. Samples are shuffled so classes interleave.
    """
    if classes < 1 or d < 1 or n_per_class < 1:
        raise ValueError("classes, d and n_per_class must all be >= 1")
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.15, 0.85, size=(classes, d))
    if split != "train":
        rng = np.random.default_rng([seed, 1])
    n = classes * n_per_class
    x = np.empty((d, n))
    labels = np.empty(n, dtype=np.int64)
    for c in range(classes):
        sl = slice(c * n_per_class, (c + 1) * n_per_class)
        x[:, sl] = means[c][:, None] + rng.normal(0.0, noise, size=(d, n_per_class))
        labels[sl] = c
    perm = rng.permutation(n)
    x = np.clip(x[:, perm], 0.0, 1.0)
    return Dataset(x=x, y=one_hot(labels[perm], classes), name=name, split=split)


def take_subset(ds: Dataset, n: int, seed: int) -> Dataset:
    """First n samples after a seeded shuffle."""
    if n > ds.n_samples:
        raise ValueError(f"requested {n} samples, dataset has {ds.n_samples}")
    perm = np.random.default_rng(seed).permutation(ds.n_samples)[:n]
    return Dataset(x=ds.x[:, perm].copy(), y=ds.y[:, perm].copy(),
                   name=ds.name, split=ds.split)
