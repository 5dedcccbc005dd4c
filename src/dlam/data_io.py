"""Dataset loading: IDX image/label files, pooling, and synthetic clusters.

Feature matrices are d x N with values in [0, 1]; labels are one-hot
classes x N. IDX files may be gzip-compressed (detected by suffix or the
gzip signature).
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
IDX_CLASSES = 10          # MNIST and Fashion-MNIST both label the digits 0..9


class IdxFormatError(ValueError):
    """A malformed IDX file or a damaged gzip stream; the message names the path."""


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
        if not (path.endswith(".gz") or head == b"\x1f\x8b"):
            return f.read()
        try:
            return gzip.open(f).read()
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise IdxFormatError(f"{path}: unreadable gzip stream ({exc})") from None


def _read_u32(raw: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(raw):
        raise IdxFormatError(f"{path}: truncated header at offset {offset}")
    return struct.unpack_from(">I", raw, offset)[0]


def _read_idx(path: str, magic: int, count: tuple[str, int] | None = None
              ) -> tuple[list[int], np.ndarray]:
    """The dimensions and uint8 payload of the IDX file at ``path``.

    ``magic`` is the expected magic number, whose low byte is the number of
    dimensions. ``count``, when given, is (images path, image count), which
    the first dimension must equal; it is checked before the payload.
    """
    kind, unit = {IMAGE_MAGIC: ("image", "pixel"), LABEL_MAGIC: ("label", "label")}[magic]
    raw = _read_bytes(path)
    found = _read_u32(raw, 0, path)
    if found != magic:
        raise IdxFormatError(
            f"{path}: bad {kind} magic 0x{found:08X} at offset 0 (expected 0x{magic:08X})")
    dims = [_read_u32(raw, 4 * i, path) for i in range(1, 1 + (magic & 0xFF))]
    if count is not None and dims[0] != count[1]:
        raise IdxFormatError(f"{path}: {dims[0]} {kind}s but {count[0]} has {count[1]} images")
    start, size = 4 + 4 * len(dims), math.prod(dims)
    if len(raw) < start + size:
        raise IdxFormatError(f"{path}: truncated {unit} data at offset {len(raw)} "
                             f"(expected {start + size} bytes)")
    return dims, np.frombuffer(raw, dtype=np.uint8, count=size, offset=start)


def load_idx(images_path: str, labels_path: str, name: str = "idx",
             split: str = "train") -> Dataset:
    """Parse a big-endian IDX image/label pair into a Dataset of IDX_CLASSES classes.

    Pixels are scaled by 1/255. Raises IdxFormatError on a damaged gzip
    stream, a bad magic number, a truncated payload, a count mismatch or a
    label outside [0, IDX_CLASSES).
    """
    (n, rows, cols), pixels = _read_idx(images_path, IMAGE_MAGIC)
    _, labels = _read_idx(labels_path, LABEL_MAGIC, (images_path, n))
    if n and labels.max() >= IDX_CLASSES:
        at = int(np.argmax(labels >= IDX_CLASSES))
        raise IdxFormatError(f"{labels_path}: label {labels[at]} at offset {8 + at} "
                             f"outside [0, {IDX_CLASSES})")

    x = (pixels.reshape(n, rows * cols).T / 255.0).astype(np.float64)
    return Dataset(x=x, y=one_hot(labels, IDX_CLASSES), name=name, split=split)


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
    if not 0 <= noise < np.inf:
        raise ValueError(f"blobs noise must be finite and >= 0, got {noise}")
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
    if not 0 <= n <= ds.n_samples:
        raise ValueError(f"requested {n} samples, dataset has {ds.n_samples}")
    perm = np.random.default_rng(seed).permutation(ds.n_samples)[:n]
    return Dataset(x=ds.x[:, perm].copy(), y=ds.y[:, perm].copy(),
                   name=ds.name, split=ds.split)
