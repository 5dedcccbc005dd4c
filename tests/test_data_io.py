import gzip
import os
import struct

import numpy as np
import pytest

from dlam import data_io


def _write_idx_pair(tmp_path, images, labels, gz=False):
    """Serialize a (N, rows, cols) uint8 image stack and labels as IDX files."""
    n, rows, cols = images.shape
    img_bytes = struct.pack(">IIII", data_io.IMAGE_MAGIC, n, rows, cols) + images.tobytes()
    lab_bytes = struct.pack(">II", data_io.LABEL_MAGIC, len(labels)) + labels.tobytes()
    suffix = ".gz" if gz else ""
    img_path = tmp_path / f"images-idx3-ubyte{suffix}"
    lab_path = tmp_path / f"labels-idx1-ubyte{suffix}"
    opener = gzip.open if gz else open
    with opener(img_path, "wb") as f:
        f.write(img_bytes)
    with opener(lab_path, "wb") as f:
        f.write(lab_bytes)
    return str(img_path), str(lab_path)


@pytest.fixture
def idx_pair(tmp_path, rng):
    images = rng.integers(0, 256, size=(12, 5, 4), dtype=np.uint8)
    labels = rng.integers(0, 10, size=12, dtype=np.uint8)
    return _write_idx_pair(tmp_path, images, labels), (images, labels)


class TestLoadIdx:
    def test_round_trip(self, idx_pair):
        (img_path, lab_path), (images, labels) = idx_pair
        ds = data_io.load_idx(img_path, lab_path)
        assert ds.n_samples == 12 and ds.features == 20 and ds.classes == 10
        assert np.allclose(ds.x[:, 3], images[3].ravel() / 255.0)
        assert np.all(ds.x >= 0.0) and np.all(ds.x <= 1.0)
        assert np.array_equal(ds.y.argmax(axis=0), labels)
        assert np.all(ds.y.sum(axis=0) == 1.0)

    def test_loading_twice_identical(self, idx_pair):
        (img_path, lab_path), _ = idx_pair
        a = data_io.load_idx(img_path, lab_path)
        b = data_io.load_idx(img_path, lab_path)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_gzip_round_trip(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(5, 3, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=5, dtype=np.uint8)
        img_path, lab_path = _write_idx_pair(tmp_path, images, labels, gz=True)
        ds = data_io.load_idx(img_path, lab_path)
        assert ds.n_samples == 5 and ds.features == 9

    def test_bad_image_magic(self, tmp_path, rng):
        img_path = tmp_path / "bad"
        img_path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        lab_path = tmp_path / "labels"
        lab_path.write_bytes(struct.pack(">II", data_io.LABEL_MAGIC, 1) + b"\x00")
        with pytest.raises(data_io.IdxFormatError, match="offset 0"):
            data_io.load_idx(str(img_path), str(lab_path))

    def test_truncated_pixels(self, tmp_path):
        img_path = tmp_path / "trunc"
        img_path.write_bytes(struct.pack(">IIII", data_io.IMAGE_MAGIC, 4, 2, 2) + b"\x00" * 7)
        lab_path = tmp_path / "labels"
        lab_path.write_bytes(struct.pack(">II", data_io.LABEL_MAGIC, 4) + b"\x00" * 4)
        with pytest.raises(data_io.IdxFormatError, match="truncated"):
            data_io.load_idx(str(img_path), str(lab_path))

    def test_count_mismatch(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8)
        labels = rng.integers(0, 10, size=3, dtype=np.uint8)
        img_path, lab_path = _write_idx_pair(tmp_path, images, labels)
        other = tmp_path / "other-labels"
        other.write_bytes(struct.pack(">II", data_io.LABEL_MAGIC, 5) + b"\x00" * 5)
        with pytest.raises(data_io.IdxFormatError, match="labels"):
            data_io.load_idx(img_path, str(other))


class TestDownsample:
    def _dataset(self, x):
        n = x.shape[1]
        y = data_io.one_hot(np.zeros(n, dtype=int), 10)
        return data_io.Dataset(x=x, y=y, name="t", split="train")

    def test_constant_image(self):
        ds = self._dataset(np.full((784, 3), 0.37))
        out = data_io.downsample_196(ds)
        assert out.features == 196
        assert np.allclose(out.x, 0.37)

    def test_checkerboard_averages_to_half(self):
        img = np.indices((28, 28)).sum(axis=0) % 2
        ds = self._dataset(img.reshape(784, 1).astype(float))
        out = data_io.downsample_196(ds)
        assert np.allclose(out.x, 0.5)

    def test_matches_naive_pooling(self, rng):
        x = rng.uniform(0, 1, (784, 2))
        out = data_io.downsample_196(self._dataset(x))
        img = x[:, 1].reshape(28, 28)
        expect = np.zeros((14, 14))
        for i in range(14):
            for j in range(14):
                expect[i, j] = img[2 * i:2 * i + 2, 2 * j:2 * j + 2].mean()
        assert np.allclose(out.x[:, 1], expect.ravel(), atol=1e-12)

    def test_wrong_feature_count(self):
        ds = self._dataset(np.zeros((100, 2)))
        with pytest.raises(ValueError):
            data_io.downsample_196(ds)


class TestBlobs:
    def test_deterministic(self):
        a = data_io.synth_gaussian_blobs(3, 5, 10, seed=4)
        b = data_io.synth_gaussian_blobs(3, 5, 10, seed=4)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_counts_and_range(self):
        ds = data_io.synth_gaussian_blobs(4, 6, 1, seed=1)
        assert ds.n_samples == 4 and ds.features == 6 and ds.classes == 4
        assert np.all(ds.x >= 0.0) and np.all(ds.x <= 1.0)
        assert np.all(ds.y.sum(axis=0) == 1.0)

    def test_other_split_draws_fresh_samples(self):
        train = data_io.synth_gaussian_blobs(3, 5, 40, seed=2)
        test = data_io.synth_gaussian_blobs(3, 5, 40, seed=2, split="test")
        assert test.split == "test"
        assert not np.array_equal(train.x, test.x)
        assert np.array_equal(train.y.sum(axis=1), test.y.sum(axis=1))

    def test_validates_counts(self):
        with pytest.raises(ValueError):
            data_io.synth_gaussian_blobs(0, 5, 10, seed=1)


class TestSubset:
    def test_deterministic_and_sized(self):
        ds = data_io.synth_gaussian_blobs(3, 5, 20, seed=3)
        a = data_io.take_subset(ds, 10, seed=7)
        b = data_io.take_subset(ds, 10, seed=7)
        assert a.n_samples == 10
        assert np.array_equal(a.x, b.x)

    def test_too_large_rejected(self):
        ds = data_io.synth_gaussian_blobs(2, 3, 5, seed=3)
        with pytest.raises(ValueError):
            data_io.take_subset(ds, 11, seed=0)


class TestOneHot:
    def test_basic(self):
        y = data_io.one_hot(np.array([0, 2, 1]), 3)
        assert np.array_equal(y, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            data_io.one_hot(np.array([0, 3]), 3)


MNIST_DIR = os.environ.get("DLAM_MNIST_DIR", "")


@pytest.mark.skipif(not MNIST_DIR, reason="DLAM_MNIST_DIR not set")
def test_real_mnist_label_distribution():
    ds = data_io.load_idx(os.path.join(MNIST_DIR, "train-images-idx3-ubyte"),
                          os.path.join(MNIST_DIR, "train-labels-idx1-ubyte"))
    counts = ds.y.sum(axis=1)
    assert ds.n_samples == 60000 and ds.features == 784
    assert np.all(counts >= 5000) and np.all(counts <= 7000)
