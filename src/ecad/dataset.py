"""MNIST-style dataset loading: IDX files, normalization, one-hot labels."""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGES_MAGIC = 2051
LABELS_MAGIC = 2049

_TRAIN_IMAGES = "train-images-idx3-ubyte"
_TRAIN_LABELS = "train-labels-idx1-ubyte"
_TEST_IMAGES = "t10k-images-idx3-ubyte"
_TEST_LABELS = "t10k-labels-idx1-ubyte"

SYNTHETIC_CHUNK_ROWS = 4096   # rows of synthetic noise drawn per call


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    """Flattened inputs in [0, 1] with one-hot labels, train and test splits."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def subset(self, n_train: int) -> "Dataset":
        """First n_train training rows; the test split is kept whole."""
        n = min(n_train, self.train_x.shape[0])
        return Dataset(self.train_x[:n], self.train_y[:n], self.test_x, self.test_y)


def _open_maybe_gzip(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _find(dir_path: Path, stem: str) -> Path:
    for cand in (dir_path / stem, dir_path / (stem + ".gz")):
        if cand.exists():
            return cand
    raise DatasetError(f"missing IDX file '{stem}[.gz]' in {dir_path}")


def read_idx_images(path: Path) -> np.ndarray:
    """Read an IDX3 image file into a (count, rows*cols) uint8 array."""
    with _open_maybe_gzip(Path(path)) as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise DatasetError(f"{path}: truncated IDX header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IMAGES_MAGIC:
            raise DatasetError(f"{path}: bad magic {magic}, expected {IMAGES_MAGIC}")
        body = fh.read(count * rows * cols)
        if len(body) != count * rows * cols:
            raise DatasetError(f"{path}: truncated image data")
        return np.frombuffer(body, dtype=np.uint8).reshape(count, rows * cols)


def read_idx_labels(path: Path) -> np.ndarray:
    """Read an IDX1 label file into a (count,) uint8 array."""
    with _open_maybe_gzip(Path(path)) as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise DatasetError(f"{path}: truncated IDX header")
        magic, count = struct.unpack(">II", header)
        if magic != LABELS_MAGIC:
            raise DatasetError(f"{path}: bad magic {magic}, expected {LABELS_MAGIC}")
        body = fh.read(count)
        if len(body) != count:
            raise DatasetError(f"{path}: truncated label data")
        return np.frombuffer(body, dtype=np.uint8)


def one_hot(labels: np.ndarray, num_classes: int = 10) -> np.ndarray:
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _load_split(dir_path: Path, images_stem: str, labels_stem: str) -> tuple[np.ndarray, np.ndarray]:
    images = read_idx_images(_find(dir_path, images_stem))
    labels = read_idx_labels(_find(dir_path, labels_stem))
    if images.shape[0] != labels.shape[0]:
        raise DatasetError(
            f"{dir_path}: {images.shape[0]} images but {labels.shape[0]} labels"
        )
    x = images.astype(np.float32) / 255.0
    return x, one_hot(labels)


def load_mnist(dir_path: str | Path) -> Dataset:
    """Load the four standard MNIST IDX files (optionally gzipped) from a directory."""
    d = Path(dir_path)
    train_x, train_y = _load_split(d, _TRAIN_IMAGES, _TRAIN_LABELS)
    test_x, test_y = _load_split(d, _TEST_IMAGES, _TEST_LABELS)
    return Dataset(train_x, train_y, test_x, test_y)


def synthetic_mnist(
    seed: int = 0,
    n_train: int = 60000,
    n_test: int = 10000,
    num_features: int = 784,
    num_classes: int = 10,
    spread: float = 0.18,
    noise: float = 0.30,
) -> Dataset:
    """Deterministic MNIST-shaped stand-in: noisy class prototypes in [0, 1].

    Used when the real IDX files are not available; same shapes, value range
    and label encoding as the real dataset. The default spread/noise put a
    small MLP in the mid-to-high nineties after a few epochs, so accuracy
    behaves like a real classification task rather than saturating at 1.
    """
    rng = np.random.default_rng(seed)
    prototypes = (
        0.5 + spread * (rng.uniform(0.0, 1.0, size=(num_classes, num_features)) - 0.5)
    ).astype(np.float32)

    def make(n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, num_classes, size=n)
        x = np.empty((n, num_features), dtype=np.float32)
        # row chunks draw the same normal stream as one (n, num_features) call
        # without its float64 intermediate
        for lo in range(0, n, SYNTHETIC_CHUNK_ROWS):
            rows = x[lo:lo + SYNTHETIC_CHUNK_ROWS]
            noise_rows = rng.normal(0.0, noise, size=rows.shape).astype(np.float32)
            np.add(prototypes[labels[lo:lo + rows.shape[0]]], noise_rows, out=rows)
            np.clip(rows, 0.0, 1.0, out=rows)
        return x, one_hot(labels, num_classes)

    train_x, train_y = make(n_train)
    test_x, test_y = make(n_test)
    return Dataset(train_x, train_y, test_x, test_y)


def write_idx_images(path: Path, images: np.ndarray, rows: int = 28, cols: int = 28) -> None:
    """Write a (count, rows*cols) uint8 array as an IDX3 file (test fixtures, tooling)."""
    images = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, images.shape[0], rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path: Path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())
