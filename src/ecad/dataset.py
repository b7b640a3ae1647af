"""MNIST-style datasets: IDX files and the synthetic stand-in.

Pixels and labels are kept as the IDX files store them, for the real set and
the stand-in alike: one ``uint8`` per pixel in ``(count, features)`` arrays
and one ``uint8`` class index per row. ``to_float`` is the one place where
pixels become network inputs: it turns the rows a batch uses into float32 in
[0, 1]. The trainer and the simulator read the class indices directly, so no
one-hot copy of the labels is built.

Both sources take the same row arguments and hold only the rows asked for.
``load_mnist`` reads the first rows of an IDX image file and skips the rest
in bounded pieces, and reads the labels whole, so it checks the whole file.

The stand-in is built SYNTHETIC_CHUNK_ROWS rows at a time, each chunk from
its own random stream, and its normal noise comes from a 16-bit quantile
table rather than a float64 draw. A split's first n rows are therefore the
same bytes whatever n is, so a command builds only the rows it uses, and
the build needs under 4 MiB of scratch beyond the arrays it returns.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGES_MAGIC = 2051
LABELS_MAGIC = 2049
NUM_CLASSES = 10
NUM_FEATURES = 28 * 28

MNIST_TRAIN_ROWS = 60000
MNIST_TEST_ROWS = 10000
# the largest piece read at once from an IDX file's bytes past the rows kept;
# a gzip read holds about three times the piece while it decompresses
IDX_SKIP_BYTES = 1 << 18

# rows of the stand-in drawn from one random stream; at 784 features one
# chunk's scratch, its lookup indices the largest part at 1.5 MiB, is under 3 MiB
SYNTHETIC_CHUNK_ROWS = 256
SYNTHETIC_SPREAD = 0.18   # class prototype pixels are uniform in 0.5 +- spread / 2
SYNTHETIC_NOISE = 0.30    # standard deviation of the normal noise on each pixel
# each split's chunk c draws from default_rng([seed, split, c]); neither id is
# 0, because SeedSequence pads entropy with zeros and [seed, 0, 0] would be
# the stream of the prototypes, default_rng(seed)
SYNTHETIC_TRAIN_STREAM = 1
SYNTHETIC_TEST_STREAM = 2


class DatasetError(ValueError):
    pass


def to_float(pixels: np.ndarray) -> np.ndarray:
    """8-bit pixels as float32 network inputs in [0, 1]: value / 255."""
    x = pixels.astype(np.float32)
    x /= 255.0   # in place: float32 division, no float64 temporary
    return x


@dataclass(frozen=True)
class Dataset:
    """Flattened 8-bit pixels (uint8, 0..255) with 1-D uint8 class labels
    (0..NUM_CLASSES - 1), train and test splits. ``to_float`` gives a batch's
    [0, 1] float32 inputs."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __post_init__(self) -> None:
        for name, ndim, what in (("train_x", 2, "pixels"), ("train_y", 1, "class labels"),
                                 ("test_x", 2, "pixels"), ("test_y", 1, "class labels")):
            a = getattr(self, name)
            if a.dtype != np.uint8 or a.ndim != ndim:
                raise DatasetError(f"{name} must hold {ndim}-D uint8 {what}, got {a.ndim}-D {a.dtype}")


def _open_maybe_gzip(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _find(dir_path: Path, stem: str) -> Path:
    for cand in (dir_path / stem, dir_path / (stem + ".gz")):
        if cand.exists():
            return cand
    raise DatasetError(f"missing IDX file '{stem}[.gz]' in {dir_path}")


def read_idx(path: Path, magic: int, n: int | None = None) -> tuple[int, np.ndarray]:
    """The row count in an IDX file's header and its first n rows (all of
    them without n) as uint8: (rows,) for labels, (rows, values per row) for
    images. The low byte of the magic is the number of dimensions. The bytes
    past the rows kept are read and dropped, so a short file is refused
    whatever n is."""
    ndim = magic & 0xFF
    with _open_maybe_gzip(Path(path)) as fh:
        header = fh.read(4 * (1 + ndim))
        if len(header) < 4 * (1 + ndim):
            raise DatasetError(f"{path}: truncated IDX header")
        got, count, *dims = struct.unpack(f">{1 + ndim}I", header)
        if got != magic:
            raise DatasetError(f"{path}: bad magic {got}, expected {magic}")
        width = math.prod(dims)
        kept = count if n is None else min(n, count)
        body = fh.read(kept * width)
        rest = (count - kept) * width
        while rest and (piece := fh.read(min(rest, IDX_SKIP_BYTES))):
            rest -= len(piece)
        if len(body) != kept * width or rest:
            raise DatasetError(f"{path}: truncated {'image' if dims else 'label'} data")
    rows = np.frombuffer(body, dtype=np.uint8)
    return count, rows.reshape(kept, width) if dims else rows


def _load_split(dir_path: Path, split: str, n: int | None) -> tuple[np.ndarray, np.ndarray]:
    images_path = _find(dir_path, f"{split}-images-idx3-ubyte")
    count, images = read_idx(images_path, IMAGES_MAGIC, n)
    if count == 0:
        raise DatasetError(f"{images_path}: holds no images")
    labels_path = _find(dir_path, f"{split}-labels-idx1-ubyte")
    _, labels = read_idx(labels_path, LABELS_MAGIC)
    if count != labels.shape[0]:
        raise DatasetError(f"{dir_path}: {count} images but {labels.shape[0]} labels")
    if labels.max() >= NUM_CLASSES:
        raise DatasetError(
            f"{labels_path}: label {labels.max()} is outside 0..{NUM_CLASSES - 1}"
        )
    return images, labels[:images.shape[0]]


def load_mnist(dir_path: str | Path, n_train: int | None = None,
               n_test: int | None = None) -> Dataset:
    """The first n_train training and n_test test rows (all of a split when
    None) of the four standard MNIST IDX files, optionally gzipped, in a
    directory. With n_train 0 the train files are not read and the train
    split is empty. Every check covers the whole of each file read."""
    d = Path(dir_path)
    train_split = _load_split(d, "train", n_train) if n_train != 0 else None
    test_x, test_y = _load_split(d, "t10k", n_test)
    train_x, train_y = train_split or (test_x[:0], test_y[:0])
    return Dataset(train_x, train_y, test_x, test_y)


def synthetic_mnist(
    seed: int = 0,
    n_train: int = MNIST_TRAIN_ROWS,
    n_test: int = MNIST_TEST_ROWS,
) -> Dataset:
    """Deterministic MNIST-shaped stand-in: noisy class prototypes, 8-bit.

    Used when the real IDX files are not available; same shapes, pixel type
    and label type as the real dataset. Each row is a class prototype
    plus N(0, SYNTHETIC_NOISE) noise, clipped to [0, 1] in float32 and stored
    as the uint8 ``rint(v * 255)``. SYNTHETIC_SPREAD and SYNTHETIC_NOISE put
    a small MLP in the mid-to-high nineties after a few epochs, so accuracy
    behaves like a real classification task rather than saturating at 1.

    The noise on a pixel is one uniform ``uint16`` draw looked up in a
    65,536-entry float32 table: the quantiles of N(0, SYNTHETIC_NOISE) at the
    midpoints of 65,536 equal-probability bins. The pixel histogram matches
    that of a float64 normal draw to within sampling noise, at a fraction of
    its cost.

    The prototypes come from ``default_rng(seed)``. Each SYNTHETIC_CHUNK_ROWS
    chunk of a split draws its labels, then its noise, from its own stream
    ``default_rng([seed, split, chunk])``, always for a full chunk, and keeps
    the rows the split needs. So the first n rows of a split are the same
    bytes for every size that holds them, and ``n_train`` does not change the
    test split nor ``n_test`` the training split.

    Beyond the arrays it returns, the build holds under 4 MiB of scratch: the
    256 KiB table and, for one chunk, the draw, its lookup indices and
    float32 rows, the prototype rows and the labels.
    """
    rng = np.random.default_rng(seed)
    prototypes = (
        0.5 + SYNTHETIC_SPREAD * (rng.uniform(0.0, 1.0, size=(NUM_CLASSES, NUM_FEATURES)) - 0.5)
    ).astype(np.float32)
    # imported here, so that commands which build no dataset do not load
    # statistics and the decimal and fractions modules it pulls in
    from statistics import NormalDist

    inv_cdf = NormalDist(0.0, SYNTHETIC_NOISE).inv_cdf
    # a generator, not a list: 65,536 Python floats held at once are 2 MiB
    table = np.fromiter((inv_cdf((i + 0.5) / 65536) for i in range(65536)),
                        dtype=np.float32, count=65536)

    def make(split: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        x = np.empty((n, NUM_FEATURES), dtype=np.uint8)
        labels = np.empty(n, dtype=np.uint8)
        for chunk, lo in enumerate(range(0, n, SYNTHETIC_CHUNK_ROWS)):
            rows = x[lo:lo + SYNTHETIC_CHUNK_ROWS]
            keep = rows.shape[0]
            chunk_rng = np.random.default_rng([seed, split, chunk])
            chunk_labels = chunk_rng.integers(0, NUM_CLASSES, size=SYNTHETIC_CHUNK_ROWS)[:keep]
            draw = chunk_rng.integers(0, 1 << 16, size=(SYNTHETIC_CHUNK_ROWS, NUM_FEATURES),
                                      dtype=np.uint16)[:keep]
            labels[lo:lo + keep] = chunk_labels
            # np.take casts the uint16 draw to intp indices in one pass, faster
            # than fancy indexing's buffered cast
            v = np.take(table, draw)
            v += prototypes[chunk_labels]
            np.clip(v, 0.0, 1.0, out=v)
            v *= 255
            rows[...] = np.rint(v, out=v)
        return x, labels

    test_x, test_y = make(SYNTHETIC_TEST_STREAM, n_test)
    train_x, train_y = make(SYNTHETIC_TRAIN_STREAM, n_train)
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
