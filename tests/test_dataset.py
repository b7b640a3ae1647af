import gzip
import re
import struct
import tracemalloc

import numpy as np
import pytest

from ecad.dataset import (
    IMAGES_MAGIC,
    LABELS_MAGIC,
    SYNTHETIC_CHUNK_ROWS,
    Dataset,
    DatasetError,
    load_mnist,
    read_idx,
    synthetic_mnist,
    to_float,
    write_idx_images,
    write_idx_labels,
)

from conftest import find_mnist_dir
from oracles import reference_synthetic_mnist

MiB = 1 << 20


def traced_peak(build):
    """build() and the tracemalloc peak, in bytes, above what was allocated before it."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def nbytes(data):
    return sum(a.nbytes for a in (data.train_x, data.train_y, data.test_x, data.test_y))


def gzip_files(dir_path):
    """Replace each file in the directory by its gzipped copy, named *.gz."""
    for path in list(dir_path.iterdir()):
        with gzip.open(path.with_name(path.name + ".gz"), "wb") as fh:
            fh.write(path.read_bytes())
        path.unlink()


def write_split(dir_path, n_train=12, n_test=5, value=0):
    rng = np.random.default_rng(0)
    for stem, n in [("train", n_train), ("t10k", n_test)]:
        images = np.full((n, 784), value, dtype=np.uint8)
        labels = rng.integers(0, 10, n).astype(np.uint8)
        write_idx_images(dir_path / f"{stem}-images-idx3-ubyte", images)
        write_idx_labels(dir_path / f"{stem}-labels-idx1-ubyte", labels)


class TestIdxFiles:
    def test_zero_images_round_trip(self, tmp_path):
        write_split(tmp_path, n_train=10, n_test=3, value=0)
        data = load_mnist(tmp_path)
        assert data.train_x.shape == (10, 784)
        assert np.all(data.train_x == 0)
        assert data.test_x.shape == (3, 784)

    def test_normalization_by_255(self, tmp_path):
        write_split(tmp_path, value=255)
        data = load_mnist(tmp_path)
        assert data.train_x.dtype == np.uint8 and np.all(data.train_x == 255)
        assert np.all(to_float(data.train_x) == 1.0)

    def test_labels_are_the_label_file_bytes(self, tmp_path):
        write_split(tmp_path)
        data = load_mnist(tmp_path)
        raw = (tmp_path / "train-labels-idx1-ubyte").read_bytes()[8:]
        assert data.train_y.shape == (12,) and data.train_y.dtype == np.uint8
        assert data.train_y.tobytes() == raw

    def test_bad_images_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 1234, 1, 28, 28) + b"\x00" * 784)
        with pytest.raises(DatasetError, match="magic"):
            read_idx(path, IMAGES_MAGIC)

    def test_bad_labels_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">II", 2051, 1) + b"\x00")
        with pytest.raises(DatasetError, match="magic"):
            read_idx(path, LABELS_MAGIC)

    def test_truncated_images(self, tmp_path):
        path = tmp_path / "trunc"
        path.write_bytes(struct.pack(">IIII", 2051, 10, 28, 28) + b"\x00" * 100)
        with pytest.raises(DatasetError, match="truncated"):
            read_idx(path, IMAGES_MAGIC)

    def test_count_mismatch(self, tmp_path):
        write_split(tmp_path, n_train=100)
        labels = np.zeros(99, dtype=np.uint8)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", labels)
        with pytest.raises(DatasetError, match="100 images but 99 labels"):
            load_mnist(tmp_path)

    @pytest.mark.parametrize("stem,sizes", [("train", {"n_train": 0}), ("t10k", {"n_test": 0})])
    def test_empty_split_refused(self, tmp_path, stem, sizes):
        write_split(tmp_path, **sizes)
        images_path = tmp_path / f"{stem}-images-idx3-ubyte"
        with pytest.raises(DatasetError, match=f"^{re.escape(str(images_path))}: holds no images$"):
            load_mnist(tmp_path)

    def test_label_out_of_range(self, tmp_path):
        write_split(tmp_path)
        labels_path = tmp_path / "t10k-labels-idx1-ubyte"
        write_idx_labels(labels_path, np.array([3, 12, 0, 12, 1], dtype=np.uint8))
        with pytest.raises(DatasetError, match=f"^{re.escape(str(labels_path))}: label 12 is outside 0..9$"):
            load_mnist(tmp_path)

    def test_peak_memory_is_output_plus_raw_images(self, tmp_path):
        n_train, n_test = 2000, 500
        write_split(tmp_path, n_train=n_train, n_test=n_test, value=77)
        data, peak = traced_peak(lambda: load_mnist(tmp_path))
        # the pixel arrays are the bytes read from the files, not a copy
        assert peak <= nbytes(data) + MiB
        assert data.train_x.dtype == np.uint8 and np.all(data.train_x == 77)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="missing IDX file"):
            load_mnist(tmp_path)

    def test_without_train_reads_only_the_t10k_files(self, tmp_path):
        write_split(tmp_path, n_test=5, value=9)
        full = load_mnist(tmp_path)
        for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
            (tmp_path / name).unlink()
        test_only = load_mnist(tmp_path, n_train=0)
        assert test_only.test_x.tobytes() == full.test_x.tobytes()
        assert test_only.test_y.tobytes() == full.test_y.tobytes()
        stand_in = synthetic_mnist(n_train=0)
        for got, want in ((test_only.train_x, stand_in.train_x), (test_only.train_y, stand_in.train_y)):
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
        with pytest.raises(DatasetError, match="missing IDX file 'train-images-idx3-ubyte"):
            load_mnist(tmp_path)

    def test_gzip_variant(self, tmp_path):
        write_split(tmp_path, value=128)
        gzip_files(tmp_path)
        data = load_mnist(tmp_path)
        assert data.train_x.shape == (12, 784)
        assert data.train_x.dtype == np.uint8 and np.all(data.train_x == 128)


class TestIdxPrefix:
    """load_mnist(dir, n_train, n_test) keeps the first rows of each split and
    still checks the whole of every file it reads."""

    @staticmethod
    def write_random_split(dir_path, n_train, n_test, gz):
        rng = np.random.default_rng(7)
        for stem, n in (("train", n_train), ("t10k", n_test)):
            write_idx_images(dir_path / f"{stem}-images-idx3-ubyte",
                             rng.integers(0, 256, (n, 784), dtype=np.uint8))
            write_idx_labels(dir_path / f"{stem}-labels-idx1-ubyte", rng.integers(0, 10, n))
        if gz:
            gzip_files(dir_path)

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
    @pytest.mark.parametrize("n", [1, 20, 21, 26])   # 1, count - 1, count, count + 5
    def test_prefix_equals_the_full_read_prefix(self, tmp_path, gz, n):
        count = 21
        self.write_random_split(tmp_path, n_train=count, n_test=count, gz=gz)
        full = load_mnist(tmp_path)
        part = load_mnist(tmp_path, n_train=n, n_test=n)
        kept = min(n, count)
        assert part.train_x.shape == part.test_x.shape == (kept, 784)
        for got, whole in ((part.train_x, full.train_x), (part.train_y, full.train_y),
                           (part.test_x, full.test_x), (part.test_y, full.test_y)):
            assert got.dtype == whole.dtype
            assert got.tobytes() == whole[:kept].tobytes()

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
    def test_truncated_past_the_prefix_is_refused(self, tmp_path, gz):
        write_split(tmp_path, n_train=10)
        images_path = tmp_path / "train-images-idx3-ubyte"
        images_path.write_bytes(images_path.read_bytes()[:-100])
        if gz:
            gzip_files(tmp_path)
            images_path = images_path.with_name(images_path.name + ".gz")
        with pytest.raises(DatasetError, match=f"^{re.escape(str(images_path))}: truncated image data$"):
            load_mnist(tmp_path, n_train=2)

    def test_label_out_of_range_past_the_prefix_is_refused(self, tmp_path):
        write_split(tmp_path, n_train=10)
        labels_path = tmp_path / "train-labels-idx1-ubyte"
        write_idx_labels(labels_path, np.array([1] * 9 + [10], dtype=np.uint8))
        with pytest.raises(DatasetError, match=f"^{re.escape(str(labels_path))}: label 10 is outside 0..9$"):
            load_mnist(tmp_path, n_train=2)

    def test_count_mismatch_past_the_prefix_is_refused(self, tmp_path):
        write_split(tmp_path, n_train=100)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.zeros(99, dtype=np.uint8))
        with pytest.raises(DatasetError, match="100 images but 99 labels"):
            load_mnist(tmp_path, n_train=5)

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
    @pytest.mark.parametrize("rows", [2000, 6000])
    def test_peak_memory_is_the_prefix_plus_2_mib(self, tmp_path, gz, rows):
        # the rows past the prefix are read in pieces and dropped, for gzip
        # too; at 6,000 rows (4.5 MiB) a whole read would break the bound
        write_split(tmp_path, n_train=rows, n_test=5, value=3)
        if gz:
            gzip_files(tmp_path)
        data, peak = traced_peak(lambda: load_mnist(tmp_path, n_train=100))
        assert data.train_x.shape == (100, 784)
        assert peak <= nbytes(data) + 2 * MiB


class TestSynthetic:
    def test_shapes_and_ranges(self):
        data = synthetic_mnist(seed=0, n_train=100, n_test=40)
        assert data.train_x.shape == (100, 784)
        assert data.test_y.shape == (40,)
        assert data.train_x.dtype == data.test_x.dtype == np.uint8
        # the clip to [0, 1] is reached at both ends, so all 8 bits are used
        assert data.train_x.min() == 0 and data.train_x.max() == 255
        assert data.train_y.dtype == data.test_y.dtype == np.uint8
        assert data.train_y.max() < 10 and len(np.unique(data.train_y)) == 10

    def test_deterministic(self):
        a = synthetic_mnist(seed=3, n_train=50, n_test=10)
        b = synthetic_mnist(seed=3, n_train=50, n_test=10)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.test_y, b.test_y)

    def test_scratch_stays_under_4_mib(self):
        data, peak = traced_peak(lambda: synthetic_mnist(n_train=20000, n_test=2000))
        assert peak - nbytes(data) <= 4 * MiB

    def test_build_equals_chunk_stream_reference(self):
        n_train, n_test = 2 * SYNTHETIC_CHUNK_ROWS + 7, 33
        train_x, train_labels, test_x, test_labels = reference_synthetic_mnist(
            5, n_train, n_test, 784, 10)
        data = synthetic_mnist(seed=5, n_train=n_train, n_test=n_test)
        expected = (test_x, test_labels, train_x, train_labels)
        for got, want in zip((data.test_x, data.test_y, data.train_x, data.train_y), expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, SYNTHETIC_CHUNK_ROWS - 1, SYNTHETIC_CHUNK_ROWS + 1])
    def test_split_prefix_does_not_depend_on_its_size(self, n):
        whole, part = synthetic_mnist(n_train=600, n_test=600), synthetic_mnist(n_train=n, n_test=n)
        for got, full in ((part.train_x, whole.train_x), (part.train_y, whole.train_y),
                          (part.test_x, whole.test_x), (part.test_y, whole.test_y)):
            assert got.tobytes() == full[:n].tobytes()

    def test_noise_law_matches_a_float64_normal_draw(self):
        # 8,192 rows, 6.4 M pixels. Two float64 builds with different noise
        # seeds differ by a total variation of 0.0032-0.0036 in the pixel
        # histogram at this size, the table build from a float64 one by
        # 0.0032-0.0037. A noise deviation of 0.295 or 0.305 instead of 0.30
        # reads 0.008-0.009, and 0.29 or 0.31 reads 0.015-0.017.
        n, features, classes = 8192, 784, 10
        data = synthetic_mnist(seed=4, n_train=n, n_test=0)
        rng = np.random.default_rng(4)
        prototypes = (0.5 + 0.18 * (rng.uniform(0.0, 1.0, size=(classes, features)) - 0.5)).astype(np.float32)
        v = (prototypes[data.train_y]
             + np.random.default_rng(99).normal(0.0, 0.30, size=(n, features)).astype(np.float32))
        reference = np.rint(np.clip(v, 0.0, 1.0) * np.float32(255)).astype(np.uint8)
        hists = [np.bincount(x.ravel(), minlength=256) / x.size for x in (data.train_x, reference)]
        assert 0.5 * np.abs(hists[0] - hists[1]).sum() <= 0.006

    def test_test_split_does_not_depend_on_n_train(self):
        full, test_only = synthetic_mnist(), synthetic_mnist(n_train=0)
        assert test_only.train_x.shape == (0, 784)
        assert test_only.test_x.tobytes() == full.test_x.tobytes()
        assert test_only.test_y.tobytes() == full.test_y.tobytes()


class TestPixels:
    def test_to_float_of_every_byte(self):
        got = to_float(np.arange(256, dtype=np.uint8))
        want = np.arange(256).astype(np.float32) / np.float32(255)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("field,bad,message", [
        ("train_x", np.zeros((4, 8), dtype=np.float32), "2-D uint8 pixels, got 2-D float32"),
        ("test_x", np.zeros((4, 8), dtype=np.float32), "2-D uint8 pixels, got 2-D float32"),
        ("train_y", np.eye(10, dtype=np.float32)[:4], "1-D uint8 class labels, got 2-D float32"),
        ("test_y", np.eye(10, dtype=np.float32)[:4], "1-D uint8 class labels, got 2-D float32"),
        ("train_y", np.zeros(4, dtype=np.int64), "1-D uint8 class labels, got 1-D int64"),
        ("test_y", np.zeros(4, dtype=np.float32), "1-D uint8 class labels, got 1-D float32"),
        ("train_y", np.zeros((4, 1), dtype=np.uint8), "1-D uint8 class labels, got 2-D uint8"),
        ("test_x", np.zeros(32, dtype=np.uint8), "2-D uint8 pixels, got 1-D uint8"),
    ], ids=["train_x", "test_x", "train_y-one-hot", "test_y-one-hot", "train_y-int64",
            "test_y-float32", "train_y-column", "test_x-flat"])
    def test_dataset_refuses_other_dtypes_and_shapes(self, field, bad, message):
        arrays = {"train_x": np.zeros((4, 8), dtype=np.uint8), "train_y": np.zeros(4, dtype=np.uint8),
                  "test_x": np.zeros((4, 8), dtype=np.uint8), "test_y": np.zeros(4, dtype=np.uint8)}
        Dataset(**arrays)
        arrays[field] = bad
        with pytest.raises(DatasetError, match=f"^{field} must hold {message}$"):
            Dataset(**arrays)


@pytest.mark.skipif(find_mnist_dir() is None, reason="real MNIST IDX files not available")
def test_real_mnist_counts():
    data = load_mnist(find_mnist_dir())
    assert data.train_x.shape == (60000, 784)
    assert data.test_x.shape == (10000, 784)
