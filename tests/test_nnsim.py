import json
import tracemalloc

import numpy as np
import pytest

from ecad import nnsim
from ecad.dataset import Dataset, synthetic_mnist, to_float
from ecad.nnsim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LayerParams,
    Mlp,
    TrainingDiverged,
    accuracy,
    build_mlp,
    forward,
    load_params,
    save_params,
    softmax,
    train,
    _Adam,
)

from helpers import mlp_desc
from oracles import (
    adam_reference,
    cross_entropy,
    finite_difference_grads,
    grad,
    init_mlp,
    one_hot_grads,
)


def toy_mlp(dims=(6, 5, 4), seed=0, dtype=np.float64):
    return init_mlp(mlp_desc(list(dims), batch=3), seed=seed, dtype=dtype)


class TestForward:
    def test_pencil_and_paper(self):
        # x (1x2) @ w1 (2x2) + b1, relu, @ w2 (2x1) + b2
        m = Mlp(
            layers=[
                LayerParams(np.array([[1.0, -1.0], [2.0, 0.5]], dtype=np.float32),
                            np.array([0.5, -0.25], dtype=np.float32)),
                LayerParams(np.array([[2.0], [-3.0]], dtype=np.float32),
                            np.array([1.0], dtype=np.float32)),
            ],
            activations=["relu", "none"],
        )
        x = np.array([[1.0, 2.0]], dtype=np.float32)
        # z1 = [1+4+0.5, -1+1-0.25] = [5.5, -0.25] -> relu -> [5.5, 0]
        # z2 = 5.5*2 + 0*(-3) + 1 = 12
        assert forward(m, x).item() == pytest.approx(12.0)

    def test_zero_input_zero_bias(self):
        m = toy_mlp(dtype=np.float32)
        for layer in m.layers:
            layer.bias[...] = 0
        single = Mlp(layers=[m.layers[-1]], activations=["none"])
        x = np.zeros((4, single.layers[0].weights.shape[0]), dtype=np.float32)
        assert np.array_equal(forward(single, x), np.zeros((4, 4), dtype=np.float32))

    def test_batch_invariance(self):
        m = toy_mlp(dtype=np.float32)
        rng = np.random.default_rng(1)
        batch = rng.uniform(-1, 1, (32, 6)).astype(np.float32)
        row7 = forward(m, batch[7:8])
        assert np.array_equal(forward(m, batch)[7], row7[0])

    def test_shape_check(self):
        with pytest.raises(ValueError, match="batch width"):
            forward(toy_mlp(), np.zeros((2, 5)))


class TestLossAndSoftmax:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        logits = rng.uniform(-50, 50, (64, 10)).astype(np.float32)
        sums = softmax(logits).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-6)

    def test_cross_entropy_uniform(self):
        logits = np.zeros((5, 10))
        labels = np.arange(5, dtype=np.uint8)
        assert cross_entropy(logits, labels) == pytest.approx(np.log(10))


class TestGrad:
    def test_finite_difference(self):
        m = toy_mlp()
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (3, 6))
        y = rng.integers(0, 4, 3).astype(np.uint8)
        analytic = grad(m, x, y)

        flat_params = [p for layer in m.layers for p in (layer.weights, layer.bias)]
        numeric = finite_difference_grads(
            lambda: cross_entropy(forward(m, x), y), flat_params)
        flat_analytic = [g for layer in analytic for g in (layer.weights, layer.bias)]
        for a, n in zip(flat_analytic, numeric):
            denom = max(np.max(np.abs(n)), 1e-12)
            assert np.max(np.abs(a - n)) / denom <= 1e-3

    def test_uniform_logits_output_bias_grad(self):
        # zero net -> uniform softmax; output bias gradient is 1/10 less 1 at the label
        desc = mlp_desc([8, 10], batch=1)
        m = init_mlp(desc, seed=0, dtype=np.float64)
        m.layers[0].weights[...] = 0
        m.layers[0].bias[...] = 0
        x = np.random.default_rng(4).uniform(-1, 1, (1, 8))
        for j in range(10):
            g = grad(m, x, np.array([j], dtype=np.uint8))
            expected = np.full(10, 0.1)
            expected[j] -= 1.0
            assert g[0].bias == pytest.approx(expected, abs=1e-12)

    def test_saturated_correct_class_near_zero_grad(self):
        desc = mlp_desc([4, 3], batch=1)
        m = init_mlp(desc, seed=0, dtype=np.float64)
        m.layers[0].weights[...] = 0
        m.layers[0].bias[...] = [50.0, 0.0, 0.0]   # class 0 saturated
        x = np.zeros((1, 4))
        g = grad(m, x, np.array([0], dtype=np.uint8))
        assert np.max(np.abs(g[0].bias)) < 1e-15


    def test_backprop_equals_the_one_hot_formula_bit_for_bit(self):
        # float32, as in training; the output bias puts class 0 about 200 above
        # the rest, so softmax underflows to +0 in the other classes, and the
        # labels cover both the saturated class and underflowed ones
        m = toy_mlp(dims=(6, 5, 4), seed=2, dtype=np.float32)
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (13, 6)).astype(np.float32)   # 1 / 13 is inexact
        labels = rng.integers(0, 4, 13).astype(np.uint8)
        labels[:3] = (0, 1, 3)
        for bias in (np.zeros(4), np.array([200.0, 0.0, -50.0, 0.0])):
            m.layers[-1].bias[...] = bias
            assert np.any(softmax(forward(m, x)) == 0) == bool(bias.any())
            got = grad(m, x, labels)
            want = one_hot_grads(m, x, labels)
            for g, (w, b) in zip(got, want):
                assert g.weights.dtype == g.bias.dtype == np.float32
                assert g.weights.tobytes() == w.tobytes()
                assert g.bias.tobytes() == b.tobytes()


class TestTrain:
    def test_zero_learning_rate_is_identity(self, small_dataset, monkeypatch):
        monkeypatch.setattr(nnsim, "ADAM_LR", 0.0)
        desc = mlp_desc([784, 16, 10], batch=50)
        init = init_mlp(desc, seed=9)
        mlp, report = train(desc, small_dataset, epochs=1, batch_size=50, seed=9)
        for trained, fresh in zip(mlp.layers, init.layers):
            assert np.array_equal(trained.weights, fresh.weights)
            assert np.array_equal(trained.bias, fresh.bias)
        assert report.accuracy == accuracy(init, small_dataset.test_x, small_dataset.test_y)

    def test_deterministic_for_seed(self, small_dataset):
        desc = mlp_desc([784, 16, 10], batch=50)
        m1, r1 = train(desc, small_dataset, epochs=1, batch_size=100, seed=4)
        m2, r2 = train(desc, small_dataset, epochs=1, batch_size=100, seed=4)
        assert r1.accuracy == r2.accuracy
        for a, b in zip(m1.layers, m2.layers):
            assert np.array_equal(a.weights, b.weights)

    def test_divergence_detected(self, small_dataset, monkeypatch):
        monkeypatch.setattr(nnsim, "ADAM_LR", 1e30)
        desc = mlp_desc([784, 8, 10], batch=50)
        # the overflow is the point: it must surface as TrainingDiverged
        with pytest.raises(TrainingDiverged), np.errstate(over="ignore", invalid="ignore"):
            train(desc, small_dataset, epochs=2, batch_size=50, seed=0)

    def test_loss_nonincreasing_over_epochs(self):
        # statistical property: on a 1000-sample subset, epoch-end loss is
        # nonincreasing for at least 95% of seeds
        data = synthetic_mnist(seed=2, n_train=1000, n_test=200)
        desc = mlp_desc([784, 32, 10], batch=100)
        good = 0
        seeds = range(20)
        for seed in seeds:
            losses = []
            for epochs in (1, 2, 3):
                m, _ = train(desc, data, epochs=epochs, batch_size=100, seed=seed)
                losses.append(cross_entropy(forward(m, to_float(data.train_x)), data.train_y))
            if losses[0] >= losses[1] >= losses[2]:
                good += 1
        assert good >= 0.95 * len(seeds)

    def test_report_fields(self, small_dataset):
        desc = mlp_desc([784, 16, 10], batch=50, net_id=77)
        _, report = train(desc, small_dataset, epochs=2, batch_size=100, seed=1)
        doc = report.to_json()
        assert set(doc) == {"name", "accuracy", "epochs", "batch_size"}
        assert doc["name"] == "77"
        assert doc["epochs"] == 2
        assert doc["batch_size"] == 100
        assert 0.0 <= doc["accuracy"] <= 1.0

    def test_one_test_pass_per_training(self, small_dataset, monkeypatch):
        calls = []

        def spy(m, x, y, *args, **kwargs):
            calls.append(x.shape[0])
            return accuracy(m, x, y, *args, **kwargs)

        monkeypatch.setattr(nnsim, "accuracy", spy)
        desc = mlp_desc([784, 16, 10], batch=50)
        _, report = train(desc, small_dataset, epochs=3, batch_size=100, seed=1)
        assert calls == [small_dataset.test_x.shape[0]]
        assert report.epochs == 3

    def test_pixels_become_floats_per_batch(self):
        # one float32 copy of this training split is 20,000 * 784 * 4 = 62.7 MB;
        # training converts a batch at a time and the test split in 2,048-row
        # chunks, so its peak is about 7.8 MB (6.3 MB of it the test chunk)
        data = synthetic_mnist(seed=0, n_train=20000, n_test=2000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train(mlp_desc([784, 32, 10], batch=100), data, epochs=1, batch_size=100, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 12 * (1 << 20)

    def test_accuracy_definition(self, small_dataset):
        desc = mlp_desc([784, 16, 10], batch=50)
        mlp, report = train(desc, small_dataset, epochs=1, batch_size=100, seed=2)
        logits = forward(mlp, to_float(small_dataset.test_x))
        frac = np.mean(np.argmax(logits, axis=1) == small_dataset.test_y)
        assert report.accuracy == frac


class TestAdam:
    def test_matches_float64_reference(self, monkeypatch):
        monkeypatch.setattr(nnsim, "ADAM_LR", 0.01)
        rng = np.random.default_rng(11)
        scales = 10.0 ** rng.integers(-4, 2, 600)   # gradient magnitudes 1e-4 .. 10
        start = rng.uniform(-1, 1, 600).astype(np.float32)
        grads = [(rng.normal(0, 1, 600) * scales).astype(np.float32) for _ in range(20)]
        params = start.copy()
        opt = _Adam(params)
        for g in grads:
            opt.step(params, g)
        ref_p, ref_m, ref_v = adam_reference(start, grads, 0.01, ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
        assert params.dtype == opt.m.dtype == opt.v.dtype == np.float32
        # float32 tolerance: a few ulps per step over 20 steps, of |p| <= 1.2 for
        # the parameters, of the largest gradient for m (a signed sum that can
        # cancel) and of v itself (a sum of squares)
        tol = 20 * 4 * np.finfo(np.float32).eps
        g_max = np.max(np.abs(grads), axis=0)
        assert np.max(np.abs(params - ref_p)) <= tol
        assert np.all(np.abs(opt.m - ref_m) <= tol * g_max)
        assert np.all(np.abs(opt.v - ref_v) <= tol * ref_v)

    def test_zero_gradients_leave_no_subnormal_first_moment(self):
        rng = np.random.default_rng(12)
        params = rng.uniform(-1, 1, 1000).astype(np.float32)
        opt = _Adam(params)
        opt.m[...] = rng.uniform(-1, 1, 1000) * 10.0 ** rng.integers(-30, 1, 1000)
        opt.v[...] = rng.uniform(0, 1, 1000)
        zero = np.zeros_like(params)
        for _ in range(1000):
            opt.step(params, zero)
        tiny = np.finfo(np.float32).smallest_normal
        assert not np.any((opt.m != 0) & (np.abs(opt.m) < tiny))
        assert np.all(np.isfinite(params))


    def test_flush_moves_no_weight(self, monkeypatch):
        # half the entries stop receiving gradients after 10 steps; their first
        # moments fall below the flush threshold by the flush at step 512
        start = np.random.default_rng(13).uniform(-1, 1, 2000).astype(np.float32)

        def run():
            rng = np.random.default_rng(14)
            live = rng.uniform(size=2000) < 0.5
            params = start.copy()
            opt = _Adam(params)
            for t in range(600):
                g = rng.normal(0, 0.1, 2000).astype(np.float32)
                if t >= 10:
                    g[~live] = 0
                opt.step(params, g)
            return params, opt.m

        flushed_p, flushed_m = run()
        monkeypatch.setattr(nnsim, "FLUSH_EVERY", 10 ** 9)
        kept_p, kept_m = run()
        assert np.any((kept_m != 0) & (flushed_m == 0))
        assert flushed_p.tobytes() == kept_p.tobytes()


class TestParamsIo:
    def test_weights_file_size(self, tmp_path):
        desc = mlp_desc([784, 852], batch=1)
        m = init_mlp(desc, seed=0)
        paths = save_params(m, tmp_path, ["dense00"])
        wfile = tmp_path / "dense00_weights.bin"
        assert wfile in paths
        assert wfile.stat().st_size == 16 + 784 * 852 * 4

    def test_bias_header_and_zeros(self, tmp_path):
        m = Mlp(layers=[LayerParams(np.zeros((4, 10), dtype=np.float32),
                                    np.zeros(10, dtype=np.float32))],
                activations=["none"])
        save_params(m, tmp_path, ["Y"])
        raw = (tmp_path / "Y_biases.bin").read_bytes()
        assert raw[:16] == (10).to_bytes(4, "little") + (1).to_bytes(4, "little") * 3
        assert raw[16:] == b"\x00" * 40

    def test_weights_header_order(self, tmp_path):
        m = Mlp(layers=[LayerParams(np.arange(6, dtype=np.float32).reshape(2, 3),
                                    np.zeros(3, dtype=np.float32))],
                activations=["none"])
        save_params(m, tmp_path, ["d"])
        raw = (tmp_path / "d_weights.bin").read_bytes()
        import struct
        assert struct.unpack("<4i", raw[:16]) == (2, 3, 1, 1)
        assert np.array_equal(np.frombuffer(raw[16:], dtype="<f4").reshape(2, 3),
                              m.layers[0].weights)

    def test_save_load_save_byte_identical(self, tmp_path):
        desc = mlp_desc([32, 20, 10], batch=1)
        m = init_mlp(desc, seed=5)
        names = [l.name for l in desc.layers]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        save_params(m, dir_a, names)
        loaded = load_params(dir_a, names)
        save_params(build_mlp(desc, loaded), dir_b, names)
        for name in names:
            for kind in ("weights", "biases"):
                assert (dir_a / f"{name}_{kind}.bin").read_bytes() == \
                       (dir_b / f"{name}_{kind}.bin").read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        (tmp_path / "x_weights.bin").write_bytes(b"\x01\x00")
        with pytest.raises(ValueError, match="header"):
            load_params(tmp_path, ["x"])

    def test_report_json_write(self, tmp_path):
        desc = mlp_desc([16, 8, 4], batch=2)
        data = Dataset(
            train_x=np.random.default_rng(0).integers(0, 256, (64, 16), dtype=np.uint8),
            train_y=np.random.default_rng(1).integers(0, 4, 64).astype(np.uint8),
            test_x=np.random.default_rng(2).integers(0, 256, (16, 16), dtype=np.uint8),
            test_y=np.random.default_rng(3).integers(0, 4, 16).astype(np.uint8),
        )
        _, report = train(desc, data, epochs=1, batch_size=8, seed=0)
        report.write(tmp_path / "report.json")
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["epochs"] == 1 and "accuracy" in doc
