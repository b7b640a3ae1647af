import random

import numpy as np
import pytest

from ecad import sysarray
from ecad.dataset import to_float
from ecad.genome import SystolicConfig
from ecad.hwmodel import compute_cycles, gemm_cost
from ecad.nnsim import LayerParams
from ecad.sysarray import (
    SimulationError,
    TILE_BYTES,
    block_pack,
    block_unpack,
    run_network,
    simulate_layer,
)

from helpers import mlp_desc, padded
from oracles import (
    _pairwise_tree,
    dense_oracle,
    max_rel_error,
    ordered_oracle,
    scalar_ordered_oracle,
)


def random_case(rng):
    cfg = SystolicConfig(
        rows=rng.choice([1, 2, 4]), cols=rng.choice([1, 2, 4, 8]),
        vec=rng.choice([1, 2, 3, 4, 5, 8, 16]), interleave=rng.choice([1, 2, 4, 8, 16]),
        scale=rng.choice([1, 2, 3, 4]),
    )
    m, k, n = (rng.randint(1, 512) for _ in range(3))
    return cfg, m, k, n


class TestBlocking:
    def test_hand_checkable_3x3(self):
        a = np.arange(9, dtype=np.float32).reshape(3, 3)
        bm = block_pack(a, 2, 2)
        assert bm.data.shape == (2, 2, 2, 2)
        assert np.array_equal(bm.data[0, 0], [[0, 1], [3, 4]])
        assert np.array_equal(bm.data[1, 1], [[8, 0], [0, 0]])   # zero padding
        assert np.array_equal(block_unpack(bm), a)

    def test_common_dim_784_by_144(self):
        a = np.ones((4, 784), dtype=np.float32)
        bm = block_pack(a, 4, 144)
        assert bm.data.shape[1] == 6                       # six column blocks
        padded = bm.data.transpose(0, 2, 1, 3).reshape(4, 6 * 144)
        assert np.all(padded[:, 784:] == 0)                # final 80 columns are padding
        assert np.all(padded[:, :784] == 1)

    def test_round_trip_property(self):
        rng = random.Random(0)
        for _ in range(60):
            rows, cols = rng.randint(1, 97), rng.randint(1, 61)
            br, bc = rng.randint(1, 16), rng.randint(1, 16)
            a = np.random.default_rng(rng.randint(0, 10**6)).uniform(
                -1, 1, (rows, cols)).astype(np.float32)
            for transposed in (False, True):
                assert np.array_equal(block_unpack(block_pack(a, br, bc, transposed)), a)

    def test_pad_values_exactly_zero(self):
        a = np.full((5, 7), 3.5, dtype=np.float32)
        bm = block_pack(a, 4, 4)
        total = float(np.sum(bm.data))
        assert total == 5 * 7 * 3.5


class TestTreeReduce:
    def test_matches_scalar_tree(self):
        # the bit-exact simulator tests trust ordered_oracle's vectorized tree
        rng = np.random.default_rng(0)
        for n in [1, 2, 3, 4, 5, 7, 8, 11, 16, 30]:
            x = rng.uniform(-1, 1, (4, n)).astype(np.float32)
            got = _pairwise_tree(x)
            for i in range(4):
                vals = [np.float32(v) for v in x[i]]
                while len(vals) > 1:
                    nxt = [vals[j] + vals[j + 1] for j in range(0, len(vals) - 1, 2)]
                    if len(vals) % 2:
                        nxt.append(vals[-1])
                    vals = nxt
                assert got[i] == vals[0]


class TestSimulateLayer:
    def test_identity_operand(self):
        rng = np.random.default_rng(1)
        b = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
        c, _ = simulate_layer(np.eye(8, dtype=np.float32), b, SystolicConfig(2, 2, 2, 2, 2))
        assert np.array_equal(c, b)

    def test_against_dense_oracle_reference_case(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, (64, 784)).astype(np.float32)
        b = rng.uniform(-1, 1, (784, 852)).astype(np.float32)
        c, _ = simulate_layer(a, b, SystolicConfig(2, 8, 16, 16, 2))
        assert max_rel_error(c, dense_oracle(a, b)) <= 1e-4

    def test_bit_exact_vs_ordered_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            cfg, m, k, n = random_case(rng)
            m, k, n = m % 120 + 1, k % 120 + 1, n % 120 + 1
            data = np.random.default_rng(rng.randint(0, 10**6))
            a = data.uniform(-1, 1, (m, k)).astype(np.float32)
            b = data.uniform(-1, 1, (k, n)).astype(np.float32)
            bias = data.uniform(-1, 1, n).astype(np.float32)
            relu = rng.random() < 0.5
            c, _ = simulate_layer(a, b, cfg, bias=bias, relu=relu)
            expected = ordered_oracle(a, b, cfg.vec, cfg.scale,
                                      cfg.rows * cfg.interleave, cfg.cols * cfg.interleave,
                                      bias=bias, relu=relu)
            assert np.array_equal(c, expected)

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_bit_exact_across_tiles_skipped_slices_and_signed_zeros(self, with_bias):
        # vec 64, scale 3: k = 128 leaves one whole all-zero K slice of the last
        # common block; m spans two full row tiles and a short one
        cfg = SystolicConfig(2, 4, 64, 2, 3)
        n, k = 256, 128
        tile_rows = TILE_BYTES // (cfg.vec * n * 4)
        m = 2 * tile_rows + 5
        data = np.random.default_rng(13)
        a = data.uniform(-1, 1, (m, k)).astype(np.float32)
        b = data.uniform(-1, 1, (k, n)).astype(np.float32)
        a[[0, tile_rows, m - 1]] = -0.0
        b[:, [0, 5, n - 1]] = 0.0
        b[:, 7] = -0.0
        bias = data.uniform(-1, 1, n).astype(np.float32) if with_bias else None
        c, _ = simulate_layer(a, b, cfg, bias=bias, relu=with_bias)
        expected = ordered_oracle(a, b, cfg.vec, cfg.scale,
                                  cfg.rows * cfg.interleave, cfg.cols * cfg.interleave,
                                  bias=bias, relu=with_bias)
        assert c.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("vec", list(range(1, 18)) + [24, 31, 32, 64])
    def test_bit_exact_lane_order_every_vec(self, vec, with_bias, monkeypatch):
        # The simulator pads each step's lanes to a power of two and reduces
        # bit-reversed halves; the oracle pairs adjacent lanes and passes an odd
        # tail through. Two NaNs summed keep whichever operand numpy's loop puts
        # first, which neither side fixes, so every NaN here is the default NaN.
        with np.errstate(invalid="ignore"):
            nan = np.float32(np.inf) * np.float32(0.0)
        n, tile_rows = 13, 3
        lanes = 1 << (vec - 1).bit_length()
        monkeypatch.setattr(sysarray, "TILE_BYTES", tile_rows * lanes * n * 4)
        m, k = 2 * tile_rows + 2, 2 * vec + (vec + 1) // 2
        data = np.random.default_rng(vec)
        a = data.uniform(-1, 1, (m, k)).astype(np.float32)
        b = data.uniform(-1, 1, (k, n)).astype(np.float32)
        a[1, vec - 1::vec] = -0.0                   # the last lane of every step
        a[tile_rows] = np.where(np.arange(k) % 2, -0.0, 0.0)
        b[:, 2] = np.where(np.arange(k) % 3, 0.0, -0.0)
        b[:, 3] = -0.0
        a[2, k // 2] = nan
        a[tile_rows + 1, 0] = np.inf
        a[m - 1, k - 1] = -np.inf
        b[0, 5] = np.inf
        b[k - 1, 6] = -np.inf
        bias = data.uniform(-1, 1, n).astype(np.float32) if with_bias else None
        cfg = SystolicConfig(2, 2, vec, 8, 2)
        with np.errstate(invalid="ignore"):
            c, _ = simulate_layer(a, b, cfg, bias=bias, relu=with_bias)
            expected = ordered_oracle(a, b, vec, cfg.scale, 16, 16, bias=bias, relu=with_bias)
        assert np.isnan(c).any() and np.isinf(c).any()
        assert c.tobytes() == expected.tobytes()

    def test_hand_computed_cycles(self):
        # (2,2,2,2,2): 4x4 output blocks, common block 4 -> m 5->8, k 9->12, n 6->8;
        # 2*2 output blocks * (12/2 slices * 2^2 cycles) = 96, 2*2*3 = 12 block pairs
        a = np.ones((5, 9), dtype=np.float32)
        b = np.ones((9, 6), dtype=np.float32)
        _, cost = simulate_layer(a, b, SystolicConfig(2, 2, 2, 2, 2))
        assert padded(SystolicConfig(2, 2, 2, 2, 2), 5, 9, 6) == (8, 12, 8)
        assert cost.compute_cycles == 96
        assert cost.blocks == 12
        assert cost.drain_elements == 64

    def test_bit_exact_at_table2_shape(self):
        # first layer of the paper's Table 2 network on its (4,4,8,8,8) array
        cfg = SystolicConfig(4, 4, 8, 8, 8)
        data = np.random.default_rng(12)
        a = data.uniform(0, 1, (64, 784)).astype(np.float32)
        b = data.uniform(-0.1, 0.1, (784, 196)).astype(np.float32)
        bias = data.uniform(-0.1, 0.1, 196).astype(np.float32)
        c, _ = simulate_layer(a, b, cfg, bias=bias, relu=True)
        expected = ordered_oracle(a, b, cfg.vec, cfg.scale, 32, 32, bias=bias, relu=True)
        assert np.array_equal(c, expected)

    def test_both_oracles_agree_on_tiny_cases(self):
        # validates the vectorized oracle itself against explicit scalar loops
        rng = random.Random(21)
        for _ in range(10):
            cfg = SystolicConfig(rng.choice([1, 2]), rng.choice([1, 2]),
                                 rng.choice([1, 2, 3]), rng.choice([1, 2]), rng.choice([1, 2]))
            m, k, n = rng.randint(1, 6), rng.randint(1, 9), rng.randint(1, 6)
            data = np.random.default_rng(rng.randint(0, 10**6))
            a = data.uniform(-1, 1, (m, k)).astype(np.float32)
            b = data.uniform(-1, 1, (k, n)).astype(np.float32)
            sim, _ = simulate_layer(a, b, cfg)
            vec_oracle = ordered_oracle(a, b, cfg.vec, cfg.scale,
                                        cfg.rows * cfg.interleave, cfg.cols * cfg.interleave)
            scal_oracle = scalar_ordered_oracle(a, b, cfg.vec, cfg.scale)
            assert np.array_equal(vec_oracle, scal_oracle)
            assert np.array_equal(sim, scal_oracle)

    def test_zero_weights_bias_relu(self):
        a = np.random.default_rng(3).uniform(-1, 1, (6, 12)).astype(np.float32)
        b = np.zeros((12, 5), dtype=np.float32)
        bias = np.array([-2.0, -0.5, 0.0, 0.5, 2.0], dtype=np.float32)
        c, _ = simulate_layer(a, b, SystolicConfig(2, 2, 2, 2, 2), bias=bias, relu=True)
        assert np.array_equal(c, np.tile(np.maximum(bias, 0), (6, 1)))

    def test_bias_bypass_equals_matmul(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, (9, 33)).astype(np.float32)
        b = rng.uniform(-1, 1, (33, 17)).astype(np.float32)
        c, _ = simulate_layer(a, b, SystolicConfig(2, 4, 4, 4, 2))
        assert max_rel_error(c, dense_oracle(a, b)) <= 1e-4

    def test_padding_neutrality(self):
        rng = np.random.default_rng(5)
        cfg = SystolicConfig(2, 2, 4, 4, 2)
        a = rng.uniform(-1, 1, (10, 20)).astype(np.float32)
        b = rng.uniform(-1, 1, (20, 12)).astype(np.float32)
        base, _ = simulate_layer(a, b, cfg)
        a_pad = np.zeros((17, 29), dtype=np.float32)
        b_pad = np.zeros((29, 23), dtype=np.float32)
        a_pad[:10, :20] = a
        b_pad[:20, :12] = b
        grown, _ = simulate_layer(a_pad, b_pad, cfg)
        assert np.array_equal(grown[:10, :12], base)

    def test_cycle_contract(self):
        rng = random.Random(6)
        for _ in range(40):
            cfg, m, k, n = random_case(rng)
            m, k, n = m % 200 + 1, k % 200 + 1, n % 200 + 1
            data = np.random.default_rng(0)
            a = data.uniform(-1, 1, (m, k)).astype(np.float32)
            b = data.uniform(-1, 1, (k, n)).astype(np.float32)
            _, cost = simulate_layer(a, b, cfg)
            assert cost == gemm_cost(cfg, m, k, n)
            assert cost.compute_cycles == compute_cycles(cfg, m, k, n)
            m_pad, k_pad, n_pad = padded(cfg, m, k, n)
            assert cost.drain_elements == m_pad * n_pad
            assert cost.blocks == ((m_pad // (cfg.rows * cfg.interleave))
                                   * (n_pad // (cfg.cols * cfg.interleave))
                                   * (k_pad // (cfg.vec * cfg.scale)))

    def test_shape_mismatch(self):
        with pytest.raises(SimulationError):
            simulate_layer(np.zeros((2, 3), dtype=np.float32),
                           np.zeros((4, 2), dtype=np.float32), SystolicConfig(1, 1, 1, 1, 1))

    @pytest.mark.parametrize("m,k,n", [(0, 3, 2), (2, 0, 2), (2, 3, 0)])
    def test_empty_gemm_rejected(self, m, k, n):
        with pytest.raises(SimulationError, match="empty GEMM"):
            simulate_layer(np.zeros((m, k), dtype=np.float32),
                           np.zeros((k, n), dtype=np.float32), SystolicConfig(1, 1, 1, 1, 1))

    @pytest.mark.parametrize("length", [3, 5])
    def test_mis_sized_bias_rejected(self, length):
        # n = 4: a short bias must not be zero-padded, a long one not truncated
        a = np.ones((2, 8), dtype=np.float32)
        b = np.ones((8, 4), dtype=np.float32)
        with pytest.raises(SimulationError, match="bias shape"):
            simulate_layer(a, b, SystolicConfig(2, 2, 2, 2, 2), bias=np.ones(length, dtype=np.float32))

    def test_repeated_call_is_identical(self):
        cfg = SystolicConfig(2, 2, 2, 2, 2)
        rng = np.random.default_rng(9)
        a = rng.uniform(-1, 1, (5, 9)).astype(np.float32)
        b = rng.uniform(-1, 1, (9, 6)).astype(np.float32)
        bias = rng.uniform(-1, 1, 6).astype(np.float32)
        first, first_stats = simulate_layer(a, b, cfg, bias=bias, relu=True)
        again, again_stats = simulate_layer(a, b, cfg, bias=bias, relu=True)
        assert first.tobytes() == again.tobytes()
        assert first_stats == again_stats


class TestRunNetwork:
    def test_zero_weights_bias_relu(self):
        desc = mlp_desc([8, 6, 4], batch=5, cfg=(2, 2, 2, 2, 2))
        params = [
            LayerParams(np.zeros((8, 6), dtype=np.float32),
                        np.full(6, 0.5, dtype=np.float32)),
            LayerParams(np.zeros((6, 4), dtype=np.float32),
                        np.array([-1.0, 0.0, 1.0, 2.0], dtype=np.float32)),
        ]
        x = np.random.default_rng(10).uniform(0, 1, (5, 8)).astype(np.float32)
        out, stats = run_network(desc, params, x, desc.systolic)
        assert np.array_equal(out, np.tile([-1.0, 0.0, 1.0, 2.0], (5, 1)))
        assert len(stats) == 2

    def test_equals_chained_simulate_layer(self):
        # each layer starts from empty accumulators: no residue of the previous layer
        desc = mlp_desc([12, 10, 7, 3], batch=5, cfg=(2, 2, 2, 2, 2))
        rng = np.random.default_rng(8)
        params = [LayerParams(rng.uniform(-1, 1, (l.in_features, l.out_features)).astype(np.float32),
                              rng.uniform(-1, 1, l.out_features).astype(np.float32))
                  for l in desc.layers]
        x = rng.uniform(0, 1, (5, 12)).astype(np.float32)
        out, stats = run_network(desc, params, x, desc.systolic)
        cfg = SystolicConfig(2, 2, 2, 2, 2)
        chained, chained_stats = x, []
        for layer, p in zip(desc.layers, params):
            chained, s = simulate_layer(chained, p.weights, cfg,
                                        bias=p.bias if layer.bias else None,
                                        relu=layer.activation == "relu")
            chained_stats.append(s)
        assert out.tobytes() == chained.tobytes()
        assert stats == chained_stats

    def test_matches_forward_small_net(self, small_dataset):
        # a bias-free layer's bias stays 0 in training, as the simulator assumes
        from ecad.nnsim import forward, train
        for bias in (True, False):
            desc = mlp_desc([784, 32, 10], batch=64, cfg=(2, 4, 8, 8, 2), bias=bias)
            mlp, _ = train(desc, small_dataset, epochs=1, batch_size=100, seed=5)
            assert all(p.bias.any() == bias for p in mlp.layers)
            x = to_float(small_dataset.test_x[:200])
            logits_sim, _ = run_network(desc, mlp.layers, x, desc.systolic)
            logits_ref = forward(mlp, x)
            pred_sim = np.argmax(logits_sim, axis=1)
            pred_ref = np.argmax(logits_ref, axis=1)
            labels = small_dataset.test_y[:200]
            assert np.mean(pred_sim == labels) == np.mean(pred_ref == labels)
            assert max_rel_error(logits_sim, logits_ref.astype(np.float64)) <= 1e-4

    def test_param_shape_mismatch(self):
        desc = mlp_desc([8, 4], batch=2, cfg=(1, 1, 1, 1, 1))
        bad = [LayerParams(np.zeros((8, 5), dtype=np.float32), np.zeros(5, dtype=np.float32))]
        with pytest.raises(SimulationError, match="weights shape"):
            run_network(desc, bad, np.zeros((2, 8), dtype=np.float32), desc.systolic)

    @pytest.mark.parametrize("length", [3, 5])
    def test_mis_sized_bias_rejected(self, length):
        desc = mlp_desc([8, 4], batch=2, cfg=(2, 2, 2, 2, 2))
        params = [LayerParams(np.ones((8, 4), dtype=np.float32), np.ones(length, dtype=np.float32))]
        with pytest.raises(SimulationError, match="bias shape"):
            run_network(desc, params, np.ones((2, 8), dtype=np.float32), desc.systolic)
