import math
import random

import pytest

from ecad.config import HwConfig
from ecad.hwmodel import (
    ModelError,
    SystolicConfig,
    block_geometry,
    compute_cycles,
    estimate,
    potential_gops,
    resource_estimate,
    total_ops,
)

from helpers import TABLE2_MODELED, TABLE3_CONFIGS, mlp_desc

ARRIA10 = HwConfig(dsp=1518, freq=250, sram=54260,
                   mem_banks=1, mem_speed=2400, mem_rate=8)

TABLE2_CFG = SystolicConfig(4, 4, 8, 8, 8, freq_mhz=250)
TABLE2_DIMS = [784, 196, 190, 150, 10]


class TestBlockGeometry:
    def test_common_dimension_anchor(self):
        # (4, 8, 8, 16, 18): common block 144 pads 784 up to 864 -> 91% efficient
        g = block_geometry(SystolicConfig(4, 8, 8, 16, 18), m=1024, k=784, n=10)
        assert g.common_block == 144
        assert g.k_pad == 864
        assert g.k / g.k_pad == pytest.approx(784 / 864)

    def test_batch_dimension_anchor(self):
        # block height 64 divides batch 1024 exactly -> 100% efficient
        g = block_geometry(SystolicConfig(4, 8, 8, 16, 18), m=1024, k=784, n=10)
        assert g.block_height == 64
        assert g.m_pad == 1024
        assert g.m / g.m_pad == 1.0

    def test_unit_case(self):
        g = block_geometry(SystolicConfig(1, 1, 1, 1, 1), 1, 1, 1)
        assert (g.m_pad, g.k_pad, g.n_pad) == (1, 1, 1)
        assert (g.m_blocks, g.k_blocks, g.n_blocks) == (1, 1, 1)

    def test_b_block_height_equals_a_block_width(self):
        cfg = SystolicConfig(2, 8, 16, 16, 2)
        g = block_geometry(cfg, 64, 300, 500)
        assert g.common_block == cfg.vec * cfg.scale        # shared dimension
        assert g.block_width == cfg.cols * cfg.interleave
        assert g.block_height == cfg.rows * cfg.interleave

    def test_padding_is_minimal_cover(self):
        rng = random.Random(0)
        for _ in range(200):
            cfg = SystolicConfig(rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 16),
                                 rng.randint(1, 16), rng.randint(1, 8))
            m, k, n = (rng.randint(1, 999) for _ in range(3))
            g = block_geometry(cfg, m, k, n)
            assert g.m_pad >= m and g.m_pad - g.block_height < m
            assert g.k_pad >= k and g.k_pad - g.common_block < k
            assert g.n_pad >= n and g.n_pad - g.block_width < n

    def test_bad_dims(self):
        with pytest.raises(ModelError):
            block_geometry(TABLE2_CFG, 0, 5, 5)


class TestPotentialGops:
    def test_reference_config(self):
        assert potential_gops(SystolicConfig(4, 4, 8, 8, 8, freq_mhz=250)) == 64.0

    def test_unit_config(self):
        assert potential_gops(SystolicConfig(1, 1, 1, 1, 1, freq_mhz=1)) == pytest.approx(2e-3)

    def test_roofline_dominates_measured_best(self):
        # (2, 16, 32) at 250 MHz rooflines at 512, above the observed 200.98
        assert potential_gops(SystolicConfig(2, 16, 32, 32, 2, freq_mhz=250)) == 512.0
        assert 512.0 >= 200.98


class TestComputeCycles:
    def test_hand_value(self):
        assert compute_cycles(TABLE2_CFG, 2048, 784, 196) == 2_981_888

    def test_formula_equivalence(self):
        rng = random.Random(1)
        for _ in range(200):
            cfg = SystolicConfig(rng.randint(1, 8), rng.randint(1, 8),
                                 rng.randint(1, 16), rng.randint(1, 16), rng.randint(1, 8))
            m, k, n = (rng.randint(1, 600) for _ in range(3))
            g = block_geometry(cfg, m, k, n)
            expected = g.m_blocks * g.n_blocks * (g.k_pad // cfg.vec) * cfg.interleave ** 2
            assert compute_cycles(cfg, m, k, n) == expected


class TestEstimate:
    def test_table2_within_tolerance(self):
        for batch, (eff_paper, time_paper) in TABLE2_MODELED.items():
            est = estimate(mlp_desc(TABLE2_DIMS, batch), TABLE2_CFG, ARRIA10)
            assert est.effective_gops == pytest.approx(eff_paper, rel=0.25)
            assert est.total_time_ms == pytest.approx(time_paper, rel=0.25)

    def test_table2_monotone_and_below_roofline(self):
        prev = 0.0
        for batch in TABLE2_MODELED:
            est = estimate(mlp_desc(TABLE2_DIMS, batch), TABLE2_CFG, ARRIA10)
            assert est.effective_gops >= prev
            assert est.effective_gops < est.potential_gops == 64.0
            prev = est.effective_gops

    def test_ops_time_identity(self):
        for batch in TABLE2_MODELED:
            desc = mlp_desc(TABLE2_DIMS, batch)
            est = estimate(desc, TABLE2_CFG, ARRIA10)
            assert est.effective_gops * est.total_time_ms * 1e6 == pytest.approx(
                total_ops(desc), rel=1e-12)
            assert est.img_per_s * est.total_time_ms / 1e3 == pytest.approx(batch, rel=1e-12)

    def test_total_ops_batch1(self):
        assert total_ops(mlp_desc(TABLE2_DIMS, 1)) == 441_808

    def test_img_per_s_identity_pinned_effective(self):
        # §: pinning effective GOP/s to the published 174 reproduces the img/s figure
        desc = mlp_desc([784, 852, 10], 508)
        img_s = 174e9 / (total_ops(desc) / desc.batch)
        assert img_s == pytest.approx(129_144, rel=0.02)

    def test_effective_never_exceeds_potential(self):
        rng = random.Random(7)
        for _ in range(300):
            cfg = SystolicConfig(rng.choice([1, 2, 4, 8]), rng.choice([1, 2, 4, 8]),
                                 rng.choice([2, 4, 8, 16]), rng.choice([2, 4, 8, 16]),
                                 rng.choice([1, 2, 4]))
            dims = [rng.randint(1, 900) for _ in range(rng.randint(2, 4))]
            est = estimate(mlp_desc(dims, rng.randint(1, 512)), cfg, ARRIA10)
            assert est.effective_gops <= est.potential_gops + 1e-9

    def test_compute_efficiency_factorization(self):
        # with no bandwidth or drain term, a single layer's efficiency is the
        # product of the three padding efficiencies
        rng = random.Random(3)
        for _ in range(100):
            cfg = SystolicConfig(rng.choice([1, 2, 4]), rng.choice([1, 2, 4]),
                                 rng.choice([2, 4, 8]), rng.choice([2, 4, 8]),
                                 rng.choice([1, 2, 4]), freq_mhz=250)
            m, k, n = (rng.randint(1, 700) for _ in range(3))
            g = block_geometry(cfg, m, k, n)
            compute_only_eff = (2 * m * k * n) / (compute_cycles(cfg, m, k, n) / (cfg.freq_mhz * 1e6)) / 1e9
            factorized = potential_gops(cfg) * (g.m / g.m_pad) * (g.k / g.k_pad) * (g.n / g.n_pad)
            assert compute_only_eff == pytest.approx(factorized, rel=1e-9)

    def test_monotone_in_batch(self):
        # nondecreasing along block-aligned batch points (the Table 2 sampling);
        # between block boundaries the padded rows dilute the op count, so a
        # batch of block_height + 1 legitimately dips below block_height
        desc_dims = [784, 852, 10]
        prev = 0.0
        for batch in [1, 2, 8, 32, 64, 128, 512, 1024, 2048]:
            est = estimate(mlp_desc(desc_dims, batch), SystolicConfig(2, 8, 32, 16, 2), ARRIA10)
            assert est.effective_gops >= prev - 1e-9
            prev = est.effective_gops

    def test_latency_definition(self):
        desc = mlp_desc(TABLE2_DIMS, 1)
        est = estimate(desc, TABLE2_CFG, ARRIA10)
        freq_hz = TABLE2_CFG.freq_mhz * 1e6
        g_last = block_geometry(TABLE2_CFG, 1, 150, 10)
        first_block = (g_last.k_pad // TABLE2_CFG.vec) * TABLE2_CFG.interleave ** 2
        expected = sum(t.seconds for t in est.layers[:-1]) + first_block / freq_hz
        assert est.latency_ms == pytest.approx(expected * 1e3, rel=1e-12)
        assert est.latency_ms < est.total_time_ms

    def test_memory_bound_layer(self):
        starved = HwConfig(dsp=1518, freq=250, sram=54260,
                           mem_banks=1, mem_speed=1, mem_rate=1)   # 1 MB/s
        desc = mlp_desc([784, 64, 10], 32)
        est = estimate(desc, TABLE2_CFG, starved)
        assert all(t.memory_bound for t in est.layers)
        expected = sum(block_geometry(TABLE2_CFG, 32, l.in_features, l.out_features).stream_bytes
                       for l in desc.layers) / 1e6
        assert est.total_time_ms == pytest.approx(expected * 1e3, rel=1e-12)

    def test_zero_layers_rejected(self):
        desc = mlp_desc([784, 10], 1)
        empty = type(desc)(id=0, batch=1, layers=(), systolic=None)
        with pytest.raises(ModelError, match="no layers"):
            estimate(empty, TABLE2_CFG, ARRIA10)

    def test_metrics_keys(self):
        est = estimate(mlp_desc([784, 10], 4), TABLE2_CFG, ARRIA10)
        assert set(est.metrics()) == {
            "total_time_ms", "potential_gops", "effective_gops", "img_per_s",
            "latency_ms", "dsp_est", "mem_kb_est", "feasible",
        }


class TestResources:
    def test_table3_configs_feasible(self):
        for text in TABLE3_CONFIGS:
            cfg = SystolicConfig.parse(text)
            dsp, mem, feasible = resource_estimate(cfg, ARRIA10)
            assert feasible, (text, dsp, mem)

    def test_known_dsp_estimate(self):
        dsp, _, feasible = resource_estimate(SystolicConfig(2, 8, 32, 16, 2), ARRIA10)
        assert dsp == 544 and feasible

    def test_oversized_config_infeasible(self):
        dsp, _, feasible = resource_estimate(SystolicConfig(64, 64, 64, 64, 64), ARRIA10)
        assert dsp == 64 * 64 * 64 + 32 == 262_176
        assert not feasible

    def test_minimal_config_feasible_on_device(self):
        _, _, feasible = resource_estimate(SystolicConfig(1, 1, 1, 1, 1), ARRIA10)
        assert feasible

    def test_coefficients_configurable(self):
        # memory: (rows + cols) double-buffered caches of interleave blocks of
        # vec * scale floats, plus the fixed 256 KiB drain/bias allowance
        dsp, mem, _ = resource_estimate(SystolicConfig(2, 2, 2, 2, 2), ARRIA10)
        assert dsp == 2 * 2 * 2 + 32
        assert mem == pytest.approx((2 + 2) * 2 * 2 * 4 * 4 / 1024 + 256.0)

    def test_infeasible_drives_worker_failure(self):
        # estimate still reports metrics; feasibility is a flag
        est = estimate(mlp_desc([784, 10], 4), SystolicConfig(64, 64, 64, 64, 64), ARRIA10)
        assert not est.feasible
        assert est.metrics()["feasible"] == 0.0


class TestParse:
    def test_notation_round_trip(self):
        cfg = SystolicConfig.parse("4,8,8,16,18")
        assert cfg.as_tuple() == (4, 8, 8, 16, 18)

    def test_bad_notation(self):
        with pytest.raises(ModelError):
            SystolicConfig.parse("4,8,8")

    @pytest.mark.parametrize("text", ["4,4,x,8,8", "4,4,8,8,", "4,4,2.5,8,8"])
    def test_non_integer_field(self, text):
        with pytest.raises(ModelError, match="5 comma-separated integers"):
            SystolicConfig.parse(text)

    def test_invalid_values(self):
        with pytest.raises(ModelError):
            SystolicConfig(0, 1, 1, 1, 1)


def test_drain_cycles_match_padded_output():
    rng = random.Random(5)
    for _ in range(50):
        cfg = SystolicConfig(rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8),
                             rng.randint(1, 8), rng.randint(1, 4))
        m, k, n = (rng.randint(1, 500) for _ in range(3))
        g = block_geometry(cfg, m, k, n)
        assert g.drain_cycles == g.m_pad * g.n_pad


def test_stream_bytes_formula():
    cfg = SystolicConfig(4, 4, 8, 8, 8)
    g = block_geometry(cfg, 32, 784, 196)
    per_pair = (g.block_height * g.common_block + g.common_block * g.block_width) * 4
    expected = g.m_blocks * g.n_blocks * g.k_blocks * per_pair + g.m_pad * g.n_pad * 4
    assert g.stream_bytes == expected == 1_519_616
