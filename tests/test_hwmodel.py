import math
import random

import pytest

from ecad.config import HwConfig
from ecad.genome import GenomeError, SystolicConfig
from ecad.hwmodel import (
    GemmCost,
    compute_cycles,
    estimate,
    gemm_cost,
    potential_gops,
    resource_estimate,
    total_ops,
)

from helpers import TABLE2_MODELED, TABLE3_CONFIGS, mlp_desc, padded

ARRIA10 = HwConfig(dsp=1518, freq=250, sram=54260,
                   mem_banks=1, mem_speed=2400, mem_rate=8)

TABLE2_CFG = SystolicConfig(4, 4, 8, 8, 8)
TABLE2_DIMS = [784, 196, 190, 150, 10]


def expected_cost(cfg, m, k, n):
    """The cost record worked out from padding the test computes itself."""
    bh, cb, bw = cfg.rows * cfg.interleave, cfg.vec * cfg.scale, cfg.cols * cfg.interleave
    m_pad, k_pad, n_pad = padded(cfg, m, k, n)
    blocks = (m_pad // bh) * (k_pad // cb) * (n_pad // bw)
    block_cycles = (k_pad // cfg.vec) * cfg.interleave ** 2
    return GemmCost(
        blocks=blocks,
        block_cycles=block_cycles,
        compute_cycles=(m_pad // bh) * (n_pad // bw) * block_cycles,
        drain_elements=m_pad * n_pad,
        stream_bytes=blocks * (bh * cb + cb * bw) * 4 + m_pad * n_pad * 4,
    )


class TestBlockGeometry:
    """`gemm_cost` against block padding the tests work out themselves."""

    def test_common_dimension_anchor(self):
        # (4, 8, 8, 16, 18): common block 144 pads 784 up to 864 -> 91% efficient
        cfg = SystolicConfig(4, 8, 8, 16, 18)
        _, k_pad, _ = padded(cfg, 1024, 784, 10)
        assert cfg.vec * cfg.scale == 144 and k_pad == 864
        c = gemm_cost(cfg, m=1024, k=784, n=10)
        assert c.block_cycles == (864 // 8) * 16 ** 2
        assert c.blocks == (1024 // 64) * 1 * (864 // 144)
        assert 784 / k_pad == pytest.approx(0.9074, abs=1e-4)

    def test_batch_dimension_anchor(self):
        # block height 64 divides batch 1024 exactly -> 100% efficient
        cfg = SystolicConfig(4, 8, 8, 16, 18)
        m_pad, _, n_pad = padded(cfg, 1024, 784, 10)
        assert cfg.rows * cfg.interleave == 64 and m_pad == 1024
        c = gemm_cost(cfg, m=1024, k=784, n=10)
        assert c.drain_elements == 1024 * n_pad == 1024 * 128
        assert c.compute_cycles == (1024 // 64) * c.block_cycles

    def test_unit_case(self):
        c = gemm_cost(SystolicConfig(1, 1, 1, 1, 1), 1, 1, 1)
        assert padded(SystolicConfig(1, 1, 1, 1, 1), 1, 1, 1) == (1, 1, 1)
        assert c == GemmCost(blocks=1, block_cycles=1, compute_cycles=1,
                             drain_elements=1, stream_bytes=(1 + 1 + 1) * 4)

    def test_b_block_height_equals_a_block_width(self):
        # one A block is 32 x 32 and one B block 32 x 128: both span the common
        # block vec * scale = 32, which K pads up to
        cfg = SystolicConfig(2, 8, 16, 16, 2)
        c = gemm_cost(cfg, 64, 300, 500)
        m_pad, k_pad, n_pad = padded(cfg, 64, 300, 500)
        assert (m_pad, k_pad, n_pad) == (64, 320, 512)
        assert c.blocks == (64 // 32) * (320 // 32) * (512 // 128)
        assert c.stream_bytes == c.blocks * (32 * 32 + 32 * 128) * 4 + 64 * 512 * 4
        assert c.block_cycles == (320 // 16) * 16 ** 2

    def test_padding_is_minimal_cover(self):
        rng = random.Random(0)
        for _ in range(200):
            cfg = SystolicConfig(rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 16),
                                 rng.randint(1, 16), rng.randint(1, 8))
            m, k, n = (rng.randint(1, 999) for _ in range(3))
            m_pad, k_pad, n_pad = padded(cfg, m, k, n)
            assert m_pad >= m and m_pad - cfg.rows * cfg.interleave < m
            assert k_pad >= k and k_pad - cfg.vec * cfg.scale < k
            assert n_pad >= n and n_pad - cfg.cols * cfg.interleave < n
            assert gemm_cost(cfg, m, k, n) == expected_cost(cfg, m, k, n)

    def test_padded_dimensions_cost_the_same(self):
        # a GEMM already padded to whole blocks costs what the unpadded one does
        rng = random.Random(2)
        for _ in range(100):
            cfg = SystolicConfig(rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 16),
                                 rng.randint(1, 16), rng.randint(1, 8))
            m, k, n = (rng.randint(1, 999) for _ in range(3))
            assert gemm_cost(cfg, *padded(cfg, m, k, n)) == gemm_cost(cfg, m, k, n)


class TestPotentialGops:
    def test_reference_config(self):
        assert potential_gops(SystolicConfig(4, 4, 8, 8, 8), 250) == 64.0

    def test_unit_config(self):
        assert potential_gops(SystolicConfig(1, 1, 1, 1, 1), 1) == pytest.approx(2e-3)

    def test_roofline_dominates_measured_best(self):
        # (2, 16, 32) at 250 MHz rooflines at 512, above the observed 200.98
        assert potential_gops(SystolicConfig(2, 16, 32, 32, 2), 250) == 512.0
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
            m_pad, k_pad, n_pad = padded(cfg, m, k, n)
            output_blocks = (m_pad // (cfg.rows * cfg.interleave)) * (n_pad // (cfg.cols * cfg.interleave))
            expected = output_blocks * (k_pad // cfg.vec) * cfg.interleave ** 2
            assert compute_cycles(cfg, m, k, n) == expected
            assert gemm_cost(cfg, m, k, n).compute_cycles == expected


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
                                 rng.choice([1, 2, 4]))
            m, k, n = (rng.randint(1, 700) for _ in range(3))
            m_pad, k_pad, n_pad = padded(cfg, m, k, n)
            compute_only_eff = (2 * m * k * n) / (compute_cycles(cfg, m, k, n) / (ARRIA10.freq * 1e6)) / 1e9
            factorized = potential_gops(cfg, ARRIA10.freq) * (m / m_pad) * (k / k_pad) * (n / n_pad)
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
        freq_hz = ARRIA10.freq * 1e6
        _, k_pad, _ = padded(TABLE2_CFG, 1, 150, 10)
        assert k_pad == 192
        first_block = (k_pad // TABLE2_CFG.vec) * TABLE2_CFG.interleave ** 2
        assert est.layers[-1].cost.block_cycles == first_block
        expected = sum(t.seconds for t in est.layers[:-1]) + first_block / freq_hz
        assert est.latency_ms == pytest.approx(expected * 1e3, rel=1e-12)
        assert est.latency_ms < est.total_time_ms

    def test_memory_bound_layer(self):
        starved = HwConfig(dsp=1518, freq=250, sram=54260,
                           mem_banks=1, mem_speed=1, mem_rate=1)   # 1 MB/s
        desc = mlp_desc([784, 64, 10], 32)
        est = estimate(desc, TABLE2_CFG, starved)
        assert all(t.memory_bound for t in est.layers)
        expected = sum(expected_cost(TABLE2_CFG, 32, l.in_features, l.out_features).stream_bytes
                       for l in desc.layers) / 1e6
        assert est.total_time_ms == pytest.approx(expected * 1e3, rel=1e-12)

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
        with pytest.raises(GenomeError):
            SystolicConfig.parse("4,8,8")

    @pytest.mark.parametrize("text", ["4,4,x,8,8", "4,4,8,8,", "4,4,2.5,8,8"])
    def test_non_integer_field(self, text):
        with pytest.raises(GenomeError, match="5 comma-separated integers"):
            SystolicConfig.parse(text)

    def test_invalid_values(self):
        with pytest.raises(GenomeError, match="rows must be >= 1, got 0"):
            SystolicConfig(0, 1, 1, 1, 1)


def test_drain_cycles_match_padded_output():
    rng = random.Random(5)
    for _ in range(50):
        cfg = SystolicConfig(rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8),
                             rng.randint(1, 8), rng.randint(1, 4))
        m, k, n = (rng.randint(1, 500) for _ in range(3))
        m_pad, _, n_pad = padded(cfg, m, k, n)
        assert gemm_cost(cfg, m, k, n).drain_elements == m_pad * n_pad


def test_stream_bytes_formula():
    # (4, 4, 8, 8, 8): 32 x 64 A blocks and 64 x 32 B blocks; 32 x 784 x 196
    # pads to 32 x 832 x 224, so 1 * 13 * 7 = 91 block pairs
    cfg = SystolicConfig(4, 4, 8, 8, 8)
    assert padded(cfg, 32, 784, 196) == (32, 832, 224)
    per_pair = (32 * 64 + 64 * 32) * 4
    expected = 91 * per_pair + 32 * 224 * 4
    assert gemm_cost(cfg, 32, 784, 196).stream_bytes == expected == 1_519_616


def test_estimate_layers_carry_their_cost():
    desc = mlp_desc(TABLE2_DIMS, 64)
    est = estimate(desc, TABLE2_CFG, ARRIA10)
    assert [(t.name, t.m, t.k, t.n) for t in est.layers] == [
        (l.name, 64, l.in_features, l.out_features) for l in desc.layers]
    assert [t.cost for t in est.layers] == [
        gemm_cost(TABLE2_CFG, 64, l.in_features, l.out_features) for l in desc.layers]
