"""Analytical performance and resource model for the 2D systolic array.

Maps a network description onto an array configuration without touching
hardware. Two parts:
  - the resource screen (`resource_estimate`) reads only the array shape and
    the device budget and says whether the design fits. The hwDBJob worker
    runs it first: a design that does not fit fails its job with only the
    screen's metrics (`dsp_est`, `mem_kb_est`, `feasible` 0.0) and is never
    timed.
  - the timing model (`estimate`) returns the five fitness metrics (total
    time, potential and effective GOP/s, images/s, latency) with the
    screen's metrics and a per-layer breakdown.

Timing model per layer (GEMM of M x K by K x N):
  - compute: each PE consumes one vec-wide vector per cycle and owns
    interleave^2 accumulators, so one output block costs (K'/V) * I^2 cycles
    and the layer costs (M'/BH) * (N'/BW) * (K'/V) * I^2.
  - drain: the global drain moves one element per cycle and the flush
    sequence serializes it against compute, adding M' * N' cycles.
  - memory: every A/B block is streamed once per output block it feeds,
    plus one write of the padded output; the layer takes
    max(cycles / f, bytes / bandwidth), f being the device clock ``HwConfig.freq``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import HW_METRICS, HwConfig
from .genome import NetworkDescription, SystolicConfig


def _pad_up(n: int, block: int) -> int:
    return ((n + block - 1) // block) * block


@dataclass(frozen=True)
class BlockGeometry:
    """Blocked dimensions of one GEMM on a given array configuration."""

    block_height: int    # matrix A block height = rows * interleave
    block_width: int     # matrix B block width  = cols * interleave
    common_block: int    # shared A-width / B-height = vec * scale
    m: int
    k: int
    n: int
    m_pad: int
    k_pad: int
    n_pad: int
    block_cycles: int    # accumulation of one output block = (K'/V) * I^2

    @property
    def m_blocks(self) -> int:
        return self.m_pad // self.block_height

    @property
    def k_blocks(self) -> int:
        return self.k_pad // self.common_block

    @property
    def n_blocks(self) -> int:
        return self.n_pad // self.block_width

    @property
    def compute_cycles(self) -> int:
        """Exact PE-grid cycle count: every output block accumulates in turn."""
        return self.m_blocks * self.n_blocks * self.block_cycles

    @property
    def drain_cycles(self) -> int:
        """Global-drain cycles: one element per cycle over the padded output."""
        return self.m_pad * self.n_pad

    @property
    def stream_bytes(self) -> int:
        """DDR traffic: A/B blocks streamed per output block plus the output write."""
        per_pair = (self.block_height * self.common_block + self.common_block * self.block_width) * 4
        return self.m_blocks * self.n_blocks * self.k_blocks * per_pair + self.m_pad * self.n_pad * 4


def block_geometry(cfg: SystolicConfig, m: int, k: int, n: int) -> BlockGeometry:
    """Every dimension is >= 1: a description's widths and batch are checked where it enters."""
    bh = cfg.rows * cfg.interleave
    bw = cfg.cols * cfg.interleave
    cb = cfg.vec * cfg.scale
    k_pad = _pad_up(k, cb)
    return BlockGeometry(
        block_height=bh, block_width=bw, common_block=cb,
        m=m, k=k, n=n,
        m_pad=_pad_up(m, bh), k_pad=k_pad, n_pad=_pad_up(n, bw),
        block_cycles=(k_pad // cfg.vec) * cfg.interleave ** 2,
    )


def compute_cycles(cfg: SystolicConfig, m: int, k: int, n: int) -> int:
    """Exact PE-grid cycle count for one blocked GEMM."""
    return block_geometry(cfg, m, k, n).compute_cycles


def potential_gops(cfg: SystolicConfig, freq_mhz: float) -> float:
    """Roofline at a clock of freq_mhz: one multiply and one add per lane per cycle."""
    return 2.0 * cfg.rows * cfg.cols * cfg.vec * freq_mhz * 1e6 / 1e9


# resource screen calibration (optimistic): a fixed overhead for the DSP
# count and for the memory estimate in KiB
C_DSP = 32.0
C_MEM = 256.0


def resource_estimate(cfg: SystolicConfig, hw: HwConfig) -> tuple[float, float, bool]:
    """(dsp_est, mem_kb_est, feasible) for this configuration on the device budget.

    DSP cost scales with the lane count (rows * cols * vec); memory cost with
    the double-buffered block caches along both grid edges, plus a constant
    covering the drain and bias buffers.
    """
    dsp_est = cfg.rows * cfg.cols * cfg.vec + C_DSP
    cb = cfg.vec * cfg.scale
    mem_kb_est = (cfg.rows + cfg.cols) * 2 * cfg.interleave * cb * 4 / 1024 + C_MEM
    feasible = dsp_est <= hw.dsp and mem_kb_est <= hw.sram
    return dsp_est, mem_kb_est, feasible


@dataclass(frozen=True)
class LayerTiming:
    name: str
    m: int
    k: int
    n: int
    compute_cycles: int
    drain_cycles: int
    bytes: int
    seconds: float
    memory_bound: bool


@dataclass(frozen=True)
class HwEstimate:
    total_time_ms: float
    potential_gops: float
    effective_gops: float
    img_per_s: float
    latency_ms: float
    dsp_est: float
    mem_kb_est: float
    feasible: bool
    layers: tuple[LayerTiming, ...] = ()

    def metrics(self) -> dict[str, float]:
        """Flat metric map as carried by worker results, keyed by `HW_METRICS`."""
        return {name: float(getattr(self, name)) for name in HW_METRICS}


def total_ops(desc: NetworkDescription) -> int:
    """Unpadded multiply+add operation count for one full forward pass."""
    return 2 * desc.batch * sum(l.in_features * l.out_features for l in desc.layers)


def estimate(
    desc: NetworkDescription,
    cfg: SystolicConfig,
    hw: HwConfig,
) -> HwEstimate:
    """Model one network on one array configuration (single shared array) at ``hw.freq``."""
    freq_hz = hw.freq * 1e6
    bandwidth = hw.bandwidth_bytes_per_s

    timings: list[LayerTiming] = []
    for layer in desc.layers:
        g = block_geometry(cfg, desc.batch, layer.in_features, layer.out_features)
        cc, dc, nbytes = g.compute_cycles, g.drain_cycles, g.stream_bytes
        t_compute = (cc + dc) / freq_hz
        t_memory = nbytes / bandwidth
        timings.append(LayerTiming(
            name=layer.name, m=g.m, k=g.k, n=g.n,
            compute_cycles=cc, drain_cycles=dc, bytes=nbytes,
            seconds=max(t_compute, t_memory),
            memory_bound=t_memory > t_compute,
        ))

    total_s = math.fsum(t.seconds for t in timings)
    ops = total_ops(desc)
    effective = ops / total_s / 1e9

    # latency: all earlier layers complete, then the last layer's first
    # output block (g is the last layer's geometry) finishes its accumulation
    latency_s = math.fsum(t.seconds for t in timings[:-1]) + g.block_cycles / freq_hz

    dsp_est, mem_kb_est, feasible = resource_estimate(cfg, hw)
    return HwEstimate(
        total_time_ms=total_s * 1e3,
        potential_gops=potential_gops(cfg, hw.freq),
        effective_gops=effective,
        img_per_s=desc.batch / total_s,
        latency_ms=latency_s * 1e3,
        dsp_est=dsp_est,
        mem_kb_est=mem_kb_est,
        feasible=feasible,
        layers=tuple(timings),
    )
