"""Analytical performance and resource model for the 2D systolic array.

Maps a network description onto an array configuration without touching
hardware. Neither part reads a layer's ``bias``, so the ``enableBias`` trait
is hardware-neutral. Two parts:
  - the resource screen (`resource_estimate`) reads only the array shape and
    the device budget and says whether the design fits. The hwDBJob worker
    runs it first: a design that does not fit fails its job with only the
    screen's metrics (`dsp_est`, `mem_kb_est`, `feasible` 0.0) and is never
    timed.
  - the timing model (`estimate`) returns the five fitness metrics (total
    time, potential and effective GOP/s, images/s, latency) with the
    screen's metrics and a per-layer breakdown.

Timing model per layer: `gemm_cost` prices its M x K by K x N GEMM, with M,
K and N padded up to whole blocks of BH = rows * I, vec * scale and
BW = cols * I (M', K', N'; I is the interleave):
  - compute_cycles: each PE consumes one vec-wide vector per cycle and owns
    I^2 accumulators, so one output block costs block_cycles = (K'/V) * I^2
    and the layer (M'/BH) * (N'/BW) * block_cycles.
  - drain_elements: the drain moves one element per cycle, serialized
    against compute by the flush sequence: M' * N' more cycles.
  - stream_bytes: each A/B block pair once per output block, plus one write
    of the padded output. The layer takes max((compute_cycles +
    drain_elements) / f, stream_bytes / bandwidth), f being ``HwConfig.freq``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import HW_METRICS, HwConfig
from .genome import NetworkDescription, SystolicConfig


@dataclass(frozen=True)
class GemmCost:
    """Blocked cost of one M x K by K x N GEMM on one array configuration."""

    blocks: int           # A/B block pairs streamed: m_blocks * n_blocks * k_blocks
    block_cycles: int     # accumulation of one output block: (K'/V) * I^2
    compute_cycles: int   # every output block accumulates in turn
    drain_elements: int   # the padded output M' * N', drained one per cycle
    stream_bytes: int     # every A/B block pair, then one write of the padded output


def gemm_cost(cfg: SystolicConfig, m: int, k: int, n: int) -> GemmCost:
    """Every dimension is >= 1: a description's widths and batch are checked where it enters."""
    bh = cfg.rows * cfg.interleave
    bw = cfg.cols * cfg.interleave
    cb = cfg.vec * cfg.scale
    m_blocks, k_blocks, n_blocks = -(-m // bh), -(-k // cb), -(-n // bw)
    blocks = m_blocks * n_blocks * k_blocks
    block_cycles = k_blocks * cfg.scale * cfg.interleave ** 2   # K'/V = k_blocks * scale
    drain_elements = m_blocks * bh * n_blocks * bw
    return GemmCost(
        blocks=blocks,
        block_cycles=block_cycles,
        compute_cycles=m_blocks * n_blocks * block_cycles,
        drain_elements=drain_elements,
        stream_bytes=(blocks * (bh + bw) * cb + drain_elements) * 4,
    )


def compute_cycles(cfg: SystolicConfig, m: int, k: int, n: int) -> int:
    """Exact PE-grid cycle count for one blocked GEMM."""
    return gemm_cost(cfg, m, k, n).compute_cycles


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
    covering the drain and bias buffers, with or without a layer bias.
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
    cost: GemmCost
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
    layers: tuple[LayerTiming, ...]

    def metrics(self) -> dict[str, float]:
        """Flat metric map as carried by worker results, keyed by `HW_METRICS`."""
        return {name: float(getattr(self, name)) for name in HW_METRICS}


def total_ops(desc: NetworkDescription) -> int:
    """Unpadded multiply+add operation count for one full forward pass."""
    return 2 * desc.batch * sum(l.in_features * l.out_features for l in desc.layers)


def estimate(desc: NetworkDescription, cfg: SystolicConfig, hw: HwConfig) -> HwEstimate:
    """Model one network on one array configuration (single shared array) at ``hw.freq``."""
    freq_hz = hw.freq * 1e6
    bandwidth = hw.bandwidth_bytes_per_s

    timings: list[LayerTiming] = []
    for layer in desc.layers:
        m, k, n = desc.batch, layer.in_features, layer.out_features
        cost = gemm_cost(cfg, m, k, n)
        t_compute = (cost.compute_cycles + cost.drain_elements) / freq_hz
        t_memory = cost.stream_bytes / bandwidth
        timings.append(LayerTiming(
            name=layer.name, m=m, k=k, n=n, cost=cost,
            seconds=max(t_compute, t_memory),
            memory_bound=t_memory > t_compute,
        ))

    total_s = math.fsum(t.seconds for t in timings)

    # latency: all earlier layers complete, then the last layer's first
    # output block finishes its accumulation
    latency_s = math.fsum(t.seconds for t in timings[:-1]) + cost.block_cycles / freq_hz

    dsp_est, mem_kb_est, feasible = resource_estimate(cfg, hw)
    return HwEstimate(
        total_time_ms=total_s * 1e3,
        potential_gops=potential_gops(cfg, hw.freq),
        effective_gops=total_ops(desc) / total_s / 1e9,
        img_per_s=desc.batch / total_s,
        latency_ms=latency_s * 1e3,
        dsp_est=dsp_est,
        mem_kb_est=mem_kb_est,
        feasible=feasible,
        layers=tuple(timings),
    )
