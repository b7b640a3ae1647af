"""Functional, cycle-counting simulator of the blocked 2D systolic dataflow.

Loaders stream zero-padded matrix blocks through daisy-chained double-buffer
memory modules into a rows x cols grid of processing elements. Each PE owns
interleave^2 shift-register accumulators and consumes one vec-wide vector per
cycle; finished output blocks drain one element per cycle through the output
modules into a global drain that reorders them into row-major storage and
applies the optional bias and activation.

Numerics are single precision with a fixed accumulation order: the vec-wide
products are reduced level-wise over adjacent pairs (an odd trailing element
passes through to the next level), then the scale vectors of a block and the
blocks along the common dimension accumulate sequentially. This matches the
pipelined reduction-tree hardware and makes results bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .genome import NetworkDescription
from .hwmodel import SystolicConfig


class SimulationError(ValueError):
    pass


# --- matrix blocking ---------------------------------------------------------

@dataclass(frozen=True)
class BlockedMatrix:
    """Zero-padded, block-contiguous storage of a dense matrix.

    ``data`` has shape (row_blocks, col_blocks, block_rows, block_cols);
    with ``transposed`` set, the stored matrix is the transpose of the
    logical one (matrix B is transposed on the host).
    """

    rows: int
    cols: int
    block_rows: int
    block_cols: int
    data: np.ndarray
    transposed: bool = False

    def block(self, i: int, j: int) -> np.ndarray:
        return self.data[i, j]


def block_pack(a: np.ndarray, block_rows: int, block_cols: int,
               transposed: bool = False) -> BlockedMatrix:
    """Pack a dense matrix into zero-padded contiguous blocks.

    With ``transposed`` the matrix is transposed first, so blocks traverse
    its rows sequentially (the DDR layout used for matrix B).
    """
    a = np.asarray(a, dtype=np.float32)
    if a.ndim != 2:
        raise SimulationError("block_pack expects a 2-D matrix")
    logical_rows, logical_cols = a.shape
    stored = a.T if transposed else a
    r, c = stored.shape
    rb = -(-r // block_rows)
    cb = -(-c // block_cols)
    padded = np.zeros((rb * block_rows, cb * block_cols), dtype=np.float32)
    padded[:r, :c] = stored
    data = np.ascontiguousarray(
        padded.reshape(rb, block_rows, cb, block_cols).transpose(0, 2, 1, 3))
    return BlockedMatrix(rows=logical_rows, cols=logical_cols,
                         block_rows=block_rows, block_cols=block_cols,
                         data=data, transposed=transposed)


def block_unpack(bm: BlockedMatrix) -> np.ndarray:
    """Exact inverse of block_pack."""
    rb, cb, h, w = bm.data.shape
    full = bm.data.transpose(0, 2, 1, 3).reshape(rb * h, cb * w)
    r, c = (bm.cols, bm.rows) if bm.transposed else (bm.rows, bm.cols)
    trimmed = full[:r, :c]
    return trimmed.T.copy() if bm.transposed else trimmed.copy()


# --- fixed-order arithmetic ---------------------------------------------------

def tree_reduce(products: np.ndarray) -> np.ndarray:
    """Reduce the last axis over adjacent pairs, level by level, in float32."""
    p = np.asarray(products, dtype=np.float32)
    while p.shape[-1] > 1:
        n = p.shape[-1]
        even = n - (n % 2)
        s = p[..., 0:even:2] + p[..., 1:even:2]
        if n % 2:
            s = np.concatenate([s, p[..., -1:]], axis=-1)
        p = s
    return p[..., 0]


# --- array state ---------------------------------------------------------------

@dataclass
class CycleStats:
    compute_cycles: int = 0
    a_blocks: int = 0
    b_blocks: int = 0
    drain_elements: int = 0
    flush_events: int = 0


class _MModChain:
    """Daisy chain of double-buffered block caches along one grid edge."""

    def __init__(self) -> None:
        self.reading: np.ndarray | None = None
        self.loading: np.ndarray | None = None

    def load(self, block: np.ndarray) -> None:
        self.loading = block

    def swap(self) -> np.ndarray:
        if self.loading is None:
            raise SimulationError("memory module hand-off without a loaded block")
        self.reading, self.loading = self.loading, None
        return self.reading

    def clear(self) -> None:
        if self.reading is not None:
            self.reading = np.zeros_like(self.reading)
        self.loading = None


class _GlobalDrain:
    """Single-element-wide result path: reorders blocks into row-major output."""

    def __init__(self) -> None:
        self.bias_cache: np.ndarray | None = None

    def prefetch_bias(self, bias: np.ndarray | None, lo: int, width: int) -> None:
        cache = np.zeros(width, dtype=np.float32)
        if bias is not None:
            seg = bias[lo:lo + width]
            cache[:seg.shape[0]] = seg
        self.bias_cache = cache

    def emit(self, block: np.ndarray, out: np.ndarray, row0: int, col0: int,
             relu: bool, stats: CycleStats) -> None:
        assert self.bias_cache is not None
        result = block + self.bias_cache[None, :]
        if relu:
            result = np.maximum(result, np.float32(0.0))
        h, w = block.shape
        out[row0:row0 + h, col0:col0 + w] = result
        stats.drain_elements += h * w


class ArrayState:
    """Live state of the array: PE accumulator banks, caches, drain."""

    def __init__(self, cfg: SystolicConfig) -> None:
        self.cfg = cfg
        i = cfg.interleave
        # acc[r, ii, c, jj]: PE (r, c) bank slot (ii, jj) -- interleave^2 each
        self.acc = np.zeros((cfg.rows, i, cfg.cols, i), dtype=np.float32)
        self.a_chain = _MModChain()
        self.b_chain = _MModChain()
        self.drain = _GlobalDrain()
        self.stats = CycleStats()

    def bank_grid(self) -> np.ndarray:
        """All PE banks viewed as the (block_height, block_width) output tile."""
        i = self.cfg.interleave
        return self.acc.reshape(self.cfg.rows * i, self.cfg.cols * i)

    def reset_accumulators(self) -> None:
        self.acc.fill(0.0)


def simulate_flush(state: ArrayState) -> ArrayState:
    """Zero all accumulators and caches. Idempotent."""
    state.reset_accumulators()
    state.a_chain.clear()
    state.b_chain.clear()
    state.stats.flush_events += 1
    return state


# --- layer simulation -----------------------------------------------------------

def simulate_layer(
    a: np.ndarray,
    b: np.ndarray,
    cfg: SystolicConfig,
    bias: np.ndarray | None = None,
    relu: bool = False,
    state: ArrayState | None = None,
) -> tuple[np.ndarray, CycleStats]:
    """Run one M x K by K x N GEMM through the array dataflow.

    Returns the M x N result (plus optional bias and ReLU applied at the
    drain) and the cycle statistics for this layer.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise SimulationError(f"shape mismatch: {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    if state is None:
        state = ArrayState(cfg)
    stats = state.stats
    start = CycleStats(**vars(stats))
    interleave = cfg.interleave
    vec, scale = cfg.vec, cfg.scale
    bh = cfg.rows * interleave
    bw = cfg.cols * interleave
    cb = vec * scale

    packed_a = block_pack(a, bh, cb)
    packed_b = block_pack(b, bw, cb, transposed=True)
    mb, kb = packed_a.data.shape[:2]
    nb = packed_b.data.shape[0]
    bias_arr = None if bias is None else np.asarray(bias, dtype=np.float32)

    out = np.zeros((mb * bh, nb * bw), dtype=np.float32)
    slot_cycles = interleave * interleave

    for bi in range(mb):
        for bj in range(nb):
            state.drain.prefetch_bias(bias_arr, bj * bw, bw)
            for kk in range(kb):
                state.a_chain.load(packed_a.block(bi, kk))
                state.b_chain.load(packed_b.block(bj, kk))
                a_cur = state.a_chain.swap()            # (bh, cb)
                b_cur = state.b_chain.swap().T          # (cb, bw)
                bank = state.bank_grid()
                for s in range(scale):
                    va = a_cur[:, s * vec:(s + 1) * vec]            # (bh, vec)
                    vb = b_cur[s * vec:(s + 1) * vec, :]            # (vec, bw)
                    products = va[:, None, :] * vb.T[None, :, :]    # (bh, bw, vec)
                    bank += tree_reduce(products)
                    stats.compute_cycles += slot_cycles
                stats.a_blocks += 1
                stats.b_blocks += 1
            # output sequence: the bank drains through OMods to the global drain
            state.drain.emit(state.bank_grid().copy(), out, bi * bh, bj * bw, relu, stats)
            state.reset_accumulators()

    layer_stats = CycleStats(
        compute_cycles=stats.compute_cycles - start.compute_cycles,
        a_blocks=stats.a_blocks - start.a_blocks,
        b_blocks=stats.b_blocks - start.b_blocks,
        drain_elements=stats.drain_elements - start.drain_elements,
        flush_events=stats.flush_events - start.flush_events,
    )
    return out[:m, :n].copy(), layer_stats


def run_network(
    desc: NetworkDescription,
    params: list,
    inputs: np.ndarray,
    cfg: SystolicConfig | None = None,
) -> tuple[np.ndarray, list[CycleStats]]:
    """Drive all layers of a network through one shared array, flushing between them.

    ``params`` is a list of objects with ``weights`` (in x out) and ``bias``
    attributes, one per described layer.
    """
    if cfg is None:
        if desc.systolic is None:
            raise SimulationError("network description carries no systolic configuration")
        cfg = SystolicConfig.from_desc(desc.systolic)
    if len(params) != len(desc.layers):
        raise SimulationError(f"expected {len(desc.layers)} layer params, got {len(params)}")

    state = ArrayState(cfg)
    x = np.asarray(inputs, dtype=np.float32)
    per_layer: list[CycleStats] = []
    for layer, p in zip(desc.layers, params):
        if p.weights.shape != (layer.in_features, layer.out_features):
            raise SimulationError(
                f"layer '{layer.name}': weights shape {p.weights.shape} does not match "
                f"({layer.in_features}, {layer.out_features})"
            )
        x, layer_stats = simulate_layer(
            x, p.weights, cfg,
            bias=p.bias if layer.bias else None,
            relu=layer.activation == "relu",
            state=state,
        )
        per_layer.append(layer_stats)
        simulate_flush(state)
    return x, per_layer


def classify(logits: np.ndarray) -> np.ndarray:
    return np.argmax(logits, axis=1)
