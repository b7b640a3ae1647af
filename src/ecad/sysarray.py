"""Functional, cycle-counting simulator of the blocked 2D systolic dataflow.

A is packed into zero-padded (rows*interleave) x (vec*scale) blocks and B,
transposed on the host, into (cols*interleave) x (vec*scale) blocks. One row
of output blocks (each the interleave^2 accumulator banks of the PE grid)
advances in lockstep through the common dimension, one vec-wide slice per
step in (common-block, scale-vector) order; a step costs each block of the
row interleave^2 cycles. Finished blocks drain one element per cycle, with
the optional bias and ReLU applied at the drain.

Numerics are float32 in a fixed accumulation order: each step's vec-wide
products are reduced level-wise over adjacent pairs (an odd trailing element
passes through to the next level), then the steps accumulate sequentially.
This matches the pipelined reduction-tree hardware and makes results
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Reduce the leading axis over adjacent pairs, level by level, in float32."""
    p = np.asarray(products, dtype=np.float32)
    while p.shape[0] > 1:
        n = p.shape[0]
        even = n - (n % 2)
        s = p[0:even:2] + p[1:even:2]
        if n % 2:
            s = np.concatenate([s, p[-1:]])
        p = s
    return p[0]


# --- layer simulation -----------------------------------------------------------

@dataclass
class CycleStats:
    compute_cycles: int = 0
    a_blocks: int = 0
    b_blocks: int = 0
    drain_elements: int = 0


def simulate_layer(
    a: np.ndarray,
    b: np.ndarray,
    cfg: SystolicConfig,
    bias: np.ndarray | None = None,
    relu: bool = False,
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
    if min(m, k, n) < 1:
        raise SimulationError(f"empty GEMM: m={m}, k={k}, n={n}")
    if bias is not None and np.shape(bias) != (n,):
        raise SimulationError(f"bias shape {np.shape(bias)} does not match ({n},)")
    vec, scale = cfg.vec, cfg.scale
    bh = cfg.rows * cfg.interleave
    bw = cfg.cols * cfg.interleave

    packed_a = block_pack(a, bh, vec * scale)
    packed_b = block_pack(b, bw, vec * scale, transposed=True)
    mb, kb, _, cb = packed_a.data.shape
    nb = packed_b.data.shape[0]
    # b_cols[kk] is common block kk of B as seen by the whole block row: (cb, nb * bw)
    b_cols = packed_b.data.transpose(1, 3, 0, 2).reshape(kb, cb, nb * bw)
    bias_row = np.zeros(nb * bw, dtype=np.float32)
    if bias is not None:
        bias_row[:n] = bias

    stats = CycleStats()
    out = np.zeros((mb * bh, nb * bw), dtype=np.float32)
    for bi in range(mb):
        acc = out[bi * bh:(bi + 1) * bh]                             # the row's banks
        for kk in range(kb):
            a_blk = packed_a.data[bi, kk].T                          # (cb, bh)
            for s in range(0, cb, vec):
                acc += tree_reduce(a_blk[s:s + vec, :, None] * b_cols[kk, s:s + vec, None, :])
                stats.compute_cycles += nb * cfg.interleave ** 2
            stats.a_blocks += nb
            stats.b_blocks += nb
        # drain: the finished row leaves one element per cycle through the bias/ReLU stage
        acc += bias_row
        if relu:
            np.maximum(acc, np.float32(0.0), out=acc)
        stats.drain_elements += acc.size
    return out[:m, :n].copy(), stats


def run_network(
    desc: NetworkDescription,
    params: list,
    inputs: np.ndarray,
    cfg: SystolicConfig | None = None,
) -> tuple[np.ndarray, list[CycleStats]]:
    """Run each layer as one simulate_layer call on the previous layer's output.

    ``params`` is a list of objects with ``weights`` (in x out) and ``bias``
    attributes, one per described layer.
    """
    if cfg is None:
        if desc.systolic is None:
            raise SimulationError("network description carries no systolic configuration")
        cfg = SystolicConfig.from_desc(desc.systolic)
    if len(params) != len(desc.layers):
        raise SimulationError(f"expected {len(desc.layers)} layer params, got {len(params)}")

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
        )
        per_layer.append(layer_stats)
    return x, per_layer


def classify(logits: np.ndarray) -> np.ndarray:
    return np.argmax(logits, axis=1)
