"""Functional, cycle-counting simulator of the blocked 2D systolic dataflow.

On the array, A is packed into zero-padded (rows*interleave) x (vec*scale)
blocks and B, transposed on the host, into (cols*interleave) x (vec*scale)
blocks (the ``block_pack`` DDR layout). Each output block advances through
the common dimension one vec-wide slice per step, interleave^2 cycles a step,
then drains one element per cycle through the optional bias and ReLU.
The cycle figures are the model's (``hwmodel.gemm_cost``); the simulator's
own result is its numerics. ``BlockedMatrix``, ``block_pack`` and
``block_unpack`` stay only for perfbench's traced ``block_pack`` hook, and go
with ROADMAP item 13 after item 2.

Numerics are float32 in a fixed order: each step's vec-wide products are
rounded once, reduced level-wise over adjacent pairs (an odd trailing element
passes through), then the steps accumulate sequentially in K order, as in the
pipelined reduction-tree hardware; which NaN a sum of two keeps is not fixed.
Output elements are independent, so the block grouping of rows and columns
moves no bit: the simulator computes only the real M x N output, in row
tiles, over K padded to a multiple of vec, in bit-reversed lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .genome import NetworkDescription, SystolicConfig
from .hwmodel import GemmCost, gemm_cost


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


# --- layer simulation -----------------------------------------------------------

TILE_BYTES = 1024 * 1024   # one step's product buffer per row tile; fastest of 0.25-1.5 MiB (2 MiB L2)


def simulate_layer(
    a: np.ndarray,
    b: np.ndarray,
    cfg: SystolicConfig,
    bias: np.ndarray | None = None,
    relu: bool = False,
) -> tuple[np.ndarray, GemmCost]:
    """Run one M x K by K x N GEMM through the array dataflow.

    Returns the M x N result, with the optional bias and ReLU applied at the drain, and
    the model's cost of the GEMM. Each output element adds to acc the adjacent-pair tree
    of each vec-wide K slice's products, in K order. A step's products fill one
    (lanes, rows, N) buffer per row tile, sized near ``TILE_BYTES``. Its lanes, the slice
    zero-padded to a power of two, are bit-reversed: the tree's pairs sit at lanes i and
    i + lanes/2, so each level adds the buffer's second half onto its first. Padded M
    rows and N columns are not computed. einsum adds each rounded product to +0.0, so no
    product or sum is -0.0, and an odd tail keeps its value beside a zero lane. That and
    skipping the zero K slices past k rounded up to vec move no bit, as in
    round-to-nearest a zero sum is +0.0 unless both terms are -0.0: zero signs reach only
    zero sums, and acc, which starts at +0.0, is never -0.0, so it absorbs them.
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
    rev = np.zeros(1, dtype=np.intp)   # bit-reversed lane order: 0,4,2,6,1,5,3,7 for 8
    while rev.size < cfg.vec:
        rev = np.concatenate([2 * rev, 2 * rev + 1])
    lanes = rev.size
    halves = [lanes >> i for i in range(1, lanes.bit_length())]
    k_index = np.arange(-(-k // cfg.vec))[:, None] * cfg.vec + rev   # (steps, lanes)
    zero = (rev >= cfg.vec) | (k_index >= k)
    k_index[zero] = 0   # any valid row: these slots are zeroed after the gather
    b_lanes = b[k_index]
    b_lanes[zero] = 0.0
    tile_rows = max(1, TILE_BYTES // (lanes * n * 4))
    buf = np.empty(lanes * min(m, tile_rows) * n, dtype=np.float32)

    out = np.zeros((m, n), dtype=np.float32)
    for r0 in range(0, m, tile_rows):
        acc = out[r0:r0 + tile_rows]
        a_lanes = a[r0:r0 + tile_rows].T[k_index]
        a_lanes[zero] = 0.0
        p = buf[:lanes * acc.size].reshape(lanes, *acc.shape)
        for a_step, b_step in zip(a_lanes, b_lanes):
            np.einsum("jr,jn->jrn", a_step, b_step, out=p)
            for h in halves:
                np.add(p[:h], p[h:2 * h], out=p[:h])
            acc += p[0]
    # drain: one element per cycle through the bias/ReLU stage
    if bias is not None:
        out += np.asarray(bias, dtype=np.float32)
    if relu:
        np.maximum(out, np.float32(0.0), out=out)

    return out, gemm_cost(cfg, m, k, n)


def run_network(
    desc: NetworkDescription,
    params: list,
    inputs: np.ndarray,
    cfg: SystolicConfig,
) -> tuple[np.ndarray, list[GemmCost]]:
    """Run each layer as one simulate_layer call on the previous layer's output.

    ``params`` is a list of objects with ``weights`` (in x out) and ``bias``
    attributes, one per described layer.
    """
    if len(params) != len(desc.layers):
        raise SimulationError(f"expected {len(desc.layers)} layer params, got {len(params)}")

    x = np.asarray(inputs, dtype=np.float32)
    per_layer: list[GemmCost] = []
    for layer, p in zip(desc.layers, params):
        if p.weights.shape != (layer.in_features, layer.out_features):
            raise SimulationError(
                f"layer '{layer.name}': weights shape {p.weights.shape} does not match "
                f"({layer.in_features}, {layer.out_features})"
            )
        x, cost = simulate_layer(
            x, p.weights, cfg,
            bias=p.bias if layer.bias else None,
            relu=layer.activation == "relu",
        )
        per_layer.append(cost)
    return x, per_layer
