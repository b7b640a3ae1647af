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
pipelined reduction-tree hardware. Output elements are independent, so the
block grouping of rows and columns moves no bit: the simulator computes only
the real M x N output, in row tiles, over K padded to a multiple of vec.
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

TILE_BYTES = 512 * 1024   # one step's product array per row tile; fits a 2 MiB L2


def simulate_layer(
    a: np.ndarray,
    b: np.ndarray,
    cfg: SystolicConfig,
    bias: np.ndarray | None = None,
    relu: bool = False,
) -> tuple[np.ndarray, GemmCost]:
    """Run one M x K by K x N GEMM through the array dataflow.

    Returns the M x N result, with the optional bias and ReLU applied at the
    drain, and the model's cost of the GEMM. Each output element gets
    ``acc += tree_reduce(products)`` for consecutive vec-wide K slices in K
    order, over row tiles sized so one step's (vec, rows, N) einsum outer
    product stays near ``TILE_BYTES``; padded M rows and N columns are not
    computed. einsum adds each rounded product to +0.0, so -0.0 comes out +0.0.
    That and skipping the zero K slices past k rounded up to vec move no bit, as in
    round-to-nearest a zero sum is +0.0 unless both terms are -0.0: zero signs reach
    only zero sums, and acc, which starts at +0.0, is never -0.0, so it absorbs them.
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
    vec = cfg.vec
    steps = -(-k // vec)
    a = np.pad(a, ((0, 0), (0, steps * vec - k)))
    b_steps = np.pad(b, ((0, steps * vec - k), (0, 0))).reshape(steps, vec, n)
    tile_rows = max(1, TILE_BYTES // (vec * n * 4))

    out = np.zeros((m, n), dtype=np.float32)
    for r0 in range(0, m, tile_rows):
        acc = out[r0:r0 + tile_rows]
        a_steps = np.ascontiguousarray(a[r0:r0 + tile_rows].T).reshape(steps, vec, -1)
        for s in range(steps):
            acc += tree_reduce(np.einsum("jr,jn->jrn", a_steps[s], b_steps[s]))
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
