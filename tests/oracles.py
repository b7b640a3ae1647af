"""Independent reference implementations the simulator and trainer are checked
against. These deliberately share no code with the package: the dense oracle
is a float64 matmul, the Adam oracle a float64 textbook update, the ordered oracles re-implement the documented
single-precision accumulation order (adjacent-pair tree over the vec axis,
then sequential accumulation over the scale vectors and the common-dimension
blocks) without any of the package's blocking or state machinery.
"""

from __future__ import annotations

import numpy as np


def dense_oracle(a: np.ndarray, b: np.ndarray, bias: np.ndarray | None = None,
                 relu: bool = False) -> np.ndarray:
    """Ground-truth GEMM in float64."""
    c = a.astype(np.float64) @ b.astype(np.float64)
    if bias is not None:
        c = c + bias.astype(np.float64)[None, :]
    if relu:
        c = np.maximum(c, 0.0)
    return c


def max_rel_error(result: np.ndarray, oracle: np.ndarray) -> float:
    """Largest absolute deviation relative to the oracle's magnitude."""
    scale = max(float(np.max(np.abs(oracle))), 1e-30)
    return float(np.max(np.abs(result.astype(np.float64) - oracle))) / scale


def _pairwise_tree(values: np.ndarray) -> np.ndarray:
    """Levelwise adjacent-pair float32 sum; an odd tail passes through."""
    v = values.astype(np.float32)
    while v.shape[-1] > 1:
        n = v.shape[-1]
        half = n // 2
        paired = v[..., : 2 * half].reshape(v.shape[:-1] + (half, 2))
        summed = paired[..., 0] + paired[..., 1]
        if n % 2:
            summed = np.concatenate([summed, v[..., 2 * half:]], axis=-1)
        v = summed
    return v[..., 0]


def ordered_oracle(a: np.ndarray, b: np.ndarray, vec: int, scale: int,
                   bh: int, bw: int,
                   bias: np.ndarray | None = None, relu: bool = False) -> np.ndarray:
    """Order-faithful float32 GEMM over the whole zero-padded operand pair.

    Every output element accumulates tree-reduced vec-wide products in the
    fixed (common-block, scale-vector) order; bias and ReLU apply last.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    m, k = a.shape
    n = b.shape[1]
    cb = vec * scale
    k_pad = -(-k // cb) * cb
    m_pad = -(-m // bh) * bh
    n_pad = -(-n // bw) * bw
    ap = np.zeros((m_pad, k_pad), dtype=np.float32)
    bp = np.zeros((k_pad, n_pad), dtype=np.float32)
    ap[:m, :k] = a
    bp[:k, :n] = b

    acc = np.zeros((m_pad, n_pad), dtype=np.float32)
    for start in range(0, k_pad, vec):   # (block, scale-vector) pairs in order
        chunk = ap[:, start:start + vec][:, None, :] * bp[start:start + vec, :].T[None, :, :]
        acc = acc + _pairwise_tree(chunk)

    if bias is not None:
        bias_pad = np.zeros(n_pad, dtype=np.float32)
        bias_pad[:bias.shape[0]] = bias.astype(np.float32)
        acc = acc + bias_pad[None, :]
    if relu:
        acc = np.maximum(acc, np.float32(0.0))
    return acc[:m, :n]


def scalar_ordered_oracle(a: np.ndarray, b: np.ndarray, vec: int, scale: int,
                          bias: np.ndarray | None = None,
                          relu: bool = False) -> np.ndarray:
    """Element-by-element float32 reference for tiny problems.

    Same accumulation order as ordered_oracle, written as explicit scalar
    loops; used to validate that the vectorized implementations really follow
    the documented order.
    """

    def tree(vals: list[np.float32]) -> np.float32:
        while len(vals) > 1:
            nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
            if len(vals) % 2:
                nxt.append(vals[-1])
            vals = nxt
        return vals[0]

    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    m, k = a.shape
    n = b.shape[1]
    cb = vec * scale
    k_pad = -(-k // cb) * cb
    out = np.zeros((m, n), dtype=np.float32)
    for i in range(m):
        for j in range(n):
            acc = np.float32(0.0)
            for start in range(0, k_pad, vec):
                prods = []
                for t in range(start, start + vec):
                    av = a[i, t] if t < k else np.float32(0.0)
                    bv = b[t, j] if t < k else np.float32(0.0)
                    prods.append(np.float32(av * bv))
                acc = np.float32(acc + tree(prods))
            if bias is not None:
                acc = np.float32(acc + np.float32(bias[j]))
            if relu and acc < 0:
                acc = np.float32(0.0)
            out[i, j] = acc
    return out


def finite_difference_grads(loss_fn, params: list[np.ndarray], eps: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradients of a scalar loss over float64 parameter arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p, dtype=np.float64)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            hi = loss_fn()
            p[idx] = orig - eps
            lo = loss_fn()
            p[idx] = orig
            g[idx] = (hi - lo) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


def adam_reference(params: np.ndarray, grads: list[np.ndarray], lr: float, beta1: float,
                   beta2: float, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float64 Adam over a gradient sequence; returns (params, m, v).

    Kingma & Ba, Algorithm 1, with the bias correction folded into the step
    size (their Section 2): alpha_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t).
    """
    p = np.asarray(params, dtype=np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        alpha_t = lr * np.sqrt(1 - beta2 ** t) / (1 - beta1 ** t)
        p = p - alpha_t * m / (np.sqrt(v) + eps)
    return p, m, v
