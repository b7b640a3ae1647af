"""Independent reference implementations the simulator, trainer and genome
operators are checked against. These deliberately share no code with the
package: the dense oracle is a float64 matmul, the Adam oracle a float64
textbook update, the ordered oracles re-implement the documented
single-precision accumulation order (adjacent-pair tree over the vec axis,
then sequential accumulation over the scale vectors and the common-dimension
blocks) without any of the package's blocking or state machinery, and the
genome oracles re-derive every trait's legal values and change rate from its
spec on every draw, the way spawn and mutate did before they read per-config
tables, and the stand-in oracle builds each chunk of the synthetic dataset on
its own from the documented streams and quantile table. The stand-in
trainer replaces training altogether with a fixed accuracy per hidden width.
The loss oracle computes softmax cross-entropy of class labels on its own,
and the one-hot oracle is the gradient formula (softmax - one_hot) / n that
the trainer's subtract-at-the-label backprop must match bit for bit.

`init_mlp` and `grad` are not oracles: they are handles on the trainer's own
initialisation and backprop, which only tests call, kept here so that the
package holds only what a command reaches.
"""

from __future__ import annotations

import random
import statistics

import numpy as np

from ecad import nnsim
from ecad.dispatch import EvalJob, EvalResult
from ecad.genome import NetworkDescription


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


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of class labels: log-sum-exp minus the
    label's logit, both shifted by the row maximum."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_z - shifted[np.arange(shifted.shape[0]), labels]))


def one_hot_grads(m: nnsim.Mlp, batch: np.ndarray,
                  labels: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, bias) gradients of mean softmax cross-entropy per layer, with
    the gradient at the logits formed from a one-hot copy of the labels,
    delta = (softmax - one_hot) / n. Every other operation is the trainer's,
    in its order and dtype, so the result must equal its bits."""
    pre, post = [], [batch]
    for layer, act in zip(m.layers, m.activations):
        z = post[-1] @ layer.weights + layer.bias
        pre.append(z)
        post.append(np.maximum(z, 0) if act == "relu" else z)
    logits = post[-1]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    n = batch.shape[0]
    one_hot = np.zeros_like(logits)
    one_hot[np.arange(n), labels] = 1
    delta = (e / e.sum(axis=1, keepdims=True) - one_hot) / n
    grads = []
    for i in range(len(m.layers) - 1, -1, -1):
        grads.insert(0, (post[i].T @ delta, delta.sum(axis=0)))
        if i > 0:
            delta = delta @ m.layers[i].weights.T
            if m.activations[i - 1] == "relu":
                delta *= pre[i - 1] > 0
    return grads


def init_mlp(desc: NetworkDescription, seed: int, dtype=np.float32) -> nnsim.Mlp:
    """The network `nnsim.train` starts from at this seed: uniform
    +-sqrt(6 / (in + out)) weights, zero biases."""
    return nnsim._init_params(desc, seed, dtype)[1]


def grad(m: nnsim.Mlp, batch: np.ndarray, labels: np.ndarray) -> list[nnsim.LayerParams]:
    """The trainer's gradients of mean softmax cross-entropy of the class
    ``labels`` for one batch, as `nnsim._backprop` writes them."""
    post = nnsim._trace(m, np.asarray(batch))
    _, grads = nnsim._flat_layers([p.weights.shape for p in m.layers], post[-1].dtype)
    nnsim._backprop(m, post, labels, grads, [True] * len(m.layers))
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


# --- synthetic MNIST stand-in ---------------------------------------------------

def reference_synthetic_mnist(seed: int, n_train: int, n_test: int, features: int,
                              classes: int) -> tuple[np.ndarray, ...]:
    """(train_x, train_labels, test_x, test_labels) of the documented stand-in.

    Prototypes are 0.5 + 0.18 * (U[0, 1) - 0.5) from default_rng(seed).
    Chunk c of 256 rows of the training split (stream id 1) or the test split
    (stream id 2) draws 256 labels, then 256 rows of uint16 noise indices,
    from default_rng([seed, id, c]). An index i stands for the N(0, 0.3)
    quantile at probability (i + 0.5) / 65536, rounded to float32. Each chunk
    is built whole; the split is the chunks joined and cut to its size.
    """
    sigma, chunk_rows, levels = 0.30, 256, 65536
    quantiles = np.array([statistics.NormalDist().inv_cdf((i + 0.5) / levels) * sigma
                          for i in range(levels)], dtype=np.float32)
    rng = np.random.default_rng(seed)
    prototypes = (0.5 + 0.18 * (rng.uniform(0.0, 1.0, size=(classes, features)) - 0.5)).astype(np.float32)
    splits = []
    for stream, n in ((1, n_train), (2, n_test)):
        xs, ys = [np.zeros((0, features), dtype=np.uint8)], [np.zeros(0, dtype=np.uint8)]
        for chunk in range(-(-n // chunk_rows)):
            chunk_rng = np.random.default_rng([seed, stream, chunk])
            labels = chunk_rng.integers(0, classes, size=chunk_rows)
            indices = chunk_rng.integers(0, levels, size=(chunk_rows, features), dtype=np.uint16)
            v = prototypes[labels] + quantiles[indices]
            xs.append(np.rint(np.clip(v, 0.0, 1.0) * np.float32(255)).astype(np.uint8))
            ys.append(labels.astype(np.uint8))
        splits += [np.concatenate(xs)[:n], np.concatenate(ys)[:n]]
    return tuple(splits)


# --- genome operators -----------------------------------------------------------
# Traits are plain {name: value} dicts per cell; a genome is a list of
# (cell_name, traits) pairs in chain order. Draws come from the caller's
# random.Random in the documented order, so a run of these consumes exactly the
# same random numbers as the package's spawn and mutate.

_SYS = ("sys_rows", "sys_cols", "sys_intrlv")
_MUTATE_RETRIES = 16


def _trait_specs(cfg, cell_type: str) -> dict:
    return cfg.cell_types[cell_type]


def _legal_values(spec) -> list[int]:
    lo, hi = spec.min_value, spec.max_value
    if spec.func == "PowFunction":
        vals, v = [], 1
        while v <= hi:
            if v >= lo:
                vals.append(v)
            v *= spec.pow_value
        return vals
    if spec.mod_value:
        return list(range(lo + (-lo) % spec.mod_value, hi + 1, spec.mod_value))
    return list(range(lo, hi + 1))


def _sample(spec, rng: random.Random) -> int:
    values = _legal_values(spec)
    return values[rng.randrange(len(values))]


def _interleave_choices(spec, rows: int, cols: int) -> list[int]:
    vals, v = [], 1
    while v <= spec.max_value:
        if v >= max(rows + cols, spec.min_value):
            vals.append(v)
        v *= 2
    return vals


def _apply_interleave_rule(traits: dict, specs: dict, rng: random.Random) -> None:
    if not set(_SYS) <= specs.keys():
        return
    choices = _interleave_choices(specs["sys_intrlv"], traits["sys_rows"], traits["sys_cols"])
    traits["sys_intrlv"] = choices[rng.randrange(len(choices))]


def _interleave_ok(traits: dict, specs: dict) -> bool:
    if not set(_SYS) <= specs.keys():
        return True
    iv = traits["sys_intrlv"]
    return iv >= traits["sys_rows"] + traits["sys_cols"] and iv & (iv - 1) == 0


def reference_spawn(cfg, chain, rng: random.Random) -> list[tuple[str, dict]]:
    """Every trait of every cell in ``chain`` drawn from its spec, then the interleave rule."""
    cells = []
    for inst in chain:
        specs = _trait_specs(cfg, inst.cell_type)
        traits = {name: _sample(spec, rng) for name, spec in specs.items()}
        _apply_interleave_rule(traits, specs, rng)
        cells.append((inst.cell_name, traits))
    return cells


def _reference_mutation_pass(cfg, parent: list[tuple[str, str, dict]],
                             rng: random.Random) -> list[dict]:
    out = []
    for _, cell_type, parent_traits in parent:
        specs = _trait_specs(cfg, cell_type)
        traits = dict(parent_traits)
        structural = False
        for name, spec in specs.items():
            rate = spec.change_rate if spec.change_rate is not None else cfg.def_change_rate
            if rng.random() < rate:
                traits[name] = _sample(spec, rng)
                structural = structural or name in _SYS
        if structural or not _interleave_ok(traits, specs):
            _apply_interleave_rule(traits, specs, rng)
        out.append(traits)
    return out


def _reference_force_single_change(cfg, parent: list[tuple[str, str, dict]],
                                   rng: random.Random) -> list[dict]:
    candidates = [(idx, name) for idx, (_, cell_type, _) in enumerate(parent)
                  for name, spec in _trait_specs(cfg, cell_type).items()
                  if len(_legal_values(spec)) > 1]
    out = [dict(traits) for _, _, traits in parent]
    if not candidates:
        return out
    rng.shuffle(candidates)
    for idx, name in candidates:
        specs = _trait_specs(cfg, parent[idx][1])
        traits = dict(out[idx])
        current = traits[name]
        if name == "sys_intrlv":
            options = [v for v in _interleave_choices(specs[name], traits["sys_rows"],
                                                      traits["sys_cols"]) if v != current]
        else:
            options = [v for v in _legal_values(specs[name]) if v != current]
            if name in ("sys_rows", "sys_cols") and "sys_intrlv" in traits:
                other = traits["sys_cols" if name == "sys_rows" else "sys_rows"]
                options = [v for v in options if v + other <= traits["sys_intrlv"]] or options
        if not options:
            continue
        traits[name] = options[rng.randrange(len(options))]
        if not _interleave_ok(traits, specs):
            _apply_interleave_rule(traits, specs, rng)
        out[idx] = traits
        return out
    return out


def reference_mutate(cfg, parent: list[tuple[str, str, dict]],
                     rng: random.Random) -> list[dict]:
    """Child traits per cell of ``parent``, given as (cell_name, cell_type, traits) triples.

    Up to 16 passes in which each trait redraws with its change rate; if none
    changes anything, one trait is forced to a different legal value.
    """
    for _ in range(_MUTATE_RETRIES):
        child = _reference_mutation_pass(cfg, parent, rng)
        if child != [traits for _, _, traits in parent]:
            return child
    return _reference_force_single_change(cfg, parent, rng)


# --- stand-in trainer -----------------------------------------------------------

def stand_in_sim_worker(job: EvalJob) -> EvalResult:
    """simJob worker that reads accuracy off the hidden width w: 1 - 8 / (w + 64).

    One addition and one division per job, both exactly rounded, so a search
    scored with it gives the same bytes on every host. It stands in for
    training only where a test pins a whole search. Its accuracy is optimistic:
    0.9 at w=16, where a real 4-epoch training on 5,000 stand-in dataset rows
    reached 0.446. It ignores the training seed, the epochs and the batch
    size, so it cannot show how they move a score.
    """
    w = job.network.layers[0].out_features
    return EvalResult(genome_id=job.genome_id, eval_type=job.eval_type,
                      metrics={"accuracy": 1.0 - 8.0 / (w + 64)})
