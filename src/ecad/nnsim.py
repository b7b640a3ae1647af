"""Native MLP trainer: builds the network from a description, trains with
mini-batch Adam on softmax cross-entropy, reports test accuracy and exports
the weights and biases in the binary interchange format (16-byte header of
four little-endian int32 dimensions, then row-major float32 data).

The loss reads the dataset's uint8 class labels directly: the gradient at
the logits is softmax minus 1 at each row's label, divided by the batch size,
so no one-hot array is built. A ``bias: false`` layer's bias stays 0, as in
the array simulator.

All parameters of a network live in one flat buffer: each layer's weights
(in x out, row-major) then its bias, layer after layer, and every
``LayerParams`` array is a view into it. Training keeps a gradient buffer
of the same layout, which backprop fills through per-layer views, so one
Adam step is a dozen in-place ufunc passes over three flat buffers (first
and second moments and one scratch) with no per-tensor loop and no
temporaries. The step runs entirely in the parameter dtype (float32): the
bias-corrected step size lr * sqrt(1 - b2^t) / (1 - b1^t) is a Python float,
which numpy treats as a weak scalar, so no pass is promoted to float64.

A weight whose gradient stays 0 has its first moment decay by b1 = 0.9 per
step into float32's subnormal range, where arithmetic is about 50x slower.
Every FLUSH_EVERY = 256 steps, first-moment entries below FLUSH_BELOW = 1e-20
in magnitude are set to 0. An entry that survives a flush is at least
1e-20 * 0.9^256 ~ 1.9e-32 at the next one, a normal float32 (the smallest is
1.2e-38), and so is the 0.1x update term computed from it. An entry that is
flushed would have moved its weight by at most lr * 1e-20 / eps = 1e-15.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .dataset import Dataset, to_float
from .genome import NetworkDescription

ADAM_LR = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
FLUSH_EVERY = 256     # steps between first-moment flushes
FLUSH_BELOW = 1e-20   # first-moment magnitude flushed to 0
ACCURACY_CHUNK = 256   # test rows per float32 forward pass; 2048 raised peak RSS 12 MiB, no faster


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class LayerParams:
    weights: np.ndarray   # (in_features, out_features)
    bias: np.ndarray      # (out_features,)


@dataclass
class Mlp:
    layers: list[LayerParams]
    activations: list[str]   # per layer: "relu" | "none"


@dataclass
class TrainReport:
    name: str
    accuracy: float
    epochs: int
    batch_size: int

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8")


def _flat_layers(shapes: list[tuple[int, int]], dtype) -> tuple[np.ndarray, list[LayerParams]]:
    """One zeroed flat buffer plus (weights, bias) views into it, layer by layer."""
    flat = np.zeros(sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes), dtype=dtype)
    layers, off = [], 0
    for fan_in, fan_out in shapes:
        w = flat[off:off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        layers.append(LayerParams(weights=w, bias=flat[off:off + fan_out]))
        off += fan_out
    return flat, layers


def _init_params(desc: NetworkDescription, seed: int, dtype) -> tuple[np.ndarray, Mlp]:
    """Seeded uniform +-sqrt(6 / (in + out)) weight init, zero biases, in one flat buffer."""
    rng = np.random.default_rng(seed)
    flat, layers = _flat_layers([(l.in_features, l.out_features) for l in desc.layers], dtype)
    for params in layers:
        fan_in, fan_out = params.weights.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.weights[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return flat, Mlp(layers=layers, activations=[l.activation for l in desc.layers])


def forward(m: Mlp, batch: np.ndarray) -> np.ndarray:
    """Logits for a batch; ReLU on hidden layers, no softmax."""
    x = np.asarray(batch)
    if x.ndim != 2 or x.shape[1] != m.layers[0].weights.shape[0]:
        raise ValueError(f"batch width {x.shape} does not match input size {m.layers[0].weights.shape[0]}")
    return _trace(m, x)[-1]


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _trace(m: Mlp, x: np.ndarray) -> list[np.ndarray]:
    post = [x]
    for params, act in zip(m.layers, m.activations):
        z = post[-1] @ params.weights + params.bias
        post.append(np.maximum(z, 0) if act == "relu" else z)
    return post


def _backprop(m: Mlp, post: list[np.ndarray], labels: np.ndarray,
              grads: list[LayerParams], biased: list[bool]) -> None:
    """Write the gradients of mean softmax cross-entropy of the class
    ``labels`` into ``grads``. At the logits that is (softmax - one-hot) / n,
    formed by subtracting 1 at each row's label. Layers not ``biased`` keep a
    0 bias gradient; a ReLU passes gradient where its output, so its input, is > 0."""
    n = post[0].shape[0]
    delta = softmax(post[-1])
    delta[np.arange(n), labels] -= 1
    delta /= n
    for i in range(len(m.layers) - 1, -1, -1):
        np.matmul(post[i].T, delta, out=grads[i].weights)
        if biased[i]:
            np.sum(delta, axis=0, out=grads[i].bias)
        if i > 0:
            delta = delta @ m.layers[i].weights.T
            if m.activations[i - 1] == "relu":
                delta *= post[i] > 0


def accuracy(m: Mlp, x: np.ndarray, y: np.ndarray) -> float:
    """Share of rows of 8-bit pixels ``x`` whose argmax logit is the class
    label in ``y``; ``ACCURACY_CHUNK`` rows at a time become float32 inputs."""
    hits = 0
    for lo in range(0, x.shape[0], ACCURACY_CHUNK):
        logits = forward(m, to_float(x[lo:lo + ACCURACY_CHUNK]))
        hits += int(np.sum(np.argmax(logits, axis=1) == y[lo:lo + ACCURACY_CHUNK]))
    return hits / x.shape[0]


class _Adam:
    """Adam over one flat parameter buffer, updated in place in its own dtype."""

    def __init__(self, params: np.ndarray) -> None:
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.scratch = np.empty_like(params)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        step_size = ADAM_LR * math.sqrt(1 - ADAM_BETA2 ** self.t) / (1 - ADAM_BETA1 ** self.t)
        m, v, s = self.m, self.v, self.scratch
        np.subtract(grads, m, out=s)           # m += (1 - b1) * (g - m)
        np.multiply(s, 1 - ADAM_BETA1, out=s)
        np.add(m, s, out=m)
        np.multiply(grads, grads, out=s)       # v += (1 - b2) * (g * g - v)
        np.subtract(s, v, out=s)
        np.multiply(s, 1 - ADAM_BETA2, out=s)
        np.add(v, s, out=v)
        np.sqrt(v, out=s)                      # p -= step_size * m / (sqrt(v) + eps)
        np.add(s, ADAM_EPS, out=s)
        np.divide(m, s, out=s)
        np.multiply(s, step_size, out=s)
        np.subtract(params, s, out=params)
        if self.t % FLUSH_EVERY == 0:
            m[np.abs(m, out=s) < FLUSH_BELOW] = 0


def _fit(m: Mlp, flat: np.ndarray, biased: list[bool], data: Dataset, epochs: int,
         batch_size: int, rng: np.random.Generator) -> None:
    """Train ``m``, whose parameters are views of ``flat``, in place; the
    training buffers and the last batch are freed when it returns."""
    grad_flat, grads = _flat_layers([p.weights.shape for p in m.layers], flat.dtype)
    opt = _Adam(flat)
    n = data.train_x.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            idx = order[lo:lo + batch_size]
            xb, yb = to_float(data.train_x[idx]), data.train_y[idx]
            post = _trace(m, xb)
            if not np.isfinite(post[-1]).all():
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, offset {lo}")
            _backprop(m, post, yb, grads, biased)
            opt.step(flat, grad_flat)


def train(desc: NetworkDescription, data: Dataset, epochs: int, batch_size: int,
          seed: int = 0) -> tuple[Mlp, TrainReport]:
    """Mini-batch Adam training; deterministic for a fixed seed. Each batch's
    8-bit pixels become float32 inputs when it is gathered. Test accuracy is
    measured once, after the last epoch. ``epochs`` and ``batch_size`` are at
    least 1: `parse_config` and the CLI refuse smaller values.

    Raises TrainingDiverged on a non-finite loss.
    """
    flat, m = _init_params(desc, seed, np.float32)
    _fit(m, flat, [l.bias for l in desc.layers], data, epochs, batch_size,
         np.random.default_rng(seed + 1))
    report = TrainReport(
        name=str(desc.id),
        accuracy=accuracy(m, data.test_x, data.test_y),
        epochs=epochs,
        batch_size=batch_size,
    )
    return m, report


# --- binary parameter files ----------------------------------------------------

def _write_bin(path: Path, dims: tuple[int, int, int, int], data: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4i", *dims))
        fh.write(np.ascontiguousarray(data, dtype=np.float32).tobytes())


def _read_bin(path: Path) -> tuple[tuple[int, ...], np.ndarray]:
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise ValueError(f"{path}: missing 16-byte dimension header")
    dims = struct.unpack("<4i", raw[:16])
    count = math.prod(dims)
    data = np.frombuffer(raw[16:], dtype="<f4")
    if data.shape[0] != count:
        raise ValueError(f"{path}: header says {count} values, file holds {data.shape[0]}")
    return dims, data


def save_params(m: Mlp, dir_path: str | Path, cell_names: list[str]) -> list[Path]:
    """Write <cell>_weights.bin and <cell>_biases.bin per layer; returns the paths."""
    if len(cell_names) != len(m.layers):
        raise ValueError(f"need {len(m.layers)} cell names, got {len(cell_names)}")
    out_dir = Path(dir_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, params in zip(cell_names, m.layers):
        fan_in, fan_out = params.weights.shape
        wpath = out_dir / f"{name}_weights.bin"
        bpath = out_dir / f"{name}_biases.bin"
        _write_bin(wpath, (fan_in, fan_out, 1, 1), params.weights)
        _write_bin(bpath, (fan_out, 1, 1, 1), params.bias)
        written += [wpath, bpath]
    return written


def load_params(dir_path: str | Path, cell_names: list[str]) -> list[LayerParams]:
    """Inverse of save_params."""
    out_dir = Path(dir_path)
    layers: list[LayerParams] = []
    for name in cell_names:
        wdims, wdata = _read_bin(out_dir / f"{name}_weights.bin")
        bdims, bdata = _read_bin(out_dir / f"{name}_biases.bin")
        weights = wdata.reshape(wdims[0], wdims[1]).copy()
        bias = bdata[:bdims[0]].copy()
        if bias.shape[0] != weights.shape[1]:
            raise ValueError(f"{name}: bias length {bias.shape[0]} does not match weights {weights.shape}")
        layers.append(LayerParams(weights=weights, bias=bias))
    return layers


def build_mlp(desc: NetworkDescription, params: list[LayerParams]) -> Mlp:
    """Assemble an Mlp from a description plus loaded parameters."""
    if len(params) != len(desc.layers):
        raise ValueError(f"expected {len(desc.layers)} layers, got {len(params)}")
    for layer, p in zip(desc.layers, params):
        if p.weights.shape != (layer.in_features, layer.out_features):
            raise ValueError(f"layer '{layer.name}': weights shape {p.weights.shape} mismatched")
    return Mlp(layers=list(params), activations=[l.activation for l in desc.layers])
