"""Shared builders and reference values for the test suite."""

from __future__ import annotations

import contextlib
import json
import signal
from pathlib import Path
from typing import Any

from ecad.genome import LayerDesc, NetworkDescription, SystolicConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
LISTING_CONFIG = REPO_ROOT / "configs" / "mlp_mnist.ecad.cfg"


def listing_doc() -> dict[str, Any]:
    """The listing config as one JSON document with its includes merged in, for editing."""
    doc = json.loads(LISTING_CONFIG.read_text(encoding="utf-8"))
    merged: dict[str, Any] = {}
    for inc in doc.pop("includes"):
        merged.update(json.loads((LISTING_CONFIG.parent / inc).read_text(encoding="utf-8")))
    merged.update(doc)
    return merged


def padded(cfg: SystolicConfig, m: int, k: int, n: int) -> tuple[int, int, int]:
    """(M', K', N'): a GEMM's dimensions padded up to whole blocks of
    rows * interleave, vec * scale and cols * interleave, worked out here
    rather than by the model."""
    bh, cb, bw = cfg.rows * cfg.interleave, cfg.vec * cfg.scale, cfg.cols * cfg.interleave
    return -(-m // bh) * bh, -(-k // cb) * cb, -(-n // bw) * bw


class TimeLimitExceeded(BaseException):
    """Raised by `time_limit`. Not an Exception, so code under test that
    catches Exception, such as a dispatcher failing one job, cannot swallow it."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Fail the block with TimeLimitExceeded if it runs longer than ``seconds`` (main thread only)."""
    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

# published modeled performance for the (4, 4, 8, 8, 8) configuration running
# the 784/196/190/150/10 MLP at 250 MHz: batch -> (effective GOP/s, time ms)
TABLE2_MODELED = {
    1: (1.16, 0.38),
    16: (18.6, 0.38),
    32: (37.2, 0.38),
    64: (40.3, 0.7),
    128: (42.0, 1.35),
    256: (42.98, 2.63),
    512: (43.47, 5.2),
    1024: (43.7, 10.35),
    2048: (43.84, 20.64),
}

# top permutations of the joint accuracy/img/s search
TABLE3_CONFIGS = ["2,8,16,16,2", "2,16,32,32,2", "2,8,32,16,2"]


def mlp_desc(dims: list[int], batch: int, cfg: tuple[int, int, int, int, int] | None = None,
             bias: bool = True, net_id: int = 0) -> NetworkDescription:
    """Dense MLP description with ReLU on hidden layers."""
    layers = []
    for i in range(len(dims) - 1):
        act = "relu" if i < len(dims) - 2 else "none"
        name = f"dense{i:02d}" if i < len(dims) - 2 else "Y"
        layers.append(LayerDesc(name, dims[i], dims[i + 1], act, bias))
    systolic = None if cfg is None else SystolicConfig(*cfg)
    return NetworkDescription(id=net_id, batch=batch, layers=tuple(layers), systolic=systolic)
