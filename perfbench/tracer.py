"""Call timing from outside the program.

A :class:`Tracer` replaces public names of the ``ecad`` package with timing
wrappers at the place their callers look them up (a module attribute read at
call time, or a class attribute), so nothing under ``src/`` changes. Each
wrapper records the call count, the busy time, the self time (busy time minus
the time spent in wrapped calls made from inside it) and every duration, so
percentiles can be taken. Optional hooks see each call's arguments and result
to count the work it did.

Two instrumentation sets exist:

* ``probe`` wraps the few coarse boundaries the end-to-end metrics need
  (first dispatch, each training call, each simulator run). It costs a few
  microseconds per generation and is active in every run.
* ``trace`` wraps every module boundary listed in README.md and is active
  only in traced iterations.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable

Hook = Callable[[tuple, dict, Any], None]


@dataclass
class CallStats:
    calls: int = 0
    errors: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    starts: list[float] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Aggregates timings of wrapped calls; restores every name on ``close``."""

    def __init__(self) -> None:
        self.stats: dict[str, CallStats] = {}
        self._child_time: list[float] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def stat(self, name: str) -> CallStats:
        return self.stats.setdefault(name, CallStats())

    def wrap(self, name: str, fn: Callable, after: Hook | None = None) -> Callable:
        stats = self.stat(name)
        child_time = self._child_time
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                elapsed = clock() - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                stats.calls += 1
                stats.busy_s += elapsed
                stats.self_s += elapsed - inner
                stats.starts.append(start)
                stats.durations.append(elapsed)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def replace(self, owner: Any, attr: str, value: Any) -> Any:
        """Set ``owner.attr`` to ``value`` until ``close``; returns the original."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, value)
        return original

    def patch(self, owner: Any, attr: str, name: str, after: Hook | None = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording under ``name``."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def close(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def bind(fn: Callable, args: tuple, kwargs: dict) -> dict[str, Any]:
    """Arguments of one call by parameter name, defaults applied."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def training_macs(desc: Any, n_train: int, n_test: int, epochs: int) -> int:
    """Multiply-accumulates of one ``nnsim.train`` call.

    Per training row: the forward GEMMs, the weight-gradient GEMMs and the
    input-gradient GEMMs of every layer but the first. Per test row and epoch:
    one forward pass (the per-epoch test accuracy).
    """
    sizes = [layer.in_features * layer.out_features for layer in desc.layers]
    per_train_row = 2 * sum(sizes) + sum(sizes[1:])
    return epochs * (n_train * per_train_row + n_test * sum(sizes))
