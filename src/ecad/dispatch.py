"""Routing of evaluation jobs to fitness workers.

Each eval type maps to one worker callable in this process. A job runs once,
in job order, and yields exactly one result (ok or failed); the engine matches
each result to its job by genome id and eval type. A worker that raises fails
only its own job: `_run` is the one place an exception becomes a failed
result. Workers are deterministic, so a failed job is not retried: a retry
would repeat the same exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .genome import NetworkDescription


@dataclass(frozen=True)
class EvalJob:
    genome_id: int
    eval_type: str
    network: NetworkDescription
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class EvalResult:
    genome_id: int
    eval_type: str
    metrics: dict[str, float] = field(default_factory=dict)
    ok: bool = True
    diagnostics: str = ""


Worker = Callable[[EvalJob], EvalResult]


class Dispatcher:
    """Runs each job on the worker registered for its eval type."""

    def __init__(self, workers: dict[str, Worker]) -> None:
        self.workers = dict(workers)

    def dispatch_all(self, jobs: list[EvalJob]) -> list[EvalResult]:
        """One result per job, in job order. `cli._build_dispatcher` registers a
        worker for every active eval type, and the engine makes jobs of no other."""
        return [self._run(job) for job in jobs]

    def _run(self, job: EvalJob) -> EvalResult:
        try:
            return self.workers[job.eval_type](job)
        except Exception as exc:  # noqa: BLE001 - a worker fault fails only its own job
            return EvalResult(genome_id=job.genome_id, eval_type=job.eval_type,
                              ok=False, diagnostics=f"{type(exc).__name__}: {exc}")
