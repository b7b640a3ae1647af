"""Score normalization and weighted combination of fitness objectives.

Each active objective maps one raw metric into [0, 1] against its configured
bounds; values below the floor clamp to exactly 0, which is how minimum-goal
constraints (e.g. a 90% accuracy floor) are enforced. The combined fitness is
the weighted sum over active objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .config import EvalTypeConfig, Fields, PopConfig
from .dispatch import EvalResult


def normalize(value: float, et: EvalTypeConfig) -> float:
    """Map a raw metric value to a score against the objective's bounds.

    Non-finite values score 0. Scores clamp to [0, 1] unless the objective
    allows overflow, in which case only the lower bound applies.
    """
    if not math.isfinite(value):
        return 0.0
    span = et.max_value - et.min_value
    if et.minimize:
        s = (et.max_value - value) / span
    else:
        s = (value - et.min_value) / span
    if not et.allow_overflow:
        s = min(s, 1.0)
    return max(s, 0.0)


@dataclass
class ScoreCard:
    """Per-individual record of raw metrics, normalized scores and the combined fitness."""

    metrics: dict[str, dict[str, float]] = field(default_factory=dict)   # eval_type -> raw metrics
    scores: dict[str, float] = field(default_factory=dict)               # eval_type -> normalized
    failed: dict[str, str] = field(default_factory=dict)                 # eval_type -> diagnostics

    def record(self, et: EvalTypeConfig, result: EvalResult) -> None:
        """Store the result's metrics, ok or failed; a failed result scores 0."""
        raw = result.metrics.get(et.scored_metric)
        self.metrics[et.type] = dict(result.metrics)
        if not result.ok:
            self.scores[et.type] = 0.0
            self.failed[et.type] = result.diagnostics
        elif raw is None or not math.isfinite(raw):
            self.scores[et.type] = 0.0
            self.failed[et.type] = f"metric '{et.scored_metric}' missing or non-finite"
        else:
            self.scores[et.type] = normalize(raw, et)

    def is_complete(self, pop: PopConfig) -> bool:
        return all(et.type in self.scores for et in pop.active_eval_types())

    def combined(self, pop: PopConfig) -> float:
        """Weighted sum over active objectives; requires a complete card."""
        if not self.is_complete(pop):
            missing = [et.type for et in pop.active_eval_types() if et.type not in self.scores]
            raise ValueError(f"score card missing objectives: {missing}")
        return math.fsum(et.weight * self.scores[et.type] for et in pop.active_eval_types())

    def raw_metric(self, eval_type: str, name: str) -> float | None:
        return self.metrics.get(eval_type, {}).get(name)

    def to_json(self) -> dict[str, Any]:
        return {
            "metrics": self.metrics,
            "scores": self.scores,
            "failed": self.failed,
        }

    @classmethod
    def from_json(cls, raw: Any) -> "ScoreCard":
        """A card as `to_json` writes it, read by type (`config.Fields`); raises ValueError."""
        card = Fields(raw, "card", ValueError)
        metrics = Fields(card("metrics", dict), "card: metrics", ValueError)
        return cls(
            metrics={et: metrics.table(et, float) for et in metrics.raw},
            scores=card.table("scores", float),
            failed=card.table("failed", str),
        )
