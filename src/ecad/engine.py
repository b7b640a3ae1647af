"""Steady-state evolutionary search loop.

Each cycle dispatches every unevaluated member to the fitness workers, sorts
the population by combined score, mutates the top performers into children
(round-robin over the top slice), inserts them and evicts the worst scored
members on overflow. The loop stops at the generation cap or when the best
combined score reaches the configured goal. All randomness flows from one
seeded generator, so trajectories are bit-reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any

from .config import EcadConfig
from .dispatch import Dispatcher, EvalJob
from .fitness import ScoreCard
from .genome import NetworkGenome, mutate, spawn, to_description
from .store import EcadDb


class EngineError(RuntimeError):
    pass


@dataclass
class Member:
    genome: NetworkGenome
    card: ScoreCard
    scored: bool = False
    combined: float = 0.0


@dataclass
class GenerationStats:
    generation: int
    evaluated: int
    best: float
    mean: float
    best_genome: dict[str, Any]

    def to_json(self) -> dict[str, Any]:
        return {
            "generation": self.generation,
            "evaluated": self.evaluated,
            "best": self.best,
            "mean": self.mean,
            "best_genome": self.best_genome,
        }


@dataclass
class SearchReport:
    config_name: str
    seed: int
    generations_run: int
    stop_reason: str
    best: dict[str, Any]
    history: list[GenerationStats] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "config_name": self.config_name,
            "seed": self.seed,
            "generations_run": self.generations_run,
            "stop_reason": self.stop_reason,
            "best": self.best,
            "history": [h.to_json() for h in self.history],
        }


class Population:
    """Owned by the engine; maps genome id to member state."""

    def __init__(self) -> None:
        self.members: dict[int, Member] = {}
        self.generation = 0
        self.next_id = 0

    def allocate_id(self) -> int:
        gid = self.next_id
        self.next_id += 1
        return gid

    def add(self, genome: NetworkGenome) -> None:
        self.members[genome.id] = Member(genome=genome, card=ScoreCard(genome_id=genome.id))

    def scored_members(self) -> list[Member]:
        return [m for m in self.members.values() if m.scored]

    def unscored_members(self) -> list[Member]:
        return [m for m in self.members.values() if not m.scored]

    def ranked(self) -> list[Member]:
        """Scored members, best combined first, older id winning ties."""
        return sorted(self.scored_members(), key=lambda m: (-m.combined, m.genome.id))


def _genome_summary(member: Member) -> dict[str, Any]:
    desc = to_description(member.genome)
    traits = {
        "neurons": [l.out_features for l in desc.layers[:-1]] or [desc.layers[-1].out_features],
        "batch": desc.batch,
        "cfg": str(desc.systolic) if desc.systolic else "",
    }
    return {
        "id": member.genome.id,
        "combined": member.combined,
        "traits": traits,
        "scores": dict(member.card.scores),
        "img_per_s": member.card.raw_metric("hwDBJob", "img_per_s"),
        "accuracy": member.card.raw_metric("simJob", "accuracy"),
    }


def run(
    cfg: EcadConfig,
    dispatcher: Dispatcher,
    store: EcadDb | None = None,
    seed: int = 0,
) -> tuple[SearchReport, Population]:
    """Run the full search; returns the report and the final population."""
    active = cfg.pop.active_eval_types()
    if not active:
        raise EngineError("config has no active eval types")

    rng = random.Random(seed)
    pop = Population()
    next_job_id = 0

    for _ in range(cfg.pop.initial_pop_size):
        pop.add(spawn(cfg, rng, pop.allocate_id(), generation=0))

    history: list[GenerationStats] = []
    stop_reason = "max generations reached"

    for generation in range(1, cfg.pop.max_generations + 1):
        pop.generation = generation

        # 1. evaluate everyone who still lacks a score
        jobs: list[EvalJob] = []
        for member in pop.unscored_members():
            desc = to_description(member.genome)
            for et in active:
                params: dict[str, Any] = {}
                if et.type == "simJob":
                    params = {"epochs": et.epochs or 1,
                              "batchSize": et.batch_size or desc.batch,
                              "seed": seed * 1_000_003 + member.genome.id}
                jobs.append(EvalJob(job_id=next_job_id, genome_id=member.genome.id,
                                    eval_type=et.type, network=desc, params=params))
                next_job_id += 1
        for result in dispatcher.dispatch_all(jobs):
            member = pop.members[result.genome_id]
            et = next(e for e in active if e.type == result.eval_type)
            if result.ok:
                member.card.record(et, result.metrics)
            else:
                member.card.record_failure(et, result.diagnostics)
        newly_scored: list[Member] = []
        for member in pop.unscored_members():
            if member.card.is_complete(cfg.pop):
                member.scored = True
                member.combined = member.card.combined(cfg.pop)
                newly_scored.append(member)

        scored = pop.scored_members()
        min_scored = min(cfg.pop.min_indiv_eval_complete, len(pop.members))
        if len(scored) < min_scored:
            raise EngineError(
                f"only {len(scored)} members evaluated; "
                f"need {min_scored} before fitness selection"
            )

        # 2. snapshot statistics and persist this generation's new records
        ranked = pop.ranked()
        best = ranked[0]
        stats = GenerationStats(
            generation=generation,
            evaluated=len(scored),
            best=best.combined,
            mean=math.fsum(m.combined for m in scored) / len(scored),
            best_genome=_genome_summary(best),
        )
        history.append(stats)
        if store is not None:
            for member in sorted(newly_scored, key=lambda m: m.genome.id):
                store.append(member.genome, member.card, generation, member.combined)

        # 3. stop conditions
        if best.combined >= cfg.pop.fitness_score_goal:
            stop_reason = "fitness goal reached"
            break
        if generation == cfg.pop.max_generations:
            break

        # 4. mutate the top slice into children, round-robin
        n_children = math.ceil(cfg.pop.change_rate * cfg.pop.max_pop_size)
        parents = [m.genome for m in ranked[:min(n_children, len(ranked))]]
        children = [
            mutate(parents[i % len(parents)], cfg, rng, pop.allocate_id(), generation=generation)
            for i in range(n_children)
        ]

        # 5. insert children; evict the worst scored members on overflow,
        #    never the unscored and never the current best (elitism)
        overflow = len(pop.members) + len(children) - cfg.pop.max_pop_size
        if overflow > 0:
            evictable = [m for m in reversed(ranked) if m.genome.id != best.genome.id]
            if len(evictable) < overflow:
                raise EngineError("population overflow cannot be resolved from scored members")
            for member in evictable[:overflow]:
                del pop.members[member.genome.id]
        for child in children:
            pop.add(child)

    best_summary = _genome_summary(pop.ranked()[0]) if pop.scored_members() else {}
    report = SearchReport(
        config_name=cfg.name,
        seed=seed,
        generations_run=len(history),
        stop_reason=stop_reason,
        best=best_summary,
        history=history,
    )
    return report, pop


def report_csv_rows(report: SearchReport) -> list[list[Any]]:
    """Per-generation CSV rows matching the documented column layout."""
    rows: list[list[Any]] = [[
        "generation", "best_score", "mean_score", "best_neurons",
        "best_batch", "best_cfg", "best_img_per_s", "best_accuracy",
    ]]
    for h in report.history:
        bg = h.best_genome
        neurons = bg["traits"]["neurons"]
        rows.append([
            h.generation,
            repr(h.best),
            repr(h.mean),
            ";".join(str(v) for v in neurons),
            bg["traits"]["batch"],
            bg["traits"]["cfg"],
            "" if bg["img_per_s"] is None else repr(bg["img_per_s"]),
            "" if bg["accuracy"] is None else repr(bg["accuracy"]),
        ])
    return rows
