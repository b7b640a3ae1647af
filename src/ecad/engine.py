"""Steady-state evolutionary search loop.

Each generation scores the genomes created since the last one (the initial
spawn, then the previous generation's children), ranks the whole population
by combined score, mutates the top performers into children (round-robin over
the top slice) and evicts the worst members on overflow. The loop stops at
the generation cap or when the best combined score reaches the configured
goal. All randomness flows from one seeded generator, so trajectories are
bit-reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any

from .config import EcadConfig
from .dispatch import Dispatcher, EvalJob
from .fitness import ScoreCard
from .genome import mutate, spawn, to_description
from .store import DbRecord, EcadDb


class EngineError(RuntimeError):
    pass


@dataclass
class GenerationStats:
    generation: int
    population: int
    best: float
    mean: float
    best_genome: dict[str, Any]

    def to_json(self) -> dict[str, Any]:
        return {
            "generation": self.generation,
            "population": self.population,
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


def _genome_summary(member: DbRecord) -> dict[str, Any]:
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
) -> tuple[SearchReport, dict[int, DbRecord]]:
    """Run the full search; returns the report and the final population by genome id."""
    active = cfg.pop.active_eval_types()
    if not active:
        raise EngineError("config has no active eval types")
    active_by_type = {et.type: et for et in active}

    rng = random.Random(seed)
    ids = itertools.count()
    seqs = itertools.count()
    members: dict[int, DbRecord] = {}
    fresh = [spawn(cfg, rng, next(ids)) for _ in range(cfg.pop.initial_pop_size)]

    history: list[GenerationStats] = []
    stop_reason = "max generations reached"

    for generation in range(1, cfg.pop.max_generations + 1):
        # 1. score the genomes created since the last generation; the dispatcher
        #    returns one result, ok or failed, per job, so every card completes
        cards = {g.id: ScoreCard(genome_id=g.id) for g in fresh}
        jobs: list[EvalJob] = []
        for genome in fresh:
            desc = to_description(genome)
            for et in active:
                params: dict[str, Any] = {}
                if et.type == "simJob":
                    params = {"epochs": et.epochs or 1,
                              "batchSize": et.batch_size or desc.batch,
                              "seed": seed * 1_000_003 + genome.id}
                jobs.append(EvalJob(genome_id=genome.id, eval_type=et.type,
                                    network=desc, params=params))
        for result in dispatcher.dispatch_all(jobs):
            card = cards[result.genome_id]
            et = active_by_type[result.eval_type]
            if result.ok:
                card.record(et, result.metrics)
            else:
                card.record_failure(et, result.diagnostics)
        for genome in fresh:
            card = cards[genome.id]
            rec = DbRecord(genome, card, generation, card.combined(cfg.pop), seq=next(seqs))
            members[genome.id] = rec
            if store is not None:
                store.append(rec)

        # 2. rank (best combined first, older id winning ties) and snapshot statistics
        ranked = sorted(members.values(), key=lambda m: (-m.combined, m.genome.id))
        best = ranked[0]
        history.append(GenerationStats(
            generation=generation,
            population=len(members),
            best=best.combined,
            mean=math.fsum(m.combined for m in members.values()) / len(members),
            best_genome=_genome_summary(best),
        ))

        # 3. stop conditions
        if best.combined >= cfg.pop.fitness_score_goal:
            stop_reason = "fitness goal reached"
            break
        if generation == cfg.pop.max_generations:
            break

        # 4. mutate the top slice into children, round-robin
        n_children = math.ceil(cfg.pop.change_rate * cfg.pop.max_pop_size)
        parents = [m.genome for m in ranked[:min(n_children, len(ranked))]]
        fresh = [
            mutate(parents[i % len(parents)], cfg, rng, next(ids), generation=generation)
            for i in range(n_children)
        ]

        # 5. make room for the children: evict the worst members on overflow,
        #    never the current best (elitism)
        overflow = len(members) + len(fresh) - cfg.pop.max_pop_size
        if overflow > 0:
            evictable = [m for m in reversed(ranked) if m.genome.id != best.genome.id]
            if len(evictable) < overflow:
                raise EngineError("population overflow cannot be resolved without evicting the best member")
            for member in evictable[:overflow]:
                del members[member.genome.id]

    report = SearchReport(
        config_name=cfg.name,
        seed=seed,
        generations_run=len(history),
        stop_reason=stop_reason,
        best=history[-1].best_genome if history else {},
        history=history,
    )
    return report, members


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
