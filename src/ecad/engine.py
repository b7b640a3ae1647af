"""Steady-state evolutionary search loop.

Each generation scores the genomes created since the last one (the initial
spawn, then the previous generation's children), ranks the whole population
by combined score, mutates the top performers into children (round-robin over
the top slice) and keeps only the best members that leave room for them. The
loop stops at the generation cap or when the best combined score reaches the
configured goal. All randomness flows from one seeded generator, so
trajectories are bit-reproducible.

`run` expects a config from `parse_config` and does not check it again: it
relies on at least one active eval type and on fewer children per generation
than maxPopSize, so the best member is never evicted.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any

from .config import CellInstance, EcadConfig
from .dispatch import Dispatcher, EvalJob
from .fitness import ScoreCard
from .genome import mutate, spawn, to_description
from .store import DbRecord, EcadDb, rank_key


@dataclass
class GenerationStats:
    generation: int
    population: int
    best: float
    mean: float
    best_genome: dict[str, Any]


@dataclass
class SearchReport:
    config_name: str
    seed: int
    generations_run: int
    stop_reason: str
    best: dict[str, Any]
    history: list[GenerationStats] = field(default_factory=list)


def _genome_summary(member: DbRecord, cells: tuple[CellInstance, ...]) -> dict[str, Any]:
    desc = to_description(member.genome, cells)
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
    active_by_type = {et.type: et for et in active}
    n_children = math.ceil(cfg.pop.change_rate * cfg.pop.max_pop_size)

    rng = random.Random(seed)
    ids = itertools.count()
    members: dict[int, DbRecord] = {}
    fresh = [spawn(cfg, rng, next(ids)) for _ in range(cfg.pop.initial_pop_size)]

    history: list[GenerationStats] = []
    stop_reason = "max generations reached"

    for generation in range(1, cfg.pop.max_generations + 1):
        # 1. score the genomes created since the last generation; the dispatcher
        #    returns one result, ok or failed, per job, so every card completes
        cards = {g.id: ScoreCard() for g in fresh}
        jobs: list[EvalJob] = []
        for genome in fresh:
            desc = to_description(genome, cfg.cell_array)
            for et in active:
                params: dict[str, Any] = {}
                if et.type == "simJob":
                    params = {"epochs": et.epochs or 1,
                              "batchSize": et.batch_size or desc.batch,
                              "seed": seed * 1_000_003 + genome.id}
                jobs.append(EvalJob(genome_id=genome.id, eval_type=et.type,
                                    network=desc, params=params))
        for result in dispatcher.dispatch_all(jobs):
            cards[result.genome_id].record(active_by_type[result.eval_type], result)
        for genome in fresh:
            card = cards[genome.id]
            rec = DbRecord(genome, card, generation, card.combined(cfg.pop))
            members[genome.id] = rec
            if store is not None:
                store.append(rec)

        # 2. rank (best combined first, older id winning ties) and snapshot statistics
        ranked = sorted(members.values(), key=rank_key)
        best = ranked[0]
        history.append(GenerationStats(
            generation=generation,
            population=len(members),
            best=best.combined,
            mean=math.fsum(m.combined for m in members.values()) / len(members),
            best_genome=_genome_summary(best, cfg.cell_array),
        ))

        # 3. stop conditions
        if best.combined >= cfg.pop.fitness_score_goal:
            stop_reason = "fitness goal reached"
            break
        if generation == cfg.pop.max_generations:
            break

        # 4. mutate the top slice into children, round-robin
        parents = [m.genome for m in ranked[:n_children]]
        fresh = [
            mutate(parents[i % len(parents)], cfg, rng, next(ids))
            for i in range(n_children)
        ]

        # 5. make room for the children: keep the top maxPopSize - n_children,
        #    which holds the best member since n_children < maxPopSize
        for member in ranked[cfg.pop.max_pop_size - n_children:]:
            del members[member.genome.id]

    report = SearchReport(
        config_name=cfg.name,
        seed=seed,
        generations_run=len(history),
        stop_reason=stop_reason,
        best=history[-1].best_genome,
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
