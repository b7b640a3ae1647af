"""Steady-state evolutionary search: a stream of records and a fold over it.

The search (`_records`) stores and yields each genome's record. A generation
scores the genomes created since the last one (the initial spawn, then the
previous generation's children), ranks and evicts with `store.select`, and,
until `store.stop_reason`, mutates the top slice into children (round-robin).
One seeded generator drives all randomness and every training takes the run
seed, so trajectories are bit-reproducible and a simJob result depends only
on the layer stack, epochs and batch size.

`report` folds records generation by generation through `store.replay`.
`run` folds the search's records as they come, and the same fold over
`EcadDb(path).scan()` rebuilds the report from the database. `run` trusts
`parse_config`: an active eval type, and fewer children than maxPopSize, so
the best member is never evicted.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Any, Iterable, Iterator

from .config import CellInstance, EcadConfig
from .dispatch import Dispatcher, EvalJob
from .fitness import ScoreCard
from .genome import mutate, spawn, to_description
from .store import DbRecord, EcadDb, replay, select, stop_reason


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


def _records(cfg: EcadConfig, dispatcher: Dispatcher, store: EcadDb,
             seed: int) -> Iterator[DbRecord]:
    """The search: each genome's record, in id order, once it is stored."""
    active = cfg.pop.active_eval_types()
    active_by_type = {et.type: et for et in active}
    n_children = cfg.pop.children

    rng = random.Random(seed)
    ids = itertools.count()
    survivors: list[DbRecord] = []
    fresh = [spawn(cfg, rng, next(ids)) for _ in range(cfg.pop.initial_pop_size)]

    for generation in itertools.count(1):
        # 1. score the genomes created since the last generation; the dispatcher
        #    returns one result, ok or failed, per job, so every card completes
        cards = {g.id: ScoreCard() for g in fresh}
        jobs: list[EvalJob] = []
        for genome in fresh:
            desc = to_description(genome, cfg.cell_array)
            for et in active:
                params = ({"epochs": et.epochs, "batchSize": et.batch_size or desc.batch, "seed": seed}
                          if et.type == "simJob" else {})
                jobs.append(EvalJob(genome_id=genome.id, eval_type=et.type,
                                    network=desc, params=params))
        for result in dispatcher.dispatch_all(jobs):
            cards[result.genome_id].record(active_by_type[result.eval_type], result)
        scored = [DbRecord(g, cards[g.id], generation, cards[g.id].combined(cfg.pop)) for g in fresh]
        for rec in scored:
            store.append(rec)
            yield rec

        # 2. rank and evict, then stop or mutate the top slice into children, round-robin
        ranked, survivors = select(cfg.pop, survivors, scored)
        if stop_reason(cfg.pop, generation, ranked) is not None:
            return
        parents = [m.genome for m in ranked[:n_children]]
        fresh = [mutate(parents[i % len(parents)], cfg, rng, next(ids)) for i in range(n_children)]


def report(cfg: EcadConfig, seed: int, records: Iterable[DbRecord]) -> dict[str, Any]:
    """The report of the search that wrote ``records``: per whole generation,
    the population size, best and mean combined score and the best genome.
    The stop reason is the last whole generation's `stop_reason`, null for a
    crashed search or an empty stream (such as the scan of a database that
    holds only its header), which folds to a null best."""
    history: list[dict[str, Any]] = []
    best: dict[str, Any] | None = None
    reason: str | None = None
    for generation, ranked in replay(cfg.pop, records):
        reason = stop_reason(cfg.pop, generation, ranked)
        if best is None or best["id"] != ranked[0].genome.id:
            best = _genome_summary(ranked[0], cfg.cell_array)   # once per distinct best
        history.append({
            "generation": generation,
            "population": len(ranked),
            "best": ranked[0].combined,
            "mean": math.fsum(m.combined for m in ranked) / len(ranked),
            "best_genome": best,
        })
    return {
        "config_name": cfg.name,
        "seed": seed,
        "generations_run": len(history),
        "stop_reason": reason,
        "best": best,
        "history": history,
    }


def run(cfg: EcadConfig, dispatcher: Dispatcher, store: EcadDb, seed: int = 0) -> dict[str, Any]:
    """Run the full search, appending each record to ``store``; returns its report."""
    return report(cfg, seed, _records(cfg, dispatcher, store, seed))
