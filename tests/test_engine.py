import math
from dataclasses import replace

import pytest

from ecad import engine
from ecad.config import parse_config
from ecad.dataset import synthetic_mnist
from ecad.dispatch import Dispatcher, EvalJob, EvalResult
from ecad.genome import to_description
from ecad.store import EcadDb, replay
from ecad.workers import make_hwdb_worker, make_sim_worker

from helpers import listing_doc

GENERATIONS = 12
MAX_GOPS = 2048.0


def width_worker(job: EvalJob) -> EvalResult:
    """hwDBJob stub whose metric is the hidden width, so the score is width / MAX_GOPS."""
    return EvalResult(genome_id=job.genome_id, eval_type=job.eval_type,
                      metrics={"effective_gops": float(job.network.layers[0].out_features)})


def hw_only(cfg, **pop_values):
    """cfg scored by hwDBJob alone, with an unclamped width score and the given pop values."""
    eval_types = tuple(replace(et, active=et.type == "hwDBJob", max_value=MAX_GOPS)
                       for et in cfg.pop.eval_types)
    return replace(cfg, pop=replace(cfg.pop, eval_types=eval_types, **pop_values))


@pytest.fixture
def small_cfg(listing_cfg):
    # two founders and five children per generation: the first generation's
    # children reuse each parent, and the population overflows in generation 3
    return hw_only(listing_cfg, initial_pop_size=2, max_pop_size=10, change_rate=0.5,
                   max_generations=GENERATIONS, fitness_score_goal=math.inf)


def search(cfg, tmp_path, seed=5):
    path = tmp_path / f"seed{seed}-goal{cfg.pop.fitness_score_goal}.jsonl"
    with EcadDb.create(path, cfg.cell_array) as store:
        report = engine.run(cfg, Dispatcher({"hwDBJob": width_worker}), store=store, seed=seed)
    return report, list(store.scan())


def n_children(cfg) -> int:
    return math.ceil(cfg.pop.change_rate * cfg.pop.max_pop_size)


def width(rec, cfg) -> int:
    return to_description(rec.genome, cfg.cell_array).layers[0].out_features


def test_records_per_generation(small_cfg, tmp_path):
    report, records = search(small_cfg, tmp_path)
    assert report["generations_run"] == GENERATIONS
    assert [r.genome.id for r in records] == list(range(len(records)))
    for g in range(1, GENERATIONS + 1):
        upto = [r for r in records if r.generation <= g]
        assert len(upto) == small_cfg.pop.initial_pop_size + n_children(small_cfg) * (g - 1)
    assert all(rec.combined == width(rec, small_cfg) / MAX_GOPS for rec in records)


def test_population_never_exceeds_max(small_cfg, tmp_path):
    report, _ = search(small_cfg, tmp_path)
    pop = small_cfg.pop
    sizes = [h["population"] for h in report["history"]]
    assert sizes == [min(pop.initial_pop_size + n_children(small_cfg) * (g - 1), pop.max_pop_size)
                     for g in range(1, GENERATIONS + 1)]
    assert max(sizes) == pop.max_pop_size


def test_best_never_decreases(small_cfg, tmp_path):
    report, _ = search(small_cfg, tmp_path)
    bests = [h["best"] for h in report["history"]]
    assert bests == sorted(bests)
    assert report["best"]["combined"] == bests[-1]


def test_children_come_round_robin_from_previous_top(small_cfg, tmp_path):
    """Replays ranking and eviction from the records: each generation's children
    descend, in id order, from the previous generation's top slice in rank order,
    and each generation's population is the one `store.replay` rebuilds."""
    report, records = search(small_cfg, tmp_path)
    replayed = list(replay(small_cfg.pop, records))
    c, max_pop = n_children(small_cfg), small_cfg.pop.max_pop_size
    alive: dict[int, float] = {}
    top: list[int] = []
    for g in range(1, GENERATIONS + 1):
        fresh = [r for r in records if r.generation == g]
        if g > 1:
            assert [r.genome.parent_id for r in fresh] == [top[i % len(top)] for i in range(c)]
        alive.update((r.genome.id, r.combined) for r in fresh)
        ranked = sorted(alive, key=lambda gid: (-alive[gid], gid))
        assert report["history"][g - 1]["best_genome"]["id"] == ranked[0]
        assert report["history"][g - 1]["population"] == len(alive)
        generation, population = replayed[g - 1]
        assert (generation, [r.genome.id for r in population]) == (g, ranked)
        top = ranked[:min(c, len(ranked))]
        overflow = len(alive) + c - max_pop
        for gid in [gid for gid in reversed(ranked) if gid != ranked[0]][:max(overflow, 0)]:
            del alive[gid]
    assert len(top) == c   # the later generations used a full top slice


def test_stops_when_goal_reached(small_cfg, tmp_path):
    full, _ = search(small_cfg, tmp_path)
    bests = [h["best"] for h in full["history"]]
    # the first generation whose best beats the generation before it
    g = next(i for i in range(1, len(bests)) if bests[i] > bests[i - 1]) + 1
    goal_cfg = replace(small_cfg, pop=replace(small_cfg.pop, fitness_score_goal=bests[g - 1]))
    report, records = search(goal_cfg, tmp_path)
    assert report["stop_reason"] == "fitness goal reached"
    assert report["generations_run"] == g < GENERATIONS
    assert [h["best"] for h in report["history"]] == bests[:g]
    assert max(r.generation for r in records) == g
    assert full["stop_reason"] == "max generations reached"


def test_database_round_trips_the_run(small_cfg, tmp_path):
    # what the store reads back is what the engine held: each record it yielded,
    # and from the header cells the description each genome was scored on
    scored = {}

    def recording_worker(job: EvalJob) -> EvalResult:
        scored[job.genome_id] = job.network
        return width_worker(job)

    path = tmp_path / "ecad.db.jsonl"
    with EcadDb.create(path, small_cfg.cell_array) as store:
        yielded = list(engine._records(small_cfg, Dispatcher({"hwDBJob": recording_worker}),
                                       store, seed=5))
    db = EcadDb(path)
    cells = db.cells()
    assert cells == small_cfg.cell_array
    records = {rec.genome.id: rec for rec in db.scan()}
    assert sorted(records) == sorted(scored)
    assert list(records.values()) == yielded
    assert all(to_description(rec.genome, cells) == scored[gid] for gid, rec in records.items())


def test_best_summary_is_built_once_per_distinct_best(small_cfg, tmp_path, monkeypatch):
    _, records = search(small_cfg, tmp_path)
    summary, built = engine._genome_summary, []
    monkeypatch.setattr(engine, "_genome_summary",
                        lambda rec, cells: built.append(rec.genome.id) or summary(rec, cells))
    report = engine.report(small_cfg, 5, records)
    best_ids = [h["best_genome"]["id"] for h in report["history"]]
    assert built == [gid for i, gid in enumerate(best_ids) if i == 0 or gid != best_ids[i - 1]]
    assert len(built) < len(best_ids)
    for h, (_, ranked) in zip(report["history"], replay(small_cfg.pop, records)):
        assert h["best_genome"] == summary(ranked[0], small_cfg.cell_array)
    assert report["best"] == report["history"][-1]["best_genome"]


def test_header_only_database_folds_to_an_empty_report(small_cfg, tmp_path):
    # a search killed in generation 1 leaves the header and no records
    path = tmp_path / "ecad.db.jsonl"
    with EcadDb.create(path, small_cfg.cell_array):
        pass
    assert EcadDb(path).cells() == small_cfg.cell_array
    assert engine.report(small_cfg, 3, EcadDb(path).scan()) == {
        "config_name": small_cfg.name, "seed": 3, "generations_run": 0,
        "stop_reason": None, "best": None, "history": [],
    }


def test_equal_stacks_train_to_equal_metrics(tmp_path):
    # every training of a run takes the run seed, so a simJob result is a function
    # of the layer stack, epochs and batch size: 20 spawns over the 8 (width, bias)
    # stacks of dense neurons 2..8 must repeat a stack, and each stack scores once
    doc = listing_doc()
    next(ct for ct in doc["cellTypes"] if ct["cell_type"] == "dense")["neurons"] = {
        "minValue": 2, "maxValue": 8, "modValue": 2}
    doc["popConfigValues"]["maxGenerations"] = 1
    cfg = parse_config(doc)
    data = synthetic_mnist(seed=0, n_train=300, n_test=200)
    dispatcher = Dispatcher({"hwDBJob": make_hwdb_worker(cfg.hw), "simJob": make_sim_worker(data)})
    path = tmp_path / "ecad.db.jsonl"
    with EcadDb.create(path, cfg.cell_array) as store:
        engine.run(cfg, dispatcher, store, seed=0)
    metrics: dict[tuple, list[dict[str, float]]] = {}
    for rec in EcadDb(path).scan():
        sim = rec.card.metrics["simJob"]
        key = (to_description(rec.genome, cfg.cell_array).layers, sim["epochs"], sim["batch_size"])
        metrics.setdefault(key, []).append(sim)
    assert sum(map(len, metrics.values())) == cfg.pop.initial_pop_size > len(metrics)
    assert all(sims == [sims[0]] * len(sims) for sims in metrics.values())
