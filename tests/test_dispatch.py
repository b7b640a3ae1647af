import time
from dataclasses import replace

import pytest

from ecad import engine
from ecad.dispatch import Dispatcher, EvalJob, EvalResult
from ecad.store import EcadDb

from helpers import TimeLimitExceeded, mlp_desc, time_limit

NET = mlp_desc([784, 16, 10], batch=2, cfg=(2, 2, 2, 4, 2))


def job(genome_id: int, eval_type: str) -> EvalJob:
    return EvalJob(genome_id=genome_id, eval_type=eval_type, network=NET)


def echo(tag: float, calls: list):
    def worker(j: EvalJob) -> EvalResult:
        calls.append(j.genome_id)
        return EvalResult(genome_id=j.genome_id, eval_type=j.eval_type, metrics={"tag": tag})
    return worker


def test_mixed_eval_types_come_back_in_job_order():
    calls: list[int] = []
    disp = Dispatcher({"simJob": echo(1.0, calls), "hwDBJob": echo(2.0, calls)})
    jobs = [job(i, "simJob" if i % 3 else "hwDBJob") for i in range(7)]
    results = disp.dispatch_all(jobs)
    assert [(r.genome_id, r.eval_type) for r in results] == [(j.genome_id, j.eval_type) for j in jobs]
    assert [r.metrics["tag"] for r in results] == [
        1.0 if j.eval_type == "simJob" else 2.0 for j in jobs]
    assert calls == list(range(7))
    assert all(r.ok for r in results)


def test_raising_worker_yields_one_failed_result():
    calls: list[int] = []

    def boom(j: EvalJob) -> EvalResult:
        calls.append(j.genome_id)
        raise ZeroDivisionError("bad layer")

    results = Dispatcher({"simJob": boom}).dispatch_all([job(5, "simJob")])
    assert calls == [5]
    assert len(results) == 1
    res = results[0]
    assert (res.genome_id, res.eval_type) == (5, "simJob")
    assert not res.ok
    assert "ZeroDivisionError" in res.diagnostics and "bad layer" in res.diagnostics


def test_time_limit_escapes_a_worker():
    # a hung worker must stop the test, not become one failed job the run goes past
    def sleeper(j: EvalJob) -> EvalResult:
        time.sleep(1)
        return EvalResult(genome_id=j.genome_id, eval_type=j.eval_type)

    with pytest.raises(TimeLimitExceeded, match=r"still running after 0.2 s"), time_limit(0.2):
        Dispatcher({"simJob": sleeper}).dispatch_all([job(0, "simJob")])


def test_engine_scores_a_worker_exception_as_zero(listing_cfg, tmp_path):
    pop_cfg = replace(
        listing_cfg.pop, max_generations=1,
        eval_types=tuple(replace(et, active=et.type == "hwDBJob")
                         for et in listing_cfg.pop.eval_types))
    cfg = replace(listing_cfg, pop=pop_cfg)
    broken = 3

    def worker(j: EvalJob) -> EvalResult:
        if j.genome_id == broken:
            raise RuntimeError("model crashed")
        return EvalResult(genome_id=j.genome_id, eval_type=j.eval_type,
                          metrics={"effective_gops": 500.0})

    with EcadDb.create(tmp_path / "ecad.db.jsonl", cfg.cell_array) as store:
        engine.run(cfg, Dispatcher({"hwDBJob": worker}), store=store, seed=0)
    members = {rec.genome.id: rec for rec in store.scan()}
    assert len(members) == cfg.pop.initial_pop_size
    member = members[broken]
    assert member.card.scores["hwDBJob"] == 0.0
    assert member.combined == 0.0
    assert "RuntimeError: model crashed" in member.card.failed["hwDBJob"]
    others = [m for gid, m in members.items() if gid != broken]
    assert all(m.card.scores["hwDBJob"] == 0.5 for m in others)
