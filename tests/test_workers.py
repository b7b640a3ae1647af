import random

import numpy as np
import pytest

from ecad import hwmodel, nnsim, workers
from ecad.cli import DEFAULT_HW
from ecad.dispatch import Dispatcher, EvalJob
from ecad.genome import spawn, to_description

from helpers import mlp_desc

RESOURCE_METRICS = ("dsp_est", "mem_kb_est", "feasible")


@pytest.fixture
def estimate_calls(monkeypatch):
    """Descriptions the worker passes to hwmodel.estimate, in call order."""
    calls = []

    def spy(desc, cfg, hw):
        calls.append(desc)
        return hwmodel.estimate(desc, cfg, hw)

    monkeypatch.setattr(workers, "estimate", spy)
    return calls


def run(desc, hw=DEFAULT_HW):
    return workers.make_hwdb_worker(hw)(EvalJob(genome_id=7, eval_type="hwDBJob", network=desc))


@pytest.mark.parametrize("cfg,dsp,mem", [
    ((16, 16, 16, 64, 8), 4128.0, 2304.0),       # over the DSP budget
    ((2, 2, 64, 256, 256), 288.0, 131328.0),     # over the memory budget only
])
def test_infeasible_design_never_reaches_estimate(estimate_calls, cfg, dsp, mem):
    res = run(mlp_desc([784, 196, 10], batch=64, cfg=cfg))
    assert estimate_calls == []
    assert (res.genome_id, res.eval_type, res.ok) == (7, "hwDBJob", False)
    assert res.metrics == {"dsp_est": dsp, "mem_kb_est": mem, "feasible": 0.0}
    assert res.diagnostics == f"resource budget exceeded: dsp {dsp:.0f}/1518, mem {mem:.0f}/54260"


def test_feasible_metrics_are_the_estimate(estimate_calls):
    desc = mlp_desc([784, 196, 10], batch=64, cfg=(4, 4, 8, 8, 8))
    res = run(desc)
    assert estimate_calls == [desc]
    assert (res.ok, res.diagnostics) == (True, "")
    assert res.metrics == hwmodel.estimate(desc, desc.systolic, DEFAULT_HW).metrics()
    assert res.metrics["feasible"] == 1.0


def test_every_searched_design_matches_the_full_model(listing_cfg, estimate_calls):
    # a screened result carries exactly the resource metrics estimate reports,
    # and estimate runs once per design that fits
    rng = random.Random(4)
    worker = workers.make_hwdb_worker(listing_cfg.hw)
    feasible = 0
    for gid in range(300):
        desc = to_description(spawn(listing_cfg, rng, gid), listing_cfg.cell_array)
        full = hwmodel.estimate(desc, desc.systolic, listing_cfg.hw)
        res = worker(EvalJob(genome_id=gid, eval_type="hwDBJob", network=desc))
        if full.feasible:
            feasible += 1
            assert res.ok and res.metrics == full.metrics()
        else:
            assert not res.ok
            assert res.metrics == {k: full.metrics()[k] for k in RESOURCE_METRICS}
            assert res.diagnostics == (
                f"resource budget exceeded: dsp {full.dsp_est:.0f}/{listing_cfg.hw.dsp}, "
                f"mem {full.mem_kb_est:.0f}/{listing_cfg.hw.sram}")
    assert len(estimate_calls) == feasible
    assert 0 < feasible < 300


def test_diverged_training_fails_its_job_in_the_dispatcher(small_dataset, monkeypatch):
    monkeypatch.setattr(nnsim, "ADAM_LR", 1e30)
    job = EvalJob(genome_id=3, eval_type="simJob", network=mlp_desc([784, 8, 10], batch=50),
                  params={"epochs": 2, "batchSize": 50, "seed": 0})
    dispatcher = Dispatcher({"simJob": workers.make_sim_worker(small_dataset)})
    with np.errstate(over="ignore", invalid="ignore"):
        [res] = dispatcher.dispatch_all([job])
    assert (res.genome_id, res.eval_type, res.ok) == (3, "simJob", False)
    assert res.diagnostics.startswith("TrainingDiverged: non-finite loss at epoch ")
