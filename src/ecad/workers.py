"""Fitness workers: wrap the hardware model and the native trainer behind
the common job-in/result-out interface.

`parse_config` guarantees that every genome of a search with hwDBJob active
describes a valid network with an array, which `genome.SystolicConfig` checked
when it was built, so the hwDBJob worker uses ``desc.systolic`` as it is, at
the device clock ``hw.freq``. Any other error a worker raises fails only its
own job, in `Dispatcher._run`.
"""

from __future__ import annotations

from .config import HwConfig
from .dataset import Dataset
from .dispatch import EvalJob, EvalResult, Worker
from .hwmodel import estimate, resource_estimate
from .nnsim import train


def make_hwdb_worker(hw: HwConfig) -> Worker:
    """Analytical-model worker: screens the design's resources, then times it.

    The resource screen runs before the timing model. A design that does not
    fit the device budget comes back as a failed result carrying only the
    screen's metrics (``dsp_est``, ``mem_kb_est``, ``feasible`` 0.0) and
    scores zero on hwDBJob; no timing work is spent on it. A design that fits
    gets the full metric set from ``estimate``.
    """

    def worker(job: EvalJob) -> EvalResult:
        desc = job.network
        dsp_est, mem_kb_est, feasible = resource_estimate(desc.systolic, hw)
        if not feasible:
            return EvalResult(
                genome_id=job.genome_id, eval_type=job.eval_type,
                metrics={"dsp_est": dsp_est, "mem_kb_est": mem_kb_est, "feasible": 0.0},
                ok=False,
                diagnostics=f"resource budget exceeded: dsp {dsp_est:.0f}/{hw.dsp}, "
                            f"mem {mem_kb_est:.0f}/{hw.sram}",
            )
        return EvalResult(genome_id=job.genome_id, eval_type=job.eval_type,
                          metrics=estimate(desc, desc.systolic, hw).metrics())

    return worker


def make_sim_worker(data: Dataset) -> Worker:
    """Trainer worker: trains the described network and reports test accuracy.

    The job's params give the epochs, the batch size and the seed, which is the
    run seed: a result depends on the layer stack, epochs and batch size alone.
    A diverged training raises TrainingDiverged; `Dispatcher._run` fails the job.
    """

    def worker(job: EvalJob) -> EvalResult:
        _, report = train(job.network, data, epochs=job.params["epochs"],
                          batch_size=job.params["batchSize"], seed=job.params["seed"])
        return EvalResult(
            genome_id=job.genome_id, eval_type=job.eval_type,
            metrics={"accuracy": report.accuracy, "epochs": float(report.epochs),
                     "batch_size": float(report.batch_size)},
        )

    return worker

